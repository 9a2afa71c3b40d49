// EXPLAIN-style walk-through driven by SQL text.
//
// Parses COUNT(*) queries against the TPC-H-lite catalog, estimates them
// with and without SITs, and prints the chosen decomposition — the
// closest thing to an optimizer's EXPLAIN for cardinality estimation.
//
//   $ ./sql_explain
//   $ ./sql_explain "SELECT COUNT(*) FROM orders, customer
//        WHERE orders.o_custkey = customer.c_custkey AND
//        customer.c_nation = 0"

#include <cstdio>

#include "condsel/datagen/tpch_lite.h"
#include "condsel/exec/evaluator.h"
#include "condsel/harness/metrics.h"
#include "condsel/parser/parser.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_pool.h"

using namespace condsel;  // NOLINT: example brevity

int main(int argc, char** argv) {
  TpchLiteOptions opt;
  opt.scale = 0.05;
  const Catalog catalog = BuildTpchLite(opt);
  CardinalityCache cache;
  Evaluator evaluator(&catalog, &cache);
  SitBuilder builder(&evaluator, SitBuildOptions{});

  std::vector<std::string> sqls;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) sqls.emplace_back(argv[i]);
  } else {
    sqls = {
        "SELECT COUNT(*) FROM orders WHERE orders.o_totalprice > 50000",
        "SELECT COUNT(*) FROM lineitem, orders WHERE "
        "lineitem.l_orderkey = orders.o_orderkey AND "
        "orders.o_totalprice > 50000",
        "SELECT COUNT(*) FROM lineitem, orders, customer WHERE "
        "lineitem.l_orderkey = orders.o_orderkey AND "
        "orders.o_custkey = customer.c_custkey AND "
        "orders.o_totalprice > 50000 AND customer.c_nation = 0",
    };
  }

  for (const std::string& sql : sqls) {
    std::printf("SQL> %s\n", sql.c_str());
    const StatusOr<Query> parsed = ParseQuery(catalog, sql);
    if (!parsed.ok()) {
      std::printf("  parse error: %s\n\n",
                  parsed.status().message().c_str());
      continue;
    }
    const Query& q = *parsed;
    const double truth = evaluator.Cardinality(q, q.all_predicates());
    const double cross =
        CrossProductCardinality(catalog, q, q.all_predicates());

    // Pool: base histograms for every referenced column plus SITs over
    // every join expression the query contains.
    const SitPool pool = GenerateSitPool(
        {q}, SetSize(q.join_predicates()), builder);
    SitMatcher matcher(&pool);
    matcher.BindQuery(&q);
    DiffError diff;
    AtomicSelectivityProvider fa(&matcher, &diff);
    GetSelectivity gs(&q, &fa);
    const double est =
        gs.Compute(q.all_predicates()).selectivity * cross;

    std::printf("  true count:      %12.0f\n", truth);
    std::printf("  estimate (SITs): %12.1f\n", est);
    std::printf("  decomposition:\n%s\n",
                gs.Explain(q.all_predicates()).c_str());
  }
  return 0;
}
