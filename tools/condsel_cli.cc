// condsel_cli — command-line cardinality estimation.
//
// Loads (or synthesizes) a database, builds SIT pools, and answers
// COUNT(*) SQL with estimates, explanations, and optional ground truth.
//
//   condsel_cli [options] "SELECT COUNT(*) FROM ... WHERE ..." [more sql]
//
// Options:
//   --db=snowflake|tpch     synthetic database to use   (default snowflake)
//   --scale=<float>         data scale                  (default 0.01)
//   --sits=<int>            SIT pool join depth J_i     (default 2)
//   --ranking=diff|nind     decomposition ranking       (default diff)
//   --catalog=<path>        load a serialized catalog instead of --db
//   --pool=<path>           load a serialized SIT pool (with --catalog)
//   --truth                 also run the query exactly and show the error
//   --explain               print the chosen decomposition
//   --max-subproblems=<N>   budget: memo entries computed     (0 = unlimited)
//   --max-atomic=<N>        budget: atomic decompositions     (0 = unlimited)
//   --deadline-ms=<F>       budget: wall clock per estimate   (0 = unlimited)
//   --stats                 print search statistics and degradation flags
//   --audit                 record every estimator's derivation DAG and
//                           statically verify it (DerivationAuditor); a
//                           violation fails the run with exit code 1
//   --serve-selftest        stand up an in-process EstimationService and
//                           drive it from concurrent session threads while
//                           epochs refresh and injected faults pulse; the
//                           telemetry invariants (balanced books, zero torn
//                           snapshots) are checked and a violation fails
//                           the run with exit code 1. With no SQL, a
//                           default synthetic workload is generated.
//
// With no SQL arguments, reads one statement per line from stdin.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "condsel/analysis/auditor.h"
#include "condsel/api.h"
#include "condsel/baselines/gvm.h"
#include "condsel/baselines/no_sit.h"
#include "condsel/datagen/snowflake.h"
#include "condsel/optimizer/integration.h"
#include "condsel/selectivity/exhaustive.h"
#include "condsel/datagen/tpch_lite.h"
#include "condsel/datagen/workload.h"
#include "condsel/common/fault_injector.h"
#include "condsel/io/serialize.h"
#include "condsel/parser/parser.h"
#include "condsel/service/service.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/version.h"

using namespace condsel;  // NOLINT: tool brevity

namespace {

struct Options {
  std::string db = "snowflake";
  double scale = 0.01;
  int sits = 2;
  Ranking ranking = Ranking::kDiff;
  std::string catalog_path;
  std::string pool_path;
  bool truth = false;
  bool explain = false;
  bool stats = false;
  bool audit = false;
  bool serve_selftest = false;
  EstimationBudget budget;
  std::vector<std::string> sql;
};

bool ParseArgs(int argc, char** argv, Options* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.compare(0, std::strlen(prefix), prefix) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    // One hoisted cursor, not per-branch `const char* v` declarations:
    // in an else-if chain each inner declaration sits inside the outer
    // condition's scope, which -Wshadow rejects.
    const char* v = nullptr;
    if ((v = value("--db=")) != nullptr) {
      out->db = v;
    } else if ((v = value("--scale=")) != nullptr) {
      out->scale = std::atof(v);
    } else if ((v = value("--sits=")) != nullptr) {
      out->sits = std::atoi(v);
    } else if ((v = value("--ranking=")) != nullptr) {
      if (std::string(v) == "nind") {
        out->ranking = Ranking::kNInd;
      } else if (std::string(v) == "diff") {
        out->ranking = Ranking::kDiff;
      } else {
        std::fprintf(stderr, "unknown ranking '%s'\n", v);
        return false;
      }
    } else if ((v = value("--catalog=")) != nullptr) {
      out->catalog_path = v;
    } else if ((v = value("--pool=")) != nullptr) {
      out->pool_path = v;
    } else if ((v = value("--max-subproblems=")) != nullptr) {
      out->budget.max_subproblems =
          static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
    } else if ((v = value("--max-atomic=")) != nullptr) {
      out->budget.max_atomic_decompositions =
          static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
    } else if ((v = value("--deadline-ms=")) != nullptr) {
      out->budget.deadline_seconds = std::atof(v) / 1000.0;
    } else if (arg == "--stats") {
      out->stats = true;
    } else if (arg == "--audit") {
      out->audit = true;
    } else if (arg == "--serve-selftest") {
      out->serve_selftest = true;
    } else if (arg == "--truth") {
      out->truth = true;
    } else if (arg == "--explain") {
      out->explain = true;
    } else if (arg == "--version") {
      std::printf("condsel %s\n", kVersionString);
      std::exit(0);
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      out->sql.push_back(arg);
    }
  }
  return true;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: condsel_cli [--db=snowflake|tpch] [--scale=F] [--sits=J]\n"
      "                   [--ranking=diff|nind] [--catalog=PATH "
      "[--pool=PATH]]\n"
      "                   [--max-subproblems=N] [--max-atomic=N]\n"
      "                   [--deadline-ms=F] [--stats] [--audit]\n"
      "                   [--serve-selftest] [--truth] [--explain] "
      "[SQL ...]\n"
      "With no SQL arguments, statements are read from stdin, one per "
      "line.\n");
}

// Exhaustive search is exponential-factorial; past this many predicates
// the reference estimator is skipped in the audit sweep.
constexpr int kMaxExhaustivePreds = 6;

// Records and statically verifies the derivation of every estimator on
// `q`. Prints one line per estimator; returns false if any audit fails.
bool AuditQuery(const Query& q, const SitPool& pool, Ranking ranking,
                const EstimationBudget& budget) {
  SitMatcher matcher(&pool);
  matcher.BindQuery(&q);
  static const NIndError n_ind;
  static const DiffError diff;
  const ErrorFunction* fn =
      ranking == Ranking::kNInd ? static_cast<const ErrorFunction*>(&n_ind)
                                : static_cast<const ErrorFunction*>(&diff);
  AtomicSelectivityProvider approx(&matcher, fn);
  const DerivationAuditor auditor;
  bool all_ok = true;

  auto show = [&](const char* name, const AuditReport& report) {
    if (report.ok()) {
      std::printf("  audit:    %-14s clean (%zu node%s)\n", name,
                  report.nodes_checked,
                  report.nodes_checked == 1 ? "" : "s");
    } else {
      all_ok = false;
      std::printf("  audit:    %-14s %s", name, report.ToString().c_str());
    }
  };

  {
    EstimationBudget b = budget;  // GetSelectivity borrows the budget
    GetSelectivity gs(&q, &approx, &b);
    DerivationDag dag;
    gs.set_recorder(&dag);
    gs.Compute(q.all_predicates());
    show("getSelectivity", auditor.Audit(q, dag, gs.stats()));
  }
  if (SetSize(q.all_predicates()) <= kMaxExhaustivePreds) {
    DerivationDag dag;
    ExhaustiveBest(q, q.all_predicates(), &approx,
                   /*separable_first=*/true, &dag);
    show("exhaustive", auditor.Audit(q, dag));
  } else {
    std::printf("  audit:    %-14s skipped (%d predicates)\n", "exhaustive",
                SetSize(q.all_predicates()));
  }
  {
    GvmEstimator gvm(&matcher);
    DerivationDag dag;
    gvm.set_recorder(&dag);
    gvm.Estimate(q, q.all_predicates());
    show("gvm", auditor.Audit(q, dag));
  }
  {
    NoSitEstimator no_sit(&matcher);
    DerivationDag dag;
    no_sit.set_recorder(&dag);
    no_sit.Estimate(q, q.all_predicates());
    show("noSit", auditor.Audit(q, dag));
  }
  {
    OptimizerCoupledEstimator coupled(&q, &approx);
    DerivationDag dag;
    coupled.set_recorder(&dag);
    const StatusOr<SelEstimate> est = coupled.TryEstimate(q.all_predicates());
    if (est.ok()) {
      show("optimizer", auditor.Audit(q, dag));
    } else {
      std::printf("  audit:    %-14s skipped (%s)\n", "optimizer",
                  est.status().message().c_str());
    }
  }
  return all_ok;
}

// In-process overload drill: concurrent tenants against one
// EstimationService while epochs refresh and injected faults pulse.
// Returns false if any serving invariant is violated.
bool RunServeSelftest(const Catalog& catalog, const SitPool& pool,
                      const std::vector<Query>& queries, Ranking ranking) {
  constexpr int kSessionThreads = 8;
  constexpr int kSubmitsPerThread = 16;
  constexpr int kRefreshes = 12;

  ServiceOptions options;
  options.ranking = ranking;
  options.admission.max_concurrent = 4;
  options.admission.queue_limit = 4;
  options.retry.initial_backoff_seconds = 1e-4;
  options.breaker.open_after = 2;
  options.breaker.close_after = 2;
  EstimationService service(options);
  {
    const StatusOr<uint64_t> seed = service.Refresh(catalog, pool);
    if (!seed.ok()) {
      std::fprintf(stderr, "serve-selftest: seed refresh failed: %s\n",
                   seed.status().ToString().c_str());
      return false;
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> err_count{0};
  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessionThreads; ++t) {
    sessions.emplace_back([&, t]() {
      const std::string tenant = "tenant-" + std::to_string(t % 3);
      for (int i = 0; i < kSubmitsPerThread; ++i) {
        const Query& q = queries[(t + i) % queries.size()];
        SubmitOptions submit;
        submit.deadline_seconds = i % 2 == 0 ? 0.0 : 1.0;
        if (service.Submit(tenant, q, submit).ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          err_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread refresher([&]() {
    for (int i = 0; i < kRefreshes; ++i) {
      if (i % 4 == 3) {
        const ScopedFault fault(Fault::kFailSnapshotSwap);
        StatusIgnored(service.Refresh(catalog, pool));
      } else {
        StatusIgnored(service.Refresh(catalog, pool));
      }
      std::this_thread::yield();
    }
  });
  std::thread fault_pulser([&]() {
    int pulse = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (pulse++ % 2 == 0) {
        const ScopedFault fault(Fault::kThrowAtomicLookup);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  });
  for (std::thread& th : sessions) th.join();
  stop.store(true, std::memory_order_relaxed);
  refresher.join();
  fault_pulser.join();

  const ServiceStatsSnapshot stats = service.Stats();
  std::printf(
      "serve-selftest: %llu submitted = %llu completed + %llu failed\n"
      "  admission: %llu quota, %llu queue-full, %llu queue-timeout\n"
      "  retries: %llu (%llu transient faults, %llu no-retry deadline)\n"
      "  modes: %llu full / %llu capped / %llu independence "
      "(%llu down, %llu up)\n"
      "  epochs: %llu published, %llu failed swaps, %llu live, "
      "%llu torn\n"
      "  latency: p50 %.3f ms, p99 %.3f ms\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.rejected_quota),
      static_cast<unsigned long long>(stats.rejected_queue_full),
      static_cast<unsigned long long>(stats.queue_timeouts),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.transient_faults),
      static_cast<unsigned long long>(stats.no_retry_deadline),
      static_cast<unsigned long long>(stats.mode_submissions[0]),
      static_cast<unsigned long long>(stats.mode_submissions[1]),
      static_cast<unsigned long long>(stats.mode_submissions[2]),
      static_cast<unsigned long long>(stats.step_downs),
      static_cast<unsigned long long>(stats.step_ups),
      static_cast<unsigned long long>(stats.epochs_published),
      static_cast<unsigned long long>(stats.failed_swaps),
      static_cast<unsigned long long>(service.live_epochs()),
      static_cast<unsigned long long>(stats.incoherent_snapshots),
      stats.latency_p50_seconds * 1000.0, stats.latency_p99_seconds * 1000.0);

  bool ok = true;
  const uint64_t expected =
      static_cast<uint64_t>(kSessionThreads) * kSubmitsPerThread;
  auto violation = [&](const char* what) {
    std::fprintf(stderr, "serve-selftest: VIOLATION: %s\n", what);
    ok = false;
  };
  if (stats.submitted != expected) violation("submitted count mismatch");
  if (stats.completed + stats.failed != stats.submitted) {
    violation("books do not balance (completed + failed != submitted)");
  }
  if (stats.latency_count != stats.submitted) {
    violation("latency samples do not cover every request");
  }
  if (stats.completed != ok_count.load() || stats.failed != err_count.load()) {
    violation("caller-observed outcomes disagree with telemetry");
  }
  if (stats.incoherent_snapshots != 0) violation("torn snapshot observed");
  if (stats.completed == 0) violation("service starved every session");
  if (service.live_epochs() != 1) violation("retired epochs still live");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage();
    return 2;
  }

  // --- database ------------------------------------------------------
  Catalog catalog;
  if (!opt.catalog_path.empty()) {
    const IoResult r = ReadCatalog(opt.catalog_path, &catalog);
    if (!r.ok) {
      std::fprintf(stderr, "error: %s\n", r.error.c_str());
      return 1;
    }
  } else if (opt.db == "snowflake") {
    SnowflakeOptions sopt;
    sopt.scale = opt.scale;
    catalog = BuildSnowflake(sopt);
  } else if (opt.db == "tpch") {
    TpchLiteOptions topt;
    topt.scale = opt.scale;
    catalog = BuildTpchLite(topt);
  } else {
    std::fprintf(stderr, "unknown --db '%s'\n", opt.db.c_str());
    return 2;
  }
  std::fprintf(stderr, "# %d tables loaded\n", catalog.num_tables());

  CardinalityCache cache;
  Evaluator evaluator(&catalog, &cache);
  SitBuilder builder(&evaluator, SitBuildOptions{});

  // --- statements ----------------------------------------------------
  std::vector<std::string> statements = opt.sql;
  if (statements.empty() && !opt.serve_selftest) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) statements.push_back(line);
    }
  }
  if (statements.empty() && !opt.serve_selftest) {
    Usage();
    return 2;
  }

  // Parse everything first: the SIT pool is generated from the parsed
  // queries (their join expressions), mirroring a workload-driven build.
  std::vector<Query> queries;
  for (const std::string& sql : statements) {
    const ParseResult r = ParseQuery(catalog, sql);
    if (!r.ok) {
      std::fprintf(stderr, "parse error in \"%s\": %s\n", sql.c_str(),
                   r.error.c_str());
      return 1;
    }
    queries.push_back(r.query);
  }
  if (queries.empty()) {
    // --serve-selftest with no SQL: drill over a synthetic workload.
    WorkloadOptions wopt;
    wopt.num_queries = 3;
    wopt.num_joins = 3;
    wopt.num_filters = 3;
    wopt.seed = 7;
    queries = GenerateWorkload(catalog, &evaluator, wopt);
    std::fprintf(stderr, "# %zu synthetic workload queries generated\n",
                 queries.size());
  }

  SitPool pool;
  if (!opt.pool_path.empty()) {
    const IoResult r = ReadSitPool(opt.pool_path, catalog, &pool);
    if (!r.ok) {
      std::fprintf(stderr, "error: %s\n", r.error.c_str());
      return 1;
    }
  } else {
    pool = GenerateSitPool(queries, opt.sits, builder);
  }
  std::fprintf(stderr, "# %d statistics available\n", pool.size());

  if (opt.serve_selftest) {
    return RunServeSelftest(catalog, pool, queries, opt.ranking) ? 0 : 1;
  }

  Estimator estimator(&catalog, &pool, opt.ranking, opt.budget);
  bool audit_ok = true;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const double est = estimator.EstimateCardinality(q);
    std::printf("%s\n  estimate: %.1f rows\n", statements[i].c_str(), est);
    if (opt.audit) {
      audit_ok &= AuditQuery(q, pool, opt.ranking, opt.budget);
    }
    if (opt.truth) {
      const double truth = evaluator.Cardinality(q, q.all_predicates());
      std::printf("  true:     %.0f rows  (q-error %.2f)\n", truth,
                  truth > 0 && est > 0
                      ? std::max(truth / est, est / truth)
                      : 0.0);
    }
    if (opt.explain) {
      std::printf("  decomposition:\n%s", estimator.Explain(q).c_str());
    }
    if (opt.stats) {
      const GsStats* s = estimator.StatsFor(q);
      if (s != nullptr) {
        std::printf(
            "  stats:    %llu subproblems, %llu memo hits, %llu atomic "
            "decompositions\n",
            static_cast<unsigned long long>(s->subproblems),
            static_cast<unsigned long long>(s->memo_hits),
            static_cast<unsigned long long>(s->atomic_considered));
        std::printf("            analysis %.3f ms, histograms %.3f ms\n",
                    s->analysis_seconds * 1000.0,
                    s->histogram_seconds * 1000.0);
        if (s->budget_exhausted || s->degraded_subproblems > 0 ||
            s->default_fallbacks > 0) {
          std::printf(
              "            budget exhausted: %s, degraded subproblems: "
              "%llu, default fallbacks: %llu\n",
              s->budget_exhausted ? "yes" : "no",
              static_cast<unsigned long long>(s->degraded_subproblems),
              static_cast<unsigned long long>(s->default_fallbacks));
        }
      }
    }
  }
  if (!audit_ok) {
    std::fprintf(stderr, "audit: derivation violations found\n");
    return 1;
  }
  return 0;
}
