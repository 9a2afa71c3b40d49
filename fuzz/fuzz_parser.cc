// Fuzz target: the SPJ parser.
//
// Input bytes are fed verbatim as the SQL text. The harness asserts the
// parser's contract rather than its grammar: it must never crash, and an
// accepted parse must produce a structurally valid query (every predicate
// resolved against the catalog, bitmask invariants intact).

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "condsel/parser/parser.h"
#include "condsel/query/predicate_set.h"
#include "fuzz_util.h"

namespace {

void Require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "fuzz_parser invariant violated: %s\n", what);
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const condsel::Catalog catalog = condsel::fuzzing::MakeFuzzCatalog();

  const std::string sql(reinterpret_cast<const char*>(data), size);
  const condsel::StatusOr<condsel::Query> result =
      condsel::ParseQuery(catalog, sql);
  if (!result.ok()) {
    Require(result.status().code() == condsel::StatusCode::kInvalidArgument,
            "rejection must be INVALID_ARGUMENT");
    Require(!result.status().message().empty(),
            "rejection must carry a message");
    return 0;
  }

  const condsel::Query& q = *result;
  Require(q.num_predicates() <= condsel::kMaxPredicates,
          "predicate count exceeds kMaxPredicates");
  Require((q.join_predicates() & q.filter_predicates()) == 0,
          "a predicate is both join and filter");
  Require((q.join_predicates() | q.filter_predicates()) ==
              q.all_predicates(),
          "every predicate must be join or filter");
  for (int i = 0; i < q.num_predicates(); ++i) {
    const condsel::Predicate& p = q.predicate(i);
    if (p.is_join()) {
      Require(p.left().table != p.right().table,
              "join predicate within one table");
    } else {
      Require(p.lo() <= p.hi(), "filter with inverted range");
    }
    Require(p.tables() != 0, "predicate covering no table");
    for (int t : condsel::SetElements(p.tables())) {
      Require(t >= 0 && t < catalog.num_tables(),
              "predicate references table outside the catalog");
    }
  }
  return 0;
}
