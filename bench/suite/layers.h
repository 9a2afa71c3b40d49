// The traced pass: per-layer timings taken from outside the library.
//
// DpReplay re-runs GetSelectivity's sequential DP (the paper's Figure 3)
// through the public layer calls it is built from —
// StandardDecompositionFast, AtomicFactorCandidatesInto,
// AtomicSelectivityProvider::Score/Estimate, SelectivityMemo::Find/Insert
// and ErrorFunction::Merge — recording a span around each call and the
// call's arguments. Its estimates are compared bit for bit with
// GetSelectivity::Compute, so a replay that drifted from GetSelectivity
// shows up as trace.replay_mismatches instead of as silently wrong layer times.
//
// A single call under about a microsecond is dominated by the clock
// reads around it, so layer metrics come from batched replays: the
// recorded argument sequence of one layer is replayed in a tight loop and
// timed as a whole. Spans keep the single-shot timings for inspection.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "condsel/catalog/catalog.h"
#include "condsel/common/arena.h"
#include "condsel/query/query.h"
#include "condsel/selectivity/atomic_provider.h"
#include "condsel/selectivity/budget.h"
#include "condsel/selectivity/selectivity_memo.h"
#include "condsel/service/service.h"
#include "condsel/sit/sit_pool.h"
#include "harness.h"

namespace condsel {
namespace bench_suite {

using Metrics = std::map<std::string, double>;

// The serving workloads' service configuration: 4 concurrent estimates,
// a wait queue of 16, no deadline, Diff ranking.
ServiceOptions ServeOptions();

// In-memory span store, written out once when the pass ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  // Opens a span starting now; Close() sets its end.
  int32_t Open(uint32_t request, const char* name, int32_t parent);
  void Close(int32_t span);
  void Add(uint32_t request, const char* name, Clock::time_point start,
           Clock::time_point end, int32_t parent);

  // Sum, per span name, of each span's duration minus the part of it
  // covered by its child spans.
  std::map<std::string, double> SelfTimeUs() const;
  // Every span as a [request, name, start_ns, end_ns, parent] row.
  std::string RowsJson() const;

 private:
  struct Span {
    uint32_t request;
    const char* name;  // string literal
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans_, -1 for a root
  };
  int64_t Ns(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Argument sequences of one replayed DP, per layer call.
struct DpCalls {
  std::vector<PredSet> finds;
  uint64_t find_hits = 0;
  std::vector<std::pair<PredSet, MemoEntry>> inserts;
  std::vector<PredSet> decomposes;
  std::vector<PredSet> enumerates;
  uint64_t candidates = 0;
  std::vector<std::pair<PredSet, PredSet>> scores;  // (P', Q)
  std::vector<std::pair<PredSet, FactorChoice>> estimates;
  std::vector<std::pair<double, double>> merges;
  std::vector<int> base_atoms;  // predicates of degraded subsets
  // GetSelectivity's bookkeeping around the layer calls: budget checks,
  // the Fig. 8 clock reads and the GsStats counters (TimeBookkeeping).
  uint64_t subproblems = 0;  // memo misses below the root's empty set
  uint64_t solves = 0;       // candidate loops of non-separable subsets
};

class DpReplay {
 public:
  // `provider`'s matcher must be bound to `query`; `spans` may be null.
  DpReplay(const Query* query, AtomicSelectivityProvider* provider,
           SpanLog* spans, uint32_t request, int32_t parent);

  DpReplay(const DpReplay&) = delete;
  DpReplay& operator=(const DpReplay&) = delete;

  // Mirrors GetSelectivity::Compute(p) on an unbudgeted search.
  double Compute(PredSet p);
  const DpCalls& calls() const { return calls_; }

 private:
  template <typename Fn>
  auto Timed(const char* name, Fn&& fn);
  const MemoEntry& Entry(PredSet p);
  const MemoEntry& Store(PredSet p, MemoEntry entry);
  double Merge(double a, double b);
  double AtomSelectivity(int pred);

  const Query* query_;
  AtomicSelectivityProvider* provider_;
  SpanLog* spans_;
  uint32_t request_;
  int32_t parent_;
  SelectivityMemo memo_;
  Arena arena_;
  ScoreScratch scratch_;
  Deadline deadline_;  // never armed, as in an unbudgeted Compute
  DpCalls calls_;
};

struct LayerInputs {
  const Catalog* catalog = nullptr;
  const SitPool* pool = nullptr;
  const std::vector<Query>* statements = nullptr;
  // Predicate subsets one request asks for, per statement, in order.
  std::vector<std::vector<PredSet>> requests;
  size_t replay_statements = 0;  // prefix of statements probed
  uint32_t traced_requests = 0;  // statements whose spans are kept
  int reps = 3;                  // repetitions per batched timing
};

// Runs every probe over `in`, adds the per-layer metrics to `out`, and
// returns the number of probe calls that failed.
uint64_t ProbeLayers(const LayerInputs& in, Metrics* out, SpanLog* spans);

}  // namespace bench_suite
}  // namespace condsel
