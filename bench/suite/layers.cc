#include "layers.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "condsel/api.h"
#include "condsel/common/numeric.h"
#include "condsel/exec/evaluator.h"
#include "condsel/histogram/histogram_join.h"
#include "condsel/histogram/histogram_merge.h"
#include "condsel/selectivity/decomposer.h"
#include "condsel/selectivity/error_function.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/selectivity/separability.h"
#include "condsel/service/service.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_matcher.h"

namespace condsel {
namespace bench_suite {
namespace {

// Keeps batched results observable so the timed loops are not elided.
volatile double g_sink = 0.0;

template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(Seconds(t0, Clock::now()));
  }
  return Median(times);
}

double ClockOverheadNs() {
  constexpr int kCalls = 200000;
  int64_t acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    acc += Clock::now().time_since_epoch().count() & 1;
  }
  const double s = Seconds(t0, Clock::now());
  g_sink = g_sink + static_cast<double>(acc);
  return s * 1e9 / kCalls;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

const ErrorFunction& Diff() {
  static const DiffError& diff = *new DiffError();
  return diff;
}

// Per-layer seconds and call counts summed over the replayed statements.
struct DpTotals {
  double compute = 0, replay = 0, find = 0, insert = 0, decompose = 0,
         enumerate = 0, score = 0, estimate = 0, merge = 0, atom = 0,
         bookkeeping = 0;
  uint64_t finds = 0, hits = 0, inserts = 0, scores = 0, estimates = 0,
           merges = 0, candidates = 0, mismatches = 0;
};

// GetSelectivity's own work around the layer calls, in the counts the replay
// saw: a budget check, a clock pair and counter updates per subproblem,
// two budget checks and a clock pair per scored candidate, counter
// flushes per candidate loop and a clock pair per Estimate. The compute
// reference runs unbudgeted, hence the null budget.
double TimeBookkeeping(const DpCalls& c, int reps) {
  return MedianSeconds(reps, [&] {
    BudgetCounters counters;
    const Deadline deadline;
    const EstimationBudget* budget = nullptr;
    int exhausted = 0;
    for (uint64_t i = 0; i < c.find_hits; ++i) {
      counters.memo_hits.fetch_add(1, std::memory_order_relaxed);
    }
    for (uint64_t i = 0; i < c.subproblems; ++i) {
      exhausted += BudgetExhausted(budget, counters, deadline);
      counters.subproblems.fetch_add(1, std::memory_order_relaxed);
      const Clock::time_point t0 = Clock::now();
      counters.analysis_seconds.fetch_add(Seconds(t0, Clock::now()),
                                          std::memory_order_relaxed);
    }
    double analysis = 0.0;
    for (size_t i = 0; i < c.scores.size(); ++i) {
      exhausted += BudgetExhausted(budget, counters, deadline);
      exhausted += BudgetExhausted(budget, counters, deadline);
      const Clock::time_point t1 = Clock::now();
      analysis += Seconds(t1, Clock::now());
    }
    for (uint64_t i = 0; i < c.solves; ++i) {
      counters.atomic_considered.fetch_add(1, std::memory_order_relaxed);
      counters.analysis_seconds.fetch_add(analysis,
                                          std::memory_order_relaxed);
    }
    for (size_t i = 0; i < c.estimates.size(); ++i) {
      const Clock::time_point t2 = Clock::now();
      counters.histogram_seconds.fetch_add(Seconds(t2, Clock::now()),
                                           std::memory_order_relaxed);
    }
    g_sink = g_sink + exhausted +
             counters.analysis_seconds.load(std::memory_order_relaxed);
  });
}

void TimeReplayedLayers(const Query& q, AtomicSelectivityProvider* provider,
                        const DpCalls& c, int reps, DpTotals* t) {
  {
    SelectivityMemo memo;
    for (const auto& [p, e] : c.inserts) memo.Insert(p, e);
    t->find += MedianSeconds(reps, [&] {
      uintptr_t acc = 0;
      for (PredSet p : c.finds) {
        acc += reinterpret_cast<uintptr_t>(memo.Find(p));
      }
      g_sink = g_sink + static_cast<double>(acc & 1);
    });
  }
  {
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      SelectivityMemo memo;
      const Clock::time_point t0 = Clock::now();
      for (const auto& [p, e] : c.inserts) memo.Insert(p, e);
      times.push_back(Seconds(t0, Clock::now()));
    }
    t->insert += Median(times);
  }
  t->decompose += MedianSeconds(reps, [&] {
    int acc = 0;
    for (PredSet p : c.decomposes) acc += StandardDecompositionFast(q, p).count;
    g_sink = g_sink + acc;
  });
  {
    Arena arena;
    const Deadline deadline;
    t->enumerate += MedianSeconds(reps, [&] {
      arena.Reset();
      size_t acc = 0;
      for (PredSet p : c.enumerates) {
        ArenaVector<PredSet> out(&arena);
        bool truncated = false;
        AtomicFactorCandidatesInto(q, p, &deadline, &truncated, &out);
        acc += out.size();
      }
      g_sink = g_sink + static_cast<double>(acc);
    });
  }
  {
    ScoreScratch scratch;
    const Deadline deadline;
    t->score += MedianSeconds(reps, [&] {
      double acc = 0.0;
      for (const auto& [p_prime, cond] : c.scores) {
        acc += provider->Score(q, p_prime, cond, &deadline, &scratch).error;
      }
      g_sink = g_sink + acc;
    });
  }
  t->estimate += MedianSeconds(reps, [&] {
    double acc = 0.0;
    for (const auto& [p, choice] : c.estimates) {
      acc += provider->Estimate(q, p, choice);
    }
    g_sink = g_sink + acc;
  });
  t->merge += MedianSeconds(reps, [&] {
    double acc = 0.0;
    for (const auto& [a, b] : c.merges) acc += ErrorFunction::Merge(a, b);
    g_sink = g_sink + acc;
  });
  t->atom += MedianSeconds(reps, [&] {
    double acc = 0.0;
    for (int pred : c.base_atoms) {
      acc += provider->BaseAtom(q, pred, /*describe=*/true).selectivity;
    }
    g_sink = g_sink + acc;
  });
  t->bookkeeping += TimeBookkeeping(c, reps);
  t->finds += c.finds.size();
  t->hits += c.find_hits;
  t->inserts += c.inserts.size();
  t->scores += c.scores.size();
  t->estimates += c.estimates.size();
  t->merges += c.merges.size();
  t->candidates += c.candidates;
}

void ProbeDp(const LayerInputs& in, Metrics* m, SpanLog* spans) {
  DpTotals t;
  const size_t n = in.replay_statements;
  for (size_t s = 0; s < n; ++s) {
    const Query& q = (*in.statements)[s];
    const std::vector<PredSet>& subsets = in.requests[s];
    SitMatcher matcher(in.pool);
    matcher.BindQuery(&q);
    AtomicSelectivityProvider provider(&matcher, &Diff());

    const uint32_t request = static_cast<uint32_t>(s);
    const bool traced = request < in.traced_requests;
    const int32_t root =
        traced ? spans->Open(request, "selectivity.replay", -1) : -1;
    DpReplay replay(&q, &provider, traced ? spans : nullptr, request, root);
    std::vector<double> replayed;
    for (PredSet p : subsets) replayed.push_back(replay.Compute(p));
    if (traced) spans->Close(root);

    std::vector<double> times;
    for (int r = 0; r < in.reps; ++r) {
      GetSelectivity gs(&q, &provider);
      const Clock::time_point t0 = Clock::now();
      for (size_t k = 0; k < subsets.size(); ++k) {
        const double sel = gs.Compute(subsets[k]).selectivity;
        if (r == 0 && !SameBits(sel, replayed[k])) ++t.mismatches;
      }
      times.push_back(Seconds(t0, Clock::now()));
    }
    t.compute += Median(times);
    // The same DP through the replay, untraced: its time minus the
    // batched layer times below is the DP's own (self) time.
    times.clear();
    for (int r = 0; r < in.reps; ++r) {
      DpReplay untraced(&q, &provider, nullptr, request, -1);
      const Clock::time_point t0 = Clock::now();
      for (PredSet p : subsets) g_sink = g_sink + untraced.Compute(p);
      times.push_back(Seconds(t0, Clock::now()));
    }
    t.replay += Median(times);
    TimeReplayedLayers(q, &provider, replay.calls(), in.reps, &t);
  }

  const double per_stmt = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  auto per_call_ns = [](double seconds, uint64_t calls) {
    return calls > 0 ? seconds * 1e9 / static_cast<double>(calls) : 0.0;
  };
  Metrics& out = *m;
  out["selectivity.compute_us"] = t.compute * 1e6 * per_stmt;
  out["selectivity.estimate_us"] = t.estimate * 1e6 * per_stmt;
  out["selectivity.estimate_calls"] =
      static_cast<double>(t.estimates) * per_stmt;
  out["selectivity.score_ns"] = per_call_ns(t.score, t.scores);
  out["selectivity.score_calls"] = static_cast<double>(t.scores) * per_stmt;
  out["selectivity.enumerate_us"] = t.enumerate * 1e6 * per_stmt;
  out["selectivity.candidates"] =
      static_cast<double>(t.candidates) * per_stmt;
  out["selectivity.decompose_us"] = t.decompose * 1e6 * per_stmt;
  out["selectivity.memo_find_ns"] = per_call_ns(t.find, t.finds);
  out["selectivity.memo_insert_ns"] = per_call_ns(t.insert, t.inserts);
  out["selectivity.memo_ops"] =
      static_cast<double>(t.finds + t.inserts) * per_stmt;
  out["selectivity.memo_hit_ratio"] =
      t.finds > 0 ? static_cast<double>(t.hits) / static_cast<double>(t.finds)
                  : 0.0;
  out["selectivity.merge_ns"] = per_call_ns(t.merge, t.merges);
  out["selectivity.bookkeeping_us"] = t.bookkeeping * 1e6 * per_stmt;
  const double layers = t.find + t.insert + t.decompose + t.enumerate +
                        t.score + t.estimate + t.merge + t.atom;
  const double dp_self = t.replay - layers;
  out["selectivity.dp_self_us"] = dp_self * 1e6 * per_stmt;
  out["trace.coverage"] =
      t.compute > 0.0 ? (layers + dp_self + t.bookkeeping) / t.compute : 0.0;
  out["trace.replay_mismatches"] = static_cast<double>(t.mismatches);
}

void ProbeFacade(const LayerInputs& in, Metrics* m, SpanLog* spans,
                 uint64_t* failures) {
  constexpr int kCtorBatch = 2000;
  const double ctor = MedianSeconds(in.reps, [&] {
    for (int i = 0; i < kCtorBatch; ++i) {
      const Estimator estimator(in.catalog, in.pool);
      g_sink = g_sink + static_cast<double>(estimator.cached_queries());
    }
  });
  (*m)["api.estimator_ctor_us"] = ctor * 1e6 / kCtorBatch;

  double memo_hit_s = 0.0, bind_s = 0.0;
  uint64_t memo_hit_calls = 0;
  bool ok = true;
  for (size_t s = 0; s < in.replay_statements; ++s) {
    const Query& q = (*in.statements)[s];
    const std::vector<PredSet>& subsets = in.requests[s];
    const uint32_t request = static_cast<uint32_t>(s);
    const bool traced = request < in.traced_requests;

    Estimator estimator(in.catalog, in.pool);
    for (PredSet p : subsets) ok &= estimator.TryEstimateCardinality(q, p).ok();
    const int32_t root =
        traced ? spans->Open(request, "api.memo_hit_request", -1) : -1;
    memo_hit_s += MedianSeconds(in.reps, [&] {
      for (PredSet p : subsets) {
        ok &= estimator.TryEstimateCardinality(q, p).ok();
      }
    });
    if (traced) spans->Close(root);
    memo_hit_calls += subsets.size();

    const int32_t bind =
        traced ? spans->Open(request, "sit.bind_query", -1) : -1;
    bind_s += MedianSeconds(in.reps, [&] {
      SitMatcher matcher(in.pool);
      matcher.BindQuery(&q);
      g_sink = g_sink + static_cast<double>(matcher.num_calls());
    });
    if (traced) spans->Close(bind);
  }
  const size_t n = std::max<size_t>(in.replay_statements, 1);
  (*m)["api.memo_hit_request_us"] =
      memo_hit_calls > 0 ? memo_hit_s * 1e6 / static_cast<double>(
                                                   memo_hit_calls)
                         : 0.0;
  (*m)["sit.bind_query_us"] = bind_s * 1e6 / static_cast<double>(n);
  if (!ok) ++*failures;
}

// Submit against a probe service holding the same statistics, next to the
// estimate Submit's attempt runs (a fresh Estimator on the shared shape
// cache, selectivity then cardinality); the difference is the serving
// layer's own cost.
void ProbeService(const LayerInputs& in, Metrics* m, SpanLog* spans,
                  uint64_t* failures) {
  EstimationService service(ServeOptions());
  bool ok = service.Refresh(*in.catalog, *in.pool).ok();
  const std::vector<Query> warm(
      in.statements->begin(),
      in.statements->begin() + static_cast<long>(in.replay_statements));
  ok &= service.Prewarm("probe", warm) == warm.size();
  ShapeCache shapes;
  auto direct = [&](const Query& q) {
    Estimator estimator(in.catalog, in.pool, Ranking::kDiff,
                        EstimationBudget{}, &shapes);
    ok &= estimator.TryEstimateSelectivity(q).ok();
    ok &= estimator.TryEstimateCardinality(q).ok();
  };
  for (const Query& q : warm) direct(q);

  double submit_s = 0.0, direct_s = 0.0;
  for (size_t s = 0; s < warm.size(); ++s) {
    const Query& q = warm[s];
    const uint32_t request = static_cast<uint32_t>(s);
    const bool traced = request < in.traced_requests;
    const int32_t span =
        traced ? spans->Open(request, "service.submit", -1) : -1;
    submit_s += MedianSeconds(in.reps, [&] {
      ok &= service.Submit("probe", q).ok();
    });
    if (traced) spans->Close(span);
    const int32_t dspan =
        traced ? spans->Open(request, "api.direct_estimate", -1) : -1;
    direct_s += MedianSeconds(in.reps, [&] { direct(q); });
    if (traced) spans->Close(dspan);
  }
  const double n = static_cast<double>(std::max<size_t>(warm.size(), 1));
  (*m)["service.submit_us"] = submit_s * 1e6 / n;
  (*m)["service.overhead_us"] = (submit_s - direct_s) * 1e6 / n;
  if (!ok) ++*failures;
}

// Histograms a lookup of `sit` reads: its per-part pieces, or the flat
// histogram of an unpartitioned statistic.
std::vector<const Histogram*> Pieces(const Sit& sit) {
  std::vector<const Histogram*> out;
  if (sit.is_partitioned()) {
    for (const SitPart& part : sit.parts) out.push_back(&part.histogram);
  } else {
    out.push_back(&sit.histogram);
  }
  return out;
}

void ProbeHistograms(const LayerInputs& in, Metrics* m) {
  struct Range {
    const Histogram* h;
    int64_t lo, hi;
  };
  std::vector<Range> ranges;
  std::vector<std::pair<const Histogram*, const Histogram*>> joins;
  const TableId fact = std::max(in.catalog->FindTable("fact"), TableId{0});
  std::map<ColumnId, int> fact_filters;
  for (size_t s = 0; s < in.replay_statements; ++s) {
    for (const Predicate& p : (*in.statements)[s].predicates()) {
      if (p.is_filter()) {
        if (p.column().table == fact) ++fact_filters[p.column().column];
        if (const Sit* sit = in.pool->FindBase(p.column())) {
          for (const Histogram* h : Pieces(*sit)) {
            ranges.push_back({h, p.lo(), p.hi()});
          }
        }
      } else {
        const Sit* l = in.pool->FindBase(p.left());
        const Sit* r = in.pool->FindBase(p.right());
        if (l == nullptr || r == nullptr) continue;
        for (const Histogram* hl : Pieces(*l)) {
          for (const Histogram* hr : Pieces(*r)) joins.emplace_back(hl, hr);
        }
      }
    }
  }
  constexpr int kRangeLaps = 50;
  const double range_s = MedianSeconds(in.reps, [&] {
    double acc = 0.0;
    for (int lap = 0; lap < kRangeLaps; ++lap) {
      for (const Range& r : ranges) acc += r.h->RangeSelectivity(r.lo, r.hi);
    }
    g_sink = g_sink + acc;
  });
  (*m)["histogram.range_selectivity_ns"] =
      ranges.empty() ? 0.0
                     : range_s * 1e9 / static_cast<double>(ranges.size()) /
                           kRangeLaps;
  const double join_s = MedianSeconds(in.reps, [&] {
    double acc = 0.0;
    for (const auto& [a, b] : joins) acc += JoinHistograms(*a, *b).selectivity;
    g_sink = g_sink + acc;
  });
  (*m)["histogram.join_us"] =
      joins.empty() ? 0.0 : join_s * 1e6 / static_cast<double>(joins.size());

  // Merge cost over equal row slices of the fact table, on its most
  // filtered attribute (a_zipf when the statements filter none).
  ColumnId column = 5;
  int best = 0;
  for (const auto& [c, count] : fact_filters) {
    if (count > best) {
      best = count;
      column = c;
    }
  }
  Evaluator evaluator(in.catalog, nullptr);
  const SitBuilder builder(&evaluator, SitBuildOptions{});
  const size_t rows = in.catalog->table(fact).num_rows();
  for (const int parts : {1, 4, 16}) {
    std::vector<Histogram> pieces;
    for (int k = 0; k < parts; ++k) {
      const size_t begin = rows * static_cast<size_t>(k) / parts;
      const size_t end = rows * static_cast<size_t>(k + 1) / parts;
      pieces.push_back(
          builder.BuildForRange(ColumnRef{fact, column}, {}, begin, end)
              .histogram);
    }
    std::vector<const Histogram*> ptrs;
    for (const Histogram& h : pieces) ptrs.push_back(&h);
    constexpr int kMerges = 20;
    const double merge_s = MedianSeconds(in.reps, [&] {
      double acc = 0.0;
      for (int i = 0; i < kMerges; ++i) {
        acc += MergeHistograms(ptrs, SitBuildOptions{}.max_buckets)
                   .total_frequency();
      }
      g_sink = g_sink + acc;
    });
    (*m)["histogram.merge_" + std::to_string(parts) + "p_us"] =
        merge_s * 1e6 / kMerges;
  }

  double buckets = 0.0;
  int sits = 0;
  for (const Sit& sit : in.pool->sits()) {
    if (sit.is_multidim()) continue;
    buckets += static_cast<double>(sit.histogram.num_buckets());
    ++sits;
  }
  (*m)["histogram.buckets_mean"] = sits > 0 ? buckets / sits : 0.0;
}

void ProbeExec(const LayerInputs& in, Metrics* m, SpanLog* spans) {
  Evaluator evaluator(in.catalog, nullptr);  // no cache: every count is real
  double exact_s = 0.0;
  for (size_t s = 0; s < in.replay_statements; ++s) {
    const Query& q = (*in.statements)[s];
    const uint32_t request = static_cast<uint32_t>(s);
    const bool traced = request < in.traced_requests;
    const int32_t span =
        traced ? spans->Open(request, "exec.exact_count", -1) : -1;
    exact_s += MedianSeconds(in.reps, [&] {
      g_sink = g_sink + evaluator.Cardinality(q, q.all_predicates());
    });
    if (traced) spans->Close(span);
  }
  const double n =
      static_cast<double>(std::max<size_t>(in.replay_statements, 1));
  const double exact_ms = exact_s * 1e3 / n;
  (*m)["exec.exact_count_ms"] = exact_ms;
  (*m)["ratio.estimate_over_exact"] =
      exact_ms > 0.0 ? (*m)["selectivity.compute_us"] / (exact_ms * 1e3)
                     : 0.0;
}

}  // namespace

ServiceOptions ServeOptions() {
  ServiceOptions options;
  options.ranking = Ranking::kDiff;
  options.admission.max_concurrent = 4;
  options.admission.queue_limit = 16;
  return options;
}

int32_t SpanLog::Open(uint32_t request, const char* name, int32_t parent) {
  const int64_t now = Ns(Clock::now());
  spans_.push_back({request, name, now, now, parent});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = Ns(Clock::now());
}

void SpanLog::Add(uint32_t request, const char* name, Clock::time_point start,
                  Clock::time_point end, int32_t parent) {
  spans_.push_back({request, name, Ns(start), Ns(end), parent});
}

int64_t SpanLog::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::map<std::string, double> SpanLog::SelfTimeUs() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                   1e3;
  }
  return out;
}

std::string SpanLog::RowsJson() const {
  std::string out = "[";
  for (const Span& s : spans_) {
    if (out.size() > 1) out += ",\n";
    out += '[';
    out += std::to_string(s.request);
    out += ", ";
    out += JsonString(s.name);
    for (const int64_t v : {s.start_ns, s.end_ns, int64_t{s.parent}}) {
      out += ", ";
      out += std::to_string(v);
    }
    out += ']';
  }
  return out + "]";
}

DpReplay::DpReplay(const Query* query, AtomicSelectivityProvider* provider,
                   SpanLog* spans, uint32_t request, int32_t parent)
    : query_(query),
      provider_(provider),
      spans_(spans),
      request_(request),
      parent_(parent) {}

template <typename Fn>
auto DpReplay::Timed(const char* name, Fn&& fn) {
  if (spans_ == nullptr) return fn();
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  spans_->Add(request_, name, t0, Clock::now(), parent_);
  return result;
}

double DpReplay::Compute(PredSet p) {
  arena_.Reset();
  return Entry(p).selectivity;
}

double DpReplay::Merge(double a, double b) {
  calls_.merges.emplace_back(a, b);
  return Timed("selectivity.merge",
               [&] { return ErrorFunction::Merge(a, b); });
}

const MemoEntry& DpReplay::Store(PredSet p, MemoEntry entry) {
  calls_.inserts.emplace_back(p, entry);
  return *Timed("selectivity.memo_insert",
                [&] { return &memo_.Insert(p, std::move(entry)); });
}

double DpReplay::AtomSelectivity(int pred) {
  if (const DerivationAtom* hit = memo_.FindAtom(pred)) {
    return hit->selectivity;
  }
  calls_.base_atoms.push_back(pred);
  DerivationAtom atom = Timed("selectivity.base_atom", [&] {
    return provider_->BaseAtom(*query_, pred, /*describe=*/true);
  });
  return memo_.InsertAtom(pred, std::move(atom)).selectivity;
}

// GetSelectivity::ComputeEntry and SolveNonSeparable, step for step.
const MemoEntry& DpReplay::Entry(PredSet p) {
  calls_.finds.push_back(p);
  const MemoEntry* hit =
      Timed("selectivity.memo_find", [&] { return memo_.Find(p); });
  if (hit != nullptr) {
    ++calls_.find_hits;
    return *hit;
  }
  if (p == 0) {
    MemoEntry entry;
    entry.kind = MemoEntryKind::kEmpty;
    entry.selectivity = 1.0;
    entry.error = 0.0;
    return Store(p, std::move(entry));
  }

  ++calls_.subproblems;
  calls_.decomposes.push_back(p);
  const ComponentList components = Timed(
      "selectivity.decompose",
      [&] { return StandardDecompositionFast(*query_, p); });
  if (components.size() > 1) {
    MemoEntry entry;
    entry.kind = MemoEntryKind::kSeparable;
    entry.components = components;
    double sel = 1.0;
    double err = 0.0;
    for (PredSet comp : components) {
      const MemoEntry& ce = Entry(comp);
      sel *= ce.selectivity;
      err = Merge(err, ce.error);
    }
    entry.selectivity = SanitizeSelectivity(sel);
    entry.error = err;
    return Store(p, std::move(entry));
  }

  calls_.enumerates.push_back(p);
  ArenaVector<PredSet> candidates(&arena_);
  Timed("selectivity.enumerate", [&] {
    bool truncated = false;
    AtomicFactorCandidatesInto(*query_, p, &deadline_, &truncated,
                               &candidates);
    return truncated;
  });
  calls_.candidates += candidates.size();
  ++calls_.solves;

  double best_error = kInfiniteError;
  PredSet best_p_prime = 0;
  FactorChoice best_choice;
  for (PredSet p_prime : candidates) {
    const PredSet q = p & ~p_prime;
    const MemoEntry& qe = Entry(q);
    calls_.scores.emplace_back(p_prime, q);
    FactorChoice choice = Timed("selectivity.score", [&] {
      return provider_->Score(*query_, p_prime, q, &deadline_, &scratch_);
    });
    if (!choice.feasible) continue;
    const double merged = Merge(choice.error, qe.error);
    if (merged < best_error) {
      best_error = merged;
      best_p_prime = p_prime;
      best_choice = std::move(choice);
    }
  }

  if (best_p_prime == 0) {
    MemoEntry entry;
    entry.kind = MemoEntryKind::kDegraded;
    entry.fallback = FallbackReason::kNoFeasibleDecomposition;
    entry.error = kInfiniteError;
    double sel = 1.0;
    for (int i : SetElements(p)) sel *= AtomSelectivity(i);
    entry.selectivity = SanitizeSelectivity(sel);
    return Store(p, std::move(entry));
  }

  calls_.estimates.emplace_back(best_p_prime, best_choice);
  const double factor_sel = SanitizeSelectivity(Timed(
      "selectivity.estimate",
      [&] { return provider_->Estimate(*query_, best_p_prime, best_choice); }));
  const MemoEntry& tail = Entry(p & ~best_p_prime);

  MemoEntry entry;
  entry.kind = MemoEntryKind::kAtomic;
  entry.best_p_prime = best_p_prime;
  entry.choice = std::move(best_choice);
  entry.factor_selectivity = factor_sel;
  entry.error = best_error;
  entry.selectivity = SanitizeSelectivity(factor_sel * tail.selectivity);
  return Store(p, std::move(entry));
}

uint64_t ProbeLayers(const LayerInputs& in, Metrics* out, SpanLog* spans) {
  uint64_t failures = 0;
  (*out)["trace.clock_overhead_ns"] = ClockOverheadNs();
  ProbeDp(in, out, spans);
  ProbeFacade(in, out, spans, &failures);
  ProbeService(in, out, spans, &failures);
  ProbeHistograms(in, out);
  ProbeExec(in, out, spans);
  return failures;
}

}  // namespace bench_suite
}  // namespace condsel
