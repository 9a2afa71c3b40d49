#include "condsel/selectivity/budget.h"

#include "condsel/common/fault_injector.h"

namespace condsel {

void Deadline::Arm(double seconds) {
  if (seconds <= 0.0) {
    Disarm();
    return;
  }
  const auto at =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  // Publication contract (budget.h): the expiry instant is stored before
  // armed_ is released, so a reader that acquires armed_ == true never
  // sees a stale instant.
  at_.store(at.time_since_epoch().count(), std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

bool Deadline::Expired() const {
  if (!armed_.load(std::memory_order_acquire)) return false;
  const FaultInjector& fi = FaultInjector::Instance();
  if (fi.armed() && fi.enabled(Fault::kExpireDeadline)) return true;
  const std::chrono::steady_clock::time_point at{
      std::chrono::steady_clock::duration{
          at_.load(std::memory_order_relaxed)}};
  return std::chrono::steady_clock::now() >= at;
}

void BudgetCounters::Add(GsStats* out) const {
  out->subproblems = subproblems.load(std::memory_order_relaxed);
  out->memo_hits = memo_hits.load(std::memory_order_relaxed);
  out->atomic_considered = atomic_considered.load(std::memory_order_relaxed);
  out->degraded_subproblems =
      degraded_subproblems.load(std::memory_order_relaxed);
  out->default_fallbacks = default_fallbacks.load(std::memory_order_relaxed);
  out->shape_cache_hits = shape_cache_hits.load(std::memory_order_relaxed);
  out->shape_cache_misses =
      shape_cache_misses.load(std::memory_order_relaxed);
  out->budget_exhausted = budget_exhausted.load(std::memory_order_relaxed);
  out->analysis_seconds = analysis_seconds.load(std::memory_order_relaxed);
  out->histogram_seconds = histogram_seconds.load(std::memory_order_relaxed);
}

bool BudgetExhausted(const EstimationBudget* budget,
                     const BudgetCounters& counters,
                     const Deadline& deadline) {
  if (budget == nullptr) return false;
  if (budget->max_subproblems > 0 &&
      counters.subproblems.load(std::memory_order_relaxed) >=
          budget->max_subproblems) {
    return true;
  }
  if (budget->max_atomic_decompositions > 0 &&
      counters.atomic_considered.load(std::memory_order_relaxed) >=
          budget->max_atomic_decompositions) {
    return true;
  }
  return deadline.Expired();
}

void AddGsStats(const GsStats& delta, GsStats* total) {
  total->subproblems += delta.subproblems;
  total->memo_hits += delta.memo_hits;
  total->atomic_considered += delta.atomic_considered;
  total->analysis_seconds += delta.analysis_seconds;
  total->histogram_seconds += delta.histogram_seconds;
  total->budget_exhausted = total->budget_exhausted || delta.budget_exhausted;
  total->degraded_subproblems += delta.degraded_subproblems;
  total->default_fallbacks += delta.default_fallbacks;
  total->shape_cache_hits += delta.shape_cache_hits;
  total->shape_cache_misses += delta.shape_cache_misses;
}

}  // namespace condsel
