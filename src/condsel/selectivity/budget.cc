#include "condsel/selectivity/budget.h"

#include <algorithm>
#include <limits>

#include "condsel/common/fault_injector.h"

namespace condsel {

void Deadline::Arm(double seconds) {
  using Clock = std::chrono::steady_clock;
  const double ticks =
      std::chrono::duration<double, Clock::period>(
          std::chrono::duration<double>(seconds))
          .count();
  // NaN fails this test, so it disarms like seconds <= 0.
  if (!(ticks > 0.0)) {
    Disarm();
    return;
  }
  const Rep now = Clock::now().time_since_epoch().count();
  const Rep room = std::numeric_limits<Rep>::max() - now;
  // A deadline the clock cannot represent, +inf included, is no deadline
  // either. The test runs on doubles: casting such a count would overflow.
  if (!(ticks < static_cast<double>(room))) {
    Disarm();
    return;
  }
  // `room` rounded to a double, so clamp the cast count to it.
  const Rep at = now + std::min(static_cast<Rep>(ticks), room);
  // Publication contract (budget.h): the expiry instant is stored before
  // armed_ is released, so a reader that acquires armed_ == true never
  // sees a stale instant.
  at_.store(at, std::memory_order_relaxed);
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

bool BudgetExhausted(const EstimationBudget* budget, const GsStats& stats,
                     const Deadline& deadline) {
  if (budget == nullptr) return false;
  if (budget->max_subproblems > 0 &&
      stats.subproblems >= budget->max_subproblems) {
    return true;
  }
  if (budget->max_atomic_decompositions > 0 &&
      stats.atomic_considered >= budget->max_atomic_decompositions) {
    return true;
  }
  return deadline.Expired();
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
