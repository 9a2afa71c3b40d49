// Candidate-SIT matching (Section 3.3).
//
// For a factor Sel_R(P | Q) with a predicate over attribute `a`, the
// candidate SITs are every SIT(a | Q') with (1) the right attribute,
// (2) Q' a subset of Q ("consistent with the input query"; independence is
// assumed between P and Q - Q'), and (3) Q' maximal among the available
// SITs. This plays the role of the view-matching routine shared by both
// getSelectivity (line 12) and the GVM baseline, and keeps the call
// counter that Figure 6 reports.

#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <vector>

#include "condsel/query/query.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {

struct SitCandidate {
  const Sit* sit = nullptr;
  // The SIT's expression as a bitmask over the bound query's predicates
  // (Q' above). Empty for base histograms.
  PredSet expr_mask = 0;
};

// Fixed-capacity list of the SITs chosen for one factor: a single SIT for
// filter shapes, one per side for a join — never more than two. Inline
// storage replaces std::vector in FactorChoice so constructing, copying,
// and memoizing a choice performs no heap allocation; the
// initializer_list constructor keeps `{c}` / `{cl, cr}` call sites and
// test literals working unchanged.
class SitVec {
 public:
  static constexpr size_t kCapacity = 2;

  SitVec() = default;
  SitVec(std::initializer_list<SitCandidate> list) {  // NOLINT
    for (const SitCandidate& c : list) Append(c);
  }

  void Append(const SitCandidate& c) { data_[size_++] = c; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const SitCandidate& operator[](size_t i) const { return data_[i]; }
  SitCandidate& operator[](size_t i) { return data_[i]; }
  const SitCandidate& front() const { return data_[0]; }
  const SitCandidate* begin() const { return data_; }
  const SitCandidate* end() const { return data_ + size_; }

 private:
  SitCandidate data_[kCapacity];
  size_t size_ = 0;
};

class SitMatcher {
 public:
  explicit SitMatcher(const SitPool* pool);

  // Binds a query: precomputes, per attribute, which pool SITs are
  // applicable (their whole expression appears among the query's
  // predicates) and the corresponding predicate bitmask.
  void BindQuery(const Query* query);

  // How Candidates() charges the view-matching call counter.
  //  - kIndexed: one call per invocation. getSelectivity's line-12
  //    subroutine retrieves a factor's qualifying SITs with one indexed
  //    lookup over the per-attribute applicability lists built by
  //    BindQuery.
  //  - kPerSit: one call per applicable SIT examined. GVM's greedy
  //    procedure ([4]) tests each materialized-view candidate against
  //    the current plan individually, so each probe is a separate
  //    view-matching invocation.
  enum class CallAccounting { kIndexed, kPerSit };

  // View matching: candidates for attribute `attr` conditioned on `cond`.
  // Returns all applicable SITs with expr_mask ⊆ cond that are maximal
  // (no other candidate's expression strictly contains theirs). The base
  // histogram (expr_mask == 0) qualifies only when nothing else does or
  // nothing strictly contains it — i.e. it is subject to the same
  // maximality rule. Charges the call counter per `accounting`.
  std::vector<SitCandidate> Candidates(
      ColumnRef attr, PredSet cond,
      CallAccounting accounting = CallAccounting::kIndexed);

  // View matching for multidimensional SITs: candidates covering the
  // attribute pair {a, b} (order-insensitive), consistent with `cond`,
  // maximal. Same counter semantics as Candidates().
  std::vector<SitCandidate> Candidates2(
      ColumnRef a, ColumnRef b, PredSet cond,
      CallAccounting accounting = CallAccounting::kIndexed);

  // Scratch-filling variants for the estimation hot path: `out` is
  // cleared and refilled, retaining its capacity, so a caller reusing one
  // vector across calls reaches a steady state of zero allocations per
  // lookup. Identical contents and order to the returning forms.
  void CandidatesInto(ColumnRef attr, PredSet cond,
                      CallAccounting accounting,
                      std::vector<SitCandidate>* out);
  void Candidates2Into(ColumnRef a, ColumnRef b, PredSet cond,
                       CallAccounting accounting,
                       std::vector<SitCandidate>* out);

  uint64_t num_calls() const {
    return num_calls_.load(std::memory_order_relaxed);
  }
  void ResetCallCounter() { num_calls_.store(0, std::memory_order_relaxed); }

  const SitPool& pool() const { return *pool_; }

 private:
  // Shared consistency + maximality filtering over an applicability list,
  // single pass, no intermediate storage beyond `out`.
  void FilterMaximalInto(const std::vector<SitCandidate>* list, PredSet cond,
                         CallAccounting accounting,
                         std::vector<SitCandidate>* out);

  const SitPool* pool_;
  const Query* query_ = nullptr;
  // attr -> (sit, expr mask), applicable to the bound query.
  std::map<ColumnRef, std::vector<SitCandidate>> applicable_;
  // (attr, attr2) with attr <= attr2 -> multidimensional candidates.
  std::map<std::pair<ColumnRef, ColumnRef>, std::vector<SitCandidate>>
      applicable2_;
  // Atomic so estimators sharing one bound matcher can charge
  // view-matching calls concurrently; the applicability maps above are
  // read-only once BindQuery returns, so lookups need no lock.
  std::atomic<uint64_t> num_calls_{0};
};

}  // namespace condsel

