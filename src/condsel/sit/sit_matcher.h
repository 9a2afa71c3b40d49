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
#include <span>
#include <utility>
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
  // `pool` is borrowed and must outlive the matcher, unchanged: the bound
  // index points into its SITs.
  explicit SitMatcher(const SitPool* pool);

  // Binds a query: precomputes, per attribute (and per attribute pair),
  // which pool SITs are applicable (their whole expression appears among
  // the query's predicates) and the corresponding predicate bitmask. Every
  // column's SITs are indexed, not only the query's predicate columns.
  // The matcher is read-only after BindQuery returns, so estimators on
  // several threads may share one bound matcher.
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
  // (no other candidate's expression strictly contains theirs), in pool
  // order. The base histogram (expr_mask == 0) qualifies only when nothing
  // else does or nothing strictly contains it — i.e. it is subject to the
  // same maximality rule. Charges the call counter per `accounting`.
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
  // A SIT's (attr, attr2); attr2 is the invalid ColumnRef for
  // one-attribute SITs, as in Sit itself.
  using Key = std::pair<ColumnRef, ColumnRef>;

  // One applicability list of the flat index: index_[begin, end) holds the
  // applicable SITs with this key.
  struct Range {
    Key key;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  // The applicability list for a key; empty when no SIT applies.
  std::span<const SitCandidate> List(const Key& key) const;

  // Consistency and maximality filtering over one applicability list, in
  // one pass, with no storage beyond `out`.
  void FilterMaximalInto(std::span<const SitCandidate> list, PredSet cond,
                         CallAccounting accounting,
                         std::vector<SitCandidate>* out);

  const SitPool* pool_;
  const Query* query_ = nullptr;
  // Every SIT applicable to the bound query, grouped by key; within a
  // group, in descending expression size, ties in pool order.
  std::vector<SitCandidate> index_;
  // One entry per group, sorted by key.
  std::vector<Range> ranges_;
  // Atomic so estimators sharing one bound matcher can charge
  // view-matching calls concurrently; the index above is read-only once
  // BindQuery returns, so lookups need no lock.
  std::atomic<uint64_t> num_calls_{0};
};

}  // namespace condsel

