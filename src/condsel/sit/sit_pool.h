// The pool of available SITs, and generation of the paper's J_i pools.
//
// Section 5 ("Available SITs"): pool J_i contains every SIT_R(a | Q) where
// Q is a set of at most i join predicates and both Q and a appear
// syntactically in some workload query; J_0 holds exactly the base-table
// histograms. We additionally require Q to be a connected join expression
// that reaches a's table (other combinations do not describe a meaningful
// query expression for a), and we always include base histograms for every
// column any workload query references, since join predicates need base
// histograms on their endpoints even in the richest pools.

#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "condsel/query/query.h"
#include "condsel/sit/sit.h"
#include "condsel/sit/sit_builder.h"

namespace condsel {

// Join-only factor estimates, memoized for one pool. A join factor with
// no filter on its join columns is estimated from its two SITs alone (the
// weighted sum of JoinSelectivity over their piece pairs), so within one
// pool the value is a pure function of the ordered SitId pair.
// AtomicSelectivityProvider looks it up here before running the kernels.
//
// Fixed-size open addressing over atomic key and value slots; the pool is
// shared read-only across threads, so lookups take no lock. A writer
// claims a key slot with a CAS and publishes the value bits with a
// release store. A reader that finds the key without a value yet, or no
// free slot, computes the value itself; racing writers store the same
// bits, because the kernels are deterministic.
class JoinFactorMemo {
 public:
  // A J_i pool holds only base histograms on join columns, so it has at
  // most one key per distinct join predicate (7 on each workload of
  // bench/suite/). Pairs beyond this many keys are computed uncached.
  static constexpr int kCapacity = 256;

  JoinFactorMemo();

  // The value memoized for (left, right). On a miss compute() supplies
  // it, and it is stored for later lookups when a slot is free. compute()
  // must return the same bits on every call for the same pair.
  template <typename Fn>
  double GetOrCompute(SitId left, SitId right, Fn&& compute) const {
    // Ids are non-negative, so the +1 keeps every key off kEmpty.
    const uint64_t key = ((uint64_t{static_cast<uint32_t>(left)} << 32) |
                          static_cast<uint32_t>(right)) +
                         1;
    // Fibonacci hashing spreads neighbouring ids over the table.
    size_t slot = static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                      (64 - kLogCapacity));
    for (int probe = 0; probe < kCapacity;
         ++probe, slot = (slot + 1) % kCapacity) {
      uint64_t seen = keys_[slot].load(std::memory_order_acquire);
      if (seen == kEmpty &&
          keys_[slot].compare_exchange_strong(seen, key,
                                              std::memory_order_acq_rel)) {
        seen = key;
      }
      if (seen != key) continue;  // another pair's slot
      const uint64_t bits = values_[slot].load(std::memory_order_acquire);
      if (bits != kNoValue) return std::bit_cast<double>(bits);
      const double value = compute();
      values_[slot].store(std::bit_cast<uint64_t>(value),
                          std::memory_order_release);
      return value;
    }
    return compute();
  }

 private:
  static constexpr int kLogCapacity = 8;
  static_assert(kCapacity == 1 << kLogCapacity);
  static constexpr uint64_t kEmpty = 0;
  // A NaN: no selectivity a join factor memoizes has these bits.
  static constexpr uint64_t kNoValue = ~uint64_t{0};

  mutable std::atomic<uint64_t> keys_[kCapacity];
  mutable std::atomic<uint64_t> values_[kCapacity];
};

// The SITs available to one estimator, with the join-factor memo
// (JoinFactorMemo) that every consumer of the pool shares: each service
// snapshot, every Estimator over it, and the baselines.
//
// Ids are stable: Add only appends, and never changes a SIT already in
// the pool, so memo entries stay valid across Add. A copy starts with an
// empty memo (two copies may later Add different SITs under the same new
// id, as the SIT advisor's trial pools do). A move-assigned pool takes
// the source's memo along with its contents; a moved-from pool keeps no
// memo and estimates its join factors uncached. There is no copy
// assignment: Estimator, GetSelectivity and SitMatcher borrow a pool that
// must not change, so new statistics are a new pool.
class SitPool {
 public:
  SitPool();
  SitPool(const SitPool& other);
  SitPool& operator=(const SitPool&) = delete;
  SitPool(SitPool&&) = default;
  SitPool& operator=(SitPool&&) = default;

  // Adds a SIT (deduplicating by (attr, expression)); returns its id.
  SitId Add(Sit sit);

  int32_t size() const { return static_cast<int32_t>(sits_.size()); }
  const Sit& sit(SitId id) const;
  const std::vector<Sit>& sits() const { return sits_; }

  // The base histogram for `col`, or nullptr if absent.
  const Sit* FindBase(ColumnRef col) const;

  // True if a SIT with this (attr, canonical expression) already exists.
  bool Has(ColumnRef attr, const std::vector<Predicate>& expression) const;

  // The estimate of the join-only factor over `left` and `right` (in that
  // order), memoized per pool: compute() runs only on a miss. SITs that
  // are not this pool's own objects are computed uncached.
  template <typename Fn>
  double MemoizedJoinFactor(const Sit& left, const Sit& right,
                            Fn&& compute) const {
    if (join_memo_ == nullptr || !Owns(left) || !Owns(right)) {
      return compute();
    }
    return join_memo_->GetOrCompute(left.id, right.id, compute);
  }

 private:
  bool Owns(const Sit& s) const {
    return s.id >= 0 && s.id < size() &&
           &sits_[static_cast<size_t>(s.id)] == &s;
  }

  std::vector<Sit> sits_;
  std::map<std::tuple<ColumnRef, ColumnRef, std::vector<Predicate>>,
           SitId>
      index_;
  std::unique_ptr<JoinFactorMemo> join_memo_;
};

// The identity of one statistic: SIT_{attr.table}(attr | expression),
// with the canonical (sorted) expression; empty = base histogram. The
// owning table — the one whose parts partition per-part pieces
// (catalog/part_stats.h) — is always attr.table.
struct SitSpec {
  ColumnRef attr;
  std::vector<Predicate> expression;

  TableId owner() const { return attr.table; }
  // True if the expression references `t` (the owner is referenced by
  // definition only when some predicate mentions it; base specs reference
  // nothing beyond the owner).
  bool References(TableId t) const;

  friend bool operator==(const SitSpec&, const SitSpec&) = default;
};

// The statistics of pool J_i for `workload`, in pool order: base
// histograms over the sorted set of referenced columns (filter and join
// columns alike), then, for i > 0, per canonical expression in map order
// its filter attributes sorted. The list is duplicate-free, so adding
// the SITs in order assigns SitId == spec index.
std::vector<SitSpec> EnumerateSitSpecs(const std::vector<Query>& workload,
                                       int max_join_preds);

// Builds pool J_i for `workload`: one SIT per EnumerateSitSpecs entry,
// in that order, all in one build pass (sit_builder.h).
SitPool GenerateSitPool(const std::vector<Query>& workload, int max_join_preds,
                        const SitBuilder& builder);

}  // namespace condsel

