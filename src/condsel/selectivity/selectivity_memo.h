// SelectivityMemo — the memo of the getSelectivity DP.
//
// Keyed by predicate-subset bitmask. Storage is a deque so entry
// references stay valid for the lifetime of the memo (the driver holds
// references across later inserts). Like its owner GetSelectivity, the
// memo is externally synchronized: one thread uses it at a time.
//
// The index is two-tier, chosen by the key value alone so lookups stay
// branch-cheap and bit-identical either way:
//  - keys below kDenseSlots (every query of at most kDenseBits
//    predicates) resolve through a dense pointer table indexed directly
//    by the bitmask — one bounds check and one load, no hashing. The
//    table grows geometrically on insert.
//  - larger keys (17..32-predicate universes) fall back to the hash map.
// A single Find may consult both tiers only when the overflow map is
// non-empty, which cannot happen for small universes.
//
// The memo also holds the per-predicate independence-fallback atoms
// (the noSit path re-entered by every degraded superset) in a fixed
// 32-slot array — one per possible predicate index.

#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "condsel/analysis/derivation.h"
#include "condsel/query/join_graph.h"
#include "condsel/query/query.h"
#include "condsel/selectivity/atomic_provider.h"

namespace condsel {

// How a memo entry's selectivity was assembled.
enum class MemoEntryKind { kEmpty, kSeparable, kAtomic, kDegraded };

struct MemoEntry {
  double selectivity = 1.0;
  double error = 0.0;
  MemoEntryKind kind = MemoEntryKind::kEmpty;
  PredSet best_p_prime = 0;         // kAtomic: the factor's P'
  FactorChoice choice;              // kAtomic: chosen SITs
  double factor_selectivity = 1.0;  // kAtomic: Sel(P'|Q) as estimated
  // kSeparable: the standard decomposition, inline (at most one component
  // per predicate) — copying or memoizing an entry never touches the heap.
  ComponentList components;
  FallbackReason fallback = FallbackReason::kNone;  // kDegraded
};

class SelectivityMemo {
 public:
  // Universes of up to this many predicates are served entirely by the
  // dense table (2^16 pointer slots = 512 KiB fully grown; the table only
  // grows to cover the largest key actually inserted).
  static constexpr int kDenseBits = 16;
  static constexpr uint64_t kDenseSlots = uint64_t{1} << kDenseBits;

  // The entry for `p`, or nullptr. The reference stays valid for the
  // memo's lifetime.
  const MemoEntry* Find(PredSet p) const;

  // Stores the entry for `p`, which must not be present yet, and returns
  // it.
  const MemoEntry& Insert(PredSet p, MemoEntry entry);

  // Per-predicate fallback atoms, same contract.
  const DerivationAtom* FindAtom(int pred) const;
  const DerivationAtom& InsertAtom(int pred, DerivationAtom atom);

 private:
  std::deque<MemoEntry> entries_;
  // Dense tier: slot p holds the entry for subset p (nullptr = absent).
  std::vector<const MemoEntry*> dense_;
  // Overflow tier for keys >= kDenseSlots.
  std::unordered_map<PredSet, const MemoEntry*> overflow_;
  DerivationAtom atoms_[kMaxPredicates];
  bool atom_present_[kMaxPredicates] = {};
};

}  // namespace condsel
