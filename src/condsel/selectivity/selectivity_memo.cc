#include "condsel/selectivity/selectivity_memo.h"

#include <algorithm>

#include "condsel/common/macros.h"

namespace condsel {

CONDSEL_HOT const MemoEntry* SelectivityMemo::Find(PredSet p) const {
  if (p < kDenseSlots) {
    return p < dense_.size() ? dense_[p] : nullptr;
  }
  auto it = overflow_.find(p);
  return it == overflow_.end() ? nullptr : it->second;
}

CONDSEL_HOT const MemoEntry& SelectivityMemo::Insert(PredSet p,
                                                     MemoEntry entry) {
  CONDSEL_DCHECK(Find(p) == nullptr);
  entries_.push_back(std::move(entry));
  const MemoEntry* stored = &entries_.back();
  if (p < kDenseSlots) {
    if (p >= dense_.size()) {
      // Geometric growth keyed to the largest subset seen: one resize
      // covers the whole universe (the root subset arrives early).
      size_t cap = std::max<size_t>(dense_.size(), 64);
      while (cap <= p) cap *= 2;
      dense_.resize(cap, nullptr);
    }
    dense_[p] = stored;
  } else {
    overflow_.emplace(p, stored);
  }
  return *stored;
}

CONDSEL_HOT const DerivationAtom* SelectivityMemo::FindAtom(
    int pred) const {
  CONDSEL_CHECK(pred >= 0 && pred < kMaxPredicates);
  return atom_present_[pred] ? &atoms_[pred] : nullptr;
}

CONDSEL_HOT const DerivationAtom& SelectivityMemo::InsertAtom(
    int pred, DerivationAtom atom) {
  CONDSEL_CHECK(pred >= 0 && pred < kMaxPredicates);
  CONDSEL_DCHECK(!atom_present_[pred]);
  atoms_[pred] = std::move(atom);
  atom_present_[pred] = true;
  return atoms_[pred];
}

}  // namespace condsel
