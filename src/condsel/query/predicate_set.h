// Bitmask set types for predicates and tables.
//
// Within one query, predicates are indexed 0..n-1 (n <= 32) and subsets are
// uint32 bitmasks. This makes getSelectivity's "for each P' subseteq P"
// loop (Fig. 3, line 10) a standard sub-mask enumeration, and the
// memoization table an array indexed by mask. Tables are likewise bitmasks
// over catalog TableIds.

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace condsel {

using PredSet = uint32_t;
using TableSet = uint32_t;

inline constexpr int kMaxPredicates = 32;

inline int SetSize(uint32_t s) { return std::popcount(s); }
inline bool Contains(uint32_t s, int i) { return (s >> i) & 1u; }
inline uint32_t With(uint32_t s, int i) { return s | (1u << i); }
inline uint32_t Without(uint32_t s, int i) { return s & ~(1u << i); }
inline bool IsSubset(uint32_t sub, uint32_t super) {
  return (sub & ~super) == 0;
}

// Expands a bitmask into element indices, low to high.
std::vector<int> SetElements(uint32_t s);

// Allocation-free range over the set bits of a mask, low to high:
//   for (int i : SetBits(mask)) ...
// The hot-path replacement for SetElements — identical iteration order,
// no vector materialized.
class SetBits {
 public:
  class Iterator {
   public:
    explicit Iterator(uint32_t rest) : rest_(rest) {}
    int operator*() const { return std::countr_zero(rest_); }
    Iterator& operator++() {
      rest_ &= rest_ - 1;  // clear lowest set bit
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return rest_ != other.rest_;
    }
    bool operator==(const Iterator& other) const {
      return rest_ == other.rest_;
    }

   private:
    uint32_t rest_;
  };

  explicit SetBits(uint32_t mask) : mask_(mask) {}
  Iterator begin() const { return Iterator(mask_); }
  Iterator end() const { return Iterator(0); }

 private:
  uint32_t mask_;
};

// Iterates all non-empty proper sub-masks of `s` in decreasing order:
//   for (uint32_t sub = PrevSubmask(s, s); sub; sub = PrevSubmask(s, sub))
// PrevSubmask(s, s) yields the largest proper submask.
inline uint32_t PrevSubmask(uint32_t s, uint32_t cur) {
  return (cur - 1) & s;
}

// Iterates all non-empty sub-masks of `s` in increasing order:
//   for (uint32_t sub = NextSubmask(s, 0); sub; sub = NextSubmask(s, sub))
// Adding one to `cur` with carries rippling through the bits outside `s`.
inline uint32_t NextSubmask(uint32_t s, uint32_t cur) {
  return (cur - s) & s;
}

}  // namespace condsel

