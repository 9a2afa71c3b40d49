// Monotonic bump allocator backing the per-Compute hot path.
//
// One Arena lives inside each GetSelectivity instance and is Reset() at
// the top of every Compute() call: the decomposer's per-subset candidate
// lists and the factor-estimate memo bump-allocate out of it instead of
// hitting the global heap.
// Blocks are retained across Reset(), so a warmed-up estimator's
// candidate lists cost no heap allocations; the benchmark suite's
// `alloc.per_request` (bench/suite/) counts what a request still
// allocates.
//
// Lifetime rule (lint-enforced as `arena-no-escape`): memory obtained
// from an arena is scratch for the Compute() that allocated it. Nothing
// arena-backed may be stored in the memo, a recorder, or any other
// structure that outlives the call — Reset() recycles the blocks without
// running destructors or poisoning the memory.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace condsel {

class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = 1 << 14;  // 16 KiB

  explicit Arena(size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes < kMinBlockBytes ? kMinBlockBytes
                                                  : block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    BlockHeader* b = head_;
    while (b != nullptr) {
      BlockHeader* next = b->next;
      ::operator delete(b);
      b = next;
    }
  }

  // Bump-allocates `bytes` aligned to `align` (a power of two). The block
  // chain grows through ::operator new so the bench allocation counter
  // sees arena growth honestly; steady state after warm-up allocates
  // nothing.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    uintptr_t p = (reinterpret_cast<uintptr_t>(ptr_) + (align - 1)) &
                  ~(static_cast<uintptr_t>(align) - 1);
    if (p + bytes > reinterpret_cast<uintptr_t>(end_)) {
      NextBlock(bytes + align);
      p = (reinterpret_cast<uintptr_t>(ptr_) + (align - 1)) &
          ~(static_cast<uintptr_t>(align) - 1);
    }
    ptr_ = reinterpret_cast<char*>(p + bytes);
    return reinterpret_cast<void*>(p);
  }

  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is recycled without running destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  // Rewinds to empty, retaining every block for reuse. O(1).
  void Reset() {
    current_ = head_;
    if (current_ != nullptr) {
      ptr_ = Payload(current_);
      end_ = ptr_ + current_->payload_bytes;
    } else {
      ptr_ = end_ = nullptr;
    }
  }

  // Introspection for tests and the steady-state assertions in benches.
  size_t BlockCount() const {
    size_t n = 0;
    for (BlockHeader* b = head_; b != nullptr; b = b->next) ++n;
    return n;
  }
  size_t TotalCapacity() const {
    size_t n = 0;
    for (BlockHeader* b = head_; b != nullptr; b = b->next) {
      n += b->payload_bytes;
    }
    return n;
  }

 private:
  static constexpr size_t kMinBlockBytes = 256;

  struct BlockHeader {
    BlockHeader* next;
    size_t payload_bytes;
  };

  static char* Payload(BlockHeader* b) {
    return reinterpret_cast<char*>(b) + sizeof(BlockHeader);
  }

  // Advances to the next retained block that fits `min_bytes`, or chains
  // a new one (at least block_bytes_, more for oversized requests).
  void NextBlock(size_t min_bytes) {
    BlockHeader* next = (current_ != nullptr) ? current_->next : head_;
    while (next != nullptr && next->payload_bytes < min_bytes) {
      // Too small for this request; skip it for the rest of this epoch.
      // It stays chained and serves smaller requests after later Resets.
      current_ = next;
      next = next->next;
    }
    if (next == nullptr) {
      const size_t payload =
          min_bytes > block_bytes_ ? min_bytes : block_bytes_;
      void* raw = ::operator new(sizeof(BlockHeader) + payload);
      next = static_cast<BlockHeader*>(raw);
      next->next = nullptr;
      next->payload_bytes = payload;
      if (current_ != nullptr) {
        current_->next = next;
      } else {
        head_ = next;
      }
    }
    current_ = next;
    ptr_ = Payload(current_);
    end_ = ptr_ + current_->payload_bytes;
  }

  BlockHeader* head_ = nullptr;
  BlockHeader* current_ = nullptr;
  char* ptr_ = nullptr;
  char* end_ = nullptr;
  size_t block_bytes_;
};

// Growable array of trivially-copyable elements living entirely in an
// Arena. Growth copies into a fresh arena span and abandons the old one
// (monotonic waste, recycled at the next Reset). Deliberately named
// Append — this is not a std::vector and must not read like one to the
// allocation census.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "growth relocates elements with memcpy");

 public:
  explicit ArenaVector(Arena* arena) : arena_(arena) {}

  void Append(const T& v) {
    if (size_ == capacity_) Grow();
    data_[size_++] = v;
  }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& back() const { return data_[size_ - 1]; }
  void clear() { size_ = 0; }

 private:
  void Grow() {
    const size_t new_cap = capacity_ == 0 ? 8 : capacity_ * 2;
    T* nd = arena_->AllocateArray<T>(new_cap);
    if (size_ != 0) std::memcpy(nd, data_, size_ * sizeof(T));
    data_ = nd;
    capacity_ = new_cap;
  }

  Arena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace condsel
