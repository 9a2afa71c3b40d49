#pragma once

namespace demo::lock_rank {

// Internally consistent ranks; the seeded bug is in demo.cc, where
// Outer::Run calls into Inner::Touch while holding the rank-20 lock.
inline constexpr int kInner = 10;
inline constexpr int kOuter = 20;

}  // namespace demo::lock_rank
