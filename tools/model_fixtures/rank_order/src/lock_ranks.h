#pragma once

namespace demo::lock_rank {

// Internally consistent ranks; the seeded bug is in demo.cc, which nests
// the rank-10 lock under the rank-20 one.
inline constexpr int kFirst = 10;
inline constexpr int kSecond = 20;

}  // namespace demo::lock_rank
