#pragma once

namespace demo::lock_rank {

inline constexpr int kEpoch = 10;

}  // namespace demo::lock_rank
