#pragma once

namespace demo::lock_rank {

// The epoch lock sits on the acquire path; publisher.cc keeps every
// blocking call outside it, so blocking-reachable stays silent.
inline constexpr int kEpoch = 10;  // condsel: acquire-path

}  // namespace demo::lock_rank
