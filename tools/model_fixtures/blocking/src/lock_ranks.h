#pragma once

namespace demo::lock_rank {

// The epoch lock sits on the acquire path: nothing slow may ever run
// under it. demo.cc seeds exactly that bug.
inline constexpr int kEpoch = 10;  // condsel: acquire-path

}  // namespace demo::lock_rank
