#pragma once

namespace demo::lock_rank {

// Seeded drift between the rank table and the construction sites:
// kJournal is missing here although gate.h constructs a mutex with it,
// and kRetired ranks a mutex that no longer exists.
inline constexpr int kGate = 10;
inline constexpr int kRetired = 20;

}  // namespace demo::lock_rank
