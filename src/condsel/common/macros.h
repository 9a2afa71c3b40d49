// Invariant-checking macros used across the library.
//
// The library does not use exceptions. Programming errors (violated
// preconditions, broken invariants) abort the process with a message that
// points at the failing expression. CONDSEL_CHECK is always active;
// CONDSEL_DCHECK compiles away in NDEBUG builds and is meant for hot paths.

#pragma once

#include <cstdio>
#include <cstdlib>

#define CONDSEL_CHECK(cond)                                               \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,       \
                   __LINE__, #cond);                                      \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

#define CONDSEL_CHECK_MSG(cond, msg)                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s (%s)\n", __FILE__,  \
                   __LINE__, #cond, (msg));                               \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

#ifdef NDEBUG
#define CONDSEL_DCHECK(cond) \
  do {                       \
  } while (0)
#else
#define CONDSEL_DCHECK(cond) CONDSEL_CHECK(cond)
#endif

// Marks a function as part of the estimation hot path: the memo,
// decomposer, DP-driver, and provider inner loops that run once per
// subproblem. Semantically a no-op — it expands to nothing — but
// tools/condsel_flow.py keys its hot-path-alloc check on the annotation:
// every heap-allocation site reachable from a CONDSEL_HOT function must be
// sanctioned in tools/alloc_budget.toml, so a new allocation on the hot
// path fails CI instead of landing silently. Put it on the definition,
// before the return type.
#define CONDSEL_HOT

