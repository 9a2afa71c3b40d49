// Merging unidimensional histograms built over disjoint row sets.
//
// A partitioned statistic (catalog/part_stats.h) keeps one histogram per
// part of the owning table; the pieces describe disjoint slices of the
// same source relation, so the union's distribution is the cardinality-
// weighted mixture of the pieces. MergeHistograms materializes that
// mixture as an ordinary Histogram over the union of the pieces' bucket
// boundaries (coalesced down to `max_buckets`), for consumers that need a
// single summary — introspection, serialization of a flat view. Selectivity estimation does NOT go through the merged
// summary: AtomicSelectivityProvider merges per-piece estimates directly,
// which is exact where this summary re-applies the uniform-bucket
// assumption.

#pragma once

#include <vector>

#include "condsel/histogram/histogram.h"

namespace condsel {

// Merges pieces built over disjoint row sets of one relation. The result's
// source_cardinality is the sum of the pieces'; each piece contributes
// frequency mass proportional to its cardinality. Pieces must be sane
// (finite, non-negative cardinalities and frequencies) — callers holding
// untrusted pieces validate first (PartStatsSet does). Null/empty input
// merges to an empty histogram.
Histogram MergeHistograms(const std::vector<const Histogram*>& pieces,
                          int max_buckets);

}  // namespace condsel
