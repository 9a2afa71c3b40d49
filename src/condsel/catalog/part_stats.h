// Partitioned statistics: per-part histograms/SITs with incremental
// maintenance.
//
// A statistic SIT_R(a | Q) is *owned* by a.table: restricting that table
// to one part's rows partitions the expression result exactly (each
// result tuple selects exactly one owner row), so per-part pieces built
// with SitBuilder::BuildForRange sum to the global statistic. This file
// holds the three layers of the partitioned scheme:
//
//  - the pool's *shape*: the SitSpec list EnumerateSitSpecs
//    (sit/sit_pool.h) yields — the same list GenerateSitPool builds from,
//    so merged pools assign the same SitId to the same statistic and
//    single-part databases stay bit-identical to the unpartitioned path.
//
//  - PartStatsEntry / PartStatsSet: the stored per-part pieces, stamped
//    with the owning part's generation. BuildMergedPool folds them into a
//    SitPool: one piece passes through untouched (bit-identity); several
//    pieces become a partitioned Sit carrying the pieces for merge-at-
//    Score plus a cardinality-weighted summary histogram.
//
//  - PartStatsMaintainer: builds all entries, and ApplyDelta rebuilds
//    only what a batch of inserts/deletes invalidates — touched parts of
//    the delta table, plus (for statistics owned by *other* tables whose
//    expression joins the delta table) the cross-table pieces. Untouched
//    parts keep their entries, so the pieces rebuilt track the parts
//    touched (bench_staleness). BuildAll and each ApplyDelta run as one
//    build pass (sit/sit_builder.h): each column they need is coded once,
//    over its whole table, and every part's pieces count over that.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "condsel/catalog/catalog.h"
#include "condsel/common/status.h"
#include "condsel/exec/evaluator.h"
#include "condsel/histogram/histogram.h"
#include "condsel/query/query.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_pool.h"
#include "condsel/storage/part.h"

namespace condsel {

// Pieces of every spec owned by `table`, for one part. `pieces[i]` and
// `diffs[i]` align with PartStatsSet::SpecsOwnedBy(table)[i]. The
// generation stamp is the owning part's generation at build time — a
// mismatch against the live catalog means the entry is stale.
struct PartStatsEntry {
  TableId table = kInvalidTableId;
  PartId part = kInvalidPartId;
  uint64_t generation = 0;
  double rows = 0.0;
  std::vector<Histogram> pieces;
  std::vector<double> diffs;
};

class PartStatsSet {
 public:
  // Installs the spec list (clears existing entries: entries are indexed
  // against the spec order).
  void SetSpecs(std::vector<SitSpec> specs);

  const std::vector<SitSpec>& specs() const { return specs_; }
  // Indices into specs() of the specs owned by `t` (ascending).
  std::vector<int32_t> SpecsOwnedBy(TableId t) const;

  void PutEntry(PartStatsEntry entry);
  const PartStatsEntry* FindEntry(TableId table, PartId part) const;
  void RemoveEntry(TableId table, PartId part);
  const std::map<std::pair<TableId, PartId>, PartStatsEntry>& entries()
      const {
    return entries_;
  }

  // Structural + freshness audit against the live catalog: every part of
  // every owning table has an entry, generations match, no owning table
  // has an unsealed tail, piece vectors align with the owned-spec lists,
  // and every piece is numerically sane. FAILED_PRECONDITION for missing
  // or stale entries, DATA_LOSS for corrupt pieces.
  Status Audit(const Catalog& catalog) const;

  // Folds the entries into a SitPool (ids follow spec order; see
  // EnumerateSitSpecs). Runs the same audit first. The fault
  // kCorruptPartStats flips one piece frequency to NaN in the working
  // copy, which the sanity validation must catch — DATA_LOSS, never a
  // poisoned pool.
  StatusOr<SitPool> BuildMergedPool(const Catalog& catalog,
                                    int max_buckets) const;

 private:
  std::vector<SitSpec> specs_;
  std::map<std::pair<TableId, PartId>, PartStatsEntry> entries_;
};

// One maintenance batch against a single table. Deletes are absolute row
// indices into the table's pre-batch state; inserts append full rows
// (one value per column) which the maintainer seals into a new part.
struct DeltaBatch {
  TableId table = kInvalidTableId;
  std::vector<std::vector<int64_t>> insert_rows;
  std::vector<size_t> delete_rows;
};

// What ApplyDelta actually rebuilt — the observable for the cost ∝
// parts-touched property.
struct DeltaReport {
  std::vector<PartId> rebuilt_parts;    // delta-table entries (re)built
  std::vector<PartId> dropped_parts;    // delta-table entries removed
  int cross_table_pieces_rebuilt = 0;   // pieces refreshed in other
                                        // tables' entries
  int reused_entries = 0;               // entries kept without rebuild
  uint64_t stats_generation = 0;        // after the batch
};

class PartStatsMaintainer {
 public:
  // `catalog` must outlive the maintainer and not be mutated behind its
  // back — all data changes go through ApplyDelta.
  PartStatsMaintainer(Catalog* catalog, std::vector<Query> workload,
                      int max_join_preds, SitBuildOptions options);

  // Seals any open tails (every row must belong to a part) and builds an
  // entry for every part of every owning table, all in one build pass.
  Status BuildAll();

  // Applies the batch to the catalog (deletes first, then inserts sealed
  // into one new part) and rebuilds exactly the invalidated statistics,
  // in one build pass over the post-batch catalog.
  StatusOr<DeltaReport> ApplyDelta(const DeltaBatch& batch);

  const PartStatsSet& stats() const { return stats_; }

  // The maintained catalog (the object handed to the constructor).
  const Catalog& catalog() const { return *catalog_; }

  // Monotonic stamp, bumped by BuildAll and every ApplyDelta (0 before
  // the first build).
  uint64_t stats_generation() const { return stats_generation_; }

  // Merges the current entries into a new pool. Fails (never poisons) on
  // corrupt pieces.
  StatusOr<std::shared_ptr<const SitPool>> MergedPool() const;

 private:
  // Builds (or rebuilds) the entry for one part of `table` in `pass`.
  PartStatsEntry BuildEntry(TableId table, size_t part_index,
                            BuildPass* pass);

  // Rebuilds `entry`'s pieces and diffs at `positions` (indices into
  // `owned`, the specs `table` owns) over the rows of part `part_index`,
  // in `pass`. BuildEntry and ApplyDelta's cross-table refresh share it.
  void RebuildPieces(TableId table, size_t part_index,
                     const std::vector<int32_t>& owned,
                     const std::vector<size_t>& positions, BuildPass* pass,
                     PartStatsEntry* entry) const;

  Catalog* catalog_;
  std::vector<Query> workload_;
  SitBuildOptions options_;
  Evaluator evaluator_;
  SitBuilder builder_;
  PartStatsSet stats_;
  uint64_t stats_generation_ = 0;
};

}  // namespace condsel
