#include "condsel/catalog/part_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "condsel/common/fault_injector.h"
#include "condsel/common/macros.h"
#include "condsel/histogram/histogram_merge.h"

namespace condsel {

namespace {

std::string SpecName(const SitSpec& spec) {
  std::string s = "T" + std::to_string(spec.attr.table) + ".c" +
                  std::to_string(spec.attr.column);
  if (!spec.expression.empty()) {
    s += " | " + std::to_string(spec.expression.size()) + " preds";
  }
  return s;
}

// Numeric sanity of one stored piece. Bucket-level invariants (sorted,
// non-negative frequencies) are enforced by the Histogram constructor;
// what can still go wrong in persisted or injected state are the scalars
// the constructor does not check. Negated comparisons so NaN fails.
bool PieceSane(const Histogram& h) {
  const double card = h.source_cardinality();
  if (!(card >= 0.0) || !(card <= std::numeric_limits<double>::max())) {
    return false;
  }
  const double freq = h.total_frequency();
  if (!(freq >= 0.0) || !(freq <= 1.0 + 1e-6)) return false;
  return true;
}

}  // namespace

void PartStatsSet::SetSpecs(std::vector<SitSpec> specs) {
  specs_ = std::move(specs);
  entries_.clear();
}

std::vector<int32_t> PartStatsSet::SpecsOwnedBy(TableId t) const {
  std::vector<int32_t> out;
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].owner() == t) out.push_back(static_cast<int32_t>(i));
  }
  return out;
}

void PartStatsSet::PutEntry(PartStatsEntry entry) {
  const auto key = std::make_pair(entry.table, entry.part);
  entries_[key] = std::move(entry);
}

const PartStatsEntry* PartStatsSet::FindEntry(TableId table,
                                              PartId part) const {
  auto it = entries_.find(std::make_pair(table, part));
  return it == entries_.end() ? nullptr : &it->second;
}

void PartStatsSet::RemoveEntry(TableId table, PartId part) {
  entries_.erase(std::make_pair(table, part));
}

Status PartStatsSet::Audit(const Catalog& catalog) const {
  std::set<TableId> owners;
  for (const SitSpec& spec : specs_) {
    if (spec.owner() < 0 || spec.owner() >= catalog.num_tables()) {
      return Status::FailedPrecondition(
          "part stats spec owner outside catalog: " + SpecName(spec));
    }
    owners.insert(spec.owner());
  }

  for (const TableId t : owners) {
    const Table& table = catalog.table(t);
    if (table.tail_rows() != 0) {
      return Status::FailedPrecondition(
          "table T" + std::to_string(t) +
          " has unsealed tail rows; partitioned statistics cover sealed "
          "parts only");
    }
    const size_t owned = SpecsOwnedBy(t).size();
    for (size_t pi = 0; pi < table.num_parts(); ++pi) {
      const Part& part = table.part(pi);
      const PartStatsEntry* entry = FindEntry(t, part.id());
      if (entry == nullptr) {
        return Status::FailedPrecondition(
            "no statistics entry for part " + std::to_string(part.id()) +
            " of T" + std::to_string(t));
      }
      if (entry->generation != part.generation()) {
        return Status::FailedPrecondition(
            "stale statistics for part " + std::to_string(part.id()) +
            " of T" + std::to_string(t) + ": entry generation " +
            std::to_string(entry->generation) + " vs part generation " +
            std::to_string(part.generation()));
      }
      if (entry->pieces.size() != owned || entry->diffs.size() != owned) {
        return Status::FailedPrecondition(
            "misaligned piece vector for part " +
            std::to_string(part.id()) + " of T" + std::to_string(t));
      }
      for (const Histogram& piece : entry->pieces) {
        if (!PieceSane(piece)) {
          return Status::DataLoss(
              "corrupt statistics piece for part " +
              std::to_string(part.id()) + " of T" + std::to_string(t));
        }
      }
    }
  }

  // Entries for parts the catalog no longer has are stale state a
  // maintainer failed to drop.
  for (const auto& [key, entry] : entries_) {
    const auto [t, pid] = key;
    if (t < 0 || t >= catalog.num_tables() ||
        catalog.table(t).part_index(pid) < 0) {
      return Status::FailedPrecondition(
          "statistics entry for nonexistent part " + std::to_string(pid) +
          " of T" + std::to_string(t));
    }
  }
  return Status::Ok();
}

StatusOr<SitPool> PartStatsSet::BuildMergedPool(const Catalog& catalog,
                                                int max_buckets) const {
  CONDSEL_RETURN_IF_ERROR(Audit(catalog));

  // Fault hook: a corrupt piece must surface as DATA_LOSS from the merge,
  // never as a poisoned pool. The injector flips one working-copy
  // cardinality to NaN (bucket frequencies are constructor-checked, the
  // cardinality scalar is not — exactly the field a torn write would hit).
  bool inject_corruption = false;
  {
    const FaultInjector& fi = FaultInjector::Instance();
    inject_corruption =
        fi.armed() && fi.enabled(Fault::kCorruptPartStats);
  }

  SitPool pool;
  for (const SitSpec& spec : specs_) {
    const TableId owner = spec.owner();
    const Table& table = catalog.table(owner);
    const std::vector<int32_t> owned = SpecsOwnedBy(owner);
    const auto pos_it = std::find_if(
        owned.begin(), owned.end(), [&](int32_t s) {
          return specs_[static_cast<size_t>(s)] == spec;
        });
    // invariant: every spec appears in its own owner's owned-spec list.
    CONDSEL_CHECK(pos_it != owned.end());
    const size_t pos = static_cast<size_t>(pos_it - owned.begin());

    std::vector<Histogram> pieces;
    std::vector<uint64_t> generations;
    std::vector<PartId> part_ids;
    std::vector<double> diffs;
    pieces.reserve(table.num_parts());
    for (size_t pi = 0; pi < table.num_parts(); ++pi) {
      const Part& part = table.part(pi);
      const PartStatsEntry* entry = FindEntry(owner, part.id());
      Histogram piece = entry->pieces[pos];
      if (inject_corruption) {
        piece = Histogram(std::vector<Bucket>(piece.buckets()),
                          std::numeric_limits<double>::quiet_NaN());
        inject_corruption = false;  // one torn piece is enough
      }
      if (!PieceSane(piece)) {
        return Status::DataLoss("corrupt statistics piece for part " +
                                std::to_string(part.id()) + " of " +
                                SpecName(spec));
      }
      pieces.push_back(std::move(piece));
      generations.push_back(part.generation());
      part_ids.push_back(part.id());
      diffs.push_back(entry->diffs[pos]);
    }

    Sit sit;
    sit.attr = spec.attr;
    sit.expression = spec.expression;
    if (pieces.size() == 1) {
      // Single-part passthrough: the piece was built over the full row
      // range, so handing it through unchanged keeps single-part
      // databases bit-identical to the unpartitioned pipeline.
      sit.histogram = std::move(pieces[0]);
      sit.diff = diffs[0];
    } else if (!pieces.empty()) {
      std::vector<const Histogram*> ptrs;
      ptrs.reserve(pieces.size());
      double total_card = 0.0;
      for (const Histogram& p : pieces) {
        ptrs.push_back(&p);
        total_card += p.source_cardinality();
      }
      sit.histogram = MergeHistograms(ptrs, max_buckets);
      double diff = 0.0;
      if (total_card > 0.0) {
        for (size_t i = 0; i < pieces.size(); ++i) {
          diff += diffs[i] * pieces[i].source_cardinality() / total_card;
        }
      }
      sit.diff = diff;
      sit.parts.reserve(pieces.size());
      for (size_t i = 0; i < pieces.size(); ++i) {
        SitPart piece;
        piece.part = part_ids[i];
        piece.generation = generations[i];
        piece.histogram = std::move(pieces[i]);
        sit.parts.push_back(std::move(piece));
      }
    } else {
      // Owning table with no sealed parts (empty table): an empty
      // statistic, like building over zero rows.
      sit.histogram = Histogram({}, 0.0);
      sit.diff = 0.0;
    }
    pool.Add(std::move(sit));
  }
  return pool;
}

PartStatsMaintainer::PartStatsMaintainer(Catalog* catalog,
                                         std::vector<Query> workload,
                                         int max_join_preds,
                                         SitBuildOptions options)
    : catalog_(catalog),
      workload_(std::move(workload)),
      options_(options),
      // No cardinality cache: the maintainer mutates the catalog between
      // builds, and restricted evaluations bypass caching anyway.
      evaluator_(catalog, /*cache=*/nullptr),
      builder_(&evaluator_, options) {
  // invariant: constructor contract — a null catalog is a caller bug.
  CONDSEL_CHECK(catalog != nullptr);
  stats_.SetSpecs(EnumerateSitSpecs(workload_, max_join_preds));
}

void PartStatsMaintainer::RebuildPieces(
    TableId table, size_t part_index, const std::vector<int32_t>& owned,
    const std::vector<size_t>& positions, BuildPass* pass,
    PartStatsEntry* entry) const {
  const Table& t = catalog_->table(table);
  const size_t begin = t.part_row_offset(part_index);
  const size_t end = begin + t.part(part_index).num_rows();

  // Group by expression so each expression is evaluated once per part,
  // same as GenerateSitPool does globally.
  std::map<std::vector<Predicate>, std::vector<size_t>> by_expr;
  for (const size_t i : positions) {
    const SitSpec& spec = stats_.specs()[static_cast<size_t>(owned[i])];
    if (spec.expression.empty()) {
      Sit sit = builder_.BuildForRange(spec.attr, {}, begin, end, pass);
      entry->pieces[i] = std::move(sit.histogram);
      entry->diffs[i] = sit.diff;
    } else {
      by_expr[spec.expression].push_back(i);
    }
  }
  for (const auto& [expr, group] : by_expr) {
    std::vector<ColumnRef> attrs;
    attrs.reserve(group.size());
    for (const size_t i : group) {
      attrs.push_back(stats_.specs()[static_cast<size_t>(owned[i])].attr);
    }
    std::vector<Sit> sits =
        builder_.BuildManyForRange(attrs, expr, begin, end, pass);
    // invariant: BuildManyForRange returns one Sit per requested attr.
    CONDSEL_CHECK(sits.size() == group.size());
    for (size_t k = 0; k < group.size(); ++k) {
      entry->pieces[group[k]] = std::move(sits[k].histogram);
      entry->diffs[group[k]] = sits[k].diff;
    }
  }
}

PartStatsEntry PartStatsMaintainer::BuildEntry(TableId table,
                                               size_t part_index,
                                               BuildPass* pass) {
  const Part& part = catalog_->table(table).part(part_index);

  PartStatsEntry entry;
  entry.table = table;
  entry.part = part.id();
  entry.generation = part.generation();
  entry.rows = static_cast<double>(part.num_rows());

  const std::vector<int32_t> owned = stats_.SpecsOwnedBy(table);
  entry.pieces.resize(owned.size());
  entry.diffs.resize(owned.size());
  std::vector<size_t> all(owned.size());
  std::iota(all.begin(), all.end(), size_t{0});
  RebuildPieces(table, part_index, owned, all, pass, &entry);
  return entry;
}

Status PartStatsMaintainer::BuildAll() {
  std::set<TableId> owners;
  for (const SitSpec& spec : stats_.specs()) owners.insert(spec.owner());
  for (const TableId t : owners) {
    if (t < 0 || t >= catalog_->num_tables()) {
      return Status::FailedPrecondition(
          "workload references table T" + std::to_string(t) +
          " outside the catalog");
    }
    Table& table = catalog_->mutable_table(t);
    if (table.tail_rows() != 0) table.SealTail();
  }
  // One pass for every part: the dictionaries cover whole tables.
  BuildPass pass(*catalog_);
  for (const TableId t : owners) {
    for (size_t pi = 0; pi < catalog_->table(t).num_parts(); ++pi) {
      stats_.PutEntry(BuildEntry(t, pi, &pass));
    }
  }
  ++stats_generation_;
  return Status::Ok();
}

StatusOr<DeltaReport> PartStatsMaintainer::ApplyDelta(
    const DeltaBatch& batch) {
  if (batch.table < 0 || batch.table >= catalog_->num_tables()) {
    return Status::InvalidArgument("delta batch targets unknown table T" +
                                   std::to_string(batch.table));
  }
  Table& table = catalog_->mutable_table(batch.table);
  for (const std::vector<int64_t>& row : batch.insert_rows) {
    if (row.size() != static_cast<size_t>(table.num_columns())) {
      return Status::InvalidArgument(
          "insert row has " + std::to_string(row.size()) +
          " values; table T" + std::to_string(batch.table) + " has " +
          std::to_string(table.num_columns()) + " columns");
    }
  }
  for (const size_t r : batch.delete_rows) {
    if (r >= table.num_rows()) {
      return Status::InvalidArgument(
          "delete row " + std::to_string(r) + " out of range for T" +
          std::to_string(batch.table));
    }
  }

  DeltaReport report;

  // Deletes first (indices are pre-batch), then inserts sealed into one
  // new part — the delta batch literally becomes a segment.
  std::vector<PartId> touched;
  if (!batch.delete_rows.empty()) {
    touched = table.DeleteRows(batch.delete_rows);
  }
  PartId new_part = kInvalidPartId;
  if (!batch.insert_rows.empty()) {
    for (const std::vector<int64_t>& row : batch.insert_rows) {
      table.AppendRow(row);
    }
    new_part = table.SealTail();
  }

  // Everything below rebuilds against the post-batch catalog in one pass.
  BuildPass pass(*catalog_);

  // Rebuild delta-table entries for touched parts; drop entries of parts
  // the deletes emptied out.
  const bool owns_specs = !stats_.SpecsOwnedBy(batch.table).empty();
  for (const PartId pid : touched) {
    const int pi = table.part_index(pid);
    if (pi < 0) {
      stats_.RemoveEntry(batch.table, pid);
      report.dropped_parts.push_back(pid);
    } else if (owns_specs) {
      stats_.PutEntry(
          BuildEntry(batch.table, static_cast<size_t>(pi), &pass));
      report.rebuilt_parts.push_back(pid);
    }
  }
  if (new_part != kInvalidPartId && owns_specs) {
    const int pi = table.part_index(new_part);
    // invariant: SealTail just created this part; it must be present.
    CONDSEL_CHECK(pi >= 0);
    stats_.PutEntry(
        BuildEntry(batch.table, static_cast<size_t>(pi), &pass));
    report.rebuilt_parts.push_back(new_part);
  }

  // Cross-table refresh: a statistic owned by another table whose
  // expression joins the delta table saw *its* source relation change in
  // every part — each of the owner's pieces for that spec is rebuilt in
  // place (owner part rows are unchanged, so generations stand).
  std::map<TableId, std::vector<size_t>> cross;  // owner -> owned positions
  for (size_t s = 0; s < stats_.specs().size(); ++s) {
    const SitSpec& spec = stats_.specs()[s];
    if (spec.owner() == batch.table) continue;
    if (!spec.References(batch.table)) continue;
    const std::vector<int32_t> owned = stats_.SpecsOwnedBy(spec.owner());
    const auto it = std::find(owned.begin(), owned.end(),
                              static_cast<int32_t>(s));
    // invariant: every spec appears in its own owner's owned-spec list.
    CONDSEL_CHECK(it != owned.end());
    cross[spec.owner()].push_back(
        static_cast<size_t>(it - owned.begin()));
  }
  std::set<std::pair<TableId, PartId>> cross_touched;
  for (const auto& [owner, positions] : cross) {
    const Table& ot = catalog_->table(owner);
    const std::vector<int32_t> owned = stats_.SpecsOwnedBy(owner);
    for (size_t pi = 0; pi < ot.num_parts(); ++pi) {
      const PartId id = ot.part(pi).id();
      const PartStatsEntry* old = stats_.FindEntry(owner, id);
      // BuildAll populated an entry for every owner part and this
      // delta left owner parts untouched — invariant: the entry exists.
      CONDSEL_CHECK(old != nullptr);
      PartStatsEntry entry = *old;
      RebuildPieces(owner, pi, owned, positions, &pass, &entry);
      report.cross_table_pieces_rebuilt += static_cast<int>(positions.size());
      cross_touched.insert(std::make_pair(owner, id));
      stats_.PutEntry(std::move(entry));
    }
  }

  // Entries untouched by either pass survived the delta by structure
  // sharing — the quantity bench_staleness divides cost by.
  for (const auto& [key, entry] : stats_.entries()) {
    const bool owner_rebuilt =
        key.first == batch.table &&
        (std::find(report.rebuilt_parts.begin(), report.rebuilt_parts.end(),
                   key.second) != report.rebuilt_parts.end());
    if (!owner_rebuilt && cross_touched.count(key) == 0) {
      ++report.reused_entries;
    }
  }

  ++stats_generation_;
  report.stats_generation = stats_generation_;
  return report;
}

StatusOr<std::shared_ptr<const SitPool>> PartStatsMaintainer::MergedPool()
    const {
  StatusOr<SitPool> pool =
      stats_.BuildMergedPool(*catalog_, options_.max_buckets);
  if (!pool.ok()) return pool.status();
  return std::make_shared<const SitPool>(std::move(pool.value()));
}

}  // namespace condsel
