// Fuzz target: the catalog / SIT-pool deserializers.
//
// The same input bytes are offered to both readers (their magic numbers
// disambiguate). The readers must never crash, hang, or over-allocate on
// corrupt input, and anything they accept must satisfy the structural
// invariants the rest of the library CHECKs on.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "condsel/io/serialize.h"
#include "fuzz_util.h"

namespace {

void Require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "fuzz_serialize invariant violated: %s\n", what);
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const condsel::Catalog catalog = condsel::fuzzing::MakeFuzzCatalog();

  {
    condsel::Catalog out;
    const condsel::Status r =
        condsel::ReadCatalogFromBuffer(data, size, &out);
    if (r.ok()) {
      for (condsel::TableId t = 0; t < out.num_tables(); ++t) {
        const condsel::Table& table = out.table(t);
        const size_t rows = table.num_rows();
        size_t part_rows = table.tail_rows();
        for (size_t pi = 0; pi < table.num_parts(); ++pi) {
          part_rows += table.part(pi).num_rows();
          Require(table.part(pi).num_columns() ==
                      static_cast<size_t>(table.num_columns()),
                  "accepted catalog with ragged part");
        }
        Require(part_rows == rows,
                "accepted catalog whose parts do not cover its rows");
        for (condsel::ColumnId c = 0; c < table.num_columns(); ++c) {
          Require(table.MaterializeColumn(c).size() == rows,
                  "accepted catalog with ragged columns");
        }
      }
      for (const condsel::ForeignKey& fk : out.foreign_keys()) {
        Require(fk.fk_table >= 0 && fk.fk_table < out.num_tables() &&
                    fk.pk_table >= 0 && fk.pk_table < out.num_tables(),
                "accepted catalog with dangling foreign key");
      }
    } else {
      Require(r.code() == condsel::StatusCode::kDataLoss,
              "rejection must be DATA_LOSS");
      Require(!r.message().empty(), "rejection must carry a message");
    }
  }

  {
    condsel::SitPool pool;
    const condsel::Status r =
        condsel::ReadSitPoolFromBuffer(data, size, catalog, &pool);
    if (r.ok()) {
      for (const condsel::Sit& sit : pool.sits()) {
        Require(sit.attr.table >= 0 && sit.attr.table < catalog.num_tables(),
                "accepted SIT bound to a table outside the catalog");
        Require(sit.diff >= 0.0 && sit.diff <= 1.0,
                "accepted SIT with diff outside [0, 1]");
      }
    } else {
      Require(r.code() == condsel::StatusCode::kDataLoss,
              "rejection must be DATA_LOSS");
      Require(!r.message().empty(), "rejection must carry a message");
    }
  }

  {
    condsel::PartStatsSet stats;
    const condsel::Status r =
        condsel::ReadPartStatsFromBuffer(data, size, catalog, &stats);
    if (r.ok()) {
      for (const auto& [key, entry] : stats.entries()) {
        Require(entry.table >= 0 && entry.table < catalog.num_tables(),
                "accepted part stats for a table outside the catalog");
        const condsel::Table& table = catalog.table(entry.table);
        const int pi = table.part_index(entry.part);
        Require(pi >= 0, "accepted part stats for an unknown part");
        Require(entry.generation ==
                    table.part(static_cast<size_t>(pi)).generation(),
                "accepted stale part stats");
        Require(entry.pieces.size() ==
                    stats.SpecsOwnedBy(entry.table).size(),
                "accepted part stats misaligned with their spec list");
        for (size_t i = 0; i < entry.pieces.size(); ++i) {
          Require(entry.pieces[i].source_cardinality() >= 0.0,
                  "accepted part-stats piece with bad cardinality");
          Require(entry.diffs[i] >= 0.0 && entry.diffs[i] <= 1.0,
                  "accepted part-stats diff outside [0, 1]");
        }
      }
    } else {
      Require(r.code() == condsel::StatusCode::kDataLoss,
              "rejection must be DATA_LOSS");
      Require(!r.message().empty(), "rejection must carry a message");
    }
  }
  return 0;
}
