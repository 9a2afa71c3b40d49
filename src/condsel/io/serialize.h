// Binary (de)serialization for catalogs and SIT pools.
//
// A real deployment builds SITs offline and ships them to the optimizer;
// this module provides that persistence: a versioned little-endian binary
// format for Catalog (schemas + column data) and SitPool (expressions,
// 1-d and 2-d histograms, diff values). Readers validate magic numbers,
// version, and structural invariants, and report failures by value. Every
// failure, read or write, is DATA_LOSS: the bytes on disk (or in the
// buffer) do not decode into a usable catalog or pool, or could not be
// written.

#pragma once

#include <string>

#include "condsel/catalog/catalog.h"
#include "condsel/catalog/part_stats.h"
#include "condsel/common/status.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {

// Catalog <-> file.
Status WriteCatalog(const Catalog& catalog, const std::string& path);
Status ReadCatalog(const std::string& path, Catalog* out);

// SitPool <-> file. Reading validates that every SIT's tables/columns
// exist in `catalog` (a pool is only meaningful against its database).
// Writing refuses a pool holding partitioned SITs (a merged pool over
// multi-part tables): their per-part pieces go through WritePartStats.
Status WriteSitPool(const SitPool& pool, const std::string& path);
Status ReadSitPool(const std::string& path, const Catalog& catalog,
                   SitPool* out);

// Per-part statistics (catalog/part_stats.h) <-> file. Reading validates
// the image against `catalog` before any Histogram is constructed:
// unknown columns or parts, corrupt pieces (NaN frequencies,
// cardinalities, or diffs), misaligned piece vectors, and entries whose
// generation stamp disagrees with the live part (stale statistics from
// before a delta) are all rejected by value.
Status WritePartStats(const PartStatsSet& stats, const std::string& path);
Status ReadPartStats(const std::string& path, const Catalog& catalog,
                     PartStatsSet* out);

// In-memory variants: parse a serialized image without touching the
// filesystem. Same validation and failure modes as the file readers;
// used by embedders that ship statistics over the network, and by the
// fuzz harnesses, which drive them with adversarial bytes.
Status ReadCatalogFromBuffer(const void* data, size_t size, Catalog* out);
Status ReadSitPoolFromBuffer(const void* data, size_t size,
                             const Catalog& catalog, SitPool* out);
Status ReadPartStatsFromBuffer(const void* data, size_t size,
                               const Catalog& catalog, PartStatsSet* out);

}  // namespace condsel

