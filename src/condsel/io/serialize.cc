#include "condsel/io/serialize.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

namespace condsel {
namespace {

constexpr uint32_t kCatalogMagic = 0x43435444;    // "CCTD"
constexpr uint32_t kPoolMagic = 0x43435354;       // "CCST"
constexpr uint32_t kPartStatsMagic = 0x43435053;  // "CCPS"
constexpr uint32_t kVersion = 2;
// Catalog v3 serializes the part structure (per-part id/generation/columns
// plus the unsealed tail); v2 files — one flat column set per table — are
// still readable and load as a single part.
constexpr uint32_t kCatalogVersion = 3;
constexpr uint32_t kPartStatsVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

// --- primitive writers/readers (little-endian host assumed; checked by
// the magic number on read) ---

class Writer {
 public:
  explicit Writer(std::FILE* f) : f_(f) {}

  bool ok() const { return ok_; }

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void I64Vec(const std::vector<int64_t>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(int64_t));
  }

 private:
  void Raw(const void* p, size_t n) {
    if (ok_ && n > 0 && std::fwrite(p, 1, n, f_) != n) ok_ = false;
  }
  std::FILE* f_;
  bool ok_ = true;
};

class Reader {
 public:
  explicit Reader(std::FILE* f) : f_(f) {
    // Element counts read from the file are validated against the bytes
    // actually present, so a corrupt count can never trigger a giant
    // allocation before the read fails.
    if (std::fseek(f_, 0, SEEK_END) == 0) {
      const long size = std::ftell(f_);
      if (size > 0) remaining_ = static_cast<uint64_t>(size);
    }
    if (std::fseek(f_, 0, SEEK_SET) != 0) ok_ = false;
  }

  bool ok() const { return ok_; }

  // Could `count` records of `record_bytes` still be present in the file?
  bool Plausible(uint64_t count, uint64_t record_bytes) const {
    return record_bytes == 0 || count <= remaining_ / record_bytes;
  }

  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  int64_t I64() {
    int64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  std::string Str() {
    const uint32_t n = U32();
    if (!ok_ || n > (1u << 20) || !Plausible(n, 1)) {
      ok_ = false;
      return {};
    }
    std::string s(n, '\0');
    Raw(s.data(), n);
    return s;
  }
  std::vector<int64_t> I64Vec() {
    const uint64_t n = U64();
    if (!ok_ || !Plausible(n, sizeof(int64_t))) {
      ok_ = false;
      return {};
    }
    std::vector<int64_t> v(n);
    Raw(v.data(), n * sizeof(int64_t));
    return v;
  }

 private:
  void Raw(void* p, size_t n) {
    if (!ok_ || n == 0) return;
    if (std::fread(p, 1, n, f_) != n) {
      ok_ = false;
      remaining_ = 0;
      return;
    }
    remaining_ -= n <= remaining_ ? n : remaining_;
  }
  std::FILE* f_;
  uint64_t remaining_ = 0;
  bool ok_ = true;
};

// --- shared sub-structures ---

void WriteHistogram(Writer& w, const Histogram& h) {
  w.F64(h.source_cardinality());
  w.U64(h.num_buckets());
  for (const Bucket& b : h.buckets()) {
    w.I64(b.lo);
    w.I64(b.hi);
    w.F64(b.frequency);
    w.F64(b.distinct);
  }
}

bool ReadHistogram(Reader& r, Histogram* out) {
  const double card = r.F64();
  const uint64_t n = r.U64();
  if (!r.ok() || n > (1u << 24) || !r.Plausible(n, 4 * sizeof(int64_t))) {
    return false;
  }
  std::vector<Bucket> buckets(n);
  for (auto& b : buckets) {
    b.lo = r.I64();
    b.hi = r.I64();
    b.frequency = r.F64();
    b.distinct = r.F64();
    // Negated comparisons so NaN (a flipped double) is rejected here
    // rather than CHECK-aborting in the Histogram constructor.
    if (!r.ok() || b.lo > b.hi || !(b.frequency >= 0)) return false;
  }
  // Ordering is re-checked by the Histogram constructor's CHECKs; guard
  // here so corrupt files fail softly instead.
  for (size_t i = 1; i < buckets.size(); ++i) {
    if (buckets[i - 1].hi >= buckets[i].lo) return false;
  }
  *out = Histogram(std::move(buckets), card);
  return true;
}

void WriteHistogram2d(Writer& w, const Histogram2d& h) {
  w.F64(h.source_cardinality());
  w.U64(h.num_buckets());
  for (const Bucket2d& b : h.buckets()) {
    w.I64(b.x_lo);
    w.I64(b.x_hi);
    w.I64(b.y_lo);
    w.I64(b.y_hi);
    w.F64(b.frequency);
  }
}

bool ReadHistogram2d(Reader& r, Histogram2d* out) {
  const double card = r.F64();
  const uint64_t n = r.U64();
  if (!r.ok() || n > (1u << 24) || !r.Plausible(n, 5 * sizeof(int64_t))) {
    return false;
  }
  std::vector<Bucket2d> buckets(n);
  for (auto& b : buckets) {
    b.x_lo = r.I64();
    b.x_hi = r.I64();
    b.y_lo = r.I64();
    b.y_hi = r.I64();
    b.frequency = r.F64();
    if (!r.ok() || b.x_lo > b.x_hi || b.y_lo > b.y_hi ||
        !(b.frequency >= 0)) {
      return false;
    }
  }
  *out = Histogram2d(std::move(buckets), card);
  return true;
}

void WritePredicate(Writer& w, const Predicate& p) {
  w.U32(p.is_join() ? 1 : 0);
  if (p.is_join()) {
    w.U32(static_cast<uint32_t>(p.left().table));
    w.U32(static_cast<uint32_t>(p.left().column));
    w.U32(static_cast<uint32_t>(p.right().table));
    w.U32(static_cast<uint32_t>(p.right().column));
  } else {
    w.U32(static_cast<uint32_t>(p.column().table));
    w.U32(static_cast<uint32_t>(p.column().column));
    w.I64(p.lo());
    w.I64(p.hi());
  }
}

bool ReadPredicate(Reader& r, const Catalog& catalog, Predicate* out) {
  const uint32_t is_join = r.U32();
  if (is_join == 1) {
    const ColumnRef l{static_cast<TableId>(r.U32()),
                      static_cast<ColumnId>(r.U32())};
    const ColumnRef rt{static_cast<TableId>(r.U32()),
                       static_cast<ColumnId>(r.U32())};
    if (!r.ok() || !catalog.HasColumn(l) || !catalog.HasColumn(rt) ||
        l.table == rt.table) {
      return false;
    }
    *out = Predicate::Join(l, rt);
    return true;
  }
  if (is_join != 0) return false;
  const ColumnRef c{static_cast<TableId>(r.U32()),
                    static_cast<ColumnId>(r.U32())};
  const int64_t lo = r.I64();
  const int64_t hi = r.I64();
  if (!r.ok() || !catalog.HasColumn(c) || lo > hi) return false;
  *out = Predicate::Filter(c, lo, hi);
  return true;
}

}  // namespace

Status WriteCatalog(const Catalog& catalog, const std::string& path) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::DataLoss("cannot open '" + path + "' for writing");
  Writer w(f.get());
  w.U32(kCatalogMagic);
  w.U32(kCatalogVersion);
  w.U32(static_cast<uint32_t>(catalog.num_tables()));
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    const Table& table = catalog.table(t);
    w.Str(table.schema().name);
    w.U32(static_cast<uint32_t>(table.num_columns()));
    for (const ColumnSchema& c : table.schema().columns) {
      w.Str(c.name);
      w.I64(c.min_value);
      w.I64(c.max_value);
      w.U32(c.is_key ? 1 : 0);
    }
    w.U32(static_cast<uint32_t>(table.num_parts()));
    for (size_t pi = 0; pi < table.num_parts(); ++pi) {
      const Part& part = table.part(pi);
      w.U32(static_cast<uint32_t>(part.id()));
      w.U64(part.generation());
      for (ColumnId c = 0; c < table.num_columns(); ++c) {
        w.I64Vec(part.column(c).values());
      }
    }
    // The unsealed tail rides along so a mid-churn catalog round-trips
    // without forcing a seal (the writer takes the table by const ref).
    w.U64(table.tail_rows());
    for (ColumnId c = 0; c < table.num_columns(); ++c) {
      std::vector<int64_t> tail;
      tail.reserve(table.tail_rows());
      for (size_t r = table.sealed_rows(); r < table.num_rows(); ++r) {
        tail.push_back(table.value(r, c));
      }
      w.I64Vec(tail);
    }
  }
  w.U32(static_cast<uint32_t>(catalog.foreign_keys().size()));
  for (const ForeignKey& fk : catalog.foreign_keys()) {
    w.U32(static_cast<uint32_t>(fk.fk_table));
    w.U32(static_cast<uint32_t>(fk.fk_column));
    w.U32(static_cast<uint32_t>(fk.pk_table));
    w.U32(static_cast<uint32_t>(fk.pk_column));
  }
  if (!w.ok()) return Status::DataLoss("write failed for '" + path + "'");
  return Status::Ok();
}

namespace {

Status ReadCatalogStream(std::FILE* file, const std::string& name,
                         Catalog* out) {
  Reader r(file);
  if (r.U32() != kCatalogMagic) {
    return Status::DataLoss(name + " is not a condsel catalog file");
  }
  const uint32_t version = r.U32();
  if (version != kVersion && version != kCatalogVersion) {
    return Status::DataLoss("unsupported catalog version in " + name);
  }
  Catalog catalog;
  const uint32_t num_tables = r.U32();
  if (!r.ok() || num_tables > 1024) {
    return Status::DataLoss("corrupt table count");
  }
  for (uint32_t t = 0; t < num_tables; ++t) {
    TableSchema schema;
    schema.name = r.Str();
    const uint32_t num_cols = r.U32();
    if (!r.ok() || num_cols > 4096) {
      return Status::DataLoss("corrupt column count");
    }
    for (uint32_t c = 0; c < num_cols; ++c) {
      ColumnSchema cs;
      cs.name = r.Str();
      cs.min_value = r.I64();
      cs.max_value = r.I64();
      cs.is_key = r.U32() == 1;
      schema.columns.push_back(std::move(cs));
    }
    Table table(schema);

    // Reads num_cols vectors and validates they agree on the row count
    // (Part/RestoreTail treat a mismatch as an internal invariant
    // violation — abort — so corrupt files are rejected here instead).
    // nullptr on success, else the rejection message.
    auto read_column_set = [&](std::vector<Column>* cols) -> const char* {
      cols->clear();
      for (uint32_t c = 0; c < num_cols; ++c) {
        cols->emplace_back(r.I64Vec());
      }
      if (!r.ok()) return "corrupt column data";
      for (const Column& c : *cols) {
        if (c.size() != (*cols)[0].size()) {
          return "column lengths disagree";
        }
      }
      return nullptr;
    };

    if (version == kVersion) {
      // v2: one flat column set; loads as a single sealed part (empty
      // tables stay part-free, matching LoadPart-built catalogs).
      std::vector<Column> cols;
      if (const char* err = read_column_set(&cols)) {
        return Status::DataLoss(err);
      }
      if (num_cols > 0 && cols[0].size() > 0) {
        table.LoadPart(std::move(cols));
      }
    } else {
      const uint32_t num_parts = r.U32();
      if (!r.ok() || num_parts > 4096) {
        return Status::DataLoss("corrupt part count");
      }
      std::set<uint32_t> seen_ids;
      for (uint32_t pi = 0; pi < num_parts; ++pi) {
        const uint32_t id = r.U32();
        const uint64_t generation = r.U64();
        std::vector<Column> cols;
        if (const char* err = read_column_set(&cols)) {
          return Status::DataLoss(err);
        }
        // RestorePart CHECKs id uniqueness; reject corrupt files softly.
        if (id > (1u << 20) || !seen_ids.insert(id).second) {
          return Status::DataLoss("corrupt part id");
        }
        table.RestorePart(static_cast<PartId>(id), generation,
                          std::move(cols));
      }
      const uint64_t tail_rows = r.U64();
      if (!r.ok() || !r.Plausible(tail_rows, num_cols * sizeof(int64_t))) {
        return Status::DataLoss("corrupt tail row count");
      }
      std::vector<Column> tail;
      if (const char* err = read_column_set(&tail)) {
        return Status::DataLoss(err);
      }
      if (!tail.empty() && tail[0].size() != tail_rows) {
        return Status::DataLoss("tail rows disagree with tail columns");
      }
      table.RestoreTail(std::move(tail));
    }
    catalog.AddTable(std::move(table));
  }
  const uint32_t num_fks = r.U32();
  if (!r.ok() || num_fks > 4096) {
    return Status::DataLoss("corrupt foreign-key count");
  }
  for (uint32_t i = 0; i < num_fks; ++i) {
    ForeignKey fk;
    fk.fk_table = static_cast<TableId>(r.U32());
    fk.fk_column = static_cast<ColumnId>(r.U32());
    fk.pk_table = static_cast<TableId>(r.U32());
    fk.pk_column = static_cast<ColumnId>(r.U32());
    // AddForeignKey treats out-of-range table ids as an internal invariant
    // violation (abort); validate the corrupt-file case here.
    if (!r.ok() || !catalog.HasColumn({fk.fk_table, fk.fk_column}) ||
        !catalog.HasColumn({fk.pk_table, fk.pk_column})) {
      return Status::DataLoss("corrupt foreign key");
    }
    catalog.AddForeignKey(fk);
  }
  *out = std::move(catalog);
  return Status::Ok();
}

}  // namespace

Status ReadCatalog(const std::string& path, Catalog* out) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::DataLoss("cannot open '" + path + "'");
  return ReadCatalogStream(f.get(), "'" + path + "'", out);
}

Status ReadCatalogFromBuffer(const void* data, size_t size, Catalog* out) {
  if (data == nullptr || size == 0) {
    return Status::DataLoss("empty catalog buffer");
  }
  // fmemopen's read mode never writes through the pointer.
  File f(fmemopen(const_cast<void*>(data), size, "rb"));
  if (!f) return Status::DataLoss("cannot map catalog buffer");
  return ReadCatalogStream(f.get(), "buffer", out);
}

Status WriteSitPool(const SitPool& pool, const std::string& path) {
  // The pool format stores one histogram per SIT. A partitioned SIT's
  // per-part pieces would be dropped and it would read back as a flat SIT
  // estimating from the merged summary; refuse it instead.
  for (const Sit& s : pool.sits()) {
    if (s.is_partitioned()) {
      return Status::DataLoss(
          "SIT " + std::to_string(s.id) + " has per-part pieces the pool "
          "format cannot store; persist partitioned statistics with "
          "WritePartStats");
    }
  }
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::DataLoss("cannot open '" + path + "' for writing");
  Writer w(f.get());
  w.U32(kPoolMagic);
  w.U32(kVersion);
  w.U32(static_cast<uint32_t>(pool.size()));
  for (const Sit& s : pool.sits()) {
    w.U32(static_cast<uint32_t>(s.attr.table));
    w.U32(static_cast<uint32_t>(s.attr.column));
    w.U32(s.is_multidim() ? 1 : 0);
    if (s.is_multidim()) {
      w.U32(static_cast<uint32_t>(s.attr2.table));
      w.U32(static_cast<uint32_t>(s.attr2.column));
    }
    w.U32(static_cast<uint32_t>(s.expression.size()));
    for (const Predicate& p : s.expression) WritePredicate(w, p);
    w.F64(s.diff);
    if (s.is_multidim()) {
      WriteHistogram2d(w, s.histogram2d);
    } else {
      WriteHistogram(w, s.histogram);
    }
  }
  if (!w.ok()) return Status::DataLoss("write failed for '" + path + "'");
  return Status::Ok();
}

namespace {

Status ReadSitPoolStream(std::FILE* file, const std::string& name,
                         const Catalog& catalog, SitPool* out) {
  Reader r(file);
  if (r.U32() != kPoolMagic) {
    return Status::DataLoss(name + " is not a condsel SIT pool file");
  }
  if (r.U32() != kVersion) {
    return Status::DataLoss("unsupported pool version in " + name);
  }
  SitPool pool;
  const uint32_t num_sits = r.U32();
  if (!r.ok() || num_sits > (1u << 20)) {
    return Status::DataLoss("corrupt SIT count");
  }
  for (uint32_t i = 0; i < num_sits; ++i) {
    Sit sit;
    sit.attr = ColumnRef{static_cast<TableId>(r.U32()),
                         static_cast<ColumnId>(r.U32())};
    if (!catalog.HasColumn(sit.attr)) {
      return Status::DataLoss("SIT attribute does not exist in the catalog");
    }
    const uint32_t multidim = r.U32();
    if (multidim == 1) {
      sit.attr2 = ColumnRef{static_cast<TableId>(r.U32()),
                            static_cast<ColumnId>(r.U32())};
      if (!catalog.HasColumn(sit.attr2)) {
        return Status::DataLoss(
            "SIT second attribute does not exist in the catalog");
      }
    } else if (multidim != 0) {
      return Status::DataLoss("corrupt SIT header");
    }
    const uint32_t num_preds = r.U32();
    if (!r.ok() || num_preds > 64) {
      return Status::DataLoss("corrupt SIT expression");
    }
    for (uint32_t p = 0; p < num_preds; ++p) {
      Predicate pred = Predicate::Filter(ColumnRef{0, 0}, 0, 0);
      if (!ReadPredicate(r, catalog, &pred)) {
        return Status::DataLoss("corrupt SIT expression predicate");
      }
      sit.expression.push_back(pred);
    }
    sit.diff = r.F64();
    if (multidim == 1) {
      if (!ReadHistogram2d(r, &sit.histogram2d)) {
        return Status::DataLoss("corrupt 2-d histogram");
      }
    } else {
      if (!ReadHistogram(r, &sit.histogram)) {
        return Status::DataLoss("corrupt histogram");
      }
    }
    // Negated form rejects NaN diffs too.
    if (!r.ok() || !(sit.diff >= 0.0 && sit.diff <= 1.0)) {
      return Status::DataLoss("corrupt SIT payload");
    }
    pool.Add(std::move(sit));
  }
  *out = std::move(pool);
  return Status::Ok();
}

}  // namespace

Status WritePartStats(const PartStatsSet& stats, const std::string& path) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::DataLoss("cannot open '" + path + "' for writing");
  Writer w(f.get());
  w.U32(kPartStatsMagic);
  w.U32(kPartStatsVersion);
  w.U32(static_cast<uint32_t>(stats.specs().size()));
  for (const SitSpec& spec : stats.specs()) {
    w.U32(static_cast<uint32_t>(spec.attr.table));
    w.U32(static_cast<uint32_t>(spec.attr.column));
    w.U32(static_cast<uint32_t>(spec.expression.size()));
    for (const Predicate& p : spec.expression) WritePredicate(w, p);
  }
  w.U32(static_cast<uint32_t>(stats.entries().size()));
  for (const auto& [key, entry] : stats.entries()) {
    w.U32(static_cast<uint32_t>(entry.table));
    w.U32(static_cast<uint32_t>(entry.part));
    w.U64(entry.generation);
    w.F64(entry.rows);
    w.U32(static_cast<uint32_t>(entry.pieces.size()));
    for (size_t i = 0; i < entry.pieces.size(); ++i) {
      WriteHistogram(w, entry.pieces[i]);
      w.F64(entry.diffs[i]);
    }
  }
  if (!w.ok()) return Status::DataLoss("write failed for '" + path + "'");
  return Status::Ok();
}

namespace {

Status ReadPartStatsStream(std::FILE* file, const std::string& name,
                           const Catalog& catalog, PartStatsSet* out) {
  Reader r(file);
  if (r.U32() != kPartStatsMagic) {
    return Status::DataLoss(name + " is not a condsel part-stats file");
  }
  if (r.U32() != kPartStatsVersion) {
    return Status::DataLoss("unsupported part-stats version in " + name);
  }
  PartStatsSet stats;
  const uint32_t num_specs = r.U32();
  if (!r.ok() || num_specs > (1u << 20)) {
    return Status::DataLoss("corrupt spec count");
  }
  std::vector<SitSpec> specs;
  specs.reserve(num_specs);
  for (uint32_t i = 0; i < num_specs; ++i) {
    SitSpec spec;
    spec.attr = ColumnRef{static_cast<TableId>(r.U32()),
                          static_cast<ColumnId>(r.U32())};
    if (!r.ok() || !catalog.HasColumn(spec.attr)) {
      return Status::DataLoss("spec attribute does not exist in the catalog");
    }
    const uint32_t num_preds = r.U32();
    if (!r.ok() || num_preds > 64) {
      return Status::DataLoss("corrupt spec expression");
    }
    for (uint32_t p = 0; p < num_preds; ++p) {
      Predicate pred = Predicate::Filter(ColumnRef{0, 0}, 0, 0);
      if (!ReadPredicate(r, catalog, &pred)) {
        return Status::DataLoss("corrupt spec expression predicate");
      }
      spec.expression.push_back(pred);
    }
    specs.push_back(std::move(spec));
  }
  stats.SetSpecs(std::move(specs));
  const uint32_t num_entries = r.U32();
  if (!r.ok() || num_entries > (1u << 20)) {
    return Status::DataLoss("corrupt entry count");
  }
  for (uint32_t i = 0; i < num_entries; ++i) {
    PartStatsEntry entry;
    entry.table = static_cast<TableId>(r.U32());
    entry.part = static_cast<PartId>(r.U32());
    entry.generation = r.U64();
    entry.rows = r.F64();
    if (!r.ok() || entry.table < 0 || entry.table >= catalog.num_tables()) {
      return Status::DataLoss("part-stats entry references an unknown table");
    }
    const Table& table = catalog.table(entry.table);
    const int pi = table.part_index(entry.part);
    if (pi < 0) {
      return Status::DataLoss("part-stats entry references an unknown part");
    }
    // A stamp from before (or after) the live part's generation means the
    // pieces describe rows this part no longer holds: stale statistics
    // must be rebuilt, not loaded.
    if (entry.generation != table.part(static_cast<size_t>(pi)).generation()) {
      return Status::DataLoss("stale part-stats entry (generation mismatch)");
    }
    // Negated form rejects a NaN row count.
    if (!(entry.rows >= 0.0)) {
      return Status::DataLoss("corrupt part-stats row count");
    }
    const uint32_t num_pieces = r.U32();
    const size_t owned = stats.SpecsOwnedBy(entry.table).size();
    if (!r.ok() || num_pieces != owned) {
      return Status::DataLoss("part-stats pieces disagree with the spec list");
    }
    for (uint32_t p = 0; p < num_pieces; ++p) {
      Histogram piece;
      // ReadHistogram validates bucket shape before the Histogram
      // constructor runs, so NaN frequencies fail softly here.
      if (!ReadHistogram(r, &piece)) {
        return Status::DataLoss("corrupt part-stats piece");
      }
      // The constructor does not check the cardinality; the merge weights
      // divide by it, so reject NaN/negative values here.
      if (!(piece.source_cardinality() >= 0.0)) {
        return Status::DataLoss("corrupt part-stats piece cardinality");
      }
      const double diff = r.F64();
      if (!r.ok() || !(diff >= 0.0 && diff <= 1.0)) {
        return Status::DataLoss("corrupt part-stats diff");
      }
      entry.pieces.push_back(std::move(piece));
      entry.diffs.push_back(diff);
    }
    if (stats.FindEntry(entry.table, entry.part) != nullptr) {
      return Status::DataLoss("duplicate part-stats entry");
    }
    stats.PutEntry(std::move(entry));
  }
  *out = std::move(stats);
  return Status::Ok();
}

}  // namespace

Status ReadPartStats(const std::string& path, const Catalog& catalog,
                     PartStatsSet* out) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::DataLoss("cannot open '" + path + "'");
  return ReadPartStatsStream(f.get(), "'" + path + "'", catalog, out);
}

Status ReadPartStatsFromBuffer(const void* data, size_t size,
                               const Catalog& catalog, PartStatsSet* out) {
  if (data == nullptr || size == 0) {
    return Status::DataLoss("empty part-stats buffer");
  }
  File f(fmemopen(const_cast<void*>(data), size, "rb"));
  if (!f) return Status::DataLoss("cannot map part-stats buffer");
  return ReadPartStatsStream(f.get(), "buffer", catalog, out);
}

Status ReadSitPool(const std::string& path, const Catalog& catalog,
                   SitPool* out) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::DataLoss("cannot open '" + path + "'");
  return ReadSitPoolStream(f.get(), "'" + path + "'", catalog, out);
}

Status ReadSitPoolFromBuffer(const void* data, size_t size,
                             const Catalog& catalog, SitPool* out) {
  if (data == nullptr || size == 0) {
    return Status::DataLoss("empty SIT pool buffer");
  }
  File f(fmemopen(const_cast<void*>(data), size, "rb"));
  if (!f) return Status::DataLoss("cannot map SIT pool buffer");
  return ReadSitPoolStream(f.get(), "buffer", catalog, out);
}

}  // namespace condsel
