// Tests for catalog / SIT-pool serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "condsel/exec/evaluator.h"
#include "condsel/io/serialize.h"
#include "condsel/sit/sit_builder.h"
#include "test_util.h"

namespace condsel {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class SerializeTest : public ::testing::Test {
 protected:
  SerializeTest()
      : catalog_(test::MakeTinyCatalog()),
        eval_(&catalog_, &cache_),
        builder_(&eval_, {HistogramType::kMaxDiff, 64}) {
    catalog_.AddForeignKey({0, 1, 1, 0});
  }

  Catalog catalog_;
  CardinalityCache cache_;
  Evaluator eval_;
  SitBuilder builder_;
};

TEST_F(SerializeTest, CatalogRoundTrip) {
  const std::string path = TempPath("catalog.bin");
  ASSERT_TRUE(WriteCatalog(catalog_, path).ok());

  Catalog loaded;
  const Status r = ReadCatalog(path, &loaded);
  ASSERT_TRUE(r.ok()) << r.message();
  ASSERT_EQ(loaded.num_tables(), catalog_.num_tables());
  for (TableId t = 0; t < catalog_.num_tables(); ++t) {
    const Table& a = catalog_.table(t);
    const Table& b = loaded.table(t);
    EXPECT_EQ(a.schema().name, b.schema().name);
    ASSERT_EQ(a.num_rows(), b.num_rows());
    ASSERT_EQ(a.num_columns(), b.num_columns());
    for (ColumnId c = 0; c < a.num_columns(); ++c) {
      EXPECT_EQ(a.schema().columns[static_cast<size_t>(c)].is_key,
                b.schema().columns[static_cast<size_t>(c)].is_key);
      EXPECT_EQ(a.MaterializeColumn(c).values(),
                b.MaterializeColumn(c).values());
    }
  }
  ASSERT_EQ(loaded.foreign_keys().size(), 1u);
  EXPECT_EQ(loaded.foreign_keys()[0].pk_table, 1);
}

TEST_F(SerializeTest, LoadedCatalogEvaluatesIdentically) {
  const std::string path = TempPath("catalog2.bin");
  ASSERT_TRUE(WriteCatalog(catalog_, path).ok());
  Catalog loaded;
  ASSERT_TRUE(ReadCatalog(path, &loaded).ok());

  const Query q({Predicate::Join({0, 1}, {1, 0}),
                 Predicate::Filter({0, 0}, 2, 7)});
  CardinalityCache cache2;
  Evaluator eval2(&loaded, &cache2);
  EXPECT_DOUBLE_EQ(eval2.Cardinality(q, q.all_predicates()),
                   eval_.Cardinality(q, q.all_predicates()));
}

TEST_F(SerializeTest, SitPoolRoundTrip) {
  SitPool pool;
  pool.Add(builder_.Build({0, 0}, {}));
  pool.Add(builder_.Build({0, 0}, {Predicate::Join({0, 1}, {1, 0})}));
  pool.Add(builder_.Build2d({0, 0}, {0, 1}, {}));

  const std::string path = TempPath("pool.bin");
  ASSERT_TRUE(WriteSitPool(pool, path).ok());

  SitPool loaded;
  const Status r = ReadSitPool(path, catalog_, &loaded);
  ASSERT_TRUE(r.ok()) << r.message();
  ASSERT_EQ(loaded.size(), pool.size());
  for (SitId i = 0; i < pool.size(); ++i) {
    const Sit& a = pool.sit(i);
    const Sit& b = loaded.sit(i);
    EXPECT_EQ(a.attr, b.attr);
    EXPECT_EQ(a.attr2, b.attr2);
    EXPECT_EQ(a.expression, b.expression);
    EXPECT_DOUBLE_EQ(a.diff, b.diff);
    if (a.is_multidim()) {
      EXPECT_EQ(a.histogram2d.num_buckets(), b.histogram2d.num_buckets());
      EXPECT_NEAR(a.histogram2d.RangeSelectivity(1, 5, 10, 30),
                  b.histogram2d.RangeSelectivity(1, 5, 10, 30), 1e-12);
    } else {
      EXPECT_EQ(a.histogram.num_buckets(), b.histogram.num_buckets());
      EXPECT_NEAR(a.histogram.RangeSelectivity(1, 5),
                  b.histogram.RangeSelectivity(1, 5), 1e-12);
    }
  }
}

TEST_F(SerializeTest, WriteSitPoolRejectsPartitionedSits) {
  // R in two sealed parts: the merged pool's R-owned SITs carry one piece
  // per part, which the pool format has no field for. Writing must fail
  // rather than persist only the merged summary, which would read back as
  // an unpartitioned SIT.
  Catalog catalog = test::MakeTinyCatalog();
  Table& table = catalog.mutable_table(0);
  table.SealTail();
  table.AppendRow({11, 60});
  table.AppendRow({12, 10});
  const std::vector<Query> workload = {Query(
      {Predicate::Join({0, 1}, {1, 0}), Predicate::Filter({0, 0}, 1, 5)})};
  PartStatsMaintainer maintainer(&catalog, workload, 1,
                                 {HistogramType::kMaxDiff, 64});
  ASSERT_TRUE(maintainer.BuildAll().ok());
  ASSERT_EQ(catalog.table(0).num_parts(), 2u);
  StatusOr<std::shared_ptr<const SitPool>> merged = maintainer.MergedPool();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const std::vector<Sit>& sits = merged.value()->sits();
  ASSERT_TRUE(std::any_of(sits.begin(), sits.end(),
                          [](const Sit& s) { return s.is_partitioned(); }));

  const Status r =
      WriteSitPool(*merged.value(), TempPath("partitioned_pool.bin"));
  ASSERT_EQ(r.code(), StatusCode::kDataLoss);
  EXPECT_NE(r.message().find("WritePartStats"), std::string::npos)
      << r.message();
}

TEST_F(SerializeTest, RejectsWrongMagic) {
  const std::string path = TempPath("garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a condsel file at all", f);
  std::fclose(f);

  Catalog c;
  EXPECT_EQ(ReadCatalog(path, &c).code(), StatusCode::kDataLoss);
  SitPool p;
  EXPECT_EQ(ReadSitPool(path, catalog_, &p).code(), StatusCode::kDataLoss);
}

TEST_F(SerializeTest, RejectsCatalogAsPool) {
  const std::string path = TempPath("catalog3.bin");
  ASSERT_TRUE(WriteCatalog(catalog_, path).ok());
  SitPool p;
  const Status r = ReadSitPool(path, catalog_, &p);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.message().find("not a condsel SIT pool"), std::string::npos);
}

TEST_F(SerializeTest, RejectsTruncatedFile) {
  SitPool pool;
  pool.Add(builder_.Build({0, 0}, {}));
  const std::string path = TempPath("pool_trunc.bin");
  ASSERT_TRUE(WriteSitPool(pool, path).ok());
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);

  SitPool p;
  EXPECT_EQ(ReadSitPool(path, catalog_, &p).code(), StatusCode::kDataLoss);
}

TEST_F(SerializeTest, RejectsPoolAgainstWrongCatalog) {
  // A SIT over table 2 cannot load into a 1-table catalog.
  SitPool pool;
  pool.Add(builder_.Build({2, 1}, {}));
  const std::string path = TempPath("pool_wrongcat.bin");
  ASSERT_TRUE(WriteSitPool(pool, path).ok());

  Catalog tiny;
  tiny.AddTable(test::MakeTable("only", {"c"}, {{1}}));
  SitPool p;
  const Status r = ReadSitPool(path, tiny, &p);
  EXPECT_EQ(r.code(), StatusCode::kDataLoss);
  EXPECT_NE(r.message().find("does not exist"), std::string::npos);
}

TEST_F(SerializeTest, MissingFileFailsGracefully) {
  Catalog c;
  const Status r = ReadCatalog(TempPath("does_not_exist.bin"), &c);
  EXPECT_EQ(r.code(), StatusCode::kDataLoss);
}

namespace {

std::vector<unsigned char> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<unsigned char> bytes(static_cast<size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path,
              const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {  // fwrite(nullptr, ...) is UB even for size 0
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

}  // namespace

TEST_F(SerializeTest, TruncationAtEveryOffsetFailsCleanly) {
  // Cutting the file at any byte must yield a clean Status failure —
  // never an abort, a crash, or a silently short catalog/pool.
  const std::string cat_path = TempPath("cat_full.bin");
  ASSERT_TRUE(WriteCatalog(catalog_, cat_path).ok());
  const std::vector<unsigned char> cat_bytes = ReadAll(cat_path);

  SitPool pool;
  pool.Add(builder_.Build({0, 0}, {}));
  pool.Add(builder_.Build2d({0, 0}, {0, 1}, {}));
  const std::string pool_path = TempPath("pool_full.bin");
  ASSERT_TRUE(WriteSitPool(pool, pool_path).ok());
  const std::vector<unsigned char> pool_bytes = ReadAll(pool_path);

  const std::string cut = TempPath("cut.bin");
  for (size_t n = 0; n < cat_bytes.size(); ++n) {
    WriteAll(cut, {cat_bytes.begin(), cat_bytes.begin() + n});
    Catalog c;
    EXPECT_FALSE(ReadCatalog(cut, &c).ok()) << "truncated at " << n;
  }
  for (size_t n = 0; n < pool_bytes.size(); ++n) {
    WriteAll(cut, {pool_bytes.begin(), pool_bytes.begin() + n});
    SitPool p;
    EXPECT_FALSE(ReadSitPool(cut, catalog_, &p).ok()) << "truncated at " << n;
  }
}

TEST_F(SerializeTest, FlippedBytesNeverCrash) {
  // Flip every byte of a valid pool file in turn (0xFF xor). Loads may
  // legitimately succeed when the byte is a don't-care (e.g. a histogram
  // payload double), but must never abort or hand back garbage sizes.
  SitPool pool;
  pool.Add(builder_.Build({0, 0}, {}));
  pool.Add(builder_.Build({0, 0}, {Predicate::Join({0, 1}, {1, 0})}));
  const std::string path = TempPath("pool_flip.bin");
  ASSERT_TRUE(WriteSitPool(pool, path).ok());
  const std::vector<unsigned char> bytes = ReadAll(path);

  const std::string flipped = TempPath("flipped.bin");
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<unsigned char> mutated = bytes;
    mutated[i] ^= 0xFF;
    WriteAll(flipped, mutated);
    SitPool p;
    const Status r = ReadSitPool(flipped, catalog_, &p);
    if (r.ok()) {
      EXPECT_LE(p.size(), pool.size() + 1) << "byte " << i;
    } else {
      EXPECT_FALSE(r.message().empty()) << "byte " << i;
    }
  }
}

TEST_F(SerializeTest, FlippedCatalogBytesNeverCrash) {
  // Same byte-flip sweep over a catalog file: notably exercises the
  // foreign-key table-id validation (formerly a CHECK-abort in
  // Catalog::AddForeignKey on out-of-range ids).
  const std::string path = TempPath("cat_flip.bin");
  ASSERT_TRUE(WriteCatalog(catalog_, path).ok());
  const std::vector<unsigned char> bytes = ReadAll(path);
  const std::string flipped = TempPath("cat_flipped.bin");
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<unsigned char> mutated = bytes;
    mutated[i] ^= 0xFF;
    WriteAll(flipped, mutated);
    Catalog c;
    const Status r = ReadCatalog(flipped, &c);
    if (!r.ok()) {
      EXPECT_FALSE(r.message().empty()) << "byte " << i;
    }
  }
}

TEST_F(SerializeTest, RejectsFlippedVersion) {
  const std::string path = TempPath("cat_ver.bin");
  ASSERT_TRUE(WriteCatalog(catalog_, path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  bytes[4] ^= 0xFF;  // version lives right after the 4-byte magic
  WriteAll(path, bytes);
  Catalog c;
  const Status r = ReadCatalog(path, &c);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("version"), std::string::npos);
}

TEST_F(SerializeTest, RejectsOutOfRangeCounts) {
  // Patch the table count (offset 8) to a huge value: the reader must
  // reject it against the actual file size instead of looping or
  // allocating.
  const std::string path = TempPath("cat_counts.bin");
  ASSERT_TRUE(WriteCatalog(catalog_, path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  std::vector<unsigned char> patched = bytes;
  patched[8] = 0xFF;
  patched[9] = 0xFF;
  patched[10] = 0xFF;
  patched[11] = 0x7F;
  WriteAll(path, patched);
  Catalog c;
  EXPECT_FALSE(ReadCatalog(path, &c).ok());

  // Patch the first table's first column-vector length similarly: the
  // element count must be validated against the remaining bytes before
  // any allocation happens (a corrupt 2^32 count used to be accepted).
  SitPool pool;
  pool.Add(builder_.Build({0, 0}, {}));
  const std::string pool_path = TempPath("pool_counts.bin");
  ASSERT_TRUE(WriteSitPool(pool, pool_path).ok());
  std::vector<unsigned char> pb = ReadAll(pool_path);
  // Bucket count is a u64 at offset 12 (magic, version, sit count) + 12
  // (attr, multidim flag) + 4 (expression size) + 8 (diff) + 8 (card).
  const size_t bucket_count_at = 12 + 12 + 4 + 8 + 8;
  ASSERT_LT(bucket_count_at + 8, pb.size());
  for (int b = 0; b < 8; ++b) pb[bucket_count_at + b] = 0x22;
  WriteAll(pool_path, pb);
  SitPool p;
  const Status r = ReadSitPool(pool_path, catalog_, &p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("histogram"), std::string::npos);
}

TEST_F(SerializeTest, RejectsMismatchedColumnLengths) {
  // Shrink one column's length header so the columns of a table disagree:
  // formerly a CHECK-abort in Table::SealRows, now a clean failure. The
  // byte layout: the length u64 precedes each column vector; we rewrite
  // the file with a one-shorter first column instead of hand-patching
  // offsets.
  Catalog one;
  one.AddTable(test::MakeTable("U", {"p", "q"}, {{1, 2}, {3, 4}}));
  const std::string path = TempPath("cat_mismatch.bin");
  ASSERT_TRUE(WriteCatalog(one, path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  // Find the first column vector: it serializes as u64 length 2 followed
  // by int64 values 1, 3. Patch the length to 1 and delete 8 value bytes.
  const std::vector<unsigned char> needle = {2, 0, 0, 0, 0, 0, 0, 0,
                                             1, 0, 0, 0, 0, 0, 0, 0,
                                             3, 0, 0, 0, 0, 0, 0, 0};
  auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                        needle.end());
  ASSERT_NE(it, bytes.end());
  *it = 1;  // length 2 -> 1
  bytes.erase(it + 8, it + 16);  // drop the first value's bytes
  WriteAll(path, bytes);
  Catalog c;
  const Status r = ReadCatalog(path, &c);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("column lengths disagree"), std::string::npos);
}

TEST_F(SerializeTest, RejectsNaNHistogramPayload) {
  // A NaN bucket frequency passes naive `< 0` validation and then aborts
  // in the Histogram constructor; the reader must reject it instead.
  SitPool pool;
  pool.Add(builder_.Build({0, 0}, {}));
  const std::string path = TempPath("pool_nan.bin");
  ASSERT_TRUE(WriteSitPool(pool, path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  // First bucket layout: lo i64, hi i64, frequency f64, distinct f64,
  // starting right after the u64 bucket count (see RejectsOutOfRangeCounts
  // for the offset arithmetic).
  const size_t freq_at = (12 + 12 + 4 + 8 + 8) + 8 + 16;
  ASSERT_LT(freq_at + 8, bytes.size());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&bytes[freq_at], &nan, sizeof(nan));
  WriteAll(path, bytes);
  SitPool p;
  const Status r = ReadSitPool(path, catalog_, &p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("histogram"), std::string::npos);
}

class PartStatsSerializeTest : public SerializeTest {
 protected:
  PartStatsSerializeTest()
      : workload_({Query({Predicate::Join({0, 1}, {1, 0}),
                          Predicate::Filter({0, 0}, 1, 5)})}),
        maintainer_(&catalog_, workload_, 1, {HistogramType::kMaxDiff, 64}) {
    EXPECT_TRUE(maintainer_.BuildAll().ok());
  }

  // Wire layout of the image this fixture writes (see WritePartStats):
  // magic + version + spec count (12), then 4 specs — three base specs
  // (12 bytes each) and one with a single join predicate (12 + 20) — then
  // the entry count (4) and the entries in (table, part) order. The first
  // entry is R's: header 4 + 4 + 8, rows f64, piece count u32, then the
  // first piece (base R.a) starting with its source-cardinality f64.
  static constexpr size_t kFirstEntryRowsAt = 12 + (3 * 12 + 32) + 4 + 16;
  static constexpr size_t kFirstPieceCountAt = kFirstEntryRowsAt + 8;
  static constexpr size_t kFirstPieceCardinalityAt = kFirstPieceCountAt + 4;

  std::vector<Query> workload_;
  PartStatsMaintainer maintainer_;
};

TEST_F(PartStatsSerializeTest, RoundTrip) {
  const std::string path = TempPath("part_stats.bin");
  ASSERT_TRUE(WritePartStats(maintainer_.stats(), path).ok());
  PartStatsSet loaded;
  const Status r = ReadPartStats(path, catalog_, &loaded);
  ASSERT_TRUE(r.ok()) << r.message();

  EXPECT_EQ(loaded.specs(), maintainer_.stats().specs());
  ASSERT_EQ(loaded.entries().size(), maintainer_.stats().entries().size());
  for (const auto& [key, want] : maintainer_.stats().entries()) {
    const PartStatsEntry* got = loaded.FindEntry(key.first, key.second);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->generation, want.generation);
    EXPECT_EQ(got->rows, want.rows);
    EXPECT_EQ(got->diffs, want.diffs);
    ASSERT_EQ(got->pieces.size(), want.pieces.size());
    for (size_t i = 0; i < want.pieces.size(); ++i) {
      EXPECT_EQ(got->pieces[i].source_cardinality(),
                want.pieces[i].source_cardinality());
      ASSERT_EQ(got->pieces[i].num_buckets(), want.pieces[i].num_buckets());
      for (size_t b = 0; b < want.pieces[i].num_buckets(); ++b) {
        EXPECT_EQ(got->pieces[i].buckets()[b].frequency,
                  want.pieces[i].buckets()[b].frequency);
      }
    }
  }
  // The loaded set is immediately servable.
  EXPECT_TRUE(loaded.Audit(catalog_).ok());
  EXPECT_TRUE(loaded.BuildMergedPool(catalog_, 64).ok());
}

TEST_F(PartStatsSerializeTest, TruncationAtEveryOffsetFailsCleanly) {
  const std::string path = TempPath("part_stats_full.bin");
  ASSERT_TRUE(WritePartStats(maintainer_.stats(), path).ok());
  const std::vector<unsigned char> bytes = ReadAll(path);
  const std::string cut = TempPath("part_stats_cut.bin");
  for (size_t n = 0; n < bytes.size(); ++n) {
    WriteAll(cut, {bytes.begin(), bytes.begin() + n});
    PartStatsSet s;
    const Status r = ReadPartStats(cut, catalog_, &s);
    EXPECT_FALSE(r.ok()) << "truncated at " << n;
    EXPECT_FALSE(r.message().empty()) << "truncated at " << n;
  }
}

TEST_F(PartStatsSerializeTest, RejectsNaNPieceCardinality) {
  // NaN survives the Histogram constructor's bucket checks (it only
  // CHECKs frequencies), so the reader must reject it by value — this is
  // the serialized twin of the kCorruptPartStats fault.
  const std::string path = TempPath("part_stats_nan.bin");
  ASSERT_TRUE(WritePartStats(maintainer_.stats(), path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  ASSERT_LT(kFirstPieceCardinalityAt + 8, bytes.size());
  // Guard the offset arithmetic: both fields should read 10.0 (R has 10
  // rows; the first piece is R.a's base histogram over those rows).
  double probe = 0.0;
  std::memcpy(&probe, &bytes[kFirstEntryRowsAt], sizeof(probe));
  ASSERT_EQ(probe, 10.0);
  std::memcpy(&probe, &bytes[kFirstPieceCardinalityAt], sizeof(probe));
  ASSERT_EQ(probe, 10.0);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&bytes[kFirstPieceCardinalityAt], &nan, sizeof(nan));
  WriteAll(path, bytes);
  PartStatsSet s;
  const Status r = ReadPartStats(path, catalog_, &s);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("cardinality"), std::string::npos) << r.message();

  // A NaN row count is rejected the same way.
  bytes = ReadAll(TempPath("part_stats_nan.bin"));
  std::memcpy(&bytes[kFirstEntryRowsAt], &nan, sizeof(nan));
  WriteAll(path, bytes);
  EXPECT_FALSE(ReadPartStats(path, catalog_, &s).ok());
}

TEST_F(PartStatsSerializeTest, RejectsMisalignedPieceVector) {
  const std::string path = TempPath("part_stats_misaligned.bin");
  ASSERT_TRUE(WritePartStats(maintainer_.stats(), path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  // R owns three specs; claim two so the vector no longer aligns with
  // SpecsOwnedBy.
  ASSERT_EQ(bytes[kFirstPieceCountAt], 3u);
  bytes[kFirstPieceCountAt] = 2;
  WriteAll(path, bytes);
  PartStatsSet s;
  const Status r = ReadPartStats(path, catalog_, &s);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("disagree"), std::string::npos) << r.message();
}

TEST_F(PartStatsSerializeTest, RejectsStaleGenerationAfterDelta) {
  // Statistics written before a data change must not load against the
  // mutated catalog: the rewritten part carries a newer generation than
  // the entry's stamp.
  const std::string path = TempPath("part_stats_stale.bin");
  ASSERT_TRUE(WritePartStats(maintainer_.stats(), path).ok());
  catalog_.mutable_table(0).DeleteRows({0});
  PartStatsSet s;
  const Status r = ReadPartStats(path, catalog_, &s);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("stale"), std::string::npos) << r.message();
}

TEST_F(PartStatsSerializeTest, FlippedBytesNeverCrash) {
  // Flip every byte in turn: loads may succeed when the byte is a
  // don't-care, but anything accepted must satisfy the same invariants
  // the fuzz harness enforces.
  const std::string path = TempPath("part_stats_flip_base.bin");
  ASSERT_TRUE(WritePartStats(maintainer_.stats(), path).ok());
  const std::vector<unsigned char> bytes = ReadAll(path);
  const std::string flipped = TempPath("part_stats_flipped.bin");
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<unsigned char> mutated = bytes;
    mutated[i] ^= 0xFF;
    WriteAll(flipped, mutated);
    PartStatsSet s;
    const Status r = ReadPartStats(flipped, catalog_, &s);
    if (!r.ok()) {
      EXPECT_FALSE(r.message().empty()) << "byte " << i;
      continue;
    }
    for (const auto& [key, entry] : s.entries()) {
      const Table& table = catalog_.table(entry.table);
      const int pi = table.part_index(entry.part);
      ASSERT_GE(pi, 0) << "byte " << i;
      EXPECT_EQ(entry.generation,
                table.part(static_cast<size_t>(pi)).generation())
          << "byte " << i;
      EXPECT_EQ(entry.pieces.size(), s.SpecsOwnedBy(entry.table).size())
          << "byte " << i;
    }
  }
}

}  // namespace
}  // namespace condsel
