// Regenerates the checked-in seed corpora under fuzz/corpus/.
//
//   condsel_make_corpus <repo>/fuzz/corpus
//
// Parser seeds are plain SQL against the fixture schema; serialize seeds
// are valid catalog/pool images (plus deliberately damaged variants) so
// mutation starts deep inside the readers instead of dying on the magic
// number; get_selectivity seeds are byte strings that decode (see
// fuzz_get_selectivity.cc) to representative query/budget/pool shapes.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "condsel/exec/cardinality_cache.h"
#include "condsel/exec/evaluator.h"
#include "condsel/io/serialize.h"
#include "condsel/sit/sit_builder.h"
#include "fuzz_util.h"

namespace {

bool WriteBytes(const std::string& path, const std::vector<uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      data.empty() || std::fwrite(data.data(), 1, data.size(), f) ==
                          data.size();
  std::fclose(f);
  return ok;
}

bool WriteText(const std::string& path, const std::string& text) {
  return WriteBytes(path,
                    std::vector<uint8_t>(text.begin(), text.end()));
}

std::vector<uint8_t> Slurp(const std::string& path) {
  std::vector<uint8_t> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s CORPUS_ROOT\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];

  // --- parser ---
  const std::string pdir = root + "/parser/";
  WriteText(pdir + "count_all.sql", "SELECT COUNT(*) FROM R");
  WriteText(pdir + "filter.sql",
            "SELECT COUNT(*) FROM R WHERE R.a = 42");
  WriteText(pdir + "range.sql",
            "SELECT COUNT(*) FROM R WHERE R.a BETWEEN 10 AND 60 AND "
            "R.b >= 3");
  WriteText(pdir + "join.sql",
            "SELECT COUNT(*) FROM R, S WHERE R.s_id = S.pk AND S.c < 7");
  WriteText(pdir + "three_way.sql",
            "select count(*) from R, S, T where R.s_id = S.pk and "
            "R.b = T.pk2 and T.d <= 4 and R.a > 20");
  WriteText(pdir + "bad_token.sql",
            "SELECT COUNT(*) FROM R WHERE R.a %% 3");
  WriteText(pdir + "unknown_column.sql",
            "SELECT COUNT(*) FROM R WHERE R.zz = 1");

  // --- serialize ---
  const condsel::Catalog catalog = condsel::fuzzing::MakeFuzzCatalog();
  const std::string sdir = root + "/serialize/";
  const std::string catalog_path = sdir + "catalog.bin";
  if (!condsel::WriteCatalog(catalog, catalog_path).ok()) {
    std::fprintf(stderr, "ERROR: cannot write %s\n", catalog_path.c_str());
    return 1;
  }
  {
    const condsel::SitPool pool = condsel::fuzzing::MakeFuzzPool(~0u);
    if (!condsel::WriteSitPool(pool, sdir + "pool.bin").ok()) {
      std::fprintf(stderr, "ERROR: cannot write pool.bin\n");
      return 1;
    }
  }
  {
    // Part-stats image for the same catalog: a maintainer-built set over a
    // small workload, so mutation starts from a valid spec/entry layout.
    condsel::Catalog maintained = condsel::fuzzing::MakeFuzzCatalog();
    const std::vector<condsel::Query> workload = {
        condsel::Query({condsel::Predicate::Join(condsel::ColumnRef{0, 2},
                                                 condsel::ColumnRef{1, 0}),
                        condsel::Predicate::Filter(condsel::ColumnRef{0, 0},
                                                   10, 60)})};
    condsel::PartStatsMaintainer maintainer(&maintained, workload,
                                            /*max_join_preds=*/1,
                                            condsel::SitBuildOptions{});
    if (!maintainer.BuildAll().ok() ||
        !condsel::WritePartStats(maintainer.stats(),
                                 sdir + "part_stats.bin").ok()) {
      std::fprintf(stderr, "ERROR: cannot write part_stats.bin\n");
      return 1;
    }
    std::vector<uint8_t> bytes = Slurp(sdir + "part_stats.bin");
    std::vector<uint8_t> truncated(
        bytes.begin(),
        bytes.begin() + static_cast<ptrdiff_t>(bytes.size() / 2));
    WriteBytes(sdir + "part_stats_truncated.bin", truncated);
  }
  {
    // Damaged variants: truncation and a flipped interior byte.
    std::vector<uint8_t> bytes = Slurp(catalog_path);
    std::vector<uint8_t> truncated(
        bytes.begin(),
        bytes.begin() + static_cast<ptrdiff_t>(bytes.size() / 3));
    WriteBytes(sdir + "catalog_truncated.bin", truncated);
    if (bytes.size() > 64) bytes[bytes.size() / 2] ^= 0xFF;
    WriteBytes(sdir + "catalog_bitflip.bin", bytes);
  }

  // --- get_selectivity (see the decoder in fuzz_get_selectivity.cc) ---
  const std::string gdir = root + "/get_selectivity/";
  // 2 predicates: join R-S + filter on R.a; full pool; no budget.
  WriteBytes(gdir + "join_filter.bin",
             {2, 0, 0, 1, 0, 30, 80, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 1, 0,
              0xFF, 0xFF, 0xFF, 0xFF});
  // 5 predicates, both joins, tight subproblem budget.
  WriteBytes(gdir + "budgeted.bin",
             {5, 0, 0, 0, 1, 1, 0, 10, 90, 1, 2, 2, 5, 2, 3, 9,
              0xFF, 0x00, 0xFF, 0x00, 3, 7, 1, 1, 0x0F, 0x00, 0x00, 0x00});
  // Single filter, empty extra pool, deadline pressure.
  WriteBytes(gdir + "deadline.bin",
             {1, 1, 2, 4, 11, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0});

  std::fprintf(stderr, "INFO: corpus regenerated under %s\n", root.c_str());
  return 0;
}
