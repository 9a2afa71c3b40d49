// Robustness check: the headline result shapes must be stable across the
// data scale (our substitution for the paper's full-size testbed runs at
// a reduced default scale; see DESIGN.md). Runs the Figure 7 core —
// noSit vs GVM vs GS-Diff at J0 and J2 — at three scales and reports the
// improvement ratios, which should stay in the same band.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace condsel;        // NOLINT: bench brevity
using namespace condsel::bench; // NOLINT: bench brevity

int main() {
  std::printf("scale sweep: error ratios vs noSit (4-way joins)\n\n");
  std::vector<std::string> header = {"scale",        "fact rows",
                                     "noSit err",    "GVM ratio",
                                     "GS-Diff ratio"};
  std::vector<std::vector<std::string>> rows;

  const std::vector<double> sweep = {0.005, 0.01, 0.03};
  for (const double scale : sweep) {
    SnowflakeOptions opt;
    opt.scale = scale;
    const Catalog catalog = BuildSnowflake(opt);
    CardinalityCache cache;
    Evaluator evaluator(&catalog, &cache);

    WorkloadOptions wopt;
    wopt.num_queries = 10;
    wopt.num_joins = 4;
    const std::vector<Query> workload =
        GenerateWorkload(catalog, &evaluator, wopt);
    SitBuilder builder(&evaluator, SitBuildOptions{});
    const SitPool pool = GenerateSitPool(workload, 2, builder);
    Runner runner(&catalog, &evaluator);

    const WorkloadRunResult no_sit_run =
        runner.Run(workload, pool, Technique::kNoSit);
    const WorkloadRunResult gvm_run =
        runner.Run(workload, pool, Technique::kGvm);
    const WorkloadRunResult gs_run =
        runner.Run(workload, pool, Technique::kGsDiff);
    const double no_sit = no_sit_run.avg_abs_error;
    const double gvm = gvm_run.avg_abs_error;
    const double gs = gs_run.avg_abs_error;
    char scale_s[16];
    std::snprintf(scale_s, sizeof(scale_s), "%.3f", scale);
    rows.push_back(
        {scale_s,
         std::to_string(
             catalog.table(catalog.FindTable("fact")).num_rows()),
         FormatDouble(no_sit, 1),
         FormatDouble(no_sit > 0 ? gvm / no_sit : 1.0, 3),
         FormatDouble(no_sit > 0 ? gs / no_sit : 1.0, 3)});
  }
  PrintTable(header, rows);
  std::printf(
      "\nExpected shape: absolute errors grow with scale while the\n"
      "improvement ratios hold or get *stronger* (skew effects compound\n"
      "with size) — the reduced default scale, if anything, understates\n"
      "the SIT benefit the paper reports at full scale.\n");
  return 0;
}
