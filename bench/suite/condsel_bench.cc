// condsel_bench — one seeded benchmark for the estimation core and the
// service in front of it.
//
//   condsel_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out RESULT.json] [--trace-out TRACE.json]
//                 [--git-sha SHA]
//   condsel_bench --smoke
//
// One process runs one workload: set-up from the seed, warm-up, then
// equal measurement windows with tracing off. With --trace 1 a separate
// traced pass follows (layers.h). The result file holds every metric with
// its unit, the run's provenance and the per-window detail; bench/suite/
// run.py turns it into the benchmark's one-line result. --smoke runs
// every workload on tiny inputs for a fraction of a second and checks the
// outputs and the metric set, without writing files.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

#ifndef CONDSEL_BENCH_BUILD_TYPE
#define CONDSEL_BENCH_BUILD_TYPE "unknown"
#endif

namespace condsel {
namespace bench_suite {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks names and units).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_rps", "requests/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"qerror_p50", "ratio"},
    {"qerror_p90", "ratio"},
    {"peak_rss_mib", "MiB"},
};

const MetricSpec kPerLayer[] = {
    {"selectivity.compute_us", "us"},
    {"selectivity.estimate_us", "us"},
    {"selectivity.estimate_calls", "count"},
    {"selectivity.score_ns", "ns"},
    {"selectivity.score_calls", "count"},
    {"selectivity.enumerate_us", "us"},
    {"selectivity.candidates", "count"},
    {"selectivity.decompose_us", "us"},
    {"selectivity.memo_find_ns", "ns"},
    {"selectivity.memo_insert_ns", "ns"},
    {"selectivity.memo_ops", "count"},
    {"selectivity.memo_hit_ratio", "ratio"},
    {"selectivity.merge_ns", "ns"},
    {"selectivity.bookkeeping_us", "us"},
    {"selectivity.dp_self_us", "us"},
    {"selectivity.shape_cache_hit_ratio", "ratio"},
    {"api.memo_hit_request_us", "us"},
    {"api.estimator_ctor_us", "us"},
    {"sit.bind_query_us", "us"},
    {"sit.build_ms", "ms"},
    {"service.submit_us", "us"},
    {"service.overhead_us", "us"},
    {"service.refresh_ms", "ms"},
    {"service.shed_fraction", "ratio"},
    {"service.retries", "count"},
    {"service.recorder_p50_ms", "ms"},
    {"service.recorder_p99_ms", "ms"},
    {"service.apply_delta_ms", "ms"},
    {"service.delta_lateness_ms", "ms"},
    {"histogram.merge_1p_us", "us"},
    {"histogram.merge_4p_us", "us"},
    {"histogram.merge_16p_us", "us"},
    {"histogram.range_selectivity_ns", "ns"},
    {"histogram.join_us", "us"},
    {"histogram.buckets_mean", "count"},
    {"part_stats.build_all_ms", "ms"},
    {"part_stats.merged_pool_ms", "ms"},
    {"part_stats.rebuilt_parts", "count"},
    {"part_stats.cross_pieces", "count"},
    {"exec.exact_count_ms", "ms"},
    {"ratio.estimate_over_exact", "ratio"},
    {"alloc.per_request", "count"},
    {"trace.clock_overhead_ns", "ns"},
    {"trace.coverage", "ratio"},
    {"trace.replay_mismatches", "count"},
};

struct Args {
  RunConfig run;
  std::string out;
  std::string trace_out;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->run.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->run.seconds = std::atof(value.c_str());
      if (!(args->run.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->run.trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return args->run.smoke || have_workload;
}

// Appends a problem for every metric of `specs` that is missing or not
// finite; end-to-end metrics must also be positive.
void CheckMetrics(const MetricSpec* begin, const MetricSpec* end,
                  const Metrics& metrics, bool positive,
                  std::vector<std::string>* problems) {
  for (const MetricSpec* spec = begin; spec != end; ++spec) {
    const auto it = metrics.find(spec->name);
    if (it == metrics.end()) {
      problems->push_back(std::string("missing metric ") + spec->name);
    } else if (!std::isfinite(it->second) || (positive && it->second <= 0.0)) {
      problems->push_back(std::string("bad value for ") + spec->name);
    }
  }
}

std::vector<std::string> Problems(const RunConfig& config,
                                  const RunResult& result) {
  std::vector<std::string> problems = result.errors;
  if (result.failed > 0) {
    problems.push_back(std::to_string(result.failed) + " failed operations");
  }
  if (result.attempted == 0) problems.push_back("no request was attempted");
  CheckMetrics(std::begin(kEndToEnd), std::end(kEndToEnd), result.end_to_end,
               /*positive=*/true, &problems);
  if (config.trace) {
    CheckMetrics(std::begin(kPerLayer), std::end(kPerLayer),
                 result.per_layer, /*positive=*/false, &problems);
    const auto mismatches = result.per_layer.find("trace.replay_mismatches");
    if (mismatches != result.per_layer.end() && mismatches->second != 0.0) {
      problems.push_back("the DP replay disagrees with GetSelectivity");
    }
  }
  return problems;
}

std::string MetricsJson(const RunConfig& config, const RunResult& result) {
  JsonObject metrics;
  auto add = [&](const MetricSpec* begin, const MetricSpec* end,
                 const Metrics& values) {
    for (const MetricSpec* spec = begin; spec != end; ++spec) {
      const auto it = values.find(spec->name);
      if (it == values.end()) continue;
      JsonObject m;
      m.Num("value", it->second).Str("unit", spec->unit);
      metrics.Raw(spec->name, m.Dump());
    }
  };
  add(std::begin(kEndToEnd), std::end(kEndToEnd), result.end_to_end);
  if (config.trace) {
    add(std::begin(kPerLayer), std::end(kPerLayer), result.per_layer);
  }
  return metrics.Dump();
}

void PrintMetrics(const MetricSpec* begin, const MetricSpec* end,
                  const Metrics& values) {
  for (const MetricSpec* spec = begin; spec != end; ++spec) {
    const auto it = values.find(spec->name);
    if (it == values.end()) continue;
    std::printf("  %-36s %14.6g %s\n", spec->name, it->second, spec->unit);
  }
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents << "\n";
  return static_cast<bool>(out);
}

int Smoke() {
  int bad = 0;
  for (const std::string& name : WorkloadNames()) {
    RunConfig config;
    config.workload = name;
    config.smoke = true;
    config.trace = true;
    const RunResult result = RunWorkload(config);
    const std::vector<std::string> problems = Problems(config, result);
    std::printf("smoke %-16s attempted=%llu failed=%llu %s\n", name.c_str(),
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                problems.empty() ? "ok" : "FAILED");
    for (const std::string& p : problems) std::printf("  %s\n", p.c_str());
    if (!problems.empty()) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench_suite
}  // namespace condsel

int main(int argc, char** argv) {
  namespace bs = condsel::bench_suite;
  bs::Args args;
  if (!bs::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: condsel_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out FILE] [--trace-out FILE] "
                 "[--git-sha SHA] | --smoke\n");
    return 2;
  }
  if (const char* missed = bs::AllocHookSelfTest()) {
    std::fprintf(stderr, "allocation hook missed %s\n", missed);
    return 1;
  }
  if (args.run.smoke) return bs::Smoke();

  const bs::Clock::time_point start = bs::Clock::now();
  const bs::RunResult result = bs::RunWorkload(args.run);
  const double wall = bs::Seconds(start, bs::Clock::now());
  const std::vector<std::string> problems = bs::Problems(args.run, result);
  const bool correct = problems.empty();

  std::printf("workload %s seed %llu: attempted %llu, failed %llu, %.1f s\n",
              args.run.workload.c_str(),
              static_cast<unsigned long long>(args.run.seed),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), wall);
  bs::PrintMetrics(std::begin(bs::kEndToEnd), std::end(bs::kEndToEnd),
                   result.end_to_end);
  if (args.run.trace) {
    bs::PrintMetrics(std::begin(bs::kPerLayer), std::end(bs::kPerLayer),
                     result.per_layer);
  }
  for (const std::string& p : problems) {
    std::printf("  problem: %s\n", p.c_str());
  }

  bs::JsonObject provenance;
  provenance.Int("hardware_cores", std::thread::hardware_concurrency())
      .Str("build_type", CONDSEL_BENCH_BUILD_TYPE)
      .Str("compiler", __VERSION__)
      .Str("git_sha", args.git_sha)
      .Int("seed", args.run.seed);
  std::string errors = "[";
  for (size_t i = 0; i < problems.size(); ++i) {
    errors += (i > 0 ? ", " : "") + bs::JsonString(problems[i]);
  }
  errors += "]";
  bs::JsonObject record;
  record.Str("workload", args.run.workload)
      .Int("seed", args.run.seed)
      .Num("seconds", args.run.seconds)
      .Int("trace", args.run.trace ? 1 : 0)
      .Num("wall_seconds", wall)
      .Raw("provenance", provenance.Dump())
      .Bool("correct", correct)
      .Int("attempted", result.attempted)
      .Int("failed", result.failed)
      .Raw("problems", errors)
      .Raw("metrics", bs::MetricsJson(args.run, result))
      .Raw("details", result.details_json.empty() ? "{}"
                                                   : result.details_json);
  if (!args.out.empty() && !bs::WriteFile(args.out, record.Dump())) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  if (args.run.trace && !args.trace_out.empty() &&
      !bs::WriteFile(args.trace_out, result.trace_json)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}
