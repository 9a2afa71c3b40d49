#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "condsel/api.h"
#include "condsel/catalog/part_stats.h"
#include "condsel/common/rng.h"
#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/exec/evaluator.h"
#include "condsel/harness/metrics.h"
#include "condsel/service/service.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {
namespace bench_suite {
namespace {

enum class Kind { kSubplanStream, kAdhocWide, kServePoint, kServeChurn };

struct Spec {
  const char* name;
  Kind kind;
  int joins;
  int filters;
  int pool_joins;  // SITs over expressions of up to this many joins
  int statements;
  // q-error sample: the sub-plans (or only the whole statement) of the
  // leading qerror_statements statements.
  int qerror_statements;
  bool qerror_subplans;
  int clients;  // closed-loop session threads
};

// Sizes are set so that a run's statement mix, and with it every
// end-to-end metric, changes little from one seed to the next: with 400
// statements the slowest 1% of requests is several statements, not one,
// and q-error quantiles rest on thousands of sub-plans. Whole 3-join
// statements are too few and too often near-empty for a steady p90, so
// the serving workloads score sub-plans; 7-join sub-plans are too costly
// to count exactly, so adhoc_wide scores whole statements.
const Spec kSpecs[] = {
    {"subplan_stream", Kind::kSubplanStream, 5, 3, 3, 400, 200, true, 1},
    {"adhoc_wide", Kind::kAdhocWide, 7, 5, 4, 400, 400, false, 1},
    {"serve_point", Kind::kServePoint, 3, 3, 2, 400, 400, true, 4},
    {"serve_churn", Kind::kServeChurn, 3, 3, 2, 400, 400, true, 3},
};

constexpr int kChurnParts = 8;
constexpr double kChurnPeriodSeconds = 0.5;
constexpr size_t kMaxErrors = 8;

// Run shape; the smoke run only checks that everything works.
struct Shape {
  int setup_reps;
  double warmup_seconds;
  int windows;
  int smoke_statements;  // 0: the spec's count
  size_t replay_statements;
  uint32_t traced_requests;
  int probe_reps;
};
constexpr Shape kFullShape{3, 2.0, 20, 0, 40, 4, 3};
constexpr Shape kSmokeShape{1, 0.1, 2, 4, 2, 1, 1};

SnowflakeOptions CatalogOptions() {
  SnowflakeOptions options;
  options.scale = 0.05;
  options.zipf_theta = 1.0;
  return options;
}

class ErrorLog {
 public:
  void Add(std::string message) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (errors_.size() < kMaxErrors) errors_.push_back(std::move(message));
  }
  std::vector<std::string> Take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(errors_);
  }

 private:
  std::mutex mu_;
  std::vector<std::string> errors_;
};

// Re-seals `table` into `parts` sealed parts of equal size.
void Reseal(Catalog* catalog, TableId table, int parts) {
  const Table& old = catalog->table(table);
  Table resealed(old.schema());
  const size_t rows = old.num_rows();
  const size_t per_part = (rows + static_cast<size_t>(parts) - 1) /
                          static_cast<size_t>(parts);
  std::vector<int64_t> row(static_cast<size_t>(old.num_columns()));
  for (size_t r = 0; r < rows; ++r) {
    for (ColumnId c = 0; c < old.num_columns(); ++c) {
      row[static_cast<size_t>(c)] = old.value(r, c);
    }
    resealed.AppendRow(row);
    if ((r + 1) % per_part == 0) resealed.SealTail();
  }
  resealed.SealTail();
  catalog->mutable_table(table) = std::move(resealed);
}

// The statistics and serving objects one set-up builds. Declaration
// order matters: the service borrows the maintainer, which borrows the
// catalog, so they are destroyed first.
struct Live {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<SitPool> pool;
  std::unique_ptr<PartStatsMaintainer> maintainer;
  std::shared_ptr<const SitPool> merged;  // maintainer's pool at set-up
  std::unique_ptr<EstimationService> service;

  const SitPool& stats() const { return merged ? *merged : *pool; }
};

struct SetupSample {
  double total_s = 0.0;
  double stats_ms = 0.0;    // GenerateSitPool or PartStatsMaintainer
  double publish_ms = 0.0;  // Refresh or EnableDeltaMaintenance
};

// One set-up: catalog generation, statistics build, publish. Statement
// generation and truth evaluation are not part of it.
Status BuildLive(const Spec& spec, const std::vector<Query>& statements,
                 Live* live, SetupSample* sample) {
  const Clock::time_point t0 = Clock::now();
  live->catalog = std::make_unique<Catalog>(BuildSnowflake(CatalogOptions()));
  const TableId fact = live->catalog->FindTable("fact");
  if (spec.kind == Kind::kServeChurn) {
    Reseal(live->catalog.get(), fact, kChurnParts);
  }
  const Clock::time_point t1 = Clock::now();
  if (spec.kind == Kind::kServeChurn) {
    live->maintainer = std::make_unique<PartStatsMaintainer>(
        live->catalog.get(), statements, spec.pool_joins, SitBuildOptions{});
    CONDSEL_RETURN_IF_ERROR(live->maintainer->BuildAll());
  } else {
    CardinalityCache cache;
    Evaluator evaluator(live->catalog.get(), &cache);
    const SitBuilder builder(&evaluator, SitBuildOptions{});
    live->pool = std::make_unique<SitPool>(
        GenerateSitPool(statements, spec.pool_joins, builder));
  }
  const Clock::time_point t2 = Clock::now();
  if (spec.kind == Kind::kServePoint) {
    live->service = std::make_unique<EstimationService>(ServeOptions());
    CONDSEL_RETURN_IF_ERROR(
        live->service->Refresh(*live->catalog, *live->pool).status());
  } else if (spec.kind == Kind::kServeChurn) {
    live->service = std::make_unique<EstimationService>(ServeOptions());
    CONDSEL_RETURN_IF_ERROR(
        live->service->EnableDeltaMaintenance(live->maintainer.get())
            .status());
  }
  const Clock::time_point t3 = Clock::now();
  if (live->maintainer != nullptr) {
    StatusOr<std::shared_ptr<const SitPool>> merged =
        live->maintainer->MergedPool();
    CONDSEL_RETURN_IF_ERROR(merged.status());
    live->merged = std::move(merged).value();
  }
  sample->total_s = Seconds(t0, t3);
  sample->stats_ms = Seconds(t1, t2) * 1e3;
  sample->publish_ms = Seconds(t2, t3) * 1e3;
  return Status::Ok();
}

bool SameCardinality(const StatusOr<double>& got, double expected) {
  return got.ok() && std::isfinite(got.value()) && got.value() >= 0.0 &&
         got.value() == expected;
}

bool ValidServed(const StatusOr<ServiceEstimate>& got) {
  return got.ok() && got.value().selectivity >= 0.0 &&
         got.value().selectivity <= 1.0 &&
         std::isfinite(got.value().cardinality) &&
         got.value().cardinality >= 0.0;
}

// Deletes every row of the oldest fact part and inserts as many copies of
// seed-chosen live rows, sealed into one new part: part count and table
// size stay constant however long the run.
DeltaBatch ChurnBatch(const Catalog& catalog, TableId fact, Rng* rng) {
  const Table& table = catalog.table(fact);
  DeltaBatch batch;
  batch.table = fact;
  const size_t oldest = table.part(0).num_rows();
  for (size_t r = 0; r < oldest; ++r) batch.delete_rows.push_back(r);
  for (size_t i = 0; i < oldest; ++i) {
    const size_t src = static_cast<size_t>(rng->NextBelow(table.num_rows()));
    std::vector<int64_t> row(static_cast<size_t>(table.num_columns()));
    for (ColumnId c = 0; c < table.num_columns(); ++c) {
      row[static_cast<size_t>(c)] = table.value(src, c);
    }
    batch.insert_rows.push_back(std::move(row));
  }
  return batch;
}

struct DeltaLog {
  std::vector<double> apply_ms;
  std::vector<double> lateness_ms;
  double rebuilt_parts = 0.0;
  double cross_pieces = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Open-loop writer: one batch every kChurnPeriodSeconds from the start of
// warm-up, whether or not the previous one has finished. Lateness is how
// far behind that schedule the writer started a batch.
void RunWriter(const WindowClock& clock, Live* live, uint64_t seed,
               DeltaLog* log, ErrorLog* errors) {
  Rng rng(seed);
  const TableId fact = live->catalog->FindTable("fact");
  for (int k = 0;; ++k) {
    const Clock::time_point due =
        clock.start() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                k * kChurnPeriodSeconds));
    if (due >= clock.end()) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point woke = Clock::now();
    // The writer is the catalog's only mutator; sessions read snapshots.
    const DeltaBatch batch = ChurnBatch(live->maintainer->catalog(), fact,
                                        &rng);
    const Clock::time_point t0 = Clock::now();
    StatusOr<DeltaReport> report = live->service->ApplyDelta(batch);
    const double apply_ms = Seconds(t0, Clock::now()) * 1e3;
    ++log->attempted;
    if (!report.ok()) {
      ++log->failed;
      errors->Add("ApplyDelta: " + report.status().ToString());
      continue;
    }
    log->apply_ms.push_back(apply_ms);
    log->lateness_ms.push_back(Seconds(due, woke) * 1e3);
    log->rebuilt_parts +=
        static_cast<double>(report.value().rebuilt_parts.size());
    log->cross_pieces +=
        static_cast<double>(report.value().cross_table_pieces_rebuilt);
  }
}

double QError(double truth, double estimate) {
  const double t = std::max(1.0, truth);
  const double e = std::max(1.0, estimate);
  return std::max(t / e, e / t);
}

// One process's run of one workload: Prepare, Load, and with --trace the
// TracedPass. Failures are counted in the result, never thrown.
class WorkloadRun {
 public:
  WorkloadRun(const Spec& spec, const RunConfig& config)
      : spec_(spec),
        config_(config),
        shape_(config.smoke ? kSmokeShape : kFullShape) {}

  RunResult Execute() {
    const Clock::time_point start = Clock::now();
    if (Prepare()) {
      prepare_s_ = Seconds(start, Clock::now());
      Load();
      if (config_.trace) TracedPass();
    } else {
      ++result_.failed;
    }
    result_.errors = errors_.Take();
    return std::move(result_);
  }

 private:
  bool Prepare();
  void Load();
  void TracedPass();
  // The statement of a client's i-th request.
  size_t StatementOf(int client, uint64_t i) const;
  // One request of the load, output checks included.
  bool Request(int client, uint64_t i);
  // Statement `s`'s request for the traced lap, adding the session's
  // shape-cache counters to `shapes`.
  bool LapRequest(size_t s, GsStats* shapes);

  const Spec& spec_;
  const RunConfig& config_;
  const Shape shape_;
  RunResult result_;
  ErrorLog errors_;
  std::vector<Query> statements_;
  std::vector<std::vector<PredSet>> requests_;  // per statement, in order
  std::vector<std::vector<double>> reference_;  // per request subset
  std::vector<double> setup_s_, stats_ms_, publish_ms_;
  std::unique_ptr<Live> live_;
  std::unique_ptr<Estimator> session_;  // subplan_stream's long-lived one
  std::vector<std::string> tenants_;    // one per client
  DeltaLog deltas_;
  ServiceStatsSnapshot served_;
  double prepare_s_ = 0.0;  // statements, set-ups, references, q-error
};

// Statements, the repeated set-up (the last build stays live), reference
// estimates and q-error. Statements and truth come from a catalog of their
// own, so no set-up is charged for them.
bool WorkloadRun::Prepare() {
  const Catalog truth_catalog = BuildSnowflake(CatalogOptions());
  CardinalityCache truth_cache;
  Evaluator truth(&truth_catalog, &truth_cache);
  WorkloadOptions wopt;
  wopt.num_queries =
      shape_.smoke_statements > 0 ? shape_.smoke_statements : spec_.statements;
  wopt.num_joins = spec_.joins;
  wopt.num_filters = spec_.filters;
  wopt.seed = config_.seed * 16 + static_cast<uint64_t>(&spec_ - kSpecs);
  statements_ = GenerateWorkload(truth_catalog, &truth, wopt);
  for (const Query& q : statements_) {
    requests_.push_back(spec_.kind == Kind::kSubplanStream
                            ? SubPlanFamily(q)
                            : std::vector<PredSet>{q.all_predicates()});
  }

  for (int rep = 0; rep < shape_.setup_reps; ++rep) {
    live_ = nullptr;
    live_ = std::make_unique<Live>();
    SetupSample sample;
    if (Status s = BuildLive(spec_, statements_, live_.get(), &sample);
        !s.ok()) {
      errors_.Add("set-up: " + s.ToString());
      return false;
    }
    setup_s_.push_back(sample.total_s);
    stats_ms_.push_back(sample.stats_ms);
    publish_ms_.push_back(sample.publish_ms);
  }

  // A fresh Estimator per statement on the live statistics.
  std::vector<double> qerrors;
  bool ok = true;
  for (size_t s = 0; s < statements_.size(); ++s) {
    const Query& q = statements_[s];
    Estimator estimator(live_->catalog.get(), &live_->stats());
    auto estimate = [&](PredSet p) {
      StatusOr<double> card = estimator.TryEstimateCardinality(q, p);
      if (card.ok()) return card.value();
      errors_.Add("reference: " + card.status().ToString());
      ok = false;
      return 0.0;
    };
    reference_.emplace_back();
    for (PredSet p : requests_[s]) reference_.back().push_back(estimate(p));
    if (s >= static_cast<size_t>(spec_.qerror_statements)) continue;
    for (PredSet p : spec_.qerror_subplans
                         ? SubPlanFamily(q)
                         : std::vector<PredSet>{q.all_predicates()}) {
      qerrors.push_back(QError(truth.Cardinality(q, p), estimate(p)));
    }
  }
  if (!ok) return false;
  result_.end_to_end["qerror_p50"] = Quantile(qerrors, 0.50);
  result_.end_to_end["qerror_p90"] = Quantile(qerrors, 0.90);
  result_.end_to_end["setup_s"] = Median(setup_s_);

  if (live_->service != nullptr &&
      live_->service->Prewarm("tenant-0", statements_) != statements_.size()) {
    errors_.Add("Prewarm served fewer statements than asked");
  }
  if (spec_.kind == Kind::kSubplanStream) {
    session_ = std::make_unique<Estimator>(live_->catalog.get(),
                                           &live_->stats());
  }
  for (int c = 0; c < spec_.clients; ++c) {
    tenants_.push_back("tenant-" + std::to_string(c));
  }
  return true;
}

size_t WorkloadRun::StatementOf(int client, uint64_t i) const {
  // Each client starts at its own offset into the statements.
  const size_t n = statements_.size();
  return (static_cast<size_t>(client) * n /
              static_cast<size_t>(spec_.clients) +
          i) % n;
}

bool WorkloadRun::Request(int client, uint64_t i) {
  const size_t s = StatementOf(client, i);
  const Query& q = statements_[s];
  switch (spec_.kind) {
    case Kind::kSubplanStream: {
      bool ok = true;
      for (size_t k = 0; k < requests_[s].size(); ++k) {
        ok &= SameCardinality(session_->TryEstimateCardinality(
                                  q, requests_[s][k]),
                              reference_[s][k]);
      }
      session_->ClearCache();
      if (!ok) errors_.Add("subplan_stream: estimate differs from reference");
      return ok;
    }
    case Kind::kAdhocWide: {
      Estimator estimator(live_->catalog.get(), &live_->stats());
      const bool ok = SameCardinality(estimator.TryEstimateCardinality(q),
                                      reference_[s][0]);
      if (!ok) errors_.Add("adhoc_wide: estimate differs from reference");
      return ok;
    }
    case Kind::kServePoint:
    case Kind::kServeChurn: {
      const StatusOr<ServiceEstimate> got =
          live_->service->Submit(tenants_[static_cast<size_t>(client)], q);
      // Under churn the statistics move, so only validity is checkable.
      const bool ok = ValidServed(got) &&
                      (spec_.kind == Kind::kServeChurn ||
                       got.value().cardinality == reference_[s][0]);
      if (!ok) {
        errors_.Add(std::string(spec_.name) + ": " +
                    (got.ok() ? "estimate differs from reference"
                              : got.status().ToString()));
      }
      return ok;
    }
  }
  return false;
}

void WorkloadRun::Load() {
  LoadPlan plan;
  plan.warmup_seconds = shape_.warmup_seconds;
  plan.windows = shape_.windows;
  plan.window_seconds =
      (config_.smoke ? 0.15 * shape_.windows : config_.seconds) /
      shape_.windows;
  const WindowClock clock(plan, Clock::now());
  std::thread writer;
  if (spec_.kind == Kind::kServeChurn) {
    writer = std::thread([&] {
      RunWriter(clock, live_.get(), config_.seed * 16 + 9, &deltas_,
                &errors_);
    });
  }
  const std::vector<std::unique_ptr<ClientLog>> logs = RunClosedLoop(
      spec_.clients, clock,
      [this](int client, uint64_t i) { return Request(client, i); });
  if (writer.joinable()) writer.join();
  const double peak_rss = PeakRssMiB();

  // Latency quantiles are taken over statements, each at the median of
  // its own requests: the host this runs on slows down for seconds at a
  // time, and a per-statement median keeps those episodes out of the tail
  // while the statements' own cost spread stays in it.
  std::vector<double> rates(static_cast<size_t>(plan.windows), 0.0);
  std::vector<double> latencies;
  std::vector<std::vector<double>> by_statement(statements_.size());
  for (size_t c = 0; c < logs.size(); ++c) {
    const ClientLog& log = *logs[c];
    for (size_t w = 0; w < rates.size(); ++w) {
      rates[w] += static_cast<double>(log.completions[w]) / plan.window_seconds;
    }
    for (size_t k = 0; k < log.latencies_ms.size(); ++k) {
      by_statement[StatementOf(static_cast<int>(c), log.iterations[k])]
          .push_back(log.latencies_ms[k]);
    }
    latencies.insert(latencies.end(), log.latencies_ms.begin(),
                     log.latencies_ms.end());
    result_.attempted += log.attempted;
    result_.failed += log.failed;
  }
  std::vector<double> statement_ms;
  for (const std::vector<double>& samples : by_statement) {
    if (!samples.empty()) statement_ms.push_back(Median(samples));
  }
  result_.attempted += deltas_.attempted;
  result_.failed += deltas_.failed;
  const Spread throughput = Summarize(rates);

  Metrics& e2e = result_.end_to_end;
  e2e["throughput_rps"] = throughput.median;
  e2e["latency_p50_ms"] = Quantile(statement_ms, 0.50);
  e2e["latency_p99_ms"] = Quantile(statement_ms, 0.99);
  e2e["peak_rss_mib"] = peak_rss;

  if (live_->service != nullptr) served_ = live_->service->Stats();
  JsonObject details;
  details.Int("statements", statements_.size())
      .Int("pool_sits", static_cast<uint64_t>(live_->stats().size()))
      .Int("clients", static_cast<uint64_t>(spec_.clients))
      .Num("warmup_seconds", plan.warmup_seconds)
      .Num("window_seconds", plan.window_seconds)
      .Raw("window_rates_rps", JsonArray(rates))
      .Num("throughput_p10_rps", throughput.p10)
      .Num("throughput_p90_rps", throughput.p90)
      .Num("throughput_cv", throughput.cv)
      .Int("latency_samples", latencies.size())
      .Int("latency_statements", statement_ms.size())
      .Num("latency_mean_ms", Mean(latencies))
      .Num("pooled_p50_ms", Quantile(latencies, 0.50))
      .Num("pooled_p99_ms", Quantile(latencies, 0.99))
      .Raw("setup_s_samples", JsonArray(setup_s_))
      .Num("prepare_seconds", prepare_s_)
      .Int("deltas", deltas_.attempted)
      .Num("service_recorder_p50_ms", served_.latency_p50_seconds * 1e3)
      .Num("service_recorder_p99_ms", served_.latency_p99_seconds * 1e3);
  result_.details_json = details.Dump();
}

bool WorkloadRun::LapRequest(size_t s, GsStats* shapes) {
  const Query& q = statements_[s];
  auto add_shapes = [&](const GsStats* stats) {
    if (stats == nullptr) return;
    shapes->shape_cache_hits += stats->shape_cache_hits;
    shapes->shape_cache_misses += stats->shape_cache_misses;
  };
  switch (spec_.kind) {
    case Kind::kSubplanStream: {
      bool ok = true;
      for (PredSet p : requests_[s]) {
        ok &= session_->TryEstimateCardinality(q, p).ok();
      }
      add_shapes(session_->StatsFor(q));
      session_->ClearCache();
      return ok;
    }
    case Kind::kAdhocWide: {
      Estimator estimator(live_->catalog.get(), &live_->stats());
      const bool ok = estimator.TryEstimateCardinality(q).ok();
      add_shapes(estimator.StatsFor(q));
      return ok;
    }
    case Kind::kServePoint:
    case Kind::kServeChurn:
      return live_->service->Submit(tenants_[0], q).ok();
  }
  return false;
}

void WorkloadRun::TracedPass() {
  Metrics& layer = result_.per_layer;
  const size_t probed = std::min(statements_.size(), shape_.replay_statements);
  SpanLog spans;
  LayerInputs in;
  in.catalog = live_->catalog.get();
  in.pool = &live_->stats();
  in.statements = &statements_;
  in.requests = requests_;
  in.replay_statements = probed;
  in.traced_requests = shape_.traced_requests;
  in.reps = shape_.probe_reps;
  result_.failed += ProbeLayers(in, &layer, &spans);

  // One lap of the workload's own requests with allocation counting on;
  // the shape-cache ratio comes from the same lap's GsStats.
  GsStats shapes;
  const GsStats before =
      live_->service != nullptr ? live_->service->Stats().search : GsStats{};
  uint64_t allocs = 0;
  for (size_t s = 0; s < probed; ++s) {
    const uint64_t start = AllocCount();
    SetAllocCounting(true);
    const bool ok = LapRequest(s, &shapes);
    SetAllocCounting(false);
    allocs += AllocCount() - start;
    if (!ok) {
      ++result_.failed;
      errors_.Add("traced lap: request failed");
    }
  }
  if (live_->service != nullptr) {
    const GsStats after = live_->service->Stats().search;
    shapes.shape_cache_hits = after.shape_cache_hits - before.shape_cache_hits;
    shapes.shape_cache_misses =
        after.shape_cache_misses - before.shape_cache_misses;
  }
  const uint64_t lookups = shapes.shape_cache_hits + shapes.shape_cache_misses;
  layer["alloc.per_request"] =
      probed > 0 ? static_cast<double>(allocs) / static_cast<double>(probed)
                 : 0.0;
  layer["selectivity.shape_cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(shapes.shape_cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;

  // Set-up layers: zero where the workload's set-up has no such step.
  const bool churn = spec_.kind == Kind::kServeChurn;
  layer["sit.build_ms"] = churn ? 0.0 : Median(stats_ms_);
  layer["part_stats.build_all_ms"] = churn ? Median(stats_ms_) : 0.0;
  layer["service.refresh_ms"] =
      live_->service != nullptr ? Median(publish_ms_) : 0.0;

  // Serving and write-path layers, from the load itself.
  layer["service.shed_fraction"] =
      served_.submitted > 0
          ? static_cast<double>(served_.rejected_quota +
                                served_.rejected_queue_full +
                                served_.queue_timeouts) /
                static_cast<double>(served_.submitted)
          : 0.0;
  layer["service.retries"] = static_cast<double>(served_.retries);
  layer["service.recorder_p50_ms"] = served_.latency_p50_seconds * 1e3;
  layer["service.recorder_p99_ms"] = served_.latency_p99_seconds * 1e3;
  layer["service.apply_delta_ms"] = Median(deltas_.apply_ms);
  layer["service.delta_lateness_ms"] = Mean(deltas_.lateness_ms);
  const double applied = static_cast<double>(deltas_.apply_ms.size());
  layer["part_stats.rebuilt_parts"] =
      applied > 0 ? deltas_.rebuilt_parts / applied : 0.0;
  layer["part_stats.cross_pieces"] =
      applied > 0 ? deltas_.cross_pieces / applied : 0.0;
  std::vector<double> merged_ms;
  for (int r = 0; live_->maintainer != nullptr && r < shape_.probe_reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    if (!live_->maintainer->MergedPool().ok()) ++result_.failed;
    merged_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
  }
  layer["part_stats.merged_pool_ms"] = Median(merged_ms);

  JsonObject self_time;
  for (const auto& [name, us] : spans.SelfTimeUs()) self_time.Num(name, us);
  JsonObject trace;
  trace.Str("workload", spec_.name)
      .Int("seed", config_.seed)
      .Num("clock_overhead_ns", layer["trace.clock_overhead_ns"])
      .Raw("columns",
           "[\"request\", \"name\", \"start_ns\", \"end_ns\", \"parent\"]")
      .Raw("spans", spans.RowsJson())
      .Raw("self_time_us", self_time.Dump());
  result_.trace_json = trace.Dump();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string>& names = *new std::vector<std::string>(
      [] {
        std::vector<std::string> out;
        for (const Spec& s : kSpecs) out.emplace_back(s.name);
        return out;
      }());
  return names;
}

RunResult RunWorkload(const RunConfig& config) {
  for (const Spec& spec : kSpecs) {
    if (config.workload == spec.name) {
      return WorkloadRun(spec, config).Execute();
    }
  }
  RunResult result;
  result.failed = 1;
  result.errors.push_back("unknown workload " + config.workload);
  return result;
}

}  // namespace bench_suite
}  // namespace condsel
