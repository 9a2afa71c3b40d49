// Measurement loop, summary statistics, allocation gate and JSON output
// shared by the condsel_bench workloads.
//
// A run is: warm-up, then `windows` equal measurement windows, all on one
// steady clock. Closed-loop clients time every request exactly on their
// own thread; a request belongs to the window its completion falls in.
// Throughput is reported per window (median and spread over windows) and
// latency from the exact samples, so no bucket rounding enters any
// reported quantile.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace condsel {
namespace bench_suite {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Nearest-rank quantile (0 <= q <= 1) of an unsorted sample; 0 if empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);  // 0 if empty

struct Spread {
  double median = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;
  double cv = 0.0;  // standard deviation over mean
};
Spread Summarize(const std::vector<double>& values);

// Warm-up followed by `windows` windows of `window_seconds` each.
struct LoadPlan {
  double warmup_seconds = 0.0;
  double window_seconds = 0.0;
  int windows = 1;
};

class WindowClock {
 public:
  WindowClock(const LoadPlan& plan, Clock::time_point start)
      : plan_(plan), start_(start) {}

  // -1 during warm-up, [0, windows) while measuring, windows once over.
  int WindowOf(Clock::time_point t) const;
  Clock::time_point start() const { return start_; }
  Clock::time_point end() const;
  const LoadPlan& plan() const { return plan_; }

 private:
  LoadPlan plan_;
  Clock::time_point start_;
};

// What one closed-loop client saw. Allocated and aligned per client, so
// clients never share a cache line while they run.
struct alignas(64) ClientLog {
  explicit ClientLog(int windows)
      : completions(static_cast<size_t>(windows), 0) {
    latencies_ms.reserve(1 << 16);
    iterations.reserve(1 << 16);
  }
  std::vector<uint64_t> completions;  // measured requests per window
  // Measured requests only: latency and the iteration that issued it.
  std::vector<double> latencies_ms;
  std::vector<uint64_t> iterations;
  uint64_t attempted = 0;  // warm-up included
  uint64_t failed = 0;
};

// Runs `clients` closed-loop client threads until the clock's last window
// closes. `request(client, iteration)` issues one request and returns
// true when its output checked out.
template <typename Request>
std::vector<std::unique_ptr<ClientLog>> RunClosedLoop(
    int clients, const WindowClock& clock, Request&& request) {
  std::vector<std::unique_ptr<ClientLog>> logs;
  for (int c = 0; c < clients; ++c) {
    logs.push_back(std::make_unique<ClientLog>(clock.plan().windows));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      ClientLog& log = *logs[static_cast<size_t>(c)];
      const Clock::time_point end = clock.end();
      for (uint64_t i = 0;; ++i) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= end) break;
        const bool ok = request(c, i);
        const Clock::time_point t1 = Clock::now();
        ++log.attempted;
        if (!ok) ++log.failed;
        const int w = clock.WindowOf(t1);
        if (w >= 0 && w < clock.plan().windows) {
          ++log.completions[static_cast<size_t>(w)];
          log.latencies_ms.push_back(Seconds(t0, t1) * 1e3);
          log.iterations.push_back(i);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

// Allocation counting (alloc_hook.cc replaces the global operator new).
// Off by default: while the gate is closed an allocation costs one relaxed
// load of a flag nobody writes, so serving threads never contend on a
// shared counter. Only the single-threaded traced pass opens it.
void SetAllocCounting(bool on);
uint64_t AllocCount();
// Allocates through every replaceable operator-new form with counting on
// and returns the name of the first form the counter missed, or nullptr.
const char* AllocHookSelfTest();

// Peak resident set size of this process, from getrusage.
double PeakRssMiB();

// Insertion-ordered JSON object builder for the result and trace files.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, uint64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  // `json` must already be a serialized JSON value.
  JsonObject& Raw(const std::string& key, std::string json);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonNumber(double value);
std::string JsonString(const std::string& value);
std::string JsonArray(const std::vector<double>& values);

}  // namespace bench_suite
}  // namespace condsel
