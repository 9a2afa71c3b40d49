#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace condsel {
namespace bench_suite {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Spread Summarize(const std::vector<double>& values) {
  Spread s;
  if (values.empty()) return s;
  s.median = Median(values);
  s.p10 = Quantile(values, 0.10);
  s.p90 = Quantile(values, 0.90);
  const double mean = Mean(values);
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size());
  s.cv = mean > 0.0 ? std::sqrt(var) / mean : 0.0;
  return s;
}

int WindowClock::WindowOf(Clock::time_point t) const {
  const double since = Seconds(start_, t) - plan_.warmup_seconds;
  if (since < 0.0) return -1;
  const int w = static_cast<int>(since / plan_.window_seconds);
  return std::min(w, plan_.windows);
}

Clock::time_point WindowClock::end() const {
  const double total =
      plan_.warmup_seconds +
      plan_.window_seconds * static_cast<double>(plan_.windows);
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(total));
}

double PeakRssMiB() {
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  return Raw(key, JsonNumber(value));
}

JsonObject& JsonObject::Int(const std::string& key, uint64_t value) {
  return Raw(key, std::to_string(value));
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  return Raw(key, JsonString(value));
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Raw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string JsonObject::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace bench_suite
}  // namespace condsel
