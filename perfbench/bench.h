// Shared pieces of the end-to-end benchmark: options, the result record
// that becomes the final JSON line, clocks and order statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// The five methods of the paper, by their aggregator spec strings.
inline const std::vector<std::string>& Methods() {
  static const std::vector<std::string> kMethods = {
      "ssgd", "powersgd:4", "acpsgd:4", "topk:0.001", "sign"};
  return kMethods;
}

// Metric-name suffix of a spec: "powersgd:4" -> "powersgd".
inline std::string MethodKey(const std::string& spec) {
  return spec.substr(0, spec.find(':'));
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one run reports. `attempted` counts jobs and checked steps;
// `failed` counts those whose correctness check did not hold.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for stderr
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records one checked operation; `error` is "" when it passed.
  void Check(const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(error);
  }
};

// Process start, taken before anything else runs (see main.cc).
Clock::time_point ProcessStart();

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// SplitMix64 finalizer: derives independent seeds from the run's seed.
uint64_t Mix(uint64_t x);

// Peak resident set of this process in MB (VmHWM), 0 if unavailable.
double PeakRssMb();

// Workloads. Each fills `result` with the end-to-end metrics, or with the
// per-layer metrics when `opt.trace` is set.
void RunAggregateResnet50(const Options& opt, Result& result);
// Five jobs per round at `world` ranks, `concurrent_jobs` admitted at once.
void RunTrainResmini(const Options& opt, Result& result, int world,
                     int concurrent_jobs);

// Per-layer probes shared by every traced run (dnn, compress, linalg,
// tensor, comm), appended to `result`.
void RunLayerProbes(const Options& opt, Result& result);

}  // namespace perfbench
