// End-to-end benchmark of training and gradient aggregation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints human-readable lines, then, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones (the
// transport's tracer attached, plus direct probes of each layer).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {
// Initialized before main runs, so set-up time counts from process start.
const Clock::time_point g_process_start = Clock::now();

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train-resmini-p4|train-resmini-p2|aggregate-resnet50-p4|"
               "service-2x2-resmini> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

void PrintJson(bool correct, const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

Clock::time_point ProcessStart() { return g_process_start; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed wants an integer");
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return Usage("bad --seconds");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace wants 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1 || !have_trace) return Usage("missing arguments");

  Result result;
  bool ran = true;
  try {
    if (opt.workload == "train-resmini-p2") {
      RunTrainResmini(opt, result, /*world=*/2, /*concurrent_jobs=*/1);
    } else if (opt.workload == "service-2x2-resmini") {
      RunTrainResmini(opt, result, /*world=*/2, /*concurrent_jobs=*/2);
    } else if (opt.workload == "train-resmini-p4") {
      RunTrainResmini(opt, result, /*world=*/4, /*concurrent_jobs=*/1);
    } else if (opt.workload == "aggregate-resnet50-p4") {
      RunAggregateResnet50(opt, result);
    } else {
      return Usage(("unknown workload '" + opt.workload + "'").c_str());
    }
    if (opt.trace) RunLayerProbes(opt, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    ran = false;
  }
  bool finite = true;
  for (const Metric& m : result.metrics) finite = finite && std::isfinite(m.value);
  for (const std::string& f : result.failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  const bool correct = ran && finite && result.failed == 0 && result.attempted > 0;
  PrintJson(correct, result);
  return correct ? 0 : 1;
}
