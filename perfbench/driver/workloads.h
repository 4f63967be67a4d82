#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;  // "raw_day", "cached_day" or "serve_mix"
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny tables and one short pass: the self-test's size.
  bool tiny = false;
  std::string work_dir;  // generated tables and caches (removed at exit)
  std::string out_dir;   // traced runs write their spans here
  std::chrono::steady_clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // failed checks, first few kept
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end: set-up, the timed phase, the checks and,
/// with opt.trace, the per-layer measurements.
RunResult RunWorkload(const Options& opt);

/// Runs every workload at tiny size with all its checks, then feeds each
/// check altered results and requires it to report them. Returns the
/// number of failures (0 = pass).
int SelfTest(const Options& base);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
