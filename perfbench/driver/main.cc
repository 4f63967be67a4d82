// Maxson end-to-end benchmark driver.
//
//   perfbench --workload raw_day|cached_day|serve_mix --seed N --seconds S
//             --trace 0|1 --work-dir DIR --out-dir DIR
//   perfbench --self-test --work-dir DIR --out-dir DIR
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones, and
// the recorded spans are written to the out directory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "driver/workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --out-dir DIR\n"
               "       perfbench --self-test --work-dir DIR --out-dir DIR\n",
               message);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.process_start = std::chrono::steady_clock::now();
  bool self_test = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      if (!ParseUint(value, &opt.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!ParseUint(value, &n) || n == 0) return Usage("bad --seconds");
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!ParseUint(value, &n) || n > 1) return Usage("bad --trace");
      opt.trace = n == 1;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.work_dir.empty() || opt.out_dir.empty()) {
    return Usage("--work-dir and --out-dir are required");
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  std::filesystem::create_directories(opt.work_dir, ec);
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) return Usage("cannot create the work or out directory");

  if (self_test) {
    const int failures = perfbench::SelfTest(opt);
    std::filesystem::remove_all(opt.work_dir, ec);
    std::fprintf(stderr, "self-test: %s (%d failure(s))\n",
                 failures == 0 ? "PASSED" : "FAILED", failures);
    return failures == 0 ? 0 : 1;
  }

  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == opt.workload;
  }
  if (!known) return Usage(("unknown workload '" + opt.workload + "'").c_str());
  if (!have_seed || !have_seconds) {
    return Usage("--seed and --seconds are required");
  }

  const perfbench::RunResult result = perfbench::RunWorkload(opt);
  std::filesystem::remove_all(opt.work_dir, ec);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
