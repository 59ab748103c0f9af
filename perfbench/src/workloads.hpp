// Workload entry points and the result every run prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced mode writes its Chrome trace-event file.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Correctness findings, printed to stderr.
  std::vector<std::string> violations;
};

/// `sparse-churn`, `cyclic-clusters` or `lossy-resident`.
[[nodiscard]] bool is_sim_workload(const std::string& name);
RunResult run_sim_workload(const Options& opt);

/// `threaded-burst`: the worker/mailbox runtime (runtime_mt::run_threaded).
RunResult run_threaded_burst(const Options& opt);

}  // namespace perfbench
