// cgc-perfbench: one workload per process, its metrics as the last line.
//
//   cgc-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE]
//
// With --trace 0 the run prints its end-to-end metrics; with --trace 1 it
// runs each episode twice (untraced, then traced with spans around every
// call into the program's layers) and prints the per-layer metrics, each
// layer's self time and the tracing overhead. Every run first shows that
// the reference-graph checker rejects an unsafe and an incomplete history.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "refgraph.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: cgc-perfbench --workload "
               "sparse-churn|cyclic-clusters|lossy-resident|threaded-burst "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

void print_json(const perfbench::RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (arg("--workload")) {
      opt.workload = argv[++i];
    } else if (arg("--seed")) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg("--seconds")) {
      opt.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = opt.seconds > 0;
    } else if (arg("--trace")) {
      const std::string t = argv[++i];
      if (t != "0" && t != "1") {
        return usage("--trace takes 0 or 1");
      }
      opt.trace = t == "1";
      have_trace = true;
    } else if (arg("--trace-out")) {
      opt.trace_out = argv[++i];
    } else {
      return usage((std::string("unexpected argument ") + argv[i]).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds (> 0) and --trace are required");
  }
  const bool threaded = opt.workload == "threaded-burst";
  if (!threaded && !perfbench::is_sim_workload(opt.workload)) {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  std::string detail;
  const bool checker_ok = perfbench::refgraph_self_test(&detail);
  std::fprintf(stderr, "checker self-test: %s\n", detail.c_str());

  perfbench::RunResult res = threaded ? perfbench::run_threaded_burst(opt)
                                      : perfbench::run_sim_workload(opt);
  if (!checker_ok) {
    res.violations.push_back("checker self-test failed");
  }
  for (const perfbench::Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) {
      res.violations.push_back("metric " + m.name + " is not finite");
    }
  }
  res.correct = res.violations.empty();
  for (const std::string& v : res.violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }
  for (const perfbench::Metric& m : res.metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("ops attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  print_json(res);
  return 0;
}
