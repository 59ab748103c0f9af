#include "episode.hpp"

#include <cstdio>

namespace perfbench {

void report_end_to_end(const std::string& workload,
                       const std::vector<Episode>& episodes, RunResult& res) {
  std::vector<double> ops_per_s, cpu_ms_per_op, setup_s, pauses;
  std::vector<std::uint64_t> lat;
  double bytes = 0, reclaimed = 0, swept = 0;
  for (const Episode& ep : episodes) {
    ops_per_s.push_back(static_cast<double>(ep.ops) / ep.timed_s);
    cpu_ms_per_op.push_back(ep.cpu_s * 1e3 / static_cast<double>(ep.ops));
    setup_s.insert(setup_s.end(), ep.setup_s.begin(), ep.setup_s.end());
    pauses.insert(pauses.end(), ep.pauses_us.begin(), ep.pauses_us.end());
    lat.insert(lat.end(), ep.latencies.begin(), ep.latencies.end());
    bytes += static_cast<double>(ep.control_bytes);
    reclaimed += static_cast<double>(ep.reclaimed);
    swept += static_cast<double>(ep.swept);
  }
  add(res, "mutator_ops_per_s", median(ops_per_s), "ops/s");
  add(res, "setup_s", median(setup_s), "s");
  add(res, "reclaim_latency_p50_ticks", grouped_percentile(lat, 50), "ticks");
  add(res, "reclaim_latency_p99_ticks", grouped_percentile(lat, 99), "ticks");
  add(res, "control_bytes_per_reclaimed", ratio(bytes, reclaimed), "bytes");
  add(res, "sweep_pause_p50_us", percentile(pauses, 50), "us");
  add(res, "sweep_pause_p90_us", percentile(pauses, 90), "us");
  add(res, "peak_rss_mb", peak_rss_mb(), "MB");
  add(res, "cpu_ms_per_op", median(cpu_ms_per_op), "ms");
  const Episode& first = episodes.front();
  std::fprintf(stderr,
               "%s: %zu episodes, %zu latency samples, %zu sweep pauses, "
               "%.0f reclaimed (%.0f during sweep rounds), first episode: "
               "%.2f s timed + %.2f s bookkeeping, %llu live at the end\n",
               workload.c_str(), episodes.size(), lat.size(), pauses.size(),
               reclaimed, swept, first.timed_s, first.book_s,
               static_cast<unsigned long long>(first.live_end));
}

}  // namespace perfbench
