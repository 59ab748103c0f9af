#include "probe.hpp"

#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

double process_cpu_s() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

double status_field_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream ss(line.substr(prefix.size()));
      double kb = 0;
      if (ss >> kb) {
        return kb / 1024.0;
      }
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mb() { return status_field_mb("VmHWM"); }
double current_rss_mb() { return status_field_mb("VmRSS"); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

double grouped_percentile(const std::vector<std::uint64_t>& ticks, double p) {
  if (ticks.empty()) {
    return 0;
  }
  std::vector<std::uint64_t> sorted = ticks;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  const double rank = p / 100.0 * n;
  // First index whose tick value is the one holding `rank`.
  auto idx = static_cast<std::size_t>(std::min(n - 1, std::floor(rank)));
  const std::uint64_t t = sorted[idx];
  const auto below = static_cast<double>(
      std::lower_bound(sorted.begin(), sorted.end(), t) - sorted.begin());
  const auto at = static_cast<double>(
      std::upper_bound(sorted.begin(), sorted.end(), t) - sorted.begin()) -
                  below;
  // Clamped at 0: the interval of tick 0 would reach below it.
  return std::max(0.0, static_cast<double>(t) - 0.5 + (rank - below) / at);
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kMutator:
      return "ggd.mutator";
    case Layer::kDeliverControl:
      return "ggd.deliver.control";
    case Layer::kDeliverRef:
      return "ggd.deliver.ref";
    case Layer::kSweep:
      return "ggd.sweep";
    case Layer::kTransport:
      return "net.transport";
    case Layer::kCheck:
      return "bench.check";
    case Layer::kThreaded:
      return "runtime_mt.burst";
    case Layer::kCount:
      break;
  }
  return "?";
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  const std::uint64_t t0 = kept_.empty() ? 0 : [this] {
    std::uint64_t m = UINT64_MAX;
    for (const Span& s : kept_) {
      m = std::min(m, s.start);
    }
    return m;
  }();
  os << "[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"perfbench\"}}";
  char buf[64];
  for (const Span& s : kept_) {
    os << ",\n{\"name\":\"" << layer_name(s.layer)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(s.start - t0) / 1e3);
    os << buf << ",\"dur\":";
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(s.end - s.start) / 1e3);
    os << buf << ",\"args\":{\"id\":" << s.id;
    if (s.parent != kNoParent) {
      os << ",\"parent\":" << s.parent;
    }
    os << "}}";
  }
  os << "]\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
