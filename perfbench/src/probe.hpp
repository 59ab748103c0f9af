// Measurement helpers the benchmark applies from outside the program:
// wall and CPU clocks, resident-set readings, order statistics, and the
// span tracer of the traced mode.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// User + system CPU of the whole process (getrusage), in seconds.
double process_cpu_s();

/// VmHWM / VmRSS of this process in MiB (0 when /proc is unreadable).
double peak_rss_mb();
double current_rss_mb();

/// Percentile over doubles by linear interpolation between order
/// statistics (the "type 7" rule NumPy and Python's
/// statistics.quantiles(method="inclusive") use). `p` in [0, 100].
double percentile(std::vector<double> values, double p);

/// Percentile of integer tick samples read as grouped data: tick t stands
/// for the interval [t - 0.5, t + 0.5), and the quantile is interpolated
/// inside the interval that holds its rank. A shift of part of the
/// distribution by one tick moves the result by a fraction of a tick,
/// where a plain order statistic would jump or not move at all.
double grouped_percentile(const std::vector<std::uint64_t>& ticks, double p);

double median(std::vector<double> values);

/// Accumulates time the benchmark spends on its own bookkeeping (the
/// reference graph, op selection), so that the timed phase can exclude it.
class Stopwatch {
 public:
  void start() { t0_ = now_ns(); }
  void stop() { total_ns_ += now_ns() - t0_; }
  [[nodiscard]] std::uint64_t total_ns() const { return total_ns_; }

 private:
  std::uint64_t t0_ = 0;
  std::uint64_t total_ns_ = 0;
};

/// The layers the traced mode times at their public entry points.
enum class Layer : std::uint8_t {
  kMutator,         // GgdEngine add_process/create_object/send_*/drop_ref
  kDeliverControl,  // GgdEngine::deliver of a GgdControl message
  kDeliverRef,      // GgdEngine::deliver of a RefTransfer
  kSweep,           // GgdEngine::sweep_slice
  kTransport,       // Simulator::run (its self time is the transport)
  kCheck,           // the benchmark's own reference-graph bookkeeping
  kThreaded,        // runtime_mt: a burst pushed and waited to quiescence
  kCount,
};

const char* layer_name(Layer l);

/// In-memory span recorder. Each span has a name (its layer), a start, an
/// end and the span open around it (its parent); self time is a span's
/// duration minus the time its direct children cover. Aggregates are kept
/// for every span; only the first `kMaxKept` spans opened are retained for
/// the Chrome trace-event file, so a long run cannot grow without bound.
class Tracer {
 public:
  static constexpr std::size_t kMaxKept = 400'000;

  struct LayerTotals {
    std::uint64_t calls = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<float> call_us;  // per-call durations, for percentiles
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    totals_.resize(static_cast<std::size_t>(Layer::kCount));
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Spans are recorded only between set_recording(true) and
  /// set_recording(false) (the timed phase); toggle with no span open.
  void set_recording(bool on) {
    if (!enabled_ || on == recording_) {
      return;
    }
    recording_ = on;
    if (on) {
      recording_since_ = now_ns();
    } else {
      recorded_ns_ += now_ns() - recording_since_;
    }
  }
  /// Wall time spent recording.
  [[nodiscard]] double recorded_ns() const {
    return static_cast<double>(recorded_ns_);
  }

  void open(Layer layer) {
    if (!recording_) {
      return;
    }
    stack_.push_back(Open{layer, now_ns(), 0, next_id_++});
  }

  void close() {
    if (!recording_) {
      return;
    }
    const std::uint64_t end = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = end - o.start;
    LayerTotals& t = totals_[static_cast<std::size_t>(o.layer)];
    ++t.calls;
    t.busy_ns += dur;
    t.self_ns += dur - std::min(dur, o.child_ns);
    t.call_us.push_back(static_cast<float>(dur) / 1e3F);
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
    }
    if (o.id < kMaxKept) {
      kept_.push_back(Span{o.layer, o.id,
                           stack_.empty() ? kNoParent : stack_.back().id,
                           o.start, end});
    }
  }

  [[nodiscard]] const LayerTotals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }

  /// Writes the retained spans as a Chrome trace-event JSON array (loads
  /// in ui.perfetto.dev). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  static constexpr std::uint64_t kNoParent = UINT64_MAX;

  struct Open {
    Layer layer;
    std::uint64_t start;
    std::uint64_t child_ns;
    std::uint64_t id;  // spans are numbered in the order they open
  };
  struct Span {
    Layer layer;
    std::uint64_t id;
    std::uint64_t parent;  // id of the enclosing span, or kNoParent
    std::uint64_t start;
    std::uint64_t end;
  };

  bool enabled_;
  bool recording_ = false;
  std::uint64_t recording_since_ = 0;
  std::uint64_t recorded_ns_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<Open> stack_;
  std::vector<LayerTotals> totals_;
  std::vector<Span> kept_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& t, Layer l) : t_(t) { t_.open(l); }
  ~Scope() { t_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
};

}  // namespace perfbench
