// What the simulator and threaded workloads share: the legal-op mutator,
// the per-episode measurements, and how episodes become end-to-end
// metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "probe.hpp"
#include "refgraph.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Relative weights of the four mutator ops in a churn phase.
struct Mix {
  std::uint32_t create = 0;
  std::uint32_t introduce = 0;  // i sends its own reference to j it holds
  std::uint32_t forward = 0;    // i sends held k to held j
  std::uint32_t sever = 0;      // i drops a held reference
};

/// Per-episode measurements.
struct Episode {
  std::uint64_t ops = 0;        // mutator ops in the timed phase
  std::uint64_t setup_ops = 0;  // mutator calls that built the population
  std::vector<double> setup_s;  // one per repetition of the setup
  double timed_s = 0;
  double cpu_s = 0;
  double rss_after_setup_mb = 0;
  std::vector<std::uint64_t> latencies;
  std::vector<double> pauses_us;
  std::uint64_t control_bytes = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t swept = 0;  // of those, removed during sweep rounds
  std::uint64_t sweep_rounds = 0;
  std::uint64_t live_end = 0;  // processes alive after the fixpoint
  double book_s = 0;
  std::vector<std::string> violations;
};

/// Chooses and issues legal mutator ops on a rig: the simulator's or the
/// threaded runtime's. A rig offers graph(), a bookkeeping scope
/// `Rig::Book`, and create / introduce / forward / sever.
template <class Rig>
class Mutator {
 public:
  Mutator(Rig& rig, cgc::Rng& rng, std::uint64_t sites)
      : rig_(rig), rng_(rng), sites_(sites) {}

  cgc::SiteId random_site() { return cgc::SiteId{rng_.below(sites_)}; }
  cgc::Rng& rng() { return rng_; }

  /// From now on only processes created after this call may lose a
  /// reference: the population built so far stays resident, and garbage
  /// is made of the small structures churn grows on and around it.
  void freeze_resident(std::uint64_t last_id) { resident_max_ = last_id; }

  /// Issues exactly one op drawn from `mix` with a random reachable
  /// actor. An op that has no legal operands for the drawn actor is
  /// redrawn; creation always has them.
  void churn_op(const Mix& mix) {
    const std::uint32_t total =
        mix.create + mix.introduce + mix.forward + mix.sever;
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::uint64_t dice = rng_.below(total);
      if (dice < mix.create) {
        break;
      }
      dice -= mix.create;
      if (dice < mix.introduce ? try_introduce(pick_actor())
          : dice < mix.introduce + mix.forward ? try_forward(pick_actor())
                                                : try_sever()) {
        return;
      }
    }
    rig_.create(pick_actor(), random_site());
  }

  std::uint64_t pick_actor() {
    typename Rig::Book b(rig_);
    const auto& actors = rig_.graph().actors();
    return actors[rng_.below(actors.size())];
  }

  /// `i` sends its own reference to a process it holds.
  bool try_introduce(std::uint64_t i) {
    std::uint64_t j = 0;
    {
      typename Rig::Book b(rig_);
      const auto& held = rig_.graph().held(i);
      if (held.empty()) {
        return false;
      }
      j = held[rng_.below(held.size())];
      if (j == i || rig_.graph().is_removed(j) ||
          rig_.graph().has_or_awaits(j, i)) {
        return false;
      }
    }
    rig_.introduce(i, j);
    return true;
  }

  /// `i` forwards one held reference to another process it holds.
  bool try_forward(std::uint64_t i) {
    std::uint64_t k = 0;
    std::uint64_t j = 0;
    {
      typename Rig::Book b(rig_);
      const auto& held = rig_.graph().held(i);
      if (held.size() < 2) {
        return false;
      }
      k = held[rng_.below(held.size())];
      j = held[rng_.below(held.size())];
      if (k == j || j == i || rig_.graph().is_removed(j) ||
          rig_.graph().is_removed(k) || rig_.graph().has_or_awaits(j, k)) {
        return false;
      }
    }
    rig_.forward(i, k, j);
    return true;
  }

  /// A reachable holder of a random reachable churn-born process drops
  /// its reference.
  bool try_sever() {
    std::uint64_t i = 0;
    std::uint64_t k = 0;
    {
      typename Rig::Book b(rig_);
      RefGraph& g = rig_.graph();
      const auto& actors = g.actors();
      for (int tries = 0; tries < 64 && k == 0; ++tries) {
        const std::uint64_t c = actors[rng_.below(actors.size())];
        if (c > resident_max_) {
          k = c;
        }
      }
      if (k == 0) {
        return false;
      }
      live_holders_.clear();
      for (std::uint32_t h : g.holders(k)) {
        if (g.is_actor(h)) {
          live_holders_.push_back(h);
        }
      }
      if (live_holders_.empty()) {
        return false;
      }
      i = live_holders_[rng_.below(live_holders_.size())];
    }
    rig_.sever(i, k);
    return true;
  }

 private:
  Rig& rig_;
  cgc::Rng& rng_;
  std::uint64_t sites_;
  std::uint64_t resident_max_ = 0;
  std::vector<std::uint64_t> live_holders_;
};

/// The seed of one input stream of episode `episode` of run seed `seed`.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t episode,
                              std::uint64_t salt) {
  cgc::Rng r(seed * 0x9e3779b97f4a7c15ULL + episode * 0x632be59bd9b4e019ULL +
             salt);
  return r.next();
}

/// Times the setup is repeated per episode; the last copy runs the timed
/// phase. Repetition gives setup_s a median even when an episode is long.
constexpr int kSetups = 3;

inline void add(RunResult& r, std::string name, double value,
                std::string unit) {
  r.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

inline double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// The end-to-end metrics of a run's untraced episodes; a summary goes to
/// standard error.
void report_end_to_end(const std::string& workload,
                       const std::vector<Episode>& episodes, RunResult& res);

}  // namespace perfbench
