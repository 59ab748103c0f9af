// The cached vector time (GgdProcess::vector_time) against the
// from-scratch closure (GgdProcess::compute_v): on every event of seeded
// GgdEngine runs driven one Simulator::step() at a time, at every
// replayed input of threaded runs re-executed through SiteNode, and the
// closure counters the engine reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ggd/process.hpp"
#include "obs/metrics.hpp"
#include "runtime_mt/harness.hpp"
#include "scenario/spec.hpp"
#include "workload/scenario.hpp"

namespace cgc {
namespace {

/// Compares the cached V of live processes with a fresh closure.
struct Shadow {
  std::string where;
  std::uint64_t checks = 0;
  bool failed = false;

  void check(GgdProcess& p) {
    if (p.removed() || failed) {
      return;
    }
    ++checks;
    const DependencyVector fresh = p.compute_v();
    const DependencyVector& cached = p.vector_time();
    if (!(cached == fresh)) {
      failed = true;
      ADD_FAILURE() << where << ": process " << p.id() << " cached V "
                    << cached.str() << " != compute_v " << fresh.str();
    }
  }
};

/// Runs `spec`'s trace on the simulator stack, stepping the simulator one
/// event at a time and checking every process after each op and event,
/// then heals the network and sweeps the same way.
void shadow_engine_run(const ScenarioSpec& spec, LogKeepingMode mode,
                       Shadow& shadow) {
  const std::vector<MutatorOp> ops = generate_trace(spec);
  Scenario s(Scenario::Config{.net = spec.net_config(),
                              .mode = mode,
                              .num_sites = spec.num_sites});
  GgdEngine& engine = s.engine();
  const auto check_all = [&] {
    for (ProcessId id : engine.process_ids()) {
      shadow.check(engine.process(id));
    }
  };
  const auto step = [&](std::uint64_t max_events) {
    for (std::uint64_t i = 0; i < max_events && !shadow.failed; ++i) {
      if (!s.sim().step()) {
        return;
      }
      check_all();
    }
  };
  constexpr std::uint64_t kDrain = 1'000'000;
  Rng burst(spec.seed * 0x2545f4914f6cdd1dULL + 1);
  for (const MutatorOp& op : ops) {
    (void)s.apply(op);
    check_all();
    step(spec.paced ? kDrain : burst.below(48));
  }
  step(kDrain);
  s.net().set_drop_rate(0.0);
  s.net().set_duplicate_rate(0.0);
  for (int round = 0; round < 4 && !shadow.failed; ++round) {
    engine.periodic_sweep();
    check_all();
    step(kDrain);
  }
  EXPECT_EQ(s.sim().pending(), 0u) << shadow.where << ": did not quiesce";
}

TEST(ClosureCache, EngineEveryEventMatchesComputeV) {
  bool saw_loss = false;
  bool saw_dup = false;
  bool saw_migration = false;
  std::uint64_t checks = 0;
  for (std::uint64_t seed = 1; seed <= 28; ++seed) {
    const ScenarioSpec spec = spec_from_seed(seed);
    saw_loss |= spec.drop_rate > 0.0;
    saw_dup |= spec.duplicate_rate > 0.0;
    saw_migration |= spec.cls == ScenarioClass::kMigrationChurn;
    Shadow shadow{.where = "robust seed " + std::to_string(seed)};
    shadow_engine_run(spec, LogKeepingMode::kRobust, shadow);
    checks += shadow.checks;
    // Paper-exact log-keeping writes the self row through a different
    // rule (the acquirer's own counter); its contract admits fault-free,
    // migration-free runs only.
    if (spec.drop_rate == 0.0 && spec.duplicate_rate == 0.0 &&
        spec.cls != ScenarioClass::kMigrationChurn) {
      Shadow paper{.where = "paper seed " + std::to_string(seed)};
      shadow_engine_run(spec, LogKeepingMode::kPaperExact, paper);
      checks += paper.checks;
    }
  }
  EXPECT_TRUE(saw_loss);
  EXPECT_TRUE(saw_dup);
  EXPECT_TRUE(saw_migration);
  EXPECT_GT(checks, 100'000u);
}

TEST(ClosureCache, ThreadedReplayEveryInputMatchesComputeV) {
  struct Profile {
    const char* name;
    double drop;
    double dup;
    double reorder;
  };
  constexpr Profile kProfiles[] = {
      {"clean", 0.0, 0.0, 0.0},
      {"loss", 0.15, 0.0, 0.0},
      {"dup", 0.0, 0.3, 0.0},
      {"reorder", 0.0, 0.0, 0.25},
  };
  std::uint64_t checks = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ScenarioSpec spec = spec_from_seed(seed);
    spec.num_sites = 4;  // threaded mode: 4 sites, no migration
    spec.w_migrate = 0;
    const std::vector<MutatorOp> ops = generate_trace(spec);
    for (const Profile& profile : kProfiles) {
      spec.drop_rate = profile.drop;
      spec.duplicate_rate = profile.dup;
      runtime_mt::ThreadedConfig cfg;
      cfg.num_threads = 4;
      cfg.reorder_rate = profile.reorder;
      const runtime_mt::ThreadedRun run =
          runtime_mt::run_threaded(spec, ops, cfg);
      ASSERT_TRUE(run.ok()) << "seed " << seed << " " << profile.name;
      Shadow shadow{.where = "threaded seed " + std::to_string(seed) + " " +
                             profile.name};
      const runtime_mt::ReplayVerdict verdict = runtime_mt::replay_threaded(
          ops, run, [&](runtime_mt::SiteNode& node) {
            node.for_each_process([&](GgdProcess& p) { shadow.check(p); });
          });
      EXPECT_TRUE(verdict.ok()) << shadow.where;
      checks += shadow.checks;
    }
  }
  EXPECT_GT(checks, 10'000u);
}

TEST(ClosureCache, EngineReportsFullAndIncrementalClosures) {
  const ScenarioSpec spec = spec_from_seed(2);  // cycle-heavy, fault-free
  const std::vector<MutatorOp> ops = generate_trace(spec);
  Scenario s(Scenario::Config{.net = spec.net_config(),
                              .mode = LogKeepingMode::kRobust,
                              .num_sites = spec.num_sites});
  obs::Registry reg;
  s.engine().attach_obs(&reg, nullptr);
  for (const MutatorOp& op : ops) {
    (void)s.apply(op);
    ASSERT_TRUE(s.run());
  }
  ASSERT_TRUE(s.run_with_sweeps(8));
  const std::uint64_t full = reg.counter("ggd.closure.full").value();
  const std::uint64_t incremental =
      reg.counter("ggd.closure.incremental").value();
  EXPECT_GT(full, 0u);
  EXPECT_LT(full, incremental);
}

}  // namespace
}  // namespace cgc
