// The three simulator workloads: GgdEngine over Simulator + Network.
//
// A run is a sequence of whole episodes. Each episode is set up from
// (seed, episode index) alone — engine, network and initial population —
// then runs a fixed number of mutator ops and sweeps to the removal
// fixpoint, and is checked against the benchmark's reference graph.
// Episodes repeat until the run's time is used up; metrics are medians
// over episodes or pooled over all their samples.
//
// The benchmark sits on every site as its mailbox (registered before the
// engine adds a process, so the engine leaves it in place) and forwards
// each decoded message to GgdEngine::deliver. That is where it learns
// which references arrived, and where the traced mode times delivery.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <variant>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "ggd/engine.hpp"
#include "ggd/sweep.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "episode.hpp"
#include "probe.hpp"
#include "refgraph.hpp"
#include "sim/simulator.hpp"
#include "wire/mailbox.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using cgc::GgdEngine;
using cgc::Network;
using cgc::NetworkConfig;
using cgc::ProcessId;
using cgc::Rng;
using cgc::SiteId;

struct Shape {
  std::uint64_t sites = 0;
  std::uint64_t roots = 0;
  double drop_rate = 0;
  double duplicate_rate = 0;
};

/// Per-layer figures read from the program after each traced episode
/// (the engine's decision counters live in the shared obs::Registry).
struct LayerReadout {
  std::uint64_t sim_events = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t control_msgs_sent = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_duplicated = 0;
  std::uint64_t log_entries = 0;
  double live_kb = 0;
  double tombstone_kb = 0;
  double pool_reserved_kb = 0;
  double pool_live_kb = 0;
  std::uint64_t reclaimed = 0;
  bool storage_read = false;
};

/// One episode's system: simulator, network, engine, reference graph.
class Rig : public cgc::wire::Mailbox {
 public:
  Rig(const Shape& shape, std::uint64_t net_seed, Tracer& tracer,
      Stopwatch& book, cgc::obs::Registry* registry)
      : sim_(&sim_pool_),
        net_(sim_, NetworkConfig{.min_latency = 1,
                                 .max_latency = 4,
                                 .drop_rate = 0,
                                 .duplicate_rate = 0,
                                 .seed = net_seed}),
        eng_(net_),
        graph_(shape.drop_rate > 0 || shape.duplicate_rate > 0),
        shape_(shape),
        tracer_(tracer),
        book_(book) {
    for (std::uint64_t s = 0; s < shape.sites; ++s) {
      net_.register_mailbox(SiteId{s}, *this);
    }
    eng_.set_on_removed([this](ProcessId p) {
      Book b(*this);
      graph_.on_removed(p.value(), sim_.now());
      swept_ += in_sweep_ ? 1 : 0;
    });
    if (registry != nullptr) {
      eng_.attach_obs(registry, nullptr);
    }
  }
  // The network and the removal hook hold this object's address.
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void deliver(SiteId from, SiteId to,
               const cgc::wire::WireMessage& msg) override {
    if (const auto* t = std::get_if<cgc::wire::RefTransfer>(&msg.body)) {
      {
        Book b(*this);
        graph_.on_transfer(t->transfer_id, t->recipient.value(),
                           t->subject.value());
      }
      Scope s(tracer_, Layer::kDeliverRef);
      eng_.deliver(from, to, msg);
    } else {
      Scope s(tracer_, Layer::kDeliverControl);
      eng_.deliver(from, to, msg);
    }
  }

  /// Bookkeeping scope: excluded from the timed phase, a span of its own.
  class Book {
   public:
    explicit Book(Rig& rig) : rig_(rig) {
      rig_.book_.start();
      rig_.tracer_.open(Layer::kCheck);
    }
    ~Book() {
      rig_.tracer_.close();
      rig_.book_.stop();
    }
    Book(const Book&) = delete;
    Book& operator=(const Book&) = delete;

   private:
    Rig& rig_;
  };

  // -- Mutator calls (the caller has checked legality) -------------------

  std::uint64_t add_root(SiteId site) {
    const std::uint64_t id = ++last_id_;
    {
      Book b(*this);
      graph_.add_process(id, /*is_root=*/true);
    }
    Scope s(tracer_, Layer::kMutator);
    eng_.add_process(ProcessId{id}, site, /*is_root=*/true);
    return id;
  }

  std::uint64_t create(std::uint64_t creator, SiteId site) {
    const std::uint64_t id = ++last_id_;
    {
      Book b(*this);
      graph_.add_process(id, /*is_root=*/false);
      graph_.grant(creator, id);
    }
    Scope s(tracer_, Layer::kMutator);
    eng_.create_object(ProcessId{creator}, ProcessId{id}, site);
    return id;
  }

  void introduce(std::uint64_t i, std::uint64_t j) {
    {
      Book b(*this);
      graph_.grant(j, i);
    }
    Scope s(tracer_, Layer::kMutator);
    eng_.send_own_ref(ProcessId{i}, ProcessId{j});
  }

  void forward(std::uint64_t i, std::uint64_t k, std::uint64_t j) {
    {
      Book b(*this);
      graph_.grant(j, k);
    }
    Scope s(tracer_, Layer::kMutator);
    eng_.send_third_party_ref(ProcessId{i}, ProcessId{k}, ProcessId{j});
  }

  void sever(std::uint64_t j, std::uint64_t k) {
    {
      Book b(*this);
      graph_.drop(j, k);
    }
    Scope s(tracer_, Layer::kMutator);
    eng_.drop_ref(ProcessId{j}, ProcessId{k});
  }

  // -- Network and sweeps -------------------------------------------------

  /// Runs the network until nothing is in flight. The points before and
  /// after are the quiescent points the reference graph checks at.
  void drain() {
    {
      Book b(*this);
      graph_.quiescent(sim_.now(), /*network_drained=*/false);
    }
    {
      Scope s(tracer_, Layer::kTransport);
      sim_.run();
    }
    Book b(*this);
    graph_.quiescent(sim_.now(), /*network_drained=*/true);
  }

  /// One budgeted sweep slice, its wall time (bookkeeping excluded)
  /// recorded as a pause sample. Returns true when the round completed.
  bool sweep_slice(std::uint64_t budget, std::vector<double>& pauses_us) {
    {
      Book b(*this);
      graph_.quiescent(sim_.now(), /*network_drained=*/false);
    }
    const std::uint64_t book0 = book_.total_ns();
    const std::uint64_t t0 = now_ns();
    bool done = false;
    {
      Scope s(tracer_, Layer::kSweep);
      done = eng_.sweep_slice(budget);
    }
    const std::uint64_t wall = now_ns() - t0 - (book_.total_ns() - book0);
    pauses_us.push_back(static_cast<double>(wall) / 1e3);
    if (done) {
      ++rounds_;
    }
    return done;
  }

  /// One whole sweep round in budgeted slices, the network drained
  /// between slices as a deployed incremental collector would.
  void sweep_round(std::uint64_t budget, std::vector<double>& pauses_us) {
    in_sweep_ = true;
    while (!sweep_slice(budget, pauses_us)) {
      drain();
    }
    drain();
    in_sweep_ = false;
  }

  /// Sweeps rounds until removals stop. Under a finite budget the
  /// generational filter may defer a cold row by up to kMaxPeriod rounds,
  /// so the idle window outlasts it (as run_threaded's fixpoint does).
  void sweep_to_fixpoint(std::uint64_t budget, std::vector<double>& pauses_us) {
    const std::uint64_t idle_limit =
        2 + cgc::sweep::GenerationTable::kMaxPeriod;
    std::uint64_t idle = 0;
    for (int round = 0; round < 64 && idle < idle_limit; ++round) {
      const std::size_t before = eng_.removed().size();
      const bool had_pending = eng_.pending_destruction_count() > 0;
      sweep_round(budget, pauses_us);
      idle = (eng_.removed().size() != before || had_pending) ? 0 : idle + 1;
    }
  }

  void heal() {
    net_.set_drop_rate(0);
    net_.set_duplicate_rate(0);
  }
  void set_faults() {
    net_.set_drop_rate(shape_.drop_rate);
    net_.set_duplicate_rate(shape_.duplicate_rate);
  }

  RefGraph& graph() { return graph_; }
  GgdEngine& engine() { return eng_; }
  Network& net() { return net_; }
  cgc::Simulator& sim() { return sim_; }
  [[nodiscard]] std::uint64_t last_id() const { return last_id_; }
  [[nodiscard]] std::uint64_t live_count() const {
    return last_id_ - eng_.removed().size();
  }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  /// Removals made during sweep rounds (their slices and the drains
  /// between and after them) rather than by the cascades mutator ops set
  /// off.
  [[nodiscard]] std::uint64_t swept() const { return swept_; }

 private:
  cgc::Pool sim_pool_;  // backs the event heap; declared first to outlive it
  cgc::Simulator sim_;
  Network net_;
  GgdEngine eng_;
  RefGraph graph_;
  Shape shape_;
  Tracer& tracer_;
  Stopwatch& book_;
  std::uint64_t last_id_ = 0;
  std::uint64_t rounds_ = 0;
  bool in_sweep_ = false;
  std::uint64_t swept_ = 0;
};

using SimMutator = Mutator<Rig>;

/// Builds `roots` roots (round-robin over sites) and grows the population
/// to `population` processes, each newborn created by a random reachable
/// process on a random site, the network drained every 512 creations.
std::uint64_t build_population(Rig& rig, SimMutator& mut, const Shape& shape,
                               std::uint64_t population) {
  std::uint64_t calls = 0;
  for (std::uint64_t r = 0; r < shape.roots; ++r) {
    rig.add_root(SiteId{r % shape.sites});
    ++calls;
  }
  for (std::uint64_t n = shape.roots; n < population; ++n) {
    rig.create(mut.pick_actor(), mut.random_site());
    ++calls;
    if (calls % 512 == 0) {
      rig.drain();
    }
  }
  rig.drain();
  return calls;
}

std::uint64_t sweep_budget_for(std::uint64_t live) {
  return std::max<std::uint64_t>(128, live / 16);
}

/// The shape and phases of one workload.
struct WorkloadDef {
  Shape shape;
  /// Runs the episode's setup (after the rig is built) and returns the
  /// number of mutator calls it made.
  std::uint64_t (*setup)(Rig&, SimMutator&, const Shape&);
  /// Runs the timed phase and returns its mutator op count.
  std::uint64_t (*timed)(Rig&, SimMutator&, Rng&, std::vector<double>&);
};

// --- sparse-churn ---------------------------------------------------------
// Sustained churn over a few thousand processes on 64 sites: many small,
// short-lived structures with narrow dependency vectors. Delivery and
// transport share the time; budgeted sweeps run on a fixed op period.

constexpr std::uint64_t kSparsePopulation = 3'000;
constexpr std::uint64_t kSparseOps = 6'000;

std::uint64_t sparse_setup(Rig& rig, SimMutator& mut, const Shape& shape) {
  return build_population(rig, mut, shape, kSparsePopulation);
}

std::uint64_t sparse_timed(Rig& rig, SimMutator& mut, Rng& /*rng*/,
                           std::vector<double>& pauses) {
  const Mix mix{.create = 30, .introduce = 25, .forward = 15, .sever = 30};
  mut.freeze_resident(rig.last_id());
  for (std::uint64_t op = 1; op <= kSparseOps; ++op) {
    mut.churn_op(mix);
    if (op % 256 == 0) {
      rig.drain();
    }
    if (op % 1024 == 0) {
      rig.sweep_round(sweep_budget_for(rig.live_count()), pauses);
    }
  }
  rig.drain();
  rig.sweep_to_fixpoint(sweep_budget_for(rig.live_count()), pauses);
  return kSparseOps;
}

// --- cyclic-clusters ------------------------------------------------------
// Densely cross-linked cyclic structures of a few dozen processes across
// 16 sites, each built under a root and then cut loose: cyclic garbage
// spanning sites. The network is drained after every op. Clusters come in
// two shapes, alternating: one the root reaches through a single member
// (cut by one drop), and one whose members also hold the root's reference
// and introduce themselves to it (cut by several drops, one at a time;
// an eighth to a quarter of all members then wait for a sweep round). Beside
// them stands a resident tree under roots of its own, which the periodic
// sweeps scan but no cluster op touches.

constexpr std::uint64_t kClusters = 16;
constexpr std::uint64_t kClusterRoots = 4;  // ids 1..4 build clusters
constexpr std::uint64_t kResidentTree = 1'024;
constexpr std::uint64_t kClusterSize = 32;
constexpr std::uint64_t kClusterLinks = 2 * kClusterSize;
constexpr std::uint64_t kSweepEvery = 512;
constexpr std::uint64_t kClusterSweepBudget = 64;

std::uint64_t cyclic_setup(Rig& rig, SimMutator& mut, const Shape& shape) {
  for (std::uint64_t r = 0; r < shape.roots; ++r) {
    rig.add_root(SiteId{r % shape.sites});
  }
  // The resident tree grows under roots kClusterRoots+1.. only.
  std::vector<std::uint64_t> tree;
  for (std::uint64_t r = kClusterRoots + 1; r <= shape.roots; ++r) {
    tree.push_back(r);
  }
  for (std::uint64_t n = 0; n < kResidentTree; ++n) {
    std::uint64_t creator = tree[mut.rng().below(tree.size())];
    if (!rig.graph().is_actor(creator)) {
      creator = tree[mut.rng().below(shape.roots - kClusterRoots)];
    }
    tree.push_back(rig.create(creator, mut.random_site()));
    if (n % 256 == 255) {
      rig.drain();
    }
  }
  rig.drain();
  return shape.roots + kResidentTree;
}

std::uint64_t cyclic_timed(Rig& rig, SimMutator& mut, Rng& rng,
                           std::vector<double>& pauses) {
  std::uint64_t ops = 0;
  const auto step = [&]() {
    ++ops;
    rig.drain();
    if (ops % kSweepEvery == 0) {
      rig.sweep_round(kClusterSweepBudget, pauses);
    }
  };
  // A cluster root holds references only into the cluster it built last.
  const auto cut = [&](std::uint64_t root) {
    while (!rig.graph().held(root).empty()) {
      rig.sever(root, rig.graph().held(root).front());
      step();
    }
  };
  for (std::uint64_t c = 0; c < kClusters; ++c) {
    const std::uint64_t root = 1 + c % kClusterRoots;
    cut(root);
    // The root creates the cluster's first member. In every second
    // cluster it also introduces itself to that member; its reference then
    // spreads through the cluster's forwards, and members that hold it
    // introduce themselves to the root, so the cut takes several drops.
    std::vector<std::uint64_t> members{rig.create(root, mut.random_site())};
    step();
    if (c % 2 != 0) {
      rig.introduce(root, members.front());
      step();
    }
    std::uint64_t linked = 0;
    while (members.size() < kClusterSize || linked < kClusterLinks) {
      const std::uint64_t i = members[rng.below(members.size())];
      const bool grow = members.size() < kClusterSize &&
                        (linked >= kClusterLinks || rng.chance(0.4));
      if (grow) {
        members.push_back(rig.create(i, mut.random_site()));
        step();
      } else if (rng.chance(0.5) ? mut.try_introduce(i) : mut.try_forward(i)) {
        ++linked;
        step();
      }
    }
  }
  for (std::uint64_t r = 1; r <= kClusterRoots; ++r) {
    cut(r);
  }
  rig.sweep_to_fixpoint(kClusterSweepBudget, pauses);
  return ops;
}

// --- lossy-resident -------------------------------------------------------
// A resident population of tens of thousands of processes on 256 sites
// under light churn with packet loss and duplication; the network then
// heals and budgeted sweeps run to the removal fixpoint. Sweep slicing,
// destruction re-emission, relay resync and memory carry this run.

constexpr std::uint64_t kResidentPopulation = 20'000;
constexpr std::uint64_t kResidentOps = 4'000;

std::uint64_t resident_setup(Rig& rig, SimMutator& mut, const Shape& shape) {
  return build_population(rig, mut, shape, kResidentPopulation);
}

std::uint64_t resident_timed(Rig& rig, SimMutator& mut, Rng& /*rng*/,
                             std::vector<double>& pauses) {
  const Mix mix{.create = 30, .introduce = 20, .forward = 20, .sever = 30};
  mut.freeze_resident(rig.last_id());
  rig.set_faults();
  for (std::uint64_t op = 1; op <= kResidentOps; ++op) {
    mut.churn_op(mix);
    if (op % 128 == 0) {
      rig.drain();
    }
  }
  rig.drain();
  rig.heal();
  rig.sweep_to_fixpoint(sweep_budget_for(rig.live_count()), pauses);
  return kResidentOps;
}

WorkloadDef definition(const std::string& name) {
  if (name == "sparse-churn") {
    return {{.sites = 64, .roots = 64}, sparse_setup, sparse_timed};
  }
  if (name == "cyclic-clusters") {
    return {{.sites = 16, .roots = 2 * kClusterRoots}, cyclic_setup,
            cyclic_timed};
  }
  return {{.sites = 256, .roots = 256, .drop_rate = 0.05,
           .duplicate_rate = 0.05},
          resident_setup,
          resident_timed};
}

Episode run_episode(const WorkloadDef& def, std::uint64_t seed,
                    std::uint64_t index, Tracer& tracer,
                    cgc::obs::Registry* registry, LayerReadout* readout) {
  Episode ep;
  Stopwatch book;
  // Setup: input seeds, construction, the initial population.
  std::unique_ptr<Rig> rig;
  Rng rng(0);
  for (int rep = 0; rep < kSetups; ++rep) {
    rig.reset();
    const std::uint64_t t0 = now_ns();
    const std::uint64_t book0 = book.total_ns();
    rng = Rng(mix_seed(seed, index, 1));
    rig = std::make_unique<Rig>(def.shape, mix_seed(seed, index, 2), tracer,
                                book, registry);
    SimMutator setup_mut(*rig, rng, def.shape.sites);
    ep.setup_ops += def.setup(*rig, setup_mut, def.shape);
    ep.setup_s.push_back(
        static_cast<double>(now_ns() - t0 - (book.total_ns() - book0)) / 1e9);
  }
  SimMutator mut(*rig, rng, def.shape.sites);
  ep.rss_after_setup_mb = current_rss_mb();

  // Timed phase: first mutator op to the removal fixpoint.
  const bool traced = tracer.enabled();
  if (traced) {
    tracer.set_recording(true);
  }
  const std::uint64_t book0 = book.total_ns();
  const double cpu0 = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  ep.ops = def.timed(*rig, mut, rng, ep.pauses_us);
  const std::uint64_t t1 = now_ns();
  const double cpu1 = process_cpu_s();
  if (traced) {
    tracer.set_recording(false);
  }
  const double book_s = static_cast<double>(book.total_ns() - book0) / 1e9;
  ep.book_s = book_s;
  ep.timed_s = static_cast<double>(t1 - t0) / 1e9 - book_s;
  // Single-threaded: the bookkeeping's CPU time is its wall time.
  ep.cpu_s = (cpu1 - cpu0) - book_s;

  RefGraph& g = rig->graph();
  g.check_complete(rig->sim().now());
  ep.live_end = g.actors().size();
  ep.violations = g.violations();
  ep.latencies = g.latencies();
  if (g.removed_count() != rig->engine().removed().size()) {
    ep.violations.push_back("removal hook and engine disagree on the count");
  }
  ep.reclaimed = rig->engine().removed().size();
  ep.control_bytes = rig->net().stats().control_bytes_sent();
  ep.sweep_rounds = rig->rounds();
  ep.swept = rig->swept();

  if (readout != nullptr) {
    const auto& st = rig->net().stats();
    readout->sim_events += rig->sim().executed();
    readout->packets_sent += st.packets().sent;
    readout->bytes_sent += st.packets().bytes_sent;
    readout->msgs_sent += st.total_sent();
    readout->control_msgs_sent += st.control_sent();
    readout->packets_dropped += st.packets().dropped;
    readout->packets_duplicated += st.packets().duplicated;
    readout->reclaimed += ep.reclaimed;
    if (!readout->storage_read) {
      // State at the end of the first traced episode.
      const GgdEngine::EngineFootprint fp =
          rig->engine().storage_footprint();
      readout->live_kb = static_cast<double>(fp.live.total()) / 1024.0;
      readout->tombstone_kb =
          static_cast<double>(fp.tombstone.total()) / 1024.0;
      readout->pool_reserved_kb =
          static_cast<double>(rig->engine().pool().bytes_reserved()) / 1024.0;
      readout->pool_live_kb =
          static_cast<double>(rig->engine().pool().bytes_live()) / 1024.0;
      readout->log_entries = rig->engine().total_log_entries();
      readout->storage_read = true;
    }
  }
  return ep;
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "sparse-churn" || name == "cyclic-clusters" ||
         name == "lossy-resident";
}

RunResult run_sim_workload(const Options& opt) {
  const WorkloadDef def = definition(opt.workload);
  RunResult res;
  const std::uint64_t run_start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - run_start) / 1e9;
  };

  std::vector<Episode> plain;   // untraced episodes
  std::vector<Episode> traced;  // traced twins (trace mode only)
  Tracer tracer(opt.trace);
  Tracer off(false);
  cgc::obs::Registry registry;
  LayerReadout readout;
  // Whole episodes only: another one starts if it should end in time,
  // judged by the length of the last.
  double last_s = 0;
  for (std::uint64_t index = 0;
       plain.empty() || elapsed_s() + last_s <= opt.seconds; ++index) {
    const std::uint64_t t0 = now_ns();
    plain.push_back(run_episode(def, opt.seed, index, off, nullptr, nullptr));
    if (opt.trace) {
      // The same episode again with spans and the engine's registry on.
      traced.push_back(
          run_episode(def, opt.seed, index, tracer, &registry, &readout));
    }
    last_s = static_cast<double>(now_ns() - t0) / 1e9;
  }

  for (const auto* set : {&plain, &traced}) {
    for (const Episode& ep : *set) {
      res.attempted += ep.setup_ops + ep.ops;
      for (const std::string& v : ep.violations) {
        res.violations.push_back(v);
      }
    }
  }
  res.correct = res.violations.empty();

  if (!opt.trace) {
    report_end_to_end(opt.workload, plain, res);
    return res;
  }

  // Traced mode: per-layer figures from the traced twins.
  double plain_wall = 0, traced_wall = 0, traced_gross = 0, traced_cpu = 0;
  std::uint64_t slices = 0, rounds = 0, swept = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    plain_wall += plain[i].timed_s;
    traced_wall += traced[i].timed_s;
    slices += traced[i].pauses_us.size();
    rounds += traced[i].sweep_rounds;
    swept += traced[i].swept;
    traced_cpu += traced[i].cpu_s;
  }
  const auto& counters = registry.counters();
  const auto counter = [&](const char* name) -> double {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : static_cast<double>(it->second.value());
  };
  const auto hist = [&](const char* name) -> const cgc::obs::TickHistogram* {
    const auto it = registry.histograms().find(name);
    return it == registry.histograms().end() ? nullptr : &it->second;
  };
  const auto& mut = tracer.totals(Layer::kMutator);
  const auto& ctl = tracer.totals(Layer::kDeliverControl);
  const auto& ref = tracer.totals(Layer::kDeliverRef);
  const auto& swp = tracer.totals(Layer::kSweep);
  const auto& trn = tracer.totals(Layer::kTransport);
  const auto& chk = tracer.totals(Layer::kCheck);
  const auto us = [](const Tracer::LayerTotals& t, double p) {
    return percentile(std::vector<double>(t.call_us.begin(), t.call_us.end()),
                      p);
  };
  const auto secs = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e9;
  };
  const double self_sum = secs(mut.self_ns + ctl.self_ns + ref.self_ns +
                               swp.self_ns + trn.self_ns + chk.self_ns);
  traced_gross = tracer.recorded_ns() / 1e9;

  add(res, "ggd.mutator.calls", static_cast<double>(mut.calls), "count");
  add(res, "ggd.mutator.busy_s", secs(mut.busy_ns), "s");
  add(res, "ggd.mutator.call_us_p50", us(mut, 50), "us");
  add(res, "ggd.mutator.call_us_p99", us(mut, 99), "us");
  add(res, "ggd.deliver.control.calls", static_cast<double>(ctl.calls),
      "count");
  add(res, "ggd.deliver.control.busy_s", secs(ctl.busy_ns), "s");
  add(res, "ggd.deliver.control.us_p50", us(ctl, 50), "us");
  add(res, "ggd.deliver.control.us_p99", us(ctl, 99), "us");
  add(res, "ggd.deliver.ref.calls", static_cast<double>(ref.calls), "count");
  add(res, "ggd.deliver.ref.busy_s", secs(ref.busy_ns), "s");
  const double walks = counter("ggd.walks");
  add(res, "ggd.walks", walks, "count");
  add(res, "ggd.walks_unreachable", counter("ggd.walks_unreachable"), "count");
  add(res, "ggd.walks_blocked", counter("ggd.walks_blocked"), "count");
  add(res, "ggd.inquiries", counter("ggd.inquiries"), "count");
  if (def.shape.drop_rate > 0) {
    add(res, "ggd.destructions_reemitted",
        counter("ggd.destructions_reemitted"), "count");
  }
  const auto* consulted = hist("ggd.walk_consulted");
  add(res, "ggd.walk_consulted_p99",
      consulted ? static_cast<double>(consulted->percentile(99)) : 0, "rows");
  const auto* relay = hist("ggd.relay_rows");
  add(res, "ggd.relay_rows_sum", relay ? static_cast<double>(relay->sum()) : 0,
      "rows");
  add(res, "ggd.walk_yield", ratio(counter("ggd.walks_unreachable"), walks),
      "ratio");
  add(res, "ggd.inquiries_per_reclaimed",
      ratio(counter("ggd.inquiries"), static_cast<double>(readout.reclaimed)),
      "ratio");
  add(res, "ggd.sweep.slices", static_cast<double>(slices), "count");
  add(res, "ggd.sweep.rounds", static_cast<double>(rounds), "count");
  add(res, "ggd.sweep.busy_s", secs(swp.busy_ns), "s");
  add(res, "ggd.sweep.slices_per_round",
      ratio(static_cast<double>(slices), static_cast<double>(rounds)),
      "ratio");
  add(res, "ggd.sweep.reclaimed_share",
      ratio(static_cast<double>(swept), static_cast<double>(readout.reclaimed)),
      "ratio");
  const auto* scanned = hist("ggd.sweep_scanned");
  add(res, "ggd.sweep_scanned_sum",
      scanned ? static_cast<double>(scanned->sum()) : 0, "count");
  add(res, "net.transport.self_s", secs(trn.self_ns), "s");
  add(res, "sim.events", static_cast<double>(readout.sim_events), "count");
  add(res, "net.packets_sent", static_cast<double>(readout.packets_sent),
      "count");
  add(res, "net.bytes_sent", static_cast<double>(readout.bytes_sent), "bytes");
  add(res, "net.control_msgs_sent",
      static_cast<double>(readout.control_msgs_sent), "count");
  if (def.shape.drop_rate > 0 || def.shape.duplicate_rate > 0) {
    add(res, "net.packets_dropped",
        static_cast<double>(readout.packets_dropped), "count");
    add(res, "net.packets_duplicated",
        static_cast<double>(readout.packets_duplicated), "count");
  }
  add(res, "wire.msgs_per_packet",
      ratio(static_cast<double>(readout.msgs_sent),
            static_cast<double>(readout.packets_sent)),
      "ratio");
  add(res, "vclock.log_entries", static_cast<double>(readout.log_entries),
      "count");
  add(res, "ggd.storage.live_kb", readout.live_kb, "KiB");
  add(res, "ggd.storage.tombstone_kb", readout.tombstone_kb, "KiB");
  add(res, "common.pool_reserved_kb", readout.pool_reserved_kb, "KiB");
  add(res, "common.pool_live_kb", readout.pool_live_kb, "KiB");
  add(res, "rss_after_setup_mb", plain.front().rss_after_setup_mb, "MB");
  add(res, "bench.check.busy_s", secs(chk.busy_ns), "s");
  // The threaded runtime's layer is not used here.
  add(res, "runtime_mt.envelopes", 0, "count");
  add(res, "runtime_mt.envelopes_per_op", 0, "ratio");
  add(res, "runtime_mt.skipped_ops", 0, "count");
  add(res, "runtime_mt.packets_sent", 0, "count");
  add(res, "runtime_mt.cpu_per_wall", ratio(traced_cpu, traced_wall), "ratio");
  add(res, "trace.accounted_pct", 100.0 * ratio(self_sum, traced_gross), "%");
  add(res, "trace.overhead_pct", 100.0 * (ratio(traced_wall, plain_wall) - 1),
      "%");
  if (!opt.trace_out.empty() && !tracer.write_chrome_trace(opt.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
  }
  std::fprintf(stderr,
               "%s traced: %zu episode pairs; self time by layer (s): "
               "mutator %.3f, deliver.control %.3f, deliver.ref %.3f, "
               "sweep %.3f, transport %.3f, bench.check %.3f; timed wall "
               "%.3f\n",
               opt.workload.c_str(), traced.size(), secs(mut.self_ns),
               secs(ctl.self_ns), secs(ref.self_ns), secs(swp.self_ns),
               secs(trn.self_ns), secs(chk.self_ns), traced_gross);
  return res;
}

}  // namespace perfbench
