// threaded-burst: the worker/mailbox runtime (runtime_mt) with 3 worker
// sites; with the driving thread that makes 4 threads.
//
// runtime_mt::run_threaded pushes every op before any reference is
// delivered, so an op that needs a delivered reference (a third-party
// forward or a drop) is applied or skipped by thread timing, and the run
// holds no garbage once its drops are skipped. This workload therefore
// drives the same runtime parts (SiteWorker threads, ThreadedTransport
// mailboxes, the trace recorder) itself, in bursts: the mutator's ops
// collect while it picks them, a batch is pushed to the sites' mailboxes
// at once, and the driver waits until the runtime is quiescent. Every
// reference an op uses arrived before its burst, so every op applies, and
// the sites collect the garbage the drops leave concurrently.
//
// The benchmark's reference graph learns arrivals from the RefTransfers in
// the recorded packets and removals from the sites, both read at quiescent
// points. A tick is one envelope consumed anywhere in the runtime: the
// global dequeue sequence, which is also the time axis replay_threaded
// re-executes a run on.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <variant>

#include "episode.hpp"
#include "ggd/sweep.hpp"
#include "probe.hpp"
#include "refgraph.hpp"
#include "runtime_mt/harness.hpp"
#include "runtime_mt/placement.hpp"
#include "runtime_mt/site_node.hpp"
#include "runtime_mt/transport.hpp"
#include "runtime_mt/worker.hpp"
#include "wire/codec.hpp"
#include "wire/concurrent_trace.hpp"
#include "wire/messages.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace rt = cgc::runtime_mt;
using cgc::MutatorOp;
using cgc::ProcessId;
using cgc::SiteId;

constexpr std::uint64_t kSites = 3;
constexpr std::uint64_t kRoots = 2 * kSites;
constexpr std::uint64_t kResident = 600;
constexpr std::uint64_t kOps = 2'000;
/// Ops per burst, in setup and in the timed phase.
constexpr std::uint64_t kBurst = 64;
constexpr std::uint64_t kSweepEvery = 512;
constexpr std::uint64_t kSweepBudget = 128;
constexpr std::uint64_t kWatchdogMs = 60'000;
/// The final sweeps stop after this many rounds, run_threaded's default
/// (ThreadedConfig::sweep_rounds): a site's owed destructions never clear
/// here, so the no-progress rule alone would sweep on to any cap.
constexpr int kMaxFinalRounds = 16;

struct PacketContents {
  bool has_ref = false;
  std::uint64_t inquiries = 0;
};

/// Reads the messages of one recorded packet.
template <class Fn>
void for_each_message(const std::vector<std::uint8_t>& bytes, Fn&& fn) {
  cgc::wire::Decoder dec(bytes);
  (void)dec.site_id();
  (void)dec.site_id();
  const std::uint64_t count = dec.varint();
  for (std::uint64_t i = 0; i < count && dec.ok(); ++i) {
    const auto msg = cgc::wire::decode_message(dec);
    if (!msg) {
      break;
    }
    fn(*msg);
  }
}

/// One episode's runtime: worker threads, transport, recorder, and the
/// benchmark's reference graph.
class ThreadedRig {
 public:
  ThreadedRig(std::uint64_t seed, Stopwatch& book, Tracer& tracer,
              std::vector<std::string>& violations)
      : graph_(/*lossy=*/false),
        transport_(kSites),
        book_(book),
        tracer_(tracer),
        violations_(violations) {
    // The op list must not move while a worker reads it: it is only
    // appended to between bursts, and reserved so it never reallocates.
    ops_.reserve(kRoots + 2 * (kResident + kOps));
    for (std::uint64_t r = 1; r <= kRoots; ++r) {
      ops_.push_back(MutatorOp{MutatorOp::Kind::kAddRoot, ProcessId{r},
                               ProcessId{}, ProcessId{}});
      graph_.add_process(r, /*is_root=*/true);
    }
    last_id_ = kRoots;
    placement_ = std::make_unique<rt::Placement>(kSites, ops_);
    cgc::Rng seeder(seed);
    for (std::uint64_t s = 0; s < kSites; ++s) {
      workers_.push_back(std::make_unique<rt::SiteWorker>(
          SiteId{s}, *placement_, cgc::LogKeepingMode::kRobust, transport_,
          recorder_, ops_, seeder.next(), /*coalesce_max_bytes=*/4'096,
          /*coalesce_max_ops=*/16, kSweepBudget));
    }
    for (auto& w : workers_) {
      threads_.emplace_back([worker = w.get()] { worker->run(); });
    }
    removed_seen_.assign(kSites, 0);
    drain();
  }
  ~ThreadedRig() { stop(); }
  // The worker threads hold this object's members.
  ThreadedRig(const ThreadedRig&) = delete;
  ThreadedRig& operator=(const ThreadedRig&) = delete;

  /// Bookkeeping scope: excluded from the timed phase, wall and CPU (the
  /// idle workers spin meanwhile), and a span of its own.
  class Book {
   public:
    explicit Book(ThreadedRig& rig) : rig_(rig), cpu0_(process_cpu_s()) {
      rig_.book_.start();
      rig_.tracer_.open(Layer::kCheck);
    }
    ~Book() {
      rig_.tracer_.close();
      rig_.book_.stop();
      rig_.book_cpu_s_ += process_cpu_s() - cpu0_;
    }
    Book(const Book&) = delete;
    Book& operator=(const Book&) = delete;

   private:
    ThreadedRig& rig_;
    double cpu0_;
  };

  // -- Mutator calls: queued for the next burst ---------------------------

  std::uint64_t create(std::uint64_t creator, SiteId /*placed by id*/) {
    const std::uint64_t id = ++last_id_;
    {
      Book b(*this);
      graph_.add_process(id, /*is_root=*/false);
      graph_.grant(creator, id);
    }
    ops_.push_back(MutatorOp{MutatorOp::Kind::kCreate, ProcessId{id},
                             ProcessId{creator}, ProcessId{}});
    return id;
  }
  void introduce(std::uint64_t i, std::uint64_t j) {
    {
      Book b(*this);
      graph_.grant(j, i);
    }
    ops_.push_back(MutatorOp{MutatorOp::Kind::kLinkOwn, ProcessId{i},
                             ProcessId{j}, ProcessId{}});
  }
  void forward(std::uint64_t i, std::uint64_t k, std::uint64_t j) {
    {
      Book b(*this);
      graph_.grant(j, k);
    }
    ops_.push_back(MutatorOp{MutatorOp::Kind::kLinkThird, ProcessId{i},
                             ProcessId{j}, ProcessId{k}});
  }
  void sever(std::uint64_t j, std::uint64_t k) {
    {
      Book b(*this);
      graph_.drop(j, k);
    }
    ops_.push_back(MutatorOp{MutatorOp::Kind::kDrop, ProcessId{j},
                             ProcessId{k}, ProcessId{}});
  }

  // -- Bursts and sweeps ---------------------------------------------------

  /// Pushes every queued op to its site's mailbox and waits until the
  /// runtime is quiescent. The points before and after are the quiescent
  /// points the reference graph checks at.
  void drain() {
    {
      Book b(*this);
      graph_.quiescent(now(), /*network_drained=*/false);
    }
    {
      Scope s(tracer_, Layer::kThreaded);
      for (; pushed_ < ops_.size(); ++pushed_) {
        rt::Envelope env;
        env.kind = rt::Envelope::Kind::kOp;
        env.op_index = static_cast<std::uint32_t>(pushed_);
        transport_.push_counted(placement_->site_for(ops_[pushed_].a),
                                std::move(env));
      }
      wait_quiescent();
    }
    Book b(*this);
    learn();
  }

  /// One sweep round on every site at once (each site slices it by
  /// kSweepBudget); its wall time, to quiescence, is a pause sample.
  void sweep_round(std::vector<double>& pauses_us) {
    {
      Book b(*this);
      graph_.quiescent(now(), /*network_drained=*/false);
    }
    const std::uint64_t t0 = now_ns();
    {
      Scope s(tracer_, Layer::kSweep);
      for (std::uint64_t s = 0; s < kSites; ++s) {
        rt::Envelope env;
        env.kind = rt::Envelope::Kind::kSweep;
        transport_.push_counted(SiteId{s}, std::move(env));
      }
      wait_quiescent();
    }
    pauses_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    ++rounds_;
    Book b(*this);
    in_sweep_ = true;
    learn();
    in_sweep_ = false;
  }

  /// Sweeps rounds until removals stop (run_threaded's fixpoint rule under
  /// a finite budget, and its round cap).
  void sweep_to_fixpoint(std::vector<double>& pauses_us) {
    const std::uint64_t idle_limit =
        2 + cgc::sweep::GenerationTable::kMaxPeriod;
    std::uint64_t idle = 0;
    for (int round = 0; round < kMaxFinalRounds && idle < idle_limit;
         ++round) {
      const std::uint64_t before = removed();
      bool had_pending = false;
      for (const auto& w : workers_) {
        had_pending = had_pending || w->node().pending_destruction_count() > 0;
      }
      sweep_round(pauses_us);
      idle = (removed() != before || had_pending) ? 0 : idle + 1;
    }
  }

  /// Stops and joins the workers (idempotent).
  void stop() {
    if (threads_.empty()) {
      return;
    }
    for (std::uint64_t s = 0; s < kSites; ++s) {
      transport_.push(SiteId{s}, rt::Envelope{});
    }
    for (auto& t : threads_) {
      t.join();
    }
    threads_.clear();
  }

  /// After stop(): the run in the form replay_threaded re-executes.
  [[nodiscard]] rt::ThreadedRun recorded_run() const {
    rt::ThreadedRun run;
    run.num_sites = kSites;
    run.sweep_budget = kSweepBudget;
    for (const auto& w : workers_) {
      run.schedule.insert(run.schedule.end(), w->log().begin(),
                          w->log().end());
      run.stats.merge(w->stats());
      run.removed_by_site.push_back(w->node().removed());
      run.removed.insert(w->node().removed().begin(),
                         w->node().removed().end());
      run.envelopes += w->envelopes_processed();
    }
    std::sort(run.schedule.begin(), run.schedule.end(),
              [](const rt::InputRecord& a, const rt::InputRecord& b) {
                return a.seq < b.seq;
              });
    for (const rt::InputRecord& rec : run.schedule) {
      if (rec.kind == rt::Envelope::Kind::kOp && !rec.applied) {
        ++run.skipped_ops;
      }
    }
    run.packets = recorder_.sent();
    return run;
  }

  RefGraph& graph() { return graph_; }
  [[nodiscard]] const std::vector<MutatorOp>& ops() const { return ops_; }
  [[nodiscard]] std::uint64_t last_id() const { return last_id_; }
  [[nodiscard]] std::uint64_t now() const { return transport_.stamped(); }
  [[nodiscard]] std::uint64_t removed() const {
    std::uint64_t n = 0;
    for (std::uint64_t s : removed_seen_) {
      n += s;
    }
    return n;
  }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t swept() const { return swept_; }
  [[nodiscard]] double book_cpu_s() const { return book_cpu_s_; }

 private:
  /// Polls for quiescence. The driver sleeps between polls rather than
  /// spin, so that the three workers have the host's other cores.
  void wait_quiescent() {
    const std::uint64_t deadline = now_ns() + kWatchdogMs * 1'000'000;
    while (!transport_.quiescent()) {
      if (!transport_.aborted() && now_ns() > deadline) {
        violations_.push_back("runtime not quiescent within the watchdog");
        transport_.abort();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  /// At a quiescent point: every reference sent has arrived; feed the
  /// graph the new arrivals, then the new removals, then check.
  void learn() {
    const auto& sent = recorder_.sent();
    for (; packets_seen_ < sent.size(); ++packets_seen_) {
      for_each_message(*sent[packets_seen_].bytes,
                       [&](const cgc::wire::WireMessage& msg) {
                         if (const auto* t =
                                 std::get_if<cgc::wire::RefTransfer>(&msg.body)) {
                           graph_.on_transfer(t->transfer_id,
                                              t->recipient.value(),
                                              t->subject.value());
                         }
                       });
    }
    for (std::uint64_t s = 0; s < kSites; ++s) {
      const auto& gone = workers_[s]->node().removed();
      for (; removed_seen_[s] < gone.size(); ++removed_seen_[s]) {
        graph_.on_removed(gone[removed_seen_[s]].value(), now());
        swept_ += in_sweep_ ? 1 : 0;
      }
    }
    graph_.quiescent(now(), /*network_drained=*/true);
  }

  RefGraph graph_;
  std::vector<MutatorOp> ops_;
  std::unique_ptr<rt::Placement> placement_;
  rt::ThreadedTransport transport_;
  cgc::wire::ConcurrentTraceRecorder recorder_;
  std::vector<std::unique_ptr<rt::SiteWorker>> workers_;
  std::vector<std::thread> threads_;
  Stopwatch& book_;
  Tracer& tracer_;
  std::vector<std::string>& violations_;
  std::size_t pushed_ = 0;
  std::size_t packets_seen_ = 0;
  std::vector<std::size_t> removed_seen_;
  std::uint64_t last_id_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t swept_ = 0;
  bool in_sweep_ = false;
  double book_cpu_s_ = 0;
};

using ThreadedMutator = Mutator<ThreadedRig>;

/// Per-layer figures of the traced episodes.
struct Readout {
  double cpu_s = 0;
  double wall_s = 0;
  std::uint64_t envelopes = 0;
  std::uint64_t skipped = 0;
  std::uint64_t ops = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t swept = 0;
  std::uint64_t rounds = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t control_msgs_sent = 0;
  /// The first traced episode's run, re-executed on one thread.
  std::unique_ptr<rt::ThreadedRun> run;
  std::vector<MutatorOp> ops_of_run;
};

/// Sets up (kSetups times), runs the timed phase — churn in bursts of
/// kBurst ops, a sweep round every kSweepEvery ops, then sweeps to the
/// fixpoint — and checks the run. With `keep`, the recorded run and its
/// ops are kept for replay_threaded.
Episode run_episode(std::uint64_t seed, std::uint64_t index, Tracer& tracer,
                    Readout* keep, Readout* readout) {
  Episode ep;
  Stopwatch book;
  std::unique_ptr<ThreadedRig> rig;
  cgc::Rng rng(0);
  for (int rep = 0; rep < kSetups; ++rep) {
    rig.reset();
    const std::uint64_t t0 = now_ns();
    const std::uint64_t book0 = book.total_ns();
    rng = cgc::Rng(mix_seed(seed, index, 1));
    rig = std::make_unique<ThreadedRig>(mix_seed(seed, index, 2), book, tracer,
                                        ep.violations);
    ThreadedMutator setup_mut(*rig, rng, kSites);
    for (std::uint64_t n = 0; n < kResident; ++n) {
      rig->create(setup_mut.pick_actor(), SiteId{});
      if (n % kBurst == kBurst - 1) {
        rig->drain();
      }
    }
    rig->drain();
    ep.setup_ops += kRoots + kResident;
    ep.setup_s.push_back(
        static_cast<double>(now_ns() - t0 - (book.total_ns() - book0)) / 1e9);
  }
  ep.rss_after_setup_mb = current_rss_mb();
  ThreadedMutator mut(*rig, rng, kSites);
  const Mix mix{.create = 30, .introduce = 25, .forward = 15, .sever = 30};
  mut.freeze_resident(rig->last_id());

  tracer.set_recording(true);
  const std::uint64_t book0 = book.total_ns();
  const double book_cpu0 = rig->book_cpu_s();
  const double cpu0 = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t op = 1; op <= kOps; ++op) {
    mut.churn_op(mix);
    if (op % kBurst == 0) {
      rig->drain();
    }
    if (op % kSweepEvery == 0) {
      rig->sweep_round(ep.pauses_us);
    }
  }
  rig->drain();
  rig->sweep_to_fixpoint(ep.pauses_us);
  const std::uint64_t t1 = now_ns();
  const double cpu1 = process_cpu_s();
  tracer.set_recording(false);
  ep.ops = kOps;
  ep.book_s = static_cast<double>(book.total_ns() - book0) / 1e9;
  ep.timed_s = static_cast<double>(t1 - t0) / 1e9 - ep.book_s;
  ep.cpu_s = (cpu1 - cpu0) - (rig->book_cpu_s() - book_cpu0);

  rig->stop();
  RefGraph& g = rig->graph();
  g.check_complete(rig->now());
  ep.live_end = g.actors().size();
  for (const std::string& v : g.violations()) {
    ep.violations.push_back(v);
  }
  ep.latencies = g.latencies();
  ep.reclaimed = rig->removed();
  ep.swept = rig->swept();
  ep.sweep_rounds = rig->rounds();
  if (g.removed_count() != ep.reclaimed) {
    ep.violations.push_back("graph and sites disagree on the removal count");
  }
  rt::ThreadedRun run = rig->recorded_run();
  ep.control_bytes = run.stats.control_bytes_sent();
  if (run.skipped_ops != 0) {
    ep.violations.push_back(std::to_string(run.skipped_ops) +
                            " legal ops skipped by the sites");
  }
  if (keep != nullptr) {
    keep->ops_of_run = rig->ops();
    keep->run = std::make_unique<rt::ThreadedRun>(run);
  }
  if (readout != nullptr) {
    readout->cpu_s += ep.cpu_s;
    readout->wall_s += ep.timed_s;
    readout->envelopes += run.envelopes;
    readout->skipped += run.skipped_ops;
    readout->ops += ep.ops;
    readout->reclaimed += ep.reclaimed;
    readout->swept += ep.swept;
    readout->rounds += ep.sweep_rounds;
    readout->packets_sent += run.stats.packets().sent;
    readout->bytes_sent += run.stats.packets().bytes_sent;
    readout->msgs_sent += run.stats.total_sent();
    readout->control_msgs_sent += run.stats.control_sent();
    if (!readout->run) {
      readout->ops_of_run = rig->ops();
      readout->run = std::make_unique<rt::ThreadedRun>(std::move(run));
    }
  }
  return ep;
}

/// Re-executes a recorded run's schedule on this thread through fresh
/// SiteNodes — the calls the workers made, in the recorded order — with a
/// span around each: apply (mutator entry), deliver_packet (receive; a
/// packet carrying a RefTransfer counts as a reference delivery) and
/// sweep_slice (sweep), inside one span for the whole loop (dispatch).
void reexecute(const Readout& r, Tracer& tracer, std::uint64_t* inquiries) {
  const rt::ThreadedRun& run = *r.run;
  std::vector<PacketContents> contents(run.packets.size());
  for (std::size_t i = 0; i < run.packets.size(); ++i) {
    for_each_message(*run.packets[i].bytes,
                     [&](const cgc::wire::WireMessage& msg) {
                       if (std::holds_alternative<cgc::wire::RefTransfer>(
                               msg.body)) {
                         contents[i].has_ref = true;
                       } else if (const auto* c =
                                      std::get_if<cgc::wire::GgdControl>(
                                          &msg.body)) {
                         contents[i].inquiries += c->msg.inquiry ? 1 : 0;
                       }
                     });
  }
  rt::Placement placement(kSites, r.ops_of_run);
  std::vector<std::unique_ptr<rt::SiteNode>> nodes;
  for (std::uint64_t s = 0; s < kSites; ++s) {
    nodes.push_back(std::make_unique<rt::SiteNode>(
        SiteId{s}, placement, cgc::LogKeepingMode::kRobust, nullptr));
    nodes.back()->set_sender([](SiteId, const cgc::wire::WireMessage&) {});
  }
  tracer.set_recording(true);
  {
    Scope all(tracer, Layer::kTransport);
    for (const rt::InputRecord& rec : run.schedule) {
      rt::SiteNode& node = *nodes[rec.site.value()];
      switch (rec.kind) {
        case rt::Envelope::Kind::kOp: {
          Scope s(tracer, Layer::kMutator);
          (void)node.apply(r.ops_of_run[rec.op_index]);
          break;
        }
        case rt::Envelope::Kind::kPacket: {
          const PacketContents& c = contents[rec.packet_id];
          *inquiries += c.inquiries;
          Scope s(tracer,
                  c.has_ref ? Layer::kDeliverRef : Layer::kDeliverControl);
          node.deliver_packet(*run.packets[rec.packet_id].bytes);
          break;
        }
        case rt::Envelope::Kind::kSweep: {
          Scope s(tracer, Layer::kSweep);
          (void)node.sweep_slice(run.sweep_budget);
          break;
        }
        case rt::Envelope::Kind::kStop:
          break;
      }
    }
  }
  tracer.set_recording(false);
}

}  // namespace

RunResult run_threaded_burst(const Options& opt) {
  RunResult res;
  const std::uint64_t run_start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - run_start) / 1e9;
  };
  Tracer off(false);
  Tracer driver(opt.trace);
  Readout readout;
  Readout first;  // the first untraced episode, for replay_threaded
  std::vector<Episode> plain, traced;
  double last_s = 0;
  for (std::uint64_t index = 0;
       plain.empty() || elapsed_s() + last_s <= opt.seconds; ++index) {
    const std::uint64_t t0 = now_ns();
    plain.push_back(run_episode(opt.seed, index, off,
                                index == 0 ? &first : nullptr, nullptr));
    if (opt.trace) {
      traced.push_back(
          run_episode(opt.seed, index, driver, nullptr, &readout));
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
  // The deterministic replay re-executes the first episode's recorded
  // schedule through the simulator and adjudicates bytes, removals, safety
  // and completeness. It runs after the metrics are read, so that its
  // memory does not count in peak_rss_mb.
  const auto replay = [&] {
    const rt::ReplayVerdict verdict =
        rt::replay_threaded(first.ops_of_run, *first.run);
    for (const std::string& f : verdict.failures) {
      res.violations.push_back("replay_threaded: " + f);
    }
    res.correct = res.violations.empty();
  };

  if (!opt.trace) {
    report_end_to_end(opt.workload, plain, res);
    replay();
    return res;
  }
  replay();

  Tracer tracer(true);
  std::uint64_t inquiries = 0;
  reexecute(readout, tracer, &inquiries);
  const rt::ThreadedRun& run = *readout.run;
  std::uint64_t slices = 0;
  for (const rt::InputRecord& rec : run.schedule) {
    slices += rec.kind == rt::Envelope::Kind::kSweep ? 1 : 0;
  }
  double plain_wall = 0, traced_wall = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    plain_wall += plain[i].timed_s;
    traced_wall += traced[i].timed_s;
  }
  const auto& mut = tracer.totals(Layer::kMutator);
  const auto& ctl = tracer.totals(Layer::kDeliverControl);
  const auto& ref = tracer.totals(Layer::kDeliverRef);
  const auto& swp = tracer.totals(Layer::kSweep);
  const auto& all = tracer.totals(Layer::kTransport);
  const auto us = [](const Tracer::LayerTotals& t, double p) {
    return percentile(std::vector<double>(t.call_us.begin(), t.call_us.end()),
                      p);
  };
  const auto secs = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e9;
  };
  const double self_sum = secs(mut.self_ns + ctl.self_ns + ref.self_ns +
                               swp.self_ns + all.self_ns);
  const double reclaimed_first = static_cast<double>(run.removed.size());
  const double ops = static_cast<double>(readout.ops);

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
  // SiteNode keeps no obs::Registry: the walk counters read 0 here.
  add(res, "ggd.walks", 0, "count");
  add(res, "ggd.walks_unreachable", 0, "count");
  add(res, "ggd.walks_blocked", 0, "count");
  add(res, "ggd.inquiries", static_cast<double>(inquiries), "count");
  add(res, "ggd.walk_consulted_p99", 0, "rows");
  add(res, "ggd.relay_rows_sum", 0, "rows");
  add(res, "ggd.walk_yield", 0, "ratio");
  add(res, "ggd.inquiries_per_reclaimed",
      ratio(static_cast<double>(inquiries), reclaimed_first), "ratio");
  add(res, "ggd.sweep.slices", static_cast<double>(slices), "count");
  add(res, "ggd.sweep.rounds", static_cast<double>(readout.rounds), "count");
  add(res, "ggd.sweep.busy_s", secs(swp.busy_ns), "s");
  add(res, "ggd.sweep.slices_per_round",
      ratio(static_cast<double>(slices),
            static_cast<double>(traced.front().sweep_rounds)),
      "ratio");
  add(res, "ggd.sweep.reclaimed_share",
      ratio(static_cast<double>(readout.swept),
            static_cast<double>(readout.reclaimed)),
      "ratio");
  add(res, "ggd.sweep_scanned_sum", 0, "count");
  add(res, "net.transport.self_s", secs(all.self_ns), "s");
  add(res, "sim.events", static_cast<double>(run.schedule.size()), "count");
  add(res, "net.packets_sent", static_cast<double>(readout.packets_sent),
      "count");
  add(res, "net.bytes_sent", static_cast<double>(readout.bytes_sent), "bytes");
  add(res, "net.control_msgs_sent",
      static_cast<double>(readout.control_msgs_sent), "count");
  add(res, "wire.msgs_per_packet",
      ratio(static_cast<double>(readout.msgs_sent),
            static_cast<double>(readout.packets_sent)),
      "ratio");
  // SiteNode does not expose its storage: these read 0 here.
  add(res, "vclock.log_entries", 0, "count");
  add(res, "ggd.storage.live_kb", 0, "KiB");
  add(res, "ggd.storage.tombstone_kb", 0, "KiB");
  add(res, "common.pool_reserved_kb", 0, "KiB");
  add(res, "common.pool_live_kb", 0, "KiB");
  add(res, "rss_after_setup_mb", plain.front().rss_after_setup_mb, "MB");
  add(res, "bench.check.busy_s", secs(driver.totals(Layer::kCheck).busy_ns),
      "s");
  add(res, "runtime_mt.envelopes", static_cast<double>(readout.envelopes),
      "count");
  add(res, "runtime_mt.envelopes_per_op",
      ratio(static_cast<double>(readout.envelopes), ops), "ratio");
  add(res, "runtime_mt.skipped_ops", static_cast<double>(readout.skipped),
      "count");
  add(res, "runtime_mt.packets_sent", static_cast<double>(readout.packets_sent),
      "count");
  add(res, "runtime_mt.cpu_per_wall", ratio(readout.cpu_s, readout.wall_s),
      "ratio");
  add(res, "trace.accounted_pct",
      100.0 * ratio(self_sum, tracer.recorded_ns() / 1e9), "%");
  add(res, "trace.overhead_pct", 100.0 * (ratio(traced_wall, plain_wall) - 1),
      "%");
  if (!opt.trace_out.empty() && !tracer.write_chrome_trace(opt.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
  }
  std::fprintf(stderr,
               "threaded-burst traced: %zu episode pairs; the first one's "
               "schedule re-executed on one thread, self time by layer (s): "
               "mutator %.3f, deliver.control %.3f, deliver.ref %.3f, sweep "
               "%.3f, dispatch %.3f; re-execution wall %.3f; live timed "
               "wall %.3f\n",
               traced.size(), secs(mut.self_ns), secs(ctl.self_ns),
               secs(ref.self_ns), secs(swp.self_ns), secs(all.self_ns),
               tracer.recorded_ns() / 1e9, traced.front().timed_s);
  return res;
}

}  // namespace perfbench
