#include "ggd/engine.hpp"

#include <chrono>
#include <utility>
#include <variant>

namespace cgc {
namespace {

/// Sweep rounds between capacity-trim passes over the live population
/// (GgdProcess::trim_storage). Wire-passive at any value; the throttle
/// only balances memcpy cost against capacity-slack accumulation.
constexpr std::uint64_t kTrimEveryRounds = 4;

}  // namespace

GgdProcess& GgdEngine::add_process(ProcessId id, SiteId site, bool is_root) {
  CGC_CHECK_MSG(!ids_.knows(id), "duplicate process id");
  const std::uint32_t idx = ids_.intern(id);
  CGC_CHECK(idx == procs_.size());
  procs_.emplace_back(id, is_root, &pool_);
  site_by_idx_.push_back(site);
  root_by_idx_.push_back(is_root ? 1 : 0);
  generations_.add();  // newborns start hot: scanned by the next round
  proc_order_.insert(id);
  attach_site(site);
  procs_.back().set_observed(obs_attached_);
  procs_.back().set_relay_policy(relay_policy_);
  return procs_.back();
}

void GgdEngine::attach_obs(obs::Registry* registry, obs::Journal* journal) {
  journal_ = journal;
  if (registry != nullptr) {
    metrics_.sweep_pause_us = &registry->histogram("ggd.sweep_pause_us");
    metrics_.sweep_scanned = &registry->histogram("ggd.sweep_scanned");
    metrics_.sweep_slices = &registry->histogram("ggd.sweep_slices_per_round");
    metrics_.walk_consulted = &registry->histogram("ggd.walk_consulted");
    metrics_.relay_rows = &registry->histogram("ggd.relay_rows");
    metrics_.walks = &registry->counter("ggd.walks");
    metrics_.walks_blocked = &registry->counter("ggd.walks_blocked");
    metrics_.walks_unreachable = &registry->counter("ggd.walks_unreachable");
    metrics_.destructions_reemitted =
        &registry->counter("ggd.destructions_reemitted");
    metrics_.stubs_reclaimed = &registry->counter("ggd.stubs_reclaimed");
    metrics_.inquiries = &registry->counter("ggd.inquiries");
    metrics_.closure_full = &registry->counter("ggd.closure.full");
    metrics_.closure_incremental =
        &registry->counter("ggd.closure.incremental");
  } else {
    metrics_ = DetectorMetrics{};
  }
  obs_attached_ = registry != nullptr || journal != nullptr;
  for (GgdProcess& p : procs_) {
    p.set_observed(obs_attached_);
  }
  logkeeping_.attach_obs(registry);
}

void GgdEngine::observe_walk(GgdProcess& p, SimTime now) {
  if (!obs_attached_) {
    return;
  }
  const GgdProcess::WalkObservation obs = p.take_last_walk();
  if (!obs.valid) {
    return;
  }
  if (metrics_.walks != nullptr) {
    metrics_.walks->inc();
    if (obs.result == GgdProcess::WalkResult::kBlocked) {
      metrics_.walks_blocked->inc();
    } else if (obs.result == GgdProcess::WalkResult::kUnreachable) {
      metrics_.walks_unreachable->inc();
    }
    metrics_.walk_consulted->record(obs.consulted);
  }
  if (journal_ != nullptr) {
    // WalkResult and obs::WalkVerdict share values by construction.
    journal_->record(now, site_of(p.id()), obs::EventKind::kWalkVerdict,
                     p.id(), obs.first_missing,
                     obs::pack_walk(static_cast<obs::WalkVerdict>(obs.result),
                                    obs.consulted, obs.missing));
  }
}

void GgdEngine::observe_closure(GgdProcess& p) {
  const GgdProcess::ClosureCounts counts = p.take_closure_counts();
  if (metrics_.closure_full == nullptr) {
    return;
  }
  metrics_.closure_full->inc(counts.full);
  metrics_.closure_incremental->inc(counts.incremental);
}

void GgdEngine::attach_site(SiteId site) {
  if (!net_.has_mailbox(site)) {
    net_.register_mailbox(site, *this);
  }
}

GgdProcess& GgdEngine::process(ProcessId id) { return procs_[index_of(id)]; }

const GgdProcess& GgdEngine::process(ProcessId id) const {
  return procs_[index_of(id)];
}

SiteId GgdEngine::site_of(ProcessId id) const {
  return site_by_idx_[index_of(id)];
}

void GgdEngine::send_ref_transfer(SiteId from, SiteId to, ProcessId recipient,
                                  ProcessId subject) {
  wire::RefTransfer transfer;
  transfer.transfer_id = ++transfer_counter_;
  transfer.recipient = recipient;
  transfer.subject = subject;
  net_.send(from, to,
            wire::WireMessage{MessageKind::kReferencePass, transfer});
}

void GgdEngine::create_object(ProcessId creator, ProcessId newborn,
                              SiteId site, bool is_root) {
  add_process(newborn, site, is_root);
  // The newborn's half of the exchange: it hands its own reference to its
  // creator (rule 1 of §3.4) — this is the event the paper numbers e.g.
  // e2,1 for "root 1 creates object 2".
  logkeeping_.on_send_own_ref(process(newborn), creator);
  mark_touched(creator);
  // The reference travels back to the creator as a normal mutator message.
  send_ref_transfer(site, site_of(creator), creator, newborn);
}

void GgdEngine::send_own_ref(ProcessId i, ProcessId j) {
  CGC_CHECK_MSG(!migrating(i), "mutator op on a process in hand-off");
  logkeeping_.on_send_own_ref(process(i), j);
  mark_touched(i);
  send_ref_transfer(site_of(i), site_of(j), j, i);
}

void GgdEngine::send_third_party_ref(ProcessId i, ProcessId k, ProcessId j) {
  CGC_CHECK_MSG(!migrating(i), "mutator op on a process in hand-off");
  logkeeping_.on_send_third_party_ref(process(i), k, j);
  mark_touched(i);
  send_ref_transfer(site_of(i), site_of(j), j, k);
}

void GgdEngine::on_ref_transfer(const wire::RefTransfer& transfer) {
  if (!applied_transfers_.insert(transfer.transfer_id)) {
    return;  // duplicated delivery: the transfer applied once
  }
  // A re-granted reference obsoletes any still-undelivered destruction of
  // the previous edge: the net fact is again "recipient holds subject".
  pending_destructions_.erase({transfer.recipient, transfer.subject});
  logkeeping_.on_receive_ref(process(transfer.recipient), transfer.subject);
  mark_touched(transfer.recipient);
  mark_touched(transfer.subject);
  if (on_ref_delivered_) {
    on_ref_delivered_(transfer.recipient, transfer.subject);
  }
}

void GgdEngine::local_acquire(ProcessId j, ProcessId k) {
  CGC_CHECK_MSG(!migrating(j) && !migrating(k),
                "local acquire touching a process in hand-off");
  logkeeping_.on_receive_ref(process(j), k);
  mark_touched(j);
  mark_touched(k);
  if (on_ref_delivered_) {
    on_ref_delivered_(j, k);
  }
  if (site_of(j) == site_of(k)) {
    // Co-located target: the site updates the target's self row in place
    // (the paper's rule 1 runs at the exporting site synchronously).
    logkeeping_.on_send_own_ref(process(k), j);
  } else {
    // Remote target: one asynchronous announce carries j's account of the
    // new edge. Idempotent and unordered — not the race-prone eager
    // control message of §2.3.
    deliver_ggd(process(j).make_announce(k));
    observe_closure(process(j));
  }
}

void GgdEngine::drop_ref(ProcessId j, ProcessId k) {
  CGC_CHECK_MSG(!migrating(j), "mutator op on a process in hand-off");
  GgdMessage msg = logkeeping_.on_drop_ref(process(j), k);
  mark_touched(j);
  mark_touched(k);
  pending_destructions_[{j, k}] = msg;
  if (journal_ != nullptr) {
    journal_->record(net_.simulator().now(), site_of(j),
                     obs::EventKind::kDestructionEmit, j, k);
  }
  deliver_ggd(std::move(msg));
}

void GgdEngine::deliver(SiteId from, SiteId to, const wire::WireMessage& msg) {
  (void)from;
  if (const auto* transfer = std::get_if<wire::RefTransfer>(&msg.body)) {
    if (reroute_if_stale(to, transfer->recipient, msg)) {
      return;
    }
    on_ref_transfer(*transfer);
  } else if (const auto* control = std::get_if<wire::GgdControl>(&msg.body)) {
    if (reroute_if_stale(to, control->msg.to, msg)) {
      return;
    }
    on_ggd_message(control->msg);
  } else if (const auto* state = std::get_if<wire::MigrateState>(&msg.body)) {
    on_migrate_state(*state);
  } else if (const auto* ack = std::get_if<wire::MigrateAck>(&msg.body)) {
    on_migrate_ack(to, *ack);
  } else {
    CGC_CHECK_MSG(false, "unexpected wire body at a GGD site");
  }
}

bool GgdEngine::reroute_if_stale(SiteId at, ProcessId target,
                                 const wire::WireMessage& msg) {
  auto t = in_transit_.find(target);
  if (t != in_transit_.end()) {
    if (at == t->second.dst) {
      // Reached the hand-off destination ahead of the state snapshot:
      // held until the state lands, then replayed in arrival order. This
      // is what makes the log transfer atomic at the protocol level — no
      // message is processed against half-moved state.
      transit_buffer_[target].push_back(msg);
      return true;
    }
    redirect(at, target, msg);
    return true;
  }
  if (site_by_idx_[index_of(target)] != at) {
    // Stale addressing: the packet was sent before a completed hand-off
    // flipped the site-of-record (or chased a chain of them).
    redirect(at, target, msg);
    return true;
  }
  return false;
}

void GgdEngine::redirect(SiteId at, ProcessId target,
                         const wire::WireMessage& msg) {
  auto it = stubs_.find({at, target});
  if (it == stubs_.end()) {
    // No live stub: the packet bounces. A bounced reference transfer is
    // indistinguishable from a lost packet (the oracle counts delivered
    // edges only); bounced destructions and inquiries are re-emitted by
    // the periodic sweep towards the current site-of-record.
    ++migration_stats_.bounced;
    if (journal_ != nullptr) {
      journal_->record(net_.simulator().now(), at,
                       obs::EventKind::kMigrateBounce, target);
    }
    return;
  }
  ForwardStub& stub = it->second;
  if (stub.armed && stub.ttl == 0) {
    // An armed stub out of redirects is expired (reachable via
    // set_redirect_ttl(0): "serves zero more redirects after the ack").
    stubs_.erase(it);
    ++migration_stats_.bounced;
    if (journal_ != nullptr) {
      journal_->record(net_.simulator().now(), at,
                       obs::EventKind::kMigrateBounce, target);
    }
    return;
  }
  ++migration_stats_.forwarded;
  const SiteId next = stub.next;
  if (stub.armed && --stub.ttl == 0) {
    stubs_.erase(it);
  }
  net_.send(at, next, msg);
}

bool GgdEngine::migrate(ProcessId p, SiteId dst) {
  const std::uint32_t idx = index_of(p);
  if (procs_[idx].removed() || in_transit_.contains(p) ||
      site_by_idx_[idx] == dst) {
    return false;
  }
  const SiteId src = site_by_idx_[idx];
  attach_site(dst);
  wire::MigrateState ms;
  ms.migration_id = ++migration_counter_;
  ms.proc = p;
  ms.src = src;
  ms.dst = dst;
  ms.snap = procs_[idx].export_state();
  in_transit_.emplace(p, TransitRecord{ms.migration_id, src, dst});
  stubs_[{src, p}] =
      ForwardStub{dst, redirect_ttl_, /*armed=*/false, /*sweeps_survived=*/0};
  pending_handoffs_.emplace(ms.migration_id, ms);
  ++migration_stats_.started;
  if (journal_ != nullptr) {
    journal_->record(net_.simulator().now(), src,
                     obs::EventKind::kMigrateFreeze, p, {}, dst.value());
  }
  net_.send(src, dst, wire::WireMessage{MessageKind::kMigration, ms});
  return true;
}

void GgdEngine::on_migrate_state(const wire::MigrateState& ms) {
  if (!applied_migrations_.insert(ms.migration_id)) {
    // Duplicated or re-emitted snapshot after the original landed: only
    // the acknowledgement was lost — re-confirm.
    net_.send(ms.dst, ms.src,
              wire::WireMessage{MessageKind::kMigration,
                                wire::MigrateAck{ms.migration_id, ms.proc,
                                                 ms.dst}});
    return;
  }
  const std::uint32_t idx = index_of(ms.proc);
  GgdProcess& proc = procs_[idx];
  CGC_CHECK_MSG(!proc.removed(), "a frozen mover cannot have been collected");
  // The wire's copy is authoritative: the destination resumes from the
  // delivered bytes, which is what the codec round-trip tests pin down.
  proc.import_state(ms.snap);
  site_by_idx_[idx] = ms.dst;
  mark_touched(ms.proc);
  in_transit_.erase(ms.proc);
  ++migration_stats_.completed;
  if (journal_ != nullptr) {
    journal_->record(net_.simulator().now(), ms.dst,
                     obs::EventKind::kMigrateDeliver, ms.proc, {},
                     ms.src.value());
  }
  net_.send(ms.dst, ms.src,
            wire::WireMessage{MessageKind::kMigration,
                              wire::MigrateAck{ms.migration_id, ms.proc,
                                               ms.dst}});
  if (on_migrated_) {
    on_migrated_(ms.proc, ms.src, ms.dst);
  }
  // Replay everything that raced ahead of the state, in arrival order.
  auto buf = transit_buffer_.find(ms.proc);
  if (buf != transit_buffer_.end()) {
    std::vector<wire::WireMessage> held = std::move(buf->second);
    transit_buffer_.erase(buf);
    for (const wire::WireMessage& m : held) {
      if (const auto* transfer = std::get_if<wire::RefTransfer>(&m.body)) {
        on_ref_transfer(*transfer);
      } else if (const auto* control =
                     std::get_if<wire::GgdControl>(&m.body)) {
        on_ggd_message(control->msg);
      }
    }
  }
  // A flush the mover owed before departure resumes at the new site.
  if (procs_[idx].forward_pending()) {
    schedule_flush(ms.proc);
  }
}

void GgdEngine::on_migrate_ack(SiteId at, const wire::MigrateAck& ack) {
  pending_handoffs_.erase(ack.migration_id);
  // Arm the vacated site's stub: from here it serves TTL more redirects.
  // (`at` is the site the ack was addressed to — the hand-off source.)
  auto it = stubs_.find({at, ack.proc});
  if (it != stubs_.end() && it->second.next == ack.dst) {
    it->second.armed = true;
  }
}

void GgdEngine::deliver_ggd(GgdMessage msg) {
  const MessageKind kind =
      (msg.inquiry || msg.reply) ? MessageKind::kGgdInquiry
      : msg.is_destruction()     ? MessageKind::kGgdDestruction
                                 : MessageKind::kGgdVector;
  const SiteId from = site_of(msg.from);
  const SiteId to = site_of(msg.to);
  if (obs_attached_) {
    if (msg.inquiry) {
      if (metrics_.inquiries != nullptr) {
        metrics_.inquiries->inc();
      }
      if (journal_ != nullptr) {
        journal_->record(net_.simulator().now(), from, obs::EventKind::kInquiry,
                         msg.from, msg.to);
      }
    }
    if (!msg.rows.empty()) {
      if (metrics_.relay_rows != nullptr) {
        metrics_.relay_rows->record(msg.rows.size());
      }
      if (journal_ != nullptr) {
        journal_->record(net_.simulator().now(), from,
                         obs::EventKind::kRowRelay, msg.from, {},
                         msg.rows.size());
      }
    }
  }
  net_.send(from, to, wire::WireMessage{kind, wire::GgdControl{std::move(msg)}});
}

void GgdEngine::on_ggd_message(const GgdMessage& msg) {
  if (msg.is_destruction()) {
    // Delivered: the retransmission obligation for this edge is met (a
    // removal cascade's destruction supersedes the mutator's own).
    pending_destructions_.erase({msg.from, msg.to});
    if (journal_ != nullptr) {
      journal_->record(net_.simulator().now(), site_of(msg.to),
                       obs::EventKind::kDestructionDeliver, msg.from, msg.to);
    }
  }
  GgdProcess& target = process(msg.to);
  mark_touched(msg.to);
  if (msg.inquiry) {
    // The hosting site answers inquiries; a collected target is answered
    // posthumously with its death certificate.
    ++participating_sites_[site_of(msg.to)];
    // Inquiries are answered without running receive() at the target, so
    // their piggybacked frontier acks must be applied here or the
    // inquirer would be treated as permanently lagged.
    target.apply_row_acks(msg);
    if (!target.removed()) {
      // The inquiry's piggybacked behalf row delivers any deferred grants
      // the inquirer holds for this target: the target adjudicates them
      // before its reply is built, so the reply never certifies an
      // in-edge row that a pending regrant is about to change.
      target.absorb_edge_facts(msg.behalf, msg.from);
    }
    if (target.removed()) {
      // Posthumous answer: re-issue the corpse's final destruction bundle
      // towards the inquirer — its death certificate rides in the `dead`
      // set, and the bundle's deferred on-behalf grants (§3.4) ride in
      // `v`, healing the case where the original finalisation message to
      // this inquirer was lost or still in flight when the death became
      // known through relays.
      deliver_ggd(target.make_destruction_message(msg.from));
    } else {
      deliver_ggd(target.make_reply(msg.from));
      observe_closure(target);
    }
    return;
  }
  if (target.removed()) {
    return;
  }
  ++participating_sites_[site_of(msg.to)];
  const bool was_removed = target.removed();
  std::vector<GgdMessage> out =
      target.receive(msg, [this](ProcessId p) { return root_flag(p); },
                     net_.simulator().now());
  observe_walk(target, net_.simulator().now());
  observe_closure(target);
  if (!was_removed && target.removed()) {
    removed_.push_back(msg.to);
    target.retire_tombstone();
    if (journal_ != nullptr) {
      journal_->record(net_.simulator().now(), site_of(msg.to),
                       obs::EventKind::kReclaim, msg.to);
    }
    if (on_removed_) {
      on_removed_(msg.to);
    }
  }
  dispatch_all(std::move(out));
  schedule_flush(msg.to);
}

void GgdEngine::dispatch_all(std::vector<GgdMessage> msgs) {
  for (auto& m : msgs) {
    deliver_ggd(std::move(m));
  }
}

void GgdEngine::schedule_flush(ProcessId p) {
  if (!process(p).forward_pending() || flush_scheduled_.contains(p)) {
    return;
  }
  flush_scheduled_.insert(p);
  // Coalescing with exponential backoff: on a structure of diameter d the
  // vector-time convergence delivers ~d incremental improvements to every
  // member; flushing each would cost Θ(k·d) messages. Doubling the window
  // per consecutive flush consolidates them into O(log d) sends per
  // member (latency, not correctness, is traded), which is what keeps the
  // §4 comparison's message count near-linear. The periodic sweep resets
  // the window.
  auto [slot, inserted] = flush_delay_.emplace(p, SimTime{1});
  const SimTime delay = *slot;
  *slot = std::min<SimTime>(*slot * 2, 64);
  net_.simulator().schedule_in(delay, [this, p]() {
    flush_scheduled_.erase(p);
    if (migrating(p)) {
      // The process froze after this flush was scheduled: the pending
      // flag travels in the snapshot and the destination re-schedules.
      return;
    }
    GgdProcess& proc = process(p);
    if (proc.forward_pending()) {
      dispatch_all(proc.take_forwards());
    }
  });
}

void GgdEngine::periodic_sweep() {
  // One whole round through the scheduler. Under an unbounded budget a
  // single slice runs the round start-to-finish in the historical order
  // (the wire-trace goldens pin the byte identity); the loop only spins
  // when a budgeted caller left a round mid-flight — the first slice then
  // finishes that round and the contract "one call = reaching a round
  // boundary" still holds.
  while (!sweep_slice(sweep::kUnbounded)) {
  }
}

bool GgdEngine::sweep_slice(std::uint64_t budget_units) {
  using Phase = SweepCursor::Phase;
  last_sweep_budget_ = budget_units;
  sweep::Budget budget(budget_units);
  // Wall-clock pause span: only measured when observability is attached
  // (a steady_clock read per slice is cheap but not free, and unobserved
  // runs must stay untouched).
  std::chrono::steady_clock::time_point wall_start;
  if (obs_attached_) {
    wall_start = std::chrono::steady_clock::now();
  }
  const SimTime sweep_at = net_.simulator().now();
  if (sweep_cursor_.phase == Phase::kIdle) {
    // Round prologue: runs once per round, in the first slice.
    ++sweep_round_;
    sweep_cursor_ = SweepCursor{};
    sweep_cursor_.phase = Phase::kDestructions;
    if (obs_attached_ && journal_ != nullptr) {
      journal_->record(sweep_at, SiteId{}, obs::EventKind::kSweepStart, {}, {},
                       pending_destructions_.size());
    }
    flush_delay_.clear();
  }
  ++sweep_cursor_.slices;
  bool exhausted = false;

  if (sweep_cursor_.phase == Phase::kDestructions) {
    // Re-emit destruction messages that never arrived (lost packets): the
    // deployed system's local collector keeps re-summarising dropped
    // edges. Entries of collected targets are dropped instead.
    std::vector<GgdMessage> reemit;
    auto it = sweep_cursor_.have_destruction_key
                  ? pending_destructions_.upper_bound(
                        sweep_cursor_.destruction_key)
                  : pending_destructions_.begin();
    while (it != pending_destructions_.end()) {
      if (!budget.take()) {
        exhausted = true;
        break;
      }
      sweep_cursor_.destruction_key = it->first;
      sweep_cursor_.have_destruction_key = true;
      if (process(it->first.second).removed()) {
        it = pending_destructions_.erase(it);
      } else {
        reemit.push_back(it->second);
        ++it;
      }
    }
    if (metrics_.destructions_reemitted != nullptr) {
      metrics_.destructions_reemitted->inc(reemit.size());
    }
    dispatch_all(std::move(reemit));
    if (!exhausted) {
      sweep_cursor_.phase = Phase::kStubs;
    }
  }

  if (!exhausted && sweep_cursor_.phase == Phase::kStubs) {
    // Reclaim forwarding stubs stale traffic will never expire: a
    // collected mover needs no redirects, and an armed stub two sweep
    // rounds old has outlived any packet the sweeps cannot re-emit.
    auto it = sweep_cursor_.have_stub_key
                  ? stubs_.upper_bound(sweep_cursor_.stub_key)
                  : stubs_.begin();
    while (it != stubs_.end()) {
      if (!budget.take()) {
        exhausted = true;
        break;
      }
      sweep_cursor_.stub_key = it->first;
      sweep_cursor_.have_stub_key = true;
      if (process(it->first.second).removed() ||
          (it->second.armed && ++it->second.sweeps_survived >= 2)) {
        it = stubs_.erase(it);
        if (metrics_.stubs_reclaimed != nullptr) {
          metrics_.stubs_reclaimed->inc();
        }
      } else {
        ++it;
      }
    }
    if (!exhausted) {
      sweep_cursor_.phase = Phase::kHandoffs;
    }
  }

  if (!exhausted && sweep_cursor_.phase == Phase::kHandoffs) {
    // Re-emit unacknowledged hand-off snapshots: a lost MigrateState
    // would otherwise freeze the mover (and strand its held messages) for
    // ever. The mover is frozen, so the stored copy is still
    // authoritative; a re-emission racing the original is discarded by
    // migration id.
    auto it = sweep_cursor_.have_handoff_key
                  ? pending_handoffs_.upper_bound(sweep_cursor_.handoff_key)
                  : pending_handoffs_.begin();
    while (it != pending_handoffs_.end()) {
      if (!budget.take()) {
        exhausted = true;
        break;
      }
      sweep_cursor_.handoff_key = it->first;
      sweep_cursor_.have_handoff_key = true;
      ++migration_stats_.reemitted;
      const wire::MigrateState& ms = it->second;
      net_.send(ms.src, ms.dst,
                wire::WireMessage{MessageKind::kMigration, ms});
      ++it;
    }
    if (!exhausted) {
      sweep_cursor_.phase = Phase::kScan;
    }
  }

  if (!exhausted && sweep_cursor_.phase == Phase::kScan) {
    auto it = sweep_cursor_.have_scan_key
                  ? proc_order_.upper_bound(sweep_cursor_.scan_key)
                  : proc_order_.begin();
    while (it != proc_order_.end()) {
      if (!budget.take()) {
        exhausted = true;
        break;
      }
      const ProcessId id = *it;
      ++it;
      sweep_cursor_.scan_key = id;
      sweep_cursor_.have_scan_key = true;
      const std::uint32_t idx = index_of(id);
      GgdProcess& proc = procs_[idx];
      if (proc.removed() || proc.is_root() || migrating(id)) {
        continue;
      }
      // Generational skipping applies only under a finite budget: an
      // unbounded round must scan everything (byte identity with the
      // monolithic sweep), and does so cheaply anyway.
      if (!budget.unbounded() && !generations_.eligible(idx, sweep_round_)) {
        continue;
      }
      ++sweep_cursor_.scanned;
      proc.reset_inquiry_gates();
      proc.sync_sweep_round();
      const bool was_removed = proc.removed();
      std::vector<GgdMessage> out =
          proc.decide([this](ProcessId p) { return root_flag(p); },
                      /*allow_inquiry=*/true, net_.simulator().now());
      observe_walk(proc, sweep_at);
      const bool now_removed = proc.removed();
      if (!was_removed && now_removed) {
        removed_.push_back(proc.id());
        proc.retire_tombstone();
        if (journal_ != nullptr) {
          journal_->record(net_.simulator().now(), site_of(proc.id()),
                           obs::EventKind::kReclaim, proc.id());
        }
        if (on_removed_) {
          on_removed_(proc.id());
        }
      }
      // Uneventful scans (no output, no removal) age the row toward a
      // longer period; anything eventful re-marks it hot.
      generations_.note_scanned(idx, sweep_round_,
                                !out.empty() || now_removed);
      // Periodic capacity diet, amortized over the scan so each budget
      // slice pays only for the processes it visits (a whole-population
      // trim at round end would put one giant memcpy in a single pause).
      // Content (and therefore the wire trace) is untouched.
      if (!now_removed && sweep_round_ % kTrimEveryRounds == 0) {
        proc.trim_storage();
      }
      dispatch_all(std::move(out));
      schedule_flush(proc.id());
    }
    if (!exhausted) {
      sweep_cursor_.phase = Phase::kIdle;  // round complete
    }
  }

  const bool round_complete = !exhausted;
  if (obs_attached_) {
    const auto wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    sweep_cursor_.round_wall_us += wall_us;
    if (metrics_.sweep_pause_us != nullptr) {
      // The pause percentile now measures SLICES: what a caller actually
      // blocks for per sweep_slice() call.
      metrics_.sweep_pause_us->record(wall_us);
    }
    if (round_complete) {
      if (metrics_.sweep_scanned != nullptr) {
        metrics_.sweep_scanned->record(sweep_cursor_.scanned);
        metrics_.sweep_slices->record(sweep_cursor_.slices);
      }
      if (journal_ != nullptr) {
        journal_->record(sweep_at, SiteId{}, obs::EventKind::kSweepEnd, {}, {},
                         sweep_cursor_.round_wall_us);
      }
    }
  }
  return round_complete;
}

sweep::Backlog GgdEngine::sweep_backlog(ProcessId p) const {
  sweep::Backlog b;
  const std::uint32_t idx = ids_.index_of(p);
  if (idx == IdInterner<ProcessId>::kNone) {
    return b;
  }
  b.generation = generations_.generation(idx);
  // Measured from the next round boundary: touched rows are due
  // immediately, aged ones when their period next divides the round.
  b.rounds_until_eligible =
      generations_.rounds_until_eligible(idx, sweep_round_ + 1);
  b.estimated_slices =
      sweep::estimate_slices(proc_order_.size(), proc_order_.rank(p),
                             b.rounds_until_eligible, last_sweep_budget_);
  return b;
}

std::size_t GgdEngine::total_log_entries() const {
  std::size_t n = 0;
  for (const GgdProcess& p : procs_) {
    if (!p.removed()) {
      n += p.log().entry_count();
    }
  }
  return n;
}

}  // namespace cgc
