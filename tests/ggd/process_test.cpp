// Unit tests for GgdProcess: Receive branches, the edge-precise walk, the
// closure, finalisation and idempotence — independent of any network.
#include <gtest/gtest.h>

#include "ggd/process.hpp"
#include "logkeeping/lazy_logkeeping.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

std::function<bool(ProcessId)> roots(std::initializer_list<std::uint64_t> rs) {
  std::set<ProcessId> set;
  for (auto r : rs) {
    set.insert(P(r));
  }
  return [set](ProcessId p) { return set.contains(p); };
}

GgdMessage vector_msg(ProcessId from, ProcessId to, DependencyVector v,
                      DependencyVector row = {}) {
  GgdMessage m;
  m.from = from;
  m.to = to;
  m.v = std::move(v);
  m.self_row = std::move(row);
  return m;
}

TEST(GgdProcess, DestructionBranchCreatesLocalEvent) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(1));  // counter 1, slot 1 live

  DependencyVector v;
  v.set(P(1), Timestamp::destruction(1));
  auto out = p.receive(vector_msg(P(1), P(2), v), roots({1}));
  EXPECT_EQ(p.log().own_timestamp(), Timestamp::creation(2));
  EXPECT_TRUE(p.log().self_row().get(P(1)).destroyed());
  // No acquaintances: the removal cascade is empty, but the process is
  // removed (no live in-edges remain).
  EXPECT_TRUE(p.removed());
  EXPECT_TRUE(out.empty());
}

TEST(GgdProcess, StaleDestructionIsIgnored) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(1));
  lk.on_send_own_ref(p, P(1));  // slot 1 now at index 2

  DependencyVector v;
  v.set(P(1), Timestamp::destruction(1));  // older than the live edge
  (void)p.receive(vector_msg(P(1), P(2), v), roots({1}));
  EXPECT_FALSE(p.log().self_row().get(P(1)).destroyed());
  EXPECT_FALSE(p.removed());
}

TEST(GgdProcess, VectorMessageImpliesEdgeFromSender) {
  GgdProcess p(P(3), false);
  DependencyVector v;
  v.set(P(2), Timestamp::creation(5));
  v.set(P(1), Timestamp::creation(1));
  DependencyVector row;
  row.set(P(1), Timestamp::creation(1));
  row.set(P(2), Timestamp::creation(5));
  (void)p.receive(vector_msg(P(2), P(3), v, row), roots({1}));
  EXPECT_EQ(p.log().self_row().get(P(2)), Timestamp::creation(5));
  EXPECT_TRUE(p.row_certified(P(2)));
  EXPECT_FALSE(p.removed()) << "live root in the sender's account";
}

TEST(GgdProcess, ReplyDoesNotImplyAnEdge) {
  GgdProcess p(P(3), false);
  DependencyVector v;
  v.set(P(2), Timestamp::creation(5));
  GgdMessage m = vector_msg(P(2), P(3), v);
  m.reply = true;
  (void)p.receive(m, roots({1}));
  EXPECT_TRUE(p.log().self_row().get(P(2)).is_delta())
      << "a reply must not create a self-row edge fact";
  EXPECT_TRUE(p.row_certified(P(2)));
}

TEST(GgdProcess, WalkBlocksOnUnknownPredecessor) {
  GgdProcess p(P(3), false);
  LazyLogKeeping lk;
  lk.on_receive_ref(p, P(9));           // outgoing edge, irrelevant
  p.log().self_row().increment(P(7));   // live in-edge from unknown 7
  FlatSet<ProcessId> missing, evidence, consulted;
  EXPECT_EQ(p.walk_to_root(roots({1}), missing, evidence, consulted),
            GgdProcess::WalkResult::kBlocked);
  EXPECT_TRUE(missing.contains(P(7)));
}

TEST(GgdProcess, WalkFollowsKnownRowsToRoot) {
  GgdProcess p(P(3), false);
  p.log().self_row().increment(P(2));  // edge 2 -> 3
  // 2's row arrives: 2 has a live in-edge from root 1.
  DependencyVector v2;
  v2.set(P(1), Timestamp::creation(1));
  v2.set(P(2), Timestamp::creation(1));
  DependencyVector row2 = v2;
  (void)p.receive(vector_msg(P(2), P(3), v2, row2), roots({1}));
  FlatSet<ProcessId> missing, evidence, consulted;
  EXPECT_EQ(p.walk_to_root(roots({1}), missing, evidence, consulted),
            GgdProcess::WalkResult::kReachable);
}

TEST(GgdProcess, MultiEdgeMaskingIsPerEdge) {
  // The failure case that forced the edge-precise walk (DESIGN.md §2):
  // root 1 holds TWO edges, drops only one. The destruction marker for
  // edge 1 -> 3 must not hide the other edge of process 1 living in a
  // replica row.
  GgdProcess p(P(3), false);
  p.log().self_row().increment(P(2));  // edge 2 -> 3 (live)
  // 2's account: 2 is held by root 1 (1's other edge).
  DependencyVector v2;
  v2.set(P(1), Timestamp::creation(1));
  v2.set(P(2), Timestamp::creation(1));
  (void)p.receive(vector_msg(P(2), P(3), v2, v2), roots({1}));
  // Root drops its DIRECT edge to 3 with a much later index.
  DependencyVector e;
  e.set(P(1), Timestamp::destruction(9));
  (void)p.receive(vector_msg(P(1), P(3), e), roots({1}));

  EXPECT_FALSE(p.removed())
      << "E(9) for edge 1->3 must not mask live edge 1->2 at index 1";
  FlatSet<ProcessId> missing, evidence, consulted;
  EXPECT_EQ(p.walk_to_root(roots({1}), missing, evidence, consulted),
            GgdProcess::WalkResult::kReachable);
}

TEST(GgdProcess, DuplicateMessagesAreIdempotent) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(1));
  lk.on_receive_ref(p, P(5));

  DependencyVector v;
  v.set(P(1), Timestamp::destruction(2));
  const GgdMessage msg = vector_msg(P(1), P(2), v);
  auto out1 = p.receive(msg, roots({1}));
  const DependencyVector snapshot = p.log().self_row();
  const bool removed1 = p.removed();
  auto out2 = p.receive(msg, roots({1}));
  EXPECT_EQ(p.log().self_row(), snapshot);
  EXPECT_EQ(p.removed(), removed1);
  EXPECT_TRUE(out2.empty() || p.removed());
}

TEST(GgdProcess, RemovedProcessIgnoresEverything) {
  GgdProcess p(P(2), false);
  auto fin = p.remove_self();
  EXPECT_TRUE(p.removed());
  DependencyVector v;
  v.set(P(1), Timestamp::creation(1));
  EXPECT_TRUE(p.receive(vector_msg(P(1), P(2), v), roots({1})).empty());
}

TEST(GgdProcess, RemoveSelfSendsDestructionToEveryAcquaintance) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_receive_ref(p, P(3));
  lk.on_receive_ref(p, P(4));
  auto fin = p.remove_self();
  ASSERT_EQ(fin.size(), 2u);
  for (const GgdMessage& m : fin) {
    EXPECT_TRUE(m.is_destruction());
    EXPECT_TRUE(m.dead.contains(P(2))) << "death certificate rides along";
  }
}

TEST(GgdProcess, DeadHoldersFinalBundleCompletesTheRemoval) {
  GgdProcess p(P(3), false);
  p.log().self_row().increment(P(2));  // live in-edge from 2
  GgdMessage death;
  death.from = P(9);
  death.to = P(3);
  death.dead.insert(P(2));
  death.reply = true;
  const auto out = p.receive(death, roots({1}));
  // A relayed death certificate alone must NOT resolve the still-live
  // slot: the corpse's final destruction bundle may carry a deferred
  // rescue grant (§3.4). The process blocks and asks 2's site for the
  // posthumous bundle instead.
  EXPECT_FALSE(p.removed());
  bool asked = false;
  for (const GgdMessage& m : out) {
    asked = asked || (m.inquiry && m.to == P(2));
  }
  EXPECT_TRUE(asked) << "blocked walk must fetch the posthumous bundle";

  // The posthumous bundle arrives (no deferred grants): now the edge from
  // dead 2 is finally resolved and the process removes itself.
  GgdMessage bundle;
  bundle.from = P(2);
  bundle.to = P(3);
  bundle.v.set(P(2), Timestamp::destruction(5));
  bundle.dead.insert(P(2));
  (void)p.receive(bundle, roots({1}));
  EXPECT_TRUE(p.removed());
}

TEST(GgdProcess, ComputeVClosesOverHistories) {
  GgdProcess p(P(4), false);
  p.log().self_row().increment(P(3));
  DependencyVector v3;
  v3.set(P(2), Timestamp::creation(1));
  v3.set(P(3), Timestamp::creation(1));
  GgdMessage m = vector_msg(P(3), P(4), v3, v3);
  (void)p.receive(m, roots({1}));
  const DependencyVector v = p.compute_v();
  EXPECT_FALSE(v.get(P(2)).is_delta()) << "transitive entry imported";
  EXPECT_FALSE(v.get(P(3)).is_delta());
}

TEST(GgdProcess, TombstoneRetirementShedsWalkStateKeepsPosthumousWire) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(1));  // counter 1, slot 1 live

  // Populate the walk-side tables before death: a reply certifies
  // history, relayed rows and behalf rows fill the replica tables.
  DependencyVector rv;
  rv.set(P(1), Timestamp::creation(1));
  DependencyVector row7;
  row7.set(P(1), Timestamp::creation(1));
  GgdMessage fill = vector_msg(P(1), P(2), rv);
  fill.reply = true;
  fill.rows.emplace(P(7), row7);
  fill.row_revs.emplace(P(7), std::uint64_t{1});
  fill.behalf_rows.emplace(P(8), row7);
  (void)p.receive(fill, roots({1}));
  EXPECT_GT(p.storage_footprint().history_bytes, 0u);
  EXPECT_GT(p.storage_footprint().behalf_bytes, 0u);

  // Destroy the only in-edge: p removes itself. In production the
  // engine/site funnel retires the tombstone right after.
  DependencyVector d;
  d.set(P(1), Timestamp::destruction(1));
  (void)p.receive(vector_msg(P(1), P(2), d), roots({1}));
  ASSERT_TRUE(p.removed());
  p.retire_tombstone();

  const GgdProcess::StorageFootprint after = p.storage_footprint();
  EXPECT_EQ(after.history_bytes, 0u) << "certified history is never read "
                                        "posthumously";
  EXPECT_EQ(after.behalf_bytes, 0u) << "deferred behalf rows die with us";
  EXPECT_EQ(after.gate_bytes, 0u) << "inquiry gates are walk-only state";

  // The posthumous answer survives the shed: the re-issued death
  // certificate still carries the dead set and ships the retained replica
  // rows to a peer with an empty confirmed frontier.
  GgdMessage post = p.make_destruction_message(P(9));
  EXPECT_TRUE(post.dead.contains(P(2)));
  auto it = post.rows.find(P(7));
  ASSERT_NE(it, post.rows.end());
  EXPECT_EQ(it->second.get(P(1)), Timestamp::creation(1));
}

TEST(GgdProcess, AnnounceCarriesFreshVector) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_receive_ref(p, P(7));  // counter bumps AFTER any cached V
  const GgdMessage ann = p.make_announce(P(7));
  EXPECT_EQ(ann.v.get(P(2)).index(), p.log().own_timestamp().index())
      << "announce must reflect the acquisition it reports";
  EXPECT_FALSE(ann.reply);
}

// ---- Cached vector time: one test per fallback trigger -------------------

/// P4 holding a live in-edge from P3, whose certified history names P2 and
/// P5 — all three live in V. Observed, so closure updates are counted.
void closure_fixture(GgdProcess& p) {
  p.set_observed(true);
  DependencyVector v3;
  v3.set(P(2), Timestamp::creation(1));
  v3.set(P(3), Timestamp::creation(1));
  v3.set(P(5), Timestamp::creation(2));
  (void)p.receive(vector_msg(P(3), P(4), v3, v3), roots({1}));
  ASSERT_FALSE(p.vector_time().get(P(2)).is_delta());
  (void)p.take_closure_counts();
}

/// Brings the cached V up to date, checks it against a fresh closure and
/// returns the updates run since the fixture (including receive()'s own).
GgdProcess::ClosureCounts settle(GgdProcess& p) {
  EXPECT_EQ(p.vector_time(), p.compute_v());
  return p.take_closure_counts();
}

TEST(GgdProcessClosure, MonotoneRisesUpdateIncrementally) {
  GgdProcess p(P(4), false);
  closure_fixture(p);
  p.log().self_row().increment(P(6));  // a write from outside the class
  DependencyVector v3;
  v3.set(P(3), Timestamp::creation(2));
  v3.set(P(7), Timestamp::creation(1));  // P3's history gains P7
  (void)p.receive(vector_msg(P(3), P(4), v3, v3), roots({1}));
  const GgdProcess::ClosureCounts c = settle(p);
  EXPECT_EQ(c.full, 0u);
  EXPECT_EQ(c.incremental, 2u);
  EXPECT_FALSE(p.vector_time().get(P(6)).is_delta());
  EXPECT_FALSE(p.vector_time().get(P(7)).is_delta());
}

TEST(GgdProcessClosure, DeathOfALiveEntryRecomputes) {
  GgdProcess p(P(4), false);
  closure_fixture(p);
  DependencyVector v3;
  v3.set(P(3), Timestamp::creation(1));
  GgdMessage m = vector_msg(P(3), P(4), v3, v3);
  m.dead.insert(P(2));
  (void)p.receive(m, roots({1}));
  EXPECT_EQ(settle(p).full, 1u);
  EXPECT_EQ(p.vector_time().get(P(2)), Timestamp{});
}

TEST(GgdProcessClosure, DeathOfAnUnmentionedProcessStaysIncremental) {
  GgdProcess p(P(4), false);
  closure_fixture(p);
  DependencyVector v3;
  v3.set(P(3), Timestamp::creation(1));
  GgdMessage m = vector_msg(P(3), P(4), v3, v3);
  m.dead.insert(P(9));
  (void)p.receive(m, roots({1}));
  EXPECT_EQ(settle(p).full, 0u);
}

TEST(GgdProcessClosure, SelfRowFallingToDeltaRecomputes) {
  GgdProcess p(P(4), false);
  closure_fixture(p);
  DependencyVector d;
  d.set(P(3), Timestamp::destruction(2));  // P3 drops its edge to P4
  (void)p.receive(vector_msg(P(3), P(4), d), roots({1}));
  EXPECT_EQ(settle(p).full, 1u);
  EXPECT_TRUE(p.vector_time().get(P(3)).is_delta());
  EXPECT_EQ(p.vector_time().get(P(2)), Timestamp{});
}

TEST(GgdProcessClosure, RefutationRecomputes) {
  GgdProcess p(P(4), false);
  closure_fixture(p);
  DependencyVector v3;
  v3.set(P(3), Timestamp::creation(1));
  GgdMessage reply = vector_msg(P(3), P(4), v3, v3);
  reply.reply = true;
  reply.has_out_edges = true;  // ... and P4 is not among them
  (void)p.receive(reply, roots({1}));
  ASSERT_TRUE(p.log().self_row().get(P(3)).destroyed());
  EXPECT_EQ(settle(p).full, 1u);
}

TEST(GgdProcessClosure, SelfRowFallingToALowerIndexRecomputes) {
  GgdProcess p(P(4), false);
  closure_fixture(p);
  p.log().self_row().set(P(3), Timestamp::creation(3));
  EXPECT_EQ(settle(p).full, 0u);
  p.log().self_row().set(P(3), Timestamp::creation(2));
  EXPECT_EQ(settle(p).full, 1u);
}

TEST(GgdProcessClosure, HistoryEntryTurningDeltaRecomputes) {
  GgdProcess p(P(4), false);
  closure_fixture(p);
  DependencyVector v3;
  v3.set(P(2), Timestamp::destruction(2));  // P3 lost its P2 history
  v3.set(P(3), Timestamp::creation(2));
  (void)p.receive(vector_msg(P(3), P(4), v3, v3), roots({1}));
  EXPECT_EQ(settle(p).full, 1u);
  EXPECT_EQ(p.vector_time().get(P(2)), Timestamp{});
  EXPECT_FALSE(p.vector_time().get(P(5)).is_delta());
}

TEST(GgdProcessClosure, DecertifiedRowRecomputes) {
  GgdProcess p(P(4), false);
  closure_fixture(p);
  p.decertify_row(P(3));
  EXPECT_EQ(settle(p).full, 1u);
  EXPECT_EQ(p.vector_time().get(P(5)), Timestamp{});
}

TEST(GgdProcessClosure, ImportedStateRecomputes) {
  GgdProcess p(P(4), false);
  closure_fixture(p);
  p.import_state(p.export_state());
  EXPECT_EQ(settle(p).full, 1u);
}

TEST(GgdProcessClosure, RetiredTombstoneRecomputes) {
  GgdProcess p(P(4), false);
  closure_fixture(p);
  DependencyVector d;
  d.set(P(3), Timestamp::destruction(2));
  (void)p.receive(vector_msg(P(3), P(4), d), roots({1}));
  ASSERT_TRUE(p.removed());
  (void)p.take_closure_counts();
  p.retire_tombstone();
  EXPECT_EQ(settle(p).full, 1u);
}

}  // namespace
}  // namespace cgc
