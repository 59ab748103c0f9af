// The benchmark's own reference graph: the ground truth every simulator
// workload is checked against, kept apart from the program.
//
// Edges are references that have arrived: the graph learns them from the
// wire::RefTransfer messages the benchmark's own mailboxes see (each
// transfer counted once, by transfer_id), never from engine hooks. A
// reference the mutator has sent but that has not arrived is a pending
// grant; a drop removes a held edge at once.
//
// The graph serves three purposes:
//   * legal op selection: actors are reachable from a root over arrived
//     edges, forwarded and dropped references are held, and a reference
//     is never granted to a holder that has it or has it in flight;
//   * safety: at every quiescent point (and, on fault-free workloads, at
//     every removal) no removed process is reachable;
//   * completeness: after the final sweeps, the removed set equals the set
//     of unreachable non-roots.
// It also stamps, at each quiescent point, the moment a process is first
// seen unreachable; a removal turns that stamp into a latency sample.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench {

class RefGraph {
 public:
  static constexpr std::uint64_t kNever = UINT64_MAX;

  /// `lossy`: packets may be lost, so a pending grant is only known to be
  /// an in-flight reference until the next quiescent point settles it.
  explicit RefGraph(bool lossy) : lossy_(lossy) {}

  /// Ids are dense and start at 1 (id 0 is never used).
  void add_process(std::uint64_t id, bool is_root);

  [[nodiscard]] bool holds(std::uint64_t holder, std::uint64_t target) const;
  /// True when `holder` holds `target` or a grant of it is in flight.
  [[nodiscard]] bool has_or_awaits(std::uint64_t holder,
                                   std::uint64_t target) const;
  [[nodiscard]] const std::vector<std::uint32_t>& held(
      std::uint64_t holder) const {
    return out_[holder];
  }
  /// Processes holding an arrived reference to `target`.
  [[nodiscard]] const std::vector<std::uint32_t>& holders(
      std::uint64_t target) const {
    return in_[target];
  }
  [[nodiscard]] bool is_root(std::uint64_t id) const { return root_[id] != 0; }
  [[nodiscard]] bool is_removed(std::uint64_t id) const {
    return removed_[id] != 0;
  }
  [[nodiscard]] std::size_t size() const { return root_.size() - 1; }

  /// The mutator sent a reference to `subject` towards `recipient`.
  void grant(std::uint64_t recipient, std::uint64_t subject);
  /// A RefTransfer arrived; duplicates (same transfer_id) are ignored.
  void on_transfer(std::uint64_t transfer_id, std::uint64_t recipient,
                   std::uint64_t subject);
  /// The mutator dropped its reference (the edge must be held).
  void drop(std::uint64_t holder, std::uint64_t target);

  /// Processes reachable from a root over arrived edges: the only legal
  /// actors. Recomputed lazily after a drop or an arrival.
  const std::vector<std::uint32_t>& actors();
  [[nodiscard]] bool is_actor(std::uint64_t id);

  /// Quiescent point at simulated time `now`: on lossy workloads every
  /// grant still pending is lost; then reachability over arrived and
  /// pending edges is recomputed, first-unreachable stamps are set and
  /// safety is checked.
  void quiescent(std::uint64_t now, bool network_drained);

  /// The program removed `id` at simulated time `now`.
  void on_removed(std::uint64_t id, std::uint64_t now);

  /// Completeness after the final sweeps (the network must be drained).
  void check_complete(std::uint64_t now);

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  /// Removal latency samples, one per removed process, in ticks.
  [[nodiscard]] const std::vector<std::uint64_t>& latencies() const {
    return latencies_;
  }
  [[nodiscard]] std::uint64_t removed_count() const { return removed_count_; }
  [[nodiscard]] std::uint64_t pending_count() const {
    return pending_.size();
  }

 private:
  static std::uint64_t key(std::uint64_t a, std::uint64_t b) {
    return (a << 32) | b;
  }
  /// Marks everything reachable from the roots into `mark`; with
  /// `with_pending`, in-flight grants count as edges too.
  void reach(std::vector<std::uint8_t>& mark, bool with_pending,
             std::vector<std::uint32_t>* list);
  void violation(std::string msg);

  bool lossy_;
  std::vector<std::uint8_t> root_{0};
  std::vector<std::uint8_t> removed_{0};
  std::vector<std::uint64_t> onset_{kNever};
  std::vector<std::vector<std::uint32_t>> out_{{}};      // arrived edges
  std::vector<std::vector<std::uint32_t>> in_{{}};       // their reverse
  std::vector<std::vector<std::uint32_t>> pending_out_{{}};
  std::unordered_set<std::uint64_t> pending_;  // key(recipient, subject)
  std::unordered_set<std::uint64_t> seen_transfers_;
  std::vector<std::uint32_t> roots_;

  std::vector<std::uint8_t> live_mark_;  // reachable over arrived edges
  std::vector<std::uint32_t> actors_;
  bool actors_dirty_ = true;
  /// Reachable over arrived + pending edges at the last quiescent point.
  std::vector<std::uint8_t> all_mark_;
  bool all_dirty_ = true;
  std::vector<std::uint32_t> stack_;

  /// Removals seen before any quiescent point showed the process
  /// unreachable (possible only when its last reference was lost in
  /// flight); resolved at the next quiescent point.
  std::vector<std::uint32_t> unresolved_;
  std::vector<std::uint64_t> latencies_;
  std::uint64_t removed_count_ = 0;
  std::vector<std::string> violations_;
};

/// Feeds the graph a removal of a reachable process and leaves an
/// unreachable one behind, and returns true when both are reported as
/// violations (and a correct history reports none).
bool refgraph_self_test(std::string* detail);

}  // namespace perfbench
