#include "refgraph.hpp"

#include <algorithm>

namespace perfbench {

namespace {

bool erase_one(std::vector<std::uint32_t>& v, std::uint64_t x) {
  const auto it = std::find(v.begin(), v.end(), x);
  if (it == v.end()) {
    return false;
  }
  *it = v.back();
  v.pop_back();
  return true;
}

}  // namespace

void RefGraph::add_process(std::uint64_t id, bool is_root) {
  if (id != root_.size()) {
    violation("process ids must be dense: got " + std::to_string(id));
    return;
  }
  root_.push_back(is_root ? 1 : 0);
  removed_.push_back(0);
  onset_.push_back(kNever);
  out_.emplace_back();
  in_.emplace_back();
  pending_out_.emplace_back();
  if (is_root) {
    roots_.push_back(static_cast<std::uint32_t>(id));
  }
  actors_dirty_ = true;
  all_dirty_ = true;
}

bool RefGraph::holds(std::uint64_t holder, std::uint64_t target) const {
  const auto& v = out_[holder];
  return std::find(v.begin(), v.end(), target) != v.end();
}

bool RefGraph::has_or_awaits(std::uint64_t holder,
                             std::uint64_t target) const {
  return holds(holder, target) || pending_.count(key(holder, target)) != 0;
}

void RefGraph::grant(std::uint64_t recipient, std::uint64_t subject) {
  if (!pending_.insert(key(recipient, subject)).second ||
      holds(recipient, subject)) {
    violation("reference " + std::to_string(subject) + " granted twice to " +
              std::to_string(recipient));
    return;
  }
  pending_out_[recipient].push_back(static_cast<std::uint32_t>(subject));
  all_dirty_ = true;
}

void RefGraph::on_transfer(std::uint64_t transfer_id, std::uint64_t recipient,
                           std::uint64_t subject) {
  if (!seen_transfers_.insert(transfer_id).second) {
    return;  // a duplicated packet: the reference arrived once
  }
  if (pending_.erase(key(recipient, subject)) == 0) {
    violation("transfer " + std::to_string(transfer_id) +
              " carries a reference the mutator never sent");
    return;
  }
  erase_one(pending_out_[recipient], subject);
  out_[recipient].push_back(static_cast<std::uint32_t>(subject));
  in_[subject].push_back(static_cast<std::uint32_t>(recipient));
  actors_dirty_ = true;
}

void RefGraph::drop(std::uint64_t holder, std::uint64_t target) {
  if (!erase_one(out_[holder], target)) {
    violation("drop of a reference not held: " + std::to_string(holder) +
              " -> " + std::to_string(target));
    return;
  }
  erase_one(in_[target], holder);
  actors_dirty_ = true;
  all_dirty_ = true;
}

void RefGraph::reach(std::vector<std::uint8_t>& mark, bool with_pending,
                     std::vector<std::uint32_t>* list) {
  mark.assign(root_.size(), 0);
  if (list != nullptr) {
    list->clear();
  }
  stack_.assign(roots_.begin(), roots_.end());
  for (std::uint32_t r : roots_) {
    mark[r] = 1;
  }
  while (!stack_.empty()) {
    const std::uint32_t v = stack_.back();
    stack_.pop_back();
    if (list != nullptr && removed_[v] == 0) {
      list->push_back(v);
    }
    for (std::uint32_t w : out_[v]) {
      if (mark[w] == 0) {
        mark[w] = 1;
        stack_.push_back(w);
      }
    }
    if (with_pending) {
      for (std::uint32_t w : pending_out_[v]) {
        if (mark[w] == 0) {
          mark[w] = 1;
          stack_.push_back(w);
        }
      }
    }
  }
}

bool RefGraph::is_actor(std::uint64_t id) {
  actors();
  return id < live_mark_.size() && live_mark_[id] != 0 && removed_[id] == 0;
}

const std::vector<std::uint32_t>& RefGraph::actors() {
  if (actors_dirty_) {
    reach(live_mark_, /*with_pending=*/false, &actors_);
    actors_dirty_ = false;
  }
  return actors_;
}

void RefGraph::quiescent(std::uint64_t now, bool network_drained) {
  if (lossy_ && network_drained && !pending_.empty()) {
    // Nothing is in flight any more: every grant still pending was lost.
    pending_.clear();
    for (auto& v : pending_out_) {
      v.clear();
    }
    all_dirty_ = true;
  }
  if (!all_dirty_ && unresolved_.empty()) {
    return;
  }
  reach(all_mark_, /*with_pending=*/true, nullptr);
  all_dirty_ = false;
  for (std::size_t id = 1; id < root_.size(); ++id) {
    if (all_mark_[id] != 0) {
      if (removed_[id] != 0) {
        violation("removed process " + std::to_string(id) +
                  " is reachable at t=" + std::to_string(now));
      }
    } else if (root_[id] == 0 && removed_[id] == 0 && onset_[id] == kNever) {
      onset_[id] = now;
    }
  }
  for (std::uint32_t id : unresolved_) {
    if (all_mark_[id] == 0) {
      // Its last reference was lost in flight and the program saw that
      // before the graph could: the removal followed the onset at once.
      // (A reachable one was reported by the loop above.)
      latencies_.push_back(0);
    }
  }
  unresolved_.clear();
}

void RefGraph::on_removed(std::uint64_t id, std::uint64_t now) {
  if (id == 0 || id >= root_.size()) {
    violation("removal of an unknown process " + std::to_string(id));
    return;
  }
  if (removed_[id] != 0) {
    violation("process " + std::to_string(id) + " removed twice");
    return;
  }
  removed_[id] = 1;
  ++removed_count_;
  actors_dirty_ = true;
  if (root_[id] != 0) {
    violation("root " + std::to_string(id) + " removed");
    return;
  }
  const bool stamped = id < all_mark_.size() && !all_dirty_;
  if (!lossy_ && stamped && all_mark_[id] != 0) {
    // Fault-free: every pending grant will arrive, so reachability over
    // arrived + pending edges is exact for the whole drain.
    violation("process " + std::to_string(id) + " removed while reachable" +
              " at t=" + std::to_string(now));
    return;
  }
  if (onset_[id] != kNever) {
    latencies_.push_back(now - onset_[id]);
  } else if (lossy_) {
    unresolved_.push_back(static_cast<std::uint32_t>(id));
  } else {
    violation("process " + std::to_string(id) + " removed at t=" +
              std::to_string(now) + " before any quiescent point showed it "
              "unreachable");
  }
}

void RefGraph::check_complete(std::uint64_t now) {
  quiescent(now, /*network_drained=*/true);
  if (!pending_.empty()) {
    violation(std::to_string(pending_.size()) +
              " references still in flight after the final drain");
  }
  for (std::size_t id = 1; id < root_.size(); ++id) {
    if (root_[id] == 0 && removed_[id] == 0 && all_mark_[id] == 0) {
      violation("unreachable process " + std::to_string(id) +
                " never removed (incomplete)");
    }
  }
}

void RefGraph::violation(std::string msg) {
  if (violations_.size() < 16) {
    violations_.push_back(std::move(msg));
  } else if (violations_.size() == 16) {
    violations_.push_back("... further violations suppressed");
  }
}

bool refgraph_self_test(std::string* detail) {
  // root 1 holds 2 and 3; 1 drops 3, so 3 is garbage and 2 is live.
  const auto history = [](RefGraph& g) {
    g.add_process(1, true);
    g.add_process(2, false);
    g.add_process(3, false);
    g.grant(1, 2);
    g.grant(1, 3);
    g.on_transfer(1, 1, 2);
    g.on_transfer(2, 1, 3);
    g.on_transfer(2, 1, 3);  // duplicate delivery, counted once
    g.drop(1, 3);
    g.quiescent(10, true);
  };
  RefGraph good(false);
  history(good);
  good.on_removed(3, 14);
  good.check_complete(20);
  RefGraph bad(false);
  history(bad);
  bad.on_removed(2, 14);  // unsafe: 2 is reachable
  bad.check_complete(20);  // incomplete: 3 is left behind
  const auto& v = bad.violations();
  const bool unsafe_seen =
      std::any_of(v.begin(), v.end(), [](const std::string& s) {
        return s.find("removed while reachable") != std::string::npos;
      });
  const bool incomplete_seen =
      std::any_of(v.begin(), v.end(), [](const std::string& s) {
        return s.find("never removed") != std::string::npos;
      });
  const bool clean = good.violations().empty() &&
                     good.latencies() == std::vector<std::uint64_t>{4};
  if (detail != nullptr) {
    *detail = std::string("correct history accepted: ") +
              (clean ? "yes" : "NO") + "; unsafe removal rejected: " +
              (unsafe_seen ? "yes" : "NO") + "; leftover garbage rejected: " +
              (incomplete_seen ? "yes" : "NO");
  }
  return clean && unsafe_seen && incomplete_seen;
}

}  // namespace perfbench
