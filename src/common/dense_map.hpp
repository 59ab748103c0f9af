// Open-addressing hash tables for engine-sized lookup tables.
//
// `DenseMap` is a power-of-two, linear-probing table with one byte of
// slot metadata: the membership tables the engines key on sparse 64-bit
// ids (site of a process, applied transfer ids, per-site counters) are
// pure point lookups, so the ordered iteration a `std::map` paid pointer
// chasing for bought nothing. Anything whose ITERATION order is
// wire-observable must stay on the sorted containers (`FlatMap`); this
// table deliberately does not promise a useful iteration order.
//
// Erase uses tombstones; the table rehashes when live+dead slots exceed
// 7/8 of capacity, which bounds probe lengths without backshift
// complexity. All operations are deterministic for a given operation
// sequence — same inserts, same slots — so using these tables never
// perturbs a seeded run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace cgc {

/// Hash adaptor: std::hash for most keys, splitmix finalisation for
/// pairs (used by per-(src,dst) channel and per-edge tables).
template <typename K>
struct DenseHash {
  [[nodiscard]] std::size_t operator()(const K& k) const {
    return std::hash<K>{}(k);
  }
};

template <typename A, typename B>
struct DenseHash<std::pair<A, B>> {
  [[nodiscard]] std::size_t operator()(const std::pair<A, B>& p) const {
    std::uint64_t x = static_cast<std::uint64_t>(DenseHash<A>{}(p.first));
    x ^= static_cast<std::uint64_t>(DenseHash<B>{}(p.second)) +
         0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

template <typename K, typename V, typename Hash = DenseHash<K>>
class DenseMap {
 public:
  DenseMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    state_.clear();
    size_ = 0;
    used_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = 16;
    while (cap * 7 < n * 8) {
      cap *= 2;
    }
    if (cap > state_.size()) {
      rehash(cap);
    }
  }

  [[nodiscard]] V* find(const K& key) {
    const std::size_t idx = probe(key);
    return idx == kNpos ? nullptr : &slots_[idx].second;
  }
  [[nodiscard]] const V* find(const K& key) const {
    const std::size_t idx = probe(key);
    return idx == kNpos ? nullptr : &slots_[idx].second;
  }
  [[nodiscard]] bool contains(const K& key) const {
    return probe(key) != kNpos;
  }

  V& operator[](const K& key) { return *emplace(key).first; }

  [[nodiscard]] const V& at(const K& key) const {
    const V* v = find(key);
    CGC_CHECK_MSG(v != nullptr, "DenseMap::at: key absent");
    return *v;
  }

  /// Returns (pointer to value, inserted?). The value is
  /// default-constructed on first insertion.
  std::pair<V*, bool> emplace(const K& key, V value = V{}) {
    grow_if_needed();
    std::size_t idx = index_of(key);
    std::size_t insert_at = kNpos;
    while (state_[idx] != kEmpty) {
      if (state_[idx] == kFull && slots_[idx].first == key) {
        return {&slots_[idx].second, false};
      }
      if (state_[idx] == kTomb && insert_at == kNpos) {
        insert_at = idx;
      }
      idx = (idx + 1) & (state_.size() - 1);
    }
    if (insert_at == kNpos) {
      insert_at = idx;
      ++used_;
    }
    state_[insert_at] = kFull;
    slots_[insert_at].first = key;
    slots_[insert_at].second = std::move(value);
    ++size_;
    return {&slots_[insert_at].second, true};
  }

  bool erase(const K& key) {
    const std::size_t idx = probe(key);
    if (idx == kNpos) {
      return false;
    }
    state_[idx] = kTomb;
    slots_[idx].second = V{};
    --size_;
    return true;
  }

  /// Unordered visitation (metrics/aggregation only — never feed this
  /// into anything wire-observable).
  template <typename Fn>
  void for_each(Fn fn) const {
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == kFull) {
        fn(slots_[i].first, slots_[i].second);
      }
    }
  }

 private:
  static constexpr std::size_t kNpos = ~std::size_t{0};
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kTomb = 2;

  [[nodiscard]] std::size_t index_of(const K& key) const {
    return Hash{}(key) & (state_.size() - 1);
  }

  [[nodiscard]] std::size_t probe(const K& key) const {
    if (state_.empty()) {
      return kNpos;
    }
    std::size_t idx = index_of(key);
    while (state_[idx] != kEmpty) {
      if (state_[idx] == kFull && slots_[idx].first == key) {
        return idx;
      }
      idx = (idx + 1) & (state_.size() - 1);
    }
    return kNpos;
  }

  void grow_if_needed() {
    if (state_.empty()) {
      rehash(16);
    } else if ((used_ + 1) * 8 >= state_.size() * 7) {
      // Live entries decide the new size: a tombstone-heavy table shrinks
      // its probe chains by rehashing in place at the same capacity.
      rehash(size_ * 2 >= state_.size() ? state_.size() * 2 : state_.size());
    }
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::pair<K, V>> old_slots;
    std::vector<std::uint8_t> old_state;
    old_slots.swap(slots_);
    old_state.swap(state_);
    slots_.resize(new_cap);
    state_.assign(new_cap, kEmpty);
    size_ = 0;
    used_ = 0;
    for (std::size_t i = 0; i < old_state.size(); ++i) {
      if (old_state[i] == kFull) {
        std::size_t idx = index_of(old_slots[i].first);
        while (state_[idx] != kEmpty) {
          idx = (idx + 1) & (state_.size() - 1);
        }
        state_[idx] = kFull;
        slots_[idx] = std::move(old_slots[i]);
        ++size_;
        ++used_;
      }
    }
  }

  std::vector<std::pair<K, V>> slots_;
  std::vector<std::uint8_t> state_;
  std::size_t size_ = 0;
  std::size_t used_ = 0;  // full + tombstone slots
};

/// Membership-only variant.
template <typename K, typename Hash = DenseHash<K>>
class DenseSet {
 public:
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  /// True when newly inserted.
  bool insert(const K& key) { return map_.emplace(key).second; }
  [[nodiscard]] bool contains(const K& key) const {
    return map_.contains(key);
  }
  bool erase(const K& key) { return map_.erase(key); }

 private:
  struct Unit {};
  DenseMap<K, Unit, Hash> map_;
};

/// Reusable membership marks for one traversal at a time: `reset()`
/// starts a new traversal in O(1) by advancing an epoch stamp instead of
/// clearing slots, so a long-lived scratch instance (a walk's visited
/// set) costs no allocation or clearing per use once it has grown to the
/// largest traversal. Linear probing, no erase.
template <typename K, typename Hash = DenseHash<K>>
class EpochSet {
 public:
  void reset() {
    if (++epoch_ == 0) {
      // Stamp wrap-around: only now must old marks really be cleared.
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
    size_ = 0;
  }

  [[nodiscard]] bool contains(const K& key) const {
    if (stamps_.empty()) {
      return false;
    }
    std::size_t idx = Hash{}(key) & (stamps_.size() - 1);
    while (stamps_[idx] == epoch_) {
      if (keys_[idx] == key) {
        return true;
      }
      idx = (idx + 1) & (stamps_.size() - 1);
    }
    return false;
  }

  /// True when newly marked in this traversal.
  bool insert(const K& key) {
    if ((size_ + 1) * 2 > stamps_.size()) {
      grow();
    }
    std::size_t idx = Hash{}(key) & (stamps_.size() - 1);
    while (stamps_[idx] == epoch_) {
      if (keys_[idx] == key) {
        return false;
      }
      idx = (idx + 1) & (stamps_.size() - 1);
    }
    stamps_[idx] = epoch_;
    keys_[idx] = key;
    ++size_;
    return true;
  }

 private:
  void grow() {
    std::vector<K> marked;
    marked.reserve(size_);
    for (std::size_t i = 0; i < stamps_.size(); ++i) {
      if (stamps_[i] == epoch_) {
        marked.push_back(keys_[i]);
      }
    }
    const std::size_t cap = stamps_.empty() ? 32 : stamps_.size() * 2;
    keys_.assign(cap, K{});
    stamps_.assign(cap, 0u);
    size_ = 0;
    for (const K& key : marked) {
      insert(key);
    }
  }

  std::vector<K> keys_;
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 1;
  std::size_t size_ = 0;
};

}  // namespace cgc
