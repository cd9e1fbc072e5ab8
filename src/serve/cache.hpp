// The versioned store behind every demand-filled serving cache.
//
// The distance service keeps three caches — root distance slices, exact
// point values banked by pruned waves, and the whole-graph analytics
// memo — and all three are the same thing: a bounded LRU map whose
// entries carry the graph version they were computed on.  One class
// template gives them one lookup (which fails closed on a stale stamp),
// one eviction policy, one set of counters and one invalidation hook.
//
// SPMD discipline: a miss triggers a collective wave, so residency
// decisions MUST be identical on every rank or the ranks deadlock on
// mismatched collectives.  Capacity is therefore counted in entries the
// caller derives from rank-independent quantities (the root store charges
// every slice the widest owned slice in the partition), and eviction is
// purely by LRU order — both pure functions of the call sequence, which
// the scheduler keeps identical across ranks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace g500::serve {

/// Store occupancy and effectiveness counters (per rank; identical across
/// ranks by the SPMD discipline above since nothing here is rank-local).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected = 0;   ///< inserts refused because capacity is 0
  /// Lookups that found an entry stamped with a different graph version;
  /// the entry is dropped and the lookup fails closed as a miss (also
  /// counted in `misses`).
  std::uint64_t version_misses = 0;
  std::size_t resident_entries = 0;
  std::size_t resident_bytes = 0;  ///< charged, not actual, bytes
  std::size_t capacity_entries = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const auto lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// A rank's owned slice of one root's distance vector.  Shared so an
/// extraction in flight survives the eviction of its entry by a later
/// insert in the same batch.
using Slice = std::shared_ptr<const std::vector<graph::Weight>>;

/// What one retain_if pass did.
struct RetainCounts {
  std::size_t kept = 0;     ///< entries restamped to the new version
  std::size_t dropped = 0;  ///< entries erased
};

/// Bounded LRU map Key -> Value whose entries are stamped with the graph
/// version they were computed on.
template <typename Key, typename Value>
class VersionedStore {
 public:
  /// At most `capacity` resident entries, each charged `entry_bytes` in
  /// stats().resident_bytes.  Capacity 0 refuses every insert.
  explicit VersionedStore(std::size_t capacity, std::size_t entry_bytes = 0)
      : capacity_(capacity), entry_bytes_(entry_bytes) {
    stats_.capacity_entries = capacity_;
  }

  /// Counts a hit or a miss; a hit refreshes recency.  An entry stamped
  /// with a version other than `version` FAILS CLOSED: it is dropped, the
  /// lookup counts a miss and a version_miss, and nullptr is returned — a
  /// stale value must never answer against a mutated graph.  The pointer
  /// is valid until the next non-const call.
  [[nodiscard]] const Value* lookup(const Key& key, std::uint64_t version) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    if (it->second->version != version) {
      erase(it);
      ++stats_.misses;
      ++stats_.version_misses;
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  /// Residency probe that touches neither recency nor the counters.
  [[nodiscard]] bool contains(const Key& key) const {
    return index_.find(key) != index_.end();
  }

  /// Make `key` the most recent entry, holding `value` stamped `version`.
  /// A new key evicts least-recently-used entries to fit and counts an
  /// insert; a resident key is overwritten in place and counts nothing.
  /// With capacity 0 the insert is refused (stats().rejected).
  void insert(const Key& key, Value value, std::uint64_t version) {
    if (capacity_ == 0) {
      ++stats_.rejected;
      return;
    }
    if (const auto it = index_.find(key); it != index_.end()) {
      it->second->value = std::move(value);
      it->second->version = version;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    while (lru_.size() >= capacity_) {
      erase(index_.find(lru_.back().key));
      ++stats_.evictions;
    }
    lru_.push_front(Entry{key, std::move(value), version});
    index_.emplace(key, lru_.begin());
    ++stats_.inserts;
    note_residency();
  }

  /// Resident keys, most recent first.  Deterministic across ranks by the
  /// SPMD discipline above.
  [[nodiscard]] std::vector<Key> keys() const {
    std::vector<Key> out;
    out.reserve(lru_.size());
    for (const auto& entry : lru_) out.push_back(entry.key);
    return out;
  }

  /// Visit every resident (key, value), least recent first — the order in
  /// which re-inserting them rebuilds the same recency.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      fn(it->key, it->value);
    }
  }

  /// The one invalidation hook: restamp every entry whose key passes
  /// `keep` to `version` (recency unchanged) and drop the rest.  Drops
  /// are not evictions; the caller accounts them from the result.
  template <typename Keep>
  RetainCounts retain_if(Keep&& keep, std::uint64_t version) {
    RetainCounts counts;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (keep(it->key)) {
        it->version = version;
        ++counts.kept;
        ++it;
      } else {
        index_.erase(it->key);
        it = lru_.erase(it);
        ++counts.dropped;
      }
    }
    note_residency();
    return counts;
  }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  /// Zero the effectiveness counters, keeping residency (warm restarts).
  void reset_counters() {
    CacheStats fresh;
    fresh.resident_entries = stats_.resident_entries;
    fresh.resident_bytes = stats_.resident_bytes;
    fresh.capacity_entries = stats_.capacity_entries;
    stats_ = fresh;
  }

 private:
  struct Entry {
    Key key;
    Value value;
    std::uint64_t version = 0;  ///< graph version the value was computed on
  };
  using Index = std::map<Key, typename std::list<Entry>::iterator>;

  void erase(typename Index::iterator it) {
    lru_.erase(it->second);
    index_.erase(it);
    note_residency();
  }

  void note_residency() {
    stats_.resident_entries = lru_.size();
    stats_.resident_bytes = lru_.size() * entry_bytes_;
  }

  std::size_t capacity_;
  std::size_t entry_bytes_;
  std::list<Entry> lru_;  ///< front = most recent
  Index index_;
  CacheStats stats_;
};

}  // namespace g500::serve
