// Traffic-aware route-result cache for the serving path.
//
// ATIS traffic is highly repetitive — many travellers ask for the same
// (source, destination) pairs — so RouteServer memoises full PathResults in
// a sharded LRU. Correctness under live traffic comes from an epoch
// counter: every cached entry records the cost-model epoch it was computed
// under, a traffic update bumps the epoch (one atomic increment, no
// scanning), and a lookup that hits an older-epoch entry evicts it as
// stale instead of serving it. A result computed concurrently with an
// update is likewise dropped at insert time — its observed epoch no longer
// matches — so a stale path is never served, only recomputed. The epoch
// is the only invalidation rule.
//
// Sharding: entries hash to independent shards, each with its own mutex,
// LRU list, and capacity slice, so concurrent workers do not serialise on
// one lock. Thread-safe throughout.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/db_search.h"
#include "core/search_types.h"
#include "graph/graph.h"

namespace atis::core {

class RouteCache {
 public:
  struct Options {
    /// Total entries across all shards (>= 1 per shard after splitting).
    size_t capacity = 4096;
    /// Independent mutex+LRU shards; clamped to [1, capacity].
    size_t shards = 8;
  };

  /// Cache key: the query identity. The algorithm/version pair is part of
  /// the key because different versions report different stats and (for
  /// inadmissible estimators) may return different paths.
  struct Key {
    graph::NodeId source = 0;
    graph::NodeId destination = 0;
    Algorithm algorithm = Algorithm::kAStar;
    AStarVersion version = AStarVersion::kV3;

    bool operator==(const Key&) const = default;
  };

  /// Monotonic counters, aggregated over all shards.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;            ///< includes stale evictions
    uint64_t stale_evictions = 0;   ///< hits invalidated by an epoch bump
    uint64_t lru_evictions = 0;
    uint64_t insertions = 0;
    uint64_t stale_inserts_dropped = 0;
    uint64_t stale_serves = 0;      ///< stale entries handed out on purpose
  };

  struct LookupResult {
    std::optional<PathResult> result;  ///< engaged on a fresh hit
    bool stale_evicted = false;        ///< an entry died of old age here
  };

  struct StaleLookupResult {
    std::optional<PathResult> result;  ///< engaged on any hit, even stale
    bool stale = false;                ///< computed under an older epoch
  };

  RouteCache();  // default Options
  explicit RouteCache(Options options);

  RouteCache(const RouteCache&) = delete;
  RouteCache& operator=(const RouteCache&) = delete;

  /// Current cost-model epoch. Capture it *before* computing a result and
  /// pass it to Insert so results raced by a traffic update are dropped.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Invalidates every cached route (entries are evicted lazily on their
  /// next lookup). Call on any traffic/cost-model change.
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  /// Fresh lookup. A stale entry (older epoch) reports a miss; with
  /// `evict_stale` it is also dropped on the spot. Degraded-capable
  /// servers pass evict_stale=false so the entry survives as fallback
  /// material for LookupAllowStale until a successful recompute
  /// overwrites it.
  LookupResult Lookup(const Key& key, bool evict_stale = true);

  /// Degraded-mode lookup: returns the cached result even when a traffic
  /// update has bumped the epoch since it was computed, flagging it stale
  /// instead of evicting it. A stale-but-plausible route beats no route
  /// when the storage layer is failing; callers must surface the flag.
  StaleLookupResult LookupAllowStale(const Key& key);

  /// Caches `result` computed while `observed_epoch` (from epoch()) was
  /// current. Dropped when an epoch bump happened since.
  void Insert(const Key& key, uint64_t observed_epoch,
              const PathResult& result);

  Stats stats() const;
  size_t size() const;
  void Clear();

 private:
  struct Entry {
    Key key;
    uint64_t epoch = 0;
    PathResult result;
  };

  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    Stats stats;  // guarded by mu
  };

  Shard& ShardFor(const Key& key);

  std::atomic<uint64_t> epoch_{0};
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace atis::core
