#include "core/route_cache.h"

#include <algorithm>
#include <functional>

namespace atis::core {

namespace {

size_t MixHash(size_t seed, size_t v) {
  // boost::hash_combine mixing constant (golden-ratio based).
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t RouteCache::KeyHash::operator()(const Key& k) const {
  size_t h = std::hash<int64_t>{}(static_cast<int64_t>(k.source));
  h = MixHash(h, std::hash<int64_t>{}(static_cast<int64_t>(k.destination)));
  h = MixHash(h, static_cast<size_t>(k.algorithm));
  h = MixHash(h, static_cast<size_t>(k.version));
  return h;
}

RouteCache::RouteCache() : RouteCache(Options{}) {}

RouteCache::RouteCache(Options options) {
  const size_t capacity = std::max<size_t>(1, options.capacity);
  const size_t shards =
      std::max<size_t>(1, std::min(options.shards, capacity));
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

RouteCache::Shard& RouteCache::ShardFor(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

RouteCache::LookupResult RouteCache::Lookup(const Key& key,
                                            bool evict_stale) {
  const uint64_t now = epoch();
  Shard& shard = ShardFor(key);
  LookupResult out;
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return out;
  }
  if (it->second->epoch != now) {
    // Computed under an older cost model: report a miss so the caller
    // recomputes under the current one, and (unless the entry is being
    // kept as degraded-mode fallback material) evict it.
    ++shard.stats.misses;
    if (evict_stale) {
      shard.lru.erase(it->second);
      shard.index.erase(it);
      ++shard.stats.stale_evictions;
      out.stale_evicted = true;
    }
    return out;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.stats.hits;
  out.result = it->second->result;
  return out;
}

RouteCache::StaleLookupResult RouteCache::LookupAllowStale(const Key& key) {
  const uint64_t now = epoch();
  Shard& shard = ShardFor(key);
  StaleLookupResult out;
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return out;
  }
  // The entry survives (and keeps its recency) even when stale: a later
  // healthy query for the same key still evicts-and-recomputes via
  // Lookup(), so staleness never outlives the outage plus one hit.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  out.result = it->second->result;
  out.stale = it->second->epoch != now;
  if (out.stale) {
    ++shard.stats.stale_serves;
  } else {
    ++shard.stats.hits;
  }
  return out;
}

void RouteCache::Insert(const Key& key, uint64_t observed_epoch,
                        const PathResult& result) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Epoch check under the shard lock: a result computed before a traffic
  // update (and raced past it) must not be cached. Re-reading epoch()
  // here is safe because BumpEpoch happens-before any lookup that must
  // not see the stale entry.
  if (epoch() != observed_epoch) {
    ++shard.stats.stale_inserts_dropped;
    return;
  }
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->epoch = observed_epoch;
    it->second->result = result;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, observed_epoch, result});
  shard.index.emplace(key, shard.lru.begin());
  ++shard.stats.insertions;
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.stats.lru_evictions;
  }
}

RouteCache::Stats RouteCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.stale_evictions += shard->stats.stale_evictions;
    total.lru_evictions += shard->stats.lru_evictions;
    total.insertions += shard->stats.insertions;
    total.stale_inserts_dropped += shard->stats.stale_inserts_dropped;
    total.stale_serves += shard->stats.stale_serves;
  }
  return total;
}

size_t RouteCache::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->lru.size();
  }
  return n;
}

void RouteCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

}  // namespace atis::core
