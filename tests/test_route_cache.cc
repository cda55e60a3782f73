// Tests for core::RouteCache: LRU behaviour per shard, epoch
// invalidation (no stale route survives a traffic update), the
// racing-insert guard, and thread safety under concurrent mixed load.
#include "core/route_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace atis::core {
namespace {

RouteCache::Key Key(graph::NodeId s, graph::NodeId d) {
  RouteCache::Key k;
  k.source = s;
  k.destination = d;
  return k;
}

PathResult Route(double cost) {
  PathResult r;
  r.found = true;
  r.cost = cost;
  r.path = {0, 1};
  return r;
}

TEST(RouteCacheTest, MissThenHitRoundTripsTheResult) {
  RouteCache cache;
  const RouteCache::Key key = Key(1, 2);
  EXPECT_FALSE(cache.Lookup(key).result.has_value());
  cache.Insert(key, cache.epoch(), Route(42.0));
  auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.result.has_value());
  EXPECT_EQ(hit.result->cost, 42.0);
  EXPECT_EQ(hit.result->path, (std::vector<graph::NodeId>{0, 1}));

  const RouteCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RouteCacheTest, KeyIncludesAlgorithmAndVersion) {
  RouteCache cache;
  RouteCache::Key astar = Key(1, 2);
  RouteCache::Key dijkstra = Key(1, 2);
  dijkstra.algorithm = Algorithm::kDijkstra;
  RouteCache::Key v4 = Key(1, 2);
  v4.version = AStarVersion::kV4;

  cache.Insert(astar, cache.epoch(), Route(1.0));
  EXPECT_FALSE(cache.Lookup(dijkstra).result.has_value());
  EXPECT_FALSE(cache.Lookup(v4).result.has_value());
  EXPECT_TRUE(cache.Lookup(astar).result.has_value());
}

TEST(RouteCacheTest, BumpEpochInvalidatesEverything) {
  RouteCache cache;
  for (graph::NodeId i = 0; i < 10; ++i) {
    cache.Insert(Key(i, i + 1), cache.epoch(), Route(i));
  }
  EXPECT_EQ(cache.size(), 10u);
  cache.BumpEpoch();
  for (graph::NodeId i = 0; i < 10; ++i) {
    auto r = cache.Lookup(Key(i, i + 1));
    EXPECT_FALSE(r.result.has_value()) << "entry " << i;
    EXPECT_TRUE(r.stale_evicted) << "entry " << i;
  }
  EXPECT_EQ(cache.size(), 0u);  // stale entries evicted on contact
  const RouteCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.stale_evictions, 10u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 10u);  // stale lookups report as misses
}

TEST(RouteCacheTest, InsertWithStaleEpochIsDropped) {
  RouteCache cache;
  const uint64_t before = cache.epoch();
  cache.BumpEpoch();  // traffic update lands between compute and insert
  cache.Insert(Key(3, 4), before, Route(7.0));
  EXPECT_FALSE(cache.Lookup(Key(3, 4)).result.has_value());
  EXPECT_EQ(cache.stats().stale_inserts_dropped, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RouteCacheTest, ReinsertAfterBumpServesTheNewRoute) {
  RouteCache cache;
  cache.Insert(Key(5, 6), cache.epoch(), Route(10.0));
  cache.BumpEpoch();
  EXPECT_FALSE(cache.Lookup(Key(5, 6)).result.has_value());
  cache.Insert(Key(5, 6), cache.epoch(), Route(12.5));
  auto hit = cache.Lookup(Key(5, 6));
  ASSERT_TRUE(hit.result.has_value());
  EXPECT_EQ(hit.result->cost, 12.5);
}

TEST(RouteCacheTest, AllowStaleLookupOfAFreshEntryIsAHit) {
  RouteCache cache;
  EXPECT_FALSE(cache.LookupAllowStale(Key(1, 2)).result.has_value());
  cache.Insert(Key(1, 2), cache.epoch(), Route(3.0));
  auto hit = cache.LookupAllowStale(Key(1, 2));
  ASSERT_TRUE(hit.result.has_value());
  EXPECT_FALSE(hit.stale);
  EXPECT_EQ(hit.result->cost, 3.0);

  const RouteCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stale_serves, 0u);
}

TEST(RouteCacheTest, RecomputeOverwritesAKeptStaleEntry) {
  // A degraded-capable server keeps the stale entry as fallback; the
  // recompute under the new epoch overwrites it in place and it is
  // fresh again.
  RouteCache cache;
  cache.Insert(Key(1, 2), cache.epoch(), Route(1.0));
  cache.BumpEpoch();
  EXPECT_FALSE(cache.Lookup(Key(1, 2), /*evict_stale=*/false)
                   .result.has_value());
  EXPECT_EQ(cache.size(), 1u);

  cache.Insert(Key(1, 2), cache.epoch(), Route(1.5));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);  // overwritten, not added
  auto fallback = cache.LookupAllowStale(Key(1, 2));
  ASSERT_TRUE(fallback.result.has_value());
  EXPECT_FALSE(fallback.stale);
  auto hit = cache.Lookup(Key(1, 2));
  ASSERT_TRUE(hit.result.has_value());
  EXPECT_EQ(hit.result->cost, 1.5);
  EXPECT_EQ(cache.stats().stale_serves, 0u);
}

TEST(RouteCacheTest, CapacityEvictsLeastRecentlyUsed) {
  RouteCache::Options opt;
  opt.capacity = 4;
  opt.shards = 1;  // single shard makes the LRU order observable
  RouteCache cache(opt);
  for (graph::NodeId i = 0; i < 4; ++i) {
    cache.Insert(Key(i, 100), cache.epoch(), Route(i));
  }
  // Touch entry 0 so entry 1 becomes the eviction victim.
  EXPECT_TRUE(cache.Lookup(Key(0, 100)).result.has_value());
  cache.Insert(Key(9, 100), cache.epoch(), Route(9.0));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.Lookup(Key(1, 100)).result.has_value());
  EXPECT_TRUE(cache.Lookup(Key(0, 100)).result.has_value());
  EXPECT_TRUE(cache.Lookup(Key(9, 100)).result.has_value());
  EXPECT_EQ(cache.stats().lru_evictions, 1u);
}

TEST(RouteCacheTest, ReinsertSameKeyUpdatesInPlace) {
  RouteCache::Options opt;
  opt.capacity = 2;
  opt.shards = 1;
  RouteCache cache(opt);
  cache.Insert(Key(1, 2), cache.epoch(), Route(1.0));
  cache.Insert(Key(1, 2), cache.epoch(), Route(2.0));
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Lookup(Key(1, 2));
  ASSERT_TRUE(hit.result.has_value());
  EXPECT_EQ(hit.result->cost, 2.0);
}

TEST(RouteCacheTest, ClearEmptiesEveryShard) {
  RouteCache cache;
  for (graph::NodeId i = 0; i < 50; ++i) {
    cache.Insert(Key(i, 2 * i), cache.epoch(), Route(i));
  }
  EXPECT_GT(cache.size(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RouteCacheTest, DegenerateCapacityStillWorks) {
  RouteCache::Options opt;
  opt.capacity = 0;  // clamped to 1
  opt.shards = 64;   // clamped down to capacity
  RouteCache cache(opt);
  cache.Insert(Key(1, 2), cache.epoch(), Route(1.0));
  EXPECT_LE(cache.size(), 1u);
}

TEST(RouteCacheTest, ConcurrentMixedLoadKeepsCountsConsistent) {
  // Hammer the cache from several threads with overlapping keys, epoch
  // bumps included. Run under ATIS_SANITIZE=thread this is the data-race
  // check; in any build the counters must balance afterwards.
  RouteCache::Options opt;
  opt.capacity = 128;
  opt.shards = 4;
  RouteCache cache(opt);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  std::atomic<uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto s = static_cast<graph::NodeId>((t * 31 + i) % 97);
        const RouteCache::Key key = Key(s, s + 1);
        if (i % 101 == 0) {
          cache.BumpEpoch();
        }
        const uint64_t epoch = cache.epoch();
        auto r = cache.Lookup(key);
        if (r.result.has_value()) {
          observed_hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.Insert(key, epoch, Route(s));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const RouteCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(stats.stale_evictions, stats.misses);
  EXPECT_LE(cache.size(), 128u);
}

}  // namespace
}  // namespace atis::core
