#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <list>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "util/random.h"

namespace atis::storage {
namespace {

TEST(BufferPoolTest, NewPagePinsAndWrites) {
  DiskManager dm;
  BufferPool pool(&dm, 4);
  auto guard = pool.NewPage();
  ASSERT_TRUE(guard.ok());
  guard->MutablePage().WriteAt<int32_t>(0, 77);
  const PageId id = guard->id();
  guard->Release();
  ASSERT_TRUE(pool.FlushPage(id).ok());
  Page p;
  ASSERT_TRUE(dm.ReadPage(id, &p).ok());
  EXPECT_EQ(p.ReadAt<int32_t>(0), 77);
}

TEST(BufferPoolTest, FetchHitDoesNotTouchDisk) {
  DiskManager dm;
  BufferPool pool(&dm, 4);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  const PageId id = g->id();
  g->Release();
  const uint64_t reads_before = dm.meter().counters().blocks_read;
  auto g2 = pool.FetchPage(id);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(dm.meter().counters().blocks_read, reads_before);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, MissReadsFromDisk) {
  DiskManager dm;
  const PageId id = dm.AllocatePage();
  Page p;
  p.WriteAt<int32_t>(0, 5);
  ASSERT_TRUE(dm.WritePage(id, p).ok());
  BufferPool pool(&dm, 4);
  auto g = pool.FetchPage(id);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->page().ReadAt<int32_t>(0), 5);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, LruEvictsColdestUnpinned) {
  DiskManager dm;
  BufferPool pool(&dm, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 2; ++i) {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    g->MutablePage().WriteAt<int32_t>(0, i);
    ids.push_back(g->id());
  }
  // Touch ids[1] so ids[0] is coldest.
  { auto g = pool.FetchPage(ids[1]); ASSERT_TRUE(g.ok()); }
  auto g3 = pool.NewPage();
  ASSERT_TRUE(g3.ok());
  EXPECT_EQ(pool.stats().evictions, 1u);
  // ids[0] must have been written back before eviction.
  Page p;
  ASSERT_TRUE(dm.ReadPage(ids[0], &p).ok());
  EXPECT_EQ(p.ReadAt<int32_t>(0), 0);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  DiskManager dm;
  BufferPool pool(&dm, 2);
  auto g1 = pool.NewPage();
  auto g2 = pool.NewPage();
  ASSERT_TRUE(g1.ok() && g2.ok());
  // All frames pinned: a third page cannot be placed.
  auto g3 = pool.NewPage();
  EXPECT_FALSE(g3.ok());
  EXPECT_EQ(g3.status().code(), StatusCode::kResourceExhausted);
}

TEST(BufferPoolTest, GuardMoveTransfersPin) {
  DiskManager dm;
  BufferPool pool(&dm, 1);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  PageGuard moved = std::move(g).value();
  EXPECT_TRUE(moved.valid());
  moved.Release();
  // Frame free again: next NewPage succeeds.
  auto g2 = pool.NewPage();
  EXPECT_TRUE(g2.ok());
}

TEST(BufferPoolTest, EvictAllFlushesAndEmpties) {
  DiskManager dm;
  BufferPool pool(&dm, 4);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  g->MutablePage().WriteAt<int32_t>(0, 9);
  const PageId id = g->id();
  g->Release();
  ASSERT_TRUE(pool.EvictAll().ok());
  EXPECT_EQ(pool.num_cached(), 0u);
  Page p;
  ASSERT_TRUE(dm.ReadPage(id, &p).ok());
  EXPECT_EQ(p.ReadAt<int32_t>(0), 9);
  // Re-fetch is a miss (charged read): statement-at-a-time semantics.
  const uint64_t reads = dm.meter().counters().blocks_read;
  auto g2 = pool.FetchPage(id);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(dm.meter().counters().blocks_read, reads + 1);
}

TEST(BufferPoolTest, EvictAllFailsWithPinnedPage) {
  DiskManager dm;
  BufferPool pool(&dm, 4);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(pool.EvictAll().code(), StatusCode::kFailedPrecondition);
}

TEST(BufferPoolTest, FlushAllWritesDirtyOnly) {
  DiskManager dm;
  BufferPool pool(&dm, 4);
  auto g1 = pool.NewPage();
  ASSERT_TRUE(g1.ok());
  const PageId id = g1->id();
  g1->Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  const uint64_t writes = dm.meter().counters().blocks_written;
  ASSERT_TRUE(pool.FlushAll().ok());  // nothing dirty now
  EXPECT_EQ(dm.meter().counters().blocks_written, writes);
  (void)id;
}

TEST(BufferPoolTest, DeletePageRemovesFromCacheAndDisk) {
  DiskManager dm;
  BufferPool pool(&dm, 4);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  const PageId id = g->id();
  g->Release();
  ASSERT_TRUE(pool.DeletePage(id).ok());
  EXPECT_FALSE(pool.FetchPage(id).ok());
  EXPECT_EQ(dm.num_allocated(), 0u);
}

TEST(BufferPoolTest, DeletePinnedPageFails) {
  DiskManager dm;
  BufferPool pool(&dm, 4);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(pool.DeletePage(g->id()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(BufferPoolTest, RefetchAfterEvictionSeesLatestData) {
  DiskManager dm;
  BufferPool pool(&dm, 1);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  const PageId first = g->id();
  g->MutablePage().WriteAt<int32_t>(0, 31);
  g->Release();
  auto g2 = pool.NewPage();  // evicts `first`
  ASSERT_TRUE(g2.ok());
  g2->Release();
  auto g3 = pool.FetchPage(first);
  ASSERT_TRUE(g3.ok());
  EXPECT_EQ(g3->page().ReadAt<int32_t>(0), 31);
}

TEST(BufferPoolTest, CapacityZeroClampedToOne) {
  DiskManager dm;
  BufferPool pool(&dm, 0);
  EXPECT_EQ(pool.capacity(), 1u);
  auto g = pool.NewPage();
  EXPECT_TRUE(g.ok());
}

TEST(BufferPoolTest, ManyPagesThroughSmallPool) {
  DiskManager dm;
  BufferPool pool(&dm, 3);
  std::vector<PageId> ids;
  for (int i = 0; i < 50; ++i) {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    g->MutablePage().WriteAt<int32_t>(0, i);
    ids.push_back(g->id());
  }
  for (int i = 0; i < 50; ++i) {
    auto g = pool.FetchPage(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page().ReadAt<int32_t>(0), i);
  }
}

// Regression: the move constructor used to delegate to operator=, reading
// the half-initialised destination. Move must leave the source inert so
// the pin is released exactly once.
TEST(BufferPoolTest, GuardMoveConstructorLeavesSourceInert) {
  DiskManager dm;
  BufferPool pool(&dm, 1);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  PageGuard a = std::move(g).value();
  const PageId id = a.id();
  PageGuard b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(a.id(), kInvalidPageId);
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(b.id(), id);
  a.Release();  // releasing a moved-from guard must be a no-op
  // The pin is still held by b: the only frame cannot be taken.
  EXPECT_EQ(pool.NewPage().status().code(), StatusCode::kResourceExhausted);
  b.Release();
  EXPECT_TRUE(pool.NewPage().ok());
}

// Launders the reference so -Wself-move does not reject the intentional
// self-move below.
template <typename T>
T& Self(T& t) {
  return t;
}

TEST(BufferPoolTest, GuardSelfMoveAssignIsSafe) {
  DiskManager dm;
  BufferPool pool(&dm, 1);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  PageGuard a = std::move(g).value();
  const PageId id = a.id();
  a = std::move(Self(a));
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(a.id(), id);
  a.Release();
  EXPECT_TRUE(pool.NewPage().ok());  // pin released exactly once
}

TEST(BufferPoolTest, ShardedPoolSplitsCapacity) {
  DiskManager dm;
  BufferPool pool(&dm, 10, 4);
  EXPECT_EQ(pool.capacity(), 10u);
  EXPECT_EQ(pool.num_shards(), 4u);
  // More shards than frames: clamped so every shard owns a frame.
  BufferPool tiny(&dm, 3, 100);
  EXPECT_EQ(tiny.num_shards(), 3u);
}

TEST(BufferPoolTest, ShardedPoolServesAllPages) {
  DiskManager dm;
  BufferPool pool(&dm, 8, 4);
  std::vector<PageId> ids;
  for (int i = 0; i < 40; ++i) {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    g->MutablePage().WriteAt<int32_t>(0, i);
    ids.push_back(g->id());
  }
  for (int i = 0; i < 40; ++i) {
    auto g = pool.FetchPage(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page().ReadAt<int32_t>(0), i);
  }
}

// hits + misses must equal the number of FetchPage calls, single- and
// multi-shard alike (NewPage counts as neither).
TEST(BufferPoolTest, StatsConsistentWithFetchCount) {
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    DiskManager dm;
    BufferPool pool(&dm, 4, shards);
    std::vector<PageId> ids;
    for (int i = 0; i < 12; ++i) {
      auto g = pool.NewPage();
      ASSERT_TRUE(g.ok());
      ids.push_back(g->id());
    }
    uint64_t fetches = 0;
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      auto g = pool.FetchPage(ids[rng.UniformInt(ids.size())]);
      ASSERT_TRUE(g.ok());
      ++fetches;
    }
    const BufferPoolStats s = pool.stats();
    EXPECT_EQ(s.hits + s.misses, fetches);
  }
}

TEST(BufferPoolTest, ResetStatsZeroesCountersNotContents) {
  DiskManager dm;
  BufferPool pool(&dm, 2, 2);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  const PageId id = g->id();
  g->Release();
  ASSERT_TRUE(pool.FetchPage(id).ok());
  ASSERT_GT(pool.stats().hits, 0u);
  pool.ResetStats();
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.dirty_writebacks, 0u);
  EXPECT_EQ(pool.num_cached(), 1u);  // the frame itself is untouched
  // And the cached page is still served as a hit.
  ASSERT_TRUE(pool.FetchPage(id).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
}

// Hits are counted in the frames, each by the fetching thread on the
// frame it pinned: with threads hitting and missing on shared shards,
// hits + misses still equals their fetches exactly after the join, and
// ResetStats zeroes every frame's count.
TEST(BufferPoolTest, HitsAreCountedExactlyAcrossThreads) {
  constexpr size_t kThreads = 4;
  constexpr int kFetchesPerThread = 3000;
  DiskManager dm;
  BufferPool pool(&dm, 16, 4);
  std::vector<PageId> ids;
  for (int i = 0; i < 24; ++i) ids.push_back(dm.AllocatePage());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(300 + t);
      for (int i = 0; i < kFetchesPerThread; ++i) {
        // Mostly the first 12 pages (hits), sometimes the rest (misses).
        const size_t span = rng.UniformInt(8) == 0 ? ids.size() : 12;
        if (!pool.FetchPage(ids[rng.UniformInt(span)]).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, uint64_t{kThreads} * kFetchesPerThread);
  EXPECT_GT(s.hits, s.misses);
  EXPECT_EQ(s.misses, dm.meter().counters().blocks_read);

  pool.ResetStats();
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 0u);
  for (const PageId id : ids) {
    if (pool.IsCached(id)) {
      ASSERT_TRUE(pool.FetchPage(id).ok());
      EXPECT_EQ(pool.stats().hits, 1u);
      break;
    }
  }
}

// Multi-threaded stress: each worker hammers its own writable pages while
// everyone fetches a shared read-only set, through a pool small enough to
// force constant eviction/write-back traffic. Run under
// -DATIS_SANITIZE=thread this is the pool's race detector; under any build
// it checks pins, data integrity and stats consistency.
TEST(BufferPoolTest, ConcurrentStressKeepsDataAndStatsConsistent) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPagesPerThread = 16;
  constexpr size_t kSharedPages = 16;
  constexpr int kOpsPerThread = 2000;

  DiskManager dm;
  // 4 frames per shard: even if all kThreads pin pages of one shard at
  // once there is still a frame (or an unpinned victim) for each.
  BufferPool pool(&dm, 32, 8);

  std::vector<PageId> shared_ids;
  for (size_t i = 0; i < kSharedPages; ++i) {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    g->MutablePage().WriteAt<uint32_t>(0, 0xC0FFEE);
    shared_ids.push_back(g->id());
  }
  std::vector<std::vector<PageId>> private_ids(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPagesPerThread; ++i) {
      auto g = pool.NewPage();
      ASSERT_TRUE(g.ok());
      g->MutablePage().WriteAt<uint32_t>(0, 0);
      private_ids[t].push_back(g->id());
    }
  }

  std::atomic<uint64_t> fetches{0};
  std::atomic<int> failures{0};
  pool.ResetStats();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        if (rng.UniformInt(3) == 0) {
          // Read a shared page; its content never changes.
          const PageId id = shared_ids[rng.UniformInt(kSharedPages)];
          auto g = pool.FetchPage(id);
          if (!g.ok() || g->page().ReadAt<uint32_t>(0) != 0xC0FFEE) {
            failures.fetch_add(1);
            return;
          }
        } else {
          // Bump a counter on one of this thread's own pages.
          const PageId id = private_ids[t][rng.UniformInt(kPagesPerThread)];
          auto g = pool.FetchPage(id);
          if (!g.ok()) {
            failures.fetch_add(1);
            return;
          }
          Page& p = g->MutablePage();
          p.WriteAt<uint32_t>(0, p.ReadAt<uint32_t>(0) + 1);
        }
        fetches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  // Every increment must have survived eviction round-trips.
  ASSERT_TRUE(pool.FlushAll().ok());
  for (size_t t = 0; t < kThreads; ++t) {
    uint64_t total = 0;
    for (const PageId id : private_ids[t]) {
      Page p;
      ASSERT_TRUE(dm.ReadPage(id, &p).ok());
      total += p.ReadAt<uint32_t>(0);
    }
    // Each op that was not a shared read bumped exactly one counter; the
    // exact split is random, so check the cross-page sum per thread.
    uint64_t expected = 0;
    Rng rng(100 + t);
    for (int op = 0; op < kOpsPerThread; ++op) {
      if (rng.UniformInt(3) == 0) {
        rng.UniformInt(kSharedPages);
      } else {
        rng.UniformInt(kPagesPerThread);
        ++expected;
      }
    }
    EXPECT_EQ(total, expected) << "thread " << t;
  }
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, fetches.load());
}

/// Writes `n` identifiable pages straight to disk and returns their ids
/// (the pool has never seen them, so the first pool access is cold).
std::vector<PageId> MakeColdPages(DiskManager& dm, size_t n) {
  std::vector<PageId> ids;
  for (size_t i = 0; i < n; ++i) {
    const PageId id = dm.AllocatePage();
    Page p;
    p.WriteAt<uint32_t>(0, 1000 + static_cast<uint32_t>(i));
    EXPECT_TRUE(dm.WritePage(id, p).ok());
    ids.push_back(id);
  }
  return ids;
}

// Two workers missing the same page: the second finds the first's fill in
// flight and waits for it on the shard's io_cv instead of reading the
// block again. The page is mapped before its read starts, so once it
// counts as cached the second fetch is issued against the in-flight fill.
// (The disk copies the bytes before it sleeps, so the bytes alone cannot
// tell a waiter from a fetch that pinned the busy frame; the pin count
// can: both guards are held until both fetches returned, and only a
// correct count lets the frame be evicted afterwards.)
TEST(BufferPoolTest, ConcurrentMissesOnOnePageReadItOnce) {
  DiskManager dm;
  const std::vector<PageId> ids = MakeColdPages(dm, 1);
  const uint64_t reads_before = dm.meter().counters().blocks_read;
  BufferPool pool(&dm, 4);
  dm.SetLatencyModel(DiskLatencyModel{.read_micros = 50'000});

  std::vector<uint32_t> seen(2, 0);
  std::latch both_fetched(2);
  auto fetch = [&](size_t t) {
    auto g = pool.FetchPage(ids[0]);
    if (g.ok()) seen[t] = g->page().ReadAt<uint32_t>(0);
    both_fetched.arrive_and_wait();
  };
  std::thread loader(fetch, 0);
  while (!pool.IsCached(ids[0])) std::this_thread::yield();
  std::thread waiter(fetch, 1);
  loader.join();
  waiter.join();

  EXPECT_EQ(dm.meter().counters().blocks_read - reads_before, 1u);
  EXPECT_EQ(seen, (std::vector<uint32_t>{1000u, 1000u}));
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_TRUE(pool.EvictAll().ok());  // both pins were released
}

// The loader's fill fails while a second fetch waits on it: the failed
// fill unmaps its frame, and the waiter re-probes, finds no mapping and
// reads the page itself. The loader's two failed attempts are slowed by
// the retry backoff, so the waiter arrives while the fill is in flight.
TEST(BufferPoolTest, WaiterOnAFailedFillReadsThePageItself) {
  DiskManager dm;
  const std::vector<PageId> ids = MakeColdPages(dm, 1);
  const uint64_t reads_before = dm.meter().counters().blocks_read;
  BufferPool pool(&dm, 1);
  pool.SetRetryPolicy({/*max_attempts=*/2,
                       /*initial_backoff_micros=*/50'000});
  dm.FailTransient(2);  // both of the loader's attempts fail

  Status loader_status;
  std::atomic<bool> loader_done{false};
  uint32_t waiter_saw = 0;
  std::thread loader([&] {
    loader_status = pool.FetchPage(ids[0]).status();
    loader_done.store(true);
  });
  // A waiter that starts late (the fill already rolled back) simply
  // misses and reads the page; the counts below hold either way.
  while (!pool.IsCached(ids[0]) && !loader_done.load()) {
    std::this_thread::yield();
  }
  std::thread waiter([&] {
    auto g = pool.FetchPage(ids[0]);
    if (g.ok()) waiter_saw = g->page().ReadAt<uint32_t>(0);
  });
  loader.join();
  waiter.join();

  EXPECT_EQ(loader_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(waiter_saw, 1000u);
  // Failed attempts are never metered: the waiter's fill is the one read.
  EXPECT_EQ(dm.meter().counters().blocks_read - reads_before, 1u);
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.retries_exhausted, 1u);
  EXPECT_EQ(pool.num_cached(), 1u);
  EXPECT_TRUE(pool.EvictAll().ok());  // the waiter's pin was released
}

// A failed fill gives its frame back: a one-frame pool survives any
// number of failed misses and then serves the page once the device
// recovers (a leaked frame would leave it no victim to claim).
TEST(BufferPoolTest, FailedFillsGiveTheirFrameBack) {
  DiskManager dm;
  const std::vector<PageId> ids = MakeColdPages(dm, 2);
  BufferPool pool(&dm, 1);
  dm.FailAfter(0);  // every access fails permanently
  for (int i = 0; i < 3; ++i) {
    auto g = pool.FetchPage(ids[static_cast<size_t>(i) % 2]);
    EXPECT_EQ(g.status().code(), StatusCode::kInternal) << "attempt " << i;
    EXPECT_EQ(pool.num_cached(), 0u) << "attempt " << i;
  }
  dm.ClearFaultInjection();
  auto g = pool.FetchPage(ids[1]);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->page().ReadAt<uint32_t>(0), 1001u);
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.evictions, 0u);  // the frame was free again, not evicted
}

// Threads race over a cold working set that fits the pool, under a slow
// disk so their misses overlap: every page is read from disk exactly
// once, whichever thread gets there first, and every other fetch of it
// is a hit (on the resident frame or after waiting for its fill).
TEST(BufferPoolTest, ConcurrentColdMissesReadEachPageOnce) {
  constexpr size_t kPages = 24;
  constexpr size_t kThreads = 4;
  DiskManager dm;
  const std::vector<PageId> ids = MakeColdPages(dm, kPages);
  const uint64_t reads_before = dm.meter().counters().blocks_read;
  BufferPool pool(&dm, kPages, 2);
  dm.SetLatencyModel(DiskLatencyModel{.read_micros = 2'000});

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread walks all pages, each from a different start.
      for (size_t k = 0; k < kPages; ++k) {
        const size_t i = (k + t * kPages / kThreads) % kPages;
        auto g = pool.FetchPage(ids[i]);
        if (!g.ok() ||
            g->page().ReadAt<uint32_t>(0) != 1000 + static_cast<uint32_t>(i)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  EXPECT_EQ(dm.meter().counters().blocks_read - reads_before, kPages);
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, kPages);
  EXPECT_EQ(s.hits + s.misses, kPages * kThreads);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(pool.num_cached(), kPages);
}

// Threads fetch, dirty and unpin a working set three times the pool, so
// optimistic hits constantly race evictions and refills of the same
// frames (the ABA case the hit path re-checks for). Every page carries its
// own tag, so a pin that landed on the wrong page is caught, and each
// thread's increments on its own pages must all survive.
TEST(BufferPoolTest, OptimisticHitsRacingEvictionKeepTagsAndStats) {
  constexpr size_t kThreads = 4;
  constexpr size_t kFrames = 16;
  constexpr size_t kPages = 3 * kFrames;
  constexpr int kOpsPerThread = 4000;

  DiskManager dm;
  BufferPool pool(&dm, kFrames, 4);
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    g->MutablePage().WriteAt<uint32_t>(0, 0xA000 + static_cast<uint32_t>(i));
    ids.push_back(g->id());
  }
  pool.ResetStats();

  std::atomic<uint64_t> fetches{0};
  std::atomic<int> failures{0};
  std::vector<uint64_t> bumps(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const size_t i = rng.UniformInt(kPages);
        auto g = pool.FetchPage(ids[i]);
        if (!g.ok() ||
            g->page().ReadAt<uint32_t>(0) != 0xA000 + static_cast<uint32_t>(i)) {
          failures.fetch_add(1);
          return;
        }
        fetches.fetch_add(1);
        // Page i's counter belongs to thread i % kThreads alone.
        if (i % kThreads == t) {
          Page& p = g->MutablePage();
          p.WriteAt<uint32_t>(4, p.ReadAt<uint32_t>(4) + 1);
          ++bumps[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, fetches.load());
  EXPECT_GT(s.evictions, 0u);
  ASSERT_TRUE(pool.FlushAll().ok());
  std::vector<uint64_t> totals(kThreads, 0);
  for (size_t i = 0; i < kPages; ++i) {
    Page p;
    ASSERT_TRUE(dm.ReadPage(ids[i], &p).ok());
    EXPECT_EQ(p.ReadAt<uint32_t>(0), 0xA000 + static_cast<uint32_t>(i));
    totals[i % kThreads] += p.ReadAt<uint32_t>(4);
  }
  EXPECT_EQ(totals, bumps);
}

// ---------------------------------------------------------------------------
// LRU equivalence. Single-threaded, the pool must replay a reference
// std::list LRU exactly (the same hits, misses, victims, evictions and
// dirty write-backs), which is what keeps the statement-at-a-time block
// counts of the paper's experiments bit-identical.

/// The reference: per shard, a free-frame count and a list of the
/// unpinned resident pages, most recently unpinned first.
class ReferenceLru {
 public:
  ReferenceLru(size_t capacity, size_t num_shards) : shards_(num_shards) {
    for (size_t s = 0; s < num_shards; ++s) {
      shards_[s].free = capacity / num_shards + (s < capacity % num_shards);
    }
  }

  BufferPoolStats stats;
  uint64_t blocks_read = 0;

  bool cached(PageId id) const { return pages_.count(id) > 0; }

  /// False when every frame of the page's shard is pinned.
  bool Fetch(PageId id) {
    auto it = pages_.find(id);
    if (it != pages_.end()) {
      ++stats.hits;
      if (it->second.pins++ == 0) ShardOf(id).lru.remove(id);
      return true;
    }
    ++stats.misses;
    if (!Claim(id)) return false;
    ++blocks_read;
    pages_[id] = Entry{1, false};
    return true;
  }
  bool New(PageId id) {
    if (!Claim(id)) return false;
    pages_[id] = Entry{1, true};
    return true;
  }
  void Unpin(PageId id) {
    if (--pages_[id].pins == 0) ShardOf(id).lru.push_front(id);
  }
  void Dirty(PageId id) { pages_[id].dirty = true; }
  /// False when the page is pinned.
  bool Delete(PageId id) {
    auto it = pages_.find(id);
    if (it == pages_.end()) return true;
    if (it->second.pins > 0) return false;
    ShardOf(id).lru.remove(id);
    ++ShardOf(id).free;
    pages_.erase(it);
    return true;
  }
  /// Shard by shard; false at the first shard holding a pinned page.
  bool EvictAll() {
    for (size_t s = 0; s < shards_.size(); ++s) {
      for (const auto& [id, e] : pages_) {
        if (id % shards_.size() == s && e.pins > 0) return false;
      }
      for (auto it = pages_.begin(); it != pages_.end();) {
        if (it->first % shards_.size() != s) {
          ++it;
          continue;
        }
        if (it->second.dirty) ++stats.dirty_writebacks;
        ++stats.evictions;
        ++shards_[s].free;
        it = pages_.erase(it);
      }
      shards_[s].lru.clear();
    }
    return true;
  }
  void FlushAll() {
    for (auto& [id, e] : pages_) {
      if (e.dirty) ++stats.dirty_writebacks;
      e.dirty = false;
    }
  }

 private:
  struct Entry {
    int pins;
    bool dirty;
  };
  struct Shard {
    size_t free = 0;
    std::list<PageId> lru;
  };

  Shard& ShardOf(PageId id) { return shards_[id % shards_.size()]; }

  /// A free frame, else the LRU victim (written back when dirty).
  bool Claim(PageId id) {
    Shard& s = ShardOf(id);
    if (s.free > 0) {
      --s.free;
      return true;
    }
    if (s.lru.empty()) return false;
    const PageId victim = s.lru.back();
    s.lru.pop_back();
    const Entry& e = pages_.at(victim);
    if (e.dirty) ++stats.dirty_writebacks;
    ++stats.evictions;
    pages_.erase(victim);
    return true;
  }

  std::vector<Shard> shards_;
  std::map<PageId, Entry> pages_;
};

void ExpectSameState(const BufferPool& pool, const ReferenceLru& ref,
                     const DiskManager& dm, uint64_t writes_before,
                     const std::vector<PageId>& pages, int op) {
  const BufferPoolStats s = pool.stats();
  ASSERT_EQ(s.hits, ref.stats.hits) << "op " << op;
  ASSERT_EQ(s.misses, ref.stats.misses) << "op " << op;
  ASSERT_EQ(s.evictions, ref.stats.evictions) << "op " << op;
  ASSERT_EQ(s.dirty_writebacks, ref.stats.dirty_writebacks) << "op " << op;
  ASSERT_EQ(dm.meter().counters().blocks_read, ref.blocks_read) << "op " << op;
  ASSERT_EQ(dm.meter().counters().blocks_written - writes_before,
            ref.stats.dirty_writebacks)
      << "op " << op;
  // Same residency everywhere means the same victim at every eviction.
  for (const PageId id : pages) {
    ASSERT_EQ(pool.IsCached(id), ref.cached(id)) << "op " << op << " page "
                                                 << id;
  }
}

/// One pool and its reference, driven one random operation at a time.
class LruReplay {
 public:
  LruReplay(size_t capacity, size_t num_shards)
      : pages_(MakeColdPages(dm_, 3 * capacity)),
        writes_before_(dm_.meter().counters().blocks_written),
        capacity_(capacity),
        pool_(&dm_, capacity, num_shards),
        ref_(capacity, num_shards) {}
  ~LruReplay() {
    for (PageGuard& g : held_) ref_.Unpin(g.id());
  }

  /// Applies one operation drawn from `rng` to the pool and the reference,
  /// then checks that they agree.
  void Step(Rng& rng, int op) {
    const uint64_t kind = rng.UniformInt(100);
    const PageId id = pages_[rng.UniformInt(pages_.size())];
    if (kind < 58) {
      // Fetch; sometimes dirty it, sometimes keep it pinned for a while.
      auto g = pool_.FetchPage(id);
      const bool ok = ref_.Fetch(id);
      ASSERT_EQ(g.ok(), ok) << "op " << op;
      if (!ok) {
        EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
      } else {
        if (rng.UniformInt(3) == 0) {
          g->MutablePage().WriteAt<uint32_t>(4, static_cast<uint32_t>(op));
          ref_.Dirty(id);
        }
        if (held_.size() < 3 && rng.UniformInt(4) == 0) {
          held_.push_back(std::move(g).value());
        } else {
          g->Release();
          ref_.Unpin(id);
        }
      }
    } else if (kind < 72) {
      if (held_.empty()) return;
      const size_t i = rng.UniformInt(held_.size());
      if (rng.UniformInt(2) == 0) {
        held_[i].MutablePage().WriteAt<uint32_t>(8, static_cast<uint32_t>(op));
        ref_.Dirty(held_[i].id());
      }
      ref_.Unpin(held_[i].id());
      held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (kind < 79) {
      // Only with nothing pinned, so the new page always finds a frame
      // (its id is unknown until the call returns).
      if (!held_.empty()) return;
      auto g = pool_.NewPage();
      ASSERT_TRUE(g.ok());
      ASSERT_TRUE(ref_.New(g->id()));
      pages_.push_back(g->id());
      g->Release();
      ref_.Unpin(pages_.back());
    } else if (kind < 86) {
      if (pages_.size() <= capacity_) return;
      const bool ok = ref_.Delete(id);
      ASSERT_EQ(pool_.DeletePage(id).ok(), ok) << "op " << op;
      if (ok) pages_.erase(std::find(pages_.begin(), pages_.end(), id));
    } else if (kind < 93) {
      ASSERT_EQ(pool_.EvictAll().ok(), ref_.EvictAll()) << "op " << op;
    } else {
      ASSERT_TRUE(pool_.FlushAll().ok());
      ref_.FlushAll();
    }
    ExpectSameState(pool_, ref_, dm_, writes_before_, pages_, op);
  }

 private:
  DiskManager dm_;
  std::vector<PageId> pages_;
  uint64_t writes_before_;
  size_t capacity_;
  BufferPool pool_;
  ReferenceLru ref_;
  std::vector<PageGuard> held_;
};

void RunLruEquivalence(size_t capacity, size_t num_shards, uint64_t seed) {
  LruReplay replay(capacity, num_shards);
  Rng rng(seed);
  for (int op = 0; op < 3000; ++op) {
    replay.Step(rng, op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BufferPoolLruModelTest, OneShardReplaysReferenceLru) {
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    RunLruEquivalence(6, 1, seed);
  }
}

TEST(BufferPoolLruModelTest, FourShardsReplayReferenceLru) {
  for (const uint64_t seed : {4, 5, 6}) {
    SCOPED_TRACE(seed);
    RunLruEquivalence(10, 4, seed);
  }
}

// Unpin stamps come from one counter per thread, shared by every pool the
// thread uses: a thread that interleaves two pools must still replay the
// reference in each (a stamp source that restarts or falls back when the
// thread moves to another pool breaks this).
TEST(BufferPoolLruModelTest, OneThreadOnTwoPoolsReplaysReferenceLruInEach) {
  for (const uint64_t seed : {7, 8, 9}) {
    SCOPED_TRACE(seed);
    LruReplay one_shard(6, 1);
    LruReplay four_shards(10, 4);
    Rng rng(seed);
    for (int op = 0; op < 3000; ++op) {
      (rng.UniformInt(2) == 0 ? one_shard : four_shards).Step(rng, op);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace atis::storage
