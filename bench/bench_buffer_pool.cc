// Wall-clock microbenchmarks (google-benchmark) of the storage layer alone:
// the CPU a FetchPage + unpin costs on a hit, with one thread and with two
// threads on disjoint pages that share shards, and on a miss that evicts a
// clean or a dirty frame; and the CPU a simulated-disk ReadPage costs while
// another thread allocates and deallocates pages. The disk has no
// simulated latency, so a miss costs the pool's bookkeeping plus the
// in-memory page copy.
//
//   build/bench/bench_buffer_pool [--benchmark_filter=Hit]
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"

namespace atis {
namespace {

using storage::BufferPool;
using storage::DiskManager;
using storage::PageId;

/// A disk with `n` allocated pages and their ids.
std::vector<PageId> MakePages(DiskManager& disk, size_t n) {
  std::vector<PageId> ids;
  for (size_t i = 0; i < n; ++i) ids.push_back(disk.AllocatePage());
  return ids;
}

/// Brings every page into the pool so later fetches are hits.
void Warm(BufferPool& pool, const std::vector<PageId>& ids) {
  for (const PageId id : ids) {
    if (!pool.FetchPage(id).ok()) std::abort();
  }
}

// The served configuration's shape: 32 frames over 4 shards, 16 resident
// pages.
constexpr size_t kFrames = 32;
constexpr size_t kShards = 4;
constexpr size_t kResident = 16;

void BM_PoolHit(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, kFrames, kShards);
  const std::vector<PageId> ids = MakePages(disk, kResident);
  Warm(pool, ids);
  size_t i = 0;
  for (auto _ : state) {
    auto guard = pool.FetchPage(ids[i++ % ids.size()]);
    benchmark::DoNotOptimize(guard->page().data());
  }
}
BENCHMARK(BM_PoolHit);

/// One pool shared by the threads of BM_PoolHitTwoThreads (built once,
/// before the timed loops start, and kept for the process lifetime).
struct SharedPool {
  DiskManager disk;
  BufferPool pool{&disk, kFrames, kShards};
  std::vector<PageId> ids;
  SharedPool() {
    ids = MakePages(disk, kResident);
    Warm(pool, ids);
  }
};

// Thread t fetches only pages with index % 2 == t: no page is shared, but
// both threads' pages spread over every shard. Hits only, on two threads
// that do nothing else: it does not reproduce paper_mix's contention,
// whose workers also miss, fill, evict and allocate between hits, so a
// change to the shared words of the hit path moves it far less than it
// moves paper_mix's CPU per query (EXPERIMENTS.md quotes both: on a
// 4-vCPU host per-frame hit counts and per-thread unpin stamps took it
// from 17.2 to about 13 ns per hit).
void BM_PoolHitTwoThreads(benchmark::State& state) {
  static SharedPool* shared = new SharedPool;
  const size_t t = static_cast<size_t>(state.thread_index());
  size_t i = 0;
  for (auto _ : state) {
    const PageId id = shared->ids[(2 * i + t) % kResident];
    ++i;
    auto guard = shared->pool.FetchPage(id);
    benchmark::DoNotOptimize(guard->page().data());
  }
}
BENCHMARK(BM_PoolHitTwoThreads)->Threads(2)->UseRealTime();

// A one-shard pool cycled through four times its frames: every fetch is a
// miss whose LRU victim is clean (arg 0) or was dirtied (arg 1), so the
// dirty case adds one block write-back per fetch.
void BM_PoolMissEvict(benchmark::State& state) {
  const bool dirty = state.range(0) != 0;
  constexpr size_t kMissFrames = 8;
  DiskManager disk;
  BufferPool pool(&disk, kMissFrames, 1);
  const std::vector<PageId> ids = MakePages(disk, 4 * kMissFrames);
  Warm(pool, ids);
  size_t i = 0;
  for (auto _ : state) {
    auto guard = pool.FetchPage(ids[i++ % ids.size()]);
    if (dirty) guard->MutablePage().WriteAt<uint64_t>(0, i);
    benchmark::DoNotOptimize(guard->page().data());
  }
  state.SetLabel(dirty ? "dirty victim" : "clean victim");
}
BENCHMARK(BM_PoolMissEvict)->Arg(0)->Arg(1);

/// The disk of BM_DiskReadWhileAllocating: each reader's pages, and the
/// allocating thread that thread 0 runs around the timed loops.
struct AllocatingDisk {
  static constexpr size_t kPagesPerReader = 16;
  DiskManager disk;
  std::vector<PageId> ids = MakePages(disk, 2 * kPagesPerReader);
  std::atomic<bool> stop{false};
  std::thread allocator;

  void Start() {
    stop.store(false);
    allocator = std::thread([this] {
      // A statement's temporary pages: a few allocated, then all freed.
      PageId temp[4];
      while (!stop.load(std::memory_order_relaxed)) {
        for (PageId& id : temp) id = disk.AllocatePage();
        for (const PageId id : temp) {
          if (!disk.DeallocatePage(id).ok()) std::abort();
        }
      }
    });
  }
  void Stop() {
    stop.store(true);
    allocator.join();
  }
};

// The paper engines' pattern on one shared disk: two threads ReadPage
// their own pages (pool misses) while a third allocates and deallocates
// temporary pages. Time per read.
void BM_DiskReadWhileAllocating(benchmark::State& state) {
  static AllocatingDisk* shared = new AllocatingDisk;
  const size_t t = static_cast<size_t>(state.thread_index());
  if (t == 0) shared->Start();
  storage::Page page;
  size_t i = 0;
  for (auto _ : state) {
    const PageId id =
        shared->ids[t * AllocatingDisk::kPagesPerReader +
                    i++ % AllocatingDisk::kPagesPerReader];
    if (!shared->disk.ReadPage(id, &page).ok()) std::abort();
    benchmark::DoNotOptimize(page.data());
  }
  if (t == 0) shared->Stop();
}
BENCHMARK(BM_DiskReadWhileAllocating)->Threads(2)->UseRealTime();

}  // namespace
}  // namespace atis

BENCHMARK_MAIN();
