// Wall-clock microbenchmarks (google-benchmark) of the buffer pool alone:
// the CPU a FetchPage + unpin costs on a hit, with one thread and with two
// threads on disjoint pages that share shards, and on a miss that evicts a
// clean or a dirty frame. The disk has no simulated latency, so a miss
// costs the pool's bookkeeping plus the in-memory page copy.
//
//   build/bench/bench_buffer_pool [--benchmark_filter=Hit]
#include <benchmark/benchmark.h>

#include <cstdlib>
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
// both threads' pages spread over every shard.
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

}  // namespace
}  // namespace atis

BENCHMARK_MAIN();
