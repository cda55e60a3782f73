// Buffer pool with LRU replacement and RAII pin guards.
//
// The pool caches disk pages in a fixed number of frames. For the paper's
// experiments the executor evicts the pool between relational statements
// (Ingres/QUEL statement-at-a-time execution), so each statement's block
// accesses reach the metered disk — this is what makes the published cost
// formulas emerge from real accesses. Outside experiments the pool behaves
// like a normal database buffer cache.
//
// Concurrency: the pool is split into `num_shards` shards, each owning a
// fixed slice of the frames plus its own free list, LRU clock and latch. A
// page id maps to exactly one shard (id % num_shards). The default is a
// single shard, which keeps the exact global-LRU sequence of the paper-mode
// experiments; concurrent servers construct the pool with more shards.
//
// Page table. A dense two-level array indexed by page id (DiskManager ids
// are small and reused) maps a resident page to its frame. Chunks are
// allocated on first use and never move, so readers load entries without
// any latch; entries are only written under the owning shard's latch.
//
// Frame states, kept in the atomic `Frame::pins`:
//   - pins >= 0, id valid:   resident; `pins` guards hold it. Unpinned
//                            (pins == 0) frames are eviction candidates.
//   - pins == 0, id invalid: free (on the shard's free list).
//   - pins == kBusy (< 0):   claimed by a latch holder that is evicting,
//                            deleting or filling the frame. A fill from
//                            disk keeps the frame busy (and
//                            `io_in_progress` set) until its read ends.
// Only a thread holding the shard latch may move a frame into kBusy, and
// only by CAS 0 -> kBusy; so a frame with pins > 0 is never a victim and a
// Page* handed out by a PageGuard stays valid for the guard's lifetime.
//
// Hit path (no latch, no allocation): load the frame index from the page
// table, CAS-increment `pins` from a value >= 0, then re-check
// `frame.id == id`. The re-check catches ABA: the frame may have been
// evicted and refilled with another page between the table load and the
// pin. On a mismatch the pin is undone and the fetch takes the latched
// slow path, as do misses, in-flight fills and busy frames. (An id check
// before the CAS as well makes such stale pins rare.) A stale pin lasts a
// few instructions; a latch holder whose CAS loses to one looks again.
//
// LRU by unpin stamps. Unpin stores a stamp in `frame.stamp` before its
// release-decrement of `pins`. The stamp comes from a counter of the
// calling thread, shared by every pool the thread uses: raised to the
// shard's clock if below it, then incremented. The shard clock is written
// only by a latch holder's victim scan, which raises it to the newest
// stamp it saw; so a hit and its unpin write only their own frame and
// thread, and hits are counted in the frame (`Frame::hits`). The victim is
// the unpinned resident frame with the smallest stamp; free frames are
// used first. One thread's stamps rise strictly in its unpin order, and a
// list LRU moves a frame to its front at exactly this event and removes
// it while pinned, so in a single-threaded run (the paper's
// statement-at-a-time mode and every unit test) the hit, miss, victim and
// dirty write-back sequence is the list LRU's, tick for tick, however
// many pools the thread interleaves. Under concurrency the order is
// approximate: threads' counters advance independently between two victim
// scans of a shard, so among the frames unpinned since the last scan a
// thread that unpinned more often ranks its frames as more recent. Frames
// unpinned before a scan rank older than frames unpinned after it, but
// for an unpin that races the scan itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/status.h"

namespace atis::storage {

class BufferPool;

/// RAII handle to a pinned frame. While alive, the page cannot be evicted.
/// Movable, not copyable. Carries its frame index (local to the page's
/// shard), so unpinning and dirtying need no page-table probe.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, PageId id, Page* page, uint32_t frame)
      : pool_(pool), id_(id), page_(page), frame_(frame) {}
  PageGuard(PageGuard&& o) noexcept
      : pool_(o.pool_), id_(o.id_), page_(o.page_), frame_(o.frame_) {
    o.pool_ = nullptr;
    o.id_ = kInvalidPageId;
    o.page_ = nullptr;
  }
  PageGuard& operator=(PageGuard&& o) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return page_ != nullptr; }
  PageId id() const { return id_; }

  const Page& page() const { return *page_; }
  /// Mutable access; marks the frame dirty so it is written back on
  /// eviction/flush (charging one block write).
  Page& MutablePage();

  /// Unpins early (also done by the destructor).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  Page* page_ = nullptr;
  uint32_t frame_ = 0;
};

/// Statistics for cache behaviour analysis. Every FetchPage counts exactly
/// one hit or one miss.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  /// Miss-fill reads re-issued after a transient (kUnavailable) fault.
  uint64_t read_retries = 0;
  /// Miss fills that still failed after exhausting the retry budget.
  uint64_t retries_exhausted = 0;
};

/// Bounded retry with exponential backoff for miss fills. Only transient
/// faults (kUnavailable) are retried — permanent errors (kInternal,
/// kNotFound, ...) propagate immediately. The metered disk never counts a
/// failed access, so a fill that succeeds on attempt k is metered exactly
/// once: retries are never double-metered.
struct RetryPolicy {
  /// Total read attempts per miss fill (1 = no retry, the seed behaviour).
  int max_attempts = 1;
  /// Sleep before the first re-attempt; doubles each further attempt.
  uint32_t initial_backoff_micros = 50;

  bool enabled() const { return max_attempts > 1; }
};

class BufferPool {
 public:
  /// `capacity` is the total number of frames, distributed evenly across
  /// `num_shards` shards (each shard gets at least one frame, so the
  /// effective capacity is max(capacity, num_shards)).
  /// Preconditions relaxed to clamps: capacity >= 1, num_shards >= 1.
  BufferPool(DiskManager* disk, size_t capacity, size_t num_shards = 1);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// Pins the page, reading it from disk on a miss.
  Result<PageGuard> FetchPage(PageId id);

  /// Allocates a fresh zeroed page on disk and pins it (no disk read; the
  /// first write-back charges the write).
  Result<PageGuard> NewPage();

  /// Writes back a dirty page (if cached and dirty); page stays cached.
  Status FlushPage(PageId id);

  /// Writes back all dirty pages; pages stay cached.
  Status FlushAll();

  /// Flushes and drops every unpinned frame, shard by shard. Returns
  /// FailedPrecondition on the first shard holding a pinned frame (earlier
  /// shards stay evicted). Used between statements in the paper's
  /// single-threaded statement-at-a-time execution model; concurrent
  /// servers never call it.
  Status EvictAll();

  /// Drops a page from cache (flushing if dirty) and deallocates it on disk.
  Status DeletePage(PageId id);

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  size_t num_cached() const;
  /// Whether `id` is resident (or being filled). Exact when quiesced.
  bool IsCached(PageId id) const;
  /// Aggregated snapshot across shards. Exact when quiesced; concurrent
  /// readers may see counters mid-update (each field is atomic).
  BufferPoolStats stats() const;
  /// Zeroes the statistics without touching cached frames, so observers
  /// can take clean deltas without forcing an EvictAll.
  void ResetStats();
  DiskManager* disk() { return disk_; }

  /// Installs the miss-fill retry policy. Call before concurrent use (the
  /// policy is read without synchronisation by fetching threads; the
  /// route server installs it at construction, before workers start).
  void SetRetryPolicy(RetryPolicy policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

 private:
  friend class PageGuard;

  /// `Frame::pins` while a latch holder owns the frame (see file comment).
  static constexpr int32_t kBusy = -1;
  /// Page-table entry of a page that is not resident.
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  /// Cache-line aligned with the metadata first, so pin traffic on one
  /// frame never shares a line with any page's bytes.
  struct alignas(64) Frame {
    std::atomic<PageId> id{kInvalidPageId};
    std::atomic<int32_t> pins{0};
    /// Stamp of the last unpin (see "LRU by unpin stamps"); the smallest
    /// stamp among unpinned resident frames is the LRU victim.
    std::atomic<uint64_t> stamp{0};
    /// Fetches that hit this frame, counted on the line the pin CAS
    /// already owns; BufferPool::stats() sums them.
    std::atomic<uint64_t> hits{0};
    std::atomic<bool> dirty{false};
    /// Set (under the shard latch) while a miss is filling this frame from
    /// disk *outside* the latch; the frame is kBusy meanwhile.
    /// Slow-path fetchers of the same page wait on the shard's `io_cv`.
    bool io_in_progress = false;
    alignas(64) Page page;
  };

  /// One slice of the pool. Frame indexes are local to the shard.
  /// Three cache lines: what every fetch reads, the stamp floor every
  /// unpin reads, and what latch holders write. So the hit path writes
  /// no line of the shard, and a miss does not evict a line that other
  /// threads' hits read.
  struct alignas(64) Shard {
    explicit Shard(size_t n) : frames(new Frame[n]), num_frames(n) {}
    std::unique_ptr<Frame[]> frames;
    size_t num_frames;
    /// Floor for unpin stamps: read by every unpin, written only by a
    /// latch holder's victim scan, and only when it rises.
    alignas(64) std::atomic<uint64_t> clock{0};
    alignas(64) mutable std::mutex mu;
    std::condition_variable io_cv;  // signalled when an in-flight fill ends
    std::vector<uint32_t> free_frames;  // guarded by mu
    /// Written under mu.
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> dirty_writebacks{0};
  };

  /// Dense page id -> frame index map: a directory covering every PageId,
  /// pointing to fixed-size chunks that are installed by CAS on first
  /// write and never move, so Get() is lock-free. Set() is called under
  /// the owning shard's latch.
  class PageTable {
   public:
    PageTable();
    PageTable(const PageTable&) = delete;
    PageTable& operator=(const PageTable&) = delete;
    ~PageTable();
    uint32_t Get(PageId id) const {
      const std::atomic<uint32_t>* chunk =
          dir_[id >> kChunkBits].load(std::memory_order_acquire);
      return chunk == nullptr
                 ? kNoFrame
                 : chunk[id & kChunkMask].load(std::memory_order_relaxed);
    }
    void Set(PageId id, uint32_t frame);

   private:
    static constexpr int kChunkBits = 16;
    static constexpr PageId kChunkMask = (PageId{1} << kChunkBits) - 1;
    static constexpr size_t kDirSize = size_t{1} << (32 - kChunkBits);
    std::unique_ptr<std::atomic<std::atomic<uint32_t>*>[]> dir_;
  };

  Shard& ShardFor(PageId id) const {
    return *shards_[id % shards_.size()];
  }

  /// Latched half of FetchPage: in-flight fills, busy frames and misses.
  Result<PageGuard> FetchPageSlow(Shard& shard, PageId id);
  void Unpin(PageId id, uint32_t frame);
  void MarkDirty(PageId id, uint32_t frame);
  /// Claims a frame for a new page (pins == kBusy on return): a free frame
  /// if any, else the unpinned resident frame with the smallest stamp,
  /// evicted (with dirty write-back). Caller holds shard.mu.
  Result<uint32_t> ClaimVictim(Shard& shard);
  /// CAS 0 -> kBusy. Caller holds the shard latch.
  static bool TryClaim(Frame& f);
  /// TryClaim, retried briefly while a stale optimistic pin holds the
  /// frame. False if the frame stays pinned or is busy.
  static bool ClaimUnpinned(Frame& f);
  /// Drops a claimed (kBusy) resident frame's mapping; the frame stays
  /// kBusy with an invalid id. Caller holds the shard latch and has
  /// written back any dirty contents.
  void Unmap(Frame& f);
  /// Installs `id` in claimed frame `idx`. The caller fills the page and
  /// then publishes the frame by storing its pin count.
  void Map(Frame& f, uint32_t idx, PageId id) {
    f.id.store(id, std::memory_order_relaxed);
    table_.Set(id, idx);
  }
  /// Reads `id` into *dest honouring retry_: re-issues the read after a
  /// transient fault, with exponential backoff, up to max_attempts. Called
  /// with no shard latch held (the fill slot is already claimed).
  Status ReadWithRetry(PageId id, Page* dest);

  DiskManager* disk_;
  size_t capacity_;
  RetryPolicy retry_;
  std::atomic<uint64_t> read_retries_{0};
  std::atomic<uint64_t> retries_exhausted_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  PageTable table_;
};

}  // namespace atis::storage
