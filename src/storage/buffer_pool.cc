#include "storage/buffer_pool.h"

#include <cassert>
#include <chrono>
#include <string>
#include <thread>

namespace atis::storage {

namespace {

/// Times a latch holder looks again (yielding in between) before it
/// concludes that a frame, or every frame of a shard, is really pinned and
/// not just held for a moment by an optimistic fetch undoing a stale pin.
constexpr int kClaimAttempts = 8;

/// The calling thread's last unpin stamp, shared by every pool it uses.
/// Unpin raises it to the shard clock and adds one, so one thread's stamps
/// rise strictly in its unpin order and the hit path writes no shared word.
thread_local uint64_t t_unpin_stamp = 0;

}  // namespace

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    id_ = o.id_;
    page_ = o.page_;
    frame_ = o.frame_;
    o.pool_ = nullptr;
    o.id_ = kInvalidPageId;
    o.page_ = nullptr;
  }
  return *this;
}

Page& PageGuard::MutablePage() {
  assert(valid());
  pool_->MarkDirty(id_, frame_);
  return *page_;
}

void PageGuard::Release() {
  if (pool_ != nullptr && page_ != nullptr) {
    pool_->Unpin(id_, frame_);
  }
  pool_ = nullptr;
  page_ = nullptr;
  id_ = kInvalidPageId;
}

BufferPool::PageTable::PageTable()
    : dir_(new std::atomic<std::atomic<uint32_t>*>[kDirSize]()) {}

BufferPool::PageTable::~PageTable() {
  for (size_t i = 0; i < kDirSize; ++i) {
    delete[] dir_[i].load(std::memory_order_relaxed);
  }
}

void BufferPool::PageTable::Set(PageId id, uint32_t frame) {
  std::atomic<std::atomic<uint32_t>*>& slot = dir_[id >> kChunkBits];
  std::atomic<uint32_t>* chunk = slot.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    if (frame == kNoFrame) return;
    auto* fresh = new std::atomic<uint32_t>[kChunkMask + 1];
    for (PageId i = 0; i <= kChunkMask; ++i) {
      fresh[i].store(kNoFrame, std::memory_order_relaxed);
    }
    // Shards fill chunks concurrently; the first installer wins.
    if (slot.compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      chunk = fresh;
    } else {
      delete[] fresh;
    }
  }
  chunk[id & kChunkMask].store(frame, std::memory_order_relaxed);
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity, size_t num_shards)
    : disk_(disk) {
  if (capacity == 0) capacity = 1;
  if (num_shards == 0) num_shards = 1;
  if (num_shards > capacity) num_shards = capacity;
  capacity_ = capacity;
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    // Even split; the first (capacity % num_shards) shards get one extra.
    const size_t frames = capacity / num_shards + (s < capacity % num_shards);
    auto shard = std::make_unique<Shard>(frames);
    shard->free_frames.reserve(frames);
    for (size_t i = frames; i > 0; --i) {
      shard->free_frames.push_back(static_cast<uint32_t>(i - 1));
    }
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() {
  // Best effort: persist dirty pages. Errors are ignored in a destructor.
  (void)FlushAll();
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  Shard& shard = ShardFor(id);
  const uint32_t idx = table_.Get(id);
  if (idx != kNoFrame) {
    Frame& f = shard.frames[idx];
    // Optimistic pin: only from a non-busy count, and only while the frame
    // still holds `id` afterwards (it may have been evicted and refilled
    // since the table load; the early id check makes that pin rare).
    if (f.id.load(std::memory_order_relaxed) == id) {
      int32_t pins = f.pins.load(std::memory_order_relaxed);
      while (pins >= 0 &&
             !f.pins.compare_exchange_weak(pins, pins + 1,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
      }
      if (pins >= 0) {
        if (f.id.load(std::memory_order_relaxed) == id) {
          f.hits.fetch_add(1, std::memory_order_relaxed);
          return PageGuard(this, id, &f.page, idx);
        }
        f.pins.fetch_sub(1, std::memory_order_release);  // ABA: undo
      }
    }
  }
  return FetchPageSlow(shard, id);
}

Result<PageGuard> BufferPool::FetchPageSlow(Shard& shard, PageId id) {
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    const uint32_t idx = table_.Get(id);
    if (idx != kNoFrame) {
      Frame& f = shard.frames[idx];
      // A frame whose fill is still in flight is not usable yet: wait for
      // the loader and re-probe (the fill may have failed, removing the
      // mapping — then this thread becomes the loader).
      if (f.io_in_progress) {
        shard.io_cv.wait(lock);
        continue;
      }
      // Under the latch a mapped frame that is not being filled is never
      // busy, so a plain increment pins it.
      f.pins.fetch_add(1, std::memory_order_acquire);
      f.hits.fetch_add(1, std::memory_order_relaxed);
      return PageGuard(this, id, &f.page, idx);
    }

    // Miss: claim a frame under the latch, then fill it from disk with the
    // latch released so slow devices don't serialise the shard. The frame
    // stays busy and flagged in-flight throughout, so no other thread can
    // pin, evict or reuse it. A dirty victim is written back *inside* the
    // critical section: once its mapping is gone, a concurrent fetch of
    // the victim page reads it straight from disk, and that read must
    // observe this write-back (the latch orders them).
    Result<uint32_t> victim = ClaimVictim(shard);
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    if (!victim.ok()) return victim.status();
    const uint32_t fill = victim.value();
    Frame& f = shard.frames[fill];
    Map(f, fill, id);
    f.io_in_progress = true;

    lock.unlock();
    Status io = ReadWithRetry(id, &f.page);
    lock.lock();

    f.io_in_progress = false;
    if (!io.ok()) {
      // Roll back so a failed fill does not leak capacity; waiters re-probe
      // and find no mapping.
      Unmap(f);
      shard.free_frames.push_back(fill);
      f.pins.store(0, std::memory_order_release);
      shard.io_cv.notify_all();
      return io;
    }
    f.pins.store(1, std::memory_order_release);
    shard.io_cv.notify_all();
    return PageGuard(this, id, &f.page, fill);
  }
}

Result<PageGuard> BufferPool::NewPage() {
  const PageId id = disk_->AllocatePage();
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  Result<uint32_t> victim = ClaimVictim(shard);
  if (!victim.ok()) return victim.status();
  const uint32_t idx = victim.value();
  Frame& f = shard.frames[idx];
  f.page.Zero();
  // Dirty from the start: the page must reach disk even if never modified.
  f.dirty.store(true, std::memory_order_relaxed);
  Map(f, idx, id);
  f.pins.store(1, std::memory_order_release);
  return PageGuard(this, id, &f.page, idx);
}

Status BufferPool::FlushPage(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t idx = table_.Get(id);
  if (idx == kNoFrame) return Status::OK();
  Frame& f = shard.frames[idx];
  // Acquire the last unpin, so the page writes it published are visible.
  (void)f.pins.load(std::memory_order_acquire);
  if (f.dirty.load(std::memory_order_relaxed)) {
    ATIS_RETURN_NOT_OK(disk_->WritePage(id, f.page));
    f.dirty.store(false, std::memory_order_relaxed);
    shard.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t i = 0; i < shard.num_frames; ++i) {
      Frame& f = shard.frames[i];
      const PageId id = f.id.load(std::memory_order_relaxed);
      (void)f.pins.load(std::memory_order_acquire);  // as in FlushPage
      if (id != kInvalidPageId && f.dirty.load(std::memory_order_relaxed)) {
        ATIS_RETURN_NOT_OK(disk_->WritePage(id, f.page));
        f.dirty.store(false, std::memory_order_relaxed);
        shard.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t i = 0; i < shard.num_frames; ++i) {
      const Frame& f = shard.frames[i];
      const PageId id = f.id.load(std::memory_order_relaxed);
      if (id != kInvalidPageId &&
          f.pins.load(std::memory_order_relaxed) != 0) {
        return Status::FailedPrecondition("EvictAll with pinned page " +
                                          std::to_string(id));
      }
    }
    for (size_t i = 0; i < shard.num_frames; ++i) {
      Frame& f = shard.frames[i];
      const PageId id = f.id.load(std::memory_order_relaxed);
      if (id == kInvalidPageId) continue;
      if (!ClaimUnpinned(f)) {
        return Status::FailedPrecondition("EvictAll with pinned page " +
                                          std::to_string(id));
      }
      if (f.dirty.load(std::memory_order_relaxed)) {
        if (Status st = disk_->WritePage(id, f.page); !st.ok()) {
          f.pins.store(0, std::memory_order_release);
          return st;
        }
        shard.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
      }
      Unmap(f);
      shard.free_frames.push_back(static_cast<uint32_t>(i));
      f.pins.store(0, std::memory_order_release);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Status BufferPool::DeletePage(PageId id) {
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint32_t idx = table_.Get(id);
    if (idx != kNoFrame) {
      Frame& f = shard.frames[idx];
      if (!ClaimUnpinned(f)) {
        return Status::FailedPrecondition("DeletePage on pinned page " +
                                          std::to_string(id));
      }
      Unmap(f);
      shard.free_frames.push_back(idx);
      f.pins.store(0, std::memory_order_release);
    }
  }
  return disk_->DeallocatePage(id);
}

size_t BufferPool::num_cached() const {
  size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mu);
    for (size_t i = 0; i < shard_ptr->num_frames; ++i) {
      total += shard_ptr->frames[i].id.load(std::memory_order_relaxed) !=
               kInvalidPageId;
    }
  }
  return total;
}

bool BufferPool::IsCached(PageId id) const {
  std::lock_guard<std::mutex> lock(ShardFor(id).mu);
  return table_.Get(id) != kNoFrame;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats s;
  for (const auto& shard_ptr : shards_) {
    for (size_t i = 0; i < shard_ptr->num_frames; ++i) {
      s.hits += shard_ptr->frames[i].hits.load(std::memory_order_relaxed);
    }
    s.misses += shard_ptr->misses.load(std::memory_order_relaxed);
    s.evictions += shard_ptr->evictions.load(std::memory_order_relaxed);
    s.dirty_writebacks +=
        shard_ptr->dirty_writebacks.load(std::memory_order_relaxed);
  }
  s.read_retries = read_retries_.load(std::memory_order_relaxed);
  s.retries_exhausted = retries_exhausted_.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::ResetStats() {
  // Every counter in BufferPoolStats, shard-local and pool-global alike —
  // a reset that misses a field corrupts every delta-based observer.
  for (const auto& shard_ptr : shards_) {
    for (size_t i = 0; i < shard_ptr->num_frames; ++i) {
      shard_ptr->frames[i].hits.store(0, std::memory_order_relaxed);
    }
    shard_ptr->misses.store(0, std::memory_order_relaxed);
    shard_ptr->evictions.store(0, std::memory_order_relaxed);
    shard_ptr->dirty_writebacks.store(0, std::memory_order_relaxed);
  }
  read_retries_.store(0, std::memory_order_relaxed);
  retries_exhausted_.store(0, std::memory_order_relaxed);
}

Status BufferPool::ReadWithRetry(PageId id, Page* dest) {
  Status io = disk_->ReadPage(id, dest);
  if (io.ok() || !retry_.enabled()) return io;
  uint32_t backoff = retry_.initial_backoff_micros;
  for (int attempt = 1;
       attempt < retry_.max_attempts && io.IsTransientStorageFault();
       ++attempt) {
    read_retries_.fetch_add(1, std::memory_order_relaxed);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      backoff *= 2;
    }
    io = disk_->ReadPage(id, dest);
  }
  if (!io.ok() && io.IsTransientStorageFault()) {
    retries_exhausted_.fetch_add(1, std::memory_order_relaxed);
  }
  return io;
}

void BufferPool::Unpin(PageId id, uint32_t frame) {
  Shard& shard = ShardFor(id);
  Frame& f = shard.frames[frame];
  assert(f.id.load(std::memory_order_relaxed) == id &&
         f.pins.load(std::memory_order_relaxed) > 0);
  // The shard clock is only read here (latch holders raise it), so an
  // unpin writes nothing but its own frame and thread. Stamp before the
  // release-decrement: an evictor that sees the frame unpinned also sees
  // its new LRU position.
  const uint64_t floor = shard.clock.load(std::memory_order_relaxed);
  t_unpin_stamp = (t_unpin_stamp < floor ? floor : t_unpin_stamp) + 1;
  f.stamp.store(t_unpin_stamp, std::memory_order_relaxed);
  f.pins.fetch_sub(1, std::memory_order_release);
}

void BufferPool::MarkDirty(PageId id, uint32_t frame) {
  Frame& f = ShardFor(id).frames[frame];
  assert(f.id.load(std::memory_order_relaxed) == id &&
         f.pins.load(std::memory_order_relaxed) > 0);
  f.dirty.store(true, std::memory_order_relaxed);
}

bool BufferPool::TryClaim(Frame& f) {
  int32_t expected = 0;
  return f.pins.compare_exchange_strong(expected, kBusy,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed);
}

bool BufferPool::ClaimUnpinned(Frame& f) {
  for (int attempt = 0; attempt < kClaimAttempts; ++attempt) {
    if (TryClaim(f)) return true;
    // A fill in flight owns a busy frame.
    if (f.pins.load(std::memory_order_relaxed) < 0) return false;
    std::this_thread::yield();
  }
  return false;
}

void BufferPool::Unmap(Frame& f) {
  table_.Set(f.id.load(std::memory_order_relaxed), kNoFrame);
  f.id.store(kInvalidPageId, std::memory_order_relaxed);
  f.dirty.store(false, std::memory_order_relaxed);
}

Result<uint32_t> BufferPool::ClaimVictim(Shard& shard) {
  if (!shard.free_frames.empty()) {
    // Free frames are used first. One may carry a stale optimistic pin for
    // a moment (its holder sees the invalid id and undoes it), so wait it
    // out rather than skip the frame.
    const uint32_t idx = shard.free_frames.back();
    while (!ClaimUnpinned(shard.frames[idx])) {
    }
    shard.free_frames.pop_back();
    return idx;
  }
  for (int attempt = 0; attempt < kClaimAttempts; ++attempt) {
    // LRU victim: the unpinned resident frame unpinned longest ago.
    uint32_t best = kNoFrame;
    uint64_t best_stamp = UINT64_MAX;
    uint64_t newest = 0;
    for (size_t i = 0; i < shard.num_frames; ++i) {
      const Frame& f = shard.frames[i];
      if (f.pins.load(std::memory_order_acquire) != 0) continue;
      const uint64_t stamp = f.stamp.load(std::memory_order_relaxed);
      if (stamp < best_stamp) {
        best_stamp = stamp;
        best = static_cast<uint32_t>(i);
      }
      if (stamp > newest) newest = stamp;
    }
    // Raise the clock to the newest stamp seen, so every thread's next
    // unpin in this shard ranks after every frame unpinned so far.
    if (newest > shard.clock.load(std::memory_order_relaxed)) {
      shard.clock.store(newest, std::memory_order_relaxed);
    }
    if (best == kNoFrame) {
      std::this_thread::yield();
      continue;
    }
    Frame& f = shard.frames[best];
    if (!TryClaim(f)) continue;  // pinned since the scan: look again
    if (f.dirty.load(std::memory_order_relaxed)) {
      if (Status st = disk_->WritePage(f.id.load(std::memory_order_relaxed),
                                       f.page);
          !st.ok()) {
        f.pins.store(0, std::memory_order_release);
        return st;
      }
      shard.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
    }
    Unmap(f);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
    return best;
  }
  return Status::ResourceExhausted("buffer pool: all frames of shard pinned");
}

}  // namespace atis::storage
