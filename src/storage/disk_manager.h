// Simulated disk: a page store whose every block access is metered.
//
// The simulation holds pages in memory (this is a laptop-scale reproduction
// of a 1993 I/O cost study — the *accounting* is what matters, not physical
// seeks), but the interface is exactly that of a paged disk file: allocate,
// read, write, deallocate.
//
// Thread safety: all operations may be called concurrently. Page I/O takes
// no lock on the fault-free path: pages live in slots reached through a
// slot table that a reader finds with one acquire-load, and a slot's live
// flag says whether its id is allocated. Allocation and deallocation take
// the mutex exclusively; when the table is full, allocation publishes a
// copy twice the size and keeps the old array until destruction, so a
// reader holding it stays valid. A deallocated page keeps its slot and
// memory, and is zeroed when its id is reused: a read racing a
// deallocation either sees the id freed or copies bytes that are still
// owned, never freed memory. The meter and the fault countdowns are
// atomic; only an enabled FaultProfile takes the mutex shared, because
// the profile is written under it. Concurrent ReadPage/WritePage of the
// *same* page are the caller's responsibility — the buffer pool
// guarantees it by routing every page through exactly one latch-protected
// shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "storage/io_meter.h"
#include "storage/page.h"
#include "util/status.h"

namespace atis::storage {

/// Optional simulated device latency, charged per block access by
/// sleeping the calling thread. Zero (the default) keeps the disk instant,
/// as the paper-mode experiments require — they account cost analytically.
/// The throughput benchmark turns this on so that a route-serving workload
/// is I/O-bound the way the paper's Table 4A time constants say it was,
/// which is exactly the regime where concurrent query serving pays off:
/// workers overlap their block waits.
struct DiskLatencyModel {
  uint32_t read_micros = 0;   ///< sleep per block read
  uint32_t write_micros = 0;  ///< sleep per block written

  bool enabled() const { return read_micros > 0 || write_micros > 0; }
};

/// Probabilistic fault injection, seeded for reproducible chaos runs.
/// Each block access draws once from a counter-hashed SplitMix64 stream:
///   - with `permanent_rate` the device trips into a permanent-failure
///     state — every later access fails kInternal until
///     ClearFaultInjection() (RocksDB background-error style);
///   - otherwise with `transient_rate` the single access fails
///     kUnavailable (a retry may succeed);
///   - independently, with `spike_rate` a *successful* access sleeps an
///     extra `spike_micros` (a straggler, on top of DiskLatencyModel).
/// Failed accesses are never metered and never sleep.
struct FaultProfile {
  uint64_t seed = 1993;        ///< repo-wide experiment seed
  double transient_rate = 0.0; ///< P(this access fails kUnavailable)
  double permanent_rate = 0.0; ///< P(this access trips permanent failure)
  double spike_rate = 0.0;     ///< P(this access is a straggler)
  uint32_t spike_micros = 0;   ///< extra sleep charged to a straggler
  /// Write-path chaos, drawn from the same seeded stream: durable-file
  /// appends (WAL frames, checkpoint blocks, see storage/durable_file.h)
  /// fail kUnavailable with `write_transient_rate`, and fsync commits
  /// fail with `sync_transient_rate`. Failed writes are never metered,
  /// mirroring the read-side rule, and a tripped permanent failure stops
  /// durable I/O exactly as it stops page I/O.
  double write_transient_rate = 0.0; ///< P(a durable append fails)
  double sync_transient_rate = 0.0;  ///< P(an fsync commit fails)
  /// P(a durable ftruncate fails) — torn-tail trims on open and the
  /// rollback that takes back an unsynced WAL frame after a failed
  /// commit. A failed rollback is the nastiest durable fault: the log
  /// must poison itself rather than let a ghost frame's seq be reused.
  double truncate_transient_rate = 0.0;

  bool enabled() const {
    return transient_rate > 0.0 || permanent_rate > 0.0 ||
           (spike_rate > 0.0 && spike_micros > 0) ||
           write_transient_rate > 0.0 || sync_transient_rate > 0.0 ||
           truncate_transient_rate > 0.0;
  }
};

class DiskManager {
 public:
  DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a zeroed page and returns its id. Reuses freed ids.
  PageId AllocatePage();

  /// Releases a page. Its id may be recycled by future allocations.
  Status DeallocatePage(PageId id);

  /// Copies the page's contents into *dest, charging one block read.
  Status ReadPage(PageId id, Page* dest);

  /// Overwrites the page from *src, charging one block write.
  Status WritePage(PageId id, const Page& src);

  /// Number of live (allocated, not freed) pages.
  size_t num_allocated() const;

  IoMeter& meter() { return meter_; }
  const IoMeter& meter() const { return meter_; }

  /// Installs (or clears, with a zero model) the simulated device latency.
  /// The sleep happens after a successful access, holding no lock. Not
  /// meant to be changed while I/O is in flight.
  void SetLatencyModel(DiskLatencyModel model) {
    latency_read_micros_.store(model.read_micros, std::memory_order_relaxed);
    latency_write_micros_.store(model.write_micros,
                                std::memory_order_relaxed);
  }
  DiskLatencyModel latency_model() const {
    return {latency_read_micros_.load(std::memory_order_relaxed),
            latency_write_micros_.load(std::memory_order_relaxed)};
  }

  /// Fault injection for tests: after `ops` further successful block
  /// reads/writes, every subsequent I/O fails with an Internal error
  /// until ClearFaultInjection() is called (modelling a device that went
  /// bad, RocksDB background-error style). Failed I/O is not metered.
  /// The whole countdown lives in one atomic word, so concurrent callers
  /// consume it exactly: precisely `ops` accesses succeed.
  void FailAfter(uint64_t ops) {
    fault_countdown_.store(ops < kFaultDisarmed ? ops : kFaultDisarmed - 1,
                           std::memory_order_relaxed);
  }

  /// The next `ops` block accesses fail with kUnavailable (a transient
  /// glitch), after which the device recovers by itself. Deterministic
  /// complement to FaultProfile::transient_rate for retry-policy tests.
  void FailTransient(uint64_t ops) {
    transient_countdown_.store(ops, std::memory_order_relaxed);
  }

  /// Installs (or clears, with a default-constructed profile) the seeded
  /// probabilistic fault model. Also resets the permanent-failure trip and
  /// the draw counter so a fresh profile replays the same fault sequence.
  void SetFaultProfile(FaultProfile profile);
  FaultProfile fault_profile() const;

  /// Clears every injected-fault source: countdown, transient countdown,
  /// probabilistic profile, and a tripped permanent failure.
  void ClearFaultInjection() {
    fault_countdown_.store(kFaultDisarmed, std::memory_order_relaxed);
    transient_countdown_.store(0, std::memory_order_relaxed);
    permanent_tripped_.store(false, std::memory_order_relaxed);
    SetFaultProfile(FaultProfile{});
  }
  bool fault_active() const {
    return fault_countdown_.load(std::memory_order_relaxed) == 0 ||
           permanent_tripped_.load(std::memory_order_relaxed);
  }

  /// Total block accesses failed by any injected-fault source (countdown,
  /// transient, or probabilistic). Monotonic; survives ClearFaultInjection.
  uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }

  /// Fault gate for the durable write path (storage/durable_file.h): one
  /// draw against FaultProfile::write_transient_rate (plus the permanent
  /// trip and deterministic countdowns, which model the whole device). A
  /// caller whose check fails must not meter the access. *spike_micros
  /// (optional) carries a straggler sleep exactly like page I/O.
  Status CheckDurableWrite(uint32_t* spike_micros = nullptr);
  /// Same gate for fsync commits, drawn against sync_transient_rate.
  Status CheckDurableSync();
  /// Same gate for ftruncate (torn-tail trims, failed-commit rollbacks),
  /// drawn against truncate_transient_rate.
  Status CheckDurableTruncate();

 private:
  /// Sentinel countdown value meaning "not armed".
  static constexpr uint64_t kFaultDisarmed = ~uint64_t{0};

  /// One page: its bytes and whether its id is allocated. A slot is
  /// created with its id and lives until the DiskManager is destroyed.
  /// Cache-line aligned, so zeroing or copying one page never writes a
  /// line that holds another slot's live flag.
  struct alignas(64) Slot {
    std::atomic<bool> live{true};
    alignas(64) Page page;
  };
  /// The readers' view of the slots: entry i is id i's slot, or null for
  /// an id not yet handed out. Entries are set under mu_; a full table is
  /// replaced by a copy twice its size, never resized in place.
  struct SlotTable {
    explicit SlotTable(size_t n)
        : capacity(n), slots(new std::atomic<Slot*>[n]()) {}
    size_t capacity;
    std::unique_ptr<std::atomic<Slot*>[]> slots;
  };

  /// The live slot of `id`, or null when `id` is not allocated. Lock-free.
  Slot* LiveSlot(PageId id) const {
    const SlotTable* table = table_.load(std::memory_order_acquire);
    if (id >= table->capacity) return nullptr;
    Slot* slot = table->slots[id].load(std::memory_order_acquire);
    return slot != nullptr && slot->live.load(std::memory_order_acquire)
               ? slot
               : nullptr;
  }
  static Status NotAllocated(PageId id);
  /// Consumes one unit of every armed fault source; error when one fires.
  /// On success *spike_micros carries any straggler sleep to add once the
  /// access is done. Takes mu_ shared only while a FaultProfile is enabled.
  Status CheckFault(uint32_t* spike_micros);
  /// Which durable-path operation a fault check gates (selects the
  /// FaultProfile rate it draws against).
  enum class DurableOp { kWrite, kSync, kTruncate };
  /// Durable-path twin of CheckFault: countdowns and the permanent trip
  /// fire as usual, then one draw against the op's transient rate.
  /// Takes mu_ shared only while a FaultProfile is enabled.
  Status CheckDurableFault(DurableOp op, uint32_t* spike_micros);
  void SimulateLatency(bool is_write, uint32_t spike_micros) const;

  // Three groups, each starting a cache line, so that no page access
  // writes a line another access only reads: the words every access reads
  // (written by configuration calls and table doublings), the meter every
  // access writes, and the allocation state.

  /// Current slot table; the newest entry of tables_.
  alignas(64) std::atomic<const SlotTable*> table_;
  /// Remaining successful ops before permanent failure; kFaultDisarmed =
  /// not armed. One word, consumed by a single CAS loop.
  std::atomic<uint64_t> fault_countdown_{kFaultDisarmed};
  /// Remaining accesses that fail transiently (0 = none).
  std::atomic<uint64_t> transient_countdown_{0};
  /// Whether profile_ is enabled: the atomic fast-path switch, so a
  /// disabled profile costs one relaxed load per access.
  std::atomic<bool> profile_enabled_{false};
  std::atomic<uint32_t> latency_read_micros_{0};
  std::atomic<uint32_t> latency_write_micros_{0};

  alignas(64) IoMeter meter_;

  /// Exclusive for allocation, deallocation and SetFaultProfile; shared
  /// for reads of profile_. Page I/O without a profile never takes it.
  alignas(64) mutable std::shared_mutex mu_;
  /// Every table published, the current one last; older ones are kept
  /// for readers that loaded them before a doubling. Guarded by mu_.
  std::vector<std::unique_ptr<SlotTable>> tables_;
  /// Owner of every slot, indexed by id. Guarded by mu_.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<PageId> free_list_;  // guarded by mu_
  /// FaultProfile fields; written under mu_ (exclusive), read under mu_
  /// (shared).
  FaultProfile profile_;
  std::atomic<bool> permanent_tripped_{false};
  std::atomic<uint64_t> fault_draws_{0};  ///< counter feeding the rng hash
  std::atomic<uint64_t> faults_injected_{0};
};

}  // namespace atis::storage
