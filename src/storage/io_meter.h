// Block-I/O cost metering.
//
// The paper's "execution time" for database-resident route computation is a
// block-level I/O cost: t_read per block read, t_write per block written,
// t_update (= t_read + t_write) per block read-modify-write, plus fixed
// charges for creating/deleting temporary relations (Table 4A). Every block
// access in this engine flows through an IoMeter so experiment harnesses can
// report cost in exactly the paper's units.
//
// The meter is thread-safe: counters are relaxed atomics, so concurrent
// workers sharing one DiskManager account correctly in aggregate. For
// per-query accounting under concurrency, a worker installs an
// IoMeter::ScopedThreadCounters around its query — every block recorded by
// the calling thread is then mirrored into the scoped IoCounters, which no
// other thread touches.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace atis::storage {

/// Cost parameters; defaults are the paper's Table 4A values (in abstract
/// "units" — the original hardware's time scale).
struct CostParams {
  double t_read = 0.035;          ///< Cost of reading one block.
  double t_write = 0.05;          ///< Cost of writing one block.
  double create_relation = 0.5;   ///< I: creating a temporary relation.
  double delete_relation = 0.5;   ///< D_t: deleting all tuples of a relation.

  /// t_update: read-modify-write of one block.
  double t_update() const { return t_read + t_write; }
};

/// Monotonic counters of block-level work. Copyable; use `operator-` to get
/// the delta across a region of interest.
struct IoCounters {
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  uint64_t relations_created = 0;
  uint64_t relations_deleted = 0;

  /// Cost in paper units under `p`.
  double Cost(const CostParams& p) const {
    return static_cast<double>(blocks_read) * p.t_read +
           static_cast<double>(blocks_written) * p.t_write +
           static_cast<double>(relations_created) * p.create_relation +
           static_cast<double>(relations_deleted) * p.delete_relation;
  }

  IoCounters operator-(const IoCounters& o) const {
    IoCounters d;
    d.blocks_read = blocks_read - o.blocks_read;
    d.blocks_written = blocks_written - o.blocks_written;
    d.relations_created = relations_created - o.relations_created;
    d.relations_deleted = relations_deleted - o.relations_deleted;
    return d;
  }

  IoCounters& operator+=(const IoCounters& o) {
    blocks_read += o.blocks_read;
    blocks_written += o.blocks_written;
    relations_created += o.relations_created;
    relations_deleted += o.relations_deleted;
    return *this;
  }

  std::string ToString() const;
};

namespace internal {
/// The calling thread's per-query sink (see ScopedThreadCounters). A plain
/// IoCounters owned by exactly one thread, so mirroring into it needs no
/// synchronisation.
inline thread_local IoCounters* t_io_sink = nullptr;
}  // namespace internal

/// The meter attached to a DiskManager. All accounting is logical block I/O
/// (the simulation has no real disk), so results are deterministic.
class IoMeter {
 public:
  void RecordRead(uint64_t blocks = 1) {
    blocks_read_.fetch_add(blocks, std::memory_order_relaxed);
    if (internal::t_io_sink != nullptr) {
      internal::t_io_sink->blocks_read += blocks;
    }
  }
  void RecordWrite(uint64_t blocks = 1) {
    blocks_written_.fetch_add(blocks, std::memory_order_relaxed);
    if (internal::t_io_sink != nullptr) {
      internal::t_io_sink->blocks_written += blocks;
    }
  }
  void RecordRelationCreate() {
    relations_created_.fetch_add(1, std::memory_order_relaxed);
    if (internal::t_io_sink != nullptr) {
      ++internal::t_io_sink->relations_created;
    }
  }
  void RecordRelationDelete() {
    relations_deleted_.fetch_add(1, std::memory_order_relaxed);
    if (internal::t_io_sink != nullptr) {
      ++internal::t_io_sink->relations_deleted;
    }
  }

  /// Snapshot of the counters. Under concurrent recording the four fields
  /// are not read as one atomic unit; single-threaded (or quiesced) reads
  /// are exact, which is all the paper-mode deltas need.
  IoCounters counters() const {
    IoCounters c;
    c.blocks_read = blocks_read_.load(std::memory_order_relaxed);
    c.blocks_written = blocks_written_.load(std::memory_order_relaxed);
    c.relations_created = relations_created_.load(std::memory_order_relaxed);
    c.relations_deleted = relations_deleted_.load(std::memory_order_relaxed);
    return c;
  }

  /// The calling thread's counters: its ScopedThreadCounters sink when
  /// one is installed (a served query's own blocks, however many workers
  /// share the disk), else counters(). Per-run deltas read this, so a
  /// run with no sink (the paper benches) sees the shared meter as before.
  IoCounters ThreadCounters() const {
    return internal::t_io_sink != nullptr ? *internal::t_io_sink
                                          : counters();
  }

  void Reset() {
    blocks_read_.store(0, std::memory_order_relaxed);
    blocks_written_.store(0, std::memory_order_relaxed);
    relations_created_.store(0, std::memory_order_relaxed);
    relations_deleted_.store(0, std::memory_order_relaxed);
  }

  double Cost(const CostParams& p) const { return counters().Cost(p); }

  /// RAII per-thread accounting scope: while alive, every block this thread
  /// records (through any meter) is also added to `*sink`. Scopes nest; the
  /// innermost wins. Used by RouteServer workers to report exact per-query
  /// IoCounters off a shared disk.
  class ScopedThreadCounters {
   public:
    explicit ScopedThreadCounters(IoCounters* sink)
        : previous_(internal::t_io_sink) {
      internal::t_io_sink = sink;
    }
    ~ScopedThreadCounters() { internal::t_io_sink = previous_; }
    ScopedThreadCounters(const ScopedThreadCounters&) = delete;
    ScopedThreadCounters& operator=(const ScopedThreadCounters&) = delete;

   private:
    IoCounters* previous_;
  };

 private:
  std::atomic<uint64_t> blocks_read_{0};
  std::atomic<uint64_t> blocks_written_{0};
  std::atomic<uint64_t> relations_created_{0};
  std::atomic<uint64_t> relations_deleted_{0};
};

}  // namespace atis::storage
