// Query tracing: nested spans over the metered storage stack.
//
// A Tracer records a tree of spans (run → iteration → statement →
// operator). Each span snapshots the disk's IoCounters and the buffer
// pool's hit/miss/eviction counters on entry and exit, so its delta is the
// exact block-level work of the region — the same accounting the paper's
// cost model predicts per QUEL statement (Tables 2/3). Spans never perform
// I/O themselves, so a traced run reports bit-identical IoCounters to an
// untraced one (asserted by test_obs_trace.cc).
//
// Instrumented code uses ScopedSpan, which is a no-op unless a Tracer is
// installed (Tracer::Install / kInstallScope), keeping the untraced hot
// path at a thread-local pointer test.
//
// Exports: a human-readable tree (ToTreeString) and Chrome trace_event
// JSON (ToChromeTraceJson; load in chrome://tracing or Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/io_meter.h"

namespace atis::obs {

/// One traced region. Owned by its parent span (or by the Tracer for
/// roots); pointers handed out by BeginSpan stay valid for the tracer's
/// lifetime.
struct TraceSpan {
  std::string name;
  std::string category;  ///< "run", "iteration", "statement", "operator"

  /// Block-level work between entry and exit (includes children).
  storage::IoCounters io;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;

  /// Wall time; monotonic clock, microsecond resolution in exports.
  std::chrono::steady_clock::duration wall{};
  std::chrono::steady_clock::duration start_offset{};  ///< since trace start

  std::vector<std::pair<std::string, std::string>> tags;
  std::vector<std::unique_ptr<TraceSpan>> children;

  void Tag(std::string key, std::string value) {
    tags.emplace_back(std::move(key), std::move(value));
  }
};

class Tracer {
 public:
  /// `disk` supplies IoCounters snapshots; `pool` (optional) supplies
  /// buffer hit/miss/eviction snapshots. Both may be null — spans then
  /// carry wall time only.
  explicit Tracer(storage::DiskManager* disk = nullptr,
                  storage::BufferPool* pool = nullptr);
  ~Tracer();

  /// A tracer whose I/O snapshots come from `thread_io` — a per-thread
  /// IoCounters sink (IoMeter::ScopedThreadCounters) instead of the shared
  /// disk meter. Under the concurrent route server the global meter mixes
  /// every worker's blocks; the thread sink is touched only by the owning
  /// worker, so sampled per-query span trees attribute I/O exactly. Pool
  /// hit/miss snapshots stay off (the pool is shared too). `thread_io`
  /// must outlive the tracer and only ever grow.
  explicit Tracer(const storage::IoCounters* thread_io);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span as a child of the innermost open span (or a new root).
  TraceSpan* BeginSpan(std::string name, std::string category);
  /// Closes `span`, which must be the innermost open span.
  void EndSpan(TraceSpan* span);

  /// Completed + still-open root spans, in start order.
  const std::vector<std::unique_ptr<TraceSpan>>& roots() const {
    return roots_;
  }

  /// Depth-first collection of every span whose category matches
  /// (empty = all spans).
  std::vector<const TraceSpan*> SpansByCategory(
      std::string_view category) const;

  /// Human-readable indented tree; per-span blocks read/written, buffer
  /// hits/misses, wall time, and derived cost under `params`.
  std::string ToTreeString(const storage::CostParams& params = {}) const;

  /// Chrome trace_event JSON ("X" complete events; open spans are closed
  /// at the current instant). Load in chrome://tracing or Perfetto.
  std::string ToChromeTraceJson() const;

  /// Installs this tracer as the current one for the thread. Returns the
  /// previously installed tracer (restore it when done, or use
  /// InstallScope).
  Tracer* Install();
  static void Restore(Tracer* previous);

  /// The thread's current tracer, or nullptr when tracing is off. When the
  /// tree is configured with -DATIS_TRACE_DEFAULT_OFF=OFF a process-global
  /// tracer (wall-time only) is created lazily so every run is traced.
  static Tracer* Current();

  /// RAII installer: installs `tracer` on construction, restores the
  /// previous tracer on destruction.
  class InstallScope {
   public:
    explicit InstallScope(Tracer* tracer)
        : previous_(tracer ? tracer->Install() : Current()),
          installed_(tracer != nullptr) {}
    ~InstallScope() {
      if (installed_) Restore(previous_);
    }
    InstallScope(const InstallScope&) = delete;
    InstallScope& operator=(const InstallScope&) = delete;

   private:
    Tracer* previous_;
    bool installed_;
  };

 private:
  struct OpenFrame {
    TraceSpan* span;
    storage::IoCounters io_at_entry;
    storage::BufferPoolStats pool_at_entry;
    std::chrono::steady_clock::time_point entered;
  };

  storage::IoCounters SnapshotIo() const;
  storage::BufferPoolStats SnapshotPool() const;

  storage::DiskManager* disk_;
  storage::BufferPool* pool_;
  /// Non-null in ForThreadCounters mode; wins over disk_ for snapshots.
  const storage::IoCounters* thread_io_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<TraceSpan>> roots_;
  std::vector<OpenFrame> open_;
};

/// Span guard for instrumented code. Inactive (all methods no-ops) when no
/// tracer is installed on the thread at construction time; an inactive
/// span allocates nothing and formats no tag.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view name, std::string_view category) {
    tracer_ = Tracer::Current();
    if (tracer_ != nullptr) {
      span_ = tracer_->BeginSpan(std::string(name), std::string(category));
    }
  }
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return span_ != nullptr; }

  void Tag(std::string_view key, std::string_view value) {
    if (span_ != nullptr) span_->Tag(std::string(key), std::string(value));
  }
  void Tag(std::string_view key, uint64_t value) {
    if (span_ != nullptr) span_->Tag(std::string(key), std::to_string(value));
  }

  /// Ends the span early (also done by the destructor).
  void End() {
    if (span_ != nullptr) {
      tracer_->EndSpan(span_);
      span_ = nullptr;
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  TraceSpan* span_ = nullptr;
};

/// Sums the io / pool deltas of every span with `category` (deep). Nested
/// spans of the same category would double-count; the instrumentation
/// keeps categories non-nested ("statement" never contains "statement").
struct CategoryTotals {
  storage::IoCounters io;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t spans = 0;
};
CategoryTotals SumByCategory(const Tracer& tracer, std::string_view category);

}  // namespace atis::obs
