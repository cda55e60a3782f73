// Write-ahead log of edge-cost updates — the durable half of the traffic
// ingestion write path (file format ATISW1).
//
// Layout: an 8-byte header magic, then a sequence of batch frames
//
//   u32 frame magic | u64 batch seq | u32 record count |
//   count x { i32 u | i32 v | f64 cost } | u32 CRC-32
//
// with the checksum covering everything from the sequence number through
// the last record (host little-endian; the log is machine-local state,
// not an interchange format). A batch is COMMITTED once its frame is
// fully appended and fsync'd — Append returns only after the sync, so a
// batch acknowledged to the caller survives any later crash.
//
// Torn-tail tolerance: a crash mid-append leaves a partial frame (or a
// frame whose checksum does not match) at the end of the file. Replay
// stops at the first invalid frame and reports the prefix; Open truncates
// that tail so the next append starts on a clean boundary. Everything
// before the tear is intact — frames are append-only and never rewritten.
//
// I/O flows through storage::DurableFile, so appends are metered on the
// owning DiskManager in block units and chaos-testable through
// FaultProfile's write/fsync rates: a failed append writes nothing, is
// not metered, and leaves the log exactly as it was.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "graph/graph.h"
#include "storage/durable_file.h"
#include "util/status.h"

namespace atis::core {

/// One traffic-sensor reading: the new absolute cost of edge u -> v.
struct EdgeCostUpdate {
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
  double cost = 0.0;
};

class UpdateLog {
 public:
  struct Options {
    std::string path;
    /// Meters appends/replays and injects write/fsync faults; may be null.
    storage::DiskManager* disk = nullptr;
    /// fsync after every frame (the commit point). Turning this off
    /// trades the durability guarantee for append throughput — only the
    /// chaos bench does, to isolate fsync cost.
    bool sync_on_commit = true;
  };

  /// What a replay (or Open's recovery scan) found.
  struct ReplayStats {
    uint64_t batches = 0;       ///< committed frames seen
    uint64_t records = 0;       ///< updates across those frames
    uint64_t last_seq = 0;      ///< highest committed sequence number
    uint64_t valid_bytes = 0;   ///< file offset after the last valid frame
    bool torn_tail = false;     ///< bytes past valid_bytes were discarded
  };

  using ReplayFn =
      std::function<Status(uint64_t seq, std::span<const EdgeCostUpdate>)>;

  /// Replays every committed frame with seq > `after_seq`, in order. A
  /// missing file replays as empty (a server's first boot has no log).
  /// Stops cleanly at a torn tail; a file that is not an ATISW1 log at
  /// all is Corruption. Scanned bytes are metered as block reads on
  /// `disk` when given.
  static Result<ReplayStats> Replay(const std::string& path,
                                    storage::DiskManager* disk,
                                    uint64_t after_seq,
                                    const ReplayFn& apply);

  /// Opens (or creates) the log for appending: scans for the valid
  /// prefix, truncates any torn tail, and positions at the end.
  /// recovery() reports what the scan found; last_seq() seeds the next
  /// batch's sequence number.
  static Result<std::unique_ptr<UpdateLog>> Open(Options options);

  /// Most records one frame may carry. Replay reads a larger count as a
  /// corrupt length field (a torn tail), so Append refuses such a batch
  /// rather than commit a frame the next Open would truncate.
  static constexpr size_t kMaxRecordsPerFrame = size_t{1} << 24;

  /// Appends one committed batch frame (fsync'd when sync_on_commit).
  /// `seq` must increase across appends, and a batch holds at most
  /// kMaxRecordsPerFrame updates (InvalidArgument otherwise). On failure
  /// the log is unchanged and unmetered — the caller must not apply the
  /// batch. One exception: if a failed commit's rollback truncate ALSO
  /// fails, a maybe-durable ghost frame may survive in the file, and the
  /// log poisons itself — every further Append is refused (see
  /// poison_status()) so no retry can reuse the ghost's sequence number
  /// with different contents. Reopening the path recovers: the scan
  /// treats a surviving ghost as committed and sequences continue past
  /// it.
  Status Append(std::span<const EdgeCostUpdate> updates, uint64_t seq);

  /// OK normally; the permanent refusal reason after a failed-commit
  /// rollback could not restore the log's tail.
  const Status& poison_status() const { return poisoned_; }

  /// Truncates back to an empty log (header only) after a checkpoint has
  /// made the frames redundant. Sequence numbers keep counting — replay
  /// skips frames at or below the checkpoint's seq anyway.
  Status Reset();

  const std::string& path() const { return options_.path; }
  uint64_t last_seq() const { return last_seq_; }
  const ReplayStats& recovery() const { return recovery_; }
  uint64_t appended_batches() const { return appended_batches_; }
  uint64_t appended_records() const { return appended_records_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t sync_commits() const { return sync_commits_; }

 private:
  UpdateLog(Options options, std::unique_ptr<storage::DurableFile> file,
            ReplayStats recovery)
      : options_(std::move(options)),
        file_(std::move(file)),
        recovery_(recovery),
        last_seq_(recovery.last_seq) {}

  Options options_;
  std::unique_ptr<storage::DurableFile> file_;
  ReplayStats recovery_;
  Status poisoned_;  ///< non-OK: ghost frame on disk, appends refused
  uint64_t last_seq_ = 0;
  uint64_t appended_batches_ = 0;
  uint64_t appended_records_ = 0;
  uint64_t bytes_appended_ = 0;
  uint64_t sync_commits_ = 0;
};

}  // namespace atis::core
