#include "core/update_log.h"

#include <cstring>
#include <fstream>
#include <vector>

#include "util/crc32.h"

namespace atis::core {

namespace {

constexpr char kHeaderMagic[8] = {'A', 'T', 'I', 'S', 'W', '1', '\n', '\0'};
constexpr uint32_t kFrameMagic = 0x31574141u;  // "AAW1"
constexpr size_t kRecordBytes = 4 + 4 + 8;
constexpr size_t kFrameOverhead = 4 + 8 + 4 + 4;  // magic+seq+count+crc

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::string EncodeFrame(std::span<const EdgeCostUpdate> updates,
                        uint64_t seq) {
  std::string frame;
  frame.reserve(kFrameOverhead + updates.size() * kRecordBytes);
  PutU32(&frame, kFrameMagic);
  PutU64(&frame, seq);
  PutU32(&frame, static_cast<uint32_t>(updates.size()));
  for (const EdgeCostUpdate& u : updates) {
    PutU32(&frame, static_cast<uint32_t>(u.u));
    PutU32(&frame, static_cast<uint32_t>(u.v));
    uint64_t bits;
    std::memcpy(&bits, &u.cost, sizeof bits);
    PutU64(&frame, bits);
  }
  // Checksum everything after the frame magic: seq, count, records.
  const uint32_t crc = Crc32(frame.data() + 4, frame.size() - 4);
  PutU32(&frame, crc);
  return frame;
}

struct Scan {
  UpdateLog::ReplayStats stats;
  Status status = Status::OK();  // non-OK = structural corruption
};

/// Walks `data` frame by frame, invoking `apply` (may be null) for every
/// committed frame with seq > after_seq. Stops at the first invalid
/// frame (torn tail); a bad header is corruption, not a tear.
Scan ScanLog(const std::string& data, uint64_t after_seq,
             const UpdateLog::ReplayFn& apply) {
  Scan out;
  if (data.size() < sizeof kHeaderMagic ||
      std::memcmp(data.data(), kHeaderMagic, sizeof kHeaderMagic) != 0) {
    out.status = Status::Corruption("not an ATISW1 update log");
    return out;
  }
  size_t at = sizeof kHeaderMagic;
  out.stats.valid_bytes = at;
  std::vector<EdgeCostUpdate> batch;
  while (at < data.size()) {
    if (data.size() - at < kFrameOverhead) break;  // partial frame header
    const char* p = data.data() + at;
    if (GetU32(p) != kFrameMagic) break;
    const uint64_t seq = GetU64(p + 4);
    const uint32_t count = GetU32(p + 12);
    if (count > UpdateLog::kMaxRecordsPerFrame) break;
    const size_t body = static_cast<size_t>(count) * kRecordBytes;
    if (data.size() - at < kFrameOverhead + body) break;  // torn records
    const uint32_t stored_crc = GetU32(p + 16 + body);
    if (Crc32(p + 4, 12 + body) != stored_crc) break;  // torn/corrupt
    if (apply != nullptr && seq > after_seq) {
      batch.clear();
      batch.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        const char* r = p + 16 + static_cast<size_t>(i) * kRecordBytes;
        EdgeCostUpdate u;
        u.u = static_cast<graph::NodeId>(GetU32(r));
        u.v = static_cast<graph::NodeId>(GetU32(r + 4));
        uint64_t bits = GetU64(r + 8);
        std::memcpy(&u.cost, &bits, sizeof bits);
        batch.push_back(u);
      }
      if (Status st = apply(seq, batch); !st.ok()) {
        out.status = std::move(st);
        return out;
      }
    }
    ++out.stats.batches;
    out.stats.records += count;
    out.stats.last_seq = seq;
    at += kFrameOverhead + body;
    out.stats.valid_bytes = at;
  }
  out.stats.torn_tail = out.stats.valid_bytes < data.size();
  return out;
}

Result<std::string> ReadWhole(const std::string& path, bool* exists) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *exists = false;
    return std::string();
  }
  *exists = true;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Unavailable("cannot read " + path);
  return data;
}

}  // namespace

Result<UpdateLog::ReplayStats> UpdateLog::Replay(const std::string& path,
                                                 storage::DiskManager* disk,
                                                 uint64_t after_seq,
                                                 const ReplayFn& apply) {
  bool exists = false;
  ATIS_ASSIGN_OR_RETURN(const std::string data, ReadWhole(path, &exists));
  if (!exists) return ReplayStats{};  // first boot: nothing to replay
  if (disk != nullptr && !data.empty()) {
    disk->meter().RecordRead((data.size() + storage::DurableFile::kBlockBytes -
                              1) /
                             storage::DurableFile::kBlockBytes);
  }
  Scan scan = ScanLog(data, after_seq, apply);
  ATIS_RETURN_NOT_OK(scan.status);
  return scan.stats;
}

Result<std::unique_ptr<UpdateLog>> UpdateLog::Open(Options options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("UpdateLog needs a path");
  }
  bool exists = false;
  ATIS_ASSIGN_OR_RETURN(const std::string data,
                        ReadWhole(options.path, &exists));
  ReplayStats stats;
  if (exists && !data.empty()) {
    Scan scan = ScanLog(data, /*after_seq=*/~uint64_t{0}, nullptr);
    ATIS_RETURN_NOT_OK(scan.status);
    stats = scan.stats;
  }
  ATIS_ASSIGN_OR_RETURN(
      auto file, storage::DurableFile::Open(options.path, options.disk));
  if (!exists || data.empty()) {
    ATIS_RETURN_NOT_OK(file->TruncateTo(0));
    ATIS_RETURN_NOT_OK(file->Append(kHeaderMagic, sizeof kHeaderMagic));
    ATIS_RETURN_NOT_OK(file->Sync());
    stats = ReplayStats{};
    stats.valid_bytes = sizeof kHeaderMagic;
  } else if (stats.torn_tail) {
    // Discard the torn tail so the next frame starts on a clean boundary.
    ATIS_RETURN_NOT_OK(file->TruncateTo(stats.valid_bytes));
  }
  return std::unique_ptr<UpdateLog>(
      new UpdateLog(std::move(options), std::move(file), stats));
}

Status UpdateLog::Append(std::span<const EdgeCostUpdate> updates,
                         uint64_t seq) {
  ATIS_RETURN_NOT_OK(poisoned_);
  if (seq <= last_seq_) {
    return Status::InvalidArgument("WAL sequence numbers must increase");
  }
  if (updates.size() > kMaxRecordsPerFrame) {
    return Status::InvalidArgument(
        "WAL batch of " + std::to_string(updates.size()) +
        " updates exceeds the frame limit of " +
        std::to_string(kMaxRecordsPerFrame) + " records");
  }
  const std::string frame = EncodeFrame(updates, seq);
  ATIS_RETURN_NOT_OK(file_->Append(frame.data(), frame.size()));
  if (options_.sync_on_commit) {
    if (Status st = file_->Sync(); !st.ok()) {
      // An unsynced frame is not committed: take it back so a later
      // successful append is not preceded by a maybe-durable ghost.
      if (Status tr = file_->TruncateTo(file_->size() - frame.size());
          !tr.ok()) {
        // The ghost could not be taken back: a CRC-valid frame with this
        // seq may still be in the file. If a retry reused the seq with
        // different contents, replay would apply the never-acknowledged
        // ghost first — so the log refuses every further append instead.
        // (Reopening is safe: the scan counts the surviving ghost as
        // committed and sequences continue past it, never through it.)
        poisoned_ = Status::Unavailable(
            "update log poisoned: unsynced frame could not be rolled "
            "back (" + tr.ToString() + ")");
      }
      return st;
    }
    ++sync_commits_;
  }
  last_seq_ = seq;
  ++appended_batches_;
  appended_records_ += updates.size();
  bytes_appended_ += frame.size();
  return Status::OK();
}

Status UpdateLog::Reset() {
  ATIS_RETURN_NOT_OK(file_->TruncateTo(sizeof kHeaderMagic));
  ATIS_RETURN_NOT_OK(file_->Sync());
  return Status::OK();
}

}  // namespace atis::core
