// Slotted-page heap file: unordered collection of variable-length records.
//
// Page layout:
//   [0..4)   next_page_id (uint32)
//   [4..6)   slot_count   (uint16)
//   [6..8)   free_end     (uint16)  -- low end of the record area
//   [8..)    slot directory, 4 bytes per slot: {offset u16, size u16}
//   ...free space...
//   [free_end..kPageSize) record payloads (grow downward)
// A slot with offset == 0 is a tombstone (page offsets of live records are
// always >= the header size, so 0 is unambiguous).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/status.h"

namespace atis::storage {

struct RecordId {
  PageId page = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page != kInvalidPageId; }
  friend bool operator==(const RecordId&, const RecordId&) = default;
};

class HeapFile {
 public:
  /// Creates an empty heap file; pages are allocated on demand.
  explicit HeapFile(BufferPool* pool) : pool_(pool) {}

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Largest record one page holds: the page minus its 8-byte header and
  /// one 4-byte slot.
  static constexpr size_t kMaxRecordSize = kPageSize - 8 - 4;

  /// Appends a record of at most kMaxRecordSize bytes (InvalidArgument
  /// otherwise).
  Result<RecordId> Insert(std::span<const uint8_t> record);

  /// Calls `visit(std::span<const uint8_t>)` with the record's payload on
  /// its pinned page — no copy. The span is valid only during the call.
  /// NotFound if the slot is a tombstone or out of range.
  template <typename Visit>
  Status Read(RecordId rid, Visit&& visit) const {
    ATIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page));
    const Page& p = guard.page();
    ATIS_ASSIGN_OR_RETURN(const auto slot, LiveSlot(p, rid.slot));
    visit(std::span<const uint8_t>(p.data() + slot.first, slot.second));
    return Status::OK();
  }

  /// Tombstones a record.
  Status Delete(RecordId rid);

  /// Deletes every record and releases all pages back to the disk manager.
  Status Clear();

  /// The free-space map: per data page, in link order, what Insert's
  /// first fit reads instead of the page. Kept current by every insert,
  /// delete and compaction without rescanning the slot directory.
  struct PageInfo {
    PageId id;
    uint16_t free_bytes;  ///< contiguous free space
    uint16_t dead_bytes;  ///< reclaimable-by-compaction space
    uint16_t tombstones;  ///< deleted slots an insert may reuse
  };
  const std::vector<PageInfo>& page_infos() const { return pages_; }

  size_t num_records() const { return num_records_; }
  size_t num_pages() const { return pages_.size(); }

  /// Same-size rewrites in place, and reads on the same pin. Edit(rid)
  /// pins the record's page for writing (marking it dirty) and hands out
  /// the payload bytes on that page; Read(rid) pins it without marking it.
  /// The page stays pinned while consecutive reads and edits land on it,
  /// so a run of records on one page — or a read and then a rewrite of one
  /// record — costs one fetch. Release() (or the editor's destruction)
  /// unpins it.
  class Editor {
   public:
    explicit Editor(const HeapFile* file) : file_(file) {}

    /// Payload of `rid`, read-only; valid until the next Read(), Edit()
    /// or Release(). NotFound if the slot is a tombstone or out of range.
    Result<std::span<const uint8_t>> Read(RecordId rid);
    /// Payload of `rid`, writable in place; valid until the next Read(),
    /// Edit() or Release(). NotFound as for Read().
    Result<std::span<uint8_t>> Edit(RecordId rid);
    void Release() {
      guard_.Release();
      dirty_ = nullptr;
    }

   private:
    /// Pins `page` unless the editor already holds it.
    Status Pin(PageId page);

    const HeapFile* file_;
    PageGuard guard_;
    Page* dirty_ = nullptr;  ///< guard_'s page once marked dirty
  };

  /// Forward scan over live records. A storage error (e.g. an injected
  /// disk fault) ends the scan — Valid() goes false — and is reported by
  /// status(); callers that must distinguish end-of-file from a failed
  /// scan check status() after the loop.
  class Iterator {
   public:
    Iterator(const HeapFile* file, size_t page_index);

    bool Valid() const { return valid_; }
    RecordId rid() const { return rid_; }
    /// Payload of the current record, read in place on the pinned page.
    /// Valid only until Next() (or the iterator's move or destruction).
    /// Precondition: Valid().
    std::span<const uint8_t> record() const {
      return {guard_.page().data() + offset_, size_};
    }
    void Next() {
      assert(valid_);
      ++slot_;
      AdvanceToLive();
    }
    /// OK unless a page fetch failed mid-scan.
    const Status& status() const { return status_; }

   private:
    void LoadPage();
    void AdvanceToLive() {
      while (valid_) {
        const Page& p = guard_.page();
        for (; slot_ < slot_count_; ++slot_) {
          const auto [offset, size] = ReadSlot(p, slot_);
          if (offset != 0) {
            rid_ = RecordId{guard_.id(), slot_};
            offset_ = offset;
            size_ = size;
            return;
          }
        }
        ++page_index_;
        LoadPage();
      }
    }

    const HeapFile* file_;
    size_t page_index_;
    uint16_t slot_ = 0;
    uint16_t slot_count_ = 0;
    PageGuard guard_;
    bool valid_ = false;
    Status status_;
    RecordId rid_;
    uint16_t offset_ = 0;
    uint16_t size_ = 0;
  };

  Iterator Begin() const { return Iterator(this, 0); }

 private:
  friend class Iterator;

  static constexpr size_t kHeaderSize = 8;
  static constexpr size_t kSlotSize = 4;
  static constexpr size_t kOffNext = 0;
  static constexpr size_t kOffSlotCount = 4;
  static constexpr size_t kOffFreeEnd = 6;

  static uint16_t SlotCount(const Page& p) {
    return p.ReadAt<uint16_t>(kOffSlotCount);
  }
  static uint16_t FreeEnd(const Page& p) {
    return p.ReadAt<uint16_t>(kOffFreeEnd);
  }
  static std::pair<uint16_t, uint16_t> ReadSlot(const Page& p, uint16_t slot) {
    const size_t base = kHeaderSize + kSlotSize * slot;
    return {p.ReadAt<uint16_t>(base), p.ReadAt<uint16_t>(base + 2)};
  }
  static void WriteSlot(Page* p, uint16_t slot, uint16_t offset,
                        uint16_t size) {
    const size_t base = kHeaderSize + kSlotSize * slot;
    p->WriteAt<uint16_t>(base, offset);
    p->WriteAt<uint16_t>(base + 2, size);
  }
  static size_t ContiguousFree(const Page& p) {
    const size_t dir_end = kHeaderSize + kSlotSize * SlotCount(p);
    const size_t free_end = FreeEnd(p);
    return free_end > dir_end ? free_end - dir_end : 0;
  }

  Result<PageId> AllocateDataPage();
  /// {offset, size} of a live slot's payload on `p`; NotFound for a
  /// tombstone or an out-of-range slot.
  static Result<std::pair<uint16_t, uint16_t>> LiveSlot(const Page& p,
                                                        uint16_t slot);
  /// Rewrites the page with live records packed at the high end.
  static void CompactPage(Page* p);

  BufferPool* pool_;
  std::vector<PageInfo> pages_;
  /// pages_ index of each data page, for deletes.
  std::unordered_map<PageId, size_t> page_index_;
  size_t num_records_ = 0;
};

}  // namespace atis::storage
