#include "storage/heap_file.h"

#include <cassert>
#include <cstring>
#include <string>

namespace atis::storage {

Result<PageId> HeapFile::AllocateDataPage() {
  ATIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage());
  Page& p = guard.MutablePage();
  p.WriteAt<uint32_t>(kOffNext, kInvalidPageId);
  p.WriteAt<uint16_t>(kOffSlotCount, 0);
  p.WriteAt<uint16_t>(kOffFreeEnd, static_cast<uint16_t>(kPageSize));
  if (!pages_.empty()) {
    // Link from the previous tail so the file is reconstructible from disk.
    ATIS_ASSIGN_OR_RETURN(PageGuard prev, pool_->FetchPage(pages_.back().id));
    prev.MutablePage().WriteAt<uint32_t>(kOffNext, guard.id());
  }
  page_index_.emplace(guard.id(), pages_.size());
  pages_.push_back(
      {guard.id(), static_cast<uint16_t>(kPageSize - kHeaderSize), 0, 0});
  return guard.id();
}

Result<RecordId> HeapFile::Insert(std::span<const uint8_t> record) {
  if (record.size() > kMaxRecordSize) {
    return Status::InvalidArgument("record of " +
                                   std::to_string(record.size()) +
                                   " bytes exceeds page capacity of " +
                                   std::to_string(kMaxRecordSize) +
                                   " bytes");
  }
  const size_t need = record.size() + kSlotSize;
  // First-fit over the in-memory free-space map (catalog metadata: no I/O).
  size_t target = pages_.size();
  for (size_t i = 0; i < pages_.size(); ++i) {
    if (pages_[i].free_bytes >= need) {
      target = i;
      break;
    }
  }
  if (target == pages_.size()) {
    // Second pass: a page whose dead space, once compacted, fits the record.
    for (size_t i = 0; i < pages_.size(); ++i) {
      if (static_cast<size_t>(pages_[i].free_bytes) + pages_[i].dead_bytes >=
          need) {
        target = i;
        break;
      }
    }
  }
  if (target == pages_.size()) {
    ATIS_RETURN_NOT_OK(AllocateDataPage().status());
  }

  PageInfo& info = pages_[target];
  ATIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(info.id));
  Page& p = guard.MutablePage();
  if (ContiguousFree(p) < need) {
    CompactPage(&p);
    info.dead_bytes = 0;
  }
  assert(ContiguousFree(p) >= need);

  const uint16_t slot_count = SlotCount(p);
  // Reuse the first tombstone slot if the page has one (keeps the
  // directory compact); a page without deletes is never searched.
  uint16_t slot = slot_count;
  if (info.tombstones > 0) {
    for (uint16_t s = 0; s < slot_count; ++s) {
      if (ReadSlot(p, s).first == 0) {
        slot = s;
        --info.tombstones;
        break;
      }
    }
  }
  const uint16_t new_free_end =
      static_cast<uint16_t>(FreeEnd(p) - record.size());
  p.WriteBytes(new_free_end, record.data(), record.size());
  p.WriteAt<uint16_t>(kOffFreeEnd, new_free_end);
  WriteSlot(&p, slot, new_free_end, static_cast<uint16_t>(record.size()));
  if (slot == slot_count) {
    p.WriteAt<uint16_t>(kOffSlotCount, static_cast<uint16_t>(slot_count + 1));
  }
  // The payload and any new slot come out of the contiguous space, so
  // only free_bytes changes: a reused tombstone slot was already part of
  // the directory, and dead space is what compaction would reclaim.
  info.free_bytes = static_cast<uint16_t>(ContiguousFree(p));
  ++num_records_;
  return RecordId{info.id, slot};
}

Result<std::pair<uint16_t, uint16_t>> HeapFile::LiveSlot(const Page& p,
                                                         uint16_t slot) {
  if (slot >= SlotCount(p)) return Status::NotFound("slot out of range");
  const auto [offset, size] = ReadSlot(p, slot);
  if (offset == 0) return Status::NotFound("record deleted");
  return std::make_pair(offset, size);
}

Status HeapFile::Editor::Pin(PageId page) {
  if (guard_.valid() && guard_.id() == page) return Status::OK();
  Release();
  ATIS_ASSIGN_OR_RETURN(guard_, file_->pool_->FetchPage(page));
  return Status::OK();
}

Result<std::span<const uint8_t>> HeapFile::Editor::Read(RecordId rid) {
  ATIS_RETURN_NOT_OK(Pin(rid.page));
  const Page& p = guard_.page();
  ATIS_ASSIGN_OR_RETURN(const auto slot, LiveSlot(p, rid.slot));
  return std::span<const uint8_t>(p.data() + slot.first, slot.second);
}

Result<std::span<uint8_t>> HeapFile::Editor::Edit(RecordId rid) {
  ATIS_RETURN_NOT_OK(Pin(rid.page));
  if (dirty_ == nullptr) dirty_ = &guard_.MutablePage();
  ATIS_ASSIGN_OR_RETURN(const auto slot, LiveSlot(*dirty_, rid.slot));
  return std::span<uint8_t>(dirty_->data() + slot.first, slot.second);
}

Status HeapFile::Delete(RecordId rid) {
  ATIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page));
  Page& p = guard.MutablePage();
  ATIS_ASSIGN_OR_RETURN(const auto live, LiveSlot(p, rid.slot));
  WriteSlot(&p, rid.slot, 0, 0);
  // The payload becomes dead space; the slot stays, as a tombstone.
  const auto at = page_index_.find(rid.page);
  if (at != page_index_.end()) {
    PageInfo& info = pages_[at->second];
    info.dead_bytes = static_cast<uint16_t>(info.dead_bytes + live.second);
    ++info.tombstones;
  }
  --num_records_;
  return Status::OK();
}

Status HeapFile::Clear() {
  for (const PageInfo& info : pages_) {
    ATIS_RETURN_NOT_OK(pool_->DeletePage(info.id));
  }
  pages_.clear();
  page_index_.clear();
  num_records_ = 0;
  return Status::OK();
}

void HeapFile::CompactPage(Page* p) {
  const uint16_t slot_count = SlotCount(*p);
  // Collect live records, then rewrite payloads from the page's high end.
  struct Live {
    uint16_t slot;
    std::vector<uint8_t> data;
  };
  std::vector<Live> live;
  live.reserve(slot_count);
  for (uint16_t s = 0; s < slot_count; ++s) {
    const auto [offset, size] = ReadSlot(*p, s);
    if (offset == 0) continue;
    Live l;
    l.slot = s;
    l.data.resize(size);
    p->ReadBytes(offset, l.data.data(), size);
    live.push_back(std::move(l));
  }
  uint16_t free_end = static_cast<uint16_t>(kPageSize);
  for (const Live& l : live) {
    free_end = static_cast<uint16_t>(free_end - l.data.size());
    p->WriteBytes(free_end, l.data.data(), l.data.size());
    WriteSlot(p, l.slot, free_end, static_cast<uint16_t>(l.data.size()));
  }
  p->WriteAt<uint16_t>(kOffFreeEnd, free_end);
}

HeapFile::Iterator::Iterator(const HeapFile* file, size_t page_index)
    : file_(file), page_index_(page_index) {
  LoadPage();
  AdvanceToLive();
}

void HeapFile::Iterator::LoadPage() {
  guard_.Release();
  valid_ = false;
  if (page_index_ >= file_->pages_.size()) return;
  auto result = file_->pool_->FetchPage(file_->pages_[page_index_].id);
  if (!result.ok()) {
    // The scan ends here; the error (a fault, not end-of-file) is kept
    // for callers that check status() after the loop.
    status_ = result.status();
    return;
  }
  guard_ = std::move(result).value();
  slot_ = 0;
  slot_count_ = SlotCount(guard_.page());
  valid_ = true;
}

}  // namespace atis::storage
