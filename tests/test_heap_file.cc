#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "util/random.h"

namespace atis::storage {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string Str(std::span<const uint8_t> v) {
  return std::string(v.begin(), v.end());
}

/// Copies a record out through HeapFile::Read.
Result<std::string> ReadStr(const HeapFile& file, RecordId rid) {
  std::string out;
  ATIS_RETURN_NOT_OK(
      file.Read(rid, [&](std::span<const uint8_t> r) { out = Str(r); }));
  return out;
}

/// Overwrites a record with a same-size payload through HeapFile::Editor.
Status Overwrite(HeapFile& file, RecordId rid, const std::string& payload) {
  HeapFile::Editor editor(&file);
  ATIS_ASSIGN_OR_RETURN(std::span<uint8_t> bytes, editor.Edit(rid));
  if (bytes.size() != payload.size()) {
    return Status::InvalidArgument("payload size differs");
  }
  std::copy(payload.begin(), payload.end(), bytes.begin());
  return Status::OK();
}

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(&disk_, 8), file_(&pool_) {}
  DiskManager disk_;
  BufferPool pool_;
  HeapFile file_;
};

TEST_F(HeapFileTest, InsertAndGet) {
  auto rid = file_.Insert(Bytes("hello"));
  ASSERT_TRUE(rid.ok());
  auto got = ReadStr(file_, *rid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "hello");
  EXPECT_EQ(file_.num_records(), 1u);
}

TEST_F(HeapFileTest, GetMissingSlotFails) {
  auto rid = file_.Insert(Bytes("x"));
  ASSERT_TRUE(rid.ok());
  RecordId bogus = *rid;
  bogus.slot = 99;
  EXPECT_TRUE(ReadStr(file_, bogus).status().IsNotFound());
}

TEST_F(HeapFileTest, DeleteTombstones) {
  auto rid = file_.Insert(Bytes("bye"));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(file_.Delete(*rid).ok());
  EXPECT_TRUE(ReadStr(file_, *rid).status().IsNotFound());
  EXPECT_TRUE(file_.Delete(*rid).IsNotFound());
  EXPECT_EQ(file_.num_records(), 0u);
}

TEST_F(HeapFileTest, UpdateSameSizeInPlace) {
  auto rid = file_.Insert(Bytes("abcde"));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(Overwrite(file_, *rid, "ABCDE").ok());
  EXPECT_EQ(*ReadStr(file_, *rid), "ABCDE");
}

TEST_F(HeapFileTest, RecordTooLargeRejected) {
  ASSERT_EQ(HeapFile::kMaxRecordSize, 4084u);
  const std::string largest(HeapFile::kMaxRecordSize, 'x');
  auto rid = file_.Insert(Bytes(largest));
  ASSERT_TRUE(rid.ok()) << rid.status().ToString();
  EXPECT_EQ(*ReadStr(file_, *rid), largest);

  const std::string one_over(HeapFile::kMaxRecordSize + 1, 'x');
  const Status st = file_.Insert(Bytes(one_over)).status();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.ToString().find("4084"), std::string::npos) << st.ToString();
  EXPECT_EQ(file_.num_records(), 1u);
}

TEST_F(HeapFileTest, SpillsToMultiplePages) {
  const std::string rec(1000, 'r');
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(file_.Insert(Bytes(rec)).ok());
  }
  EXPECT_GT(file_.num_pages(), 1u);
  EXPECT_EQ(file_.num_records(), 10u);
}

TEST_F(HeapFileTest, TombstoneSlotReused) {
  auto r1 = file_.Insert(Bytes("one"));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(file_.Insert(Bytes("two")).ok());
  ASSERT_TRUE(file_.Delete(*r1).ok());
  auto r3 = file_.Insert(Bytes("three"));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->slot, r1->slot);
  EXPECT_EQ(r3->page, r1->page);
}

TEST_F(HeapFileTest, CompactionReclaimsSpace) {
  // Fill a page, delete everything, and verify the space is reusable.
  std::vector<RecordId> rids;
  const std::string rec(500, 'c');
  for (int i = 0; i < 8; ++i) {
    auto rid = file_.Insert(Bytes(rec));
    ASSERT_TRUE(rid.ok());
    if (rids.empty() || rid->page == rids[0].page) {
      rids.push_back(*rid);
    }
  }
  const size_t pages_before = file_.num_pages();
  for (const RecordId rid : rids) ASSERT_TRUE(file_.Delete(rid).ok());
  for (size_t i = 0; i < rids.size(); ++i) {
    ASSERT_TRUE(file_.Insert(Bytes(rec)).ok());
  }
  EXPECT_EQ(file_.num_pages(), pages_before);
}

TEST_F(HeapFileTest, IteratorVisitsAllLiveRecords) {
  std::vector<RecordId> rids;
  for (int i = 0; i < 20; ++i) {
    auto rid = file_.Insert(Bytes("rec" + std::to_string(i)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  ASSERT_TRUE(file_.Delete(rids[3]).ok());
  ASSERT_TRUE(file_.Delete(rids[17]).ok());
  size_t seen = 0;
  for (auto it = file_.Begin(); it.Valid(); it.Next()) {
    const std::string s = Str(it.record());
    EXPECT_NE(s, "rec3");
    EXPECT_NE(s, "rec17");
    ++seen;
  }
  EXPECT_EQ(seen, 18u);
}

TEST_F(HeapFileTest, IteratorOnEmptyFile) {
  auto it = file_.Begin();
  EXPECT_FALSE(it.Valid());
}

TEST_F(HeapFileTest, ClearReleasesPages) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(file_.Insert(Bytes(std::string(100, 'a'))).ok());
  }
  ASSERT_TRUE(file_.Clear().ok());
  EXPECT_EQ(file_.num_records(), 0u);
  EXPECT_EQ(file_.num_pages(), 0u);
  EXPECT_EQ(disk_.num_allocated(), 0u);
  // File remains usable.
  EXPECT_TRUE(file_.Insert(Bytes("again")).ok());
}

TEST_F(HeapFileTest, EmptyRecordSupported) {
  auto rid = file_.Insert({});
  ASSERT_TRUE(rid.ok());
  auto got = ReadStr(file_, *rid);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

// Property test: a long random op sequence stays consistent with an
// in-memory reference map.
TEST_F(HeapFileTest, RandomOpsMatchReferenceModel) {
  Rng rng(2024);
  std::map<uint64_t, std::pair<RecordId, std::string>> model;
  uint64_t next_key = 0;
  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.5 || model.empty()) {
      const size_t len = rng.UniformInt(uint64_t{200});
      std::string payload(len, static_cast<char>('a' + (step % 26)));
      auto rid = file_.Insert(Bytes(payload));
      ASSERT_TRUE(rid.ok());
      model[next_key++] = {*rid, payload};
    } else if (roll < 0.75) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           static_cast<uint64_t>(model.size()))));
      std::string payload(it->second.second.size(),
                          static_cast<char>('A' + (step % 26)));
      ASSERT_TRUE(Overwrite(file_, it->second.first, payload).ok());
      it->second.second = payload;
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           static_cast<uint64_t>(model.size()))));
      ASSERT_TRUE(file_.Delete(it->second.first).ok());
      model.erase(it);
    }
  }
  EXPECT_EQ(file_.num_records(), model.size());
  for (const auto& [key, entry] : model) {
    auto got = ReadStr(file_, entry.first);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, entry.second);
  }
}

/// A page's free-space entry recomputed from scratch: its slot directory
/// and payload bytes, read through the pool in the documented layout.
HeapFile::PageInfo RecomputePageInfo(BufferPool& pool, PageId id) {
  auto guard = pool.FetchPage(id);
  EXPECT_TRUE(guard.ok());
  const Page& p = guard->page();
  const uint16_t slot_count = p.ReadAt<uint16_t>(4);
  const size_t free_end = p.ReadAt<uint16_t>(6);
  const size_t dir_end = 8 + 4 * size_t{slot_count};
  size_t live = 0;
  uint16_t tombstones = 0;
  for (uint16_t s = 0; s < slot_count; ++s) {
    if (p.ReadAt<uint16_t>(8 + 4 * s) == 0) ++tombstones;
    live += p.ReadAt<uint16_t>(8 + 4 * s + 2);
  }
  const size_t contiguous = free_end > dir_end ? free_end - dir_end : 0;
  return {id, static_cast<uint16_t>(contiguous),
          static_cast<uint16_t>(kPageSize - dir_end - live - contiguous),
          tombstones};
}

/// The slot an insert on page `id` takes: its first tombstone, else a new
/// slot at the end of the directory.
uint16_t ExpectedSlot(BufferPool& pool, PageId id) {
  auto guard = pool.FetchPage(id);
  EXPECT_TRUE(guard.ok());
  const Page& p = guard->page();
  const uint16_t slot_count = p.ReadAt<uint16_t>(4);
  for (uint16_t s = 0; s < slot_count; ++s) {
    if (p.ReadAt<uint16_t>(8 + 4 * s) == 0) return s;
  }
  return slot_count;
}

// The free-space map is maintained incrementally; after every insert,
// delete and compaction it must equal a from-scratch recomputation, and
// each insert must land on the page first fit picks from that
// recomputation (contiguous space first, then space after compaction), in
// the slot the directory dictates.
TEST_F(HeapFileTest, FreeSpaceMapMatchesRecomputationUnderChurn) {
  Rng rng(4099);
  std::vector<RecordId> live;
  size_t compactions = 0;
  size_t reused_slots = 0;
  auto check_map = [&] {
    const std::vector<HeapFile::PageInfo>& infos = file_.page_infos();
    for (const HeapFile::PageInfo& info : infos) {
      const HeapFile::PageInfo want = RecomputePageInfo(pool_, info.id);
      EXPECT_EQ(info.free_bytes, want.free_bytes) << "page " << info.id;
      EXPECT_EQ(info.dead_bytes, want.dead_bytes) << "page " << info.id;
      EXPECT_EQ(info.tombstones, want.tombstones) << "page " << info.id;
    }
  };
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.NextDouble() < 0.6) {
      const size_t len = rng.UniformInt(uint64_t{400});
      const size_t need = len + 4;
      std::vector<HeapFile::PageInfo> fresh;
      for (const HeapFile::PageInfo& info : file_.page_infos()) {
        fresh.push_back(RecomputePageInfo(pool_, info.id));
      }
      const HeapFile::PageInfo* target = nullptr;
      for (const HeapFile::PageInfo& info : fresh) {
        if (info.free_bytes >= need) {
          target = &info;
          break;
        }
      }
      if (target == nullptr) {
        for (const HeapFile::PageInfo& info : fresh) {
          if (size_t{info.free_bytes} + info.dead_bytes >= need) {
            target = &info;
            ++compactions;
            break;
          }
        }
      }
      RecordId want;
      if (target != nullptr) {
        want = {target->id, ExpectedSlot(pool_, target->id)};
        if (target->tombstones > 0) ++reused_slots;
      }
      auto rid = file_.Insert(std::vector<uint8_t>(len, 0x33));
      ASSERT_TRUE(rid.ok());
      if (target != nullptr) {
        EXPECT_EQ(rid->page, want.page) << "step " << step;
        EXPECT_EQ(rid->slot, want.slot) << "step " << step;
      } else {
        // No page fits: a new page, appended to the file, slot 0.
        EXPECT_EQ(rid->page, file_.page_infos().back().id) << "step " << step;
        EXPECT_EQ(rid->slot, 0) << "step " << step;
      }
      live.push_back(*rid);
    } else {
      const size_t victim = rng.UniformInt(live.size());
      ASSERT_TRUE(file_.Delete(live[victim]).ok());
      live[victim] = live.back();
      live.pop_back();
    }
    check_map();
  }
  EXPECT_EQ(file_.num_records(), live.size());
  // The sequence exercised every path: compaction and slot reuse.
  EXPECT_GT(compactions, 0u);
  EXPECT_GT(reused_slots, 0u);
}

}  // namespace
}  // namespace atis::storage
