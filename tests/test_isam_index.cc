#include "index/isam_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace atis::index {
namespace {

using storage::BufferPool;
using storage::DiskManager;
using storage::RecordId;

RecordId Rid(uint32_t page, uint16_t slot) { return RecordId{page, slot}; }

std::vector<IsamIndex::Entry> SequentialEntries(int n) {
  std::vector<IsamIndex::Entry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    entries.push_back({i, Rid(static_cast<uint32_t>(i / 100),
                              static_cast<uint16_t>(i % 100))});
  }
  return entries;
}

class IsamIndexTest : public ::testing::Test {
 protected:
  IsamIndexTest() : pool_(&disk_, 32), idx_(&pool_) {}
  DiskManager disk_;
  BufferPool pool_;
  IsamIndex idx_;
};

TEST_F(IsamIndexTest, LookupBeforeBuildFails) {
  EXPECT_EQ(idx_.Lookup(1).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(IsamIndexTest, BuildRequiresSortedInput) {
  std::vector<IsamIndex::Entry> bad = {{5, Rid(0, 0)}, {3, Rid(0, 1)}};
  EXPECT_TRUE(idx_.Build(std::move(bad)).IsInvalidArgument());
}

TEST_F(IsamIndexTest, BuildTwiceFails) {
  ASSERT_TRUE(idx_.Build(SequentialEntries(10)).ok());
  EXPECT_EQ(idx_.Build(SequentialEntries(10)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(IsamIndexTest, SmallBuildSingleLevel) {
  ASSERT_TRUE(idx_.Build(SequentialEntries(100)).ok());
  EXPECT_EQ(idx_.num_levels(), 1u);
  for (int k : {0, 50, 99}) {
    auto r = idx_.Lookup(k);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->slot, static_cast<uint16_t>(k % 100));
  }
}

TEST_F(IsamIndexTest, LookupMissingKey) {
  ASSERT_TRUE(idx_.Build(SequentialEntries(100)).ok());
  EXPECT_TRUE(idx_.Lookup(1000).status().IsNotFound());
  EXPECT_TRUE(idx_.Lookup(-1).status().IsNotFound());
}

TEST_F(IsamIndexTest, MultiLevelBuildAndLookup) {
  // 255 entries/leaf: 2000 entries => 8 leaves => 2 levels.
  ASSERT_TRUE(idx_.Build(SequentialEntries(2000)).ok());
  EXPECT_GE(idx_.num_levels(), 2u);
  for (int k = 0; k < 2000; k += 61) {
    auto r = idx_.Lookup(k);
    ASSERT_TRUE(r.ok()) << "key " << k;
    EXPECT_EQ(r->page, static_cast<uint32_t>(k / 100));
    EXPECT_EQ(r->slot, static_cast<uint16_t>(k % 100));
  }
}

TEST_F(IsamIndexTest, FillFractionCreatesMoreLevelsOfSlack) {
  IsamIndex packed(&pool_);
  ASSERT_TRUE(packed.Build(SequentialEntries(1000), 1.0).ok());
  IsamIndex slack(&pool_);
  ASSERT_TRUE(slack.Build(SequentialEntries(1000), 0.5).ok());
  // Half-full leaves can absorb inserts without overflow pages.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(slack.Insert(10000 + i, Rid(9, 9)).ok());
  }
  EXPECT_EQ(slack.num_entries(), 1100u);
}

TEST_F(IsamIndexTest, BadFillFractionRejected) {
  EXPECT_TRUE(idx_.Build(SequentialEntries(5), 0.0).IsInvalidArgument());
  EXPECT_TRUE(idx_.Build(SequentialEntries(5), 1.5).IsInvalidArgument());
}

TEST_F(IsamIndexTest, DuplicateKeysAllFound) {
  std::vector<IsamIndex::Entry> entries;
  for (int i = 0; i < 10; ++i) entries.push_back({7, Rid(0, static_cast<uint16_t>(i))});
  ASSERT_TRUE(idx_.Build(std::move(entries)).ok());
  auto all = idx_.LookupAll(7);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 10u);
}

TEST_F(IsamIndexTest, InsertIntoLeafKeepsOrder) {
  auto entries = SequentialEntries(10);
  // Leave a gap at key 5.
  entries.erase(entries.begin() + 5);
  ASSERT_TRUE(idx_.Build(std::move(entries)).ok());
  ASSERT_TRUE(idx_.Insert(5, Rid(7, 7)).ok());
  auto r = idx_.Lookup(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->page, 7u);
  auto scan = idx_.Scan(0, 9);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 10u);
  for (size_t i = 0; i + 1 < scan->size(); ++i) {
    EXPECT_LE((*scan)[i].key, (*scan)[i + 1].key);
  }
}

TEST_F(IsamIndexTest, OverflowInsertsFoundByLookup) {
  // Full leaves force overflow chains (classic ISAM).
  ASSERT_TRUE(idx_.Build(SequentialEntries(255)).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(idx_.Insert(100, Rid(50, static_cast<uint16_t>(i))).ok());
  }
  auto all = idx_.LookupAll(100);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 51u);  // 1 original + 50 overflow
}

TEST_F(IsamIndexTest, EraseFromLeafAndOverflow) {
  ASSERT_TRUE(idx_.Build(SequentialEntries(255)).ok());
  ASSERT_TRUE(idx_.Insert(100, Rid(50, 1)).ok());  // goes to overflow
  ASSERT_TRUE(idx_.Erase(100, Rid(1, 0)).ok());    // in-leaf copy
  ASSERT_TRUE(idx_.Erase(100, Rid(50, 1)).ok());   // overflow copy
  auto all = idx_.LookupAll(100);
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->empty());
  EXPECT_TRUE(idx_.Erase(100, Rid(50, 1)).IsNotFound());
}

TEST_F(IsamIndexTest, ScanRange) {
  ASSERT_TRUE(idx_.Build(SequentialEntries(1000)).ok());
  auto scan = idx_.Scan(250, 260);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 11u);
  EXPECT_EQ(scan->front().key, 250);
  EXPECT_EQ(scan->back().key, 260);
}

TEST_F(IsamIndexTest, ScanAcrossLeaves) {
  ASSERT_TRUE(idx_.Build(SequentialEntries(1000)).ok());
  auto scan = idx_.Scan(0, 999);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 1000u);
}

TEST_F(IsamIndexTest, LookupCostIsNumLevelsBlocks) {
  ASSERT_TRUE(idx_.Build(SequentialEntries(2000)).ok());
  ASSERT_TRUE(pool_.EvictAll().ok());
  const uint64_t reads = disk_.meter().counters().blocks_read;
  ASSERT_TRUE(idx_.Lookup(1234).ok());
  // Exactly I_l block reads: one per level (no overflow chains here).
  EXPECT_EQ(disk_.meter().counters().blocks_read, reads + idx_.num_levels());
}

TEST_F(IsamIndexTest, EmptyBuildIsQueryable) {
  ASSERT_TRUE(idx_.Build({}).ok());
  EXPECT_TRUE(idx_.Lookup(1).status().IsNotFound());
  ASSERT_TRUE(idx_.Insert(1, Rid(0, 0)).ok());
  EXPECT_TRUE(idx_.Lookup(1).ok());
}

// --- LookupAll against a linear-scan oracle -------------------------------

// Every entry with `key`, in the order LookupAll returns them: a full
// in-order scan of the index (each leaf's sorted entries, then its overflow
// chain) filtered to `key`.
std::vector<RecordId> ScanOracle(const IsamIndex& idx, int64_t key) {
  auto all = idx.Scan(std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(all.ok());
  std::vector<RecordId> rids;
  for (const IsamIndex::Entry& e : *all) {
    if (e.key == key) rids.push_back(e.rid);
  }
  return rids;
}

void ExpectLookupsMatchOracle(const IsamIndex& idx, int64_t lo, int64_t hi) {
  for (int64_t key = lo; key <= hi; ++key) {
    auto got = idx.LookupAll(key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    EXPECT_EQ(*got, ScanOracle(idx, key)) << "key " << key;
  }
}

// Four entries per key: with 255 entries per leaf, runs of one key cross
// leaf boundaries (key 63 occupies entries 252..255).
std::vector<IsamIndex::Entry> QuadrupledEntries(int n) {
  std::vector<IsamIndex::Entry> entries;
  for (int i = 0; i < n; ++i) {
    entries.push_back({i / 4, Rid(static_cast<uint32_t>(i / 100),
                                  static_cast<uint16_t>(i % 100))});
  }
  return entries;
}

TEST_F(IsamIndexTest, LookupAllMatchesOracleOnUniqueKeys) {
  ASSERT_TRUE(idx_.Build(SequentialEntries(2000)).ok());
  ASSERT_GE(idx_.num_levels(), 2u);
  // Keys below and above every key are absent.
  ExpectLookupsMatchOracle(idx_, -3, 2002);
}

TEST_F(IsamIndexTest, LookupAllMatchesOracleOnDuplicatesAcrossLeaves) {
  ASSERT_TRUE(idx_.Build(QuadrupledEntries(1200)).ok());
  ASSERT_GE(idx_.num_levels(), 2u);
  auto run = idx_.LookupAll(63);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->size(), 4u);
  ExpectLookupsMatchOracle(idx_, -3, 303);
}

TEST_F(IsamIndexTest, RunLongerThanALeafIsFoundWhole) {
  std::vector<IsamIndex::Entry> entries = {{1, Rid(0, 0)}};
  for (int i = 0; i < 600; ++i) {
    entries.push_back({7, Rid(1 + static_cast<uint32_t>(i / 100),
                              static_cast<uint16_t>(i % 100))});
  }
  entries.push_back({9, Rid(9, 0)});
  ASSERT_TRUE(idx_.Build(std::move(entries)).ok());
  auto run = idx_.LookupAll(7);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->size(), 600u);
  ExpectLookupsMatchOracle(idx_, -1, 11);
}

TEST_F(IsamIndexTest, EraseFollowsRunsAcrossLeaves) {
  // Key 63's run: Rid(2, 52..54) end leaf 0, Rid(2, 55) starts leaf 1.
  ASSERT_TRUE(idx_.Build(QuadrupledEntries(1200)).ok());
  for (uint16_t slot : {52, 53, 54}) {
    ASSERT_TRUE(idx_.Erase(63, Rid(2, slot)).ok());
  }
  // Leaf 0 no longer ends in 63; the lookup still reaches leaf 1.
  EXPECT_EQ(*idx_.LookupAll(63), std::vector<RecordId>{Rid(2, 55)});
  ASSERT_TRUE(idx_.Insert(63, Rid(8, 8)).ok());
  EXPECT_EQ(*idx_.LookupAll(63),
            (std::vector<RecordId>{Rid(8, 8), Rid(2, 55)}));
  ASSERT_TRUE(idx_.Erase(63, Rid(2, 55)).ok());
  EXPECT_EQ(*idx_.LookupAll(63), std::vector<RecordId>{Rid(8, 8)});
  ASSERT_TRUE(idx_.Erase(63, Rid(8, 8)).ok());
  EXPECT_TRUE(idx_.LookupAll(63)->empty());
  EXPECT_TRUE(idx_.Erase(63, Rid(8, 8)).IsNotFound());
  ExpectLookupsMatchOracle(idx_, -3, 303);
}

TEST_F(IsamIndexTest, LookupAllMatchesOracleWithOverflowChains) {
  // Packed leaves: every insert below the last leaf lands in an overflow
  // chain; 300 inserts on one leaf need a two-page chain.
  ASSERT_TRUE(idx_.Build(QuadrupledEntries(1200)).ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        idx_.Insert(10 + (i % 7), Rid(900, static_cast<uint16_t>(i))).ok());
  }
  for (int i = 0; i < 20; ++i) {
    // Existing keys on later leaves, one whose run crosses a boundary, and
    // keys past the end.
    for (int64_t key : {100, 127, 191, 250, 400}) {
      ASSERT_TRUE(idx_.Insert(key, Rid(901, static_cast<uint16_t>(i))).ok());
    }
  }
  ASSERT_TRUE(idx_.Erase(12, Rid(900, 2)).ok());
  ExpectLookupsMatchOracle(idx_, -3, 403);
}

TEST_F(IsamIndexTest, LookupAllPoolFetchesFollowTheLeafChain) {
  // 2000 unique keys: 8 leaves of 255 under one root. A lookup fetches the
  // root and its leaf; a leaf's last key also fetches the next leaf (the
  // run might continue there); an overflow chain is read in full.
  ASSERT_TRUE(idx_.Build(SequentialEntries(2000)).ok());
  ASSERT_EQ(idx_.num_levels(), 2u);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(idx_.Insert(600, Rid(900, static_cast<uint16_t>(i))).ok());
  }
  auto fetches = [&](int64_t key) {
    const storage::BufferPoolStats before = pool_.stats();
    EXPECT_TRUE(idx_.LookupAll(key).ok());
    const storage::BufferPoolStats after = pool_.stats();
    return (after.hits + after.misses) - (before.hits + before.misses);
  };
  EXPECT_EQ(fetches(-1), 2u);
  EXPECT_EQ(fetches(0), 2u);
  EXPECT_EQ(fetches(100), 2u);
  EXPECT_EQ(fetches(254), 3u);   // last of leaf 0: leaf 1 too
  EXPECT_EQ(fetches(255), 2u);
  EXPECT_EQ(fetches(509), 5u);   // leaf 1's last: leaf 2 and its chain
  EXPECT_EQ(fetches(600), 4u);   // leaf 2 and its two overflow pages
  EXPECT_EQ(fetches(764), 5u);   // leaf 2's last: chain, then leaf 3
  EXPECT_EQ(fetches(1999), 2u);  // last leaf: no next leaf
  EXPECT_EQ(fetches(5000), 2u);
}

}  // namespace
}  // namespace atis::index
