#include "storage/disk_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

namespace atis::storage {
namespace {

TEST(DiskManagerTest, AllocateGivesDistinctIds) {
  DiskManager dm;
  const PageId a = dm.AllocatePage();
  const PageId b = dm.AllocatePage();
  EXPECT_NE(a, b);
  EXPECT_EQ(dm.num_allocated(), 2u);
}

TEST(DiskManagerTest, WriteThenReadRoundTrips) {
  DiskManager dm;
  const PageId id = dm.AllocatePage();
  Page p;
  p.WriteAt<uint64_t>(0, 0xabcdef);
  ASSERT_TRUE(dm.WritePage(id, p).ok());
  Page q;
  ASSERT_TRUE(dm.ReadPage(id, &q).ok());
  EXPECT_EQ(q.ReadAt<uint64_t>(0), 0xabcdefu);
}

TEST(DiskManagerTest, FreshPageIsZeroed) {
  DiskManager dm;
  const PageId id = dm.AllocatePage();
  Page p;
  ASSERT_TRUE(dm.ReadPage(id, &p).ok());
  EXPECT_EQ(p.ReadAt<uint64_t>(0), 0u);
}

TEST(DiskManagerTest, ReadUnallocatedFails) {
  DiskManager dm;
  Page p;
  EXPECT_TRUE(dm.ReadPage(5, &p).IsNotFound());
}

TEST(DiskManagerTest, DeallocateThenAccessFails) {
  DiskManager dm;
  const PageId id = dm.AllocatePage();
  ASSERT_TRUE(dm.DeallocatePage(id).ok());
  Page p;
  EXPECT_TRUE(dm.ReadPage(id, &p).IsNotFound());
  EXPECT_TRUE(dm.WritePage(id, p).IsNotFound());
  EXPECT_EQ(dm.num_allocated(), 0u);
}

TEST(DiskManagerTest, DeallocateTwiceFails) {
  DiskManager dm;
  const PageId id = dm.AllocatePage();
  ASSERT_TRUE(dm.DeallocatePage(id).ok());
  EXPECT_FALSE(dm.DeallocatePage(id).ok());
}

TEST(DiskManagerTest, FreedIdsAreRecycledZeroed) {
  DiskManager dm;
  const PageId id = dm.AllocatePage();
  Page p;
  p.WriteAt<uint32_t>(0, 7);
  ASSERT_TRUE(dm.WritePage(id, p).ok());
  ASSERT_TRUE(dm.DeallocatePage(id).ok());
  const PageId id2 = dm.AllocatePage();
  EXPECT_EQ(id2, id);
  Page q;
  ASSERT_TRUE(dm.ReadPage(id2, &q).ok());
  EXPECT_EQ(q.ReadAt<uint32_t>(0), 0u);
}

TEST(DiskManagerTest, MeterCountsBlockIo) {
  DiskManager dm;
  const PageId id = dm.AllocatePage();
  Page p;
  EXPECT_EQ(dm.meter().counters().blocks_read, 0u);
  ASSERT_TRUE(dm.WritePage(id, p).ok());
  ASSERT_TRUE(dm.ReadPage(id, &p).ok());
  ASSERT_TRUE(dm.ReadPage(id, &p).ok());
  EXPECT_EQ(dm.meter().counters().blocks_written, 1u);
  EXPECT_EQ(dm.meter().counters().blocks_read, 2u);
}

TEST(DiskManagerTest, FailedIoIsNotMetered) {
  DiskManager dm;
  Page p;
  (void)dm.ReadPage(99, &p);
  EXPECT_EQ(dm.meter().counters().blocks_read, 0u);
}

TEST(IoMeterTest, CostUsesTable4AUnits) {
  IoMeter meter;
  meter.RecordRead(2);
  meter.RecordWrite(3);
  meter.RecordRelationCreate();
  meter.RecordRelationDelete();
  const CostParams p;  // defaults: 0.035 / 0.05 / 0.5 / 0.5
  EXPECT_NEAR(meter.Cost(p), 2 * 0.035 + 3 * 0.05 + 0.5 + 0.5, 1e-12);
  EXPECT_NEAR(p.t_update(), 0.085, 1e-12);
}

TEST(IoMeterTest, CounterDeltaAndReset) {
  IoMeter meter;
  meter.RecordRead(5);
  const IoCounters before = meter.counters();
  meter.RecordRead(2);
  meter.RecordWrite(1);
  const IoCounters delta = meter.counters() - before;
  EXPECT_EQ(delta.blocks_read, 2u);
  EXPECT_EQ(delta.blocks_written, 1u);
  meter.Reset();
  EXPECT_EQ(meter.counters().blocks_read, 0u);
}

// The fault countdown lives in a single atomic word consumed by one CAS
// loop, so concurrent accesses consume it exactly: with FailAfter(N),
// precisely N accesses succeed no matter how threads interleave. (The old
// armed-flag + countdown pair could over-admit under contention; run under
// TSan via scripts/check.sh.)
TEST(DiskManagerTest, FaultCountdownIsExactUnderConcurrency) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 250;
  constexpr uint64_t kBudget = 1000;  // half the total attempts succeed
  DiskManager dm;
  const PageId id = dm.AllocatePage();
  dm.FailAfter(kBudget);

  std::atomic<uint64_t> successes{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Page p;
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (dm.ReadPage(id, &p).ok()) {
          successes.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(successes.load(), kBudget);
  EXPECT_EQ(failures.load(),
            uint64_t{kThreads} * kOpsPerThread - kBudget);
  // Metering matches: only successful accesses were charged.
  EXPECT_EQ(dm.meter().counters().blocks_read, kBudget);
  EXPECT_TRUE(dm.fault_active());
}

// Page I/O takes no lock: two threads write and read back their own pages
// while a third allocates and deallocates through several doublings of
// the slot table, so the readers' table is replaced under them. Every
// byte must round-trip, reused ids must come back zeroed, and the meter
// must count every access exactly. Run under TSan and ASan by
// scripts/check.sh and CI.
TEST(DiskManagerTest, ConcurrentIoWhileTheTableGrows) {
  constexpr int kIoThreads = 2;
  constexpr int kPagesPerThread = 8;
  constexpr size_t kGrownTo = 2048;  // 64 slots doubled five times
  DiskManager dm;
  std::vector<std::vector<PageId>> own(kIoThreads);
  for (auto& ids : own) {
    for (int i = 0; i < kPagesPerThread; ++i) ids.push_back(dm.AllocatePage());
  }

  std::atomic<bool> grown{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kIoThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t r = 0;
      uint64_t w = 0;
      Page out;
      Page in;
      // At least 50 rounds, and on until the table has finished growing.
      for (uint32_t round = 0; round < 50 || !grown.load(); ++round) {
        for (int i = 0; i < kPagesPerThread; ++i) {
          for (size_t b = 0; b < kPageSize; ++b) {
            out.data()[b] = static_cast<uint8_t>(b * 7 + round + i * 31 + t);
          }
          const PageId id = own[t][i];
          if (!dm.WritePage(id, out).ok() || !dm.ReadPage(id, &in).ok() ||
              std::memcmp(in.data(), out.data(), kPageSize) != 0) {
            failures.fetch_add(1);
            return;
          }
          ++w;
          ++r;
        }
      }
      reads.fetch_add(r);
      writes.fetch_add(w);
    });
  }
  threads.emplace_back([&] {
    // Three allocations per deallocation: freed ids are reused (and must
    // read back zeroed) while the id space keeps growing.
    std::vector<PageId> live;
    uint64_t r = 0;
    uint64_t w = 0;
    Page dirty;
    dirty.WriteAt<uint64_t>(kPageSize - 8, ~uint64_t{0});
    Page in;
    while (dm.num_allocated() < kGrownTo) {
      for (int k = 0; k < 3; ++k) {
        const PageId id = dm.AllocatePage();
        if (!dm.ReadPage(id, &in).ok() ||
            in.ReadAt<uint64_t>(kPageSize - 8) != 0 ||
            !dm.WritePage(id, dirty).ok()) {
          failures.fetch_add(1);
          grown.store(true);
          return;
        }
        ++r;
        ++w;
        live.push_back(id);
      }
      if (!dm.DeallocatePage(live[live.size() / 2]).ok()) {
        failures.fetch_add(1);
        break;
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(live.size() / 2));
    }
    reads.fetch_add(r);
    writes.fetch_add(w);
    grown.store(true);
  });
  for (std::thread& t : threads) t.join();

  ASSERT_EQ(failures.load(), 0);
  EXPECT_GE(dm.num_allocated(), kGrownTo);
  EXPECT_EQ(dm.meter().counters().blocks_read, reads.load());
  EXPECT_EQ(dm.meter().counters().blocks_written, writes.load());
}

TEST(DiskManagerTest, TransientWindowFailsExactlyNThenRecovers) {
  DiskManager dm;
  const PageId id = dm.AllocatePage();
  Page p;
  dm.FailTransient(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(dm.ReadPage(id, &p).code(), StatusCode::kUnavailable);
  }
  // Recovered by itself — no ClearFaultInjection needed.
  EXPECT_TRUE(dm.ReadPage(id, &p).ok());
  EXPECT_FALSE(dm.fault_active());
  EXPECT_EQ(dm.faults_injected(), 3u);
}

TEST(DiskManagerTest, FaultProfileIsDeterministicPerSeed) {
  const FaultProfile profile{/*seed=*/7, /*transient_rate=*/0.2,
                             /*permanent_rate=*/0.0, /*spike_rate=*/0.0,
                             /*spike_micros=*/0};
  auto run = [&] {
    DiskManager dm;
    const PageId id = dm.AllocatePage();
    dm.SetFaultProfile(profile);
    Page p;
    std::vector<bool> outcomes;
    for (int i = 0; i < 200; ++i) {
      outcomes.push_back(dm.ReadPage(id, &p).ok());
    }
    return outcomes;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);  // same seed -> same fault sequence
  const auto faults = static_cast<size_t>(
      std::count(a.begin(), a.end(), false));
  EXPECT_GT(faults, 0u);   // 200 draws at 20%: ~40 expected
  EXPECT_LT(faults, 100u);
}

TEST(DiskManagerTest, PermanentProfileFaultPersistsUntilCleared) {
  DiskManager dm;
  const PageId id = dm.AllocatePage();
  FaultProfile profile;
  profile.permanent_rate = 1.0;  // first access trips the device
  dm.SetFaultProfile(profile);
  Page p;
  EXPECT_EQ(dm.ReadPage(id, &p).code(), StatusCode::kInternal);
  EXPECT_EQ(dm.WritePage(id, p).code(), StatusCode::kInternal);
  EXPECT_TRUE(dm.fault_active());
  dm.ClearFaultInjection();
  EXPECT_TRUE(dm.ReadPage(id, &p).ok());
}

TEST(IoMeterTest, CountersAccumulate) {
  IoCounters a;
  a.blocks_read = 1;
  IoCounters b;
  b.blocks_read = 2;
  b.blocks_written = 3;
  a += b;
  EXPECT_EQ(a.blocks_read, 3u);
  EXPECT_EQ(a.blocks_written, 3u);
  // ToString fields are named like the metrics dump and include the
  // derived cost under default Table 4A parameters:
  // 3 * 0.035 + 3 * 0.05 = 0.255.
  EXPECT_NE(a.ToString().find("blocks_read=3"), std::string::npos);
  EXPECT_NE(a.ToString().find("blocks_written=3"), std::string::npos);
  EXPECT_NE(a.ToString().find("cost_units=0.255"), std::string::npos);
}

TEST(IoMeterTest, ThreadCountersWithoutASinkAreTheSharedCounters) {
  IoMeter meter;
  meter.RecordRead(4);
  meter.RecordWrite(2);
  meter.RecordRelationCreate();
  const IoCounters shared = meter.counters();
  const IoCounters own = meter.ThreadCounters();
  EXPECT_EQ(own.blocks_read, shared.blocks_read);
  EXPECT_EQ(own.blocks_written, shared.blocks_written);
  EXPECT_EQ(own.relations_created, shared.relations_created);
  EXPECT_EQ(own.relations_deleted, shared.relations_deleted);
}

TEST(IoMeterTest, ThreadCountersReadTheInstalledSink) {
  IoMeter meter;
  meter.RecordRead(7);  // before the scope: shared only
  IoCounters sink;
  {
    IoMeter::ScopedThreadCounters scope(&sink);
    meter.RecordRead(2);
    meter.RecordWrite(1);
    meter.RecordRelationDelete();
    const IoCounters own = meter.ThreadCounters();
    EXPECT_EQ(own.blocks_read, 2u);
    EXPECT_EQ(own.blocks_written, 1u);
    EXPECT_EQ(own.relations_deleted, 1u);
    EXPECT_EQ(meter.counters().blocks_read, 9u);  // the shared meter too
  }
  EXPECT_EQ(sink.blocks_read, 2u);
  // Closing the scope falls back to the shared counters.
  EXPECT_EQ(meter.ThreadCounters().blocks_read, 9u);
}

TEST(IoMeterTest, NestedSinkScopesRestoreTheOuterSink) {
  IoMeter meter;
  IoCounters outer;
  IoCounters inner;
  IoMeter::ScopedThreadCounters outer_scope(&outer);
  meter.RecordRead(1);
  {
    IoMeter::ScopedThreadCounters inner_scope(&inner);
    meter.RecordRead(3);  // the innermost sink alone
    EXPECT_EQ(meter.ThreadCounters().blocks_read, 3u);
  }
  meter.RecordRead(5);
  EXPECT_EQ(outer.blocks_read, 6u);
  EXPECT_EQ(inner.blocks_read, 3u);
  EXPECT_EQ(meter.ThreadCounters().blocks_read, 6u);
  EXPECT_EQ(meter.counters().blocks_read, 9u);
}

// A sink is the installing thread's alone: blocks another thread records
// on the same meter reach the shared counters but never this sink.
TEST(IoMeterTest, OtherThreadsRecordsMissTheSink) {
  IoMeter meter;
  IoCounters sink;
  IoMeter::ScopedThreadCounters scope(&sink);
  meter.RecordRead(1);
  std::thread other([&meter] {
    meter.RecordRead(10);
    meter.RecordWrite(4);
  });
  other.join();
  meter.RecordWrite(2);
  EXPECT_EQ(sink.blocks_read, 1u);
  EXPECT_EQ(sink.blocks_written, 2u);
  EXPECT_EQ(meter.ThreadCounters().blocks_read, 1u);
  EXPECT_EQ(meter.counters().blocks_read, 11u);
  EXPECT_EQ(meter.counters().blocks_written, 6u);
}

}  // namespace
}  // namespace atis::storage
