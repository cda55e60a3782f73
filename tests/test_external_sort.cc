#include "relational/external_sort.h"

#include <gtest/gtest.h>

#include "util/random.h"
#include "tuple_rows.h"

namespace atis::relational {
namespace {

using storage::BufferPool;
using storage::DiskManager;

class ExternalSortTest : public ::testing::Test {
 protected:
  ExternalSortTest()
      : pool_(&disk_, 64),
        rel_("t",
             Schema({{"key", FieldType::kInt32},
                     {"payload", FieldType::kDouble}}),
             &pool_) {}

  void FillRandom(int n, uint64_t seed = 7) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(InsertTuple(&rel_, Tuple{static_cast<int64_t>(
                                        rng.UniformInt(uint64_t{1000})),
                                    double(i)})
                      .ok());
    }
  }

  static void ExpectSortedByKey(const Relation& rel, size_t expected) {
    size_t count = 0;
    int64_t last = INT64_MIN;
    for (Relation::Cursor c = rel.Scan(); c.Valid(); c.Next()) {
      const int64_t k = c.row().Int(0);
      EXPECT_GE(k, last);
      last = k;
      ++count;
    }
    EXPECT_EQ(count, expected);
  }

  DiskManager disk_;
  BufferPool pool_;
  Relation rel_;
};

TEST_F(ExternalSortTest, UnknownKeyRejected) {
  EXPECT_TRUE(
      ExternalSort(rel_, "nope", "out").status().IsInvalidArgument());
}

TEST_F(ExternalSortTest, FloatKeyRejected) {
  EXPECT_TRUE(
      ExternalSort(rel_, "payload", "out").status().IsInvalidArgument());
}

TEST_F(ExternalSortTest, TooFewFramesRejected) {
  SortOptions opt;
  opt.memory_frames = 2;
  EXPECT_TRUE(
      ExternalSort(rel_, "key", "out", opt).status().IsInvalidArgument());
}

TEST_F(ExternalSortTest, EmptyInputGivesEmptyOutput) {
  auto out = ExternalSort(rel_, "key", "out");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_tuples(), 0u);
}

TEST_F(ExternalSortTest, SingleRunSortsInMemory) {
  FillRandom(100);
  SortMetrics metrics;
  auto out = ExternalSort(rel_, "key", "out", {}, &metrics);
  ASSERT_TRUE(out.ok());
  ExpectSortedByKey(**out, 100);
  EXPECT_EQ(metrics.initial_runs, 1u);
  EXPECT_EQ(metrics.merge_passes, 0u);
}

TEST_F(ExternalSortTest, MultiRunMergesAcrossPasses) {
  // 256 tuples/block at 16 B... this schema packs 12 B -> 341/block;
  // 4 frames => ~1364 tuples per run. 10000 tuples => ~8 runs => with
  // fan-in 3 that is 2 merge passes.
  FillRandom(10000);
  SortMetrics metrics;
  auto out = ExternalSort(rel_, "key", "out", {}, &metrics);
  ASSERT_TRUE(out.ok());
  ExpectSortedByKey(**out, 10000);
  EXPECT_GT(metrics.initial_runs, 4u);
  EXPECT_GE(metrics.merge_passes, 2u);
}

TEST_F(ExternalSortTest, StableForEqualKeys) {
  // Equal keys keep insertion order (payload ascending).
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(
        InsertTuple(&rel_, Tuple{int64_t{i % 3}, double(i)}).ok());
  }
  auto out = ExternalSort(rel_, "key", "out");
  ASSERT_TRUE(out.ok());
  double last_payload[3] = {-1.0, -1.0, -1.0};
  for (Relation::Cursor c = (*out)->Scan(); c.Valid(); c.Next()) {
    const auto k = static_cast<size_t>(c.row().Int(0));
    const double p = c.row().Double(1);
    EXPECT_GT(p, last_payload[k]);
    last_payload[k] = p;
  }
}

TEST_F(ExternalSortTest, ChargesRealBlockIoUnderMemoryPressure) {
  // A pool smaller than the relation forces every run and merge page to
  // spill through the metered disk (a generous pool would instead absorb
  // short-lived runs entirely — also correct, just not what this test
  // pins down).
  DiskManager disk;
  BufferPool pool(&disk, 8);
  Relation rel("t",
               Schema({{"key", FieldType::kInt32},
                       {"payload", FieldType::kDouble}}),
               &pool);
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(
        InsertTuple(&rel, Tuple{static_cast<int64_t>(rng.UniformInt(uint64_t{1000})),
                         double(i)})
            .ok());
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  const auto before = disk.meter().counters();
  SortMetrics metrics;
  auto out = ExternalSort(rel, "key", "out", {}, &metrics);
  ASSERT_TRUE(out.ok());
  ExpectSortedByKey(**out, 10000);
  const auto delta = disk.meter().counters() - before;
  // Each pass streams the data set through the small pool: at least one
  // full write and one full read of the relation's blocks per pass.
  const uint64_t blocks = rel.num_blocks();
  EXPECT_GE(delta.blocks_written, blocks * (1 + metrics.merge_passes));
  EXPECT_GE(delta.blocks_read, blocks * (1 + metrics.merge_passes));
  EXPECT_GE(delta.relations_created, metrics.initial_runs);
}

TEST_F(ExternalSortTest, InputRelationUntouched) {
  FillRandom(500, 3);
  std::vector<int64_t> before;
  for (Relation::Cursor c = rel_.Scan(); c.Valid(); c.Next()) {
    before.push_back(c.row().Int(0));
  }
  ASSERT_TRUE(ExternalSort(rel_, "key", "out").ok());
  std::vector<int64_t> after;
  for (Relation::Cursor c = rel_.Scan(); c.Valid(); c.Next()) {
    after.push_back(c.row().Int(0));
  }
  EXPECT_EQ(before, after);
}

TEST_F(ExternalSortTest, LargerFrameBudgetFewerPasses) {
  FillRandom(10000);
  SortMetrics small_m, big_m;
  SortOptions small_opt;
  small_opt.memory_frames = 3;
  SortOptions big_opt;
  big_opt.memory_frames = 16;
  ASSERT_TRUE(ExternalSort(rel_, "key", "s", small_opt, &small_m).ok());
  ASSERT_TRUE(ExternalSort(rel_, "key", "b", big_opt, &big_m).ok());
  EXPECT_GT(small_m.initial_runs, big_m.initial_runs);
  EXPECT_GE(small_m.merge_passes, big_m.merge_passes);
}

}  // namespace
}  // namespace atis::relational
