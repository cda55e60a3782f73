#include "relational/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "tuple_rows.h"

namespace atis::relational {
namespace {

using storage::BufferPool;
using storage::CostParams;
using storage::DiskManager;

/// Join tests run parameterised over all four concrete strategies: every
/// strategy must produce the same multiset of result rows.
class JoinStrategyTest : public ::testing::TestWithParam<JoinStrategy> {
 protected:
  JoinStrategyTest()
      : pool_(&disk_, 64),
        left_("L",
              Schema({{"id", FieldType::kInt32},
                      {"lv", FieldType::kDouble}}),
              &pool_),
        right_("R",
               Schema({{"key", FieldType::kInt32},
                       {"rv", FieldType::kDouble}}),
               &pool_) {}

  void Fill() {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(InsertTuple(&left_, Tuple{int64_t{i}, double(i)}).ok());
    }
    // Right: keys 5..14, with key 5 duplicated.
    for (int i = 5; i < 15; ++i) {
      ASSERT_TRUE(InsertTuple(&right_, Tuple{int64_t{i}, double(i) * 10}).ok());
    }
    ASSERT_TRUE(InsertTuple(&right_, Tuple{int64_t{5}, 999.0}).ok());
    // The primary-key strategy needs an index on the inner join field.
    ASSERT_TRUE(right_.CreateHashIndex("key", 8).ok());
  }

  std::multiset<std::pair<int64_t, double>> Rows(const Relation& rel) {
    std::multiset<std::pair<int64_t, double>> rows;
    for (Relation::Cursor c = rel.Scan(); c.Valid(); c.Next()) {
      const Tuple t = Unpacked(c.row());
      rows.insert({AsInt(t[0]), AsDouble(t[3])});
    }
    return rows;
  }

  DiskManager disk_;
  BufferPool pool_;
  Relation left_;
  Relation right_;
  CostParams params_;
};

TEST_P(JoinStrategyTest, ProducesExpectedRows) {
  Fill();
  auto out = Join(left_, right_, {"id", "key"}, GetParam(), params_, "J");
  ASSERT_TRUE(out.ok());
  // Matches: keys 5..9, key 5 twice => 6 rows.
  EXPECT_EQ((*out)->num_tuples(), 6u);
  const auto rows = Rows(**out);
  EXPECT_EQ(rows.count({5, 50.0}), 1u);
  EXPECT_EQ(rows.count({5, 999.0}), 1u);
  EXPECT_EQ(rows.count({9, 90.0}), 1u);
  EXPECT_EQ(rows.count({4, 40.0}), 0u);
}

TEST_P(JoinStrategyTest, EmptyInputsYieldEmptyResult) {
  ASSERT_TRUE(right_.CreateHashIndex("key", 8).ok());
  auto out = Join(left_, right_, {"id", "key"}, GetParam(), params_, "J");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_tuples(), 0u);
}

TEST_P(JoinStrategyTest, ResultSchemaIsPrefixedConcatenation) {
  Fill();
  auto out = Join(left_, right_, {"id", "key"}, GetParam(), params_, "J");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->schema().FieldIndex("L.id"), 0);
  EXPECT_EQ((*out)->schema().FieldIndex("R.rv"), 3);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, JoinStrategyTest,
    ::testing::Values(JoinStrategy::kNestedLoop, JoinStrategy::kHash,
                      JoinStrategy::kSortMerge, JoinStrategy::kPrimaryKey),
    [](const auto& info) {
      return std::string(JoinStrategyName(info.param)) == "nested-loop"
                 ? "NestedLoop"
             : std::string(JoinStrategyName(info.param)) == "hash" ? "Hash"
             : std::string(JoinStrategyName(info.param)) == "sort-merge"
                 ? "SortMerge"
                 : "PrimaryKey";
    });

TEST(JoinTest, AutoPicksAStrategyAndRuns) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  Relation l("L", Schema({{"id", FieldType::kInt32}}), &pool);
  Relation r("R", Schema({{"key", FieldType::kInt32}}), &pool);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(InsertTuple(&l, Tuple{int64_t{i}}).ok());
    ASSERT_TRUE(InsertTuple(&r, Tuple{int64_t{i}}).ok());
  }
  auto out = Join(l, r, {"id", "key"}, JoinStrategy::kAuto, CostParams{},
                  "J");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_tuples(), 5u);
}

TEST(JoinTest, UnknownFieldRejected) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  Relation l("L", Schema({{"id", FieldType::kInt32}}), &pool);
  Relation r("R", Schema({{"key", FieldType::kInt32}}), &pool);
  EXPECT_TRUE(Join(l, r, {"nope", "key"}, JoinStrategy::kHash, CostParams{},
                   "J")
                  .status()
                  .IsInvalidArgument());
}

TEST(JoinTest, PrimaryKeyJoinOverIsamIndexMatchesNestedLoop) {
  // The inner lookup goes through whichever index covers the join field:
  // the ISAM index (the paper's node-relation shape) as well as the hash.
  DiskManager disk;
  BufferPool pool(&disk, 64);
  Relation l("L", Schema({{"id", FieldType::kInt32}}), &pool);
  Relation r("R", Schema({{"key", FieldType::kInt32},
                          {"rv", FieldType::kDouble}}),
             &pool);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(InsertTuple(&l, Tuple{int64_t{(i * 7) % 50}}).ok());
  }
  for (int i = 0; i < 60; i += 2) {
    ASSERT_TRUE(InsertTuple(&r, Tuple{int64_t{i}, double(i) / 4}).ok());
    if (i % 10 == 0) {
      ASSERT_TRUE(InsertTuple(&r, Tuple{int64_t{i}, -double(i)}).ok());
    }
  }
  ASSERT_TRUE(r.BuildIsamIndex("key").ok());
  ASSERT_EQ(r.hash_index(), nullptr);
  auto pk = Join(l, r, {"id", "key"}, JoinStrategy::kPrimaryKey,
                 CostParams{}, "PK");
  ASSERT_TRUE(pk.ok()) << pk.status().ToString();
  auto nl = Join(l, r, {"id", "key"}, JoinStrategy::kNestedLoop,
                 CostParams{}, "NL");
  ASSERT_TRUE(nl.ok());
  std::multiset<std::pair<int64_t, double>> want, got;
  for (Relation::Cursor c = (*nl)->Scan(); c.Valid(); c.Next()) {
    want.insert({c.row().Int(0), c.row().Double(2)});
  }
  for (Relation::Cursor c = (*pk)->Scan(); c.Valid(); c.Next()) {
    got.insert({c.row().Int(0), c.row().Double(2)});
  }
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(got, want);
}

TEST(JoinTest, PrimaryKeyJoinWithoutAnInnerIndexIsRejected) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  Relation l("L", Schema({{"id", FieldType::kInt32}}), &pool);
  Relation r("R", Schema({{"key", FieldType::kInt32}}), &pool);
  ASSERT_TRUE(InsertTuple(&l, Tuple{int64_t{1}}).ok());
  ASSERT_TRUE(InsertTuple(&r, Tuple{int64_t{1}}).ok());
  EXPECT_EQ(Join(l, r, {"id", "key"}, JoinStrategy::kPrimaryKey,
                 CostParams{}, "J")
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(JoinOptimizerTest, NestedLoopFormulaMatchesPaper) {
  // Section 4.3: F = B1*t_read + (B1*B2)*t_read + B3*t_write.
  CostParams p;
  JoinStats s;
  s.left_blocks = 2;
  s.right_blocks = 28;
  s.result_blocks = 1;
  const double expected = 2 * 0.035 + 2 * 28 * 0.035 + 1 * 0.05;
  EXPECT_NEAR(EstimateJoinCost(JoinStrategy::kNestedLoop, s, p), expected,
              1e-12);
}

TEST(JoinOptimizerTest, PrimaryKeyRequiresIndex) {
  CostParams p;
  JoinStats s;
  s.left_blocks = 1;
  s.right_blocks = 10;
  s.result_blocks = 1;
  s.right_has_index = false;
  EXPECT_TRUE(std::isinf(EstimateJoinCost(JoinStrategy::kPrimaryKey, s, p)));
}

TEST(JoinOptimizerTest, PrimaryKeyWinsForTinyOuter) {
  // One current node joining against the edge relation: the adjacency
  // fetch of the best-first algorithms.
  CostParams p;
  JoinStats s;
  s.left_blocks = 1;
  s.left_tuples = 1;
  s.right_blocks = 28;
  s.result_blocks = 1;
  s.right_has_index = true;
  s.right_index_levels = 1;
  EXPECT_EQ(ChooseJoinStrategy(s, p).strategy, JoinStrategy::kPrimaryKey);
}

TEST(JoinOptimizerTest, HashBeatsNestedLoopForLargeInputs) {
  CostParams p;
  JoinStats s;
  s.left_blocks = 100;
  s.left_tuples = 25600;
  s.right_blocks = 100;
  s.result_blocks = 10;
  s.right_has_index = false;
  const auto choice = ChooseJoinStrategy(s, p);
  EXPECT_EQ(choice.strategy, JoinStrategy::kHash);
  EXPECT_LT(choice.cost,
            EstimateJoinCost(JoinStrategy::kNestedLoop, s, p));
}

TEST(JoinOptimizerTest, SortMergeCostIncludesSortPasses) {
  CostParams p;
  JoinStats s;
  s.left_blocks = 64;
  s.right_blocks = 64;
  s.result_blocks = 8;
  const double merge_only = (64 + 64) * p.t_read + 8 * p.t_write;
  EXPECT_GT(EstimateJoinCost(JoinStrategy::kSortMerge, s, p), merge_only);
}

TEST(JoinOptimizerTest, ComputeJoinStatsDerivesBlocksAndIndex) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  Relation l("L", Schema({{"id", FieldType::kInt32}}), &pool);
  Relation r("R", Schema({{"key", FieldType::kInt32}}), &pool);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(InsertTuple(&l, Tuple{int64_t{i}}).ok());
    ASSERT_TRUE(InsertTuple(&r, Tuple{int64_t{i}}).ok());
  }
  ASSERT_TRUE(r.BuildIsamIndex("key").ok());
  const JoinStats s = ComputeJoinStats(l, r, {"id", "key"});
  EXPECT_EQ(s.left_blocks, l.num_blocks());
  EXPECT_EQ(s.left_tuples, 100u);
  EXPECT_TRUE(s.right_has_index);
  EXPECT_EQ(s.right_index_levels, r.isam_index()->num_levels());
  EXPECT_GE(s.result_blocks, 1u);
}

TEST(JoinTest, MaterializedResultChargesRelationCreate) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  Relation l("L", Schema({{"id", FieldType::kInt32}}), &pool);
  Relation r("R", Schema({{"key", FieldType::kInt32}}), &pool);
  ASSERT_TRUE(InsertTuple(&l, Tuple{int64_t{1}}).ok());
  ASSERT_TRUE(InsertTuple(&r, Tuple{int64_t{1}}).ok());
  const uint64_t creates = disk.meter().counters().relations_created;
  auto out =
      Join(l, r, {"id", "key"}, JoinStrategy::kHash, CostParams{}, "J");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(disk.meter().counters().relations_created, creates + 1);
}

// --- Block nested loop: measured I/O and output order --------------------

/// Two relations of the JoinStrategyTest shape, `left_rows` and
/// `right_rows` tuples; right keys are i / 3, so every left id below
/// right_rows / 3 meets three inner tuples.
struct NestedLoopFixture {
  NestedLoopFixture(BufferPool* pool, size_t left_rows, size_t right_rows)
      : left("L",
             Schema({{"id", FieldType::kInt32}, {"lv", FieldType::kDouble}}),
             pool),
        right("R",
              Schema({{"key", FieldType::kInt32}, {"rv", FieldType::kDouble}}),
              pool) {
    for (size_t i = 0; i < left_rows; ++i) {
      EXPECT_TRUE(InsertTuple(&left, Tuple{int64_t(i), double(i)}).ok());
    }
    for (size_t i = 0; i < right_rows; ++i) {
      EXPECT_TRUE(InsertTuple(&right, Tuple{int64_t(i / 3), double(i)}).ok());
    }
  }
  Relation left;
  Relation right;
};

TEST(NestedLoopJoinTest, MeasuredIoWithinPaperFormula) {
  // Section 4.3: F = B1*t_read + (B1*B2)*t_read + B3*t_write assumes one
  // inner scan per outer block. A 4-frame pool cannot cache the inner
  // relation, so every rescan is metered.
  DiskManager disk;
  BufferPool pool(&disk, /*capacity=*/4, /*num_shards=*/1);
  NestedLoopFixture f(&pool, 1000, 3 * 1000);
  ASSERT_GE(f.left.num_blocks(), 4u);
  ASSERT_GE(f.right.num_blocks(), 12u);
  ASSERT_TRUE(pool.EvictAll().ok());
  const storage::IoCounters before = disk.meter().counters();

  auto out = Join(f.left, f.right, {"id", "key"}, JoinStrategy::kNestedLoop,
                  CostParams{}, "J");
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  const storage::IoCounters after = disk.meter().counters();

  const uint64_t b1 = f.left.num_blocks();
  const uint64_t b2 = f.right.num_blocks();
  const uint64_t b3 = (*out)->num_blocks();
  EXPECT_EQ((*out)->num_tuples(), 3 * f.left.num_tuples());
  EXPECT_LE(after.blocks_read - before.blocks_read, b1 + b1 * b2 + b3);
  EXPECT_EQ(after.blocks_written - before.blocks_written, b3);
}

TEST(NestedLoopJoinTest, NestedLoopOutputOrderIsLeftMajor) {
  // Duplicate keys on both sides and a multi-block outer: the result is
  // every outer tuple in scan order, each followed by its inner matches in
  // inner scan order — the tuple-at-a-time loop's sequence. Keys spread
  // by `scale` also give a block key range wider than 32 bits.
  for (const int64_t scale : {int64_t{1}, int64_t{1} << 40}) {
    DiskManager disk;
    BufferPool pool(&disk, 64);
    Relation left(
        "L", Schema({{"id", FieldType::kInt64}, {"lv", FieldType::kDouble}}),
        &pool);
    Relation right(
        "R", Schema({{"key", FieldType::kInt64}, {"rv", FieldType::kDouble}}),
        &pool);
    std::vector<Tuple> lrows;
    for (size_t i = 0; i < 600; ++i) {
      lrows.push_back(Tuple{int64_t((i * 7) % 23) * scale - 11, double(i)});
      ASSERT_TRUE(InsertTuple(&left, lrows.back()).ok());
    }
    ASSERT_GE(left.num_blocks(), 2u);
    std::vector<Tuple> rrows;
    for (int i = 0; i < 60; ++i) {
      rrows.push_back(
          Tuple{int64_t((i * 5) % 17) * scale - 11, double(1000 + i)});
      ASSERT_TRUE(InsertTuple(&right, rrows.back()).ok());
    }

    std::vector<std::pair<double, double>> expected;
    for (const Tuple& l : lrows) {
      for (const Tuple& r : rrows) {
        if (AsInt(l[0]) == AsInt(r[0])) {
          expected.push_back({AsDouble(l[1]), AsDouble(r[1])});
        }
      }
    }
    auto out = Join(left, right, {"id", "key"}, JoinStrategy::kNestedLoop,
                    CostParams{}, "J");
    ASSERT_TRUE(out.ok());
    std::vector<std::pair<double, double>> got;
    for (Relation::Cursor c = (*out)->Scan(); c.Valid(); c.Next()) {
      const Tuple t = Unpacked(c.row());
      EXPECT_EQ(AsInt(t[0]), AsInt(t[2]));
      got.push_back({AsDouble(t[1]), AsDouble(t[3])});
    }
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(got, expected) << "scale " << scale;
  }
}

}  // namespace
}  // namespace atis::relational
