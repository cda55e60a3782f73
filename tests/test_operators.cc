#include "relational/operators.h"

#include <gtest/gtest.h>

namespace atis::relational {
namespace {

using storage::BufferPool;
using storage::DiskManager;

class OperatorsTest : public ::testing::Test {
 protected:
  OperatorsTest()
      : pool_(&disk_, 32),
        rel_("t",
             Schema({{"id", FieldType::kInt32}, {"v", FieldType::kDouble}}),
             &pool_) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(rel_.Insert(Tuple{int64_t{i}, double(i) * 1.5}).ok());
    }
  }
  DiskManager disk_;
  BufferPool pool_;
  Relation rel_;
};

TEST_F(OperatorsTest, SelectScanAll) {
  auto all = SelectScan(rel_, {});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 20u);
}

TEST_F(OperatorsTest, SelectScanPredicate) {
  auto evens = SelectScan(rel_, [](const RowView& t) {
    return t.Int(0) % 2 == 0;
  });
  ASSERT_TRUE(evens.ok());
  EXPECT_EQ(evens->size(), 10u);
}

TEST_F(OperatorsTest, SelectIndexWithFilter) {
  ASSERT_TRUE(rel_.CreateHashIndex("id", 4).ok());
  auto hit = SelectIndex(rel_, "id", 7);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble((*hit)[0].tuple[1]), 10.5);
  auto filtered = SelectIndex(rel_, "id", 7, [](const RowView& t) {
    return t.Double(1) > 100.0;
  });
  ASSERT_TRUE(filtered.ok());
  EXPECT_TRUE(filtered->empty());
}

TEST_F(OperatorsTest, ReplaceUpdatesMatching) {
  auto n = Replace(
      &rel_, [](const RowView& t) { return t.Int(0) < 5; },
      [](RowWriter& t) { t.SetDouble(1, -1.0); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
  auto check = SelectScan(rel_, [](const RowView& t) {
    return t.Double(1) == -1.0;
  });
  EXPECT_EQ(check->size(), 5u);
}

TEST_F(OperatorsTest, ReplaceWithNoMatchesIsNoop) {
  auto n = Replace(
      &rel_, [](const RowView&) { return false; },
      [](RowWriter& t) { t.SetDouble(1, 0.0); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST_F(OperatorsTest, AppendInserts) {
  ASSERT_TRUE(Append(&rel_, Tuple{int64_t{99}, 0.0}).ok());
  EXPECT_EQ(rel_.num_tuples(), 21u);
}

TEST_F(OperatorsTest, DeleteWhereRemovesMatching) {
  auto n = DeleteWhere(&rel_, [](const RowView& t) {
    return t.Int(0) >= 15;
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
  EXPECT_EQ(rel_.num_tuples(), 15u);
}

TEST_F(OperatorsTest, CountWhere) {
  auto n = CountWhere(rel_, [](const RowView& t) {
    return t.Int(0) % 3 == 0;
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 7u);  // 0,3,6,9,12,15,18
}

TEST_F(OperatorsTest, MinByFindsMinimum) {
  auto m = MinBy(rel_, {}, [](const RowView& t) { return -t.Double(1); });
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->has_value());
  EXPECT_EQ(AsInt((**m).tuple[0]), 19);  // max v => min of -v
}

TEST_F(OperatorsTest, MinByWithPredicate) {
  auto m = MinBy(
      rel_, [](const RowView& t) { return t.Int(0) > 10; },
      [](const RowView& t) { return t.Double(1); });
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->has_value());
  EXPECT_EQ(AsInt((**m).tuple[0]), 11);
}

TEST_F(OperatorsTest, MinByEmptyMatchIsNullopt) {
  auto m = MinBy(
      rel_, [](const RowView&) { return false; },
      [](const RowView&) { return 0.0; });
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->has_value());
}

TEST_F(OperatorsTest, MinByBreaksTiesByScanOrder) {
  Relation ties("ties", Schema({{"id", FieldType::kInt32}}), &pool_);
  ASSERT_TRUE(ties.Insert(Tuple{int64_t{10}}).ok());
  ASSERT_TRUE(ties.Insert(Tuple{int64_t{20}}).ok());
  auto m = MinBy(ties, {}, [](const RowView&) { return 1.0; });
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(AsInt((**m).tuple[0]), 10);
}

TEST_F(OperatorsTest, ExecutionContextEvictsBetweenStatements) {
  ExecutionContext ctx(&pool_, /*statement_at_a_time=*/true);
  ASSERT_TRUE(SelectScan(rel_, {}).ok());
  ASSERT_TRUE(ctx.EndStatement().ok());
  const uint64_t reads = disk_.meter().counters().blocks_read;
  ASSERT_TRUE(SelectScan(rel_, {}).ok());
  // The rescan after eviction must hit the disk again.
  EXPECT_GT(disk_.meter().counters().blocks_read, reads);
}

TEST_F(OperatorsTest, ExecutionContextCachedModeAvoidsRereads) {
  ExecutionContext ctx(&pool_, /*statement_at_a_time=*/false);
  ASSERT_TRUE(SelectScan(rel_, {}).ok());
  ASSERT_TRUE(ctx.EndStatement().ok());
  const uint64_t reads = disk_.meter().counters().blocks_read;
  ASSERT_TRUE(SelectScan(rel_, {}).ok());
  EXPECT_EQ(disk_.meter().counters().blocks_read, reads);
}

}  // namespace
}  // namespace atis::relational
