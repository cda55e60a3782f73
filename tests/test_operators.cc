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

TEST_F(OperatorsTest, SelectScanOnEmptyRelationMatchesNothing) {
  Relation empty("e", Schema({{"id", FieldType::kInt32}}), &pool_);
  auto all = SelectScan(empty, {});
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->empty());
}

TEST_F(OperatorsTest, SelectScanRecordIdsReadBackTheirTuples) {
  auto odds = SelectScan(rel_, [](const RowView& t) {
    return t.Int(0) % 2 == 1;
  });
  ASSERT_TRUE(odds.ok());
  ASSERT_EQ(odds->size(), 10u);
  for (const MatchedTuple& m : *odds) {
    EXPECT_EQ(AsInt(m.tuple[0]) % 2, 1);
    auto stored = rel_.Get(m.rid);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(AsInt((*stored)[0]), AsInt(m.tuple[0]));
    EXPECT_EQ(AsDouble((*stored)[1]), AsDouble(m.tuple[1]));
  }
}

TEST_F(OperatorsTest, ReplaceWhoseUpdateStillMatchesAppliesOnce) {
  // Every row keeps satisfying the predicate after its update; the
  // two-phase REPLACE must still rewrite each row exactly once.
  auto n = Replace(
      &rel_, [](const RowView& t) { return t.Double(1) >= 0.0; },
      [](RowWriter& t) { t.SetDouble(1, t.Double(1) + 100.0); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 20u);
  auto all = SelectScan(rel_, {});
  ASSERT_TRUE(all.ok());
  for (const MatchedTuple& m : *all) {
    EXPECT_EQ(AsDouble(m.tuple[1]), double(AsInt(m.tuple[0])) * 1.5 + 100.0)
        << "id " << AsInt(m.tuple[0]);
  }
}

TEST_F(OperatorsTest, ReplaceLeavesOtherFieldsAndRowsUntouched) {
  auto n = Replace(
      &rel_, [](const RowView& t) { return t.Int(0) == 7; },
      [](RowWriter& t) { t.SetDouble(1, 0.5); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto all = SelectScan(rel_, {});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 20u);
  for (const MatchedTuple& m : *all) {
    const int64_t id = AsInt(m.tuple[0]);
    EXPECT_EQ(AsDouble(m.tuple[1]), id == 7 ? 0.5 : double(id) * 1.5)
        << "id " << id;
  }
}

TEST_F(OperatorsTest, AppendedTupleIsSeenByLaterStatements) {
  ASSERT_TRUE(Append(&rel_, Tuple{int64_t{99}, 2.25}).ok());
  auto found = SelectScan(rel_, [](const RowView& t) {
    return t.Int(0) == 99;
  });
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ(AsDouble((*found)[0].tuple[1]), 2.25);
  auto n = Replace(
      &rel_, [](const RowView& t) { return t.Int(0) == 99; },
      [](RowWriter& t) { t.SetDouble(1, -2.25); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
}

}  // namespace
}  // namespace atis::relational
