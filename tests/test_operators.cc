#include "relational/operators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tuple_rows.h"


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
      EXPECT_TRUE(InsertTuple(&rel_, Tuple{int64_t{i}, double(i) * 1.5}).ok());
    }
  }
  DiskManager disk_;
  BufferPool pool_;
  Relation rel_;
};

TEST_F(OperatorsTest, SelectScanAll) {
  std::vector<uint8_t> rows;
  auto all = SelectScan(rel_, {}, &rows);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 20u);
  EXPECT_EQ(rows.size(), 20u * rel_.schema().tuple_size());
}

TEST_F(OperatorsTest, SelectScanPredicate) {
  std::vector<uint8_t> rows;
  auto evens = SelectScan(
      rel_, [](const RowView& t) { return t.Int(0) % 2 == 0; }, &rows);
  ASSERT_TRUE(evens.ok());
  EXPECT_EQ(*evens, 10u);
  for (const Tuple& t : UnpackRows(rel_.schema(), rows)) {
    EXPECT_EQ(AsInt(t[0]) % 2, 0);
  }
}

TEST_F(OperatorsTest, ReplaceUpdatesMatching) {
  auto n = Replace(
      &rel_, [](const RowView& t) { return t.Int(0) < 5; },
      [](RowWriter& t) { t.SetDouble(1, -1.0); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
  std::vector<uint8_t> rows;
  auto check = SelectScan(
      rel_, [](const RowView& t) { return t.Double(1) == -1.0; }, &rows);
  EXPECT_EQ(*check, 5u);
}

TEST_F(OperatorsTest, ReplaceWithNoMatchesIsNoop) {
  auto n = Replace(
      &rel_, [](const RowView&) { return false; },
      [](RowWriter& t) { t.SetDouble(1, 0.0); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST_F(OperatorsTest, AppendInserts) {
  std::vector<uint8_t> row(rel_.schema().tuple_size());
  ASSERT_TRUE(PackTuple(rel_.schema(), Tuple{int64_t{99}, 0.0}, row.data()).ok());
  ASSERT_TRUE(Append(&rel_, row).ok());
  EXPECT_EQ(rel_.num_tuples(), 21u);
  // A row of the wrong width is refused.
  row.pop_back();
  EXPECT_TRUE(Append(&rel_, row).IsInvalidArgument());
  EXPECT_EQ(rel_.num_tuples(), 21u);
}

TEST_F(OperatorsTest, SelectScanOnEmptyRelationMatchesNothing) {
  Relation empty("e", Schema({{"id", FieldType::kInt32}}), &pool_);
  std::vector<uint8_t> rows;
  auto all = SelectScan(empty, {}, &rows);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 0u);
  EXPECT_TRUE(rows.empty());
}

TEST_F(OperatorsTest, SelectScanRowsAreTheStoredBytesInScanOrder) {
  std::vector<uint8_t> rows;
  auto odds = SelectScan(
      rel_, [](const RowView& t) { return t.Int(0) % 2 == 1; }, &rows);
  ASSERT_TRUE(odds.ok());
  ASSERT_EQ(*odds, 10u);
  // Appending to a non-empty buffer keeps what was there.
  const std::vector<uint8_t> first = rows;
  ASSERT_TRUE(SelectScan(
                  rel_, [](const RowView& t) { return t.Int(0) % 2 == 1; },
                  &rows)
                  .ok());
  ASSERT_EQ(rows.size(), 2 * first.size());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), rows.begin()));
  const size_t width = rel_.schema().tuple_size();
  size_t at = 0;
  for (Relation::Cursor c = rel_.Scan(); c.Valid(); c.Next()) {
    if (c.row().Int(0) % 2 != 1) continue;
    const std::span<const uint8_t> stored = c.row().bytes();
    EXPECT_TRUE(std::equal(stored.begin(), stored.end(), first.begin() + at))
        << "id " << c.row().Int(0);
    at += width;
  }
  EXPECT_EQ(at, first.size());
}

TEST_F(OperatorsTest, ReplaceWhoseUpdateStillMatchesAppliesOnce) {
  // Every row keeps satisfying the predicate after its update; the
  // two-phase REPLACE must still rewrite each row exactly once.
  auto n = Replace(
      &rel_, [](const RowView& t) { return t.Double(1) >= 0.0; },
      [](RowWriter& t) { t.SetDouble(1, t.Double(1) + 100.0); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 20u);
  std::vector<uint8_t> rows;
  auto all = SelectScan(rel_, {}, &rows);
  ASSERT_TRUE(all.ok());
  for (const Tuple& t : UnpackRows(rel_.schema(), rows)) {
    EXPECT_EQ(AsDouble(t[1]), double(AsInt(t[0])) * 1.5 + 100.0)
        << "id " << AsInt(t[0]);
  }
}

TEST_F(OperatorsTest, ReplaceLeavesOtherFieldsAndRowsUntouched) {
  auto n = Replace(
      &rel_, [](const RowView& t) { return t.Int(0) == 7; },
      [](RowWriter& t) { t.SetDouble(1, 0.5); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  std::vector<uint8_t> rows;
  auto all = SelectScan(rel_, {}, &rows);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(*all, 20u);
  for (const Tuple& t : UnpackRows(rel_.schema(), rows)) {
    const int64_t id = AsInt(t[0]);
    EXPECT_EQ(AsDouble(t[1]), id == 7 ? 0.5 : double(id) * 1.5)
        << "id " << id;
  }
}

TEST_F(OperatorsTest, AppendedTupleIsSeenByLaterStatements) {
  std::vector<uint8_t> row(rel_.schema().tuple_size());
  ASSERT_TRUE(PackTuple(rel_.schema(), Tuple{int64_t{99}, 2.25}, row.data()).ok());
  ASSERT_TRUE(Append(&rel_, row).ok());
  std::vector<uint8_t> rows;
  auto found = SelectScan(
      rel_, [](const RowView& t) { return t.Int(0) == 99; }, &rows);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(*found, 1u);
  EXPECT_EQ(AsDouble(UnpackRows(rel_.schema(), rows)[0][1]), 2.25);
  auto n = Replace(
      &rel_, [](const RowView& t) { return t.Int(0) == 99; },
      [](RowWriter& t) { t.SetDouble(1, -2.25); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
}

}  // namespace
}  // namespace atis::relational
