#include "relational/relation.h"

#include <gtest/gtest.h>

#include <set>

#include "tuple_rows.h"

namespace atis::relational {
namespace {

using storage::BufferPool;
using storage::DiskManager;

Schema PersonSchema() {
  return Schema({{"id", FieldType::kInt32},
                 {"score", FieldType::kDouble}});
}

constexpr int kId = 0;  // PersonSchema's "id"

class RelationTest : public ::testing::Test {
 protected:
  RelationTest()
      : pool_(&disk_, 32), rel_("people", PersonSchema(), &pool_) {}
  DiskManager disk_;
  BufferPool pool_;
  Relation rel_;
};

TEST_F(RelationTest, InsertGetRoundTrip) {
  auto rid = InsertTuple(&rel_, Tuple{int64_t{1}, 2.5});
  ASSERT_TRUE(rid.ok());
  auto t = ReadTuple(rel_, *rid);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(AsInt((*t)[0]), 1);
  EXPECT_DOUBLE_EQ(AsDouble((*t)[1]), 2.5);
  EXPECT_EQ(rel_.num_tuples(), 1u);
}

TEST_F(RelationTest, UpdateRewrites) {
  auto rid = InsertTuple(&rel_, Tuple{int64_t{1}, 2.5});
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(
      rel_.Edit(*rid, [](RowWriter& row) { row.SetDouble(1, 9.0); }).ok());
  EXPECT_DOUBLE_EQ(AsDouble((*ReadTuple(rel_, *rid))[1]), 9.0);
}

TEST_F(RelationTest, DeleteRemoves) {
  auto rid = InsertTuple(&rel_, Tuple{int64_t{1}, 2.5});
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(rel_.Delete(*rid).ok());
  EXPECT_TRUE(ReadTuple(rel_, *rid).status().IsNotFound());
  EXPECT_EQ(rel_.num_tuples(), 0u);
}

TEST_F(RelationTest, ScanVisitsEverything) {
  std::set<int64_t> ids;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(InsertTuple(&rel_, Tuple{int64_t{i}, 0.0}).ok());
    ids.insert(i);
  }
  for (Relation::Cursor c = rel_.Scan(); c.Valid(); c.Next()) {
    ids.erase(c.row().Int(0));
  }
  EXPECT_TRUE(ids.empty());
  EXPECT_GT(rel_.num_blocks(), 1u);
}

TEST_F(RelationTest, HashIndexLookup) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(InsertTuple(&rel_, Tuple{int64_t{i % 10}, double(i)}).ok());
  }
  ASSERT_TRUE(rel_.CreateHashIndex("id", 8).ok());
  auto rids = rel_.IndexLookup(kId, 3);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 10u);
  for (const auto rid : *rids) {
    EXPECT_EQ(AsInt((*ReadTuple(rel_, rid))[0]), 3);
  }
}

TEST_F(RelationTest, HashIndexMaintainedByMutations) {
  ASSERT_TRUE(rel_.CreateHashIndex("id", 8).ok());
  auto rid = InsertTuple(&rel_, Tuple{int64_t{5}, 0.0});
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(rel_.IndexLookup(kId, 5)->size(), 1u);
  // Key change moves the entry.
  ASSERT_TRUE(rel_.Edit(*rid, [](RowWriter& row) { row.SetInt(0, 6); }).ok());
  EXPECT_TRUE(rel_.IndexLookup(kId, 5)->empty());
  EXPECT_EQ(rel_.IndexLookup(kId, 6)->size(), 1u);
  ASSERT_TRUE(rel_.Delete(*rid).ok());
  EXPECT_TRUE(rel_.IndexLookup(kId, 6)->empty());
}

TEST_F(RelationTest, IsamIndexBulkBuildAndLookup) {
  for (int i = 99; i >= 0; --i) {  // unsorted insert order is fine
    ASSERT_TRUE(InsertTuple(&rel_, Tuple{int64_t{i}, double(i)}).ok());
  }
  ASSERT_TRUE(rel_.BuildIsamIndex("id").ok());
  auto rids = rel_.IndexLookup(kId, 42);
  ASSERT_TRUE(rids.ok());
  ASSERT_EQ(rids->size(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble((*ReadTuple(rel_, rids->front()))[1]), 42.0);
}

TEST_F(RelationTest, IndexOnFloatFieldRejected) {
  EXPECT_TRUE(rel_.CreateHashIndex("score", 8).IsInvalidArgument());
  EXPECT_TRUE(rel_.BuildIsamIndex("score").IsInvalidArgument());
}

TEST_F(RelationTest, IndexOnUnknownFieldRejected) {
  EXPECT_TRUE(rel_.CreateHashIndex("nope", 8).IsInvalidArgument());
}

TEST_F(RelationTest, LookupWithoutIndexFails) {
  EXPECT_EQ(rel_.IndexLookup(kId, 1).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RelationTest, DuplicateIndexRejected) {
  ASSERT_TRUE(rel_.CreateHashIndex("id", 8).ok());
  EXPECT_EQ(rel_.CreateHashIndex("id", 8).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RelationTest, ClearChargesDeleteAndEmpties) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(InsertTuple(&rel_, Tuple{int64_t{i}, 0.0}).ok());
  }
  const uint64_t deletes_before =
      disk_.meter().counters().relations_deleted;
  ASSERT_TRUE(rel_.Clear(true).ok());
  EXPECT_EQ(rel_.num_tuples(), 0u);
  EXPECT_EQ(disk_.meter().counters().relations_deleted, deletes_before + 1);
}

TEST_F(RelationTest, ChargedCreateRecordsFixedCost) {
  const uint64_t creates_before =
      disk_.meter().counters().relations_created;
  Relation temp("tmp", PersonSchema(), &pool_, /*charge_create=*/true);
  EXPECT_EQ(disk_.meter().counters().relations_created, creates_before + 1);
}

TEST_F(RelationTest, GetWithWrongSizeDetectsCorruption) {
  // A relation sharing the pool but with a different schema width cannot
  // interpret this relation's records.
  auto rid = InsertTuple(&rel_, Tuple{int64_t{1}, 2.0});
  ASSERT_TRUE(rid.ok());
  Relation other("other", Schema({{"x", FieldType::kInt8}}), &pool_);
  EXPECT_TRUE(ReadTuple(other, *rid).status().IsCorruption());
}

}  // namespace
}  // namespace atis::relational
