// Zero-copy row access: RowView / RowWriter read and write packed fields
// exactly as the reference codec (tests/tuple_rows.h) lays them out,
// REPLACE rewrites rows in place on their pages (dirtying them and keeping
// indexes in step), a read-then-edit and a run of reads share page
// fetches, and a cursor's view is checked against use after the cursor
// moves on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <variant>
#include <vector>

#include "relational/operators.h"
#include "relational/relation.h"
#include "tuple_rows.h"

namespace atis::relational {
namespace {

using storage::BufferPool;
using storage::DiskManager;
using storage::RecordId;

/// One field of every FieldType, in declaration order.
Schema AllTypesSchema() {
  return Schema({{"i8", FieldType::kInt8},
                 {"i16", FieldType::kInt16},
                 {"i32", FieldType::kInt32},
                 {"i64", FieldType::kInt64},
                 {"f32", FieldType::kFloat},
                 {"f64", FieldType::kDouble}},
                /*tuple_size_override=*/32);
}

std::vector<Tuple> EdgeValueTuples() {
  const double inf = std::numeric_limits<double>::infinity();
  return {
      Tuple{int64_t{0}, int64_t{0}, int64_t{0}, int64_t{0}, 0.0, 0.0},
      Tuple{int64_t{-128}, int64_t{-32768}, int64_t{-2147483648LL},
            std::numeric_limits<int64_t>::min(), -1.5, -2.25},
      Tuple{int64_t{127}, int64_t{32767}, int64_t{2147483647},
            std::numeric_limits<int64_t>::max(), 3.1e38, 1e308},
      // Out-of-range integers wrap; fractional values truncate; doubles
      // round to float — all as Pack narrows them.
      Tuple{int64_t{300}, 70000.0, int64_t{-1}, 12345.9, 0.1, inf},
      Tuple{-7.9, int64_t{-1}, 4.5, int64_t{42}, int64_t{16777217}, -inf},
  };
}

TEST(RowViewTest, TypedReadsEqualUnpackForEveryFieldType) {
  const Schema schema = AllTypesSchema();
  for (const Tuple& t : EdgeValueTuples()) {
    std::vector<uint8_t> packed(schema.tuple_size());
    ASSERT_TRUE(PackTuple(schema, t, packed.data()).ok());
    const Tuple unpacked = UnpackRow(schema, packed.data());
    const RowView row(schema, packed);
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      // An integer read of a float field truncates, so it is defined only
      // for values an int64 can hold.
      if (IsIntegerType(schema.field(i).type) ||
          std::fabs(AsDouble(unpacked[i])) < 9.2e18) {
        EXPECT_EQ(row.Int(i), AsInt(unpacked[i])) << schema.field(i).name;
      }
      const double want = AsDouble(unpacked[i]);
      const double got = row.Double(i);
      // Bit-identical, infinities included.
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << schema.field(i).name << ": " << got << " vs " << want;
    }
    EXPECT_EQ(Unpacked(row), unpacked);
  }
}

TEST(RowViewTest, WriterSetsNarrowExactlyAsPack) {
  const Schema schema = AllTypesSchema();
  for (const Tuple& t : EdgeValueTuples()) {
    std::vector<uint8_t> packed(schema.tuple_size());
    ASSERT_TRUE(PackTuple(schema, t, packed.data()).ok());
    std::vector<uint8_t> written(schema.tuple_size(), 0);
    RowWriter writer(schema, written);
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      if (std::holds_alternative<int64_t>(t[i])) {
        writer.SetInt(i, std::get<int64_t>(t[i]));
      } else {
        writer.SetDouble(i, std::get<double>(t[i]));
      }
    }
    EXPECT_EQ(written, packed);
  }
}

// InPlaceReplaceTest's schema fields.
constexpr int kId = 0;
constexpr int kK = 1;

class InPlaceReplaceTest : public ::testing::Test {
 protected:
  InPlaceReplaceTest()
      : pool_(&disk_, 16),
        rel_("t",
             Schema({{"id", FieldType::kInt32},
                     {"k", FieldType::kInt16},
                     {"v", FieldType::kFloat}},
                    /*tuple_size_override=*/16),
             &pool_) {
    // 1000 rows x (16 B + 4 B slot) spans five pages.
    for (int i = 0; i < 1000; ++i) {
      rids_.push_back(
          *InsertTuple(&rel_, Tuple{int64_t{i}, int64_t{2 * i}, 0.5 * i}));
    }
  }

  DiskManager disk_;
  BufferPool pool_;
  Relation rel_;
  std::vector<RecordId> rids_;
};

TEST_F(InPlaceReplaceTest, DirtiesTheTouchedPagesAndRoundTripsThroughGet) {
  ASSERT_EQ(rel_.num_blocks(), 5u);
  ASSERT_TRUE(pool_.EvictAll().ok());
  const uint64_t written = disk_.meter().counters().blocks_written;
  // Rows 0..9 all live on the first page.
  auto n = Replace(
      &rel_, [](const RowView& row) { return row.Int(0) < 10; },
      [](RowWriter& row) { row.SetDouble(2, row.Double(2) + 100.0); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10u);
  // The edited page is dirty: evicting writes exactly that one block.
  ASSERT_TRUE(pool_.EvictAll().ok());
  EXPECT_EQ(disk_.meter().counters().blocks_written, written + 1);
  // Re-read from disk: the new values persisted, the rest are untouched.
  for (int i = 0; i < 12; ++i) {
    auto t = ReadTuple(rel_, rids_[static_cast<size_t>(i)]);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(AsInt((*t)[0]), i);
    EXPECT_EQ(AsInt((*t)[1]), 2 * i);
    EXPECT_EQ(AsDouble((*t)[2]), 0.5 * i + (i < 10 ? 100.0 : 0.0));
  }
}

TEST_F(InPlaceReplaceTest, ChangedKeysMoveInHashAndIsamIndexes) {
  ASSERT_TRUE(rel_.CreateHashIndex("id", 16).ok());
  ASSERT_TRUE(rel_.BuildIsamIndex("k").ok());
  auto n = Replace(
      &rel_, [](const RowView& row) { return row.Int(0) % 100 == 7; },
      [](RowWriter& row) {
        row.SetInt(0, row.Int(0) + 5000);
        row.SetInt(1, -row.Int(1));
      });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10u);
  for (int i = 7; i < 1000; i += 100) {
    const RecordId rid = rids_[static_cast<size_t>(i)];
    auto old_id = rel_.IndexLookup(kId, i);
    ASSERT_TRUE(old_id.ok());
    EXPECT_TRUE(old_id->empty()) << i;
    auto new_id = rel_.IndexLookup(kId, i + 5000);
    ASSERT_TRUE(new_id.ok());
    ASSERT_EQ(new_id->size(), 1u);
    EXPECT_EQ(new_id->front(), rid);
    auto old_k = rel_.IndexLookup(kK, 2 * i);
    ASSERT_TRUE(old_k.ok());
    EXPECT_TRUE(old_k->empty()) << i;
    auto new_k = rel_.IndexLookup(kK, -2 * i);
    ASSERT_TRUE(new_k.ok());
    ASSERT_EQ(new_k->size(), 1u);
    EXPECT_EQ(new_k->front(), rid);
  }
  // Rows the predicate skipped keep their index entries.
  auto kept = rel_.IndexLookup(kId, 8);
  ASSERT_TRUE(kept.ok());
  ASSERT_EQ(kept->size(), 1u);
  EXPECT_EQ(kept->front(), rids_[8]);
}

TEST_F(InPlaceReplaceTest, SameFetchesAsOneUpdatePerRow) {
  // In-place REPLACE reads and writes the same blocks as the per-row
  // Get + Update it replaced — under a pool too small to hold R.
  BufferPool tiny(&disk_, 2);
  Relation rel("r", rel_.schema(), &tiny);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(InsertTuple(&rel, Tuple{int64_t{i}, int64_t{i}, 0.0}).ok());
  }
  ASSERT_TRUE(tiny.EvictAll().ok());
  const auto before = disk_.meter().counters();
  ASSERT_TRUE(Replace(&rel, {}, [](RowWriter& row) { row.SetInt(1, 0); })
                  .ok());
  ASSERT_TRUE(tiny.EvictAll().ok());
  const auto io = disk_.meter().counters() - before;
  // Scan: 5 reads. Write pass: each page re-read once (the 2-frame pool
  // evicted it during the scan) and written back once.
  EXPECT_EQ(io.blocks_read, 10u);
  EXPECT_EQ(io.blocks_written, 5u);
}

TEST_F(InPlaceReplaceTest, ReadThenEditDirtiesOnlyWhenItEdits) {
  ASSERT_TRUE(pool_.EvictAll().ok());
  const auto before = disk_.meter().counters();
  const auto hits = pool_.stats().hits;
  // Declined: the row is read, its page stays clean.
  int64_t seen = -1;
  ASSERT_TRUE(rel_.ReadThenEdit(
                      rids_[3],
                      [&](const RowView& row) {
                        seen = row.Int(0);
                        return false;
                      },
                      [](RowWriter& row) { row.SetInt(1, -1); })
                  .ok());
  EXPECT_EQ(seen, 3);
  // Taken: read and rewritten on one fetch of the page.
  ASSERT_TRUE(rel_.ReadThenEdit(
                      rids_[4], [](const RowView&) { return true; },
                      [](RowWriter& row) { row.SetInt(1, -1); })
                  .ok());
  EXPECT_EQ(pool_.stats().hits, hits + 1);  // the second call's fetch
  ASSERT_TRUE(pool_.EvictAll().ok());
  const auto io = disk_.meter().counters() - before;
  EXPECT_EQ(io.blocks_read, 1u);
  EXPECT_EQ(io.blocks_written, 1u);
  EXPECT_EQ(AsInt((*ReadTuple(rel_, rids_[3]))[1]), 6);
  EXPECT_EQ(AsInt((*ReadTuple(rel_, rids_[4]))[1]), -1);
}

TEST_F(InPlaceReplaceTest, ReadAllSharesAFetchPerPageRun) {
  // Rows 0..2 share the first page, row 999 is on the last: two fetches,
  // rows visited in the order given.
  ASSERT_TRUE(pool_.EvictAll().ok());
  const auto fetches = pool_.stats().hits + pool_.stats().misses;
  const std::vector<RecordId> rids = {rids_[2], rids_[0], rids_[1],
                                      rids_[999]};
  std::vector<int64_t> ids;
  ASSERT_TRUE(rel_.ReadAll(rids, [&](const RowView& row) {
                    ids.push_back(row.Int(0));
                  }).ok());
  EXPECT_EQ(ids, (std::vector<int64_t>{2, 0, 1, 999}));
  EXPECT_EQ(pool_.stats().hits + pool_.stats().misses, fetches + 2);
}

TEST(CursorRowTest, ViewIsValidUntilNext) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  Relation rel("t", Schema({{"id", FieldType::kInt32}}), &pool);
  ASSERT_TRUE(InsertTuple(&rel, Tuple{int64_t{10}}).ok());
  ASSERT_TRUE(InsertTuple(&rel, Tuple{int64_t{20}}).ok());
  Relation::Cursor c = rel.Scan();
  ASSERT_TRUE(c.Valid());
  const RowView first = c.row();
  EXPECT_EQ(first.Int(0), 10);
  EXPECT_EQ(first.Int(0), 10);  // repeatable while the cursor stays put
  c.Next();
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.row().Int(0), 20);
  // The first row's view expired with Next(). Builds without NDEBUG
  // (CMAKE_BUILD_TYPE=Debug, CI's debug-assertions job) abort on it; the
  // default RelWithDebInfo build compiles the assertion out.
  EXPECT_DEBUG_DEATH((void)first.Int(0), "cursor moved past the row");
}

}  // namespace
}  // namespace atis::relational
