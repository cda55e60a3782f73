#include "relational/schema.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace atis::relational {
namespace {

TEST(FieldTypeTest, Widths) {
  EXPECT_EQ(FieldWidth(FieldType::kInt8), 1u);
  EXPECT_EQ(FieldWidth(FieldType::kInt16), 2u);
  EXPECT_EQ(FieldWidth(FieldType::kInt32), 4u);
  EXPECT_EQ(FieldWidth(FieldType::kInt64), 8u);
  EXPECT_EQ(FieldWidth(FieldType::kFloat), 4u);
  EXPECT_EQ(FieldWidth(FieldType::kDouble), 8u);
}

TEST(FieldTypeTest, IntegerClassification) {
  EXPECT_TRUE(IsIntegerType(FieldType::kInt8));
  EXPECT_TRUE(IsIntegerType(FieldType::kInt64));
  EXPECT_FALSE(IsIntegerType(FieldType::kFloat));
  EXPECT_FALSE(IsIntegerType(FieldType::kDouble));
}

Schema TestSchema() {
  return Schema({{"a", FieldType::kInt16},
                 {"b", FieldType::kInt32},
                 {"c", FieldType::kFloat},
                 {"d", FieldType::kDouble},
                 {"e", FieldType::kInt8}});
}

TEST(SchemaTest, OffsetsAndSize) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.num_fields(), 5u);
  EXPECT_EQ(s.FieldOffset(0), 0u);
  EXPECT_EQ(s.FieldOffset(1), 2u);
  EXPECT_EQ(s.FieldOffset(2), 6u);
  EXPECT_EQ(s.FieldOffset(3), 10u);
  EXPECT_EQ(s.FieldOffset(4), 18u);
  EXPECT_EQ(s.tuple_size(), 19u);
}

TEST(SchemaTest, FieldIndexByName) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.FieldIndex("a"), 0);
  EXPECT_EQ(s.FieldIndex("d"), 3);
  EXPECT_EQ(s.FieldIndex("zz"), -1);
}

TEST(SchemaTest, PackUnpackRoundTrip) {
  const Schema s = TestSchema();
  std::vector<uint8_t> buf(s.tuple_size(), 0);
  s.WriteInt(buf.data(), 0, -7);
  s.WriteInt(buf.data(), 1, 100000);
  s.WriteDouble(buf.data(), 2, 1.5);
  s.WriteDouble(buf.data(), 3, -2.25);
  s.WriteInt(buf.data(), 4, 12);
  EXPECT_EQ(s.ReadInt(buf.data(), 0), -7);
  EXPECT_EQ(s.ReadInt(buf.data(), 1), 100000);
  EXPECT_DOUBLE_EQ(s.ReadDouble(buf.data(), 2), 1.5);
  EXPECT_DOUBLE_EQ(s.ReadDouble(buf.data(), 3), -2.25);
  EXPECT_EQ(s.ReadInt(buf.data(), 4), 12);
  // Cross-type access converts: an integer written to a float field reads
  // back as that number, a double written to an integer field truncates.
  s.WriteInt(buf.data(), 2, 3);
  EXPECT_DOUBLE_EQ(s.ReadDouble(buf.data(), 2), 3.0);
  s.WriteDouble(buf.data(), 1, 3.9);
  EXPECT_EQ(s.ReadInt(buf.data(), 1), 3);
}

TEST(SchemaTest, TupleSizeOverridePads) {
  // The paper's node relation: 13 packed bytes padded to T_r = 16.
  Schema s({{"node_id", FieldType::kInt16},
            {"x", FieldType::kInt16},
            {"y", FieldType::kInt16},
            {"status", FieldType::kInt8},
            {"pred", FieldType::kInt16},
            {"path_cost", FieldType::kFloat}},
           16);
  EXPECT_EQ(s.tuple_size(), 16u);
  EXPECT_EQ(s.blocking_factor(), 256u);  // Table 4A: Bf_r
}

TEST(SchemaTest, EdgeSchemaBlockingFactorMatchesPaper) {
  Schema s({{"begin_node", FieldType::kInt32},
            {"end_node", FieldType::kInt32},
            {"edge_cost", FieldType::kFloat}},
           32);
  EXPECT_EQ(s.blocking_factor(), 128u);  // Table 4A: Bf_s
}

TEST(SchemaTest, FloatInfinityRoundTrips) {
  Schema s({{"c", FieldType::kFloat}});
  std::vector<uint8_t> buf(s.tuple_size());
  s.WriteDouble(buf.data(), 0, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(s.ReadDouble(buf.data(), 0)));
}

TEST(SchemaTest, NarrowIntBoundaries) {
  Schema s({{"i8", FieldType::kInt8}, {"i16", FieldType::kInt16}});
  std::vector<uint8_t> buf(s.tuple_size());
  s.WriteInt(buf.data(), 0, -128);
  s.WriteInt(buf.data(), 1, 32767);
  EXPECT_EQ(s.ReadInt(buf.data(), 0), -128);
  EXPECT_EQ(s.ReadInt(buf.data(), 1), 32767);
}

TEST(SchemaTest, PackedSizeExcludesPadding) {
  Schema padded({{"a", FieldType::kInt16}, {"b", FieldType::kFloat}}, 16);
  EXPECT_EQ(padded.packed_size(), 6u);
  EXPECT_EQ(padded.tuple_size(), 16u);
  // A join row is both sides' packed fields, back to back.
  Schema j = JoinSchema(padded, padded, "L", "R");
  EXPECT_EQ(j.tuple_size(), 12u);
  EXPECT_EQ(j.packed_size(), 12u);
  EXPECT_EQ(j.FieldOffset(2), padded.packed_size());
}

TEST(SchemaTest, SameLayoutComparesTypesAndSize) {
  Schema a({{"x", FieldType::kInt32}, {"y", FieldType::kFloat}});
  Schema b({{"u", FieldType::kInt32}, {"v", FieldType::kFloat}});
  Schema c({{"x", FieldType::kInt32}, {"y", FieldType::kDouble}});
  EXPECT_TRUE(a.SameLayout(b));  // names differ, layout identical
  EXPECT_FALSE(a.SameLayout(c));
}

TEST(SchemaTest, JoinSchemaConcatenatesWithPrefixes) {
  Schema left({{"id", FieldType::kInt32}});
  Schema right({{"id", FieldType::kInt32}, {"w", FieldType::kFloat}});
  Schema j = JoinSchema(left, right, "L", "R");
  EXPECT_EQ(j.num_fields(), 3u);
  EXPECT_EQ(j.FieldIndex("L.id"), 0);
  EXPECT_EQ(j.FieldIndex("R.id"), 1);
  EXPECT_EQ(j.FieldIndex("R.w"), 2);
  EXPECT_EQ(j.tuple_size(), 12u);
}

TEST(SchemaTest, BlockingFactorZeroFieldSchema) {
  Schema empty;
  EXPECT_EQ(empty.blocking_factor(), 0u);
}

}  // namespace
}  // namespace atis::relational
