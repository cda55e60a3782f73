// Test helpers that state rows as Tuples over the packed relational API.
//
// Relations store and hand out packed rows only (Relation::InsertPacked,
// RowView, SelectScan's byte buffer); a test is easier to read with its
// rows written as values. These helpers convert at that edge with a
// reference codec of their own: it lays fields out at the schema's offsets
// with plain casts, independently of Schema's typed accessors, so tests of
// those accessors have something to compare against.
#pragma once

#include <cstdint>
#include <cstring>
#include <variant>
#include <vector>

#include "relational/operators.h"
#include "relational/relation.h"

namespace atis::relational {

/// A field value: integers of any width held as int64, floats as double.
using Value = std::variant<int64_t, double>;
/// One value per schema field.
using Tuple = std::vector<Value>;

/// A value as int64 (a double truncates toward zero).
inline int64_t AsInt(const Value& v) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) return *i;
  return static_cast<int64_t>(std::get<double>(v));
}
/// A value as double.
inline double AsDouble(const Value& v) {
  if (const double* d = std::get_if<double>(&v)) return *d;
  return static_cast<double>(std::get<int64_t>(v));
}

namespace tuple_rows_detail {
template <typename T>
void Store(uint8_t* at, T value) {
  std::memcpy(at, &value, sizeof(T));
}
template <typename T>
T Load(const uint8_t* at) {
  T value;
  std::memcpy(&value, at, sizeof(T));
  return value;
}
}  // namespace tuple_rows_detail

/// Packs `tuple` into `dest` (schema.tuple_size() bytes, padding zeroed):
/// integer fields narrow with wrap-around, float fields round.
/// InvalidArgument on an arity mismatch.
inline Status PackTuple(const Schema& schema, const Tuple& tuple,
                        uint8_t* dest) {
  using tuple_rows_detail::Store;
  if (tuple.size() != schema.num_fields()) {
    return Status::InvalidArgument("tuple arity does not match schema");
  }
  std::memset(dest, 0, schema.tuple_size());
  for (size_t i = 0; i < tuple.size(); ++i) {
    uint8_t* at = dest + schema.FieldOffset(i);
    switch (schema.field(i).type) {
      case FieldType::kInt8:
        Store(at, static_cast<int8_t>(AsInt(tuple[i])));
        break;
      case FieldType::kInt16:
        Store(at, static_cast<int16_t>(AsInt(tuple[i])));
        break;
      case FieldType::kInt32:
        Store(at, static_cast<int32_t>(AsInt(tuple[i])));
        break;
      case FieldType::kInt64:
        Store(at, AsInt(tuple[i]));
        break;
      case FieldType::kFloat:
        Store(at, static_cast<float>(AsDouble(tuple[i])));
        break;
      case FieldType::kDouble:
        Store(at, AsDouble(tuple[i]));
        break;
    }
  }
  return Status::OK();
}

/// The fields of the packed row at `src`, integers as int64 and floats as
/// double.
inline Tuple UnpackRow(const Schema& schema, const uint8_t* src) {
  using tuple_rows_detail::Load;
  Tuple tuple;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const uint8_t* at = src + schema.FieldOffset(i);
    switch (schema.field(i).type) {
      case FieldType::kInt8:
        tuple.emplace_back(int64_t{Load<int8_t>(at)});
        break;
      case FieldType::kInt16:
        tuple.emplace_back(int64_t{Load<int16_t>(at)});
        break;
      case FieldType::kInt32:
        tuple.emplace_back(int64_t{Load<int32_t>(at)});
        break;
      case FieldType::kInt64:
        tuple.emplace_back(Load<int64_t>(at));
        break;
      case FieldType::kFloat:
        tuple.emplace_back(double{Load<float>(at)});
        break;
      case FieldType::kDouble:
        tuple.emplace_back(Load<double>(at));
        break;
    }
  }
  return tuple;
}

/// Packs `tuple` with rel's schema and APPENDs it.
inline Result<storage::RecordId> InsertTuple(Relation* rel,
                                             const Tuple& tuple) {
  std::vector<uint8_t> row(rel->schema().tuple_size());
  ATIS_RETURN_NOT_OK(PackTuple(rel->schema(), tuple, row.data()));
  return rel->InsertPacked(row);
}

/// A row view's fields, unpacked.
inline Tuple Unpacked(const RowView& row) {
  return UnpackRow(row.schema(), row.bytes().data());
}

/// The stored row at `rid`, unpacked.
inline Result<Tuple> ReadTuple(const Relation& rel, storage::RecordId rid) {
  Tuple tuple;
  ATIS_RETURN_NOT_OK(
      rel.Read(rid, [&](const RowView& row) { tuple = Unpacked(row); }));
  return tuple;
}

/// The rows SelectScan appended to `packed`, unpacked.
inline std::vector<Tuple> UnpackRows(const Schema& schema,
                                     const std::vector<uint8_t>& packed) {
  std::vector<Tuple> rows;
  for (size_t at = 0; at < packed.size(); at += schema.tuple_size()) {
    rows.push_back(UnpackRow(schema, packed.data() + at));
  }
  return rows;
}

}  // namespace atis::relational
