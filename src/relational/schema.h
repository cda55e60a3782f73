// Schemas, typed values, and fixed-width tuple (de)serialisation.
//
// All relations in this system have fixed-size tuples of numeric fields
// (node ids, coordinates, costs, status flags). Field widths are explicit so
// the paper's tuple sizes — T_s = 32 bytes for the edge relation S and
// T_r = 16 bytes for the node relation R (Table 4A) — and hence its blocking
// factors Bf_s = 128 and Bf_r = 256 are reproduced exactly.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "util/status.h"

namespace atis::relational {

enum class FieldType : uint8_t {
  kInt8,
  kInt16,
  kInt32,
  kInt64,
  kFloat,
  kDouble,
};

/// Width in bytes of a serialized field.
size_t FieldWidth(FieldType type);
bool IsIntegerType(FieldType type);
std::string_view FieldTypeName(FieldType type);

/// A runtime value: integers of any width are held as int64, floats of any
/// width as double. Narrowing happens at pack time.
using Value = std::variant<int64_t, double>;

/// Tuple = one value per schema field.
using Tuple = std::vector<Value>;

/// Reads a value as int64 (floors doubles).
int64_t AsInt(const Value& v);
/// Reads a value as double.
double AsDouble(const Value& v);

struct Field {
  std::string name;
  FieldType type;
};

class Schema {
 public:
  Schema() = default;
  /// `tuple_size_override`, if nonzero, pads each serialized tuple to that
  /// many bytes (must be >= the packed field size). This is how R's
  /// 16-byte and S's 32-byte tuples are declared.
  explicit Schema(std::vector<Field> fields, size_t tuple_size_override = 0);

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  /// Index of the named field, or -1.
  int FieldIndex(std::string_view name) const;
  /// Serialized byte offset of field i.
  size_t FieldOffset(size_t i) const { return offsets_[i]; }
  /// Serialized tuple size in bytes (including any override padding).
  size_t tuple_size() const { return tuple_size_; }
  /// Tuples per 4096-byte block (the paper's blocking factor Bf).
  size_t blocking_factor() const;

  /// Serializes `tuple` into `dest` (must have tuple_size() bytes).
  /// InvalidArgument on arity mismatch; integer fields narrow with
  /// wrap-around semantics (caller-validated ranges in this system).
  Status Pack(const Tuple& tuple, uint8_t* dest) const;

  /// Deserializes a tuple from `src` (tuple_size() bytes).
  Tuple Unpack(const uint8_t* src) const;

  /// Field i of the packed row at `row`, read as AsInt / AsDouble would
  /// read it from Unpack(row)[i] — without building the tuple.
  int64_t ReadInt(const uint8_t* row, size_t i) const;
  double ReadDouble(const uint8_t* row, size_t i) const;
  /// Writes field i of the packed row at `row`, narrowing exactly as Pack
  /// does for an int64 / double Value.
  void WriteInt(uint8_t* row, size_t i, int64_t value) const;
  void WriteDouble(uint8_t* row, size_t i, double value) const;

  bool SameLayout(const Schema& other) const;

 private:
  std::vector<Field> fields_;
  std::vector<size_t> offsets_;
  size_t tuple_size_ = 0;
};

/// Zero-copy, typed read access to one packed row: a schema plus the row's
/// bytes, typically on a pinned buffer-pool page. Reading a field decodes
/// only that field, so a statement can test its predicate on the packed
/// bytes and unpack just the rows it keeps.
///
/// A view does not own its bytes. One handed out by Relation::Cursor::row()
/// is valid only until the cursor's Next() (or its move or destruction);
/// builds without NDEBUG (CMAKE_BUILD_TYPE=Debug) assert on a read through
/// a view the cursor has stepped past.
class RowView {
 public:
  RowView(const Schema& schema, std::span<const uint8_t> bytes)
      : schema_(&schema), bytes_(bytes) {
    assert(bytes.size() == schema.tuple_size());
  }

  const Schema& schema() const { return *schema_; }
  std::span<const uint8_t> bytes() const {
    CheckLive();
    return bytes_;
  }
  int64_t Int(size_t field) const {
    CheckLive();
    return schema_->ReadInt(bytes_.data(), field);
  }
  double Double(size_t field) const {
    CheckLive();
    return schema_->ReadDouble(bytes_.data(), field);
  }
  /// The whole row as a Tuple (for rows a statement keeps).
  Tuple Unpack() const {
    CheckLive();
    return schema_->Unpack(bytes_.data());
  }

#ifndef NDEBUG
  /// Ties the view to a cursor position: reads assert that `*step` still
  /// equals its value now. Relation::Cursor calls this; debug builds only.
  void BindToCursor(const uint64_t* step) {
    cursor_step_ = step;
    bound_at_ = *step;
  }
#endif

 private:
  void CheckLive() const {
#ifndef NDEBUG
    assert((cursor_step_ == nullptr || *cursor_step_ == bound_at_) &&
           "RowView used after its cursor moved past the row");
#endif
  }

  const Schema* schema_;
  std::span<const uint8_t> bytes_;
#ifndef NDEBUG
  const uint64_t* cursor_step_ = nullptr;
  uint64_t bound_at_ = 0;
#endif
};

/// Zero-copy, typed write access to one packed row in place (see RowView).
/// Writes narrow as Schema::Pack does.
class RowWriter {
 public:
  RowWriter(const Schema& schema, std::span<uint8_t> bytes)
      : schema_(&schema), bytes_(bytes) {
    assert(bytes.size() == schema.tuple_size());
  }

  const Schema& schema() const { return *schema_; }
  RowView view() const { return RowView(*schema_, bytes_); }
  int64_t Int(size_t field) const {
    return schema_->ReadInt(bytes_.data(), field);
  }
  double Double(size_t field) const {
    return schema_->ReadDouble(bytes_.data(), field);
  }
  void SetInt(size_t field, int64_t value) {
    schema_->WriteInt(bytes_.data(), field, value);
  }
  void SetDouble(size_t field, double value) {
    schema_->WriteDouble(bytes_.data(), field, value);
  }

 private:
  const Schema* schema_;
  std::span<uint8_t> bytes_;
};

/// Concatenation of two schemas, used for join results. Field names are
/// prefixed ("left.x", "right.y") to stay unambiguous.
Schema JoinSchema(const Schema& left, const Schema& right,
                  std::string_view left_prefix, std::string_view right_prefix);

}  // namespace atis::relational
