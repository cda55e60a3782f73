// Schemas and typed access to fixed-width packed rows.
//
// All relations in this system have fixed-size tuples of numeric fields
// (node ids, coordinates, costs, status flags). Field widths are explicit so
// the paper's tuple sizes — T_s = 32 bytes for the edge relation S and
// T_r = 16 bytes for the node relation R (Table 4A) — and hence its blocking
// factors Bf_s = 128 and Bf_r = 256 are reproduced exactly.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

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
  size_t FieldOffset(size_t i) const { return slots_[i].offset; }
  /// Serialized tuple size in bytes (including any override padding).
  size_t tuple_size() const { return tuple_size_; }
  /// Tuples per 4096-byte block (the paper's blocking factor Bf).
  size_t blocking_factor() const;

  /// Bytes of the fields alone: the tuple size without override padding.
  size_t packed_size() const { return packed_size_; }

  /// Field i of the packed row at `row`, widened to int64 (a float field
  /// truncates toward zero) or to double.
  int64_t ReadInt(const uint8_t* row, size_t i) const;
  double ReadDouble(const uint8_t* row, size_t i) const;
  /// Writes field i of the packed row at `row`. Integer fields narrow with
  /// wrap-around (callers validate ranges), float fields round, and a
  /// double written to an integer field truncates toward zero.
  void WriteInt(uint8_t* row, size_t i, int64_t value) const;
  void WriteDouble(uint8_t* row, size_t i, double value) const;

  bool SameLayout(const Schema& other) const;

 private:
  /// Where each field sits in a packed row, and its type: what a field
  /// read needs, kept apart from the names so it spans one cache line.
  struct Slot {
    uint32_t offset;
    FieldType type;
  };

  std::vector<Field> fields_;
  std::vector<Slot> slots_;
  size_t packed_size_ = 0;
  size_t tuple_size_ = 0;
};

namespace schema_detail {

template <typename T>
void StoreAs(uint8_t* dest, T value) {
  std::memcpy(dest, &value, sizeof(T));
}

template <typename T>
T LoadAs(const uint8_t* src) {
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}

}  // namespace schema_detail

// Field access is on every row a statement touches, so it is inline.
inline int64_t Schema::ReadInt(const uint8_t* row, size_t i) const {
  using schema_detail::LoadAs;
  const uint8_t* at = row + slots_[i].offset;
  switch (slots_[i].type) {
    case FieldType::kInt8:
      return LoadAs<int8_t>(at);
    case FieldType::kInt16:
      return LoadAs<int16_t>(at);
    case FieldType::kInt32:
      return LoadAs<int32_t>(at);
    case FieldType::kInt64:
      return LoadAs<int64_t>(at);
    case FieldType::kFloat:
      return static_cast<int64_t>(static_cast<double>(LoadAs<float>(at)));
    case FieldType::kDouble:
      return static_cast<int64_t>(LoadAs<double>(at));
  }
  return 0;
}

inline double Schema::ReadDouble(const uint8_t* row, size_t i) const {
  using schema_detail::LoadAs;
  const uint8_t* at = row + slots_[i].offset;
  switch (slots_[i].type) {
    case FieldType::kFloat:
      return static_cast<double>(LoadAs<float>(at));
    case FieldType::kDouble:
      return LoadAs<double>(at);
    case FieldType::kInt8:
    case FieldType::kInt16:
    case FieldType::kInt32:
    case FieldType::kInt64:
      return static_cast<double>(ReadInt(row, i));
  }
  return 0.0;
}

inline void Schema::WriteInt(uint8_t* row, size_t i, int64_t value) const {
  using schema_detail::StoreAs;
  uint8_t* at = row + slots_[i].offset;
  switch (slots_[i].type) {
    case FieldType::kInt8:
      StoreAs<int8_t>(at, static_cast<int8_t>(value));
      break;
    case FieldType::kInt16:
      StoreAs<int16_t>(at, static_cast<int16_t>(value));
      break;
    case FieldType::kInt32:
      StoreAs<int32_t>(at, static_cast<int32_t>(value));
      break;
    case FieldType::kInt64:
      StoreAs<int64_t>(at, value);
      break;
    case FieldType::kFloat:
    case FieldType::kDouble:
      WriteDouble(row, i, static_cast<double>(value));
      break;
  }
}

inline void Schema::WriteDouble(uint8_t* row, size_t i, double value) const {
  using schema_detail::StoreAs;
  uint8_t* at = row + slots_[i].offset;
  switch (slots_[i].type) {
    case FieldType::kFloat:
      StoreAs<float>(at, static_cast<float>(value));
      break;
    case FieldType::kDouble:
      StoreAs<double>(at, value);
      break;
    case FieldType::kInt8:
    case FieldType::kInt16:
    case FieldType::kInt32:
    case FieldType::kInt64:
      WriteInt(row, i, static_cast<int64_t>(value));
      break;
  }
}

/// Zero-copy, typed read access to one packed row: a schema plus the row's
/// bytes, typically on a pinned buffer-pool page. Reading a field decodes
/// only that field, so a statement tests its predicate on the packed bytes
/// and copies out just the rows it keeps.
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
/// Writes narrow as Schema::WriteInt / WriteDouble do.
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
/// prefixed ("left.x", "right.y") to stay unambiguous. It adds no padding,
/// so a join row is the left row's first packed_size() bytes followed by
/// the right row's.
Schema JoinSchema(const Schema& left, const Schema& right,
                  std::string_view left_prefix, std::string_view right_prefix);

}  // namespace atis::relational
