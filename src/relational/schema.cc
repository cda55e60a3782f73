#include "relational/schema.h"

#include <cassert>
#include <cstring>

#include "storage/page.h"

namespace atis::relational {

size_t FieldWidth(FieldType type) {
  switch (type) {
    case FieldType::kInt8:
      return 1;
    case FieldType::kInt16:
      return 2;
    case FieldType::kInt32:
      return 4;
    case FieldType::kInt64:
      return 8;
    case FieldType::kFloat:
      return 4;
    case FieldType::kDouble:
      return 8;
  }
  return 0;
}

bool IsIntegerType(FieldType type) {
  switch (type) {
    case FieldType::kInt8:
    case FieldType::kInt16:
    case FieldType::kInt32:
    case FieldType::kInt64:
      return true;
    case FieldType::kFloat:
    case FieldType::kDouble:
      return false;
  }
  return false;
}

std::string_view FieldTypeName(FieldType type) {
  switch (type) {
    case FieldType::kInt8:
      return "int8";
    case FieldType::kInt16:
      return "int16";
    case FieldType::kInt32:
      return "int32";
    case FieldType::kInt64:
      return "int64";
    case FieldType::kFloat:
      return "float";
    case FieldType::kDouble:
      return "double";
  }
  return "?";
}

int64_t AsInt(const Value& v) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) return *i;
  return static_cast<int64_t>(std::get<double>(v));
}

double AsDouble(const Value& v) {
  if (const double* d = std::get_if<double>(&v)) return *d;
  return static_cast<double>(std::get<int64_t>(v));
}

Schema::Schema(std::vector<Field> fields, size_t tuple_size_override)
    : fields_(std::move(fields)) {
  offsets_.reserve(fields_.size());
  size_t off = 0;
  for (const Field& f : fields_) {
    offsets_.push_back(off);
    off += FieldWidth(f.type);
  }
  tuple_size_ = off;
  if (tuple_size_override != 0) {
    assert(tuple_size_override >= off &&
           "tuple size override smaller than packed fields");
    tuple_size_ = tuple_size_override;
  }
}

int Schema::FieldIndex(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

size_t Schema::blocking_factor() const {
  return tuple_size_ == 0 ? 0 : storage::kPageSize / tuple_size_;
}

namespace {

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

}  // namespace

int64_t Schema::ReadInt(const uint8_t* row, size_t i) const {
  const uint8_t* at = row + offsets_[i];
  switch (fields_[i].type) {
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

double Schema::ReadDouble(const uint8_t* row, size_t i) const {
  const uint8_t* at = row + offsets_[i];
  switch (fields_[i].type) {
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

void Schema::WriteInt(uint8_t* row, size_t i, int64_t value) const {
  uint8_t* at = row + offsets_[i];
  switch (fields_[i].type) {
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

void Schema::WriteDouble(uint8_t* row, size_t i, double value) const {
  uint8_t* at = row + offsets_[i];
  switch (fields_[i].type) {
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

Status Schema::Pack(const Tuple& tuple, uint8_t* dest) const {
  if (tuple.size() != fields_.size()) {
    return Status::InvalidArgument("tuple arity does not match schema");
  }
  std::memset(dest, 0, tuple_size_);
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (IsIntegerType(fields_[i].type)) {
      WriteInt(dest, i, AsInt(tuple[i]));
    } else {
      WriteDouble(dest, i, AsDouble(tuple[i]));
    }
  }
  return Status::OK();
}

Tuple Schema::Unpack(const uint8_t* src) const {
  Tuple tuple;
  tuple.reserve(fields_.size());
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (IsIntegerType(fields_[i].type)) {
      tuple.emplace_back(ReadInt(src, i));
    } else {
      tuple.emplace_back(ReadDouble(src, i));
    }
  }
  return tuple;
}

bool Schema::SameLayout(const Schema& other) const {
  if (tuple_size_ != other.tuple_size_ ||
      fields_.size() != other.fields_.size()) {
    return false;
  }
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].type != other.fields_[i].type) return false;
  }
  return true;
}

Schema JoinSchema(const Schema& left, const Schema& right,
                  std::string_view left_prefix,
                  std::string_view right_prefix) {
  std::vector<Field> fields;
  fields.reserve(left.num_fields() + right.num_fields());
  for (size_t i = 0; i < left.num_fields(); ++i) {
    fields.push_back({std::string(left_prefix) + "." + left.field(i).name,
                      left.field(i).type});
  }
  for (size_t i = 0; i < right.num_fields(); ++i) {
    fields.push_back({std::string(right_prefix) + "." + right.field(i).name,
                      right.field(i).type});
  }
  return Schema(std::move(fields));
}

}  // namespace atis::relational
