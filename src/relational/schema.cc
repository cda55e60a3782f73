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

Schema::Schema(std::vector<Field> fields, size_t tuple_size_override)
    : fields_(std::move(fields)) {
  slots_.reserve(fields_.size());
  size_t off = 0;
  for (const Field& f : fields_) {
    slots_.push_back({static_cast<uint32_t>(off), f.type});
    off += FieldWidth(f.type);
  }
  packed_size_ = off;
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
