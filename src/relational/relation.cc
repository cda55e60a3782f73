#include "relational/relation.h"

#include <algorithm>
#include <string>
#include <vector>

namespace atis::relational {

using storage::RecordId;

Relation::Relation(std::string name, Schema schema,
                   storage::BufferPool* pool, bool charge_create)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      pool_(pool),
      file_(pool) {
  if (charge_create) {
    pool_->disk()->meter().RecordRelationCreate();
  }
}

Status Relation::ValidateIndexedField(std::string_view field,
                                      int* out_index) const {
  const int idx = schema_.FieldIndex(field);
  if (idx < 0) {
    return Status::InvalidArgument("no field named '" + std::string(field) +
                                   "' in relation " + name_);
  }
  if (!IsIntegerType(schema_.field(static_cast<size_t>(idx)).type)) {
    return Status::InvalidArgument("index key field must be integer-typed");
  }
  *out_index = idx;
  return Status::OK();
}

Status Relation::CreateHashIndex(std::string_view field, size_t num_buckets) {
  if (hash_index_) return Status::FailedPrecondition("hash index exists");
  int idx = -1;
  ATIS_RETURN_NOT_OK(ValidateIndexedField(field, &idx));
  hash_index_ = std::make_unique<index::StaticHashIndex>(pool_, num_buckets);
  hash_field_ = idx;
  for (Cursor c = Scan(); c.Valid(); c.Next()) {
    ATIS_RETURN_NOT_OK(hash_index_->Insert(c.row().Int(idx), c.rid()));
  }
  return Status::OK();
}

Status Relation::BuildIsamIndex(std::string_view field,
                                double fill_fraction) {
  if (isam_index_) return Status::FailedPrecondition("ISAM index exists");
  int idx = -1;
  ATIS_RETURN_NOT_OK(ValidateIndexedField(field, &idx));
  std::vector<index::IsamIndex::Entry> entries;
  entries.reserve(num_tuples());
  for (Cursor c = Scan(); c.Valid(); c.Next()) {
    entries.push_back({c.row().Int(idx), c.rid()});
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  auto isam = std::make_unique<index::IsamIndex>(pool_);
  ATIS_RETURN_NOT_OK(isam->Build(std::move(entries), fill_fraction));
  isam_index_ = std::move(isam);
  isam_field_ = idx;
  return Status::OK();
}

Result<RecordId> Relation::InsertPacked(std::span<const uint8_t> row) {
  if (row.size() != schema_.tuple_size()) {
    return Status::InvalidArgument(
        "row of " + std::to_string(row.size()) + " bytes for relation " +
        name_ + " of " + std::to_string(schema_.tuple_size()) +
        "-byte tuples");
  }
  ATIS_ASSIGN_OR_RETURN(RecordId rid, file_.Insert(row));
  if (hash_index_) {
    ATIS_RETURN_NOT_OK(hash_index_->Insert(
        schema_.ReadInt(row.data(), static_cast<size_t>(hash_field_)), rid));
  }
  if (isam_index_) {
    ATIS_RETURN_NOT_OK(isam_index_->Insert(
        schema_.ReadInt(row.data(), static_cast<size_t>(isam_field_)), rid));
  }
  return rid;
}

Status Relation::SizeMismatch() const {
  return Status::Corruption("tuple size mismatch in relation " + name_);
}

Status Relation::ReadAll(std::span<const RecordId> rids,
                         FunctionRef<void(const RowView&)> visit) const {
  storage::HeapFile::Editor reader(&file_);
  for (const RecordId rid : rids) {
    ATIS_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes, reader.Read(rid));
    if (bytes.size() != schema_.tuple_size()) return SizeMismatch();
    visit(RowView(schema_, bytes));
  }
  return Status::OK();
}

Status Relation::EditAll(std::span<const RecordId> rids, RowEdit edit) {
  storage::HeapFile::Editor editor(&file_);
  for (const RecordId rid : rids) {
    ATIS_RETURN_NOT_OK(EditRow(editor, rid, edit));
  }
  return Status::OK();
}

Status Relation::ReadThenEdit(RecordId rid,
                              FunctionRef<bool(const RowView&)> decide,
                              RowEdit edit) {
  storage::HeapFile::Editor editor(&file_);
  ATIS_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes, editor.Read(rid));
  if (bytes.size() != schema_.tuple_size()) return SizeMismatch();
  if (!decide(RowView(schema_, bytes))) return Status::OK();
  return EditRow(editor, rid, edit);
}

Status Relation::EditRow(storage::HeapFile::Editor& editor, RecordId rid,
                         RowEdit edit) {
  ATIS_ASSIGN_OR_RETURN(std::span<uint8_t> bytes, editor.Edit(rid));
  if (bytes.size() != schema_.tuple_size()) return SizeMismatch();
  RowWriter row(schema_, bytes);
  const int64_t old_hash = hash_index_ ? row.Int(hash_field_) : 0;
  const int64_t old_isam = isam_index_ ? row.Int(isam_field_) : 0;
  edit(row);
  const int64_t new_hash = hash_index_ ? row.Int(hash_field_) : 0;
  const int64_t new_isam = isam_index_ ? row.Int(isam_field_) : 0;
  if (new_hash == old_hash && new_isam == old_isam) return Status::OK();
  // A key moved: the index pages are fetched next, and the row's page is
  // fetched afresh for the next row, as a row-at-a-time rewrite does.
  editor.Release();
  if (new_hash != old_hash) {
    ATIS_RETURN_NOT_OK(hash_index_->Erase(old_hash, rid));
    ATIS_RETURN_NOT_OK(hash_index_->Insert(new_hash, rid));
  }
  if (new_isam != old_isam) {
    ATIS_RETURN_NOT_OK(isam_index_->Erase(old_isam, rid));
    ATIS_RETURN_NOT_OK(isam_index_->Insert(new_isam, rid));
  }
  return Status::OK();
}

Status Relation::Delete(RecordId rid) {
  int64_t hash_key = 0;
  int64_t isam_key = 0;
  if (hash_index_ || isam_index_) {
    ATIS_RETURN_NOT_OK(Read(rid, [&](const RowView& row) {
      if (hash_index_) hash_key = row.Int(hash_field_);
      if (isam_index_) isam_key = row.Int(isam_field_);
    }));
  }
  ATIS_RETURN_NOT_OK(file_.Delete(rid));
  if (hash_index_) {
    ATIS_RETURN_NOT_OK(hash_index_->Erase(hash_key, rid));
  }
  if (isam_index_) {
    ATIS_RETURN_NOT_OK(isam_index_->Erase(isam_key, rid));
  }
  return Status::OK();
}

Status Relation::Clear(bool charge) {
  ATIS_RETURN_NOT_OK(file_.Clear());
  // Indexes are rebuilt from scratch if needed after a clear.
  hash_index_.reset();
  isam_index_.reset();
  hash_field_ = -1;
  isam_field_ = -1;
  if (charge) {
    pool_->disk()->meter().RecordRelationDelete();
  }
  return Status::OK();
}

Result<std::vector<RecordId>> Relation::IndexLookup(int field,
                                                    int64_t key) const {
  if (field >= 0 && field == hash_field_ && hash_index_) {
    return hash_index_->Lookup(key);
  }
  if (field >= 0 && field == isam_field_ && isam_index_) {
    return isam_index_->LookupAll(key);
  }
  const std::string what =
      field >= 0 && static_cast<size_t>(field) < schema_.num_fields()
          ? "'" + schema_.field(static_cast<size_t>(field)).name + "'"
          : std::to_string(field);
  return Status::FailedPrecondition("no index on field " + what +
                                    " of relation " + name_);
}

}  // namespace atis::relational
