// A relation: named schema + heap file + optional primary indexes.
//
// The paper's storage layout is two relations: the edge relation S with a
// random-hash primary index on begin_node, and the node relation R with an
// ISAM primary index on node_id. This class supports both shapes, keeps any
// indexes consistent with tuple mutations, and charges the paper's fixed
// relation-create/delete costs to the I/O meter.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "index/hash_index.h"
#include "index/isam_index.h"
#include "relational/schema.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "util/function_ref.h"
#include "util/status.h"

namespace atis::relational {

class Relation {
 public:
  /// Creates an empty relation. Charges the create-relation cost I when
  /// `charge_create` is set (temporary relations in the paper's model).
  Relation(std::string name, Schema schema, storage::BufferPool* pool,
           bool charge_create = false);

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  storage::BufferPool* pool() const { return pool_; }

  /// Attaches a static hash index on an integer field. Existing tuples are
  /// indexed immediately.
  Status CreateHashIndex(std::string_view field, size_t num_buckets);

  /// Bulk-builds an ISAM index on an integer field from current contents.
  Status BuildIsamIndex(std::string_view field, double fill_fraction = 1.0);

  /// Appends one packed row of schema().tuple_size() bytes (InvalidArgument
  /// otherwise) and files it in the indexes under its stored key fields.
  Result<storage::RecordId> InsertPacked(std::span<const uint8_t> row);
  Status Delete(storage::RecordId rid);

  /// Calls `visit(const RowView&)` with a zero-copy view of the row at
  /// `rid`, valid only during the call: one page fetch, nothing decoded.
  template <typename Visit>
  Status Read(storage::RecordId rid, Visit&& visit) const {
    bool sized = true;
    ATIS_RETURN_NOT_OK(file_.Read(rid, [&](std::span<const uint8_t> bytes) {
      sized = bytes.size() == schema_.tuple_size();
      if (sized) visit(RowView(schema_, bytes));
    }));
    if (!sized) return SizeMismatch();
    return Status::OK();
  }

  /// Calls `visit(const RowView&)` with the row at each of `rids`, in
  /// order. Consecutive rows on one page share a page fetch; otherwise the
  /// pages fetched, and their order, are those of a Read per row.
  Status ReadAll(std::span<const storage::RecordId> rids,
                 FunctionRef<void(const RowView&)> visit) const;

  /// Changes fields of one stored row in place on its page.
  using RowEdit = FunctionRef<void(RowWriter&)>;
  /// Applies `edit` to the row at each of `rids`, in order, directly on its
  /// pinned page (marked dirty). Consecutive rows on one page share a page
  /// fetch; otherwise the pages fetched and dirtied, and their order, are
  /// those of reading each row and then rewriting it. When an edit changes
  /// an indexed key field, the page is released and the index updated
  /// before the next row.
  Status EditAll(std::span<const storage::RecordId> rids, RowEdit edit);
  Status Edit(storage::RecordId rid, RowEdit edit) {
    return EditAll({&rid, 1}, edit);
  }
  /// Reads the row at `rid` and, when `decide` returns true, applies
  /// `edit` to it in place — a Read followed by an Edit of the same row,
  /// on one page fetch. The page is marked dirty only when it is edited.
  Status ReadThenEdit(storage::RecordId rid,
                      FunctionRef<bool(const RowView&)> decide,
                      RowEdit edit);

  /// Deletes all tuples, releasing pages. Charges D_t when `charge` is set.
  Status Clear(bool charge = true);

  /// All record ids whose indexed field equals `key`, via whichever index
  /// covers field number `field` (resolve a name once with
  /// schema().FieldIndex). FailedPrecondition if no index on that field.
  Result<std::vector<storage::RecordId>> IndexLookup(int field,
                                                     int64_t key) const;

  size_t num_tuples() const { return file_.num_records(); }
  /// Block count of the heap file (the paper's B_r / B_s).
  size_t num_blocks() const { return file_.num_pages(); }

  const index::StaticHashIndex* hash_index() const {
    return hash_index_.get();
  }
  const index::IsamIndex* isam_index() const { return isam_index_.get(); }
  int hash_field() const { return hash_field_; }
  int isam_field() const { return isam_field_; }

  /// Forward scan of live tuples, read in place on each pinned page.
  class Cursor {
   public:
    Cursor(const Relation* rel) : rel_(rel), it_(rel->file_.Begin()) {}
    bool Valid() const { return it_.Valid(); }
    storage::RecordId rid() const { return it_.rid(); }
    /// The current row, undecoded. Valid only until Next() (or the
    /// cursor's move or destruction); debug builds assert on later reads.
    RowView row() const {
      RowView view(rel_->schema_, it_.record());
#ifndef NDEBUG
      view.BindToCursor(&step_);
#endif
      return view;
    }
    void Next() {
      it_.Next();
      ++step_;
    }
    /// OK unless the scan ended on a storage error instead of end-of-file.
    const Status& status() const { return it_.status(); }

   private:
    const Relation* rel_;
    storage::HeapFile::Iterator it_;
    uint64_t step_ = 0;  ///< Next() count; stamps views in debug builds
  };

  Cursor Scan() const { return Cursor(this); }

 private:
  Status ValidateIndexedField(std::string_view field, int* out_index) const;
  Status SizeMismatch() const;
  /// Applies `edit` to the row at `rid` through `editor` and keeps the
  /// indexes in step with any key field it changes.
  Status EditRow(storage::HeapFile::Editor& editor, storage::RecordId rid,
                 RowEdit edit);

  std::string name_;
  Schema schema_;
  storage::BufferPool* pool_;
  storage::HeapFile file_;
  std::unique_ptr<index::StaticHashIndex> hash_index_;
  std::unique_ptr<index::IsamIndex> isam_index_;
  int hash_field_ = -1;
  int isam_field_ = -1;
};

}  // namespace atis::relational
