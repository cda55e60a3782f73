// Static multi-level ISAM index, the paper's primary index on R.node_id.
//
// The tree is bulk-built from sorted (key, RecordId) pairs and its inner
// structure never changes; later inserts that do not fit in their leaf go to
// per-leaf overflow chains (classic ISAM). A point lookup reads one block
// per level (the paper's I_l) plus any overflow pages, and binary-searches
// the sorted leaf for its key.
//
// A run of equal keys that the bulk build splits across leaves is routed
// to the leaf it starts in: a leaf's separator is its first key above the
// previous leaf's last key, and a leaf holding only a run's tail has none.
// Lookups walk on into the next leaf while the run can continue there.
//
// Leaf page:   [0..4) next leaf | [4..8) overflow page | [8..10) count
//              [10..12) 1 if the build split this leaf's last run into the
//              next leaf
//              entries from byte 16, 16 B each {key i64, page u32, slot u16}
// Inner page:  [8..10) count; entries from byte 16, 16 B each
//              {separator key i64, child page u32} — child covers keys >= its
//              separator and < the next separator.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "util/function_ref.h"
#include "util/status.h"

namespace atis::index {

class IsamIndex {
 public:
  struct Entry {
    int64_t key;
    storage::RecordId rid;
  };

  explicit IsamIndex(storage::BufferPool* pool) : pool_(pool) {}

  IsamIndex(const IsamIndex&) = delete;
  IsamIndex& operator=(const IsamIndex&) = delete;

  /// Bulk-builds the static levels. `entries` must be sorted by key
  /// (duplicates allowed). May be called once per index.
  /// `fill_fraction` in (0,1] leaves slack in each leaf for later inserts.
  Status Build(std::vector<Entry> entries, double fill_fraction = 1.0);

  /// Finds the first entry with exactly `key`, reading the same pages as
  /// LookupAll but without collecting the rest. NotFound if absent.
  Result<storage::RecordId> Lookup(int64_t key) const;

  /// Finds all entries with exactly `key`.
  Result<std::vector<storage::RecordId>> LookupAll(int64_t key) const;

  /// Inserts post-build; overflow chains absorb pages that are full.
  Status Insert(int64_t key, storage::RecordId rid);

  /// Removes one entry matching (key, rid).
  Status Erase(int64_t key, storage::RecordId rid);

  /// Number of block reads on the root-to-leaf path (the paper's I_l).
  size_t num_levels() const { return num_levels_; }
  size_t num_entries() const { return num_entries_; }
  bool built() const { return root_ != storage::kInvalidPageId; }

  /// In-order scan of [lo, hi] inclusive (overflow entries included, after
  /// their leaf's sorted entries).
  Result<std::vector<Entry>> Scan(int64_t lo, int64_t hi) const;

 private:
  static constexpr size_t kOffNextLeaf = 0;
  static constexpr size_t kOffOverflow = 4;
  static constexpr size_t kOffCount = 8;
  static constexpr size_t kEntriesStart = 16;
  static constexpr size_t kEntrySize = 16;
  static constexpr size_t kEntriesPerPage =
      (storage::kPageSize - kEntriesStart) / kEntrySize;

  Result<storage::PageId> FindLeaf(int64_t key) const;
  /// Calls `visit` with each entry of `key`, in LookupAll's order.
  Status VisitMatches(int64_t key,
                      FunctionRef<void(storage::RecordId)> visit) const;

  storage::BufferPool* pool_;
  storage::PageId root_ = storage::kInvalidPageId;
  storage::PageId first_leaf_ = storage::kInvalidPageId;
  size_t num_levels_ = 0;
  size_t num_entries_ = 0;
};

}  // namespace atis::index
