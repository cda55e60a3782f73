#include "index/isam_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace atis::index {

using storage::kInvalidPageId;
using storage::Page;
using storage::PageGuard;
using storage::PageId;
using storage::RecordId;

namespace {

int64_t EntryKey(const Page& p, size_t i) {
  return p.ReadAt<int64_t>(16 + 16 * i);
}

RecordId EntryRid(const Page& p, size_t i) {
  const size_t base = 16 + 16 * i;
  return RecordId{p.ReadAt<uint32_t>(base + 8), p.ReadAt<uint16_t>(base + 12)};
}

void WriteLeafEntry(Page* p, size_t i, int64_t key, RecordId rid) {
  const size_t base = 16 + 16 * i;
  p->WriteAt<int64_t>(base, key);
  p->WriteAt<uint32_t>(base + 8, rid.page);
  p->WriteAt<uint16_t>(base + 12, rid.slot);
  p->WriteAt<uint16_t>(base + 14, 0);
}

PageId InnerChild(const Page& p, size_t i) {
  return p.ReadAt<uint32_t>(16 + 16 * i + 8);
}

void WriteInnerEntry(Page* p, size_t i, int64_t key, PageId child) {
  const size_t base = 16 + 16 * i;
  p->WriteAt<int64_t>(base, key);
  p->WriteAt<uint32_t>(base + 8, child);
  p->WriteAt<uint32_t>(base + 12, 0);
}

constexpr size_t kOffRunContinues = 10;

uint16_t Count(const Page& p) { return p.ReadAt<uint16_t>(8); }
void SetCount(Page* p, uint16_t c) { p->WriteAt<uint16_t>(8, c); }

/// The entries of a sorted leaf whose key equals `key`, as the half-open
/// range [first, end): a binary search for the first, then a walk.
std::pair<size_t, size_t> RunOf(const Page& leaf, int64_t key) {
  const size_t count = Count(leaf);
#ifndef NDEBUG
  for (size_t j = 1; j < count; ++j) {
    assert(EntryKey(leaf, j - 1) <= EntryKey(leaf, j));
  }
#endif
  size_t lo = 0;
  size_t hi = count;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (EntryKey(leaf, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  size_t end = lo;
  while (end < count && EntryKey(leaf, end) == key) ++end;
  return {lo, end};
}

/// Whether entries of `key` may follow in the next leaf, given the leaf's
/// run [first, end) of them: no larger key ends this leaf, and either the
/// run reaches its end or the leaf was built with its last run spilling
/// into the next one (that run routes here, see Build).
bool RunContinues(const Page& leaf, size_t first, size_t end) {
  return end == Count(leaf) &&
         (end > first || leaf.ReadAt<uint16_t>(kOffRunContinues) != 0);
}

}  // namespace

Status IsamIndex::Build(std::vector<Entry> entries, double fill_fraction) {
  if (built()) return Status::FailedPrecondition("ISAM index already built");
  if (fill_fraction <= 0.0 || fill_fraction > 1.0) {
    return Status::InvalidArgument("fill_fraction must be in (0, 1]");
  }
  if (!std::is_sorted(entries.begin(), entries.end(),
                      [](const Entry& a, const Entry& b) {
                        return a.key < b.key;
                      })) {
    return Status::InvalidArgument("ISAM bulk-build requires sorted input");
  }

  const size_t per_leaf = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(kEntriesPerPage) *
                             fill_fraction));

  // Level 0: leaves. Track (separator key, page) pairs for the level above.
  struct ChildRef {
    int64_t first_key;
    PageId page;
  };
  std::vector<ChildRef> level;
  PageId prev_leaf = kInvalidPageId;
  size_t i = 0;
  do {
    ATIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage());
    Page& p = guard.MutablePage();
    p.WriteAt<uint32_t>(kOffNextLeaf, kInvalidPageId);
    p.WriteAt<uint32_t>(kOffOverflow, kInvalidPageId);
    const size_t take = std::min(per_leaf, entries.size() - i);
    for (size_t j = 0; j < take; ++j) {
      WriteLeafEntry(&p, j, entries[i + j].key, entries[i + j].rid);
    }
    p.WriteAt<uint16_t>(kOffRunContinues, 0);
    SetCount(&p, static_cast<uint16_t>(take));
    // Entries that continue the previous leaf's last run of equal keys.
    size_t carried = 0;
    while (i > 0 && carried < take &&
           entries[i + carried].key == entries[i - 1].key) {
      ++carried;
    }
    if (prev_leaf != kInvalidPageId) {
      ATIS_ASSIGN_OR_RETURN(PageGuard prev, pool_->FetchPage(prev_leaf));
      Page& pp = prev.MutablePage();
      pp.WriteAt<uint32_t>(kOffNextLeaf, guard.id());
      if (carried > 0) pp.WriteAt<uint16_t>(kOffRunContinues, 1);
    } else {
      first_leaf_ = guard.id();
    }
    prev_leaf = guard.id();
    // A run routes to the leaf it starts in, so a leaf's separator is its
    // first key of its own; a leaf holding only a run's tail gets none.
    if (i == 0) {
      level.push_back({take > 0 ? entries[0].key : INT64_MIN, guard.id()});
    } else if (carried < take) {
      level.push_back({entries[i + carried].key, guard.id()});
    }
    i += take;
  } while (i < entries.size());

  num_levels_ = 1;
  // Build inner levels until a single root remains.
  while (level.size() > 1) {
    std::vector<ChildRef> next;
    for (size_t j = 0; j < level.size(); j += kEntriesPerPage) {
      ATIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage());
      Page& p = guard.MutablePage();
      const size_t take = std::min(kEntriesPerPage, level.size() - j);
      for (size_t k = 0; k < take; ++k) {
        WriteInnerEntry(&p, k, level[j + k].first_key, level[j + k].page);
      }
      SetCount(&p, static_cast<uint16_t>(take));
      next.push_back({level[j].first_key, guard.id()});
    }
    level = std::move(next);
    ++num_levels_;
  }
  root_ = level.front().page;
  num_entries_ = entries.size();
  return Status::OK();
}

Result<PageId> IsamIndex::FindLeaf(int64_t key) const {
  if (!built()) return Status::FailedPrecondition("ISAM index not built");
  PageId id = root_;
  for (size_t level = 1; level < num_levels_; ++level) {
    ATIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(id));
    const Page& p = guard.page();
    const uint16_t count = Count(p);
    // Last child whose separator key is <= key; first child if key is
    // smaller than every separator.
    size_t pick = 0;
    for (size_t j = 1; j < count; ++j) {
      if (EntryKey(p, j) <= key) {
        pick = j;
      } else {
        break;
      }
    }
    id = InnerChild(p, pick);
  }
  return id;
}

Result<RecordId> IsamIndex::Lookup(int64_t key) const {
  RecordId first;
  ATIS_RETURN_NOT_OK(VisitMatches(key, [&](RecordId rid) {
    if (!first.valid()) first = rid;
  }));
  if (!first.valid()) return Status::NotFound("key not in ISAM index");
  return first;
}

Result<std::vector<RecordId>> IsamIndex::LookupAll(int64_t key) const {
  std::vector<RecordId> out;
  ATIS_RETURN_NOT_OK(
      VisitMatches(key, [&](RecordId rid) { out.push_back(rid); }));
  return out;
}

Status IsamIndex::VisitMatches(int64_t key,
                               FunctionRef<void(RecordId)> visit) const {
  ATIS_ASSIGN_OR_RETURN(PageId id, FindLeaf(key));
  while (id != kInvalidPageId) {
    ATIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(id));
    const Page& p = guard.page();
    const auto [first, end] = RunOf(p, key);
    for (size_t j = first; j < end; ++j) visit(EntryRid(p, j));
    // Overflow pages are unsorted: always scan the chain of this leaf.
    PageId ov = p.ReadAt<uint32_t>(kOffOverflow);
    while (ov != kInvalidPageId) {
      ATIS_ASSIGN_OR_RETURN(PageGuard og, pool_->FetchPage(ov));
      const Page& op = og.page();
      const uint16_t oc = Count(op);
      for (size_t j = 0; j < oc; ++j) {
        if (EntryKey(op, j) == key) visit(EntryRid(op, j));
      }
      ov = op.ReadAt<uint32_t>(kOffNextLeaf);
    }
    if (!RunContinues(p, first, end)) break;
    id = p.ReadAt<uint32_t>(kOffNextLeaf);
  }
  return Status::OK();
}

Status IsamIndex::Insert(int64_t key, RecordId rid) {
  ATIS_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(key));
  ATIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(leaf));
  Page& p = guard.MutablePage();
  const uint16_t count = Count(p);
  if (count < kEntriesPerPage) {
    // Insert in sorted position (shift right).
    size_t pos = count;
    for (size_t j = 0; j < count; ++j) {
      if (EntryKey(p, j) > key) {
        pos = j;
        break;
      }
    }
    for (size_t j = count; j > pos; --j) {
      WriteLeafEntry(&p, j, EntryKey(p, j - 1), EntryRid(p, j - 1));
    }
    WriteLeafEntry(&p, pos, key, rid);
    SetCount(&p, static_cast<uint16_t>(count + 1));
    ++num_entries_;
    return Status::OK();
  }
  // Leaf full: append to its overflow chain.
  PageId ov = p.ReadAt<uint32_t>(kOffOverflow);
  PageId prev = leaf;
  bool prev_is_leaf = true;
  while (ov != kInvalidPageId) {
    ATIS_ASSIGN_OR_RETURN(PageGuard og, pool_->FetchPage(ov));
    const uint16_t oc = Count(og.page());
    if (oc < kEntriesPerPage) {
      Page& op = og.MutablePage();
      WriteLeafEntry(&op, oc, key, rid);
      SetCount(&op, static_cast<uint16_t>(oc + 1));
      ++num_entries_;
      return Status::OK();
    }
    prev = ov;
    prev_is_leaf = false;
    ov = og.page().ReadAt<uint32_t>(kOffNextLeaf);
  }
  ATIS_ASSIGN_OR_RETURN(PageGuard fresh, pool_->NewPage());
  Page& fp = fresh.MutablePage();
  fp.WriteAt<uint32_t>(kOffNextLeaf, kInvalidPageId);
  fp.WriteAt<uint32_t>(kOffOverflow, kInvalidPageId);
  WriteLeafEntry(&fp, 0, key, rid);
  SetCount(&fp, 1);
  ATIS_ASSIGN_OR_RETURN(PageGuard pg, pool_->FetchPage(prev));
  pg.MutablePage().WriteAt<uint32_t>(
      prev_is_leaf ? kOffOverflow : kOffNextLeaf, fresh.id());
  ++num_entries_;
  return Status::OK();
}

Status IsamIndex::Erase(int64_t key, RecordId rid) {
  ATIS_ASSIGN_OR_RETURN(PageId id, FindLeaf(key));
  // The leaves, and in each its overflow chain, that LookupAll reads.
  while (id != kInvalidPageId) {
    ATIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(id));
    Page& p = guard.MutablePage();
    const uint16_t count = Count(p);
    const auto [first, end] = RunOf(p, key);
    for (size_t j = first; j < end; ++j) {
      if (EntryRid(p, j) == rid) {
        for (size_t k = j; k + 1 < count; ++k) {
          WriteLeafEntry(&p, k, EntryKey(p, k + 1), EntryRid(p, k + 1));
        }
        SetCount(&p, static_cast<uint16_t>(count - 1));
        --num_entries_;
        return Status::OK();
      }
    }
    PageId ov = p.ReadAt<uint32_t>(kOffOverflow);
    while (ov != kInvalidPageId) {
      ATIS_ASSIGN_OR_RETURN(PageGuard og, pool_->FetchPage(ov));
      Page& op = og.MutablePage();
      const uint16_t oc = Count(op);
      for (size_t j = 0; j < oc; ++j) {
        if (EntryKey(op, j) == key && EntryRid(op, j) == rid) {
          if (j + 1 < oc) {
            WriteLeafEntry(&op, j, EntryKey(op, oc - 1),
                           EntryRid(op, oc - 1));
          }
          SetCount(&op, static_cast<uint16_t>(oc - 1));
          --num_entries_;
          return Status::OK();
        }
      }
      ov = op.ReadAt<uint32_t>(kOffNextLeaf);
    }
    if (!RunContinues(p, first, end)) break;
    id = p.ReadAt<uint32_t>(kOffNextLeaf);
  }
  return Status::NotFound("ISAM entry not found");
}

Result<std::vector<IsamIndex::Entry>> IsamIndex::Scan(int64_t lo,
                                                      int64_t hi) const {
  if (!built()) return Status::FailedPrecondition("ISAM index not built");
  ATIS_ASSIGN_OR_RETURN(PageId id, FindLeaf(lo));
  std::vector<Entry> out;
  while (id != kInvalidPageId) {
    ATIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(id));
    const Page& p = guard.page();
    const uint16_t count = Count(p);
    bool past_hi = false;
    for (size_t j = 0; j < count; ++j) {
      const int64_t k = EntryKey(p, j);
      if (k > hi) {
        past_hi = true;
        break;
      }
      if (k >= lo) out.push_back({k, EntryRid(p, j)});
    }
    PageId ov = p.ReadAt<uint32_t>(kOffOverflow);
    while (ov != kInvalidPageId) {
      ATIS_ASSIGN_OR_RETURN(PageGuard og, pool_->FetchPage(ov));
      const Page& op = og.page();
      const uint16_t oc = Count(op);
      for (size_t j = 0; j < oc; ++j) {
        const int64_t k = EntryKey(op, j);
        if (k >= lo && k <= hi) out.push_back({k, EntryRid(op, j)});
      }
      ov = op.ReadAt<uint32_t>(kOffNextLeaf);
    }
    if (past_hi) break;
    id = p.ReadAt<uint32_t>(kOffNextLeaf);
  }
  return out;
}

}  // namespace atis::index
