#include "relational/join.h"

#include "obs/trace.h"
#include "relational/external_sort.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

namespace atis::relational {

using storage::CostParams;

std::string_view JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kNestedLoop:
      return "nested-loop";
    case JoinStrategy::kHash:
      return "hash";
    case JoinStrategy::kSortMerge:
      return "sort-merge";
    case JoinStrategy::kPrimaryKey:
      return "primary-key";
    case JoinStrategy::kAuto:
      return "auto";
  }
  return "?";
}

namespace {

/// Block I/Os of an external merge sort of `blocks` blocks: one read+write
/// pass to form runs plus one read+write pass per merge level.
double SortIo(size_t blocks, const CostParams& p) {
  if (blocks <= 1) return 0.0;
  const double passes =
      1.0 + std::ceil(std::log2(static_cast<double>(blocks)));
  return passes * static_cast<double>(blocks) * (p.t_read + p.t_write);
}

}  // namespace

double EstimateJoinCost(JoinStrategy strategy, const JoinStats& s,
                        const CostParams& p) {
  const double b1 = static_cast<double>(s.left_blocks);
  const double b2 = static_cast<double>(s.right_blocks);
  const double b3 = static_cast<double>(s.result_blocks);
  switch (strategy) {
    case JoinStrategy::kNestedLoop:
      // Paper Section 4.3: F = B1*t_read + (B1*B2)*t_read + B3*t_write.
      return b1 * p.t_read + b1 * b2 * p.t_read + b3 * p.t_write;
    case JoinStrategy::kHash:
      // In-memory build of the smaller side + one probe pass.
      return (b1 + b2) * p.t_read + b3 * p.t_write;
    case JoinStrategy::kSortMerge:
      return SortIo(s.left_blocks, p) + SortIo(s.right_blocks, p) +
             (b1 + b2) * p.t_read + b3 * p.t_write;
    case JoinStrategy::kPrimaryKey: {
      if (!s.right_has_index) return std::numeric_limits<double>::infinity();
      // One index descent plus one data-block fetch per outer tuple.
      const double probes = static_cast<double>(s.left_tuples) *
                            static_cast<double>(s.right_index_levels + 1);
      return b1 * p.t_read + probes * p.t_read + b3 * p.t_write;
    }
    case JoinStrategy::kAuto:
      break;
  }
  return std::numeric_limits<double>::infinity();
}

JoinCostEstimate ChooseJoinStrategy(const JoinStats& stats,
                                    const CostParams& params) {
  JoinCostEstimate best{JoinStrategy::kNestedLoop,
                        std::numeric_limits<double>::infinity()};
  for (JoinStrategy s :
       {JoinStrategy::kNestedLoop, JoinStrategy::kHash,
        JoinStrategy::kSortMerge, JoinStrategy::kPrimaryKey}) {
    const double cost = EstimateJoinCost(s, stats, params);
    if (cost < best.cost) best = {s, cost};
  }
  return best;
}

JoinStats ComputeJoinStats(const Relation& left, const Relation& right,
                           const JoinSpec& spec, double join_selectivity) {
  JoinStats s;
  s.left_blocks = left.num_blocks();
  s.right_blocks = right.num_blocks();
  s.left_tuples = left.num_tuples();

  const int rf = right.schema().FieldIndex(spec.right_field);
  s.right_has_index =
      (rf >= 0) && ((right.hash_index() && right.hash_field() == rf) ||
                    (right.isam_index() && right.isam_field() == rf));
  if (s.right_has_index) {
    s.right_index_levels =
        (right.isam_index() && right.isam_field() == rf)
            ? right.isam_index()->num_levels()
            : 1;
  }

  double result_tuples;
  if (join_selectivity > 0.0) {
    result_tuples = join_selectivity *
                    static_cast<double>(left.num_tuples()) *
                    static_cast<double>(right.num_tuples());
  } else {
    result_tuples = static_cast<double>(left.num_tuples());
  }
  const Schema out =
      JoinSchema(left.schema(), right.schema(), left.name(), right.name());
  const size_t bf = std::max<size_t>(1, out.blocking_factor());
  s.result_blocks = static_cast<size_t>(
      std::ceil(result_tuples / static_cast<double>(bf)));
  return s;
}

namespace {

Result<std::unique_ptr<Relation>> MakeResultRelation(
    const Relation& left, const Relation& right, std::string name) {
  Schema out =
      JoinSchema(left.schema(), right.schema(), left.name(), right.name());
  return std::make_unique<Relation>(std::move(name), std::move(out),
                                    left.pool(), /*charge_create=*/true);
}

/// Assembles a result row of `out` (a JoinSchema relation) from the two
/// sides' packed bytes and APPENDs it.
class RowBuilder {
 public:
  RowBuilder(const Relation& left, Relation* out)
      : left_width_(left.schema().packed_size()),
        right_width_(out->schema().tuple_size() - left_width_),
        row_(out->schema().tuple_size()),
        out_(out) {}

  size_t left_width() const { return left_width_; }
  size_t right_width() const { return right_width_; }

  void SetLeft(const uint8_t* left_row) {
    std::memcpy(row_.data(), left_row, left_width_);
  }
  Result<storage::RecordId> AppendWith(const uint8_t* right_row) {
    std::memcpy(row_.data() + left_width_, right_row, right_width_);
    return out_->InsertPacked(row_);
  }

 private:
  size_t left_width_;
  size_t right_width_;
  std::vector<uint8_t> row_;
  Relation* out_;
};

/// Appends the packed fields of `row` (its first `width` bytes) to `buf`.
void Keep(const RowView& row, size_t width, std::vector<uint8_t>* buf) {
  const uint8_t* bytes = row.bytes().data();
  buf->insert(buf->end(), bytes, bytes + width);
}

/// Block nested loop, as Section 4.3's F charges it: the inner relation is
/// scanned once per outer block, not once per outer tuple. Each outer
/// block's tuples are sorted by join key; the inner scan binary-searches
/// them and collects every outer tuple's matches, which are then emitted
/// in left-major order (outer scan order, inner scan order within each
/// outer tuple), the order of the tuple-at-a-time loop. The result's last
/// block stays pinned across the inner scans — F's one output buffer — so
/// each result block is written once.
Result<std::unique_ptr<Relation>> NestedLoopJoin(const Relation& left,
                                                 const Relation& right,
                                                 int lf, int rf,
                                                 std::string name) {
  ATIS_ASSIGN_OR_RETURN(auto out, MakeResultRelation(left, right, name));
  RowBuilder builder(left, out.get());
  const size_t lw = builder.left_width();
  const size_t rw = builder.right_width();
  std::vector<uint8_t> block;  // the outer block's rows, lw bytes each
  // (join key, row in block), sorted: the block's probe table.
  std::vector<std::pair<int64_t, size_t>> block_by_key;
  std::vector<uint8_t> inner;  // matched inner rows, rw bytes each
  std::vector<std::vector<size_t>> matches;  // per outer row: inner offsets
  storage::PageGuard out_block;
  Relation::Cursor lc = left.Scan();
  while (lc.Valid()) {
    block.clear();
    block_by_key.clear();
    size_t rows = 0;
    for (const storage::PageId page = lc.rid().page;
         lc.Valid() && lc.rid().page == page; lc.Next()) {
      const RowView lrow = lc.row();
      block_by_key.emplace_back(lrow.Int(static_cast<size_t>(lf)), rows++);
      Keep(lrow, lw, &block);
    }
    std::sort(block_by_key.begin(), block_by_key.end());
    const int64_t lo_key = block_by_key.front().first;
    const int64_t hi_key = block_by_key.back().first;
    if (matches.size() < rows) matches.resize(rows);
    for (size_t i = 0; i < rows; ++i) matches[i].clear();
    inner.clear();
    Relation::Cursor rc = right.Scan();
    for (; rc.Valid(); rc.Next()) {
      const RowView rt = rc.row();
      const int64_t key = rt.Int(static_cast<size_t>(rf));
      if (key < lo_key || key > hi_key) continue;
      auto it = std::lower_bound(
          block_by_key.begin(), block_by_key.end(), key,
          [](const auto& entry, int64_t k) { return entry.first < k; });
      if (it == block_by_key.end() || it->first != key) continue;
      for (; it != block_by_key.end() && it->first == key; ++it) {
        matches[it->second].push_back(inner.size());
      }
      Keep(rt, rw, &inner);
    }
    ATIS_RETURN_NOT_OK(rc.status());
    storage::RecordId last;
    for (size_t i = 0; i < rows; ++i) {
      builder.SetLeft(block.data() + i * lw);
      for (const size_t at : matches[i]) {
        ATIS_ASSIGN_OR_RETURN(last, builder.AppendWith(inner.data() + at));
      }
    }
    if (last.valid()) {
      ATIS_ASSIGN_OR_RETURN(out_block, out->pool()->FetchPage(last.page));
    }
  }
  ATIS_RETURN_NOT_OK(lc.status());
  return out;
}

Result<std::unique_ptr<Relation>> HashJoinImpl(const Relation& left,
                                               const Relation& right,
                                               int lf, int rf,
                                               std::string name) {
  ATIS_ASSIGN_OR_RETURN(auto out, MakeResultRelation(left, right, name));
  RowBuilder builder(left, out.get());
  const size_t rw = builder.right_width();
  // Build on the inner (right) relation, probe with the outer. The table
  // maps each key to its rows' offsets in `inner`.
  std::vector<uint8_t> inner;
  inner.reserve(right.num_tuples() * rw);
  std::unordered_multimap<int64_t, size_t> table;
  table.reserve(right.num_tuples());
  for (Relation::Cursor rc = right.Scan(); rc.Valid(); rc.Next()) {
    const RowView rt = rc.row();
    table.emplace(rt.Int(static_cast<size_t>(rf)), inner.size());
    Keep(rt, rw, &inner);
  }
  for (Relation::Cursor lc = left.Scan(); lc.Valid(); lc.Next()) {
    const RowView lrow = lc.row();
    auto [lo, hi] = table.equal_range(lrow.Int(static_cast<size_t>(lf)));
    if (lo == hi) continue;
    builder.SetLeft(lrow.bytes().data());
    for (auto it = lo; it != hi; ++it) {
      ATIS_RETURN_NOT_OK(
          builder.AppendWith(inner.data() + it->second).status());
    }
  }
  return out;
}

Result<std::unique_ptr<Relation>> SortMergeJoinImpl(
    const Relation& left, const Relation& right, int lf, int rf,
    std::string name) {
  ATIS_ASSIGN_OR_RETURN(auto out, MakeResultRelation(left, right, name));
  RowBuilder builder(left, out.get());
  const size_t rw = builder.right_width();
  // Real external sorts: every run-formation and merge pass is metered
  // block I/O (see relational/external_sort.h).
  ATIS_ASSIGN_OR_RETURN(
      auto sorted_left,
      ExternalSort(left, left.schema().field(static_cast<size_t>(lf)).name,
                   name + ".sortL"));
  ATIS_ASSIGN_OR_RETURN(
      auto sorted_right,
      ExternalSort(right,
                   right.schema().field(static_cast<size_t>(rf)).name,
                   name + ".sortR"));

  {
    // Scoped so the cursors' page pins are released before the sorted
    // temporaries are dropped below.
    Relation::Cursor lc = sorted_left->Scan();
    Relation::Cursor rc = sorted_right->Scan();
    auto lkey = [&] { return lc.row().Int(static_cast<size_t>(lf)); };
    auto rkey = [&] { return rc.row().Int(static_cast<size_t>(rf)); };
    std::vector<uint8_t> group;  // the right-side rows of one key
    while (lc.Valid() && rc.Valid()) {
      if (lkey() < rkey()) {
        lc.Next();
      } else if (lkey() > rkey()) {
        rc.Next();
      } else {
        // Buffer the right-side group for this key, then cross it with
        // every matching left tuple.
        const int64_t key = lkey();
        group.clear();
        while (rc.Valid() && rkey() == key) {
          Keep(rc.row(), rw, &group);
          rc.Next();
        }
        while (lc.Valid() && lkey() == key) {
          builder.SetLeft(lc.row().bytes().data());
          for (size_t at = 0; at < group.size(); at += rw) {
            ATIS_RETURN_NOT_OK(
                builder.AppendWith(group.data() + at).status());
          }
          lc.Next();
        }
      }
    }
  }
  ATIS_RETURN_NOT_OK(sorted_left->Clear(/*charge=*/true));
  ATIS_RETURN_NOT_OK(sorted_right->Clear(/*charge=*/true));
  return out;
}

/// RETRIEVE via index: appends the packed fields (`width` bytes each) of
/// the rows of `rel` whose field `field` equals `key` to `out`, all read
/// before the caller writes any result row. Returns the row count.
Result<size_t> IndexMatches(const Relation& rel, int field, int64_t key,
                            size_t width, std::vector<uint8_t>* out) {
  obs::ScopedSpan span("select-index", "operator");
  span.Tag("relation", rel.name());
  ATIS_ASSIGN_OR_RETURN(const auto rids, rel.IndexLookup(field, key));
  for (const storage::RecordId rid : rids) {
    ATIS_RETURN_NOT_OK(
        rel.Read(rid, [&](const RowView& row) { Keep(row, width, out); }));
  }
  span.Tag("matched", static_cast<uint64_t>(rids.size()));
  return rids.size();
}

Result<std::unique_ptr<Relation>> PrimaryKeyJoinImpl(const Relation& left,
                                                     const Relation& right,
                                                     int lf, int rf,
                                                     std::string name) {
  ATIS_ASSIGN_OR_RETURN(auto out, MakeResultRelation(left, right, name));
  RowBuilder builder(left, out.get());
  const size_t rw = builder.right_width();
  std::vector<uint8_t> matches;
  for (Relation::Cursor lc = left.Scan(); lc.Valid(); lc.Next()) {
    const RowView lrow = lc.row();
    matches.clear();
    ATIS_ASSIGN_OR_RETURN(
        const size_t found,
        IndexMatches(right, rf, lrow.Int(static_cast<size_t>(lf)), rw,
                     &matches));
    if (found == 0) continue;
    builder.SetLeft(lrow.bytes().data());
    for (size_t at = 0; at < matches.size(); at += rw) {
      ATIS_RETURN_NOT_OK(builder.AppendWith(matches.data() + at).status());
    }
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<Relation>> Join(const Relation& left,
                                       const Relation& right,
                                       const JoinSpec& spec,
                                       JoinStrategy strategy,
                                       const CostParams& params,
                                       std::string result_name) {
  const int lf = left.schema().FieldIndex(spec.left_field);
  const int rf = right.schema().FieldIndex(spec.right_field);
  if (lf < 0 || rf < 0) {
    return Status::InvalidArgument("join field not found");
  }
  if (strategy == JoinStrategy::kAuto) {
    const JoinStats stats = ComputeJoinStats(left, right, spec);
    strategy = ChooseJoinStrategy(stats, params).strategy;
  }
  obs::ScopedSpan span("join", "operator");
  span.Tag("strategy", JoinStrategyName(strategy));
  span.Tag("left", left.name());
  span.Tag("right", right.name());
  span.Tag("left_tuples", static_cast<uint64_t>(left.num_tuples()));
  span.Tag("right_tuples", static_cast<uint64_t>(right.num_tuples()));
  auto result = [&]() -> Result<std::unique_ptr<Relation>> {
    switch (strategy) {
      case JoinStrategy::kNestedLoop:
        return NestedLoopJoin(left, right, lf, rf, std::move(result_name));
      case JoinStrategy::kHash:
        return HashJoinImpl(left, right, lf, rf, std::move(result_name));
      case JoinStrategy::kSortMerge:
        return SortMergeJoinImpl(left, right, lf, rf,
                                 std::move(result_name));
      case JoinStrategy::kPrimaryKey:
        return PrimaryKeyJoinImpl(left, right, lf, rf,
                                  std::move(result_name));
      case JoinStrategy::kAuto:
        break;
    }
    return Status::Internal("unreachable join strategy");
  }();
  if (result.ok()) {
    span.Tag("result_tuples", static_cast<uint64_t>((*result)->num_tuples()));
  }
  return result;
}

}  // namespace atis::relational
