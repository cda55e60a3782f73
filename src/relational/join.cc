#include "relational/join.h"

#include "obs/trace.h"
#include "relational/external_sort.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

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

Tuple Concat(const Tuple& a, const Tuple& b) {
  Tuple t;
  t.reserve(a.size() + b.size());
  t.insert(t.end(), a.begin(), a.end());
  t.insert(t.end(), b.begin(), b.end());
  return t;
}

/// Block nested loop, as Section 4.3's F charges it: the inner relation is
/// scanned once per outer block, not once per outer tuple. Each outer
/// block's tuples are hashed by join key; the inner scan collects every
/// outer tuple's matches, which are then emitted in left-major order
/// (outer scan order, inner scan order within each outer tuple), the
/// order of the tuple-at-a-time loop. The result's last block stays
/// pinned across the inner scans — F's one output buffer — so each result
/// block is written once.
Result<std::unique_ptr<Relation>> NestedLoopJoin(const Relation& left,
                                                 const Relation& right,
                                                 int lf, int rf,
                                                 std::string name) {
  ATIS_ASSIGN_OR_RETURN(auto out, MakeResultRelation(left, right, name));
  std::vector<Tuple> block;
  std::unordered_map<int64_t, std::vector<size_t>> block_by_key;
  std::vector<std::vector<Tuple>> matches;
  storage::PageGuard out_block;
  Relation::Cursor lc = left.Scan();
  while (lc.Valid()) {
    block.clear();
    block_by_key.clear();
    for (const storage::PageId page = lc.rid().page;
         lc.Valid() && lc.rid().page == page; lc.Next()) {
      Tuple lt = lc.row().Unpack();
      block_by_key[AsInt(lt[static_cast<size_t>(lf)])].push_back(
          block.size());
      block.push_back(std::move(lt));
    }
    matches.assign(block.size(), {});
    Relation::Cursor rc = right.Scan();
    for (; rc.Valid(); rc.Next()) {
      const RowView rt = rc.row();
      const auto it = block_by_key.find(rt.Int(static_cast<size_t>(rf)));
      if (it == block_by_key.end()) continue;
      const Tuple inner = rt.Unpack();
      for (const size_t i : it->second) matches[i].push_back(inner);
    }
    ATIS_RETURN_NOT_OK(rc.status());
    storage::RecordId last;
    for (size_t i = 0; i < block.size(); ++i) {
      for (const Tuple& inner : matches[i]) {
        ATIS_ASSIGN_OR_RETURN(last, out->Insert(Concat(block[i], inner)));
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
  // Build on the inner (right) relation, probe with the outer.
  std::unordered_multimap<int64_t, Tuple> table;
  table.reserve(right.num_tuples());
  for (Relation::Cursor rc = right.Scan(); rc.Valid(); rc.Next()) {
    const RowView rt = rc.row();
    table.emplace(rt.Int(static_cast<size_t>(rf)), rt.Unpack());
  }
  for (Relation::Cursor lc = left.Scan(); lc.Valid(); lc.Next()) {
    const RowView lrow = lc.row();
    auto [lo, hi] = table.equal_range(lrow.Int(static_cast<size_t>(lf)));
    if (lo == hi) continue;
    const Tuple lt = lrow.Unpack();
    for (auto it = lo; it != hi; ++it) {
      ATIS_RETURN_NOT_OK(out->Insert(Concat(lt, it->second)).status());
    }
  }
  return out;
}

Result<std::unique_ptr<Relation>> SortMergeJoinImpl(
    const Relation& left, const Relation& right, int lf, int rf,
    std::string name, const CostParams& params) {
  (void)params;
  ATIS_ASSIGN_OR_RETURN(auto out, MakeResultRelation(left, right, name));
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
  while (lc.Valid() && rc.Valid()) {
    if (lkey() < rkey()) {
      lc.Next();
    } else if (lkey() > rkey()) {
      rc.Next();
    } else {
      // Buffer the right-side group for this key, then cross it with
      // every matching left tuple.
      const int64_t key = lkey();
      std::vector<Tuple> group;
      while (rc.Valid() && rkey() == key) {
        group.push_back(rc.row().Unpack());
        rc.Next();
      }
      while (lc.Valid() && lkey() == key) {
        const Tuple lt = lc.row().Unpack();
        for (const Tuple& rt : group) {
          ATIS_RETURN_NOT_OK(out->Insert(Concat(lt, rt)).status());
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

/// RETRIEVE via index: the tuples of `rel` whose `field` equals `key`,
/// all read before the caller writes any result row.
Result<std::vector<Tuple>> IndexMatches(const Relation& rel,
                                        std::string_view field, int64_t key) {
  obs::ScopedSpan span("select-index", "operator");
  span.Tag("relation", rel.name());
  ATIS_ASSIGN_OR_RETURN(const auto rids, rel.IndexLookup(field, key));
  std::vector<Tuple> out;
  out.reserve(rids.size());
  for (const storage::RecordId rid : rids) {
    ATIS_RETURN_NOT_OK(rel.Read(
        rid, [&](const RowView& row) { out.push_back(row.Unpack()); }));
  }
  span.Tag("matched", static_cast<uint64_t>(out.size()));
  return out;
}

Result<std::unique_ptr<Relation>> PrimaryKeyJoinImpl(const Relation& left,
                                                     const Relation& right,
                                                     int lf,
                                                     std::string_view rfield,
                                                     std::string name) {
  ATIS_ASSIGN_OR_RETURN(auto out, MakeResultRelation(left, right, name));
  for (Relation::Cursor lc = left.Scan(); lc.Valid(); lc.Next()) {
    const RowView lrow = lc.row();
    ATIS_ASSIGN_OR_RETURN(
        const auto matches,
        IndexMatches(right, rfield, lrow.Int(static_cast<size_t>(lf))));
    if (matches.empty()) continue;
    const Tuple lt = lrow.Unpack();
    for (const Tuple& rt : matches) {
      ATIS_RETURN_NOT_OK(out->Insert(Concat(lt, rt)).status());
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
  span.Tag("strategy", std::string(JoinStrategyName(strategy)));
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
                                 std::move(result_name), params);
      case JoinStrategy::kPrimaryKey:
        return PrimaryKeyJoinImpl(left, right, lf, spec.right_field,
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
