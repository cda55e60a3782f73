#include "relational/statistics.h"

#include <algorithm>
#include <unordered_set>

namespace atis::relational {

Result<FieldStats> AnalyzeField(const Relation& rel,
                                std::string_view field) {
  const int idx = rel.schema().FieldIndex(field);
  if (idx < 0) {
    return Status::InvalidArgument("no field '" + std::string(field) +
                                   "' in relation " + rel.name());
  }
  if (!IsIntegerType(rel.schema().field(static_cast<size_t>(idx)).type)) {
    return Status::InvalidArgument("ANALYZE supports integer fields only");
  }
  FieldStats stats;
  std::unordered_set<int64_t> distinct;
  for (Relation::Cursor c = rel.Scan(); c.Valid(); c.Next()) {
    const int64_t v = c.row().Int(static_cast<size_t>(idx));
    if (stats.num_tuples == 0) {
      stats.min_value = stats.max_value = v;
    } else {
      stats.min_value = std::min(stats.min_value, v);
      stats.max_value = std::max(stats.max_value, v);
    }
    ++stats.num_tuples;
    distinct.insert(v);
  }
  stats.num_distinct = distinct.size();
  return stats;
}

double EstimateJoinSelectivity(const FieldStats& left,
                               const FieldStats& right) {
  if (left.num_tuples == 0 || right.num_tuples == 0) return 0.0;
  const size_t d = std::max(left.num_distinct, right.num_distinct);
  return d == 0 ? 0.0 : 1.0 / static_cast<double>(d);
}

Result<JoinStats> ComputeJoinStatsAnalyzed(const Relation& left,
                                           const Relation& right,
                                           const JoinSpec& spec) {
  ATIS_ASSIGN_OR_RETURN(const FieldStats ls,
                        AnalyzeField(left, spec.left_field));
  ATIS_ASSIGN_OR_RETURN(const FieldStats rs,
                        AnalyzeField(right, spec.right_field));
  return ComputeJoinStats(left, right, spec,
                          EstimateJoinSelectivity(ls, rs));
}

}  // namespace atis::relational
