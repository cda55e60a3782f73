#include "core/batch_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/spatial_layout.h"

namespace atis::core {

Result<const std::vector<graph::RelationalGraphStore::EdgeRow>*>
BatchContext::FetchAdjacency(const graph::RelationalGraphStore& store,
                             graph::NodeId u) {
  auto it = adjacency_.find(u);
  if (it != adjacency_.end()) {
    ++stats_.shared_adjacency_hits;
    return &it->second;
  }
  ATIS_ASSIGN_OR_RETURN(auto edges, store.FetchAdjacency(u));
  ++stats_.adjacency_fetches;
  return &adjacency_.emplace(u, std::move(edges)).first->second;
}

RegionIndex::RegionIndex(const graph::Graph& g, uint32_t order)
    : order_(order) {
  if (g.num_nodes() == 0 || order_ == 0) return;
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    const graph::Point& p = g.point(static_cast<graph::NodeId>(u));
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const double span_x = max_x - min_x;
  const double span_y = max_y - min_y;
  if (span_x <= 0.0 && span_y <= 0.0) return;  // no spatial signal
  const double cells = static_cast<double>(uint64_t{1} << order_);
  const double scale_x = span_x > 0.0 ? cells / span_x : 0.0;
  const double scale_y = span_y > 0.0 ? cells / span_y : 0.0;
  const uint32_t last = (uint32_t{1} << order_) - 1;
  auto cell = [last](double v, double lo, double scale) -> uint32_t {
    const double c = (v - lo) * scale;
    if (c <= 0.0) return 0;
    return std::min(last, static_cast<uint32_t>(c));
  };
  regions_.reserve(g.num_nodes());
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    const graph::Point& p = g.point(static_cast<graph::NodeId>(u));
    regions_.push_back(graph::HilbertIndex(order_, cell(p.x, min_x, scale_x),
                                           cell(p.y, min_y, scale_y)));
  }
}

std::vector<size_t> PlanCoalescing(const std::vector<CoalesceKey>& keys) {
  std::vector<size_t> leader(keys.size());
  // Batches are small (tens of members); a quadratic scan beats hashing a
  // four-field key and keeps first-occurrence order trivially right.
  for (size_t i = 0; i < keys.size(); ++i) {
    leader[i] = i;
    for (size_t j = 0; j < i; ++j) {
      if (keys[j] == keys[i]) {
        leader[i] = leader[j];
        break;
      }
    }
  }
  return leader;
}

}  // namespace atis::core
