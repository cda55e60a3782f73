#include "core/sssp.h"

#include <algorithm>

#include "graph/shortest_path.h"

namespace atis::core {

using graph::Graph;
using graph::NodeId;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

std::vector<NodeId> ShortestPathTree::PathTo(NodeId v) const {
  std::vector<NodeId> path;
  if (!Reaches(v)) return path;
  for (NodeId at = v; at != graph::kInvalidNode;
       at = pred_[static_cast<size_t>(at)]) {
    path.push_back(at);
    if (at == source_) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Result<ShortestPathTree> SingleSourceDijkstra(const Graph& g,
                                              NodeId source) {
  if (!g.HasNode(source)) {
    return Status::InvalidArgument("unknown source node");
  }
  graph::ShortestPathSearch search(g.num_nodes());
  search.Seed(source, 0.0);
  search.Run([&g](NodeId u, const auto& relax) {
    for (const graph::Edge& e : g.Neighbors(u)) relax(e.to, e.cost);
  });
  return ShortestPathTree(source, search.TakeDistances(),
                          search.TakeParents());
}

Result<double> GraphDiameter(const Graph& g) {
  double diameter = 0.0;
  for (NodeId s = 0; s < static_cast<NodeId>(g.num_nodes()); ++s) {
    ATIS_ASSIGN_OR_RETURN(ShortestPathTree tree, SingleSourceDijkstra(g, s));
    for (const double d : tree.distances()) {
      if (d != kInf) diameter = std::max(diameter, d);
    }
  }
  return diameter;
}

}  // namespace atis::core
