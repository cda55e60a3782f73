#include "core/advanced_search.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "graph/shortest_path.h"

namespace atis::core {

using graph::Graph;
using graph::NodeId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Estimator adaptor multiplying a base estimate by a constant weight.
class ScaledEstimator final : public Estimator {
 public:
  ScaledEstimator(const Estimator& base, double weight)
      : base_(base), weight_(weight) {}
  double Estimate(const graph::Point& a,
                  const graph::Point& b) const override {
    return weight_ * base_.Estimate(a, b);
  }
  double EstimateNodes(graph::NodeId from, const graph::Point& from_pt,
                       graph::NodeId to,
                       const graph::Point& to_pt) const override {
    return weight_ * base_.EstimateNodes(from, from_pt, to, to_pt);
  }
  EstimatorKind kind() const override { return base_.kind(); }

 private:
  const Estimator& base_;
  double weight_;
};

}  // namespace

PathResult WeightedAStarSearch(const Graph& g, NodeId source,
                               NodeId destination,
                               const Estimator& estimator, double weight,
                               const MemorySearchOptions& options) {
  const ScaledEstimator scaled(estimator, std::max(weight, 0.0));
  PathResult result =
      AStarSearch(g, source, destination, scaled, options);
  result.optimality_guaranteed =
      weight <= 1.0 && options.estimator_known_admissible;
  return result;
}

PathResult BidirectionalDijkstra(const Graph& g, const Graph& reverse,
                                 NodeId source, NodeId destination) {
  PathResult result;
  if (!g.HasNode(source) || !g.HasNode(destination) ||
      reverse.num_nodes() != g.num_nodes()) {
    return result;
  }
  if (source == destination) {
    result.found = true;
    result.cost = 0.0;
    result.path = {source};
    return result;
  }

  const size_t n = g.num_nodes();
  graph::ShortestPathSearch fwd(n);
  graph::ShortestPathSearch bwd(n);
  fwd.Seed(source, 0.0);
  bwd.Seed(destination, 0.0);

  double best = kInf;
  NodeId meet = graph::kInvalidNode;

  while (true) {
    const double top_f = fwd.FrontierMin();
    const double top_b = bwd.FrontierMin();
    if (top_f + top_b >= best) break;  // no shorter meeting possible
    if (top_f == kInf && top_b == kInf) break;

    const bool expand_forward = top_f <= top_b;
    graph::ShortestPathSearch& side = expand_forward ? fwd : bwd;
    const graph::ShortestPathSearch& other = expand_forward ? bwd : fwd;
    const Graph& edges = expand_forward ? g : reverse;
    side.Step([&](NodeId u, const auto& relax) {
      ++result.stats.iterations;
      ++result.stats.nodes_expanded;
      for (const graph::Edge& e : edges.Neighbors(u)) {
        ++result.stats.nodes_generated;
        if (relax(e.to, e.cost)) ++result.stats.nodes_improved;
        // Meeting-point bookkeeping uses the relaxed label plus the other
        // side's best-known label.
        const double through = side.dist(e.to) + other.dist(e.to);
        if (through < best) {
          best = through;
          meet = e.to;
        }
      }
    });
  }

  if (meet == graph::kInvalidNode) return result;  // disconnected

  result.found = true;
  result.cost = best;
  // Forward half: source..meet, then the backward half meet..destination
  // (the backward tree's parents are g-successors).
  result.path = fwd.PathTo(meet);
  for (NodeId at = bwd.parent(meet); at != graph::kInvalidNode;
       at = bwd.parent(at)) {
    result.path.push_back(at);
  }
  return result;
}

PathResult BidirectionalDijkstra(const Graph& g, NodeId source,
                                 NodeId destination) {
  return BidirectionalDijkstra(g, graph::ReverseOf(g), source, destination);
}

}  // namespace atis::core
