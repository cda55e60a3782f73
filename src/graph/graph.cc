#include "graph/graph.h"

#include <cmath>
#include <string>

namespace atis::graph {

NodeId Graph::AddNode(double x, double y) {
  points_.push_back({x, y});
  adjacency_.emplace_back();
  return static_cast<NodeId>(points_.size() - 1);
}

Status Graph::AddEdge(NodeId u, NodeId v, double cost) {
  if (!HasNode(u) || !HasNode(v)) {
    return Status::InvalidArgument("edge references unknown node");
  }
  if (cost < 0.0) {
    return Status::InvalidArgument("negative edge cost");
  }
  adjacency_[static_cast<size_t>(u)].push_back({v, cost});
  ++num_edges_;
  return Status::OK();
}

Status Graph::AddUndirectedEdge(NodeId u, NodeId v, double cost) {
  ATIS_RETURN_NOT_OK(AddEdge(u, v, cost));
  return AddEdge(v, u, cost);
}

Result<double> Graph::EdgeCost(NodeId u, NodeId v) const {
  if (!HasNode(u) || !HasNode(v)) {
    return Status::InvalidArgument("unknown node");
  }
  for (const Edge& e : adjacency_[static_cast<size_t>(u)]) {
    if (e.to == v) return e.cost;
  }
  return Status::NotFound("no edge " + std::to_string(u) + " -> " +
                          std::to_string(v));
}

double Graph::EuclideanDistance(NodeId u, NodeId v) const {
  const Point& a = point(u);
  const Point& b = point(v);
  return std::hypot(a.x - b.x, a.y - b.y);
}

double Graph::ManhattanDistance(NodeId u, NodeId v) const {
  const Point& a = point(u);
  const Point& b = point(v);
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

Status Graph::SetEdgeCost(NodeId u, NodeId v, double cost) {
  if (!HasNode(u) || !HasNode(v)) {
    return Status::InvalidArgument("unknown node");
  }
  if (cost < 0.0) {
    return Status::InvalidArgument("negative edge cost");
  }
  for (Edge& e : adjacency_[static_cast<size_t>(u)]) {
    if (e.to == v) {
      e.cost = cost;
      return Status::OK();
    }
  }
  return Status::NotFound("no edge to update");
}

Graph ReverseOf(const Graph& g) {
  Graph rev;
  for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
    const Point& p = g.point(u);
    rev.AddNode(p.x, p.y);
  }
  for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
    for (const Edge& e : g.Neighbors(u)) {
      // Costs are non-negative by Graph's invariant; AddEdge cannot fail.
      (void)rev.AddEdge(e.to, u, e.cost);
    }
  }
  return rev;
}

}  // namespace atis::graph
