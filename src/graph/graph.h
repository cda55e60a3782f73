// In-memory directed graph with node coordinates and real-valued edge costs.
//
// This is the "main memory" representation of a road map: G = (N, E, C)
// per Section 2 of the paper. Nodes carry planar coordinates because the
// A* estimator functions (Euclidean / Manhattan) are geometric. Undirected
// road segments are stored as two directed edges, matching the paper's
// relational representation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace atis::graph {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

struct Point {
  double x = 0.0;
  double y = 0.0;
};

struct Edge {
  NodeId to = kInvalidNode;
  double cost = 0.0;
};

class Graph {
 public:
  Graph() = default;

  /// Adds a node at (x, y); ids are dense and assigned in call order.
  NodeId AddNode(double x, double y);

  /// Adds the directed edge u -> v. InvalidArgument on unknown nodes or
  /// negative cost (all algorithms in this library require C(u,v) >= 0).
  Status AddEdge(NodeId u, NodeId v, double cost);

  /// Adds u -> v and v -> u with the same cost.
  Status AddUndirectedEdge(NodeId u, NodeId v, double cost);

  size_t num_nodes() const { return points_.size(); }
  size_t num_edges() const { return num_edges_; }

  bool HasNode(NodeId u) const {
    return u >= 0 && static_cast<size_t>(u) < points_.size();
  }

  const Point& point(NodeId u) const { return points_[static_cast<size_t>(u)]; }

  /// Out-edges of u (the adjacency list).
  std::span<const Edge> Neighbors(NodeId u) const {
    return adjacency_[static_cast<size_t>(u)];
  }

  size_t OutDegree(NodeId u) const {
    return adjacency_[static_cast<size_t>(u)].size();
  }

  /// Cost of edge u -> v; NotFound when absent.
  Result<double> EdgeCost(NodeId u, NodeId v) const;

  /// Average out-degree (the paper's |A|; 4 for interior grid nodes).
  double AverageDegree() const {
    return points_.empty() ? 0.0
                           : static_cast<double>(num_edges_) /
                                 static_cast<double>(points_.size());
  }

  /// Straight-line (Euclidean) distance between two nodes' coordinates.
  double EuclideanDistance(NodeId u, NodeId v) const;
  /// Manhattan (L1) distance between two nodes' coordinates.
  double ManhattanDistance(NodeId u, NodeId v) const;

  /// Replaces the cost of u -> v. NotFound when the edge is absent.
  Status SetEdgeCost(NodeId u, NodeId v, double cost);

 private:
  std::vector<Point> points_;
  std::vector<std::vector<Edge>> adjacency_;
  size_t num_edges_ = 0;
};

/// The transpose graph: same nodes/coordinates, every edge u->v becomes
/// v->u with the same cost.
Graph ReverseOf(const Graph& g);

}  // namespace atis::graph
