// Single-source shortest paths and the graph's cost diameter.
//
// The paper frames single-pair computation against two broader classes:
// all-pair path computation (transitive closure) and single-source
// computation (partial transitive closure). This module provides the
// single-source run as a library operation — it backs route evaluation
// over many destinations, estimator admissibility analysis, the
// diameter `atis_cli info` reports, and the reference oracles in tests.
#pragma once

#include <limits>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace atis::core {

/// The result of a single-source run: distance and predecessor per node.
/// Unreachable nodes have distance == infinity and pred == kInvalidNode.
class ShortestPathTree {
 public:
  ShortestPathTree(graph::NodeId source, std::vector<double> dist,
                   std::vector<graph::NodeId> pred)
      : source_(source), dist_(std::move(dist)), pred_(std::move(pred)) {}

  graph::NodeId source() const { return source_; }
  size_t num_nodes() const { return dist_.size(); }

  bool Reaches(graph::NodeId v) const {
    return v >= 0 && static_cast<size_t>(v) < dist_.size() &&
           dist_[static_cast<size_t>(v)] !=
               std::numeric_limits<double>::infinity();
  }

  /// Cost of the shortest path source -> v (+inf when unreachable).
  double Distance(graph::NodeId v) const {
    return dist_[static_cast<size_t>(v)];
  }

  /// Reconstructs the node sequence source..v (empty when unreachable).
  std::vector<graph::NodeId> PathTo(graph::NodeId v) const;

  const std::vector<double>& distances() const { return dist_; }

 private:
  graph::NodeId source_;
  std::vector<double> dist_;
  std::vector<graph::NodeId> pred_;
};

/// Dijkstra to every reachable node (no early termination).
/// InvalidArgument on an unknown source.
Result<ShortestPathTree> SingleSourceDijkstra(const graph::Graph& g,
                                              graph::NodeId source);

/// Largest finite pairwise distance (the graph's cost diameter), ignoring
/// unreachable pairs. Zero for an empty graph.
Result<double> GraphDiameter(const graph::Graph& g);

}  // namespace atis::core
