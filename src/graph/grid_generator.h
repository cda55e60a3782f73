// Synthetic k x k grid benchmark graphs (Section 5.1, Figure 4).
//
// Nodes sit at integer coordinates (col, row), connected 4-ways to row and
// column neighbours by undirected edges. Three edge-cost models from the
// paper:
//   * kUniform     — every edge costs 1.
//   * kVariance20  — 1 + 0.2 * U[0,1]   (deterministic, seeded)
//   * kSkewed      — cheap edges along the bottom row and right column,
//                    forming a low-cost corridor from the origin corner to
//                    the diagonally opposite corner; all other edges cost 1.
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "util/random.h"

namespace atis::graph {

enum class GridCostModel {
  kUniform,
  kVariance20,
  kSkewed,
};

/// The paper's benchmark query pairs on a k x k grid. The source is always
/// the origin corner; "horizontal" is the linearly opposite corner of the
/// same row, "semi-diagonal" a mid-length pair, "diagonal" the far corner.
struct GridQuery {
  NodeId source;
  NodeId destination;
};

class GridGraphGenerator {
 public:
  struct Options {
    int k = 30;                                   ///< grid side (k*k nodes)
    GridCostModel cost_model = GridCostModel::kVariance20;
    double variance_fraction = 0.2;               ///< for kVariance20
    /// Corridor edge cost for kSkewed. The default 1/32 reproduces the
    /// paper's Table 7 iteration counts (Dijkstra 45 vs published 48;
    /// A* and Iterative exact), and is exactly representable in binary
    /// floating point so the in-memory (f64) and database-resident (f32)
    /// substrates accumulate identical path costs and expand nodes in the
    /// same order.
    double skew_cheap_cost = 0.03125;
    uint64_t seed = 1993;
  };

  /// Builds the grid. Node id of (row, col) is row * k + col.
  static Result<Graph> Generate(const Options& options);

  static NodeId NodeAt(int k, int row, int col) {
    return static_cast<NodeId>(row * k + col);
  }

  /// (0,0) -> (0,k-1): along one row.
  static GridQuery HorizontalQuery(int k);
  /// (0,0) -> (k/2, k-1): roughly 3/4 of the diagonal hop count.
  static GridQuery SemiDiagonalQuery(int k);
  /// (0,0) -> (k-1,k-1): the longest (diagonally opposite) pair.
  static GridQuery DiagonalQuery(int k);

  /// Number of edges in the minimum-hop path of each query (the path
  /// length L of the cost analysis).
  static int QueryHops(const GridQuery& q, int k);
};

}  // namespace atis::graph
