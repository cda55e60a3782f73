#include "graph/grid_generator.h"

#include <cstdlib>

namespace atis::graph {

Result<Graph> GridGraphGenerator::Generate(const Options& options) {
  const int k = options.k;
  if (k < 2) {
    return Status::InvalidArgument("grid side must be at least 2");
  }
  if (options.variance_fraction < 0.0) {
    return Status::InvalidArgument("variance fraction must be >= 0");
  }
  if (options.skew_cheap_cost <= 0.0) {
    return Status::InvalidArgument("skew cheap cost must be > 0");
  }

  Graph g;
  for (int row = 0; row < k; ++row) {
    for (int col = 0; col < k; ++col) {
      g.AddNode(static_cast<double>(col), static_cast<double>(row));
    }
  }

  Rng rng(options.seed);
  auto edge_cost = [&](int row_a, int col_a, int row_b, int col_b) {
    switch (options.cost_model) {
      case GridCostModel::kUniform:
        return 1.0;
      case GridCostModel::kVariance20:
        return 1.0 + options.variance_fraction * rng.NextDouble();
      case GridCostModel::kSkewed: {
        // Cheap corridor: the bottom row (row 0) and the right column
        // (col k-1), i.e. the paper's edges [(1,i),(1,i+1)] and
        // [(k,i),(k,i+1)] in 1-based notation.
        const bool bottom_row = (row_a == 0 && row_b == 0);
        const bool right_col = (col_a == k - 1 && col_b == k - 1);
        return (bottom_row || right_col) ? options.skew_cheap_cost : 1.0;
      }
    }
    return 1.0;
  };

  // Horizontal then vertical edges, in deterministic row-major order.
  for (int row = 0; row < k; ++row) {
    for (int col = 0; col + 1 < k; ++col) {
      ATIS_RETURN_NOT_OK(g.AddUndirectedEdge(NodeAt(k, row, col),
                                             NodeAt(k, row, col + 1),
                                             edge_cost(row, col, row, col + 1)));
    }
  }
  for (int row = 0; row + 1 < k; ++row) {
    for (int col = 0; col < k; ++col) {
      ATIS_RETURN_NOT_OK(g.AddUndirectedEdge(NodeAt(k, row, col),
                                             NodeAt(k, row + 1, col),
                                             edge_cost(row, col, row + 1, col)));
    }
  }
  return g;
}

GridQuery GridGraphGenerator::HorizontalQuery(int k) {
  return {NodeAt(k, 0, 0), NodeAt(k, 0, k - 1)};
}

GridQuery GridGraphGenerator::SemiDiagonalQuery(int k) {
  return {NodeAt(k, 0, 0), NodeAt(k, k / 2, k - 1)};
}

GridQuery GridGraphGenerator::DiagonalQuery(int k) {
  return {NodeAt(k, 0, 0), NodeAt(k, k - 1, k - 1)};
}

int GridGraphGenerator::QueryHops(const GridQuery& q, int k) {
  const int row_s = q.source / k;
  const int col_s = q.source % k;
  const int row_d = q.destination / k;
  const int col_d = q.destination % k;
  return std::abs(row_d - row_s) + std::abs(col_d - col_s);
}

}  // namespace atis::graph
