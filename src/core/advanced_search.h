// Extensions beyond the paper's three algorithms, rooted in its closing
// discussion.
//
// Section 6: "In real applications such as the ATIS, the tradeoff between
// optimality and speed may allow for sub-optimal algorithms to speed the
// processing. Our future work will include analyzing the algorithms to
// find a way to characterize the tradeoff." Weighted A* *is* that
// characterisation: inflating an admissible estimator by w >= 1 bounds
// the returned cost at w times optimal while shrinking the search.
// Bidirectional Dijkstra is the complementary exact speedup for
// single-pair queries without any estimator.
#pragma once

#include "core/estimator.h"
#include "core/memory_search.h"
#include "core/search_types.h"
#include "graph/graph.h"

namespace atis::core {

/// A* with the estimator inflated by `weight` (>= 1). With an admissible
/// estimator the returned path costs at most weight * optimal
/// (epsilon-admissibility); weight = 1 is plain A*, larger weights search
/// more greedily. PathResult::optimality_guaranteed is true only for
/// weight == 1 with a known-admissible estimator.
PathResult WeightedAStarSearch(const graph::Graph& g, graph::NodeId source,
                               graph::NodeId destination,
                               const Estimator& estimator, double weight,
                               const MemorySearchOptions& options = {});

/// Bidirectional Dijkstra: alternating forward search from the source and
/// backward search (over reversed edges) from the destination, stopping
/// when the frontiers' radii cover the best meeting point. Exact, and on
/// long queries expands roughly half the nodes of unidirectional
/// Dijkstra. `reverse` must be graph::ReverseOf(g) (precomputed so repeated
/// queries share it); iterations count expansions in both directions.
PathResult BidirectionalDijkstra(const graph::Graph& g,
                                 const graph::Graph& reverse,
                                 graph::NodeId source,
                                 graph::NodeId destination);

/// Convenience overload that builds the reverse graph internally.
PathResult BidirectionalDijkstra(const graph::Graph& g,
                                 graph::NodeId source,
                                 graph::NodeId destination);

}  // namespace atis::core
