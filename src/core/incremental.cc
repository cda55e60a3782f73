#include "core/incremental.h"

#include <limits>
#include <utility>
#include <vector>

#include "core/advanced_search.h"
#include "graph/shortest_path.h"

namespace atis::core {

using graph::Graph;
using graph::NodeId;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Propagates the seeded labels of a repair over `g` to a fixed point,
/// counting settled nodes in `rescanned`.
ShortestPathTree Resume(const Graph& g, NodeId source,
                        graph::ShortestPathSearch search,
                        size_t* rescanned) {
  search.Run([&g](NodeId x, const auto& relax) {
    for (const graph::Edge& e : g.Neighbors(x)) relax(e.to, e.cost);
  });
  *rescanned = search.settled();
  return ShortestPathTree(source, search.TakeDistances(),
                          search.TakeParents());
}

}  // namespace

Result<ShortestPathTree> RepairAfterEdgeChange(
    const Graph& updated_graph, const ShortestPathTree& old_tree,
    NodeId u, NodeId v, const Graph* reverse, IncrementalStats* stats) {
  const size_t n = updated_graph.num_nodes();
  if (old_tree.num_nodes() != n) {
    return Status::InvalidArgument(
        "tree and graph disagree on node count");
  }
  if (!updated_graph.HasNode(u) || !updated_graph.HasNode(v)) {
    return Status::InvalidArgument("unknown edge endpoint");
  }

  IncrementalStats local;
  std::vector<double> dist(n);
  std::vector<NodeId> pred(n);
  for (NodeId x = 0; x < static_cast<NodeId>(n); ++x) {
    dist[static_cast<size_t>(x)] = old_tree.Distance(x);
    pred[static_cast<size_t>(x)] = old_tree.Predecessor(x);
  }
  const NodeId source = old_tree.source();

  // Cheapest surviving u -> v cost in the updated graph (+inf if removed).
  double new_cost = kInf;
  for (const graph::Edge& e : updated_graph.Neighbors(u)) {
    if (e.to == v) new_cost = std::min(new_cost, e.cost);
  }

  // -- Decrease side: the new edge may open cheaper paths through v.
  if (dist[static_cast<size_t>(u)] != kInf &&
      dist[static_cast<size_t>(u)] + new_cost <
          dist[static_cast<size_t>(v)]) {
    const double through_u = dist[static_cast<size_t>(u)] + new_cost;
    graph::ShortestPathSearch search(std::move(dist), std::move(pred));
    search.Seed(v, through_u, u);
    ShortestPathTree tree = Resume(updated_graph, source, std::move(search),
                                   &local.nodes_rescanned);
    if (stats != nullptr) *stats = local;
    return tree;
  }

  // -- Increase side: invalidate every node whose tree path crossed
  //    u -> v (v and its tree descendants, if v hung off u).
  if (pred[static_cast<size_t>(v)] == u && v != source) {
    // affected(x): x routes through v in the predecessor tree.
    std::vector<int8_t> affected(n, -1);  // -1 unknown, 0 no, 1 yes
    affected[static_cast<size_t>(v)] = 1;
    affected[static_cast<size_t>(source)] = 0;
    for (NodeId x = 0; x < static_cast<NodeId>(n); ++x) {
      // Chase predecessors until a memoised node, then back-fill.
      std::vector<NodeId> chain;
      NodeId at = x;
      while (at != graph::kInvalidNode &&
             affected[static_cast<size_t>(at)] == -1) {
        chain.push_back(at);
        at = pred[static_cast<size_t>(at)];
      }
      const int8_t verdict =
          (at == graph::kInvalidNode) ? 0 : affected[static_cast<size_t>(at)];
      for (const NodeId c : chain) {
        affected[static_cast<size_t>(c)] = verdict;
      }
    }

    // Drop affected labels, then re-seed each affected node from its
    // unaffected in-neighbours.
    const Graph local_reverse =
        reverse == nullptr ? ReverseOf(updated_graph) : Graph();
    const Graph& rev = reverse == nullptr ? local_reverse : *reverse;
    if (rev.num_nodes() != n) {
      return Status::InvalidArgument("reverse graph does not match");
    }
    for (NodeId x = 0; x < static_cast<NodeId>(n); ++x) {
      if (affected[static_cast<size_t>(x)] != 1) continue;
      ++local.nodes_invalidated;
      dist[static_cast<size_t>(x)] = kInf;
      pred[static_cast<size_t>(x)] = graph::kInvalidNode;
    }
    graph::ShortestPathSearch search(std::move(dist), std::move(pred));
    for (NodeId x = 0; x < static_cast<NodeId>(n); ++x) {
      if (affected[static_cast<size_t>(x)] != 1) continue;
      for (const graph::Edge& in : rev.Neighbors(x)) {
        if (affected[static_cast<size_t>(in.to)] == 1) continue;
        search.Seed(x, search.dist(in.to) + in.cost, in.to);
      }
    }
    ShortestPathTree tree = Resume(updated_graph, source, std::move(search),
                                   &local.nodes_rescanned);
    if (stats != nullptr) *stats = local;
    return tree;
  }
  // else: the changed edge was not on any tree path and did not improve
  // anything — the old tree is already exact.

  if (stats != nullptr) *stats = local;
  return ShortestPathTree(source, std::move(dist), std::move(pred));
}

}  // namespace atis::core
