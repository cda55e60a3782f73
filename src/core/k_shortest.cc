#include "core/k_shortest.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "graph/shortest_path.h"

namespace atis::core {

using graph::Graph;
using graph::NodeId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dijkstra with banned nodes and banned (u, v) node pairs. Returns the
/// path and its cost, or found=false.
struct ConstrainedResult {
  bool found = false;
  double cost = 0.0;
  std::vector<NodeId> path;
};

ConstrainedResult ConstrainedDijkstra(
    const Graph& g, NodeId source, NodeId destination,
    const std::set<std::pair<NodeId, NodeId>>& banned_edges,
    const std::vector<uint8_t>& banned_nodes) {
  graph::ShortestPathSearch search(g.num_nodes());
  search.Seed(source, 0.0);
  search.Run(
      [&](NodeId u, const auto& relax) {
        for (const graph::Edge& e : g.Neighbors(u)) {
          if (banned_nodes[static_cast<size_t>(e.to)]) continue;
          if (banned_edges.count({u, e.to}) != 0) continue;
          relax(e.to, e.cost);
        }
      },
      [destination](NodeId u) { return u == destination; });
  ConstrainedResult out;
  if (!search.Reached(destination)) return out;
  out.found = true;
  out.cost = search.dist(destination);
  out.path = search.PathTo(destination);
  return out;
}

/// Cheapest cost of any edge u -> v (+inf when absent).
double MinEdgeCost(const Graph& g, NodeId u, NodeId v) {
  double best = kInf;
  for (const graph::Edge& e : g.Neighbors(u)) {
    if (e.to == v) best = std::min(best, e.cost);
  }
  return best;
}

}  // namespace

Result<std::vector<RankedPath>> KShortestPaths(const Graph& g,
                                               NodeId source,
                                               NodeId destination,
                                               size_t k) {
  if (!g.HasNode(source) || !g.HasNode(destination)) {
    return Status::InvalidArgument("unknown endpoint");
  }
  if (k == 0) {
    return Status::InvalidArgument("k must be positive");
  }

  std::vector<RankedPath> accepted;
  std::vector<uint8_t> no_bans(g.num_nodes(), 0);
  {
    const ConstrainedResult first =
        ConstrainedDijkstra(g, source, destination, {}, no_bans);
    if (!first.found) return accepted;  // unreachable: empty result
    accepted.push_back({first.cost, first.path});
  }

  // Candidate pool, ordered by (cost, node sequence) for determinism.
  auto cmp = [](const RankedPath& a, const RankedPath& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.path < b.path;
  };
  std::set<RankedPath, decltype(cmp)> candidates(cmp);
  std::set<std::vector<NodeId>> seen;
  seen.insert(accepted.front().path);

  while (accepted.size() < k) {
    const std::vector<NodeId>& prev = accepted.back().path;
    // Branch at every node of the last accepted path except the
    // destination.
    for (size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      const std::vector<NodeId> root(prev.begin(),
                                     prev.begin() + static_cast<long>(i) + 1);

      std::set<std::pair<NodeId, NodeId>> banned_edges;
      for (const RankedPath& p : accepted) {
        if (p.path.size() > i &&
            std::equal(root.begin(), root.end(), p.path.begin())) {
          banned_edges.insert({p.path[i], p.path[i + 1]});
        }
      }
      std::vector<uint8_t> banned_nodes(g.num_nodes(), 0);
      for (size_t j = 0; j < i; ++j) {
        banned_nodes[static_cast<size_t>(root[j])] = 1;  // loopless
      }

      const ConstrainedResult spur_path = ConstrainedDijkstra(
          g, spur, destination, banned_edges, banned_nodes);
      if (!spur_path.found) continue;

      RankedPath candidate;
      candidate.path = root;
      candidate.path.insert(candidate.path.end(),
                            spur_path.path.begin() + 1,
                            spur_path.path.end());
      double root_cost = 0.0;
      for (size_t j = 0; j + 1 < root.size(); ++j) {
        root_cost += MinEdgeCost(g, root[j], root[j + 1]);
      }
      candidate.cost = root_cost + spur_path.cost;
      if (seen.insert(candidate.path).second) {
        candidates.insert(std::move(candidate));
      }
    }
    if (candidates.empty()) break;  // no more loopless alternatives
    accepted.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return accepted;
}

}  // namespace atis::core
