#include "core/hierarchy.h"

#include <algorithm>
#include <cmath>

#include "graph/shortest_path.h"

namespace atis::core {

using graph::Graph;
using graph::NodeId;

namespace {

/// Index of u in a cell's ascending member list.
NodeId MemberIndex(const std::vector<NodeId>& members, NodeId u) {
  return static_cast<NodeId>(
      std::lower_bound(members.begin(), members.end(), u) - members.begin());
}

/// Dijkstra from `from` inside one cell, over its intra-cell arcs
/// (reversed when `reverse`). Labels are indices into `members`, which
/// is ascending, so member order is id order and ties break as they
/// would on global ids.
graph::ShortestPathSearch CellSearch(const Graph& g,
                                     const std::vector<int>& cell_of,
                                     const std::vector<NodeId>& members,
                                     NodeId from, bool reverse) {
  const int cell = cell_of[static_cast<size_t>(from)];
  std::vector<std::vector<std::pair<NodeId, double>>> adj(members.size());
  for (size_t mi = 0; mi < members.size(); ++mi) {
    for (const graph::Edge& e : g.Neighbors(members[mi])) {
      if (cell_of[static_cast<size_t>(e.to)] != cell) continue;
      const NodeId to = MemberIndex(members, e.to);
      if (reverse) {
        adj[static_cast<size_t>(to)].emplace_back(static_cast<NodeId>(mi),
                                                  e.cost);
      } else {
        adj[mi].emplace_back(to, e.cost);
      }
    }
  }
  graph::ShortestPathSearch search(members.size());
  search.Seed(MemberIndex(members, from), 0.0);
  search.Run([&adj](NodeId u, const auto& relax) {
    for (const auto& [v, c] : adj[static_cast<size_t>(u)]) relax(v, c);
  });
  return search;
}

}  // namespace

Result<HierarchicalRouter> HierarchicalRouter::Build(
    const Graph* g, const HierarchyOptions& options) {
  if (g == nullptr || g->num_nodes() == 0) {
    return Status::InvalidArgument("hierarchy needs a non-empty graph");
  }
  if (options.cell_size <= 0.0) {
    return Status::InvalidArgument("cell size must be positive");
  }

  HierarchicalRouter router;
  router.g_ = g;
  const size_t n = g->num_nodes();

  // 1. Assign nodes to rectangular cells over the bounding box.
  double min_x = g->point(0).x;
  double min_y = g->point(0).y;
  double max_x = min_x;
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    min_x = std::min(min_x, g->point(u).x);
    min_y = std::min(min_y, g->point(u).y);
    max_x = std::max(max_x, g->point(u).x);
  }
  const int cols = std::max(
      1, static_cast<int>(std::floor((max_x - min_x) / options.cell_size)) +
             1);
  std::map<std::pair<int, int>, int> cell_ids;  // (row, col) -> dense id
  router.cell_of_.resize(n, -1);
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    const int col = static_cast<int>(
        std::floor((g->point(u).x - min_x) / options.cell_size));
    const int row = static_cast<int>(
        std::floor((g->point(u).y - min_y) / options.cell_size));
    auto [it, inserted] =
        cell_ids.emplace(std::make_pair(row, col),
                         static_cast<int>(router.cells_.size()));
    if (inserted) router.cells_.emplace_back();
    router.cell_of_[static_cast<size_t>(u)] = it->second;
    router.cells_[static_cast<size_t>(it->second)].members.push_back(u);
  }
  (void)cols;

  // 2. Boundary nodes: endpoints of cell-crossing edges.
  router.is_boundary_.assign(n, 0);
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    for (const graph::Edge& e : g->Neighbors(u)) {
      if (router.cell_of_[static_cast<size_t>(u)] !=
          router.cell_of_[static_cast<size_t>(e.to)]) {
        router.is_boundary_[static_cast<size_t>(u)] = 1;
        router.is_boundary_[static_cast<size_t>(e.to)] = 1;
      }
    }
  }
  for (Cell& cell : router.cells_) {
    for (const NodeId u : cell.members) {
      if (router.is_boundary_[static_cast<size_t>(u)]) {
        cell.boundary.push_back(u);
      }
    }
    router.num_boundary_ += cell.boundary.size();
  }

  // 3. Per-cell boundary-to-boundary shortcut tables.
  for (size_t c = 0; c < router.cells_.size(); ++c) {
    Cell& cell = router.cells_[c];
    for (const NodeId b : cell.boundary) {
      std::vector<Shortcut> shortcuts = router.IntraCellPaths(
          static_cast<int>(c), b, cell.boundary);
      router.num_shortcuts_ += shortcuts.size();
      cell.shortcuts.emplace(b, std::move(shortcuts));
    }
  }
  return router;
}

std::vector<HierarchicalRouter::Shortcut>
HierarchicalRouter::IntraCellPaths(
    int cell, NodeId from, const std::vector<NodeId>& targets) const {
  const std::vector<NodeId>& members =
      cells_[static_cast<size_t>(cell)].members;
  const graph::ShortestPathSearch search =
      CellSearch(*g_, cell_of_, members, from, /*reverse=*/false);
  std::vector<Shortcut> out;
  for (const NodeId t : targets) {
    if (t == from) continue;
    const NodeId ti = MemberIndex(members, t);
    if (!search.Reached(ti)) continue;
    Shortcut sc;
    sc.to = t;
    sc.cost = search.dist(ti);
    for (const NodeId mi : search.PathTo(ti)) {
      sc.path.push_back(members[static_cast<size_t>(mi)]);
    }
    out.push_back(std::move(sc));
  }
  return out;
}

PathResult HierarchicalRouter::Route(NodeId source,
                                     NodeId destination) const {
  PathResult result;
  if (!g_->HasNode(source) || !g_->HasNode(destination)) return result;
  if (source == destination) {
    result.found = true;
    result.path = {source};
    return result;
  }

  // Overlay adjacency: every edge carries the expanded node sequence.
  struct OverlayEdge {
    NodeId to;
    double cost;
    std::vector<NodeId> path;  // from..to inclusive
  };
  const size_t n = g_->num_nodes();
  std::vector<std::vector<OverlayEdge>> overlay(n);

  // (a) Precomputed intra-cell boundary shortcuts.
  for (const Cell& cell : cells_) {
    for (const auto& [b, shortcuts] : cell.shortcuts) {
      for (const Shortcut& sc : shortcuts) {
        overlay[static_cast<size_t>(b)].push_back({sc.to, sc.cost, sc.path});
      }
    }
  }
  // (b) Original cross-cell edges (both endpoints are boundary nodes).
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    for (const graph::Edge& e : g_->Neighbors(u)) {
      if (cell_of_[static_cast<size_t>(u)] !=
          cell_of_[static_cast<size_t>(e.to)]) {
        overlay[static_cast<size_t>(u)].push_back({e.to, e.cost, {u, e.to}});
      }
    }
  }
  // (c) Source-cell interior: source to its cell's boundary nodes (and
  //     directly to the destination when they share a cell).
  const int s_cell = cell_of_[static_cast<size_t>(source)];
  const int d_cell = cell_of_[static_cast<size_t>(destination)];
  {
    std::vector<NodeId> targets =
        cells_[static_cast<size_t>(s_cell)].boundary;
    if (d_cell == s_cell) targets.push_back(destination);
    for (Shortcut& sc : IntraCellPaths(s_cell, source, targets)) {
      overlay[static_cast<size_t>(source)].push_back(
          {sc.to, sc.cost, std::move(sc.path)});
    }
  }
  // (d) Destination-cell interior: boundary nodes to the destination,
  //     via a reversed intra-cell search from the destination.
  {
    const std::vector<NodeId>& members =
        cells_[static_cast<size_t>(d_cell)].members;
    const graph::ShortestPathSearch back =
        CellSearch(*g_, cell_of_, members, destination, /*reverse=*/true);
    for (const NodeId b : cells_[static_cast<size_t>(d_cell)].boundary) {
      if (b == destination) continue;
      const NodeId bi = MemberIndex(members, b);
      if (!back.Reached(bi)) continue;
      // The reverse tree's root..b walk, read backwards, is the forward
      // chain b -> ... -> destination.
      std::vector<NodeId> path;
      const std::vector<NodeId> chain = back.PathTo(bi);
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        path.push_back(members[static_cast<size_t>(*it)]);
      }
      overlay[static_cast<size_t>(b)].push_back(
          {destination, back.dist(bi), std::move(path)});
    }
  }

  // Overlay Dijkstra; record the incoming overlay edge for expansion.
  graph::ShortestPathSearch search(n);
  std::vector<const std::vector<NodeId>*> via(n, nullptr);
  search.Seed(source, 0.0);
  search.Run(
      [&](NodeId u, const auto& relax) {
        ++result.stats.iterations;
        ++result.stats.nodes_expanded;
        for (const OverlayEdge& e : overlay[static_cast<size_t>(u)]) {
          ++result.stats.nodes_generated;
          if (relax(e.to, e.cost)) {
            ++result.stats.nodes_improved;
            via[static_cast<size_t>(e.to)] = &e.path;
          }
        }
      },
      [destination](NodeId u) { return u == destination; });

  if (!search.Reached(destination)) return result;
  result.found = true;
  result.cost = search.dist(destination);

  // Expand: walk overlay predecessors, splicing each segment.
  std::vector<const std::vector<NodeId>*> segments;
  for (NodeId at = destination; at != source; at = search.parent(at)) {
    segments.push_back(via[static_cast<size_t>(at)]);
  }
  std::reverse(segments.begin(), segments.end());
  result.path.push_back(source);
  for (const auto* seg : segments) {
    result.path.insert(result.path.end(), seg->begin() + 1, seg->end());
  }
  return result;
}

}  // namespace atis::core
