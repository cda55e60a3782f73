#include "core/overlay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "graph/shortest_path.h"
#include "graph/spatial_layout.h"
#include "obs/metrics.h"

namespace atis::core {

using graph::Graph;
using graph::NodeId;
using graph::RelationalGraphStore;

namespace {

constexpr uint32_t kMaxCellOrder = 8;

/// Shortest-path tree over a member-index adjacency list (one cell's
/// intra-cell graph). parent[root] = -1; parent[m] = -1 with dist +inf
/// when unreachable.
struct MemberTree {
  std::vector<double> dist;
  std::vector<int32_t> parent;
};

MemberTree MemberDijkstra(
    const std::vector<std::vector<std::pair<int32_t, double>>>& adj,
    int32_t source) {
  graph::ShortestPathSearch search(adj.size());
  search.Seed(source, 0.0);
  search.Run([&adj](int32_t u, const auto& relax) {
    for (const auto& [v, c] : adj[static_cast<size_t>(u)]) relax(v, c);
  });
  return MemberTree{search.TakeDistances(), search.TakeParents()};
}

/// One cell's freshly customized state: its tables plus the current cross
/// arcs of its members (non-empty only for boundary members).
struct CellCustomization {
  OverlayCustomization::CellTables tables;
  std::vector<std::pair<NodeId, std::vector<graph::Edge>>> cross;
};

/// Reads every member's adjacency through the metered store, splits it
/// into the intra-cell graph and cross arcs, and runs the restricted
/// Dijkstras: one forward tree per member (the in-cell all-pairs table,
/// whose boundary-rooted rows double as the forward boundary tables) and
/// one reverse tree per boundary node.
Result<CellCustomization> CustomizeCell(const OverlayTopology& topo,
                                        int32_t c,
                                        const RelationalGraphStore* store) {
  const OverlayTopology::Cell& cell = topo.cell(c);
  const size_t m = cell.members.size();
  const size_t b = cell.boundary.size();
  std::vector<std::vector<std::pair<int32_t, double>>> fwd_adj(m);
  std::vector<std::vector<std::pair<int32_t, double>>> rev_adj(m);
  CellCustomization out;
  for (size_t mi = 0; mi < m; ++mi) {
    const NodeId u = cell.members[mi];
    ATIS_ASSIGN_OR_RETURN(auto edges, store->FetchAdjacency(u));
    std::vector<graph::Edge> cross;
    for (const auto& e : edges) {
      if (topo.CellOf(e.end) == c) {
        fwd_adj[mi].emplace_back(topo.MemberIndexOf(e.end), e.cost);
        rev_adj[static_cast<size_t>(topo.MemberIndexOf(e.end))]
            .emplace_back(static_cast<int32_t>(mi), e.cost);
      } else {
        cross.push_back({e.end, e.cost});
      }
    }
    if (!cross.empty()) out.cross.emplace_back(u, std::move(cross));
  }
  out.tables.incell_dist.resize(m);
  out.tables.incell_pred.resize(m);
  for (size_t mi = 0; mi < m; ++mi) {
    MemberTree fwd = MemberDijkstra(fwd_adj, static_cast<int32_t>(mi));
    out.tables.incell_dist[mi] = std::move(fwd.dist);
    out.tables.incell_pred[mi] = std::move(fwd.parent);
  }
  out.tables.fwd_dist.resize(b);
  out.tables.fwd_pred.resize(b);
  out.tables.rev_dist.resize(b);
  out.tables.rev_succ.resize(b);
  for (size_t bi = 0; bi < b; ++bi) {
    const size_t root = static_cast<size_t>(cell.boundary_member_idx[bi]);
    out.tables.fwd_dist[bi] = out.tables.incell_dist[root];
    out.tables.fwd_pred[bi] = out.tables.incell_pred[root];
    // A reverse-graph tree's parents are forward-path successors: the
    // reversed path root..m, read backwards, is the forward path m..root.
    MemberTree rev = MemberDijkstra(rev_adj, static_cast<int32_t>(root));
    out.tables.rev_dist[bi] = std::move(rev.dist);
    out.tables.rev_succ[bi] = std::move(rev.parent);
  }
  return out;
}

void PublishCustomizationMetrics(double seconds, uint64_t metric_version,
                                 size_t cells_computed) {
  auto& reg = obs::MetricsRegistry::Default();
  reg.GetGauge("atis_overlay_customize_seconds",
               "Wall time of the latest overlay (re)customization")
      .Set(seconds);
  reg.GetGauge("atis_overlay_metric_version",
               "Metric version of the installed overlay customization")
      .Set(static_cast<double>(metric_version));
  reg.GetCounter("atis_overlay_customizations_total",
                 "Overlay customization passes (full or incremental)")
      .Increment();
  reg.GetCounter("atis_overlay_cells_recustomized_total",
                 "Cells whose shortcut tables were (re)computed")
      .Increment(cells_computed);
}

}  // namespace

Result<OverlayTopology> OverlayTopology::Build(const Graph& g,
                                               const OverlayOptions& options) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("overlay needs a non-empty graph");
  }
  if (options.cell_order > kMaxCellOrder) {
    return Status::InvalidArgument("overlay cell_order must be <= 8");
  }
  OverlayTopology topo;
  topo.cell_order_ = options.cell_order;
  const size_t n = g.num_nodes();
  topo.points_.reserve(n);
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    topo.points_.push_back({RelationalGraphStore::Quantise(g.point(u).x),
                            RelationalGraphStore::Quantise(g.point(u).y)});
  }
  double min_x = topo.points_[0].x, max_x = min_x;
  double min_y = topo.points_[0].y, max_y = min_y;
  for (const graph::Point& p : topo.points_) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const uint32_t side = 1u << topo.cell_order_;
  const double ext_x = max_x - min_x;
  const double ext_y = max_y - min_y;
  // Hilbert keys of occupied grid cells, densified in curve order so cell
  // ids are themselves spatially clustered (near cells get near ids).
  std::vector<uint64_t> keys(n, 0);
  if (ext_x > 0.0 || ext_y > 0.0) {
    for (size_t i = 0; i < n; ++i) {
      const auto clamp_cell = [side](double v, double lo,
                                     double ext) -> uint32_t {
        if (ext <= 0.0) return 0;
        const auto cell = static_cast<int64_t>((v - lo) / ext *
                                               static_cast<double>(side));
        return static_cast<uint32_t>(
            std::clamp<int64_t>(cell, 0, static_cast<int64_t>(side) - 1));
      };
      keys[i] = graph::HilbertIndex(topo.cell_order_,
                                    clamp_cell(topo.points_[i].x, min_x,
                                               ext_x),
                                    clamp_cell(topo.points_[i].y, min_y,
                                               ext_y));
    }
  }
  std::vector<uint64_t> used = keys;
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  topo.cell_of_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    topo.cell_of_[i] = static_cast<int32_t>(
        std::lower_bound(used.begin(), used.end(), keys[i]) - used.begin());
  }
  topo.cells_.resize(used.size());
  ATIS_RETURN_NOT_OK(topo.Finalize(g));
  return topo;
}

Status OverlayTopology::Finalize(const Graph& g) {
  const size_t n = cell_of_.size();
  member_idx_of_.assign(n, -1);
  boundary_idx_of_.assign(n, -1);
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    Cell& cell = cells_[static_cast<size_t>(cell_of_[static_cast<size_t>(u)])];
    member_idx_of_[static_cast<size_t>(u)] =
        static_cast<int32_t>(cell.members.size());
    cell.members.push_back(u);  // ascending u => members sorted by id
  }
  std::vector<uint8_t> is_boundary(n, 0);
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    for (const graph::Edge& e : g.Neighbors(u)) {
      if (cell_of_[static_cast<size_t>(u)] !=
          cell_of_[static_cast<size_t>(e.to)]) {
        is_boundary[static_cast<size_t>(u)] = 1;
        is_boundary[static_cast<size_t>(e.to)] = 1;
      }
    }
  }
  num_boundary_ = 0;
  for (Cell& cell : cells_) {
    for (size_t mi = 0; mi < cell.members.size(); ++mi) {
      const NodeId u = cell.members[mi];
      if (!is_boundary[static_cast<size_t>(u)]) continue;
      boundary_idx_of_[static_cast<size_t>(u)] =
          static_cast<int32_t>(cell.boundary.size());
      cell.boundary.push_back(u);
      cell.boundary_member_idx.push_back(static_cast<int32_t>(mi));
    }
    num_boundary_ += cell.boundary.size();
  }
  // Shortcut topology: which boundary pairs of each cell an intra-cell
  // path connects. Plain BFS — reachability does not depend on costs.
  num_shortcuts_ = 0;
  for (size_t c = 0; c < cells_.size(); ++c) {
    Cell& cell = cells_[c];
    const size_t m = cell.members.size();
    std::vector<std::vector<int32_t>> adj(m);
    for (size_t mi = 0; mi < m; ++mi) {
      for (const graph::Edge& e : g.Neighbors(cell.members[mi])) {
        if (cell_of_[static_cast<size_t>(e.to)] == static_cast<int32_t>(c)) {
          adj[mi].push_back(member_idx_of_[static_cast<size_t>(e.to)]);
        }
      }
    }
    cell.shortcut_targets.assign(cell.boundary.size(), {});
    std::vector<uint8_t> seen(m);
    for (size_t bi = 0; bi < cell.boundary.size(); ++bi) {
      std::fill(seen.begin(), seen.end(), 0);
      std::vector<int32_t> stack{cell.boundary_member_idx[bi]};
      seen[static_cast<size_t>(stack.back())] = 1;
      while (!stack.empty()) {
        const int32_t at = stack.back();
        stack.pop_back();
        for (const int32_t next : adj[static_cast<size_t>(at)]) {
          if (!seen[static_cast<size_t>(next)]) {
            seen[static_cast<size_t>(next)] = 1;
            stack.push_back(next);
          }
        }
      }
      for (size_t bj = 0; bj < cell.boundary.size(); ++bj) {
        if (bj != bi &&
            seen[static_cast<size_t>(cell.boundary_member_idx[bj])]) {
          cell.shortcut_targets[bi].push_back(static_cast<int32_t>(bj));
        }
      }
      num_shortcuts_ += cell.shortcut_targets[bi].size();
    }
  }
  return Status::OK();
}

Result<OverlayTopology> OverlayTopology::FromRows(
    const std::vector<RelationalGraphStore::OverlayCellRow>& cells,
    const std::vector<RelationalGraphStore::OverlayShortcutRow>& links,
    const Graph& g, uint32_t cell_order) {
  if (cells.size() != g.num_nodes()) {
    return Status::InvalidArgument(
        "overlay cell rows do not cover the graph's nodes");
  }
  OverlayTopology topo;
  topo.cell_order_ = cell_order;
  const size_t n = g.num_nodes();
  topo.cell_of_.assign(n, -1);
  int32_t max_cell = 0;
  for (const auto& row : cells) {
    if (row.node < 0 || static_cast<size_t>(row.node) >= n || row.cell < 0 ||
        topo.cell_of_[static_cast<size_t>(row.node)] != -1) {
      return Status::InvalidArgument("invalid or duplicate overlay cell row");
    }
    topo.cell_of_[static_cast<size_t>(row.node)] = row.cell;
    max_cell = std::max(max_cell, row.cell);
  }
  topo.points_.reserve(n);
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    topo.points_.push_back({RelationalGraphStore::Quantise(g.point(u).x),
                            RelationalGraphStore::Quantise(g.point(u).y)});
  }
  topo.cells_.resize(static_cast<size_t>(max_cell) + 1);
  ATIS_RETURN_NOT_OK(topo.Finalize(g));
  // The persisted boundary flags and shortcut pairs must agree with the
  // structure this graph implies — a mismatched map file is corruption,
  // not a quiet re-derivation.
  for (const auto& row : cells) {
    if (topo.IsBoundary(row.node) != row.is_boundary) {
      return Status::InvalidArgument(
          "persisted overlay boundary flags do not match the graph");
    }
  }
  size_t persisted = 0;
  for (const auto& link : links) {
    if (link.cell < 0 || static_cast<size_t>(link.cell) >= topo.cells_.size()) {
      return Status::InvalidArgument("overlay shortcut row names no cell");
    }
    const int32_t bi = topo.BoundaryIndexOf(link.from);
    const int32_t bj = topo.BoundaryIndexOf(link.to);
    if (bi < 0 || bj < 0 || topo.CellOf(link.from) != link.cell ||
        topo.CellOf(link.to) != link.cell) {
      return Status::InvalidArgument(
          "overlay shortcut row references a non-boundary endpoint");
    }
    const auto& targets =
        topo.cells_[static_cast<size_t>(link.cell)]
            .shortcut_targets[static_cast<size_t>(bi)];
    if (std::find(targets.begin(), targets.end(), bj) == targets.end()) {
      return Status::InvalidArgument(
          "persisted overlay shortcut is not implied by the graph");
    }
    ++persisted;
  }
  if (persisted != topo.num_shortcuts_) {
    return Status::InvalidArgument(
        "persisted overlay shortcut set is incomplete");
  }
  return topo;
}

std::vector<RelationalGraphStore::OverlayCellRow>
OverlayTopology::ToCellRows() const {
  std::vector<RelationalGraphStore::OverlayCellRow> rows;
  rows.reserve(cell_of_.size());
  for (NodeId u = 0; u < static_cast<NodeId>(cell_of_.size()); ++u) {
    rows.push_back({u, CellOf(u), IsBoundary(u)});
  }
  return rows;
}

std::vector<RelationalGraphStore::OverlayShortcutRow>
OverlayTopology::ToShortcutRows() const {
  std::vector<RelationalGraphStore::OverlayShortcutRow> rows;
  rows.reserve(num_shortcuts_);
  for (size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    for (size_t bi = 0; bi < cell.boundary.size(); ++bi) {
      for (const int32_t bj : cell.shortcut_targets[bi]) {
        rows.push_back({static_cast<int32_t>(c), cell.boundary[bi],
                        cell.boundary[static_cast<size_t>(bj)]});
      }
    }
  }
  return rows;
}

Result<std::shared_ptr<const OverlayCustomization>> CustomizeOverlay(
    const OverlayTopology& topology,
    std::span<RelationalGraphStore* const> stores,
    uint64_t metric_version) {
  if (stores.empty()) {
    return Status::InvalidArgument("CustomizeOverlay needs a store");
  }
  const auto started = std::chrono::steady_clock::now();
  const size_t num_cells = topology.num_cells();
  auto custom = std::make_shared<OverlayCustomization>();
  custom->metric_version_ = metric_version;
  custom->cells_.resize(num_cells);
  custom->cross_.resize(topology.num_nodes());

  // One thread per store replica, each customizing a disjoint cell
  // stripe; the shared buffer pool sees only read traffic. The
  // single-store case runs inline.
  const size_t num_threads = std::min(stores.size(), num_cells);
  std::vector<std::vector<CellCustomization>> done(num_threads);
  std::vector<Status> status(num_threads, Status::OK());
  auto worker = [&](size_t t) {
    for (size_t c = t; c < num_cells; c += num_threads) {
      auto r = CustomizeCell(topology, static_cast<int32_t>(c), stores[t]);
      if (!r.ok()) {
        status[t] = r.status();
        return;
      }
      done[t].push_back(std::move(r).value());
    }
  };
  if (num_threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back(worker, t);
    }
    for (std::thread& t : threads) t.join();
  }
  for (size_t t = 0; t < num_threads; ++t) {
    ATIS_RETURN_NOT_OK(status[t]);
    size_t i = 0;
    for (size_t c = t; c < num_cells; c += num_threads, ++i) {
      CellCustomization& cc = done[t][i];
      custom->cells_[c] = std::make_shared<const
          OverlayCustomization::CellTables>(std::move(cc.tables));
      for (auto& [node, arcs] : cc.cross) {
        custom->cross_[static_cast<size_t>(node)] = std::move(arcs);
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  PublishCustomizationMetrics(seconds, metric_version, num_cells);
  return std::shared_ptr<const OverlayCustomization>(std::move(custom));
}

Result<std::shared_ptr<const OverlayCustomization>> RecustomizeForEdges(
    const OverlayTopology& topology, const OverlayCustomization& previous,
    std::span<const std::pair<NodeId, NodeId>> edges,
    RelationalGraphStore* store, size_t* cells_changed,
    uint64_t metric_version) {
  const auto started = std::chrono::steady_clock::now();
  // Dedupe the work across the batch: a cell rebuild subsumes every
  // same-cell update inside it, a node adjacency re-read subsumes every
  // cross-cell update out of that node.
  std::set<int32_t> cells_to_rebuild;
  std::set<NodeId> cross_nodes;
  for (const auto& [u, v] : edges) {
    if (u < 0 || static_cast<size_t>(u) >= topology.num_nodes() || v < 0 ||
        static_cast<size_t>(v) >= topology.num_nodes()) {
      return Status::InvalidArgument("edge endpoints outside the overlay");
    }
    if (topology.CellOf(u) == topology.CellOf(v)) {
      cells_to_rebuild.insert(topology.CellOf(u));
    } else {
      cross_nodes.insert(u);
    }
  }
  auto custom = std::make_shared<OverlayCustomization>();
  custom->metric_version_ = metric_version;
  custom->cells_ = previous.cells_;  // shared: copy-on-write per cell
  custom->cross_ = previous.cross_;
  for (const int32_t c : cells_to_rebuild) {
    ATIS_ASSIGN_OR_RETURN(CellCustomization cc,
                          CustomizeCell(topology, c, store));
    custom->cells_[static_cast<size_t>(c)] = std::make_shared<const
        OverlayCustomization::CellTables>(std::move(cc.tables));
    for (auto& [node, arcs] : cc.cross) {
      custom->cross_[static_cast<size_t>(node)] = std::move(arcs);
      cross_nodes.erase(node);  // the rebuild already refreshed it
    }
  }
  for (const NodeId u : cross_nodes) {
    ATIS_ASSIGN_OR_RETURN(auto adj, store->FetchAdjacency(u));
    std::vector<graph::Edge> cross;
    for (const auto& e : adj) {
      if (topology.CellOf(e.end) != topology.CellOf(u)) {
        cross.push_back({e.end, e.cost});
      }
    }
    custom->cross_[static_cast<size_t>(u)] = std::move(cross);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  PublishCustomizationMetrics(seconds, metric_version,
                              cells_to_rebuild.size());
  if (cells_changed != nullptr) *cells_changed = cells_to_rebuild.size();
  return std::shared_ptr<const OverlayCustomization>(std::move(custom));
}

Result<std::shared_ptr<const OverlayTopology>> PersistAndLoadOverlayTopology(
    const OverlayTopology& topology, RelationalGraphStore* store,
    const Graph& g) {
  storage::IoMeter& meter = store->node_relation().pool()->disk()->meter();
  const storage::IoCounters before = meter.counters();
  const auto started = std::chrono::steady_clock::now();

  ATIS_RETURN_NOT_OK(store->StoreOverlayTopology(topology.ToCellRows(),
                                                 topology.ToShortcutRows()));
  ATIS_ASSIGN_OR_RETURN(auto rows, store->LoadOverlayTopology());
  ATIS_ASSIGN_OR_RETURN(
      OverlayTopology loaded,
      OverlayTopology::FromRows(rows.first, rows.second, g,
                                topology.cell_order()));

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  const storage::IoCounters delta = meter.counters() - before;
  auto& reg = obs::MetricsRegistry::Default();
  reg.GetGauge("atis_overlay_cells",
               "Cells of the installed overlay partition")
      .Set(static_cast<double>(loaded.num_cells()));
  reg.GetGauge("atis_overlay_boundary_nodes",
               "Boundary nodes of the installed overlay partition")
      .Set(static_cast<double>(loaded.num_boundary_nodes()));
  reg.GetGauge("atis_overlay_shortcuts",
               "Boundary-to-boundary shortcut pairs in the overlay")
      .Set(static_cast<double>(loaded.num_shortcuts()));
  reg.GetGauge("atis_overlay_preprocess_seconds",
               "Wall time of the latest overlay-topology persist + load")
      .Set(seconds);
  reg.GetCounter("atis_overlay_preprocess_blocks_read_total",
                 "Blocks read persisting/loading overlay relations")
      .Increment(delta.blocks_read);
  reg.GetCounter("atis_overlay_preprocess_blocks_written_total",
                 "Blocks written persisting/loading overlay relations")
      .Increment(delta.blocks_written);
  return std::make_shared<const OverlayTopology>(std::move(loaded));
}

}  // namespace atis::core
