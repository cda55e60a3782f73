#include "core/overlay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "graph/shortest_path.h"
#include "graph/spatial_layout.h"
#include "obs/metrics.h"

namespace atis::core {

using graph::Graph;
using graph::NodeId;
using graph::RelationalGraphStore;

namespace {

constexpr uint32_t kMaxCellOrder = 8;

/// One cell's freshly customized state: its table plus the current cross
/// arcs of its boundary members.
struct CellCustomization {
  OverlayCustomization::CellTables tables;
  OverlayCustomization::CrossArcs cross;
};

/// Splits every member's out-edges in `metric` into the intra-cell graph
/// and cross arcs, and runs one restricted Dijkstra per member: the rows
/// of the in-cell all-pairs table.
Result<CellCustomization> CustomizeCell(const OverlayTopology& topo,
                                        int32_t c, const Graph& metric) {
  const OverlayTopology::Cell& cell = topo.cell(c);
  const size_t m = cell.members.size();
  std::vector<std::vector<std::pair<int32_t, double>>> adj(m);
  CellCustomization out;
  out.cross.resize(cell.boundary.size());
  for (size_t mi = 0; mi < m; ++mi) {
    const NodeId u = cell.members[mi];
    for (const graph::Edge& e : metric.Neighbors(u)) {
      if (topo.CellOf(e.to) == c) {
        adj[mi].emplace_back(topo.MemberIndexOf(e.to), e.cost);
      } else if (topo.IsBoundary(u)) {
        out.cross[static_cast<size_t>(topo.BoundaryIndexOf(u))].push_back(e);
      } else {
        return Status::Corruption(
            "metric edge leaves its cell from a non-boundary node");
      }
    }
  }
  out.tables.incell_dist.resize(m);
  out.tables.incell_pred.resize(m);
  for (size_t mi = 0; mi < m; ++mi) {
    graph::ShortestPathSearch search(m);
    search.Seed(static_cast<int32_t>(mi), 0.0);
    search.Run([&adj](int32_t u, const auto& relax) {
      for (const auto& [v, cost] : adj[static_cast<size_t>(u)]) {
        relax(v, cost);
      }
    });
    out.tables.incell_dist[mi] = search.TakeDistances();
    out.tables.incell_pred[mi] = search.TakeParents();
  }
  return out;
}

/// InvalidArgument unless `metric` has exactly the topology's nodes.
Status CheckMetric(const OverlayTopology& topology, const Graph& metric) {
  if (metric.num_nodes() != topology.num_nodes()) {
    return Status::InvalidArgument(
        "overlay metric and topology disagree on the node count");
  }
  return Status::OK();
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
                 "Cells whose tables were (re)computed")
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
  uint64_t entries = 0;
  for (const Cell& cell : cells_) {
    entries += uint64_t{cell.members.size()} * cell.members.size();
  }
  if (entries > kMaxTableEntries) {
    return Status::InvalidArgument(
        "overlay tables would hold " + std::to_string(entries) +
        " entries, over the cap of " + std::to_string(kMaxTableEntries) +
        "; raise cell_order");
  }
  return Status::OK();
}

Result<OverlayTopology> OverlayTopology::FromRows(
    const std::vector<RelationalGraphStore::OverlayCellRow>& cells,
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
  // The persisted boundary flags must agree with the structure this graph
  // implies — a mismatched map file is corruption, not a quiet
  // re-derivation.
  for (const auto& row : cells) {
    if (topo.IsBoundary(row.node) != row.is_boundary) {
      return Status::InvalidArgument(
          "persisted overlay boundary flags do not match the graph");
    }
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

Result<std::shared_ptr<const OverlayCustomization>> CustomizeOverlay(
    const OverlayTopology& topology, const Graph& metric,
    uint64_t metric_version) {
  ATIS_RETURN_NOT_OK(CheckMetric(topology, metric));
  const auto started = std::chrono::steady_clock::now();
  const size_t num_cells = topology.num_cells();
  auto custom = std::make_shared<OverlayCustomization>();
  custom->topology_ = &topology;
  custom->metric_version_ = metric_version;
  custom->cells_.resize(num_cells);
  custom->cross_.resize(num_cells);
  for (size_t c = 0; c < num_cells; ++c) {
    ATIS_ASSIGN_OR_RETURN(
        CellCustomization cc,
        CustomizeCell(topology, static_cast<int32_t>(c), metric));
    custom->cells_[c] = std::make_shared<const
        OverlayCustomization::CellTables>(std::move(cc.tables));
    custom->cross_[c] = std::make_shared<const
        OverlayCustomization::CrossArcs>(std::move(cc.cross));
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
    std::span<const std::pair<NodeId, NodeId>> edges, const Graph& metric,
    size_t* cells_changed, uint64_t metric_version) {
  ATIS_RETURN_NOT_OK(CheckMetric(topology, metric));
  const auto started = std::chrono::steady_clock::now();
  // Dedupe the work across the batch: a cell rebuild subsumes every
  // update inside or out of that cell, a node adjacency re-read subsumes
  // every cross-cell update out of that node.
  std::set<int32_t> cells_to_rebuild;
  std::map<int32_t, std::set<NodeId>> cross_tails;  // [cell] -> tails
  for (const auto& [u, v] : edges) {
    if (u < 0 || static_cast<size_t>(u) >= topology.num_nodes() || v < 0 ||
        static_cast<size_t>(v) >= topology.num_nodes()) {
      return Status::InvalidArgument("edge endpoints outside the overlay");
    }
    if (topology.CellOf(u) == topology.CellOf(v)) {
      cells_to_rebuild.insert(topology.CellOf(u));
    } else if (topology.IsBoundary(u)) {  // an interior tail has no arcs
      cross_tails[topology.CellOf(u)].insert(u);
    }
  }
  auto custom = std::make_shared<OverlayCustomization>();
  custom->topology_ = &topology;
  custom->metric_version_ = metric_version;
  // Shared: copy-on-write per cell.
  custom->cells_ = previous.cells_;
  custom->cross_ = previous.cross_;
  for (const int32_t c : cells_to_rebuild) {
    ATIS_ASSIGN_OR_RETURN(CellCustomization cc,
                          CustomizeCell(topology, c, metric));
    custom->cells_[static_cast<size_t>(c)] = std::make_shared<const
        OverlayCustomization::CellTables>(std::move(cc.tables));
    custom->cross_[static_cast<size_t>(c)] = std::make_shared<const
        OverlayCustomization::CrossArcs>(std::move(cc.cross));
  }
  for (const auto& [c, tails] : cross_tails) {
    if (cells_to_rebuild.contains(c)) continue;  // already refreshed
    auto arcs = std::make_shared<OverlayCustomization::CrossArcs>(
        *previous.cross_[static_cast<size_t>(c)]);
    for (const NodeId u : tails) {
      std::vector<graph::Edge>& out =
          (*arcs)[static_cast<size_t>(topology.BoundaryIndexOf(u))];
      out.clear();
      for (const graph::Edge& e : metric.Neighbors(u)) {
        if (topology.CellOf(e.to) != c) out.push_back(e);
      }
    }
    custom->cross_[static_cast<size_t>(c)] = std::move(arcs);
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

  ATIS_RETURN_NOT_OK(store->StoreOverlayTopology(topology.ToCellRows()));
  ATIS_ASSIGN_OR_RETURN(auto rows, store->LoadOverlayTopology());
  ATIS_ASSIGN_OR_RETURN(
      OverlayTopology loaded,
      OverlayTopology::FromRows(rows, g, topology.cell_order()));

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
  reg.GetGauge("atis_overlay_preprocess_seconds",
               "Wall time of the latest overlay-topology persist + load")
      .Set(seconds);
  reg.GetCounter("atis_overlay_preprocess_blocks_read_total",
                 "Blocks read persisting/loading the overlay relation")
      .Increment(delta.blocks_read);
  reg.GetCounter("atis_overlay_preprocess_blocks_written_total",
                 "Blocks written persisting/loading the overlay relation")
      .Increment(delta.blocks_written);
  return std::make_shared<const OverlayTopology>(std::move(loaded));
}

}  // namespace atis::core
