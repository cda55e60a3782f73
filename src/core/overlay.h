// Partition-boundary overlay with fast metric customization — "A* Version 5".
//
// ALT (Version 4) is the ceiling of per-query cleverness: every search
// still explores the base graph, and every traffic update invalidates the
// whole serving cache. The customizable-route-planning line splits the
// work differently:
//
//   Topology phase (once per map):   partition the nodes into Hilbert
//     cells and mark boundary nodes (endpoints of cell-crossing edges).
//     The partition is metric-independent, so it persists as one relation
//     (OC) through the metered storage layer — paid once per map.
//
//   Customization phase (per metric): per cell, run one restricted
//     Dijkstra from each member over the cell's intra-cell graph. The
//     member-rooted trees form the cell's in-cell all-pairs table, its
//     only table: a row rooted at a boundary node prices that node's
//     shortcuts (a boundary pair is connected exactly when its entry is
//     finite) and finishing legs, a column at a boundary node gives the
//     member -> boundary seed legs, and any entry answers a same-cell
//     query with no search at all. Customization is a pure function of
//     the topology and the metric, an in-memory graph holding the costs
//     the store serves (WithStoredEdgeCosts; RouteServer passes the
//     metric snapshot it publishes), so it reads no storage. Cells are
//     independent: a single-edge traffic update re-customizes only the
//     affected cell (same-cell edge) or re-reads one node's cross arcs
//     (cross-cell edge) instead of rebuilding the index.
//
//   Query phase: DbSearchEngine Version 5 runs A* over *boundary nodes
//     only* — seeded with the source's row at the boundary columns,
//     stepping along shortcut and cross-cell arcs, finishing through the
//     boundary rows at the destination's column — so a cross-cell query
//     settles a handful of overlay nodes and touches the store only for
//     the two endpoint probes.
//
// Exactness: any path decomposes at its cell-boundary crossings; every
// crossing node is a boundary node, intra-cell segments are represented
// exactly by the customized tables, inter-cell segments by the original
// cross edges. Same-cell queries additionally consult the in-cell
// all-pairs entry (a shortest path that never leaves the cell has no
// boundary decomposition) and take the cheaper of the two; the in-cell
// candidate also bounds the overlay search from above, so short local
// trips terminate after a handful of overlay pops.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/relational_graph.h"
#include "util/status.h"

namespace atis::core {

struct OverlayOptions {
  /// The partition is the 2^cell_order x 2^cell_order Hilbert grid over
  /// the map's bounding box (graph/spatial_layout.h). Smaller orders mean
  /// fewer, larger cells: fewer overlay expansions per query but dearer
  /// per-cell re-customization and O(|members|^2) in-cell tables. Order 1
  /// (4 cells) is query-optimal at this repo's map scale (<= a few
  /// thousand nodes); raise it for larger maps.
  uint32_t cell_order = 1;
};

/// The metric-independent half of the overlay index. Immutable after
/// construction; shared read-only between threads.
class OverlayTopology {
 public:
  struct Cell {
    std::vector<graph::NodeId> members;   ///< sorted by node id
    std::vector<graph::NodeId> boundary;  ///< sorted subset of members
    /// boundary[i]'s index in `members`.
    std::vector<int32_t> boundary_member_idx;
  };

  /// Cap on the customized tables' total size, sum over cells of
  /// |members|^2 entries (a distance and a parent each): 2^26 entries is
  /// ~0.8 GB. One cell of 8,192 nodes fits; a larger map needs more cells.
  static constexpr uint64_t kMaxTableEntries = uint64_t{1} << 26;

  /// Partitions `g` on the Hilbert grid and derives boundary nodes. Cells
  /// are numbered densely in Hilbert-curve order. A degenerate bounding
  /// box (absent or constant geometry) yields a single cell holding every
  /// node — queries then always take the in-cell direct lookup.
  /// InvalidArgument on an empty graph, cell_order outside [0, 8], or a
  /// partition whose tables would exceed kMaxTableEntries.
  static Result<OverlayTopology> Build(const graph::Graph& g,
                                       const OverlayOptions& options);

  /// Rebuilds a topology from persisted OC rows; coordinates re-attach
  /// from `g` (quantised, as Build stores them). InvalidArgument when the
  /// rows do not cover g's nodes, their boundary flags disagree with g, or
  /// the tables would exceed kMaxTableEntries.
  static Result<OverlayTopology> FromRows(
      const std::vector<graph::RelationalGraphStore::OverlayCellRow>& cells,
      const graph::Graph& g, uint32_t cell_order);

  /// Flattens to OC rows for RelationalGraphStore persistence.
  std::vector<graph::RelationalGraphStore::OverlayCellRow> ToCellRows()
      const;

  uint32_t cell_order() const { return cell_order_; }
  size_t num_nodes() const { return cell_of_.size(); }
  size_t num_cells() const { return cells_.size(); }
  size_t num_boundary_nodes() const { return num_boundary_; }

  int32_t CellOf(graph::NodeId u) const {
    return cell_of_[static_cast<size_t>(u)];
  }
  bool IsBoundary(graph::NodeId u) const {
    return boundary_idx_of_[static_cast<size_t>(u)] >= 0;
  }
  /// u's index in its cell's `members` vector.
  int32_t MemberIndexOf(graph::NodeId u) const {
    return member_idx_of_[static_cast<size_t>(u)];
  }
  /// u's index in its cell's `boundary` vector; -1 for interior nodes.
  int32_t BoundaryIndexOf(graph::NodeId u) const {
    return boundary_idx_of_[static_cast<size_t>(u)];
  }
  const Cell& cell(int32_t c) const {
    return cells_[static_cast<size_t>(c)];
  }
  /// Quantised coordinates (the store's geometry) for estimators.
  const graph::Point& point(graph::NodeId u) const {
    return points_[static_cast<size_t>(u)];
  }

 private:
  OverlayTopology() = default;
  /// Derives member/boundary structure from cell_of_ + g and checks the
  /// table-size cap.
  Status Finalize(const graph::Graph& g);

  uint32_t cell_order_ = 0;
  std::vector<int32_t> cell_of_;        // [node] -> dense cell id
  std::vector<int32_t> member_idx_of_;  // [node] -> index in cell members
  std::vector<int32_t> boundary_idx_of_;  // [node] -> boundary index or -1
  std::vector<graph::Point> points_;      // [node] quantised coordinates
  std::vector<Cell> cells_;
  size_t num_boundary_ = 0;
};

/// The metric-dependent half: per-cell distance tables plus the current
/// cross-cell arc costs. Immutable once published; incremental
/// re-customization copies the customization shell and shares the
/// untouched cells' tables and cross arcs (copy-on-write per cell), so
/// in-flight readers keep a consistent snapshot. Reads go through the
/// topology it was customized for, which must outlive it: an OverlayIndex
/// carries both, and EnableOverlay rejects an index that pairs it with
/// another.
class OverlayCustomization {
 public:
  /// The one table of a cell, indexed by the topology cell's member
  /// indices. incell_dist[si][mi] = cheapest intra-cell path members[si]
  /// -> members[mi] (+inf unreachable); incell_pred[si][mi] = mi's
  /// predecessor member index on that path (-1 at the root or when
  /// unreachable). Every overlay arc reads it: seed legs are columns at
  /// the boundary members, shortcuts and finishing legs are boundary
  /// rows, and a same-cell query is one entry — the classic CRP
  /// preprocessing/query trade. O(|members|^2) per cell, capped by
  /// OverlayTopology::kMaxTableEntries.
  struct CellTables {
    std::vector<std::vector<double>> incell_dist;
    std::vector<std::vector<int32_t>> incell_pred;
  };
  /// Current-metric cross-cell out-edges of one cell's boundary nodes,
  /// indexed by boundary index.
  using CrossArcs = std::vector<std::vector<graph::Edge>>;

  uint64_t metric_version() const { return metric_version_; }
  /// The topology these tables were customized for.
  const OverlayTopology& topology() const { return *topology_; }
  const CellTables& cell(int32_t c) const {
    return *cells_[static_cast<size_t>(c)];
  }
  /// Current-metric cross-cell out-edges of u (empty for interior nodes).
  const std::vector<graph::Edge>& cross_arcs(graph::NodeId u) const {
    static const std::vector<graph::Edge> kNone;
    const int32_t bi = topology_->BoundaryIndexOf(u);
    if (bi < 0) return kNone;
    return (*cross_[static_cast<size_t>(topology_->CellOf(u))])
        [static_cast<size_t>(bi)];
  }

 private:
  friend Result<std::shared_ptr<const OverlayCustomization>>
  CustomizeOverlay(const OverlayTopology&, const graph::Graph&, uint64_t);
  friend Result<std::shared_ptr<const OverlayCustomization>>
  RecustomizeForEdges(
      const OverlayTopology&, const OverlayCustomization&,
      std::span<const std::pair<graph::NodeId, graph::NodeId>>,
      const graph::Graph&, size_t*, uint64_t);

  const OverlayTopology* topology_ = nullptr;
  uint64_t metric_version_ = 0;
  std::vector<std::shared_ptr<const CellTables>> cells_;  // [cell]
  std::vector<std::shared_ptr<const CrossArcs>> cross_;   // [cell]
};

/// Computes every cell's tables and cross arcs for `metric`, a graph over
/// the topology's nodes holding the costs the store serves (pass
/// WithStoredEdgeCosts(g), so every table entry is exactly what a search
/// over the store would sum). InvalidArgument when the node counts
/// differ; Corruption when `metric` has an edge that leaves its cell from
/// a node the topology calls interior.
Result<std::shared_ptr<const OverlayCustomization>> CustomizeOverlay(
    const OverlayTopology& topology, const graph::Graph& metric,
    uint64_t metric_version);

/// Batched re-customization for a whole update batch in one shot, over
/// `metric` already holding the batch's costs: the affected cells are
/// deduplicated first, so a hundred updates inside one cell rebuild that
/// cell once, not a hundred times. Same-cell edges mark their cell for
/// rebuild; cross-cell edges re-read just the tail node's out-edges. The
/// result's metric_version is `metric_version` verbatim — the caller (the
/// server's write path) aligns overlay versions with its snapshot
/// versions instead of counting per-edge steps. *cells_changed reports
/// the number of distinct cells rebuilt.
Result<std::shared_ptr<const OverlayCustomization>> RecustomizeForEdges(
    const OverlayTopology& topology, const OverlayCustomization& previous,
    std::span<const std::pair<graph::NodeId, graph::NodeId>> edges,
    const graph::Graph& metric, size_t* cells_changed,
    uint64_t metric_version);

/// The pair a Version 5 search needs, swapped atomically as one unit on
/// re-customization.
struct OverlayIndex {
  std::shared_ptr<const OverlayTopology> topology;
  std::shared_ptr<const OverlayCustomization> customization;
};

/// Persists `topology` into `store`'s OC relation and loads it back
/// through the metered storage path (the index the engine serves must be
/// exactly what the database holds). Publishes
/// atis_overlay_{cells,boundary_nodes} gauges,
/// atis_overlay_preprocess_seconds, and the preprocess block counters to
/// MetricsRegistry::Default().
Result<std::shared_ptr<const OverlayTopology>> PersistAndLoadOverlayTopology(
    const OverlayTopology& topology, graph::RelationalGraphStore* store,
    const graph::Graph& g);

}  // namespace atis::core
