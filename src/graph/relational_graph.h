// Database-resident graph: the paper's pair of relations.
//
//   S (edge relation, read-only):  <begin_node, end_node, edge_cost>
//     - primary random-hash index on begin_node
//     - T_s = 32 bytes  =>  Bf_s = 128 tuples/block (Table 4A)
//   R (node relation, working set): <node_id, x, y, status, path, path_cost>
//     - primary ISAM index on node_id
//     - T_r = 16 bytes  =>  Bf_r = 256 tuples/block (Table 4A)
//
// The `status` field implements the node lists: null (untouched), open
// (frontierSet), closed (exploredSet), current. The `path` field points to
// the predecessor node on the best known path; following it from the
// destination reconstructs the route. Coordinates are stored as 1/16-unit
// fixed point so R's tuple fits the paper's 16 bytes; edge costs in S are
// computed by callers from the same quantised coordinates, keeping the
// geometric estimators consistent with stored geometry.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/spatial_layout.h"
#include "relational/operators.h"
#include "relational/relation.h"

namespace atis::graph {

enum class NodeStatus : int8_t {
  kNull = 0,
  kOpen = 1,     ///< in frontierSet
  kClosed = 2,   ///< in exploredSet
  kCurrent = 3,  ///< being expanded this iteration
};

class RelationalGraphStore {
 public:
  /// Fixed-point scale for stored coordinates.
  static constexpr double kCoordScale = 16.0;
  /// Most nodes a store holds: R's node ids are 16-bit.
  static constexpr size_t kMaxNodes = 32767;
  /// Largest |coordinate * kCoordScale| R's int16 x/y fields hold.
  static constexpr int64_t kMaxFixedCoord = 32767;

  struct NodeRow {
    NodeId id = kInvalidNode;
    double x = 0.0;
    double y = 0.0;
    NodeStatus status = NodeStatus::kNull;
    NodeId pred = kInvalidNode;  ///< the "path" field
    double path_cost = 0.0;      ///< C(s, id); +inf when unreached
  };

  struct EdgeRow {
    NodeId begin = kInvalidNode;
    NodeId end = kInvalidNode;
    double cost = 0.0;
  };

  /// One tuple of the optional landmarkDist relation L: the exact shortest
  /// path costs landmark -> node (`dist_from`) and node -> landmark
  /// (`dist_to`), both needed for admissible ALT bounds on directed maps.
  /// Distances are stored as 8-byte floats so the persisted column round
  /// trips bit-exactly — a rounded-up distance would make the estimator
  /// overestimate.
  struct LandmarkDistRow {
    int32_t ord = 0;                 ///< landmark index in selection order
    NodeId landmark = kInvalidNode;  ///< the landmark's node id
    NodeId node = kInvalidNode;
    double dist_from = 0.0;  ///< d(landmark -> node); +inf if unreachable
    double dist_to = 0.0;    ///< d(node -> landmark); +inf if unreachable
  };

  /// One tuple of the optional overlayCell relation OC: the cell a node
  /// was assigned to by the partition-boundary overlay (core/overlay.h)
  /// and whether one of its edges crosses cells. Pure topology — no
  /// metric-dependent data — so the relation survives traffic updates.
  struct OverlayCellRow {
    NodeId node = kInvalidNode;
    int32_t cell = 0;
    bool is_boundary = false;
  };

  /// Build-time options. The physical layout decides the heap-file
  /// insertion order of node and edge tuples; logical contents and index
  /// behaviour are identical across layouts (per-node adjacency order is
  /// preserved), only which tuples share a block changes.
  struct LoadOptions {
    StoreLayout layout = StoreLayout::kRowOrder;
    /// Run-buffer budget for the external sorts a streaming load performs
    /// (ignored by the in-memory Load path).
    size_t sort_budget_bytes = 1 << 20;
  };

  explicit RelationalGraphStore(storage::BufferPool* pool);

  /// Populates S and R from an in-memory graph and builds both primary
  /// indexes. Node coordinates are quantised to kCoordScale. May be called
  /// once per store. InvalidArgument beyond kMaxNodes nodes, OutOfRange
  /// for a coordinate beyond kMaxFixedCoord in fixed point.
  Status Load(const Graph& g);
  Status Load(const Graph& g, const LoadOptions& options);

  /// Out-of-core build: populates S and R straight from an ATISG1/ATISG2
  /// file without ever materialising a Graph. Node tuples are external-
  /// sorted by Hilbert key and edge tuples by the rank of their begin
  /// node (bounded-memory run generation + k-way merge through the
  /// metered DiskManager — see storage/spill_sort.h), then heap-inserted
  /// exactly as Load would have inserted them, so the resulting store —
  /// page assignments, per-node RecordId adjacency directory, indexes —
  /// is identical to loading the materialised graph. The single-argument
  /// form takes the layout from the file header.
  Status LoadStreaming(const std::string& path);
  Status LoadStreaming(const std::string& path, const LoadOptions& options);

  /// The physical layout this store was loaded with.
  StoreLayout layout() const { return layout_; }

  relational::Relation& edge_relation() { return s_; }
  const relational::Relation& edge_relation() const { return s_; }
  relational::Relation& node_relation() { return r_; }
  const relational::Relation& node_relation() const { return r_; }

  size_t num_nodes() const { return r_.num_tuples(); }
  size_t num_edges() const { return s_.num_tuples(); }

  /// Adjacency list of u. Under kRowOrder this is the paper's access
  /// path — an index lookup on S.begin_node — kept bit-identical, metered
  /// blocks included. Under kHilbert the store serves the fetch from the
  /// clustered layout instead: each node's edge tuples were inserted
  /// contiguously and their record ids retained, so the fetch touches
  /// only the node's own data pages and skips the hash index, whose
  /// id-keyed buckets scatter spatially-near lookups across unrelated
  /// pages by construction. Result contents and order are identical
  /// either way (the per-node insertion sequence).
  Result<std::vector<EdgeRow>> FetchAdjacency(NodeId u) const;

  /// Node row via the ISAM index (returns the record id for updates),
  /// decoded straight from the packed row on its page.
  Result<std::pair<storage::RecordId, NodeRow>> GetNode(NodeId u) const;

  /// Rewrites R's row at `rid` in place on its page.
  Status UpdateNode(storage::RecordId rid, const NodeRow& row);

  /// GetNode(u) and, when `improve(row)` changes the row and returns true,
  /// UpdateNode of the changed row — on one pin of the row's page, which
  /// GetNode and UpdateNode would each fetch.
  Status RelaxNode(NodeId u, FunctionRef<bool(NodeRow&)> improve);

  /// One REPLACE over R: status := null, path := none, path_cost := +inf,
  /// written in place. (The algorithms' initialisation step.)
  Status ResetSearchState();

  /// REPLACE of one S tuple's edge_cost (a traffic update). NotFound when
  /// the directed segment is absent. Must not race with in-flight queries.
  Status UpdateEdgeCost(NodeId u, NodeId v, double cost);

  /// (Re)creates the landmarkDist relation L from `rows` (APPENDs, metered
  /// like every other statement). Replaces any previous landmark column.
  Status StoreLandmarkDistances(const std::vector<LandmarkDistRow>& rows);

  /// Full scan of L in storage order; FailedPrecondition when no landmark
  /// column has been stored. Every block read is metered — this is the
  /// "load once per store replica" cost of the ALT estimator.
  Result<std::vector<LandmarkDistRow>> LoadLandmarkDistances() const;

  bool has_landmark_distances() const { return landmark_ != nullptr; }
  const relational::Relation* landmark_relation() const {
    return landmark_.get();
  }

  /// (Re)creates the overlay-topology relation OC (APPENDs, metered).
  /// `cells` must cover every node exactly once. Replaces any previously
  /// stored overlay topology.
  Status StoreOverlayTopology(const std::vector<OverlayCellRow>& cells);

  /// Full scan of OC in storage order; FailedPrecondition when no overlay
  /// topology has been stored. Metered — this is the "load once per store
  /// replica" cost of the overlay index.
  Result<std::vector<OverlayCellRow>> LoadOverlayTopology() const;

  bool has_overlay_topology() const { return overlay_cells_ != nullptr; }

  /// Quantised coordinate of a node as stored (used by estimators so the
  /// heuristic sees exactly the stored geometry).
  static double Quantise(double coord) {
    return std::round(coord * kCoordScale) / kCoordScale;
  }

  // Row conversions (schemas below are fixed for the store's lifetime).
  // Rows are read and written packed: reads decode the row in place on its
  // page, APPENDs write a packed row, and UpdateNode rewrites it in place.
  static NodeRow NodeFromRow(const relational::RowView& row);
  /// Writes every field of `row` into a packed R row.
  static void WriteNode(const NodeRow& row, relational::RowWriter* out);
  static EdgeRow EdgeFromRow(const relational::RowView& row);
  /// Writes every field of `row` into a packed S row.
  static void WriteEdge(const EdgeRow& row, relational::RowWriter* out);
  static LandmarkDistRow LandmarkDistFromRow(const relational::RowView& row);
  static OverlayCellRow OverlayCellFromRow(const relational::RowView& row);

  /// R's node_id and status fields, for statements that read them on the
  /// packed row (RowView::Int(kStatusField)) before deciding to decode.
  static constexpr size_t kIdField = 0;
  static constexpr size_t kStatusField = 3;

  static relational::Schema EdgeSchema();
  static relational::Schema NodeSchema();
  static relational::Schema LandmarkDistSchema();
  static relational::Schema OverlayCellSchema();

  /// Field names (indexable keys).
  static constexpr const char* kBeginField = "begin_node";
  static constexpr const char* kNodeIdField = "node_id";

 private:
  /// R's record id for node u, via the ISAM index.
  Result<storage::RecordId> NodeRid(NodeId u) const;
  /// APPENDs one packed row to R / S.
  Status InsertNode(const NodeRow& row);
  Result<storage::RecordId> InsertEdge(const EdgeRow& row);

  relational::Relation s_;
  relational::Relation r_;
  std::unique_ptr<relational::Relation> landmark_;  ///< L; null until stored
  std::unique_ptr<relational::Relation> overlay_cells_;  ///< OC
  bool loaded_ = false;
  StoreLayout layout_ = StoreLayout::kRowOrder;
  /// adjacency_rids_[u] = u's edge tuples in insertion order — the
  /// clustered access path FetchAdjacency uses under kHilbert. Stable for
  /// the store's lifetime (S tuples are updated in place, never moved).
  std::vector<std::vector<storage::RecordId>> adjacency_rids_;
};

}  // namespace atis::graph
