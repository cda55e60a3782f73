#include "graph/relational_graph.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>

#include "graph/graph_io.h"
#include "storage/spill_sort.h"

namespace atis::graph {

using relational::Field;
using relational::FieldType;
using relational::RowView;
using relational::RowWriter;
using relational::Schema;

namespace {
// Field positions in the packed tuples (see EdgeSchema / NodeSchema).
constexpr size_t kEBegin = 0;
constexpr size_t kEEnd = 1;
constexpr size_t kECost = 2;
constexpr size_t kNId = RelationalGraphStore::kIdField;
constexpr size_t kNX = 1;
constexpr size_t kNY = 2;
constexpr size_t kNStatus = RelationalGraphStore::kStatusField;
constexpr size_t kNPred = 4;
constexpr size_t kNCost = 5;

int64_t FixedPoint(double coord) {
  return static_cast<int64_t>(
      std::llround(coord * RelationalGraphStore::kCoordScale));
}

// The store's hard limits, shared by Load and LoadStreaming.
Status CheckNodeCount(size_t num_nodes) {
  if (num_nodes <= RelationalGraphStore::kMaxNodes) return Status::OK();
  return Status::InvalidArgument(
      "graph has " + std::to_string(num_nodes) +
      " nodes; R's 16-bit node ids limit the store to " +
      std::to_string(RelationalGraphStore::kMaxNodes));
}

Status CheckCoordinates(NodeId u, double x, double y) {
  for (const double coord : {x, y}) {
    const int64_t fixed = FixedPoint(coord);
    if (std::abs(fixed) > RelationalGraphStore::kMaxFixedCoord) {
      return Status::OutOfRange(
          "node " + std::to_string(u) + " coordinate " +
          std::to_string(coord) + " is " + std::to_string(fixed) +
          " in fixed point; R's int16 fields hold at most +/-" +
          std::to_string(RelationalGraphStore::kMaxFixedCoord));
    }
  }
  return Status::OK();
}

/// APPENDs one packed row to `rel`, its fields set by `write(RowWriter&)`
/// on a zeroed row (so padding bytes are zero, as on every stored row).
template <typename Write>
Result<storage::RecordId> InsertRow(relational::Relation* rel,
                                    Write&& write) {
  std::array<uint8_t, 32> bytes{};  // the widest schema here is S's 32
  const size_t size = rel->schema().tuple_size();
  if (size > bytes.size()) {
    return Status::Internal("relation " + rel->name() +
                            " has rows wider than InsertRow's buffer");
  }
  RowWriter row(rel->schema(), {bytes.data(), size});
  write(row);
  return rel->InsertPacked({bytes.data(), size});
}

/// R's initial row for a node: unreached, no predecessor.
RelationalGraphStore::NodeRow FreshNode(NodeId id, double x, double y) {
  RelationalGraphStore::NodeRow row;
  row.id = id;
  row.x = x;
  row.y = y;
  row.status = NodeStatus::kNull;
  row.pred = kInvalidNode;
  row.path_cost = std::numeric_limits<double>::infinity();
  return row;
}

// External-sort records for the streaming load (storage/spill_sort.h).
// Node tuples sort by Hilbert key with ties broken by insertion (= id)
// order via the sorter's stability — the same (key, id) order
// ComputeNodeOrder produces. Edge tuples sort by the begin node's rank in
// that order; stability preserves each node's file-order adjacency, which
// is the Neighbors order the in-memory Load preserves.
struct NodeSpillRecord {
  uint64_t key;
  NodeId id;
  double x;
  double y;
};

struct EdgeSpillRecord {
  uint64_t key;  ///< rank of the begin node in the physical node order
  NodeId u;
  NodeId v;
  double cost;
};
}  // namespace

Schema RelationalGraphStore::EdgeSchema() {
  // Packed size 12 bytes; padded to the paper's T_s = 32 (the original
  // stored additional per-segment attributes: speed, occupancy, road type).
  return Schema({{"begin_node", FieldType::kInt32},
                 {"end_node", FieldType::kInt32},
                 {"edge_cost", FieldType::kFloat}},
                /*tuple_size_override=*/32);
}

Schema RelationalGraphStore::NodeSchema() {
  // Packed size 13 bytes; padded to the paper's T_r = 16.
  return Schema({{"node_id", FieldType::kInt16},
                 {"x", FieldType::kInt16},
                 {"y", FieldType::kInt16},
                 {"status", FieldType::kInt8},
                 {"pred", FieldType::kInt16},
                 {"path_cost", FieldType::kFloat}},
                /*tuple_size_override=*/16);
}

Schema RelationalGraphStore::LandmarkDistSchema() {
  // Packed size 22 bytes; padded to 24 (T_l). Distances are 8-byte floats
  // so persisted ALT bounds stay exact (see LandmarkDistRow).
  return Schema({{"landmark_ord", FieldType::kInt16},
                 {"landmark_node", FieldType::kInt16},
                 {"node_id", FieldType::kInt16},
                 {"dist_from", FieldType::kDouble},
                 {"dist_to", FieldType::kDouble}},
                /*tuple_size_override=*/24);
}

Schema RelationalGraphStore::OverlayCellSchema() {
  // Packed size 5 bytes; padded to 8 so a block holds an even power of
  // two of cell-assignment tuples.
  return Schema({{"node_id", FieldType::kInt16},
                 {"cell_id", FieldType::kInt16},
                 {"is_boundary", FieldType::kInt8}},
                /*tuple_size_override=*/8);
}

RelationalGraphStore::RelationalGraphStore(storage::BufferPool* pool)
    : s_("S", EdgeSchema(), pool), r_("R", NodeSchema(), pool) {}

Status RelationalGraphStore::Load(const Graph& g) {
  return Load(g, LoadOptions{});
}

Status RelationalGraphStore::Load(const Graph& g,
                                  const LoadOptions& options) {
  if (loaded_) {
    return Status::FailedPrecondition("graph store already loaded");
  }
  ATIS_RETURN_NOT_OK(CheckNodeCount(g.num_nodes()));
  // Physical insertion order. kRowOrder yields the identity permutation,
  // keeping the insertion sequence (and therefore every page assignment)
  // bit-identical to the paper-mode store.
  const std::vector<NodeId> order = ComputeNodeOrder(g, options.layout);
  for (const NodeId u : order) {
    const Point& p = g.point(u);
    ATIS_RETURN_NOT_OK(CheckCoordinates(u, p.x, p.y));
    ATIS_RETURN_NOT_OK(InsertNode(FreshNode(u, p.x, p.y)));
  }
  // Edge tuples are grouped by begin node in the same physical order;
  // within a node the g.Neighbors order is preserved, so per-key hash
  // chains — and hence FetchAdjacency results — match across layouts.
  adjacency_rids_.assign(g.num_nodes(), {});
  for (const NodeId u : order) {
    std::vector<storage::RecordId>& rids =
        adjacency_rids_[static_cast<size_t>(u)];
    for (const Edge& e : g.Neighbors(u)) {
      ATIS_ASSIGN_OR_RETURN(storage::RecordId rid,
                            InsertEdge(EdgeRow{u, e.to, e.cost}));
      rids.push_back(rid);
    }
  }
  ATIS_RETURN_NOT_OK(s_.CreateHashIndex(
      kBeginField, std::max<size_t>(16, g.num_nodes() / 8)));
  ATIS_RETURN_NOT_OK(r_.BuildIsamIndex(kNodeIdField));
  layout_ = options.layout;
  loaded_ = true;
  return Status::OK();
}

Status RelationalGraphStore::LoadStreaming(const std::string& path) {
  ATIS_ASSIGN_OR_RETURN(StreamingGraphReader probe,
                        StreamingGraphReader::Open(path));
  LoadOptions options;
  options.layout = probe.layout();
  return LoadStreaming(path, options);
}

Status RelationalGraphStore::LoadStreaming(const std::string& path,
                                           const LoadOptions& options) {
  if (loaded_) {
    return Status::FailedPrecondition("graph store already loaded");
  }
  storage::DiskManager* disk = s_.pool()->disk();
  // Pass 1: stream the node section once for the bounding box — the
  // Hilbert key function needs the global extent before the first key —
  // and the coordinate-range check Load performs.
  ATIS_ASSIGN_OR_RETURN(StreamingGraphReader pass1,
                        StreamingGraphReader::Open(path));
  ATIS_RETURN_NOT_OK(CheckNodeCount(pass1.num_nodes()));
  const NodeId n = static_cast<NodeId>(pass1.num_nodes());
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  for (NodeId u = 0; u < n; ++u) {
    StreamingGraphReader::NodeRecord rec;
    ATIS_RETURN_NOT_OK(pass1.NextNode(&rec));
    ATIS_RETURN_NOT_OK(CheckCoordinates(u, rec.x, rec.y));
    min_x = std::min(min_x, rec.x);
    min_y = std::min(min_y, rec.y);
    max_x = std::max(max_x, rec.x);
    max_y = std::max(max_y, rec.y);
  }
  // kRowOrder (and the degenerate-bbox fallback) leave every key 0, so
  // the stable sort degenerates to file order — the identity permutation,
  // exactly what ComputeNodeOrder returns for those cases.
  HilbertKeyMapper mapper;
  if (options.layout == StoreLayout::kHilbert && n > 0) {
    mapper = HilbertKeyMapper::FromBounds(min_x, min_y, max_x, max_y);
  }
  // Pass 2: external-sort the node tuples and insert them in sorted
  // order; the same handle then continues into the edge section.
  ATIS_ASSIGN_OR_RETURN(StreamingGraphReader reader,
                        StreamingGraphReader::Open(path));
  storage::SpillSorter<NodeSpillRecord> node_sorter(
      disk, options.sort_budget_bytes);
  for (NodeId u = 0; u < n; ++u) {
    StreamingGraphReader::NodeRecord rec;
    ATIS_RETURN_NOT_OK(reader.NextNode(&rec));
    ATIS_RETURN_NOT_OK(
        node_sorter.Add(NodeSpillRecord{mapper.Key(rec.x, rec.y), u, rec.x,
                                        rec.y}));
  }
  ATIS_RETURN_NOT_OK(node_sorter.Finish());
  std::vector<NodeId> rank_of(static_cast<size_t>(n), kInvalidNode);
  {
    NodeSpillRecord rec{};
    NodeId rank = 0;
    while (true) {
      ATIS_ASSIGN_OR_RETURN(bool more, node_sorter.Next(&rec));
      if (!more) break;
      rank_of[static_cast<size_t>(rec.id)] = rank++;
      ATIS_RETURN_NOT_OK(InsertNode(FreshNode(rec.id, rec.x, rec.y)));
    }
  }
  // Edge tuples, keyed by the begin node's rank.
  ATIS_RETURN_NOT_OK(reader.BeginEdges());
  storage::SpillSorter<EdgeSpillRecord> edge_sorter(
      disk, options.sort_budget_bytes);
  const uint64_t num_edges = reader.num_edges();
  for (uint64_t i = 0; i < num_edges; ++i) {
    StreamingGraphReader::EdgeRecord e;
    ATIS_RETURN_NOT_OK(reader.NextEdge(&e));
    if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) {
      return Status::Corruption("edge endpoint out of range in " + path);
    }
    ATIS_RETURN_NOT_OK(edge_sorter.Add(EdgeSpillRecord{
        static_cast<uint64_t>(rank_of[static_cast<size_t>(e.u)]), e.u, e.v,
        e.cost}));
  }
  ATIS_RETURN_NOT_OK(edge_sorter.Finish());
  adjacency_rids_.assign(static_cast<size_t>(n), {});
  {
    EdgeSpillRecord rec{};
    while (true) {
      ATIS_ASSIGN_OR_RETURN(bool more, edge_sorter.Next(&rec));
      if (!more) break;
      ATIS_ASSIGN_OR_RETURN(storage::RecordId rid,
                            InsertEdge(EdgeRow{rec.u, rec.v, rec.cost}));
      adjacency_rids_[static_cast<size_t>(rec.u)].push_back(rid);
    }
  }
  ATIS_RETURN_NOT_OK(s_.CreateHashIndex(
      kBeginField, std::max<size_t>(16, static_cast<size_t>(n) / 8)));
  ATIS_RETURN_NOT_OK(r_.BuildIsamIndex(kNodeIdField));
  layout_ = options.layout;
  loaded_ = true;
  return Status::OK();
}

Result<std::vector<RelationalGraphStore::EdgeRow>>
RelationalGraphStore::FetchAdjacency(NodeId u) const {
  std::vector<storage::RecordId> looked_up;
  const std::vector<storage::RecordId>* rids = &looked_up;
  if (layout_ == StoreLayout::kHilbert && u >= 0 &&
      static_cast<size_t>(u) < adjacency_rids_.size()) {
    // Clustered access path (see header): only the node's own data pages
    // are fetched; the id-hashed bucket pages the paper-mode lookup walks —
    // spatially random by construction, and the dominant distinct-block
    // cost of a search — are skipped entirely.
    rids = &adjacency_rids_[static_cast<size_t>(u)];
  } else {
    // The paper's access path: a hash-index lookup on S.begin_node.
    ATIS_ASSIGN_OR_RETURN(looked_up, s_.IndexLookup(kEBegin, u));
  }
  std::vector<EdgeRow> out;
  out.reserve(rids->size());
  ATIS_RETURN_NOT_OK(s_.ReadAll(
      *rids, [&](const RowView& row) { out.push_back(EdgeFromRow(row)); }));
  return out;
}

Result<storage::RecordId> RelationalGraphStore::NodeRid(NodeId u) const {
  const index::IsamIndex* isam = r_.isam_index();
  if (isam == nullptr) {
    return Status::FailedPrecondition("R has no node_id index");
  }
  auto rid = isam->Lookup(u);
  if (!rid.ok() && rid.status().IsNotFound()) {
    return Status::NotFound("node " + std::to_string(u) + " not in R");
  }
  return rid;
}

Result<std::pair<storage::RecordId, RelationalGraphStore::NodeRow>>
RelationalGraphStore::GetNode(NodeId u) const {
  // The first index entry, then the row decoded on its pinned page.
  ATIS_ASSIGN_OR_RETURN(const storage::RecordId rid, NodeRid(u));
  NodeRow node;
  ATIS_RETURN_NOT_OK(
      r_.Read(rid, [&](const RowView& row) { node = NodeFromRow(row); }));
  return std::make_pair(rid, node);
}

Status RelationalGraphStore::RelaxNode(NodeId u,
                                       FunctionRef<bool(NodeRow&)> improve) {
  ATIS_ASSIGN_OR_RETURN(const storage::RecordId rid, NodeRid(u));
  NodeRow node;
  return r_.ReadThenEdit(
      rid,
      [&](const RowView& row) {
        node = NodeFromRow(row);
        return improve(node);
      },
      [&](RowWriter& out) { WriteNode(node, &out); });
}

Status RelationalGraphStore::UpdateNode(storage::RecordId rid,
                                        const NodeRow& row) {
  return r_.Edit(rid, [&](RowWriter& out) { WriteNode(row, &out); });
}

Status RelationalGraphStore::InsertNode(const NodeRow& row) {
  return InsertRow(&r_, [&](RowWriter& out) { WriteNode(row, &out); })
      .status();
}

Result<storage::RecordId> RelationalGraphStore::InsertEdge(
    const EdgeRow& row) {
  return InsertRow(&s_, [&](RowWriter& out) { WriteEdge(row, &out); });
}

Status RelationalGraphStore::UpdateEdgeCost(NodeId u, NodeId v,
                                            double cost) {
  if (cost < 0.0) {
    return Status::InvalidArgument("edge cost must be non-negative");
  }
  ATIS_ASSIGN_OR_RETURN(auto rids, s_.IndexLookup(kEBegin, u));
  for (const storage::RecordId rid : rids) {
    NodeId end = kInvalidNode;
    ATIS_RETURN_NOT_OK(s_.Read(rid, [&](const RowView& row) {
      end = static_cast<NodeId>(row.Int(kEEnd));
    }));
    if (end != v) continue;
    return s_.Edit(rid, [&](RowWriter& row) { row.SetDouble(kECost, cost); });
  }
  return Status::NotFound("segment " + std::to_string(u) + " -> " +
                          std::to_string(v) + " not in S");
}

Status RelationalGraphStore::StoreLandmarkDistances(
    const std::vector<LandmarkDistRow>& rows) {
  if (landmark_ != nullptr) {
    ATIS_RETURN_NOT_OK(landmark_->Clear(/*charge=*/true));
    landmark_.reset();
  }
  landmark_ = std::make_unique<relational::Relation>(
      "L", LandmarkDistSchema(), s_.pool(), /*charge_create=*/true);
  for (const LandmarkDistRow& row : rows) {
    ATIS_RETURN_NOT_OK(InsertRow(landmark_.get(), [&](RowWriter& out) {
                         out.SetInt(0, row.ord);
                         out.SetInt(1, row.landmark);
                         out.SetInt(2, row.node);
                         out.SetDouble(3, row.dist_from);
                         out.SetDouble(4, row.dist_to);
                       }).status());
  }
  return Status::OK();
}

Result<std::vector<RelationalGraphStore::LandmarkDistRow>>
RelationalGraphStore::LoadLandmarkDistances() const {
  if (landmark_ == nullptr) {
    return Status::FailedPrecondition("no landmarkDist relation stored");
  }
  std::vector<LandmarkDistRow> rows;
  rows.reserve(landmark_->num_tuples());
  relational::Relation::Cursor c = landmark_->Scan();
  for (; c.Valid(); c.Next()) {
    rows.push_back(LandmarkDistFromRow(c.row()));
  }
  // A scan ended by a storage fault must not yield a partial table.
  ATIS_RETURN_NOT_OK(c.status());
  return rows;
}

Status RelationalGraphStore::StoreOverlayTopology(
    const std::vector<OverlayCellRow>& cells) {
  if (overlay_cells_ != nullptr) {
    ATIS_RETURN_NOT_OK(overlay_cells_->Clear(/*charge=*/true));
    overlay_cells_.reset();
  }
  overlay_cells_ = std::make_unique<relational::Relation>(
      "OC", OverlayCellSchema(), s_.pool(), /*charge_create=*/true);
  for (const OverlayCellRow& row : cells) {
    ATIS_RETURN_NOT_OK(InsertRow(overlay_cells_.get(), [&](RowWriter& out) {
                         out.SetInt(0, row.node);
                         out.SetInt(1, row.cell);
                         out.SetInt(2, row.is_boundary ? 1 : 0);
                       }).status());
  }
  return Status::OK();
}

Result<std::vector<RelationalGraphStore::OverlayCellRow>>
RelationalGraphStore::LoadOverlayTopology() const {
  if (overlay_cells_ == nullptr) {
    return Status::FailedPrecondition("no overlay topology stored");
  }
  std::vector<OverlayCellRow> cells;
  cells.reserve(overlay_cells_->num_tuples());
  relational::Relation::Cursor c = overlay_cells_->Scan();
  for (; c.Valid(); c.Next()) {
    cells.push_back(OverlayCellFromRow(c.row()));
  }
  // A scan ended by a storage fault must not yield a partial topology.
  ATIS_RETURN_NOT_OK(c.status());
  return cells;
}

Status RelationalGraphStore::ResetSearchState() {
  return relational::Replace(
             &r_, /*pred=*/{},
             [](RowWriter& row) {
               row.SetInt(kNStatus, static_cast<int64_t>(NodeStatus::kNull));
               row.SetInt(kNPred, kInvalidNode);
               row.SetDouble(kNCost, std::numeric_limits<double>::infinity());
             })
      .status();
}

RelationalGraphStore::NodeRow RelationalGraphStore::NodeFromRow(
    const RowView& row) {
  NodeRow node;
  node.id = static_cast<NodeId>(row.Int(kNId));
  node.x = static_cast<double>(row.Int(kNX)) / kCoordScale;
  node.y = static_cast<double>(row.Int(kNY)) / kCoordScale;
  node.status = static_cast<NodeStatus>(row.Int(kNStatus));
  node.pred = static_cast<NodeId>(row.Int(kNPred));
  node.path_cost = row.Double(kNCost);
  return node;
}

void RelationalGraphStore::WriteNode(const NodeRow& row, RowWriter* out) {
  out->SetInt(kNId, row.id);
  out->SetInt(kNX, FixedPoint(row.x));
  out->SetInt(kNY, FixedPoint(row.y));
  out->SetInt(kNStatus, static_cast<int64_t>(row.status));
  out->SetInt(kNPred, row.pred);
  out->SetDouble(kNCost, row.path_cost);
}

void RelationalGraphStore::WriteEdge(const EdgeRow& row, RowWriter* out) {
  out->SetInt(kEBegin, row.begin);
  out->SetInt(kEEnd, row.end);
  out->SetDouble(kECost, row.cost);
}

RelationalGraphStore::EdgeRow RelationalGraphStore::EdgeFromRow(
    const RowView& row) {
  EdgeRow edge;
  edge.begin = static_cast<NodeId>(row.Int(kEBegin));
  edge.end = static_cast<NodeId>(row.Int(kEEnd));
  edge.cost = row.Double(kECost);
  return edge;
}

RelationalGraphStore::LandmarkDistRow
RelationalGraphStore::LandmarkDistFromRow(const RowView& row) {
  LandmarkDistRow dist;
  dist.ord = static_cast<int32_t>(row.Int(0));
  dist.landmark = static_cast<NodeId>(row.Int(1));
  dist.node = static_cast<NodeId>(row.Int(2));
  dist.dist_from = row.Double(3);
  dist.dist_to = row.Double(4);
  return dist;
}

RelationalGraphStore::OverlayCellRow
RelationalGraphStore::OverlayCellFromRow(const RowView& row) {
  OverlayCellRow cell;
  cell.node = static_cast<NodeId>(row.Int(0));
  cell.cell = static_cast<int32_t>(row.Int(1));
  cell.is_boundary = row.Int(2) != 0;
  return cell;
}

}  // namespace atis::graph
