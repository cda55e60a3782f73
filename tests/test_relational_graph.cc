#include "graph/relational_graph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <set>

#include <string>
#include <utility>
#include <vector>

#include "graph/graph_io.h"
#include "graph/grid_generator.h"
#include "graph/spatial_layout.h"
#include "tuple_rows.h"

namespace atis::graph {
namespace {

using storage::BufferPool;
using storage::DiskManager;

Graph SmallGraph() {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  g.AddNode(0.5, 2.25);
  EXPECT_TRUE(g.AddEdge(0, 1, 1.5).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 2.5).ok());
  EXPECT_TRUE(g.AddEdge(1, 0, 1.5).ok());
  return g;
}

/// adjacency_pages[u] = the S pages holding u's edge tuples, in insertion
/// order with consecutive repeats dropped, from a scan of S's record ids.
std::vector<std::vector<storage::PageId>> AdjacencyPages(
    const RelationalGraphStore& store) {
  std::vector<std::vector<storage::PageId>> pages(store.num_nodes());
  relational::Relation::Cursor c = store.edge_relation().Scan();
  for (; c.Valid(); c.Next()) {
    const NodeId u = RelationalGraphStore::EdgeFromRow(c.row()).begin;
    std::vector<storage::PageId>& own = pages.at(static_cast<size_t>(u));
    if (own.empty() || own.back() != c.rid().page) {
      own.push_back(c.rid().page);
    }
  }
  EXPECT_TRUE(c.status().ok()) << c.status().ToString();
  return pages;
}

class RelationalGraphTest : public ::testing::Test {
 protected:
  RelationalGraphTest() : pool_(&disk_, 64), store_(&pool_) {}
  DiskManager disk_;
  BufferPool pool_;
  RelationalGraphStore store_;
};

TEST_F(RelationalGraphTest, SchemasMatchPaperTupleSizes) {
  EXPECT_EQ(RelationalGraphStore::EdgeSchema().tuple_size(), 32u);   // T_s
  EXPECT_EQ(RelationalGraphStore::NodeSchema().tuple_size(), 16u);   // T_r
  EXPECT_EQ(RelationalGraphStore::EdgeSchema().blocking_factor(), 128u);
  EXPECT_EQ(RelationalGraphStore::NodeSchema().blocking_factor(), 256u);
}

TEST_F(RelationalGraphTest, LoadPopulatesBothRelations) {
  ASSERT_TRUE(store_.Load(SmallGraph()).ok());
  EXPECT_EQ(store_.num_nodes(), 3u);
  EXPECT_EQ(store_.num_edges(), 3u);
  EXPECT_TRUE(store_.edge_relation().hash_index() != nullptr);
  EXPECT_TRUE(store_.node_relation().isam_index() != nullptr);
}

TEST_F(RelationalGraphTest, DoubleLoadRejected) {
  ASSERT_TRUE(store_.Load(SmallGraph()).ok());
  EXPECT_EQ(store_.Load(SmallGraph()).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RelationalGraphTest, FetchAdjacencyReturnsOutEdges) {
  ASSERT_TRUE(store_.Load(SmallGraph()).ok());
  auto adj = store_.FetchAdjacency(1);
  ASSERT_TRUE(adj.ok());
  ASSERT_EQ(adj->size(), 2u);
  bool saw_0 = false;
  bool saw_2 = false;
  for (const auto& e : *adj) {
    EXPECT_EQ(e.begin, 1);
    if (e.end == 0) {
      saw_0 = true;
      EXPECT_NEAR(e.cost, 1.5, 1e-6);
    }
    if (e.end == 2) {
      saw_2 = true;
      EXPECT_NEAR(e.cost, 2.5, 1e-6);
    }
  }
  EXPECT_TRUE(saw_0 && saw_2);
}

TEST_F(RelationalGraphTest, FetchAdjacencyOfSinkIsEmpty) {
  ASSERT_TRUE(store_.Load(SmallGraph()).ok());
  auto adj = store_.FetchAdjacency(2);
  ASSERT_TRUE(adj.ok());
  EXPECT_TRUE(adj->empty());
}

TEST_F(RelationalGraphTest, GetNodeReturnsQuantisedCoordinates) {
  ASSERT_TRUE(store_.Load(SmallGraph()).ok());
  auto n = store_.GetNode(2);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->second.id, 2);
  // 0.5 and 2.25 are exactly representable at 1/16 granularity.
  EXPECT_DOUBLE_EQ(n->second.x, 0.5);
  EXPECT_DOUBLE_EQ(n->second.y, 2.25);
  EXPECT_EQ(n->second.status, NodeStatus::kNull);
  EXPECT_EQ(n->second.pred, kInvalidNode);
  EXPECT_TRUE(std::isinf(n->second.path_cost));
}

TEST_F(RelationalGraphTest, QuantiseRoundsToSixteenth) {
  EXPECT_DOUBLE_EQ(RelationalGraphStore::Quantise(1.03), 1.0);
  EXPECT_DOUBLE_EQ(RelationalGraphStore::Quantise(1.04), 1.0625);
  EXPECT_DOUBLE_EQ(RelationalGraphStore::Quantise(2.0), 2.0);
}

TEST_F(RelationalGraphTest, GetMissingNodeFails) {
  ASSERT_TRUE(store_.Load(SmallGraph()).ok());
  EXPECT_TRUE(store_.GetNode(42).status().IsNotFound());
}

TEST_F(RelationalGraphTest, UpdateNodePersists) {
  ASSERT_TRUE(store_.Load(SmallGraph()).ok());
  auto n = store_.GetNode(1);
  ASSERT_TRUE(n.ok());
  n->second.status = NodeStatus::kOpen;
  n->second.pred = 0;
  n->second.path_cost = 1.5;
  ASSERT_TRUE(store_.UpdateNode(n->first, n->second).ok());
  auto again = store_.GetNode(1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->second.status, NodeStatus::kOpen);
  EXPECT_EQ(again->second.pred, 0);
  EXPECT_NEAR(again->second.path_cost, 1.5, 1e-6);
}

TEST_F(RelationalGraphTest, ResetSearchStateClearsWorkingFields) {
  ASSERT_TRUE(store_.Load(SmallGraph()).ok());
  auto n = store_.GetNode(0);
  ASSERT_TRUE(n.ok());
  n->second.status = NodeStatus::kClosed;
  n->second.path_cost = 3.0;
  ASSERT_TRUE(store_.UpdateNode(n->first, n->second).ok());
  ASSERT_TRUE(store_.ResetSearchState().ok());
  auto after = store_.GetNode(0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->second.status, NodeStatus::kNull);
  EXPECT_EQ(after->second.pred, kInvalidNode);
  EXPECT_TRUE(std::isinf(after->second.path_cost));
}

TEST_F(RelationalGraphTest, TupleConversionRoundTrips) {
  RelationalGraphStore::NodeRow row;
  row.id = 123;
  row.x = 4.5;
  row.y = -2.0625;
  row.status = NodeStatus::kCurrent;
  row.pred = 99;
  row.path_cost = 17.25;
  // WriteNode packs the row's fields (coordinates in 1/16-unit fixed
  // point) as the reference codec does, and NodeFromRow decodes them back.
  const relational::Schema node_schema = RelationalGraphStore::NodeSchema();
  std::vector<uint8_t> packed(node_schema.tuple_size());
  ASSERT_TRUE(relational::PackTuple(node_schema,
                                    relational::Tuple{int64_t{123},
                                                      int64_t{72},
                                                      int64_t{-33},
                                                      int64_t{3},
                                                      int64_t{99}, 17.25},
                                    packed.data())
                  .ok());
  std::vector<uint8_t> written(node_schema.tuple_size(), 0);
  relational::RowWriter writer(node_schema, written);
  RelationalGraphStore::WriteNode(row, &writer);
  EXPECT_EQ(written, packed);
  const auto back = RelationalGraphStore::NodeFromRow(
      relational::RowView(node_schema, packed));
  EXPECT_EQ(back.id, 123);
  EXPECT_DOUBLE_EQ(back.x, 4.5);
  EXPECT_DOUBLE_EQ(back.y, -2.0625);
  EXPECT_EQ(back.status, NodeStatus::kCurrent);
  EXPECT_EQ(back.pred, 99);
  EXPECT_NEAR(back.path_cost, 17.25, 1e-6);

  RelationalGraphStore::EdgeRow e{7, 8, 2.75};
  const relational::Schema edge_schema = RelationalGraphStore::EdgeSchema();
  std::vector<uint8_t> epacked(edge_schema.tuple_size());
  ASSERT_TRUE(relational::PackTuple(
                  edge_schema, relational::Tuple{int64_t{7}, int64_t{8}, 2.75},
                  epacked.data())
                  .ok());
  std::vector<uint8_t> ewritten(edge_schema.tuple_size(), 0);
  relational::RowWriter ewriter(edge_schema, ewritten);
  RelationalGraphStore::WriteEdge(e, &ewriter);
  EXPECT_EQ(ewritten, epacked);
  const auto eback = RelationalGraphStore::EdgeFromRow(
      relational::RowView(edge_schema, epacked));
  EXPECT_EQ(eback.begin, 7);
  EXPECT_EQ(eback.end, 8);
  EXPECT_NEAR(eback.cost, 2.75, 1e-6);
}

TEST_F(RelationalGraphTest, GridLoadBlockCountsMatchPaper) {
  auto g = graph::GridGraphGenerator::Generate(
      {30, GridCostModel::kVariance20, 0.2, 0.1, 1993});
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(store_.Load(*g).ok());
  // 900 nodes at Bf_r = 256 => 4 data blocks (paper's B_r); 3480 edges at
  // Bf_s = 128 => 28 blocks (the paper's B_s; heap-page headers round one
  // block up to 31 here).
  EXPECT_EQ(store_.num_nodes(), 900u);
  EXPECT_EQ(store_.num_edges(), 3480u);
  EXPECT_LE(store_.node_relation().num_blocks(), 5u);
  EXPECT_GE(store_.node_relation().num_blocks(), 4u);
  EXPECT_LE(store_.edge_relation().num_blocks(), 31u);
  EXPECT_GE(store_.edge_relation().num_blocks(), 28u);
}

TEST_F(RelationalGraphTest, AtisSchemaAveragesMatchTable4A) {
  // |A| = avg adjacency length, tuples per distinct S.begin_node: 3480
  // edges over 900 nodes => 3.87 (the paper rounds to 4).
  auto g = graph::GridGraphGenerator::Generate(
      {30, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(store_.Load(*g).ok());
  const relational::Relation& s = store_.edge_relation();
  const int begin = s.schema().FieldIndex(RelationalGraphStore::kBeginField);
  ASSERT_GE(begin, 0);
  size_t tuples = 0;
  std::set<int64_t> begins;
  relational::Relation::Cursor c = s.Scan();
  for (; c.Valid(); c.Next()) {
    ++tuples;
    begins.insert(c.row().Int(static_cast<size_t>(begin)));
  }
  ASSERT_TRUE(c.status().ok());
  EXPECT_EQ(tuples, 3480u);
  EXPECT_EQ(begins.size(), 900u);
  EXPECT_NEAR(static_cast<double>(tuples) / begins.size(), 3.87, 0.01);
}

// ---------------------------------------------------------------------------
// Physical layout: kHilbert must change only which tuples share a block —
// never a logical answer — and the layout must survive a save/load cycle.

Graph LayoutGrid(int k) {
  auto g = graph::GridGraphGenerator::Generate(
      {k, GridCostModel::kVariance20, 0.2, 0.1, 1993});
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST_F(RelationalGraphTest, LoadRecordsTheLayout) {
  ASSERT_TRUE(
      store_.Load(SmallGraph(), {StoreLayout::kHilbert}).ok());
  EXPECT_EQ(store_.layout(), StoreLayout::kHilbert);
}

TEST_F(RelationalGraphTest, DefaultLoadIsRowOrder) {
  ASSERT_TRUE(store_.Load(SmallGraph()).ok());
  EXPECT_EQ(store_.layout(), StoreLayout::kRowOrder);
}

TEST_F(RelationalGraphTest, FetchAdjacencyIdenticalAcrossLayouts) {
  // Same contents in the same order for every node: the clustered access
  // path under kHilbert and the hash-index path under kRowOrder must be
  // indistinguishable to callers.
  const Graph g = LayoutGrid(10);
  DiskManager hilbert_disk;
  BufferPool hilbert_pool(&hilbert_disk, 64);
  RelationalGraphStore hilbert_store(&hilbert_pool);
  ASSERT_TRUE(store_.Load(g).ok());
  ASSERT_TRUE(hilbert_store.Load(g, {StoreLayout::kHilbert}).ok());
  for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
    auto row_adj = store_.FetchAdjacency(u);
    auto hil_adj = hilbert_store.FetchAdjacency(u);
    ASSERT_TRUE(row_adj.ok());
    ASSERT_TRUE(hil_adj.ok());
    ASSERT_EQ(row_adj->size(), hil_adj->size()) << "node " << u;
    for (size_t i = 0; i < row_adj->size(); ++i) {
      EXPECT_EQ((*row_adj)[i].begin, (*hil_adj)[i].begin);
      EXPECT_EQ((*row_adj)[i].end, (*hil_adj)[i].end);
      EXPECT_DOUBLE_EQ((*row_adj)[i].cost, (*hil_adj)[i].cost);
    }
  }
}

TEST_F(RelationalGraphTest, HilbertChangesPageAssignmentsRowOrderDoesNot) {
  const Graph g = LayoutGrid(10);
  DiskManager disk_a;
  BufferPool pool_a(&disk_a, 64);
  RelationalGraphStore explicit_roworder(&pool_a);
  DiskManager disk_b;
  BufferPool pool_b(&disk_b, 64);
  RelationalGraphStore hilbert(&pool_b);
  ASSERT_TRUE(store_.Load(g).ok());  // default = paper mode
  ASSERT_TRUE(explicit_roworder.Load(g, {StoreLayout::kRowOrder}).ok());
  ASSERT_TRUE(hilbert.Load(g, {StoreLayout::kHilbert}).ok());

  const auto paper_pages = AdjacencyPages(store_);
  // Explicit kRowOrder is bit-identical to the default load ...
  EXPECT_EQ(AdjacencyPages(explicit_roworder), paper_pages);
  // ... while Hilbert actually moves tuples (otherwise it does nothing).
  EXPECT_NE(AdjacencyPages(hilbert), paper_pages);
  // Clustering reassigns tuples to blocks; it must not inflate the file.
  EXPECT_EQ(hilbert.edge_relation().num_blocks(),
            store_.edge_relation().num_blocks());
  EXPECT_EQ(hilbert.node_relation().num_blocks(),
            store_.node_relation().num_blocks());
}

TEST_F(RelationalGraphTest, LayoutRoundTripsThroughGraphFile) {
  // Save with a layout header, load, rebuild: the reconstructed store
  // must place every adjacency list on the same pages as the original.
  const Graph g = LayoutGrid(10);
  ASSERT_TRUE(store_.Load(g, {StoreLayout::kHilbert}).ok());
  const std::string path =
      ::testing::TempDir() + "/atis_layout_roundtrip.txt";
  ASSERT_TRUE(SaveGraphFile(g, StoreLayout::kHilbert, path).ok());
  auto file = LoadGraphFileWithLayout(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->layout, StoreLayout::kHilbert);

  DiskManager disk2;
  BufferPool pool2(&disk2, 64);
  RelationalGraphStore rebuilt(&pool2);
  ASSERT_TRUE(rebuilt.Load(file->graph, {file->layout}).ok());
  ASSERT_EQ(rebuilt.num_nodes(), store_.num_nodes());
  ASSERT_EQ(rebuilt.num_edges(), store_.num_edges());
  EXPECT_EQ(AdjacencyPages(rebuilt), AdjacencyPages(store_));
  EXPECT_EQ(rebuilt.edge_relation().num_blocks(),
            store_.edge_relation().num_blocks());
}

TEST_F(RelationalGraphTest, UpdateEdgeCostVisibleThroughClusteredPath) {
  // UpdateEdgeCost goes through the hash index; the clustered read path
  // must observe the in-place rewrite (record ids are stable).
  const Graph g = LayoutGrid(4);
  ASSERT_TRUE(store_.Load(g, {StoreLayout::kHilbert}).ok());
  auto before = store_.FetchAdjacency(0);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->empty());
  const NodeId v = before->front().end;
  ASSERT_TRUE(store_.UpdateEdgeCost(0, v, 99.5).ok());
  auto after = store_.FetchAdjacency(0);
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after->front().cost, 99.5);
}

TEST_F(RelationalGraphTest, OversizedGraphRejected) {
  Graph g;
  // 16-bit node ids cap the store at 32767 nodes; don't build a real graph
  // that big, just check the guard with a crafted count.
  for (int i = 0; i < 40000; ++i) g.AddNode(0, 0);
  EXPECT_TRUE(store_.Load(g).IsInvalidArgument());
}

TEST_F(RelationalGraphTest, OutOfRangeCoordinateRejected) {
  Graph g;
  g.AddNode(1e9, 0);
  EXPECT_TRUE(store_.Load(g).IsOutOfRange());
}

/// Loads `g` into two fresh stores: through Load, and through
/// LoadStreaming from a file. Returns both statuses.
std::vector<Status> LoadBothWays(const Graph& g, const std::string& name) {
  std::vector<Status> out;
  {
    DiskManager disk;
    BufferPool pool(&disk, 64);
    RelationalGraphStore store(&pool);
    out.push_back(store.Load(g));
  }
  const std::string path = ::testing::TempDir() + "/" + name + ".atisg";
  EXPECT_TRUE(SaveGraphFile(g, path).ok());
  DiskManager disk;
  BufferPool pool(&disk, 64);
  RelationalGraphStore store(&pool);
  out.push_back(store.LoadStreaming(path));
  return out;
}

bool Mentions(const Status& st, const std::string& text) {
  return st.message().find(text) != std::string::npos;
}

TEST(RelationalGraphLimitTest, LoadsExactlyMaxNodes) {
  Graph g;
  for (int i = 0; i < 32767; ++i) g.AddNode(0, 0);
  for (const Status& st : LoadBothWays(g, "atis_at_node_limit")) {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(RelationalGraphLimitTest, RejectsOneNodeOverMax) {
  Graph g;
  for (int i = 0; i < 32768; ++i) g.AddNode(0, 0);
  for (const Status& st : LoadBothWays(g, "atis_over_node_limit")) {
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_TRUE(Mentions(st, "32768")) << st.ToString();
    EXPECT_TRUE(Mentions(st, "32767")) << st.ToString();
  }
}

TEST(RelationalGraphLimitTest, LoadsCoordinatesAtFixedPointLimit) {
  // 32767 / kCoordScale = 2047.9375 is exactly representable.
  const double limit = 32767 / RelationalGraphStore::kCoordScale;
  Graph g;
  g.AddNode(limit, -limit);
  g.AddNode(-limit, limit);
  for (const Status& st : LoadBothWays(g, "atis_at_coord_limit")) {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(RelationalGraphLimitTest, RejectsCoordinateOneOverFixedPointLimit) {
  const double over = 32768 / RelationalGraphStore::kCoordScale;
  for (const auto& [x, y] : {std::pair{over, 0.0}, std::pair{0.0, -over}}) {
    Graph g;
    g.AddNode(0, 0);
    g.AddNode(x, y);
    for (const Status& st : LoadBothWays(g, "atis_over_coord_limit")) {
      EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
      EXPECT_TRUE(Mentions(st, "32768")) << st.ToString();
      EXPECT_TRUE(Mentions(st, "32767")) << st.ToString();
    }
  }
}

/// The streaming (external-sort) load must reproduce the in-memory load
/// bit for bit: same page assignments, same adjacency directory, same
/// layout — it is the same store built without ever materialising the
/// graph.
TEST_F(RelationalGraphTest, StreamingLoadMatchesInMemoryLoad) {
  for (const StoreLayout layout :
       {StoreLayout::kRowOrder, StoreLayout::kHilbert}) {
    const Graph g = LayoutGrid(10);
    const std::string path =
        ::testing::TempDir() + "/atis_streaming_load.atisg";
    ASSERT_TRUE(SaveGraphFile(g, layout, path).ok());

    DiskManager mem_disk;
    BufferPool mem_pool(&mem_disk, 64);
    RelationalGraphStore mem_store(&mem_pool);
    ASSERT_TRUE(mem_store.Load(g, {layout}).ok());

    DiskManager stream_disk;
    BufferPool stream_pool(&stream_disk, 64);
    RelationalGraphStore stream_store(&stream_pool);
    RelationalGraphStore::LoadOptions options;
    options.layout = layout;
    options.sort_budget_bytes = 1 << 10;  // force spilled runs
    ASSERT_TRUE(stream_store.LoadStreaming(path, options).ok());

    EXPECT_EQ(stream_store.layout(), layout);
    ASSERT_EQ(stream_store.num_nodes(), mem_store.num_nodes());
    ASSERT_EQ(stream_store.num_edges(), mem_store.num_edges());
    // Absolute PageIds differ (the streaming build allocates its spill
    // pages from the same DiskManager first); the *structure* must match:
    // a consistent bijection between the two stores' adjacency pages.
    std::map<storage::PageId, storage::PageId> page_map;
    const auto mem_adjacency = AdjacencyPages(mem_store);
    const auto stream_adjacency = AdjacencyPages(stream_store);
    for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
      const auto& mem_pages = mem_adjacency[static_cast<size_t>(u)];
      const auto& stream_pages = stream_adjacency[static_cast<size_t>(u)];
      ASSERT_EQ(stream_pages.size(), mem_pages.size()) << "node " << u;
      for (size_t i = 0; i < mem_pages.size(); ++i) {
        auto [it, inserted] =
            page_map.emplace(mem_pages[i], stream_pages[i]);
        EXPECT_EQ(it->second, stream_pages[i]) << "node " << u;
      }
      auto a = stream_store.FetchAdjacency(u);
      auto b = mem_store.FetchAdjacency(u);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ASSERT_EQ(a->size(), b->size());
      for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ((*a)[i].end, (*b)[i].end);
        EXPECT_DOUBLE_EQ((*a)[i].cost, (*b)[i].cost);
      }
      auto na = stream_store.GetNode(u);
      auto nb = mem_store.GetNode(u);
      ASSERT_TRUE(na.ok());
      ASSERT_TRUE(nb.ok());
      EXPECT_EQ(na->second.x, nb->second.x);
      EXPECT_EQ(na->second.y, nb->second.y);
    }
    EXPECT_EQ(stream_store.edge_relation().num_blocks(),
              mem_store.edge_relation().num_blocks());
    EXPECT_EQ(stream_store.node_relation().num_blocks(),
              mem_store.node_relation().num_blocks());
  }
}

/// Degenerate bounding box (every node at one point): the Hilbert order
/// falls back to id order, streaming and in-memory alike.
TEST_F(RelationalGraphTest, StreamingLoadDegenerateBbox) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddNode(2.0, 3.0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(g.AddUndirectedEdge(i, i + 1, 1.0).ok());
  }
  const std::string path =
      ::testing::TempDir() + "/atis_streaming_degenerate.atisg";
  ASSERT_TRUE(SaveGraphFile(g, StoreLayout::kHilbert, path).ok());
  ASSERT_TRUE(store_.LoadStreaming(path).ok());
  EXPECT_EQ(store_.layout(), StoreLayout::kHilbert);
  EXPECT_EQ(store_.num_nodes(), 5u);
  auto adj = store_.FetchAdjacency(2);
  ASSERT_TRUE(adj.ok());
  EXPECT_EQ(adj->size(), 2u);
}

TEST_F(RelationalGraphTest, StreamingLoadRejectsBadFiles) {
  // Missing file.
  EXPECT_FALSE(store_.LoadStreaming("/nonexistent/a.atisg").ok());
  // Edge endpoint out of range.
  const std::string path =
      ::testing::TempDir() + "/atis_streaming_bad_edge.atisg";
  {
    std::ofstream out(path);
    out << "ATISG1\n2\n0 0\n1 0\n1\n0 7 1.0\n";
  }
  DiskManager disk2;
  BufferPool pool2(&disk2, 64);
  RelationalGraphStore store2(&pool2);
  EXPECT_TRUE(store2.LoadStreaming(path).IsCorruption());
}

}  // namespace
}  // namespace atis::graph
