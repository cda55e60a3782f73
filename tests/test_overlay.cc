// Tests for core/overlay: Hilbert-cell partition invariants, boundary
// derivation, the table-size cap, OC row round trips, per-metric
// customization against a reference restricted Dijkstra, incremental
// re-customization, and A* Version 5 exactness against the in-memory
// Dijkstra ground truth.
//
// Ground truth is always core::DijkstraSearch over WithStoredEdgeCosts(g):
// the store rounds each cost to float at persistence time, so comparing
// against the unrounded graph (or a DB engine's per-hop re-rounded
// claimed cost) would drift by ~1e-7 per hop.
#include "core/overlay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "core/db_search.h"
#include "core/landmarks.h"
#include "core/memory_search.h"
#include "core/sssp.h"
#include "graph/grid_generator.h"
#include "graph/relational_graph.h"
#include "graph/road_map_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/random.h"

namespace atis::core {
namespace {

using graph::GridCostModel;
using graph::NodeId;

constexpr double kInf = std::numeric_limits<double>::infinity();

graph::Graph Grid(int k, GridCostModel model) {
  graph::GridGraphGenerator::Options opt;
  opt.k = k;
  opt.cost_model = model;
  auto g = graph::GridGraphGenerator::Generate(opt);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

OverlayTopology BuildTopology(const graph::Graph& g, uint32_t order) {
  OverlayOptions opt;
  opt.cell_order = order;
  auto t = OverlayTopology::Build(g, opt);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return std::move(t).value();
}

/// Reference: single-source Dijkstra over `g` restricted to the nodes in
/// `members` (intra-cell paths only), distances indexed by member index.
std::vector<double> RestrictedDistances(const graph::Graph& g,
                                        const std::vector<NodeId>& members,
                                        size_t source_member_idx) {
  std::vector<int32_t> member_idx_of(g.num_nodes(), -1);
  for (size_t i = 0; i < members.size(); ++i) {
    member_idx_of[static_cast<size_t>(members[i])] =
        static_cast<int32_t>(i);
  }
  std::vector<double> dist(members.size(), kInf);
  using Item = std::pair<double, size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source_member_idx] = 0.0;
  heap.emplace(0.0, source_member_idx);
  while (!heap.empty()) {
    const auto [d, mi] = heap.top();
    heap.pop();
    if (d > dist[mi]) continue;
    for (const graph::Edge& e : g.Neighbors(members[mi])) {
      const int32_t ti = member_idx_of[static_cast<size_t>(e.to)];
      if (ti < 0) continue;  // leaves the cell
      const double nd = d + e.cost;
      if (nd < dist[static_cast<size_t>(ti)]) {
        dist[static_cast<size_t>(ti)] = nd;
        heap.emplace(nd, static_cast<size_t>(ti));
      }
    }
  }
  return dist;
}

TEST(OverlayTopologyTest, PartitionCoversEveryNodeExactlyOnce) {
  const graph::Graph g = Grid(10, GridCostModel::kVariance20);
  const OverlayTopology topo = BuildTopology(g, 2);
  EXPECT_EQ(topo.cell_order(), 2u);
  EXPECT_EQ(topo.num_nodes(), g.num_nodes());
  EXPECT_GE(topo.num_cells(), 2u);

  size_t covered = 0;
  for (int32_t c = 0; c < static_cast<int32_t>(topo.num_cells()); ++c) {
    const OverlayTopology::Cell& cell = topo.cell(c);
    EXPECT_TRUE(std::is_sorted(cell.members.begin(), cell.members.end()));
    covered += cell.members.size();
    for (size_t mi = 0; mi < cell.members.size(); ++mi) {
      EXPECT_EQ(topo.CellOf(cell.members[mi]), c);
      EXPECT_EQ(topo.MemberIndexOf(cell.members[mi]),
                static_cast<int32_t>(mi));
    }
    ASSERT_EQ(cell.boundary.size(), cell.boundary_member_idx.size());
    for (size_t bi = 0; bi < cell.boundary.size(); ++bi) {
      EXPECT_EQ(cell.members[static_cast<size_t>(
                    cell.boundary_member_idx[bi])],
                cell.boundary[bi]);
      EXPECT_EQ(topo.BoundaryIndexOf(cell.boundary[bi]),
                static_cast<int32_t>(bi));
    }
  }
  EXPECT_EQ(covered, g.num_nodes());
}

TEST(OverlayTopologyTest, BoundaryIffIncidentToCellCrossingEdge) {
  const graph::Graph g = Grid(8, GridCostModel::kUniform);
  const OverlayTopology topo = BuildTopology(g, 2);
  std::vector<bool> crossing(g.num_nodes(), false);
  for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
    for (const graph::Edge& e : g.Neighbors(u)) {
      if (topo.CellOf(u) != topo.CellOf(e.to)) {
        crossing[static_cast<size_t>(u)] = true;
        crossing[static_cast<size_t>(e.to)] = true;
      }
    }
  }
  size_t boundary = 0;
  for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
    EXPECT_EQ(topo.IsBoundary(u), crossing[static_cast<size_t>(u)])
        << "node " << u;
    boundary += topo.IsBoundary(u) ? 1 : 0;
  }
  EXPECT_EQ(topo.num_boundary_nodes(), boundary);
}

TEST(OverlayTopologyTest, RejectsEmptyGraphAndBadOrder) {
  OverlayOptions opt;
  EXPECT_FALSE(OverlayTopology::Build(graph::Graph(), opt).ok());
  const graph::Graph g = Grid(4, GridCostModel::kUniform);
  opt.cell_order = 9;
  EXPECT_FALSE(OverlayTopology::Build(g, opt).ok());
}

TEST(OverlayTopologyTest, DegenerateGeometryYieldsOneCell) {
  graph::Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(1.0, 1.0);  // all coincident
  ASSERT_TRUE(g.AddUndirectedEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddUndirectedEdge(1, 2, 1.0).ok());
  ASSERT_TRUE(g.AddUndirectedEdge(2, 3, 1.0).ok());
  const OverlayTopology topo = BuildTopology(g, 3);
  EXPECT_EQ(topo.num_cells(), 1u);
  EXPECT_EQ(topo.num_boundary_nodes(), 0u);  // nothing crosses cells
}

/// `n` coincident, unconnected nodes: every order puts them in one cell.
graph::Graph Coincident(int n) {
  graph::Graph g;
  for (int i = 0; i < n; ++i) g.AddNode(0.0, 0.0);
  return g;
}

TEST(OverlayTopologyTest, OneCellOfTheCapsSizeIsAccepted) {
  OverlayOptions opt;
  opt.cell_order = 0;
  auto topo = OverlayTopology::Build(Coincident(8192), opt);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  EXPECT_EQ(topo->num_cells(), 1u);
  EXPECT_EQ(uint64_t{8192} * 8192, OverlayTopology::kMaxTableEntries);
}

TEST(OverlayTopologyTest, TablesOverTheCapAreRejected) {
  // A coordinate-less map at the default order is one cell too.
  auto topo = OverlayTopology::Build(Coincident(8193), OverlayOptions{});
  ASSERT_TRUE(topo.status().IsInvalidArgument()) << topo.status().ToString();
  const std::string msg = topo.status().ToString();
  EXPECT_NE(msg.find("67125249"), std::string::npos) << msg;  // 8193^2
  EXPECT_NE(msg.find("67108864"), std::string::npos) << msg;  // 2^26
  EXPECT_NE(msg.find("raise cell_order"), std::string::npos) << msg;
}

TEST(OverlayRowsTest, CellRowsRoundTrip) {
  const graph::Graph g = Grid(6, GridCostModel::kVariance20);
  const OverlayTopology topo = BuildTopology(g, 2);
  auto back =
      OverlayTopology::FromRows(topo.ToCellRows(), g, topo.cell_order());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_cells(), topo.num_cells());
  EXPECT_EQ(back->num_boundary_nodes(), topo.num_boundary_nodes());
  for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
    EXPECT_EQ(back->CellOf(u), topo.CellOf(u));
    EXPECT_EQ(back->IsBoundary(u), topo.IsBoundary(u));
  }
}

TEST(OverlayRowsTest, FromRowsRejectsCorruption) {
  const graph::Graph g = Grid(6, GridCostModel::kUniform);
  const OverlayTopology topo = BuildTopology(g, 2);
  const auto cells = topo.ToCellRows();

  // Missing a node's cell assignment.
  auto short_cells = cells;
  short_cells.pop_back();
  EXPECT_FALSE(
      OverlayTopology::FromRows(short_cells, g, topo.cell_order()).ok());

  // A boundary flag the graph does not imply.
  auto flipped = cells;
  flipped[0].is_boundary = !flipped[0].is_boundary;
  EXPECT_FALSE(OverlayTopology::FromRows(flipped, g, topo.cell_order()).ok());
}

TEST(OverlayPersistTest, PersistAndLoadRoundTripsThroughStore) {
  const graph::Graph g = Grid(8, GridCostModel::kVariance20);
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  graph::RelationalGraphStore store(&pool);
  ASSERT_TRUE(store.Load(g).ok());
  EXPECT_FALSE(store.has_overlay_topology());
  EXPECT_FALSE(store.LoadOverlayTopology().ok());  // nothing stored yet

  const OverlayTopology topo = BuildTopology(g, 2);
  auto loaded = PersistAndLoadOverlayTopology(topo, &store, g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(store.has_overlay_topology());
  EXPECT_EQ((*loaded)->num_cells(), topo.num_cells());
  EXPECT_EQ((*loaded)->num_boundary_nodes(), topo.num_boundary_nodes());

  // Re-persisting replaces the OC relation instead of appending.
  auto again = PersistAndLoadOverlayTopology(topo, &store, g);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->num_boundary_nodes(), topo.num_boundary_nodes());
}

class OverlayCustomizationTest : public ::testing::Test {
 protected:
  void SetUpWith(const graph::Graph& g, uint32_t order) {
    g_ = g;
    metric_ = WithStoredEdgeCosts(g_);
    disk_ = std::make_unique<storage::DiskManager>();
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 64);
    store_ = std::make_unique<graph::RelationalGraphStore>(pool_.get());
    ASSERT_TRUE(store_->Load(g_).ok());
    topo_ = std::make_shared<OverlayTopology>(BuildTopology(g_, order));
    auto cust = CustomizeOverlay(*topo_, metric_, /*metric_version=*/1);
    ASSERT_TRUE(cust.ok()) << cust.status().ToString();
    cust_ = std::move(cust).value();
  }

  /// Sets u -> v's cost in the map and, float-rounded as the store keeps
  /// it, in the metric the overlay is customized from.
  void SetCost(NodeId u, NodeId v, double cost) {
    ASSERT_TRUE(g_.SetEdgeCost(u, v, cost).ok());
    ASSERT_TRUE(metric_.SetEdgeCost(u, v, static_cast<float>(cost)).ok());
  }

  graph::Graph g_, metric_;
  std::unique_ptr<storage::DiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<graph::RelationalGraphStore> store_;
  std::shared_ptr<OverlayTopology> topo_;
  std::shared_ptr<const OverlayCustomization> cust_;
};

TEST_F(OverlayCustomizationTest, TablesMatchRestrictedDijkstra) {
  SetUpWith(Grid(8, GridCostModel::kVariance20), 2);
  // The store rounds costs to float; the reference must see the same
  // metric the customization read back.
  const graph::Graph rounded = WithStoredEdgeCosts(g_);
  for (int32_t c = 0; c < static_cast<int32_t>(topo_->num_cells()); ++c) {
    const OverlayTopology::Cell& cell = topo_->cell(c);
    const auto& tables = cust_->cell(c);
    ASSERT_EQ(tables.incell_dist.size(), cell.members.size());
    // Every member-rooted all-pairs row is a restricted Dijkstra tree.
    for (size_t si = 0; si < cell.members.size(); ++si) {
      const auto want = RestrictedDistances(rounded, cell.members, si);
      ASSERT_EQ(tables.incell_dist[si].size(), want.size());
      for (size_t mi = 0; mi < want.size(); ++mi) {
        EXPECT_NEAR(tables.incell_dist[si][mi],
                    std::isinf(want[mi]) ? kInf : want[mi], 1e-9)
            << "cell " << c << " " << si << "->" << mi;
        if (std::isinf(want[mi])) {
          EXPECT_TRUE(std::isinf(tables.incell_dist[si][mi]));
        }
      }
    }
  }
  EXPECT_EQ(cust_->metric_version(), 1u);
}

TEST(OverlayCustomizeTest, MetricEdgeOutOfAnInteriorNodeIsCorruption) {
  // The topology comes from the grid; the metric holds one more edge,
  // from an interior node into another cell, so the two disagree.
  const graph::Graph g = Grid(8, GridCostModel::kUniform);
  const OverlayTopology topo = BuildTopology(g, 1);
  ASSERT_FALSE(topo.IsBoundary(0));
  ASSERT_NE(topo.CellOf(0), topo.CellOf(63));
  graph::Graph metric = WithStoredEdgeCosts(g);
  ASSERT_TRUE(metric.AddEdge(0, 63, 1.0).ok());
  EXPECT_TRUE(CustomizeOverlay(topo, metric, 1).status().IsCorruption());
}

TEST(OverlayCustomizeTest, MetricOfAnotherMapIsRejected) {
  const OverlayTopology topo =
      BuildTopology(Grid(8, GridCostModel::kUniform), 1);
  const graph::Graph other = Grid(6, GridCostModel::kUniform);
  EXPECT_TRUE(CustomizeOverlay(topo, other, 1).status().IsInvalidArgument());
}

/// Reads every node's adjacency back through the store's FetchAdjacency:
/// the metric a database search accumulates.
graph::Graph StoredAdjacency(const graph::Graph& g,
                             const graph::RelationalGraphStore& store) {
  graph::Graph stored;
  for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
    stored.AddNode(g.point(u).x, g.point(u).y);
  }
  for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
    auto rows = store.FetchAdjacency(u);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok()) continue;
    for (const auto& row : *rows) {
      EXPECT_TRUE(stored.AddEdge(u, row.end, row.cost).ok());
    }
  }
  return stored;
}

TEST(OverlayCustomizeTest, TablesEqualRestrictedDijkstraOverTheStore) {
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  const graph::Graph maps[] = {Grid(12, GridCostModel::kVariance20),
                               rm->graph};
  for (const graph::Graph& g : maps) {
    SCOPED_TRACE(g.num_nodes());
    storage::DiskManager disk;
    storage::BufferPool pool(&disk, 64);
    graph::RelationalGraphStore store(&pool);
    ASSERT_TRUE(store.Load(g).ok());
    const graph::Graph stored = StoredAdjacency(g, store);
    const graph::Graph metric = WithStoredEdgeCosts(g);
    for (const uint32_t order : {1u, 2u, 3u}) {
      SCOPED_TRACE(order);
      const OverlayTopology topo = BuildTopology(g, order);
      auto cust = CustomizeOverlay(topo, metric, 1);
      ASSERT_TRUE(cust.ok()) << cust.status().ToString();
      for (int32_t c = 0; c < static_cast<int32_t>(topo.num_cells()); ++c) {
        const std::vector<NodeId>& members = topo.cell(c).members;
        const auto& dist = (*cust)->cell(c).incell_dist;
        ASSERT_EQ(dist.size(), members.size());
        for (size_t si = 0; si < members.size(); ++si) {
          ASSERT_EQ(dist[si], RestrictedDistances(stored, members, si))
              << "cell " << c << " row " << si;
        }
      }
    }
  }
}

TEST_F(OverlayCustomizationTest, CrossArcsAreExactlyTheCrossingEdges) {
  SetUpWith(Grid(8, GridCostModel::kSkewed), 2);
  const graph::Graph rounded = WithStoredEdgeCosts(g_);
  for (NodeId u = 0; u < static_cast<NodeId>(g_.num_nodes()); ++u) {
    std::vector<std::pair<NodeId, double>> want;
    for (const graph::Edge& e : rounded.Neighbors(u)) {
      if (topo_->CellOf(u) != topo_->CellOf(e.to)) {
        want.emplace_back(e.to, e.cost);
      }
    }
    const auto& got = cust_->cross_arcs(u);
    ASSERT_EQ(got.size(), want.size()) << "node " << u;
    for (const auto& [to, cost] : want) {
      const auto it = std::find_if(
          got.begin(), got.end(),
          [to = to](const graph::Edge& e) { return e.to == to; });
      ASSERT_NE(it, got.end()) << "node " << u << " -> " << to;
      EXPECT_NEAR(it->cost, cost, 1e-9);
    }
  }
}

TEST_F(OverlayCustomizationTest, IncrementalEqualsFullRecustomization) {
  SetUpWith(Grid(8, GridCostModel::kVariance20), 2);

  // Pick one same-cell and one cross-cell edge.
  NodeId same_u = graph::kInvalidNode, same_v = graph::kInvalidNode;
  NodeId cross_u = graph::kInvalidNode, cross_v = graph::kInvalidNode;
  for (NodeId u = 0; u < static_cast<NodeId>(g_.num_nodes()); ++u) {
    for (const graph::Edge& e : g_.Neighbors(u)) {
      if (topo_->CellOf(u) == topo_->CellOf(e.to)) {
        if (same_u == graph::kInvalidNode) same_u = u, same_v = e.to;
      } else if (cross_u == graph::kInvalidNode) {
        cross_u = u, cross_v = e.to;
      }
    }
  }
  ASSERT_NE(same_u, graph::kInvalidNode);
  ASSERT_NE(cross_u, graph::kInvalidNode);

  for (const auto& [u, v, want_changed] :
       {std::tuple{same_u, same_v, size_t{1}},
        std::tuple{cross_u, cross_v, size_t{0}}}) {
    SetCost(u, v, *g_.EdgeCost(u, v) + 7.25);

    size_t cells_changed = 99;
    const std::pair<NodeId, NodeId> edge{u, v};
    auto incr = RecustomizeForEdges(*topo_, *cust_, {&edge, 1}, metric_,
                                    &cells_changed,
                                    cust_->metric_version() + 1);
    ASSERT_TRUE(incr.ok()) << incr.status().ToString();
    EXPECT_EQ(cells_changed, want_changed) << u << "->" << v;

    auto full = CustomizeOverlay(*topo_, metric_, (*incr)->metric_version());
    ASSERT_TRUE(full.ok());

    for (int32_t c = 0; c < static_cast<int32_t>(topo_->num_cells());
         ++c) {
      EXPECT_EQ((*incr)->cell(c).incell_dist,
                (*full)->cell(c).incell_dist);
    }
    for (NodeId n = 0; n < static_cast<NodeId>(g_.num_nodes()); ++n) {
      const auto& a = (*incr)->cross_arcs(n);
      const auto& b = (*full)->cross_arcs(n);
      ASSERT_EQ(a.size(), b.size()) << "node " << n;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].to, b[i].to);
        EXPECT_NEAR(a[i].cost, b[i].cost, 1e-9);
      }
    }
    cust_ = std::move(incr).value();
  }
}

/// Fixture for end-to-end Version 5 queries on one engine.
class OverlayQueryTest : public ::testing::Test {
 protected:
  void Start(const graph::Graph& g, uint32_t order) {
    g_ = g;
    disk_ = std::make_unique<storage::DiskManager>();
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 64);
    store_ = std::make_unique<graph::RelationalGraphStore>(pool_.get());
    ASSERT_TRUE(store_->Load(g_).ok());
    engine_ = std::make_unique<DbSearchEngine>(store_.get(), pool_.get(),
                                               DbSearchOptions{});
    OverlayOptions oopt;
    oopt.cell_order = order;
    auto built = OverlayTopology::Build(g_, oopt);
    ASSERT_TRUE(built.ok());
    auto topo = PersistAndLoadOverlayTopology(*built, store_.get(), g_);
    ASSERT_TRUE(topo.ok());
    rounded_ = WithStoredEdgeCosts(g_);
    auto cust = CustomizeOverlay(**topo, rounded_, 1);
    ASSERT_TRUE(cust.ok());
    ASSERT_TRUE(engine_
                    ->EnableOverlay(std::make_shared<OverlayIndex>(
                        OverlayIndex{std::move(topo).value(),
                                     std::move(cust).value()}))
                    .ok());
  }

  /// Asserts kV5 returns the Dijkstra-optimal cost and a valid path.
  void ExpectExact(NodeId s, NodeId d) {
    const PathResult want = DijkstraSearch(rounded_, s, d);
    auto got = engine_->AStar(s, d, AStarVersion::kV5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->found, want.found) << s << "->" << d;
    if (!want.found) return;
    EXPECT_NEAR(got->cost, want.cost, 1e-9) << s << "->" << d;
    // The returned path must be real: edges exist and re-sum to cost.
    ASSERT_GE(got->path.size(), 1u);
    EXPECT_EQ(got->path.front(), s);
    EXPECT_EQ(got->path.back(), d);
    double resum = 0.0;
    for (size_t i = 0; i + 1 < got->path.size(); ++i) {
      auto c = rounded_.EdgeCost(got->path[i], got->path[i + 1]);
      ASSERT_TRUE(c.ok()) << got->path[i] << "->" << got->path[i + 1];
      resum += *c;
    }
    EXPECT_NEAR(resum, got->cost, 1e-9) << s << "->" << d;
  }

  graph::Graph g_, rounded_;
  std::unique_ptr<storage::DiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<graph::RelationalGraphStore> store_;
  std::unique_ptr<DbSearchEngine> engine_;
};

TEST_F(OverlayQueryTest, ExactOnEveryGridCostModel) {
  for (const GridCostModel model :
       {GridCostModel::kUniform, GridCostModel::kVariance20,
        GridCostModel::kSkewed}) {
    SCOPED_TRACE(static_cast<int>(model));
    Start(Grid(10, model), 2);
    const NodeId n = static_cast<NodeId>(g_.num_nodes());
    const std::vector<std::pair<NodeId, NodeId>> trips = {
        {0, n - 1}, {9, 90},
        {0, 1},    // same cell, adjacent
        {55, 55},  // s == d
        {3, 47},   {n - 1, 0}};
    for (const auto& [s, d] : trips) ExpectExact(s, d);
  }
}

TEST_F(OverlayQueryTest, ExactOnOneWayRoadMapAtEveryOrder) {
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  for (const uint32_t order : {1u, 2u, 3u}) {
    SCOPED_TRACE(order);
    Start(rm->graph, order);
    const NodeId n = static_cast<NodeId>(g_.num_nodes());
    for (NodeId s = 3; s < n; s += 41) {
      ExpectExact(s, (s * 7 + n / 2) % n);
    }
  }
}

TEST_F(OverlayQueryTest, UnreachableDestinationReportsNotFound) {
  // A one-way spur: 2 -> 3 exists but nothing leaves node 3's sink side
  // back, so 3 -> 0 has no path.
  graph::Graph g;
  g.AddNode(0.0, 0.0);
  g.AddNode(1.0, 0.0);
  g.AddNode(0.0, 1.0);
  g.AddNode(1.0, 1.0);
  ASSERT_TRUE(g.AddUndirectedEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddUndirectedEdge(0, 2, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 1.0).ok());  // one-way into the corner
  Start(g, 1);
  ExpectExact(0, 3);  // reachable via the one-way edge
  const PathResult want = DijkstraSearch(rounded_, 3, 0);
  ASSERT_FALSE(want.found);
  auto got = engine_->AStar(3, 0, AStarVersion::kV5);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->found);
}

TEST_F(OverlayQueryTest, ExpiredDeadlineFailsCleanly) {
  Start(Grid(8, GridCostModel::kUniform), 2);
  auto r = engine_->AStar(0, 63, AStarVersion::kV5,
                          Deadline::After(0.0));
  EXPECT_FALSE(r.ok());
}

TEST(OverlayEnableTest, Version5NeedsEnableOverlayFirst) {
  const graph::Graph g = Grid(5, GridCostModel::kUniform);
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  graph::RelationalGraphStore store(&pool);
  ASSERT_TRUE(store.Load(g).ok());
  DbSearchEngine engine(&store, &pool);
  EXPECT_FALSE(engine.overlay_enabled());
  EXPECT_FALSE(engine.AStar(0, 24, AStarVersion::kV5).ok());
  EXPECT_FALSE(engine.EnableOverlay(nullptr).ok());
  // An index missing its customization half is rejected too.
  auto topo = OverlayTopology::Build(g, OverlayOptions{});
  ASSERT_TRUE(topo.ok());
  auto half = std::make_shared<OverlayIndex>();
  half->topology =
      std::make_shared<const OverlayTopology>(std::move(topo).value());
  EXPECT_FALSE(engine.EnableOverlay(half).ok());
  EXPECT_FALSE(engine.overlay_enabled());
}

TEST(OverlayEnableTest, CustomizationOfAnotherTopologyIsRejected) {
  const graph::Graph g = Grid(5, GridCostModel::kUniform);
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  graph::RelationalGraphStore store(&pool);
  ASSERT_TRUE(store.Load(g).ok());
  DbSearchEngine engine(&store, &pool);
  const auto topo =
      std::make_shared<const OverlayTopology>(BuildTopology(g, 1));
  const auto twin = std::make_shared<const OverlayTopology>(*topo);
  auto cust = CustomizeOverlay(*topo, WithStoredEdgeCosts(g), 1);
  ASSERT_TRUE(cust.ok());
  EXPECT_TRUE(engine
                  .EnableOverlay(std::make_shared<OverlayIndex>(
                      OverlayIndex{twin, *cust}))
                  .IsInvalidArgument());
  EXPECT_FALSE(engine.overlay_enabled());
  EXPECT_TRUE(engine
                  .EnableOverlay(std::make_shared<OverlayIndex>(
                      OverlayIndex{topo, *cust}))
                  .ok());
}


/// Asserts two customizations of one topology hold identical distance
/// tables and cross arcs.
void ExpectSameCustomization(const OverlayTopology& topo,
                             const OverlayCustomization& got,
                             const OverlayCustomization& want) {
  for (int32_t c = 0; c < static_cast<int32_t>(topo.num_cells()); ++c) {
    EXPECT_EQ(got.cell(c).incell_dist, want.cell(c).incell_dist)
        << "cell " << c;
  }
  for (NodeId n = 0; n < static_cast<NodeId>(topo.num_nodes()); ++n) {
    const auto& a = got.cross_arcs(n);
    const auto& b = want.cross_arcs(n);
    ASSERT_EQ(a.size(), b.size()) << "node " << n;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to) << "node " << n;
      EXPECT_EQ(a[i].cost, b[i].cost) << "node " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Version 5 exactness on random pairs, across grid sizes and cell orders:
// a larger order means more, smaller cells and more boundary crossings
// per route.

class OverlayExactnessTest
    : public OverlayQueryTest,
      public ::testing::WithParamInterface<std::tuple<int, uint32_t>> {};

TEST_P(OverlayExactnessTest, MatchesDijkstraOnRandomPairs) {
  const auto [k, order] = GetParam();
  Start(Grid(k, GridCostModel::kVariance20), order);
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    const auto s = static_cast<NodeId>(rng.UniformInt(g_.num_nodes()));
    const auto d = static_cast<NodeId>(rng.UniformInt(g_.num_nodes()));
    ExpectExact(s, d);
  }
}

INSTANTIATE_TEST_SUITE_P(GridAndCellOrders, OverlayExactnessTest,
                         ::testing::Combine(::testing::Values(8, 12, 20),
                                            ::testing::Values(1u, 2u, 3u)));

TEST_F(OverlayQueryTest, SameCellPairsWhoseBestRouteLeavesTheCellAreExact) {
  // A cheap street runs up column 4, just outside the cells holding
  // column 3, with cheap links across. Between two column-3 nodes of one
  // cell the best route leaves the cell for that street and comes back;
  // the in-cell table alone would overcharge exactly these pairs.
  graph::Graph g = Grid(8, GridCostModel::kUniform);
  for (int row = 0; row < 8; ++row) {
    const NodeId west = graph::GridGraphGenerator::NodeAt(8, row, 3);
    const NodeId street = graph::GridGraphGenerator::NodeAt(8, row, 4);
    ASSERT_TRUE(g.SetEdgeCost(west, street, 0.0625).ok());
    ASSERT_TRUE(g.SetEdgeCost(street, west, 0.0625).ok());
    if (row + 1 < 8) {
      const NodeId north = graph::GridGraphGenerator::NodeAt(8, row + 1, 4);
      ASSERT_TRUE(g.SetEdgeCost(street, north, 0.0625).ok());
      ASSERT_TRUE(g.SetEdgeCost(north, street, 0.0625).ok());
    }
  }
  Start(g, 1);
  const OverlayTopology topo = BuildTopology(g_, 1);
  ASSERT_NE(topo.CellOf(3), topo.CellOf(4));
  size_t must_leave = 0;
  for (int32_t c = 0; c < static_cast<int32_t>(topo.num_cells()); ++c) {
    const std::vector<NodeId>& members = topo.cell(c).members;
    for (size_t si = 0; si < members.size(); ++si) {
      const std::vector<double> in_cell =
          RestrictedDistances(rounded_, members, si);
      auto tree = SingleSourceDijkstra(rounded_, members[si]);
      ASSERT_TRUE(tree.ok());
      for (size_t mi = 0; mi < members.size(); ++mi) {
        if (!(in_cell[mi] > tree->Distance(members[mi]) + 1e-9)) continue;
        ++must_leave;
        ExpectExact(members[si], members[mi]);
      }
    }
  }
  EXPECT_GT(must_leave, 0u);
}

TEST_F(OverlayQueryTest, LongQuerySettlesFewerNodesThanDijkstra) {
  Start(Grid(30, GridCostModel::kVariance20), 2);
  const auto q = graph::GridGraphGenerator::DiagonalQuery(30);
  ExpectExact(q.source, q.destination);
  auto v5 = engine_->AStar(q.source, q.destination, AStarVersion::kV5);
  auto dijkstra = engine_->Dijkstra(q.source, q.destination);
  ASSERT_TRUE(v5.ok() && dijkstra.ok());
  // The overlay search settles boundary nodes only.
  EXPECT_LT(v5->stats.nodes_expanded, dijkstra->stats.nodes_expanded);
  EXPECT_LT(v5->stats.io.blocks_read, dijkstra->stats.io.blocks_read);
}

TEST_F(OverlayQueryTest, TrivialAndMissingNodeQueries) {
  Start(Grid(6, GridCostModel::kUniform), 1);
  auto same = engine_->AStar(5, 5, AStarVersion::kV5);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->found);
  EXPECT_EQ(same->cost, 0.0);
  EXPECT_EQ(same->path, std::vector<NodeId>{5});
  EXPECT_FALSE(engine_->AStar(0, 999, AStarVersion::kV5).ok());
  EXPECT_FALSE(engine_->AStar(999, 0, AStarVersion::kV5).ok());
}

TEST_F(OverlayQueryTest, OrderZeroIsOneCellAndStaysExact) {
  Start(Grid(5, GridCostModel::kVariance20), 0);
  const OverlayTopology topo = BuildTopology(g_, 0);
  EXPECT_EQ(topo.num_cells(), 1u);
  EXPECT_EQ(topo.num_boundary_nodes(), 0u);
  for (NodeId n = 0; n < static_cast<NodeId>(g_.num_nodes()); ++n) {
    ExpectExact(0, n);
    ExpectExact(n, 0);
  }
}

TEST_F(OverlayQueryTest, ExactOnThePaperRoadMapTrips) {
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  for (const uint32_t order : {1u, 2u, 3u}) {
    SCOPED_TRACE(order);
    Start(rm->graph, order);
    for (const auto& [s, d] : {std::pair{rm->a, rm->b}, std::pair{rm->c, rm->d},
                               std::pair{rm->g, rm->d},
                               std::pair{rm->e, rm->f}}) {
      ExpectExact(s, d);
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental re-customization is how served traffic updates reach
// Version 5: chained per-edge repairs must always equal a customization
// from scratch, and must leave the tables of untouched cells shared.

class OverlayRecustomizeProperty
    : public OverlayCustomizationTest,
      public ::testing::WithParamInterface<uint64_t> {};

TEST_P(OverlayRecustomizeProperty, ChainedEdgeChangesMatchFullCustomization) {
  graph::GridGraphGenerator::Options gopt;
  gopt.k = 10;
  gopt.cost_model = GridCostModel::kVariance20;
  gopt.seed = GetParam();
  auto g = graph::GridGraphGenerator::Generate(gopt);
  ASSERT_TRUE(g.ok());
  SetUpWith(*g, 2);
  Rng rng(GetParam() * 131);
  for (int change = 0; change < 15; ++change) {
    const auto u = static_cast<NodeId>(rng.UniformInt(g_.num_nodes()));
    const auto edges = g_.Neighbors(u);
    ASSERT_FALSE(edges.empty());
    const NodeId v = edges[rng.UniformInt(edges.size())].to;
    const double factor = rng.NextDouble() < 0.5
                              ? rng.UniformDouble(0.05, 0.9)   // decrease
                              : rng.UniformDouble(1.2, 20.0);  // increase
    const double cost = *g_.EdgeCost(u, v) * factor;
    ASSERT_TRUE(store_->UpdateEdgeCost(u, v, cost).ok());
    SetCost(u, v, cost);

    size_t cells_changed = 99;
    const std::pair<NodeId, NodeId> edge{u, v};
    auto incr = RecustomizeForEdges(*topo_, *cust_, {&edge, 1}, metric_,
                                    &cells_changed,
                                    cust_->metric_version() + 1);
    ASSERT_TRUE(incr.ok()) << incr.status().ToString();
    EXPECT_EQ(cells_changed, topo_->CellOf(u) == topo_->CellOf(v) ? 1u : 0u);
    auto full = CustomizeOverlay(*topo_, metric_, (*incr)->metric_version());
    ASSERT_TRUE(full.ok());
    ExpectSameCustomization(*topo_, **incr, **full);
    cust_ = std::move(incr).value();  // chain repairs
  }

  // Version 5 over the chained customization answers the changed map.
  DbSearchEngine engine(store_.get(), pool_.get(), DbSearchOptions{});
  ASSERT_TRUE(engine
                  .EnableOverlay(std::make_shared<OverlayIndex>(
                      OverlayIndex{topo_, cust_}))
                  .ok());
  auto tree = SingleSourceDijkstra(WithStoredEdgeCosts(g_), 0);
  ASSERT_TRUE(tree.ok());
  for (NodeId d = 0; d < static_cast<NodeId>(g_.num_nodes()); ++d) {
    auto got = engine.AStar(0, d, AStarVersion::kV5);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->found, tree->Reaches(d)) << "0->" << d;
    EXPECT_NEAR(got->cost, tree->Distance(d), 1e-9) << "0->" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayRecustomizeProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST_F(OverlayCustomizationTest, EdgeUpdateRebuildsOneCellAndSharesTheRest) {
  SetUpWith(Grid(20, GridCostModel::kVariance20), 3);
  // A far-corner street, both directions: its cell is one of 64.
  const NodeId u = graph::GridGraphGenerator::NodeAt(20, 19, 18);
  const NodeId v = graph::GridGraphGenerator::NodeAt(20, 19, 19);
  const int32_t cell = topo_->CellOf(u);
  ASSERT_EQ(topo_->CellOf(v), cell);
  ASSERT_GT(topo_->num_cells(), 16u);
  SetCost(u, v, 5.0);
  SetCost(v, u, 5.0);

  const std::pair<NodeId, NodeId> edges[] = {{u, v}, {v, u}};
  size_t cells_changed = 99;
  auto incr = RecustomizeForEdges(*topo_, *cust_, edges, metric_,
                                  &cells_changed, /*metric_version=*/2);
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();
  EXPECT_EQ(cells_changed, 1u);
  EXPECT_EQ((*incr)->metric_version(), 2u);
  for (int32_t c = 0; c < static_cast<int32_t>(topo_->num_cells()); ++c) {
    if (c == cell) {
      EXPECT_NE(&(*incr)->cell(c), &cust_->cell(c));
    } else {
      EXPECT_EQ(&(*incr)->cell(c), &cust_->cell(c)) << "cell " << c;
    }
  }
  auto full = CustomizeOverlay(*topo_, metric_, 2);
  ASSERT_TRUE(full.ok());
  ExpectSameCustomization(*topo_, **incr, **full);
}

TEST_F(OverlayCustomizationTest, BatchRebuildsEachTouchedCellOnce) {
  SetUpWith(Grid(10, GridCostModel::kVariance20), 2);
  const int32_t first = topo_->CellOf(0);
  const int32_t last = topo_->CellOf(99);
  ASSERT_NE(first, last);
  // Every street inside the first and last cells, plus two cross-cell
  // streets: two cells to rebuild however many updates land in them.
  std::vector<std::pair<NodeId, NodeId>> edges;
  size_t cross = 0;
  for (NodeId u = 0; u < static_cast<NodeId>(g_.num_nodes()); ++u) {
    for (const graph::Edge& e : g_.Neighbors(u)) {
      const int32_t c = topo_->CellOf(u);
      const bool same = c == topo_->CellOf(e.to);
      if (same && (c == first || c == last)) {
        edges.emplace_back(u, e.to);
      } else if (!same && cross < 2) {
        edges.emplace_back(u, e.to);
        ++cross;
      }
    }
  }
  ASSERT_EQ(cross, 2u);
  ASSERT_GT(edges.size(), 10u);
  for (const auto& [u, v] : edges) SetCost(u, v, *g_.EdgeCost(u, v) + 1.5);
  size_t cells_changed = 99;
  auto incr = RecustomizeForEdges(*topo_, *cust_, edges, metric_,
                                  &cells_changed, /*metric_version=*/7);
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();
  EXPECT_EQ(cells_changed, 2u);
  EXPECT_EQ((*incr)->metric_version(), 7u);
  auto full = CustomizeOverlay(*topo_, metric_, 7);
  ASSERT_TRUE(full.ok());
  ExpectSameCustomization(*topo_, **incr, **full);
}

TEST_F(OverlayCustomizationTest, CrossCellEdgeUpdateRereadsOnlyTheTail) {
  SetUpWith(Grid(10, GridCostModel::kVariance20), 2);
  NodeId u = graph::kInvalidNode, v = graph::kInvalidNode;
  for (NodeId n = 0; n < static_cast<NodeId>(g_.num_nodes()) &&
                     u == graph::kInvalidNode;
       ++n) {
    for (const graph::Edge& e : g_.Neighbors(n)) {
      if (topo_->CellOf(n) != topo_->CellOf(e.to)) {
        u = n, v = e.to;
        break;
      }
    }
  }
  ASSERT_NE(u, graph::kInvalidNode);
  SetCost(u, v, 42.0);

  // A one-element batch: no cell tables change, only u's cross arcs.
  const std::pair<NodeId, NodeId> edge{u, v};
  size_t cells_changed = 99;
  auto incr = RecustomizeForEdges(*topo_, *cust_, {&edge, 1}, metric_,
                                  &cells_changed,
                                  cust_->metric_version() + 1);
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();
  EXPECT_EQ(cells_changed, 0u);
  EXPECT_EQ((*incr)->metric_version(), cust_->metric_version() + 1);
  for (int32_t c = 0; c < static_cast<int32_t>(topo_->num_cells()); ++c) {
    EXPECT_EQ(&(*incr)->cell(c), &cust_->cell(c)) << "cell " << c;
  }
  const auto& arcs = (*incr)->cross_arcs(u);
  const auto it = std::find_if(arcs.begin(), arcs.end(),
                               [v](const graph::Edge& e) { return e.to == v; });
  ASSERT_NE(it, arcs.end());
  EXPECT_EQ(it->cost, 42.0);
  auto full = CustomizeOverlay(*topo_, metric_, cust_->metric_version() + 1);
  ASSERT_TRUE(full.ok());
  ExpectSameCustomization(*topo_, **incr, **full);
}

TEST_F(OverlayCustomizationTest, CrossCellUpdateCopiesOnlyTheTailsCellsArcs) {
  SetUpWith(Grid(10, GridCostModel::kVariance20), 2);
  NodeId u = graph::kInvalidNode, v = graph::kInvalidNode;
  for (NodeId n = 0; n < static_cast<NodeId>(g_.num_nodes()) &&
                     u == graph::kInvalidNode;
       ++n) {
    for (const graph::Edge& e : g_.Neighbors(n)) {
      if (topo_->CellOf(n) != topo_->CellOf(e.to)) {
        u = n, v = e.to;
        break;
      }
    }
  }
  ASSERT_NE(u, graph::kInvalidNode);
  SetCost(u, v, 42.0);
  const std::pair<NodeId, NodeId> edge{u, v};
  size_t cells_changed = 99;
  auto incr = RecustomizeForEdges(*topo_, *cust_, {&edge, 1}, metric_,
                                  &cells_changed,
                                  cust_->metric_version() + 1);
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();
  // Every node outside the tail's cell reads the previous customization's
  // storage; only the tail's cell holds a fresh copy.
  for (NodeId n = 0; n < static_cast<NodeId>(g_.num_nodes()); ++n) {
    if (topo_->CellOf(n) == topo_->CellOf(u)) continue;
    EXPECT_EQ(&(*incr)->cross_arcs(n), &cust_->cross_arcs(n)) << "node " << n;
  }
  EXPECT_NE(&(*incr)->cross_arcs(u), &cust_->cross_arcs(u));
}

TEST_F(OverlayCustomizationTest, EmptyBatchSharesEveryTableAtTheNewVersion) {
  SetUpWith(Grid(6, GridCostModel::kSkewed), 1);
  size_t cells_changed = 99;
  auto next = RecustomizeForEdges(
      *topo_, *cust_, std::span<const std::pair<NodeId, NodeId>>{}, metric_,
      &cells_changed, /*metric_version=*/5);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(cells_changed, 0u);
  EXPECT_EQ((*next)->metric_version(), 5u);
  for (int32_t c = 0; c < static_cast<int32_t>(topo_->num_cells()); ++c) {
    EXPECT_EQ(&(*next)->cell(c), &cust_->cell(c)) << "cell " << c;
  }
  ExpectSameCustomization(*topo_, **next, *cust_);
}

TEST_F(OverlayCustomizationTest, EdgesOutsideTheOverlayAreRejected) {
  SetUpWith(Grid(4, GridCostModel::kUniform), 1);
  size_t cells_changed = 0;
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{0, 999},
                             std::pair<NodeId, NodeId>{999, 0},
                             std::pair<NodeId, NodeId>{-1, 0}}) {
    const std::pair<NodeId, NodeId> edge{u, v};
    EXPECT_TRUE(RecustomizeForEdges(*topo_, *cust_, {&edge, 1}, metric_,
                                    &cells_changed, 2)
                    .status()
                    .IsInvalidArgument())
        << u << "->" << v;
    const std::pair<NodeId, NodeId> batch[] = {{0, 1}, {u, v}};
    EXPECT_TRUE(RecustomizeForEdges(*topo_, *cust_, batch, metric_,
                                    &cells_changed, 2)
                    .status()
                    .IsInvalidArgument())
        << u << "->" << v;
  }
}

TEST_F(OverlayQueryTest, ClosedStreetsDisconnectAndReopenedOnesReconnect) {
  // An infinite cost closes a street: the customized tables and cross
  // arcs must drop it rather than route through it.
  Start(Grid(6, GridCostModel::kUniform), 1);
  const NodeId corner = 35;
  const std::pair<NodeId, NodeId> into_corner[] = {{29, corner},
                                                   {34, corner}};
  const auto topo =
      std::make_shared<const OverlayTopology>(BuildTopology(g_, 1));
  auto base = CustomizeOverlay(*topo, rounded_, 1);
  ASSERT_TRUE(base.ok());
  std::shared_ptr<const OverlayCustomization> cust = std::move(base).value();
  const auto recustomize = [&](double cost, uint64_t version) {
    for (const auto& [u, v] : into_corner) {
      ASSERT_TRUE(store_->UpdateEdgeCost(u, v, cost).ok());
      ASSERT_TRUE(g_.SetEdgeCost(u, v, cost).ok());
    }
    rounded_ = WithStoredEdgeCosts(g_);
    size_t cells_changed = 0;
    auto next = RecustomizeForEdges(*topo, *cust, into_corner, rounded_,
                                    &cells_changed, version);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    cust = std::move(next).value();
    ASSERT_TRUE(engine_
                    ->EnableOverlay(std::make_shared<OverlayIndex>(
                        OverlayIndex{topo, cust}))
                    .ok());
  };

  recustomize(kInf, 2);
  for (NodeId s = 0; s < corner; ++s) {
    auto got = engine_->AStar(s, corner, AStarVersion::kV5);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got->found) << s << "->" << corner;
    ExpectExact(corner, s);  // the corner's own exits stay open
  }

  recustomize(1.0, 3);
  for (NodeId s = 0; s < corner; ++s) ExpectExact(s, corner);
}

}  // namespace
}  // namespace atis::core
