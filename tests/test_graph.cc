#include "graph/graph.h"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/graph_io.h"
#include "util/random.h"

namespace atis::graph {
namespace {

TEST(GraphTest, AddNodesAssignsDenseIds) {
  Graph g;
  EXPECT_EQ(g.AddNode(0, 0), 0);
  EXPECT_EQ(g.AddNode(1, 2), 1);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_DOUBLE_EQ(g.point(1).x, 1.0);
  EXPECT_DOUBLE_EQ(g.point(1).y, 2.0);
}

TEST(GraphTest, HasNodeBounds) {
  Graph g;
  g.AddNode(0, 0);
  EXPECT_TRUE(g.HasNode(0));
  EXPECT_FALSE(g.HasNode(1));
  EXPECT_FALSE(g.HasNode(-1));
  EXPECT_FALSE(g.HasNode(kInvalidNode));
}

TEST(GraphTest, DirectedEdgeOnlyOneWay) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(*g.EdgeCost(0, 1), 2.0);
  EXPECT_TRUE(g.EdgeCost(1, 0).status().IsNotFound());
}

TEST(GraphTest, UndirectedEdgeAddsBoth) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  ASSERT_TRUE(g.AddUndirectedEdge(0, 1, 3.0).ok());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(*g.EdgeCost(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(*g.EdgeCost(1, 0), 3.0);
}

TEST(GraphTest, NegativeCostRejected) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  EXPECT_TRUE(g.AddEdge(0, 1, -1.0).IsInvalidArgument());
}

TEST(GraphTest, EdgeToUnknownNodeRejected) {
  Graph g;
  g.AddNode(0, 0);
  EXPECT_TRUE(g.AddEdge(0, 5, 1.0).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(5, 0, 1.0).IsInvalidArgument());
}

TEST(GraphTest, NeighborsAndDegree) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(i, 0);
  ASSERT_TRUE(g.AddEdge(0, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 3, 1).ok());
  EXPECT_EQ(g.OutDegree(0), 3u);
  EXPECT_EQ(g.Neighbors(0).size(), 3u);
  EXPECT_EQ(g.OutDegree(1), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 3.0 / 4.0);
}

TEST(GraphTest, Distances) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(3, 4);
  EXPECT_DOUBLE_EQ(g.EuclideanDistance(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(g.ManhattanDistance(0, 1), 7.0);
}

TEST(GraphTest, SetEdgeCost) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.SetEdgeCost(0, 1, 7.5).ok());
  EXPECT_DOUBLE_EQ(*g.EdgeCost(0, 1), 7.5);
  EXPECT_TRUE(g.SetEdgeCost(1, 0, 1.0).IsNotFound());
  EXPECT_TRUE(g.SetEdgeCost(0, 1, -1.0).IsInvalidArgument());
}

// Random points on a 10x10 square: a two-way ring plus 4n random one-way
// chords.
Graph RandomGeometric(uint64_t seed, size_t n = 80) {
  Rng rng(seed);
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(rng.UniformDouble(0, 10), rng.UniformDouble(0, 10));
  }
  for (size_t i = 0; i < n; ++i) {
    const NodeId u = static_cast<NodeId>(i);
    const NodeId v = static_cast<NodeId>((i + 1) % n);
    EXPECT_TRUE(g.AddUndirectedEdge(u, v, g.EuclideanDistance(u, v) + 0.01)
                    .ok());
  }
  for (size_t i = 0; i < 4 * n; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    if (u == v) continue;
    EXPECT_TRUE(g.AddEdge(u, v, g.EuclideanDistance(u, v) +
                                    rng.UniformDouble(0.01, 1.0))
                    .ok());
  }
  return g;
}

TEST(ReverseOfTest, TransposesEdges) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 1);
  ASSERT_TRUE(g.AddEdge(0, 1, 2.5).ok());
  const Graph rev = ReverseOf(g);
  EXPECT_EQ(rev.num_nodes(), 2u);
  EXPECT_EQ(rev.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(*rev.EdgeCost(1, 0), 2.5);
  EXPECT_FALSE(rev.EdgeCost(0, 1).ok());
  EXPECT_DOUBLE_EQ(rev.point(1).x, 1.0);
}

TEST(ReverseOfTest, DoubleReverseIsIdentity) {
  const Graph g = RandomGeometric(5);
  const Graph back = ReverseOf(ReverseOf(g));
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
    for (const graph::Edge& e : g.Neighbors(u)) {
      EXPECT_TRUE(back.EdgeCost(u, e.to).ok());
    }
  }
}

TEST(GraphIoTest, RoundTripThroughText) {
  Graph g;
  g.AddNode(0.5, 1.5);
  g.AddNode(2.25, -3.0);
  g.AddNode(1, 1);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.25).ok());
  ASSERT_TRUE(g.AddUndirectedEdge(1, 2, 0.5).ok());

  std::stringstream ss;
  ASSERT_TRUE(WriteGraphText(g, ss).ok());
  auto back = ReadGraphText(ss);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_nodes(), 3u);
  EXPECT_EQ(back->num_edges(), 3u);
  EXPECT_DOUBLE_EQ(back->point(0).x, 0.5);
  EXPECT_DOUBLE_EQ(back->point(1).y, -3.0);
  EXPECT_DOUBLE_EQ(*back->EdgeCost(0, 1), 1.25);
  EXPECT_DOUBLE_EQ(*back->EdgeCost(2, 1), 0.5);
}

TEST(GraphIoTest, BadMagicRejected) {
  std::stringstream ss("NOTAGRAPH\n1\n0 0\n0\n");
  EXPECT_TRUE(ReadGraphText(ss).status().IsCorruption());
}

TEST(GraphIoTest, TruncatedInputRejected) {
  std::stringstream ss("ATISG1\n2\n0 0\n");
  EXPECT_TRUE(ReadGraphText(ss).status().IsCorruption());
}

TEST(GraphIoTest, FileSaveLoad) {
  Graph g;
  g.AddNode(1, 2);
  const std::string path = ::testing::TempDir() + "/atis_graph_io_test.txt";
  ASSERT_TRUE(SaveGraphFile(g, path).ok());
  auto back = LoadGraphFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_nodes(), 1u);
}

TEST(GraphIoTest, MissingFileFails) {
  EXPECT_TRUE(LoadGraphFile("/nonexistent/nope.txt").status().IsNotFound());
}

TEST(GraphIoTest, LayoutRoundTripsThroughVersion2Header) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(3, 4);
  ASSERT_TRUE(g.AddEdge(0, 1, 5.0).ok());
  for (const StoreLayout layout :
       {StoreLayout::kRowOrder, StoreLayout::kHilbert}) {
    std::stringstream ss;
    ASSERT_TRUE(WriteGraphText(g, layout, ss).ok());
    auto back = ReadGraphFileText(ss);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->layout, layout);
    EXPECT_EQ(back->graph.num_nodes(), 2u);
    EXPECT_EQ(back->graph.num_edges(), 1u);
  }
}

TEST(GraphIoTest, Version2HeaderHasExplicitLayoutLine) {
  Graph g;
  g.AddNode(1, 1);
  std::stringstream ss;
  ASSERT_TRUE(WriteGraphText(g, StoreLayout::kHilbert, ss).ok());
  std::string magic;
  std::string key;
  std::string name;
  ss >> magic >> key >> name;
  EXPECT_EQ(magic, "ATISG2");
  EXPECT_EQ(key, "layout");
  EXPECT_EQ(name, "hilbert");
}

TEST(GraphIoTest, Version1FileLoadsWithRowOrderLayout) {
  std::stringstream ss("ATISG1\n2\n0 0\n1 1\n1\n0 1 1.5\n");
  auto back = ReadGraphFileText(ss);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->layout, StoreLayout::kRowOrder);
  EXPECT_EQ(back->graph.num_nodes(), 2u);
}

TEST(GraphIoTest, Version2BadLayoutNameRejected) {
  std::stringstream ss("ATISG2\nlayout zorder\n1\n0 0\n0\n");
  EXPECT_TRUE(ReadGraphFileText(ss).status().IsCorruption());
}

TEST(GraphIoTest, Version2MissingLayoutLineRejected) {
  std::stringstream ss("ATISG2\n1\n0 0\n0\n");
  EXPECT_TRUE(ReadGraphFileText(ss).status().IsCorruption());
}

TEST(GraphIoTest, FileSaveLoadCarriesLayout) {
  Graph g;
  g.AddNode(1, 2);
  g.AddNode(4, 6);
  ASSERT_TRUE(g.AddEdge(0, 1, 5.0).ok());
  const std::string path =
      ::testing::TempDir() + "/atis_graph_layout_test.txt";
  ASSERT_TRUE(SaveGraphFile(g, StoreLayout::kHilbert, path).ok());
  auto back = LoadGraphFileWithLayout(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->layout, StoreLayout::kHilbert);
  // The plain loader still reads the graph and drops the layout.
  auto plain = LoadGraphFile(path);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->num_nodes(), 2u);
}

}  // namespace
}  // namespace atis::graph
