// Tests for graph/spatial_layout: the Hilbert curve itself, layout names,
// and ComputeNodeOrder's permutation contract (identity for kRowOrder,
// locality-preserving permutation for kHilbert, id-order fallback when
// the geometry carries no spatial signal).
#include "graph/spatial_layout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "graph/grid_generator.h"

namespace atis::graph {
namespace {

TEST(HilbertIndexTest, IsABijectionOnTheGrid) {
  // Order 3: every one of the 64 cells gets a distinct index in [0, 64).
  constexpr uint32_t kOrder = 3;
  constexpr uint64_t kCells = 64;
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < 8; ++x) {
    for (uint32_t y = 0; y < 8; ++y) {
      const uint64_t d = HilbertIndex(kOrder, x, y);
      EXPECT_LT(d, kCells);
      EXPECT_TRUE(seen.insert(d).second)
          << "duplicate index " << d << " at (" << x << ", " << y << ")";
    }
  }
  EXPECT_EQ(seen.size(), kCells);
}

TEST(HilbertIndexTest, ConsecutiveIndicesAreGridNeighbours) {
  // The defining property of the curve: stepping one unit along it moves
  // exactly one cell on the grid (Manhattan distance 1) — that is what
  // makes sorting by index pack near cells into the same block.
  constexpr uint32_t kOrder = 4;
  std::map<uint64_t, std::pair<uint32_t, uint32_t>> cell_of;
  for (uint32_t x = 0; x < 16; ++x) {
    for (uint32_t y = 0; y < 16; ++y) {
      cell_of[HilbertIndex(kOrder, x, y)] = {x, y};
    }
  }
  ASSERT_EQ(cell_of.size(), 256u);
  for (uint64_t d = 0; d + 1 < 256; ++d) {
    const auto [x0, y0] = cell_of[d];
    const auto [x1, y1] = cell_of[d + 1];
    const int manhattan = std::abs(static_cast<int>(x0) - static_cast<int>(x1)) +
                          std::abs(static_cast<int>(y0) - static_cast<int>(y1));
    EXPECT_EQ(manhattan, 1) << "curve jumps between d=" << d << " and d+1";
  }
}

TEST(HilbertIndexTest, OriginMapsToZero) {
  for (const uint32_t order : {0u, 1u, 4u, kHilbertOrder}) {
    EXPECT_EQ(HilbertIndex(order, 0, 0), 0u);
  }
}

TEST(StoreLayoutNameTest, CanonicalNamesRoundTrip) {
  for (const StoreLayout layout :
       {StoreLayout::kRowOrder, StoreLayout::kHilbert}) {
    StoreLayout back = StoreLayout::kRowOrder;
    ASSERT_TRUE(StoreLayoutFromName(StoreLayoutName(layout), &back));
    EXPECT_EQ(back, layout);
  }
  EXPECT_STREQ(StoreLayoutName(StoreLayout::kRowOrder), "roworder");
  EXPECT_STREQ(StoreLayoutName(StoreLayout::kHilbert), "hilbert");
}

TEST(StoreLayoutNameTest, UnknownNameRejectedAndOutputUntouched) {
  StoreLayout out = StoreLayout::kHilbert;
  EXPECT_FALSE(StoreLayoutFromName("zorder", &out));
  EXPECT_FALSE(StoreLayoutFromName("", &out));
  EXPECT_FALSE(StoreLayoutFromName("Hilbert", &out));  // case-sensitive
  EXPECT_EQ(out, StoreLayout::kHilbert);
}

Graph GridGraph(int k) {
  auto g = GridGraphGenerator::Generate({k, GridCostModel::kUniform});
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

bool IsPermutation(const std::vector<NodeId>& order, size_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (const NodeId u : order) {
    if (u < 0 || static_cast<size_t>(u) >= n || seen[static_cast<size_t>(u)]) {
      return false;
    }
    seen[static_cast<size_t>(u)] = true;
  }
  return true;
}

TEST(ComputeNodeOrderTest, RowOrderIsTheIdentity) {
  const Graph g = GridGraph(8);
  const std::vector<NodeId> order =
      ComputeNodeOrder(g, StoreLayout::kRowOrder);
  ASSERT_EQ(order.size(), g.num_nodes());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<NodeId>(i));
  }
}

TEST(ComputeNodeOrderTest, HilbertIsADeterministicPermutation) {
  const Graph g = GridGraph(10);
  const std::vector<NodeId> order = ComputeNodeOrder(g, StoreLayout::kHilbert);
  EXPECT_TRUE(IsPermutation(order, g.num_nodes()));
  EXPECT_EQ(order, ComputeNodeOrder(g, StoreLayout::kHilbert));
}

TEST(ComputeNodeOrderTest, HilbertPacksSpatialRegionsIntoFewerBlocks) {
  // The property the layout is for: a compact spatial region — the shape
  // of a search frontier — must touch fewer distinct blocks when tuples
  // are placed in Hilbert order. Model a block as 64 consecutive
  // insertion positions (two full rows under row order) and sum, over
  // every aligned 8 x 8 patch of a 32 x 32 grid, the number of distinct
  // blocks the patch's nodes land in. Row order pins each patch to 4
  // row-pair blocks; Hilbert keeps most patches inside 1-2.
  constexpr int kSide = 32;
  constexpr size_t kBlockPositions = 64;
  const Graph g = GridGraph(kSide);
  const std::vector<NodeId> hilbert =
      ComputeNodeOrder(g, StoreLayout::kHilbert);
  std::vector<size_t> pos(g.num_nodes());
  for (size_t i = 0; i < hilbert.size(); ++i) {
    pos[static_cast<size_t>(hilbert[i])] = i;
  }
  size_t row_blocks = 0;
  size_t hilbert_blocks = 0;
  for (int r0 = 0; r0 < kSide; r0 += 8) {
    for (int c0 = 0; c0 < kSide; c0 += 8) {
      std::set<size_t> row_touched;
      std::set<size_t> hilbert_touched;
      for (int r = r0; r < r0 + 8; ++r) {
        for (int c = c0; c < c0 + 8; ++c) {
          const auto u = static_cast<size_t>(r * kSide + c);
          row_touched.insert(u / kBlockPositions);
          hilbert_touched.insert(pos[u] / kBlockPositions);
        }
      }
      row_blocks += row_touched.size();
      hilbert_blocks += hilbert_touched.size();
    }
  }
  EXPECT_LT(hilbert_blocks, row_blocks);
}

TEST(ComputeNodeOrderTest, DegenerateGeometryFallsBackToIdOrder) {
  // All nodes on one point: no spatial signal, so kHilbert degrades to
  // id order instead of an arbitrary tie shuffle.
  Graph g;
  for (int i = 0; i < 10; ++i) g.AddNode(2.5, 2.5);
  const std::vector<NodeId> order = ComputeNodeOrder(g, StoreLayout::kHilbert);
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<NodeId>(i));
  }
}

TEST(ComputeNodeOrderTest, EmptyGraphYieldsEmptyOrder) {
  Graph g;
  EXPECT_TRUE(ComputeNodeOrder(g, StoreLayout::kHilbert).empty());
  EXPECT_TRUE(ComputeNodeOrder(g, StoreLayout::kRowOrder).empty());
}

}  // namespace
}  // namespace atis::graph
