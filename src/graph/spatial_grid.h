// Spatial hash grid for nearest-neighbor queries over planar points.
//
// Map generation repeatedly asks "which node is closest to (x, y)?" —
// landmark placement, gateway selection, cluster stitching. A linear scan
// is O(n) per query and O(n^2) over a generation pass, which is the
// difference between seconds and hours at continent scale (~1M nodes).
// This grid buckets points into square cells of a caller-chosen size; a
// nearest query expands outward ring by ring and stops as soon as no
// unexamined ring can beat the best candidate, so uniform-ish point sets
// answer in O(1) expected time.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace atis::graph {

class SpatialHashGrid {
 public:
  /// `cell_size` must be > 0; pick roughly the typical point spacing so
  /// cells hold O(1) points each.
  explicit SpatialHashGrid(double cell_size) : cell_size_(cell_size) {}

  void Reserve(size_t n) { cells_.reserve(n); }

  void Insert(NodeId id, double x, double y) {
    cells_[KeyFor(x, y)].push_back(Entry{id, x, y});
    ++size_;
  }

  size_t size() const { return size_; }

  /// The inserted point nearest to (x, y); ties break toward the smaller
  /// node id (deterministic). kInvalidNode when the grid is empty.
  NodeId Nearest(double x, double y) const;

 private:
  struct Entry {
    NodeId id;
    double x;
    double y;
  };

  int64_t CellCoord(double v) const {
    return static_cast<int64_t>(std::floor(v / cell_size_));
  }
  static uint64_t Pack(int64_t cx, int64_t cy) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(cy));
  }
  uint64_t KeyFor(double x, double y) const {
    return Pack(CellCoord(x), CellCoord(y));
  }

  double cell_size_;
  size_t size_ = 0;
  std::unordered_map<uint64_t, std::vector<Entry>> cells_;
};

}  // namespace atis::graph
