#include "graph/spatial_layout.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace atis::graph {

const char* StoreLayoutName(StoreLayout layout) {
  switch (layout) {
    case StoreLayout::kRowOrder:
      return "roworder";
    case StoreLayout::kHilbert:
      return "hilbert";
  }
  return "unknown";
}

bool StoreLayoutFromName(std::string_view name, StoreLayout* out) {
  if (name == "roworder") {
    *out = StoreLayout::kRowOrder;
    return true;
  }
  if (name == "hilbert") {
    *out = StoreLayout::kHilbert;
    return true;
  }
  return false;
}

uint64_t HilbertIndex(uint32_t order, uint32_t x, uint32_t y) {
  if (order == 0) return 0;  // one cell; 1u << (order - 1) would be UB
  uint64_t d = 0;
  for (uint32_t s = 1u << (order - 1); s > 0; s >>= 1) {
    const uint32_t rx = (x & s) ? 1 : 0;
    const uint32_t ry = (y & s) ? 1 : 0;
    d += static_cast<uint64_t>(s) * s * ((3 * rx) ^ ry);
    // Rotate the quadrant so the sub-curve enters/exits correctly.
    if (ry == 0) {
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

HilbertKeyMapper HilbertKeyMapper::FromBounds(double min_x, double min_y,
                                              double max_x, double max_y) {
  HilbertKeyMapper m;
  const double ext_x = max_x - min_x;
  const double ext_y = max_y - min_y;
  if (!(ext_x > 0.0) && !(ext_y > 0.0)) return m;  // degenerate
  m.min_x = min_x;
  m.min_y = min_y;
  const double side = static_cast<double>((1u << kHilbertOrder) - 1);
  m.scale = side / std::max(ext_x, ext_y);
  return m;
}

uint64_t HilbertKeyMapper::Key(double x, double y) const {
  if (degenerate()) return 0;
  const auto cx = static_cast<uint32_t>(std::llround((x - min_x) * scale));
  const auto cy = static_cast<uint32_t>(std::llround((y - min_y) * scale));
  return HilbertIndex(kHilbertOrder, cx, cy);
}

std::vector<NodeId> ComputeNodeOrder(const Graph& g, StoreLayout layout) {
  const NodeId n = static_cast<NodeId>(g.num_nodes());
  std::vector<NodeId> order(static_cast<size_t>(n));
  for (NodeId u = 0; u < n; ++u) order[static_cast<size_t>(u)] = u;
  if (layout == StoreLayout::kRowOrder || n == 0) return order;

  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  for (NodeId u = 0; u < n; ++u) {
    const Point& p = g.point(u);
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const HilbertKeyMapper mapper =
      HilbertKeyMapper::FromBounds(min_x, min_y, max_x, max_y);
  if (mapper.degenerate()) {
    // Degenerate geometry: no spatial signal; id order is the grid-cell
    // fallback (consecutive ids already share cells for generated maps).
    return order;
  }
  std::vector<uint64_t> key(static_cast<size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    const Point& p = g.point(u);
    key[static_cast<size_t>(u)] = mapper.Key(p.x, p.y);
  }
  std::sort(order.begin(), order.end(), [&key](NodeId a, NodeId b) {
    const uint64_t ka = key[static_cast<size_t>(a)];
    const uint64_t kb = key[static_cast<size_t>(b)];
    return ka != kb ? ka < kb : a < b;
  });
  return order;
}

}  // namespace atis::graph
