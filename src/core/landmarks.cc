#include "core/landmarks.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/sssp.h"
#include "graph/shortest_path.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"

namespace atis::core {

using graph::Graph;
using graph::NodeId;
using graph::RelationalGraphStore;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class LandmarkEstimator final : public Estimator {
 public:
  LandmarkEstimator(std::shared_ptr<const LandmarkSet> set,
                    double euclidean_scale)
      : set_(std::move(set)), euclidean_scale_(euclidean_scale) {}

  double Estimate(const graph::Point& a,
                  const graph::Point& b) const override {
    // Coordinate-only callers get just the geometric component (zero when
    // disabled) — a weaker but still valid lower bound.
    return euclidean_scale_ <= 0.0
               ? 0.0
               : euclidean_scale_ * std::hypot(a.x - b.x, a.y - b.y);
  }

  double EstimateNodes(NodeId from, const graph::Point& from_pt, NodeId to,
                       const graph::Point& to_pt) const override {
    return std::max(set_->LowerBound(from, to), Estimate(from_pt, to_pt));
  }

  EstimatorKind kind() const override { return EstimatorKind::kLandmark; }

 private:
  std::shared_ptr<const LandmarkSet> set_;
  double euclidean_scale_;
};

}  // namespace

double LandmarkSet::LowerBound(NodeId from, NodeId to) const {
  if (from == to) return 0.0;
  double bound = 0.0;
  for (size_t l = 0; l < landmarks_.size(); ++l) {
    const double lf = DistFrom(l, from);  // d(l -> n)
    const double lt = DistFrom(l, to);    // d(l -> t)
    const double fl = DistTo(l, from);    // d(n -> l)
    const double tl = DistTo(l, to);      // d(t -> l)
    // d(l,t) - d(l,n) is valid whenever d(l,n) is finite: if d(l,t) is
    // +inf too, l reaches n but not t, so n cannot reach t either and +inf
    // is the exact answer. Symmetrically for the backward column.
    if (lf != kInf && lt - lf > bound) bound = lt - lf;
    if (tl != kInf && fl - tl > bound) bound = fl - tl;
  }
  return bound;
}

std::vector<RelationalGraphStore::LandmarkDistRow> LandmarkSet::ToRows()
    const {
  std::vector<RelationalGraphStore::LandmarkDistRow> rows;
  rows.reserve(num_landmarks() * num_nodes());
  for (size_t l = 0; l < num_landmarks(); ++l) {
    for (size_t v = 0; v < num_nodes(); ++v) {
      RelationalGraphStore::LandmarkDistRow row;
      row.ord = static_cast<int32_t>(l);
      row.landmark = landmarks_[l];
      row.node = static_cast<NodeId>(v);
      row.dist_from = dist_from_[l][v];
      row.dist_to = dist_to_[l][v];
      rows.push_back(row);
    }
  }
  return rows;
}

Result<LandmarkSet> LandmarkSet::FromRows(
    const std::vector<RelationalGraphStore::LandmarkDistRow>& rows) {
  if (rows.empty()) {
    return Status::InvalidArgument("empty landmarkDist rows");
  }
  int32_t max_ord = 0;
  NodeId max_node = 0;
  for (const auto& row : rows) {
    max_ord = std::max(max_ord, row.ord);
    max_node = std::max(max_node, row.node);
    if (row.ord < 0 || row.node < 0) {
      return Status::InvalidArgument("negative landmarkDist key");
    }
  }
  const size_t k = static_cast<size_t>(max_ord) + 1;
  const size_t n = static_cast<size_t>(max_node) + 1;
  if (rows.size() != k * n) {
    return Status::InvalidArgument("ragged landmarkDist table");
  }
  std::vector<NodeId> landmarks(k, graph::kInvalidNode);
  std::vector<std::vector<double>> from(k, std::vector<double>(n, kInf));
  std::vector<std::vector<double>> to(k, std::vector<double>(n, kInf));
  for (const auto& row : rows) {
    const size_t l = static_cast<size_t>(row.ord);
    landmarks[l] = row.landmark;
    from[l][static_cast<size_t>(row.node)] = row.dist_from;
    to[l][static_cast<size_t>(row.node)] = row.dist_to;
  }
  return LandmarkSet(std::move(landmarks), std::move(from), std::move(to));
}

graph::Graph WithStoredEdgeCosts(const Graph& g) {
  Graph rounded;
  for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
    const graph::Point& p = g.point(u);
    rounded.AddNode(p.x, p.y);
  }
  for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
    for (const graph::Edge& e : g.Neighbors(u)) {
      (void)rounded.AddEdge(
          u, e.to, static_cast<double>(static_cast<float>(e.cost)));
    }
  }
  return rounded;
}

Result<LandmarkSet> SelectLandmarks(const Graph& g,
                                    const LandmarkOptions& options) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot select landmarks of empty graph");
  }
  if (!g.HasNode(options.seed_node)) {
    return Status::InvalidArgument("landmark seed node not in graph");
  }
  const auto started = std::chrono::steady_clock::now();
  const size_t k =
      std::max<size_t>(1, std::min(options.num_landmarks, g.num_nodes()));

  // Farthest node from the seed (ties to the smaller id) starts the set;
  // the seed itself is the fallback on a graph with no reachable pairs.
  ATIS_ASSIGN_OR_RETURN(auto seed_tree,
                        SingleSourceDijkstra(g, options.seed_node));
  NodeId first = options.seed_node;
  double best = -1.0;
  for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
    const double d = seed_tree.Distance(v);
    if (d != kInf && d > best) {
      best = d;
      first = v;
    }
  }

  std::vector<NodeId> landmarks{first};
  std::vector<std::vector<double>> dist_from;
  ATIS_ASSIGN_OR_RETURN(auto first_tree, SingleSourceDijkstra(g, first));
  dist_from.push_back(first_tree.distances());

  // min_dist[v]: distance from the chosen set; each new landmark
  // maximises it (greedy farthest-point sampling).
  std::vector<double> min_dist = dist_from.front();
  while (landmarks.size() < k) {
    NodeId next = graph::kInvalidNode;
    double far = 0.0;
    for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
      const double d = min_dist[static_cast<size_t>(v)];
      if (d == kInf || d <= far) continue;
      far = d;
      next = v;
    }
    if (next == graph::kInvalidNode) break;  // no spread left
    ATIS_ASSIGN_OR_RETURN(auto tree, SingleSourceDijkstra(g, next));
    landmarks.push_back(next);
    dist_from.push_back(tree.distances());
    for (size_t v = 0; v < min_dist.size(); ++v) {
      min_dist[v] = std::min(min_dist[v], dist_from.back()[v]);
    }
  }

  // Backward columns d(v -> l) = forward distances on the reverse graph.
  const Graph rev = graph::ReverseOf(g);
  std::vector<std::vector<double>> dist_to;
  dist_to.reserve(landmarks.size());
  for (const NodeId l : landmarks) {
    ATIS_ASSIGN_OR_RETURN(auto tree, SingleSourceDijkstra(rev, l));
    dist_to.push_back(tree.distances());
  }

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  obs::MetricsRegistry::Default()
      .GetGauge("atis_landmark_select_seconds",
                "Wall time of the latest landmark selection (SSSP runs)")
      .Set(seconds);
  return LandmarkSet(std::move(landmarks), std::move(dist_from),
                     std::move(dist_to));
}

namespace {

/// One column of RepairLandmarks: `dist` holds the distances from `root`
/// over `fwd` at the old costs of `changed` (oriented as in `fwd`, new
/// costs in `new_cost`); `bwd` is `fwd` reversed. `mark` is all zero on
/// entry and on return.
std::vector<double> RepairColumn(std::vector<double> dist, NodeId root,
                                 const Graph& fwd, const Graph& bwd,
                                 std::span<const ChangedEdge> changed,
                                 std::span<const double> new_cost,
                                 std::vector<uint8_t>& mark) {
  // 1. The nodes whose label may rise: heads of changed edges that were
  //    tight (label(u) + cost == label(v)) under either cost, closed under
  //    tight edges. A node reached through an unmarked tight parent edge
  //    keeps a path of unchanged edges, so its label is still reachable.
  std::vector<NodeId> affected;
  const auto mark_if = [&](NodeId v, double via) {
    const auto i = static_cast<size_t>(v);
    if (mark[i] || v == root || dist[i] == kInf || via != dist[i]) return;
    mark[i] = 1;
    affected.push_back(v);
  };
  for (size_t k = 0; k < changed.size(); ++k) {
    const ChangedEdge& e = changed[k];
    const double du = dist[static_cast<size_t>(e.u)];
    mark_if(e.v, du + e.old_cost);
    mark_if(e.v, du + new_cost[k]);
  }
  for (size_t next = 0; next < affected.size(); ++next) {
    const NodeId x = affected[next];
    const double dx = dist[static_cast<size_t>(x)];
    for (const graph::Edge& e : fwd.Neighbors(x)) mark_if(e.to, dx + e.cost);
  }

  // 2. Reset them, then offer each the best label its unaffected
  //    in-neighbours give it. 3. Offer every changed edge's head its
  //    new-cost label (this carries the decreases). 4. Run to exhaustion.
  for (const NodeId x : affected) dist[static_cast<size_t>(x)] = kInf;
  graph::ShortestPathSearch search(std::move(dist));
  for (const NodeId x : affected) {
    for (const graph::Edge& in : bwd.Neighbors(x)) {
      if (!mark[static_cast<size_t>(in.to)]) {
        search.Seed(x, search.dist(in.to) + in.cost);
      }
    }
  }
  for (size_t k = 0; k < changed.size(); ++k) {
    search.Seed(changed[k].v, search.dist(changed[k].u) + new_cost[k]);
  }
  search.Run([&fwd](NodeId u, const auto& relax) {
    for (const graph::Edge& e : fwd.Neighbors(u)) relax(e.to, e.cost);
  });
  for (const NodeId x : affected) mark[static_cast<size_t>(x)] = 0;
  return search.TakeDistances();
}

}  // namespace

Result<LandmarkSet> RepairLandmarks(const LandmarkSet& set, const Graph& g,
                                    const Graph& reverse,
                                    std::span<const ChangedEdge> changed) {
  if (g.num_nodes() != set.num_nodes() ||
      reverse.num_nodes() != set.num_nodes()) {
    return Status::InvalidArgument(
        "landmark table and graph differ in node count");
  }
  // New costs once, and the same edges flipped for the backward columns
  // (which are forward distances on the reverse graph).
  std::vector<double> new_cost;
  std::vector<ChangedEdge> flipped;
  new_cost.reserve(changed.size());
  flipped.reserve(changed.size());
  for (const ChangedEdge& e : changed) {
    auto cost = g.EdgeCost(e.u, e.v);
    if (!cost.ok()) {
      return Status::InvalidArgument("changed edge not in graph: " +
                                     cost.status().ToString());
    }
    new_cost.push_back(*cost);
    flipped.push_back({e.v, e.u, e.old_cost});
  }
  std::vector<uint8_t> mark(g.num_nodes(), 0);
  std::vector<std::vector<double>> from;
  std::vector<std::vector<double>> to;
  from.reserve(set.num_landmarks());
  to.reserve(set.num_landmarks());
  for (size_t l = 0; l < set.num_landmarks(); ++l) {
    const NodeId root = set.landmarks()[l];
    from.push_back(RepairColumn(set.dist_from(l), root, g, reverse, changed,
                                new_cost, mark));
    to.push_back(RepairColumn(set.dist_to(l), root, reverse, g, flipped,
                              new_cost, mark));
  }
  return LandmarkSet(set.landmarks(), std::move(from), std::move(to));
}

std::unique_ptr<Estimator> MakeLandmarkEstimator(
    std::shared_ptr<const LandmarkSet> set, double euclidean_scale) {
  if (set == nullptr) return nullptr;
  return std::make_unique<LandmarkEstimator>(std::move(set),
                                             euclidean_scale);
}

Result<std::shared_ptr<const LandmarkSet>> PersistAndLoadLandmarks(
    const LandmarkSet& set, RelationalGraphStore* store) {
  storage::IoMeter& meter =
      store->node_relation().pool()->disk()->meter();
  const storage::IoCounters before = meter.counters();
  const auto started = std::chrono::steady_clock::now();

  ATIS_RETURN_NOT_OK(store->StoreLandmarkDistances(set.ToRows()));
  ATIS_ASSIGN_OR_RETURN(auto rows, store->LoadLandmarkDistances());
  ATIS_ASSIGN_OR_RETURN(LandmarkSet loaded, LandmarkSet::FromRows(rows));

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  const storage::IoCounters delta = meter.counters() - before;
  auto& reg = obs::MetricsRegistry::Default();
  reg.GetGauge("atis_landmark_count",
               "Landmarks in the most recently installed ALT table")
      .Set(static_cast<double>(set.num_landmarks()));
  reg.GetGauge("atis_landmark_preprocess_seconds",
               "Wall time of the latest landmarkDist persist + load")
      .Set(seconds);
  reg.GetCounter("atis_landmark_preprocess_blocks_read_total",
                 "Blocks read persisting/loading landmarkDist relations")
      .Increment(delta.blocks_read);
  reg.GetCounter("atis_landmark_preprocess_blocks_written_total",
                 "Blocks written persisting/loading landmarkDist relations")
      .Increment(delta.blocks_written);
  return std::make_shared<const LandmarkSet>(std::move(loaded));
}

}  // namespace atis::core
