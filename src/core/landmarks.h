// Landmark (ALT) preprocessing for A* — "Version 4".
//
// The paper's Versions 1-3 differ only in frontier representation and in
// the geometric estimator (Euclidean vs Manhattan); the whole argument is
// that a tighter admissible estimator shrinks the A* frontier and with it
// the block I/O. Landmark lower bounds are the strictly tighter
// continuation of that line: precompute exact shortest-path distances from
// a few well-spread landmark nodes, then bound any remaining distance with
// the triangle inequality. On a directed map, for landmark l, node n and
// destination t:
//
//     d(n, t) >= d(l, t) - d(l, n)     (forward column)
//     d(n, t) >= d(n, l) - d(t, l)     (backward column)
//
// and the estimator takes the max over landmarks and both columns — on a
// symmetric graph this is the classic max_l |d(l,t) - d(l,n)|. Both bounds
// hold for ANY non-negative cost model, unlike the geometric estimators
// which need edge costs to dominate geometric length.
//
// Landmarks are selected by farthest-point sampling (greedy: each new
// landmark is the node farthest from the already-chosen set), distances
// come from exact SSSP runs, and the table persists as a landmarkDist
// relation in the RelationalGraphStore so its I/O is accounted like every
// other relation. The estimator itself reads an in-memory copy loaded once
// per store replica.
//
// Traffic note: congestion only *raises* edge costs, and a lower bound for
// the cheaper metric is still a lower bound for the dearer one, so landmark
// tables stay admissible across congestion updates. A cost *decrease*
// (clearing an incident) invalidates them. RepairLandmarks then brings the
// table up to the current metric without 2k full SSSPs: per column it
// re-labels only the nodes whose shortest paths ran through a changed edge
// and propagates the decreases, and the result equals a from-scratch
// table bit for bit. A caller may hold increases back until the next
// decrease and repair them all at once (RouteServer does).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/estimator.h"
#include "graph/graph.h"
#include "graph/relational_graph.h"
#include "util/status.h"

namespace atis::core {

struct LandmarkOptions {
  /// Landmark count k; clamped to the number of reachable nodes. Eight
  /// covers the compass directions of a roughly planar road map.
  size_t num_landmarks = 8;
  /// Farthest-point sampling starts from the node farthest from this one.
  graph::NodeId seed_node = 0;
};

/// The precomputed landmark table: k landmark ids plus, per landmark, the
/// exact distance columns d(l -> v) and d(v -> l) for every node v.
/// Immutable after construction; shared read-only between threads.
class LandmarkSet {
 public:
  LandmarkSet(std::vector<graph::NodeId> landmarks,
              std::vector<std::vector<double>> dist_from,
              std::vector<std::vector<double>> dist_to)
      : landmarks_(std::move(landmarks)),
        dist_from_(std::move(dist_from)),
        dist_to_(std::move(dist_to)) {}

  size_t num_landmarks() const { return landmarks_.size(); }
  size_t num_nodes() const {
    return dist_from_.empty() ? 0 : dist_from_.front().size();
  }
  const std::vector<graph::NodeId>& landmarks() const { return landmarks_; }

  /// d(landmarks()[l] -> v); +inf when unreachable.
  double DistFrom(size_t l, graph::NodeId v) const {
    return dist_from_[l][static_cast<size_t>(v)];
  }
  /// d(v -> landmarks()[l]); +inf when unreachable.
  double DistTo(size_t l, graph::NodeId v) const {
    return dist_to_[l][static_cast<size_t>(v)];
  }
  /// The whole columns: d(landmarks()[l] -> v), d(v -> landmarks()[l])
  /// indexed by v.
  const std::vector<double>& dist_from(size_t l) const {
    return dist_from_[l];
  }
  const std::vector<double>& dist_to(size_t l) const { return dist_to_[l]; }

  /// The ALT lower bound on d(from -> to): max over landmarks and both
  /// triangle-inequality columns, clamped to >= 0. Returns +inf only when
  /// the columns prove `to` unreachable from `from`.
  double LowerBound(graph::NodeId from, graph::NodeId to) const;

  /// Flattens to landmarkDist rows for RelationalGraphStore persistence.
  std::vector<graph::RelationalGraphStore::LandmarkDistRow> ToRows() const;
  /// Rebuilds a set from persisted rows (the inverse of ToRows).
  /// InvalidArgument on ragged or empty input.
  static Result<LandmarkSet> FromRows(
      const std::vector<graph::RelationalGraphStore::LandmarkDistRow>& rows);

 private:
  std::vector<graph::NodeId> landmarks_;
  std::vector<std::vector<double>> dist_from_;  // [landmark][node]
  std::vector<std::vector<double>> dist_to_;    // [landmark][node]
};

/// Selects landmarks by farthest-point sampling and computes both distance
/// columns with exact SSSP runs (2k Dijkstras). Deterministic. Distances
/// are measured on `g`'s costs exactly as given — when the searches will
/// run against a RelationalGraphStore, pass WithStoredEdgeCosts(g) so the
/// table matches the store's float-rounded metric (an unrounded table can
/// overestimate by a rounding ulp, silently losing admissibility).
Result<LandmarkSet> SelectLandmarks(const graph::Graph& g,
                                    const LandmarkOptions& options = {});

/// An edge whose cost changed since a landmark table was computed: the
/// edge u -> v and the cost the table's columns were computed at.
struct ChangedEdge {
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
  double old_cost = 0.0;
};

/// Repairs both distance columns of `set`, computed when each edge in
/// `changed` cost its old_cost, to the costs those edges have in `g`
/// (every other edge must cost what it did). `reverse` is ReverseOf(g)
/// at the same costs. List each edge at most once. Per column: the nodes
/// whose labels an old-cost-tight changed edge carried (closed under
/// tight edges) are reset and re-seeded from their unaffected
/// in-neighbours, the head of every changed edge is offered its new-cost
/// label, and the shortest-path kernel runs to exhaustion. The result
/// equals SSSP from scratch on `g` with ==. InvalidArgument on a graph of
/// another size or an edge not in `g`.
Result<LandmarkSet> RepairLandmarks(const LandmarkSet& set,
                                    const graph::Graph& g,
                                    const graph::Graph& reverse,
                                    std::span<const ChangedEdge> changed);

/// Copy of `g` with every edge cost rounded through the 4-byte float that
/// RelationalGraphStore::EdgeSchema stores — the metric the database
/// engine actually accumulates.
graph::Graph WithStoredEdgeCosts(const graph::Graph& g);

/// EstimatorKind::kLandmark. When `euclidean_scale` > 0 the bound is
/// max(ALT, euclidean_scale * straight-line distance) — only pass a scale
/// that is itself admissible (1.0 on distance-cost graphs); 0 keeps the
/// pure ALT bound, admissible under any cost model.
std::unique_ptr<Estimator> MakeLandmarkEstimator(
    std::shared_ptr<const LandmarkSet> set, double euclidean_scale = 0.0);

/// Persists `set` into `store`'s landmarkDist relation and loads it back
/// through the metered storage path (the estimator must see exactly what
/// the database holds). Publishes preprocessing cost — wall seconds and
/// block I/O — to MetricsRegistry::Default() as
/// atis_landmark_preprocess_seconds / _blocks_total and the landmark count
/// as atis_landmark_count.
Result<std::shared_ptr<const LandmarkSet>> PersistAndLoadLandmarks(
    const LandmarkSet& set, graph::RelationalGraphStore* store);

}  // namespace atis::core
