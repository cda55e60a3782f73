#include "core/db_search.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>

#include "core/batch_engine.h"
#include "core/overlay.h"
#include "graph/shortest_path.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace atis::core {

using graph::NodeId;
using graph::NodeStatus;
using graph::RelationalGraphStore;
using relational::Relation;
using relational::RowView;
using relational::RowWriter;
using storage::RecordId;

using NodeRow = RelationalGraphStore::NodeRow;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// An R (or R1) row packed for APPEND.
std::array<uint8_t, 16> PackNode(const relational::Schema& schema,
                                 const NodeRow& node) {
  std::array<uint8_t, 16> bytes{};
  assert(schema.tuple_size() == bytes.size());
  RowWriter row(schema, bytes);
  RelationalGraphStore::WriteNode(node, &row);
  return bytes;
}

/// Accumulates per-statement I/O deltas into SearchStats::IoBreakdown
/// buckets (sum of buckets == total metered I/O of the run). Reads the
/// calling thread's counters, so a served run is charged only its own
/// blocks.
class PhaseMeter {
 public:
  explicit PhaseMeter(storage::IoMeter& meter)
      : meter_(meter), last_(meter.ThreadCounters()) {}
  void Charge(storage::IoCounters* bucket) {
    const storage::IoCounters now = meter_.ThreadCounters();
    *bucket += now - last_;
    last_ = now;
  }

 private:
  storage::IoMeter& meter_;
  storage::IoCounters last_;
};

/// Run-level observability: opens the "run" span and, on Finish, tags it
/// with the outcome and feeds the per-algorithm counters and the
/// end-to-end latency histogram of the default metrics registry. Metrics
/// are recorded per run (not per block), so the cost is a few registry
/// lookups — never part of the metered I/O.
class RunObserver {
 public:
  explicit RunObserver(std::string algorithm)
      : algorithm_(std::move(algorithm)),
        span_(algorithm_, "run"),
        started_(std::chrono::steady_clock::now()) {}

  void Finish(const PathResult& result) {
    if (finished_) return;
    finished_ = true;
    span_.Tag("iterations", result.stats.iterations);
    span_.Tag("found", result.found ? "1" : "0");
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    auto& reg = obs::MetricsRegistry::Default();
    const obs::Labels labels{{"algorithm", algorithm_}};
    reg.GetCounter("atis_search_runs_total",
                   "Database-resident search runs", labels)
        .Increment();
    reg.GetCounter("atis_search_iterations_total",
                   "Search iterations under the paper's counting rules",
                   labels)
        .Increment(result.stats.iterations);
    reg.GetHistogram("atis_query_latency_seconds",
                     "End-to-end route query wall time",
                     obs::Histogram::LatencyBounds(), labels)
        .Observe(seconds);
  }

 private:
  std::string algorithm_;
  obs::ScopedSpan span_;
  std::chrono::steady_clock::time_point started_;
  bool finished_ = false;
};

/// Deterministic selection order shared with the in-memory engine:
/// smaller f first; ties prefer larger g, then smaller node id.
bool BetterCandidate(double f_a, double g_a, NodeId a, double f_b,
                     double g_b, NodeId b) {
  if (f_a != f_b) return f_a < f_b;
  if (g_a != g_b) return g_a > g_b;
  return a < b;
}

}  // namespace

std::string_view AStarVersionName(AStarVersion v) {
  switch (v) {
    case AStarVersion::kV1:
      return "A* version 1";
    case AStarVersion::kV2:
      return "A* version 2";
    case AStarVersion::kV3:
      return "A* version 3";
    case AStarVersion::kV4:
      return "A* version 4";
    case AStarVersion::kV5:
      return "A* version 5";
  }
  return "?";
}

DbSearchEngine::DbSearchEngine(RelationalGraphStore* store,
                               storage::BufferPool* pool,
                               DbSearchOptions options)
    : store_(store), pool_(pool), options_(options) {}

Status DbSearchEngine::EndStatement() {
  if (options_.statement_at_a_time) return pool_->EvictAll();
  return Status::OK();
}

Result<std::vector<NodeId>> DbSearchEngine::ReconstructFromStore(
    NodeId source, NodeId destination) {
  std::vector<NodeId> path;
  NodeId at = destination;
  const size_t guard = store_->num_nodes() + 2;
  for (size_t hops = 0; hops < guard; ++hops) {
    path.push_back(at);
    if (at == source) {
      std::reverse(path.begin(), path.end());
      return path;
    }
    ATIS_ASSIGN_OR_RETURN(auto node, store_->GetNode(at));
    if (node.second.pred == graph::kInvalidNode) break;
    at = node.second.pred;
  }
  return Status::Corruption("predecessor chain does not reach the source");
}

Result<PathResult> DbSearchEngine::Dijkstra(NodeId source,
                                            NodeId destination,
                                            const Deadline& deadline,
                                            BatchContext* batch) {
  return BestFirstStatusAttribute(source, destination, /*estimator=*/nullptr,
                                  "dijkstra", deadline, batch);
}

Result<std::span<const RelationalGraphStore::EdgeRow>>
DbSearchEngine::FetchAdjacency(NodeId u, BatchContext* batch,
                               std::vector<RelationalGraphStore::EdgeRow>* own) {
  if (batch != nullptr) {
    ATIS_ASSIGN_OR_RETURN(const auto* edges, batch->FetchAdjacency(*store_, u));
    return std::span<const RelationalGraphStore::EdgeRow>(*edges);
  }
  ATIS_ASSIGN_OR_RETURN(*own, store_->FetchAdjacency(u));
  return std::span<const RelationalGraphStore::EdgeRow>(*own);
}

Status DbSearchEngine::EnableLandmarks(
    std::shared_ptr<const Estimator> estimator) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("null landmark estimator");
  }
  landmark_estimator_ = std::move(estimator);
  return Status::OK();
}

Status DbSearchEngine::EnableOverlay(
    std::shared_ptr<const OverlayIndex> overlay) {
  if (overlay == nullptr || overlay->topology == nullptr ||
      overlay->customization == nullptr) {
    return Status::InvalidArgument("null or incomplete overlay index");
  }
  if (overlay->topology->num_nodes() != store_->num_nodes()) {
    return Status::InvalidArgument(
        "overlay topology does not cover this store's nodes");
  }
  if (&overlay->customization->topology() != overlay->topology.get()) {
    return Status::InvalidArgument(
        "overlay customization was made for another topology");
  }
  overlay_ = std::move(overlay);
  return Status::OK();
}

Result<PathResult> DbSearchEngine::AStar(NodeId source, NodeId destination,
                                         AStarVersion version,
                                         const Deadline& deadline,
                                         BatchContext* batch) {
  if (version == AStarVersion::kV4) {
    if (landmark_estimator_ == nullptr) {
      return Status::FailedPrecondition(
          "A* version 4 needs EnableLandmarks() first");
    }
    if (!options_.statement_at_a_time) {
      return ServedAStar(source, destination, *landmark_estimator_, deadline,
                         batch);
    }
    return BestFirstStatusAttribute(source, destination,
                                    landmark_estimator_.get(), "astar-v4",
                                    deadline, batch);
  }
  if (version == AStarVersion::kV5) {
    if (overlay_ == nullptr) {
      return Status::FailedPrecondition(
          "A* version 5 needs EnableOverlay() first");
    }
    return OverlaySearch(source, destination, deadline, batch);
  }
  const auto estimator =
      MakeEstimator(version == AStarVersion::kV3 ? EstimatorKind::kManhattan
                                                 : EstimatorKind::kEuclidean);
  switch (version) {
    case AStarVersion::kV1:
      return AStarSeparateRelation(source, destination, *estimator,
                                   "astar-v1", deadline, batch);
    case AStarVersion::kV2:
      return BestFirstStatusAttribute(source, destination, estimator.get(),
                                      "astar-v2", deadline, batch);
    case AStarVersion::kV3:
      return BestFirstStatusAttribute(source, destination, estimator.get(),
                                      "astar-v3", deadline, batch);
    case AStarVersion::kV4:
    case AStarVersion::kV5:
      break;  // handled above
  }
  return Status::Internal("unreachable A* version");
}

Result<PathResult> DbSearchEngine::BestFirstStatusAttribute(
    NodeId source, NodeId destination, const Estimator* estimator,
    std::string_view label, const Deadline& deadline, BatchContext* batch) {
  const bool allow_reopen = estimator != nullptr;  // A* yes, Dijkstra no
  RunObserver run{std::string(label)};
  storage::IoMeter& meter = pool_->disk()->meter();
  const storage::IoCounters start_io = meter.ThreadCounters();
  PhaseMeter phase(meter);

  PathResult result;
  result.optimality_guaranteed =
      (estimator == nullptr) || options_.estimator_known_admissible;

  // The "statement" spans below tile the metered interval exactly: every
  // block access between start_io and the final ThreadCounters() read
  // happens inside one of them, so statement-level trace deltas sum to the
  // run's IoCounters (asserted by test_io_breakdown.cc).

  // -- Initialisation (cost-model steps 1-4): reset R's working fields and
  //    open the source with path cost 0.
  {
    obs::ScopedSpan stmt("reset-R", "statement");
    ATIS_RETURN_NOT_OK(store_->ResetSearchState());
    ATIS_RETURN_NOT_OK(EndStatement());
  }
  graph::Point dest_pt;
  {
    obs::ScopedSpan stmt("open-source", "statement");
    ATIS_ASSIGN_OR_RETURN(auto dest_node, store_->GetNode(destination));
    dest_pt = {dest_node.second.x, dest_node.second.y};
    ATIS_ASSIGN_OR_RETURN(auto src, store_->GetNode(source));
    src.second.path_cost = 0.0;
    src.second.status = NodeStatus::kOpen;
    ATIS_RETURN_NOT_OK(store_->UpdateNode(src.first, src.second));
    ATIS_RETURN_NOT_OK(EndStatement());
  }
  phase.Charge(&result.stats.breakdown.init);

  auto h = [&](const NodeRow& row) {
    return estimator == nullptr
               ? 0.0
               : estimator->EstimateNodes(row.id, {row.x, row.y},
                                          destination, dest_pt);
  };

  std::vector<RelationalGraphStore::EdgeRow> own_edges;  // unbatched fetches
  while (true) {
    if (deadline.expired()) {
      return Status::DeadlineExceeded("route search deadline expired");
    }
    obs::ScopedSpan iteration("iteration", "iteration");
    iteration.Tag("n", result.stats.iterations + 1);

    // -- Statement: select u from frontierSet with minimum
    //    C(s,u) [+ f(u,d)] — a scan of R over status = open.
    std::optional<std::pair<RecordId, NodeRow>> best;
    double best_f = kInf;
    {
      obs::ScopedSpan stmt("select-min", "statement");
      // Only open rows are decoded: the status byte is tested in place.
      Relation::Cursor c = store_->node_relation().Scan();
      for (; c.Valid(); c.Next()) {
        const RowView view = c.row();
        if (view.Int(RelationalGraphStore::kStatusField) !=
            static_cast<int64_t>(NodeStatus::kOpen)) {
          continue;
        }
        const NodeRow row = RelationalGraphStore::NodeFromRow(view);
        const double f = row.path_cost + h(row);
        // f is +inf only when a landmark proves the row cannot reach the
        // destination: never select it. An admissible search always has a
        // finite-f row open until the destination is selected, so this
        // changes no reachable query; an unreachable one ends at once.
        if (f == kInf) continue;
        if (!best || BetterCandidate(f, row.path_cost, row.id, best_f,
                                     best->second.path_cost,
                                     best->second.id)) {
          best = std::make_pair(c.rid(), row);
          best_f = f;
        }
      }
      // A scan cut short by a storage fault must not pick from part of R.
      ATIS_RETURN_NOT_OK(c.status());
      ATIS_RETURN_NOT_OK(EndStatement());
    }
    phase.Charge(&result.stats.breakdown.selection);

    if (!best) break;  // no finite-f open row: destination unreachable

    if (best->second.id == destination) {
      // Terminating selection (not counted as an iteration).
      result.found = true;
      result.cost = best->second.path_cost;
      break;
    }

    // -- Statement: move u out of the frontier (REPLACE status=current).
    NodeRow u = best->second;
    u.status = NodeStatus::kCurrent;
    {
      obs::ScopedSpan stmt("mark-current", "statement");
      ATIS_RETURN_NOT_OK(store_->UpdateNode(best->first, u));
      ATIS_RETURN_NOT_OK(EndStatement());
    }
    phase.Charge(&result.stats.breakdown.marking);
    ++result.stats.iterations;
    ++result.stats.nodes_expanded;

    // -- Statement: fetch u.adjacencyList via the hash index on S (shared
    //    across the batch when running under a BatchContext).
    obs::ScopedSpan adjacency_stmt("fetch-adjacency", "statement");
    ATIS_ASSIGN_OR_RETURN(const auto edges,
                          FetchAdjacency(u.id, batch, &own_edges));
    ATIS_RETURN_NOT_OK(EndStatement());
    adjacency_stmt.End();
    phase.Charge(&result.stats.breakdown.adjacency);

    // -- Statement: relax every <v, C(u,v)>; REPLACE improved nodes.
    {
      obs::ScopedSpan stmt("relax-neighbours", "statement");
      stmt.Tag("edges", static_cast<uint64_t>(edges.size()));
      for (const auto& e : edges) {
        ++result.stats.nodes_generated;
        const double nd = u.path_cost + e.cost;
        ATIS_RETURN_NOT_OK(store_->RelaxNode(e.end, [&](NodeRow& v) {
          if (nd >= v.path_cost) return false;
          ++result.stats.nodes_improved;
          if (v.status == NodeStatus::kClosed) {
            if (!allow_reopen) return false;  // Dijkstra: explored is final
            ++result.stats.reopenings;
          }
          v.path_cost = nd;
          v.pred = u.id;
          v.status = NodeStatus::kOpen;
          return true;
        }));
      }
      ATIS_RETURN_NOT_OK(EndStatement());
    }
    phase.Charge(&result.stats.breakdown.relaxation);

    // -- Statement: close u (REPLACE status=closed).
    u.status = NodeStatus::kClosed;
    {
      obs::ScopedSpan stmt("mark-closed", "statement");
      ATIS_RETURN_NOT_OK(store_->UpdateNode(best->first, u));
      ATIS_RETURN_NOT_OK(EndStatement());
    }
    phase.Charge(&result.stats.breakdown.marking);
  }

  result.stats.io = meter.ThreadCounters() - start_io;
  result.stats.cost_units = result.stats.io.Cost(options_.cost_params);
  if (result.found) {
    ATIS_ASSIGN_OR_RETURN(result.path,
                          ReconstructFromStore(source, destination));
  }
  run.Finish(result);
  return result;
}

Result<PathResult> DbSearchEngine::ServedAStar(NodeId source,
                                               NodeId destination,
                                               const Estimator& estimator,
                                               const Deadline& deadline,
                                               BatchContext* batch) {
  RunObserver run{"astar-v4"};
  storage::IoMeter& meter = pool_->disk()->meter();
  const storage::IoCounters start_io = meter.ThreadCounters();
  PhaseMeter phase(meter);

  PathResult result;
  result.optimality_guaranteed = options_.estimator_known_admissible;

  // The frontier lives in the kernel's heap, not in R: no reset, no status
  // REPLACEs, so R is only read. Labels are floats, as R's path_cost
  // column is, and the heap orders by BetterCandidate, so every answer and
  // counter equals the status-attribute engine's. The "statement" spans
  // still tile the metered interval.
  graph::Point dest_pt;
  Status probe_status;
  // pi(v): one metered probe of R for v's stored coordinates, when v is
  // first reached. A failed probe is returned by the scan that made it.
  auto potential = [&](NodeId v) {
    auto node = store_->GetNode(v);
    if (!node.ok()) {
      probe_status = node.status();
      return kInf;
    }
    return estimator.EstimateNodes(v, {node->second.x, node->second.y},
                                   destination, dest_pt);
  };
  const size_t n = store_->num_nodes();
  graph::BasicShortestPathSearch<float, decltype(potential)> search(
      n, potential);
  {
    obs::ScopedSpan stmt("open-source", "statement");
    ATIS_ASSIGN_OR_RETURN(auto dest_node, store_->GetNode(destination));
    dest_pt = {dest_node.second.x, dest_node.second.y};
    if (source < 0 || static_cast<size_t>(source) >= n) {
      return Status::NotFound("node " + std::to_string(source) +
                              " not in R");
    }
    search.Seed(source, 0.0);
    ATIS_RETURN_NOT_OK(probe_status);
  }
  phase.Charge(&result.stats.breakdown.init);

  std::vector<RelationalGraphStore::EdgeRow> own_edges;  // unbatched fetches
  auto expand = [&](NodeId u, const auto& relax) -> Status {
    if (deadline.expired()) {
      return Status::DeadlineExceeded("route search deadline expired");
    }
    ++result.stats.iterations;
    ++result.stats.nodes_expanded;
    obs::ScopedSpan iteration("iteration", "iteration");
    iteration.Tag("n", result.stats.iterations);
    obs::ScopedSpan adjacency_stmt("fetch-adjacency", "statement");
    ATIS_ASSIGN_OR_RETURN(const auto edges,
                          FetchAdjacency(u, batch, &own_edges));
    adjacency_stmt.End();
    phase.Charge(&result.stats.breakdown.adjacency);

    obs::ScopedSpan stmt("relax-neighbours", "statement");
    stmt.Tag("edges", static_cast<uint64_t>(edges.size()));
    for (const auto& e : edges) {
      ++result.stats.nodes_generated;
      if (relax(e.end, e.cost)) ++result.stats.nodes_improved;
      ATIS_RETURN_NOT_OK(probe_status);
    }
    stmt.End();
    phase.Charge(&result.stats.breakdown.relaxation);
    return Status::OK();
  };
  ATIS_RETURN_NOT_OK(search.Run(expand, [&](NodeId u) {
    result.found = u == destination;  // terminating selection
    return result.found;
  }));
  result.stats.reopenings = search.reopened();

  result.stats.io = meter.ThreadCounters() - start_io;
  result.stats.cost_units = result.stats.io.Cost(options_.cost_params);
  if (result.found) {
    result.cost = search.dist(destination);
    result.path = search.PathTo(destination);
  }
  run.Finish(result);
  return result;
}

Result<PathResult> DbSearchEngine::OverlaySearch(NodeId source,
                                                 NodeId destination,
                                                 const Deadline& deadline,
                                                 BatchContext* batch) {
  // Accepted for interface uniformity: the overlay walks in-memory
  // tables, so there is no per-node adjacency scan to share with a batch.
  (void)batch;
  const OverlayTopology& topo = *overlay_->topology;
  const OverlayCustomization& cust = *overlay_->customization;
  RunObserver run{"astar-v5"};
  storage::IoMeter& meter = pool_->disk()->meter();
  const storage::IoCounters start_io = meter.ThreadCounters();
  PhaseMeter phase(meter);

  PathResult result;
  result.optimality_guaranteed = (landmark_estimator_ == nullptr) ||
                                 options_.estimator_known_admissible;

  // -- Statement: probe both endpoints (validity + destination geometry).
  //    For a cross-cell query this is the run's only store access: the
  //    rest of the search walks the in-memory customized tables.
  graph::Point dest_pt;
  {
    obs::ScopedSpan stmt("probe-endpoints", "statement");
    ATIS_ASSIGN_OR_RETURN(auto dst, store_->GetNode(destination));
    dest_pt = {dst.second.x, dst.second.y};
    ATIS_ASSIGN_OR_RETURN(auto src, store_->GetNode(source));
    (void)src;
    ATIS_RETURN_NOT_OK(EndStatement());
  }
  phase.Charge(&result.stats.breakdown.init);

  if (source == destination) {
    result.found = true;
    result.cost = 0.0;
    result.path = {source};
    result.stats.io = meter.ThreadCounters() - start_io;
    result.stats.cost_units = result.stats.io.Cost(options_.cost_params);
    run.Finish(result);
    return result;
  }

  const int32_t cs = topo.CellOf(source);
  const int32_t cd = topo.CellOf(destination);

  auto h = [&](NodeId u) {
    return landmark_estimator_ == nullptr
               ? 0.0
               : landmark_estimator_->EstimateNodes(u, topo.point(u),
                                                    destination, dest_pt);
  };

  // -- Same-cell pairs: a shortest path that never leaves the cell has no
  //    boundary decomposition, so consult the customized in-cell
  //    all-pairs table — no statements, no expansions; the search work
  //    was paid during customization. (The overlay pass below still
  //    covers leave-and-return routes; the cheaper candidate wins, and
  //    the in-cell cost bounds the overlay search from above.)
  const auto ms = static_cast<size_t>(topo.MemberIndexOf(source));
  const auto md = static_cast<size_t>(topo.MemberIndexOf(destination));
  const double direct_cost =
      cs == cd ? cust.cell(cs).incell_dist[ms][md] : kInf;
  phase.Charge(&result.stats.breakdown.adjacency);

  // -- Overlay A*: boundary nodes only, plus the virtual target. Arcs are
  //    entries of the cells' in-cell tables — the source's row seeds the
  //    frontier, a boundary node's row gives its shortcuts and, in the
  //    destination's cell, its finishing leg — and the original cross
  //    edges. No store I/O. Labels are dense: the virtual target at index
  //    0 and store node v at v + 1, so the target wins equal-key ties, as
  //    BetterCandidate's smaller-id rule has always given it; `by_cross`
  //    marks the labels that came by a cross edge rather than a table
  //    entry (drives path splicing).
  constexpr NodeId kTarget = 0;
  const auto slot = [](NodeId v) { return v + 1; };
  auto potential = [&](NodeId slot_v) {
    return slot_v == kTarget ? 0.0 : h(slot_v - 1);
  };
  graph::BasicShortestPathSearch<double, decltype(potential)> search(
      topo.num_nodes() + 1, potential);
  std::vector<uint8_t> by_cross(topo.num_nodes() + 1, 0);
  {
    const OverlayTopology::Cell& cell = topo.cell(cs);
    const std::vector<double>& row = cust.cell(cs).incell_dist[ms];
    for (size_t bi = 0; bi < cell.boundary.size(); ++bi) {
      const double w =
          row[static_cast<size_t>(cell.boundary_member_idx[bi])];
      if (w < kInf) {
        ++result.stats.nodes_generated;
        search.Seed(slot(cell.boundary[bi]), w);
      }
    }
  }
  uint64_t overlay_expansions = 0;
  bool target_hit = false;
  {
    obs::ScopedSpan stmt("overlay-relax", "statement");
    auto expand = [&](NodeId slot_u, const auto& relax) -> Status {
      if (deadline.expired()) {
        return Status::DeadlineExceeded("route search deadline expired");
      }
      ++result.stats.iterations;
      ++result.stats.nodes_expanded;
      ++overlay_expansions;
      const auto arc = [&](NodeId slot_v, double w, bool cross) {
        ++result.stats.nodes_generated;
        const bool reached = search.Reached(slot_v);
        if (relax(slot_v, w)) {
          if (reached) ++result.stats.nodes_improved;
          by_cross[static_cast<size_t>(slot_v)] = cross;
        }
      };
      const NodeId u = slot_u - 1;
      const int32_t c = topo.CellOf(u);
      const OverlayTopology::Cell& cell = topo.cell(c);
      const std::vector<double>& row = cust.cell(c).incell_dist[
          static_cast<size_t>(topo.MemberIndexOf(u))];
      // A shortcut u -> bj exists exactly when its entry is finite.
      for (size_t bj = 0; bj < cell.boundary.size(); ++bj) {
        const NodeId v = cell.boundary[bj];
        const double w =
            row[static_cast<size_t>(cell.boundary_member_idx[bj])];
        if (v != u && w < kInf) arc(slot(v), w, /*cross=*/false);
      }
      for (const graph::Edge& e : cust.cross_arcs(u)) {
        arc(slot(e.to), e.cost, /*cross=*/true);
      }
      if (c == cd && row[md] < kInf) arc(kTarget, row[md], /*cross=*/false);
      return Status::OK();
    };
    ATIS_RETURN_NOT_OK(search.Run(expand, [&](NodeId slot_u) {
      if (slot_u == kTarget) {
        target_hit = true;  // terminating selection (not an iteration)
        return true;
      }
      // Every remaining label has f >= f(u); with an admissible h that
      // lower-bounds its true cost, so nothing in the queue can beat the
      // in-cell candidate: the direct route wins, stop settling.
      return search.dist(slot_u) + potential(slot_u) >= direct_cost;
    }));
    ATIS_RETURN_NOT_OK(EndStatement());
  }
  result.stats.reopenings = search.reopened();
  phase.Charge(&result.stats.breakdown.selection);
  obs::MetricsRegistry::Default()
      .GetCounter("atis_overlay_expansions_total",
                  "Overlay boundary nodes settled by Version 5 searches")
      .Increment(overlay_expansions);

  const double overlay_cost = target_hit ? search.dist(kTarget) : kInf;
  result.stats.io = meter.ThreadCounters() - start_io;
  result.stats.cost_units = result.stats.io.Cost(options_.cost_params);
  if (direct_cost == kInf && overlay_cost == kInf) {
    run.Finish(result);  // unreachable
    return result;
  }

  // -- Splice the route back into base-graph nodes. Every intra-cell leg
  //    is a member-rooted tree path: appends the members after `from` up
  //    to and including `to`, walking the in-cell parents of row `from`.
  const auto append_leg = [&](NodeId from, NodeId to) -> Status {
    const int32_t c = topo.CellOf(from);
    const int32_t root = topo.MemberIndexOf(from);
    const std::vector<int32_t>& pred =
        cust.cell(c).incell_pred[static_cast<size_t>(root)];
    std::vector<int32_t> leg;
    for (int32_t mi = topo.MemberIndexOf(to); mi != root;
         mi = pred[static_cast<size_t>(mi)]) {
      if (mi < 0) {
        return Status::Corruption("overlay parent tree does not reach its"
                                  " root");
      }
      leg.push_back(mi);
    }
    const OverlayTopology::Cell& cell = topo.cell(c);
    for (auto it = leg.rbegin(); it != leg.rend(); ++it) {
      result.path.push_back(cell.members[static_cast<size_t>(*it)]);
    }
    return Status::OK();
  };

  result.found = true;
  result.path = {source};
  if (direct_cost <= overlay_cost) {
    result.cost = direct_cost;
    ATIS_RETURN_NOT_OK(append_leg(source, destination));
    run.Finish(result);
    return result;
  }
  result.cost = overlay_cost;
  NodeId at = source;  // the label chain, source side first
  for (const NodeId i : search.PathTo(kTarget)) {
    const NodeId next = i == kTarget ? destination : i - 1;
    if (by_cross[static_cast<size_t>(i)]) {
      result.path.push_back(next);
    } else {
      ATIS_RETURN_NOT_OK(append_leg(at, next));
    }
    at = next;
  }
  run.Finish(result);
  return result;
}

Result<PathResult> DbSearchEngine::AStarSeparateRelation(
    NodeId source, NodeId destination, const Estimator& estimator,
    std::string_view label, const Deadline& deadline, BatchContext* batch) {
  RunObserver run{std::string(label)};
  storage::IoMeter& meter = pool_->disk()->meter();
  const storage::IoCounters start_io = meter.ThreadCounters();
  PhaseMeter phase(meter);

  PathResult result;
  result.optimality_guaranteed = options_.estimator_known_admissible;

  // As in BestFirstStatusAttribute, the "statement" spans tile the metered
  // interval [start_io, final ThreadCounters() read] exactly; here that
  // interval also covers reconstruction and temporary-relation cleanup.

  // Version 1 grows a private resultant relation R1 (same schema as R)
  // incrementally and keeps the frontier in a separate relation F. Both
  // carry hash indexes on node_id whose maintenance is exactly the
  // APPEND/DELETE overhead the paper attributes to this version.
  obs::ScopedSpan create_stmt("create-temps", "statement");
  Relation r1("R1", RelationalGraphStore::NodeSchema(), pool_,
              /*charge_create=*/true);
  ATIS_RETURN_NOT_OK(r1.CreateHashIndex(RelationalGraphStore::kNodeIdField,
                                        /*num_buckets=*/64));
  const relational::Schema f_schema(
      {{"node_id", relational::FieldType::kInt16},
       {"g_cost", relational::FieldType::kFloat},
       {"f_cost", relational::FieldType::kFloat}});
  Relation frontier("F", f_schema, pool_, /*charge_create=*/true);
  ATIS_RETURN_NOT_OK(
      frontier.CreateHashIndex("node_id", /*num_buckets=*/64));
  // F's fields, resolved once: <node_id, g_cost, f_cost>, 10 packed bytes.
  constexpr int kFId = 0;
  constexpr size_t kFG = 1;
  constexpr size_t kFF = 2;
  auto f_append = [&](NodeId v, double g, double f) {
    std::array<uint8_t, 10> bytes{};
    RowWriter row(f_schema, bytes);
    row.SetInt(kFId, v);
    row.SetDouble(kFG, g);
    row.SetDouble(kFF, f);
    return relational::Append(&frontier, bytes);
  };
  auto r1_append = [&](const NodeRow& node) {
    return r1.InsertPacked(PackNode(r1.schema(), node)).status();
  };
  ATIS_RETURN_NOT_OK(EndStatement());
  create_stmt.End();

  obs::ScopedSpan seed_stmt("seed-source", "statement");
  ATIS_ASSIGN_OR_RETURN(auto dest_node, store_->GetNode(destination));
  const graph::Point dest_pt{dest_node.second.x, dest_node.second.y};
  auto h = [&](const NodeRow& row) {
    return estimator.EstimateNodes(row.id, {row.x, row.y}, destination,
                                   dest_pt);
  };

  // Seed with the source (master coordinates come from the store's R).
  ATIS_ASSIGN_OR_RETURN(auto src, store_->GetNode(source));
  NodeRow srow = src.second;
  srow.path_cost = 0.0;
  srow.status = NodeStatus::kOpen;
  ATIS_RETURN_NOT_OK(r1_append(srow));
  ATIS_RETURN_NOT_OK(f_append(source, 0.0, h(srow)));
  ATIS_RETURN_NOT_OK(EndStatement());
  seed_stmt.End();
  phase.Charge(&result.stats.breakdown.init);

  auto r1_get = [&](NodeId v) -> Result<std::optional<
                                  std::pair<RecordId, NodeRow>>> {
    ATIS_ASSIGN_OR_RETURN(
        auto rids, r1.IndexLookup(RelationalGraphStore::kIdField, v));
    if (rids.empty()) {
      return std::optional<std::pair<RecordId, NodeRow>>{};
    }
    NodeRow node;
    ATIS_RETURN_NOT_OK(r1.Read(rids.front(), [&](const RowView& row) {
      node = RelationalGraphStore::NodeFromRow(row);
    }));
    return std::optional<std::pair<RecordId, NodeRow>>(
        std::make_pair(rids.front(), node));
  };
  auto r1_write = [&](RecordId rid, const NodeRow& node) {
    return r1.Edit(rid, [&](RowWriter& row) {
      RelationalGraphStore::WriteNode(node, &row);
    });
  };

  std::vector<RelationalGraphStore::EdgeRow> own_edges;  // unbatched fetches
  while (true) {
    if (deadline.expired()) {
      return Status::DeadlineExceeded("route search deadline expired");
    }
    obs::ScopedSpan iteration("iteration", "iteration");
    iteration.Tag("n", result.stats.iterations + 1);

    // -- Statement: scan F for the minimum f entry.
    struct FrontierEntry {
      RecordId rid;
      NodeId id;
      double g;
      double f;
    };
    std::optional<FrontierEntry> best;
    {
      obs::ScopedSpan stmt("select-min", "statement");
      Relation::Cursor c = frontier.Scan();
      for (; c.Valid(); c.Next()) {
        const RowView row = c.row();
        const FrontierEntry e{c.rid(), static_cast<NodeId>(row.Int(kFId)),
                              row.Double(kFG), row.Double(kFF)};
        if (!best || BetterCandidate(e.f, e.g, e.id, best->f, best->g,
                                     best->id)) {
          best = e;
        }
      }
      ATIS_RETURN_NOT_OK(c.status());
      ATIS_RETURN_NOT_OK(EndStatement());
    }
    phase.Charge(&result.stats.breakdown.selection);
    if (!best) break;

    const NodeId uid = best->id;
    const double ug = best->g;

    // -- Statement: DELETE the selected tuple from F.
    {
      obs::ScopedSpan stmt("delete-min", "statement");
      ATIS_RETURN_NOT_OK(frontier.Delete(best->rid));
      ATIS_RETURN_NOT_OK(EndStatement());
    }
    phase.Charge(&result.stats.breakdown.marking);

    // Stale frontier tuples (duplicates-allowed policy) surface here: the
    // R1 row already records a cheaper path, so this selection is a
    // redundant iteration.
    obs::ScopedSpan probe_stmt("probe-r1", "statement");
    ATIS_ASSIGN_OR_RETURN(auto ru, r1_get(uid));
    probe_stmt.End();
    if (!ru) return Status::Corruption("frontier node missing from R1");
    if (options_.duplicate_policy == DuplicatePolicy::kAllow &&
        (ug > ru->second.path_cost ||
         ru->second.status == NodeStatus::kClosed)) {
      ++result.stats.iterations;
      continue;
    }

    if (uid == destination) {
      result.found = true;
      result.cost = ru->second.path_cost;
      break;
    }

    NodeRow u = ru->second;
    ++result.stats.iterations;
    ++result.stats.nodes_expanded;

    // -- Statement: fetch adjacency from S.
    obs::ScopedSpan adjacency_stmt("fetch-adjacency", "statement");
    ATIS_ASSIGN_OR_RETURN(const auto edges,
                          FetchAdjacency(uid, batch, &own_edges));
    ATIS_RETURN_NOT_OK(EndStatement());
    adjacency_stmt.End();
    phase.Charge(&result.stats.breakdown.adjacency);

    // -- Statement: relax neighbours into R1 / F.
    obs::ScopedSpan relax_stmt("relax-neighbours", "statement");
    relax_stmt.Tag("edges", static_cast<uint64_t>(edges.size()));
    for (const auto& e : edges) {
      ++result.stats.nodes_generated;
      const double nd = u.path_cost + e.cost;
      ATIS_ASSIGN_OR_RETURN(auto rv, r1_get(e.end));
      if (!rv) {
        // First sight of v: pull its coordinates from the master R,
        // APPEND a row to R1 and a frontier tuple to F.
        ++result.stats.nodes_improved;
        ATIS_ASSIGN_OR_RETURN(auto master, store_->GetNode(e.end));
        NodeRow vrow = master.second;
        vrow.path_cost = nd;
        vrow.pred = uid;
        vrow.status = NodeStatus::kOpen;
        ATIS_RETURN_NOT_OK(r1_append(vrow));
        ATIS_RETURN_NOT_OK(f_append(e.end, nd, nd + h(vrow)));
        continue;
      }
      if (nd >= rv->second.path_cost) continue;
      ++result.stats.nodes_improved;
      NodeRow vrow = rv->second;
      const NodeStatus prev = vrow.status;
      vrow.path_cost = nd;
      vrow.pred = uid;
      vrow.status = NodeStatus::kOpen;
      ATIS_RETURN_NOT_OK(r1_write(rv->first, vrow));
      if (prev == NodeStatus::kClosed) ++result.stats.reopenings;

      const double fresh_f = nd + h(vrow);
      switch (options_.duplicate_policy) {
        case DuplicatePolicy::kAvoid: {
          // Membership check via F's index; DELETE the old tuple first.
          ATIS_ASSIGN_OR_RETURN(auto frids, frontier.IndexLookup(kFId, e.end));
          for (const RecordId frid : frids) {
            ATIS_RETURN_NOT_OK(frontier.Delete(frid));
          }
          ATIS_RETURN_NOT_OK(f_append(e.end, nd, fresh_f));
          break;
        }
        case DuplicatePolicy::kEliminate: {
          // Insert first, then purge older duplicates.
          ATIS_RETURN_NOT_OK(f_append(e.end, nd, fresh_f));
          ATIS_ASSIGN_OR_RETURN(auto frids, frontier.IndexLookup(kFId, e.end));
          for (const RecordId frid : frids) {
            double g = 0.0;
            ATIS_RETURN_NOT_OK(frontier.Read(
                frid, [&](const RowView& row) { g = row.Double(kFG); }));
            if (g > nd) {
              ATIS_RETURN_NOT_OK(frontier.Delete(frid));
            }
          }
          break;
        }
        case DuplicatePolicy::kAllow:
          ATIS_RETURN_NOT_OK(f_append(e.end, nd, fresh_f));
          break;
      }
    }
    ATIS_RETURN_NOT_OK(EndStatement());
    relax_stmt.End();
    phase.Charge(&result.stats.breakdown.relaxation);

    // -- Statement: close u in R1.
    {
      obs::ScopedSpan stmt("mark-closed", "statement");
      u.path_cost = ru->second.path_cost;
      u.status = NodeStatus::kClosed;
      ATIS_RETURN_NOT_OK(r1_write(ru->first, u));
      ATIS_RETURN_NOT_OK(EndStatement());
    }
    phase.Charge(&result.stats.breakdown.marking);

    result.stats.frontier_peak = std::max<uint64_t>(
        result.stats.frontier_peak, frontier.num_tuples());
  }

  // Drop the temporaries (charged), reconstruct, then snapshot stats —
  // this version's metered interval includes reconstruction and cleanup.
  obs::ScopedSpan cleanup_stmt("cleanup", "statement");
  ATIS_RETURN_NOT_OK(EndStatement());

  // Reconstruct before dropping R1 but snapshot the meter first: route
  // assembly is not part of the search cost.
  std::vector<NodeId> path;
  if (result.found) {
    NodeId at = destination;
    const size_t limit = store_->num_nodes() + 2;
    for (size_t i = 0; i < limit; ++i) {
      path.push_back(at);
      if (at == source) break;
      ATIS_ASSIGN_OR_RETURN(auto rn, r1_get(at));
      if (!rn || rn->second.pred == graph::kInvalidNode) {
        return Status::Corruption("broken predecessor chain in R1");
      }
      at = rn->second.pred;
    }
    std::reverse(path.begin(), path.end());
  }

  ATIS_RETURN_NOT_OK(r1.Clear(/*charge=*/true));
  ATIS_RETURN_NOT_OK(frontier.Clear(/*charge=*/true));
  ATIS_RETURN_NOT_OK(EndStatement());
  cleanup_stmt.End();
  phase.Charge(&result.stats.breakdown.cleanup);

  result.stats.io = meter.ThreadCounters() - start_io;
  result.stats.cost_units = result.stats.io.Cost(options_.cost_params);
  result.path = std::move(path);
  run.Finish(result);
  return result;
}

Result<PathResult> DbSearchEngine::Iterative(NodeId source,
                                             NodeId destination,
                                             const Deadline& deadline,
                                             BatchContext* batch) {
  // The join-based plan reaches neighbours set-at-a-time already; there is
  // no per-node adjacency fetch for the batch to share.
  (void)batch;
  RunObserver run("iterative");
  storage::IoMeter& meter = pool_->disk()->meter();
  const storage::IoCounters start_io = meter.ThreadCounters();
  PhaseMeter phase(meter);

  PathResult result;

  // As elsewhere, the "statement" spans tile the metered interval exactly
  // (see BestFirstStatusAttribute).

  // -- Initialisation (Table 2, steps 1-4): reset R, mark source current.
  {
    obs::ScopedSpan stmt("reset-R", "statement");
    ATIS_RETURN_NOT_OK(store_->ResetSearchState());
    ATIS_RETURN_NOT_OK(EndStatement());
  }
  {
    obs::ScopedSpan stmt("open-source", "statement");
    ATIS_ASSIGN_OR_RETURN(auto src, store_->GetNode(source));
    src.second.path_cost = 0.0;
    src.second.status = NodeStatus::kCurrent;
    ATIS_RETURN_NOT_OK(store_->UpdateNode(src.first, src.second));
    ATIS_RETURN_NOT_OK(EndStatement());
  }
  phase.Charge(&result.stats.breakdown.init);

  Relation& r = store_->node_relation();
  Relation& s = store_->edge_relation();
  const size_t row_size = r.schema().tuple_size();
  // Step 5's current rows, packed, and their order by node id.
  std::vector<uint8_t> current;
  std::vector<size_t> by_id;

  while (true) {
    if (deadline.expired()) {
      return Status::DeadlineExceeded("route search deadline expired");
    }
    obs::ScopedSpan iteration("iteration", "iteration");
    iteration.Tag("n", result.stats.iterations + 1);

    // -- Step 5: fetch all current nodes from R (scan).
    obs::ScopedSpan select_stmt("select-current", "statement");
    current.clear();
    ATIS_ASSIGN_OR_RETURN(
        const size_t num_current,
        relational::SelectScan(
            r,
            [](const RowView& row) {
              return row.Int(RelationalGraphStore::kStatusField) ==
                     static_cast<int64_t>(NodeStatus::kCurrent);
            },
            &current));
    ATIS_RETURN_NOT_OK(EndStatement());
    select_stmt.End();
    phase.Charge(&result.stats.breakdown.selection);
    if (num_current == 0) break;

    ++result.stats.iterations;
    result.stats.frontier_peak =
        std::max<uint64_t>(result.stats.frontier_peak, num_current);
    result.stats.nodes_expanded += num_current;

    // -- Step 6: join current nodes with S to reach their neighbours.
    //    The current nodes are materialised as a temporary relation, as in
    //    the relational formulation. They are ordered by node id first so
    //    the join's output order — and with it the equal-cost predecessor
    //    tie-breaks of step 7 — does not depend on R's physical layout
    //    (a no-op under kRowOrder, where the scan already yields id
    //    order; under kHilbert it restores that order).
    const relational::Schema& node_schema = r.schema();
    by_id.resize(num_current);
    std::iota(by_id.begin(), by_id.end(), size_t{0});
    std::sort(by_id.begin(), by_id.end(), [&](size_t a, size_t b) {
      return node_schema.ReadInt(current.data() + a * row_size,
                                 RelationalGraphStore::kIdField) <
             node_schema.ReadInt(current.data() + b * row_size,
                                 RelationalGraphStore::kIdField);
    });
    obs::ScopedSpan join_stmt("materialise-and-join", "statement");
    join_stmt.Tag("current_nodes", static_cast<uint64_t>(num_current));
    Relation cur("C", node_schema, pool_, /*charge_create=*/true);
    for (const size_t i : by_id) {
      ATIS_RETURN_NOT_OK(
          cur.InsertPacked({current.data() + i * row_size, row_size})
              .status());
    }
    ATIS_ASSIGN_OR_RETURN(
        auto join,
        relational::Join(cur, s,
                         {RelationalGraphStore::kNodeIdField,
                          RelationalGraphStore::kBeginField},
                         options_.join_strategy, options_.cost_params,
                         "JOIN"));
    ATIS_RETURN_NOT_OK(EndStatement());
    join_stmt.End();
    phase.Charge(&result.stats.breakdown.adjacency);

    // -- Step 7: update status/path of improved neighbours in R.
    //    Join tuple layout: fields 0..5 from C (node row), 6..8 from S.
    {
      obs::ScopedSpan stmt("relax-neighbours", "statement");
      Relation::Cursor c = join->Scan();
      for (; c.Valid(); c.Next()) {
        const RowView row = c.row();
        ++result.stats.nodes_generated;
        const double nd = row.Double(5) + row.Double(8);
        const NodeId v = static_cast<NodeId>(row.Int(7));
        const NodeId pred = static_cast<NodeId>(row.Int(0));
        ATIS_RETURN_NOT_OK(store_->RelaxNode(v, [&](NodeRow& vn) {
          if (nd >= vn.path_cost) return false;
          ++result.stats.nodes_improved;
          if (vn.status == NodeStatus::kClosed) ++result.stats.reopenings;
          vn.path_cost = nd;
          vn.pred = pred;
          vn.status = NodeStatus::kOpen;
          return true;
        }));
      }
      ATIS_RETURN_NOT_OK(c.status());
      ATIS_RETURN_NOT_OK(EndStatement());
    }
    phase.Charge(&result.stats.breakdown.relaxation);

    // Drop the temporaries.
    {
      obs::ScopedSpan stmt("drop-temps", "statement");
      ATIS_RETURN_NOT_OK(cur.Clear(/*charge=*/true));
      ATIS_RETURN_NOT_OK(join->Clear(/*charge=*/true));
      ATIS_RETURN_NOT_OK(EndStatement());
    }
    phase.Charge(&result.stats.breakdown.cleanup);

    // -- Step 7b/8: REPLACE current -> closed, open -> current, then the
    //    count of current nodes decides termination (next round's step 5
    //    doubles as the count scan).
    {
      obs::ScopedSpan stmt("rotate-status", "statement");
      ATIS_RETURN_NOT_OK(
          relational::Replace(
              &r,
              [](const RowView& row) {
                const auto st = static_cast<NodeStatus>(
                    row.Int(RelationalGraphStore::kStatusField));
                return st == NodeStatus::kCurrent ||
                       st == NodeStatus::kOpen;
              },
              [](RowWriter& row) {
                constexpr size_t kStatus = RelationalGraphStore::kStatusField;
                const auto st = static_cast<NodeStatus>(row.Int(kStatus));
                row.SetInt(kStatus,
                           static_cast<int64_t>(st == NodeStatus::kCurrent
                                                    ? NodeStatus::kClosed
                                                    : NodeStatus::kCurrent));
              })
              .status());
      ATIS_RETURN_NOT_OK(EndStatement());
    }
    phase.Charge(&result.stats.breakdown.marking);
  }

  obs::ScopedSpan probe_stmt("probe-destination", "statement");
  ATIS_ASSIGN_OR_RETURN(auto dest, store_->GetNode(destination));
  probe_stmt.End();
  phase.Charge(&result.stats.breakdown.cleanup);
  result.stats.io = meter.ThreadCounters() - start_io;
  result.stats.cost_units = result.stats.io.Cost(options_.cost_params);
  if (dest.second.path_cost != kInf) {
    result.found = true;
    result.cost = dest.second.path_cost;
    ATIS_ASSIGN_OR_RETURN(result.path,
                          ReconstructFromStore(source, destination));
  }
  run.Finish(result);
  return result;
}

}  // namespace atis::core
