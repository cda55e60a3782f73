// Database-resident path computation (the paper's EQUEL programs).
//
// Each algorithm runs against the relation pair (S, R) of a
// RelationalGraphStore through QUEL-style statements — RETRIEVE scans,
// REPLACE updates, APPEND/DELETE on auxiliary relations, and relational
// joins — with the buffer pool evicted at statement boundaries
// (statement-at-a-time, INGRES single-user mode). Every block access is
// metered, so a run reports both the paper's iteration count and its
// execution cost in Table 4A units.
//
// A* implementation versions (Section 5.3):
//   version 1: frontierSet as a separate relation (APPEND/DELETE, hash
//              index maintenance), Euclidean estimator, and a resultant
//              node relation grown incrementally as nodes are discovered;
//   version 2: frontierSet as R's status attribute (REPLACE), Euclidean;
//   version 3: status attribute, Manhattan estimator;
//   version 4: landmark (ALT) estimator — precomputed triangle-inequality
//              lower bounds, loaded from the store's landmarkDist relation
//              via EnableLandmarks(). Statement-at-a-time, it runs on the
//              status attribute like version 2. Served (statement_at_a_time
//              off, as RouteServer runs it), the frontier is the in-memory
//              kernel's heap (graph/shortest_path.h) with float labels and
//              the same selection order: adjacency still comes from a
//              metered FetchAdjacency per expansion and each reached node's
//              coordinates from one GetNode, but R is never written, and
//              answers and counters equal the status-attribute run's.
//   version 5: partition-boundary overlay (core/overlay.h) — A* over
//              boundary nodes only, on the same kernel, using per-cell
//              customized distance tables; the store is touched just for
//              the endpoint probes (same-cell queries answer from the
//              customized in-cell all-pairs table). Needs EnableOverlay();
//              uses the landmark estimator as the overlay heuristic when
//              EnableLandmarks() was also called.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/estimator.h"
#include "core/search_types.h"
#include "graph/relational_graph.h"
#include "relational/join.h"
#include "storage/buffer_pool.h"
#include "util/deadline.h"

namespace atis::core {

class BatchContext;  // core/batch_engine.h
struct OverlayIndex;  // core/overlay.h

enum class AStarVersion { kV1 = 1, kV2 = 2, kV3 = 3, kV4 = 4, kV5 = 5 };
std::string_view AStarVersionName(AStarVersion v);

struct DbSearchOptions {
  /// Frontier duplicate management (only observable in A* Version 1's
  /// separate frontier relation; the status attribute is duplicate-free
  /// by construction).
  DuplicatePolicy duplicate_policy = DuplicatePolicy::kAvoid;
  /// Evict the buffer pool between statements (the paper's execution
  /// model). Turning this off lets statements share cached blocks.
  bool statement_at_a_time = true;
  /// Join strategy for the Iterative algorithm's step-6 join.
  relational::JoinStrategy join_strategy = relational::JoinStrategy::kAuto;
  /// Cost parameters used both by the auto join optimizer and to convert
  /// metered I/O into reported cost units.
  storage::CostParams cost_params;
  /// Propagated to PathResult::optimality_guaranteed for A*.
  bool estimator_known_admissible = true;
};

class DbSearchEngine {
 public:
  /// `store` must be loaded; `pool` is the buffer pool all statements run
  /// through (shared with the store's relations).
  DbSearchEngine(graph::RelationalGraphStore* store,
                 storage::BufferPool* pool, DbSearchOptions options = {});

  /// Iterative breadth-first algorithm (Figure 1 / Table 2). All search
  /// entry points take an optional cooperative deadline, checked once per
  /// iteration/expansion; an expired deadline aborts the run with
  /// kDeadlineExceeded (the store's working state stays consistent — the
  /// next run begins with its own ResetSearchState).
  ///
  /// All entry points also take an optional BatchContext: when non-null,
  /// per-node adjacency fetches route through the batch's shared
  /// adjacency cache (core/batch_engine.h). Results are identical
  /// to a `batch == nullptr` run — only the block I/O charged to this
  /// query shrinks when an earlier batch member already fetched a node.
  /// The Iterative algorithm reaches neighbours through a relational join
  /// rather than per-node fetches, so it accepts the context for
  /// interface uniformity but has no scan to share.
  Result<PathResult> Iterative(graph::NodeId source,
                               graph::NodeId destination,
                               const Deadline& deadline = {},
                               BatchContext* batch = nullptr);

  /// Dijkstra's algorithm (Figure 2 / Table 3).
  Result<PathResult> Dijkstra(graph::NodeId source,
                              graph::NodeId destination,
                              const Deadline& deadline = {},
                              BatchContext* batch = nullptr);

  /// A* in one of the implementation versions (1-3 from the paper, 4 the
  /// ALT extension, 5 the customizable overlay). Version 4 needs
  /// EnableLandmarks() first; version 5 needs EnableOverlay() first.
  Result<PathResult> AStar(graph::NodeId source, graph::NodeId destination,
                           AStarVersion version,
                           const Deadline& deadline = {},
                           BatchContext* batch = nullptr);

  /// Installs the estimator Version 4 runs with (typically
  /// MakeLandmarkEstimator over a table loaded from this store's
  /// landmarkDist relation — see core/landmarks.h). InvalidArgument on
  /// null.
  Status EnableLandmarks(std::shared_ptr<const Estimator> estimator);
  bool landmarks_enabled() const { return landmark_estimator_ != nullptr; }

  /// Installs the overlay index Version 5 searches (topology +
  /// customization for the store's current metric — see core/overlay.h).
  /// May be called again after a re-customization, but like
  /// UpdateEdgeCost it must not race with an in-flight run on this
  /// engine (RouteServer quiesces its workers first). InvalidArgument on
  /// null or incomplete indexes.
  Status EnableOverlay(std::shared_ptr<const OverlayIndex> overlay);
  bool overlay_enabled() const { return overlay_ != nullptr; }

  const DbSearchOptions& options() const { return options_; }

 private:
  /// Shared status-attribute best-first engine; Dijkstra when `estimator`
  /// is null (then closed nodes are never reopened). `label` names the
  /// run in trace spans and per-algorithm metrics.
  Result<PathResult> BestFirstStatusAttribute(graph::NodeId source,
                                              graph::NodeId destination,
                                              const Estimator* estimator,
                                              std::string_view label,
                                              const Deadline& deadline,
                                              BatchContext* batch);

  /// Version 4 in served mode (statement_at_a_time off): A* on the
  /// shortest-path kernel (graph/shortest_path.h) with float labels and
  /// the BetterCandidate order, so answers and counters equal
  /// BestFirstStatusAttribute's. Adjacency comes from FetchAdjacency per
  /// expansion and each reached node's coordinates from one GetNode; R is
  /// never written.
  Result<PathResult> ServedAStar(graph::NodeId source,
                                 graph::NodeId destination,
                                 const Estimator& estimator,
                                 const Deadline& deadline,
                                 BatchContext* batch);

  Result<PathResult> AStarSeparateRelation(graph::NodeId source,
                                           graph::NodeId destination,
                                           const Estimator& estimator,
                                           std::string_view label,
                                           const Deadline& deadline,
                                           BatchContext* batch);

  /// Version 5: A* over the overlay's boundary graph. The store is
  /// probed for the two endpoints; same-cell pairs additionally consult
  /// the customized in-cell all-pairs table and the cheaper of the two
  /// routes wins (the table cost also bounds the overlay search).
  Result<PathResult> OverlaySearch(graph::NodeId source,
                                   graph::NodeId destination,
                                   const Deadline& deadline,
                                   BatchContext* batch);

  /// The adjacency of `u`: through `batch`'s shared cache when non-null,
  /// else a private store fetch into `own`. Either way the blocks actually
  /// read are metered on the calling thread. The span is valid until the
  /// next fetch into `own` (or the batch's end).
  Result<std::span<const graph::RelationalGraphStore::EdgeRow>>
  FetchAdjacency(graph::NodeId u, BatchContext* batch,
                 std::vector<graph::RelationalGraphStore::EdgeRow>* own);

  /// Follows R.pred from the destination. Charged reads, but performed
  /// after the run's stats snapshot (route assembly, not route search).
  Result<std::vector<graph::NodeId>> ReconstructFromStore(
      graph::NodeId source, graph::NodeId destination);

  Status EndStatement();

  graph::RelationalGraphStore* store_;
  storage::BufferPool* pool_;
  DbSearchOptions options_;
  std::shared_ptr<const Estimator> landmark_estimator_;  ///< Version 4
  std::shared_ptr<const OverlayIndex> overlay_;          ///< Version 5
};

}  // namespace atis::core
