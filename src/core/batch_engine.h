// Batched query execution: shared state for a group of route queries
// executed back-to-back on one worker (the set-at-a-time serving engine,
// ROADMAP item 3).
//
// At serving scale, concurrent queries against the same map region re-read
// the same adjacency pages; one search at a time shares only the buffer
// pool. A BatchContext amortises that cost inside a batch two ways:
//
//   1. Shared adjacency scans — the first member search to expand node u
//      performs the metered FetchAdjacency (charged, as always, to that
//      member's per-thread IoCounters); every later member touching u is
//      served the cached edge list with zero block I/O. The edge relation
//      S is read-only during serving (traffic updates are serialised
//      against batches), so the cached rows are exactly what a private
//      fetch would return — results stay bit-identical to serial runs.
//   2. Request coalescing (singleflight) — members with an identical
//      (source, destination, algorithm, version) key share a single
//      computation: the first occurrence runs, the rest copy its answer
//      (the route-cache epoch cannot change mid-batch, so key equality
//      implies answer equality).
//
// A batch executes sequentially on ONE worker thread, so a BatchContext
// needs no locking; concurrent batches on different workers each own a
// private context.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/db_search.h"
#include "graph/graph.h"
#include "graph/relational_graph.h"

namespace atis::core {

/// Per-batch shared execution state. See the file comment for semantics.
class BatchContext {
 public:
  struct Stats {
    uint64_t adjacency_fetches = 0;     ///< metered store fetches
    uint64_t shared_adjacency_hits = 0; ///< served from the batch cache
  };

  explicit BatchContext(uint64_t batch_id) : batch_id_(batch_id) {}

  BatchContext(const BatchContext&) = delete;
  BatchContext& operator=(const BatchContext&) = delete;

  /// The batch-shared equivalent of store.FetchAdjacency(u): first call
  /// per node fetches and caches (metered), later calls are free. The
  /// list stays in the batch's cache, valid for the context's lifetime;
  /// nothing is copied out.
  Result<const std::vector<graph::RelationalGraphStore::EdgeRow>*>
  FetchAdjacency(const graph::RelationalGraphStore& store, graph::NodeId u);

  uint64_t batch_id() const { return batch_id_; }
  const Stats& stats() const { return stats_; }

 private:
  uint64_t batch_id_;
  Stats stats_;
  std::unordered_map<graph::NodeId,
                     std::vector<graph::RelationalGraphStore::EdgeRow>>
      adjacency_;
};

/// Region-affinity key for batch formation: the coarse Hilbert cell (a
/// 2^order x 2^order grid over the graph's bounding box) a node's
/// coordinates fall in. Queries whose sources share a cell expand largely
/// overlapping page sets, so grouping them into one batch maximises
/// shared-adjacency and buffer-pool reuse. Degenerate geometry (absent or
/// constant on both axes) yields region 0 for every node — batching then
/// degrades gracefully to arrival order.
///
/// Every node's region is computed at construction, so the index keeps no
/// reference to `g`: the graph snapshot it was built from may be retired
/// (a traffic update publishes a new one) while batches keep forming.
/// Traffic updates change edge costs only, never coordinates, so the
/// regions stay valid for the map's lifetime.
class RegionIndex {
 public:
  RegionIndex(const graph::Graph& g, uint32_t order);

  /// Hilbert index of the cell holding node u (0 for unknown ids).
  uint64_t RegionOf(graph::NodeId u) const {
    return u >= 0 && static_cast<size_t>(u) < regions_.size()
               ? regions_[static_cast<size_t>(u)]
               : 0;
  }

  uint32_t order() const { return order_; }

 private:
  uint32_t order_;
  std::vector<uint64_t> regions_;  ///< regions_[u]; empty when degenerate
};

/// Singleflight identity of a route query within one batch. The cache
/// epoch is constant across a batch, so it is deliberately absent: equal
/// keys compute equal answers.
struct CoalesceKey {
  graph::NodeId source = 0;
  graph::NodeId destination = 0;
  Algorithm algorithm = Algorithm::kAStar;
  AStarVersion version = AStarVersion::kV3;

  bool operator==(const CoalesceKey&) const = default;
};

/// For each member i, the index of its singleflight leader: the first
/// member with the same key. Leaders map to their own index.
std::vector<size_t> PlanCoalescing(const std::vector<CoalesceKey>& keys);

}  // namespace atis::core
