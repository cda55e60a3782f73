// Hilbert-range partitioned graph store: continent-scale serving.
//
// The relational store is capped at 32767 nodes by R's 16-bit node ids
// (the paper's T_r = 16-byte tuple). A continent map (~10^6 nodes) is
// served by K region stores instead, each a full RelationalGraphStore
// over a contiguous range of the global Hilbert order:
//
//   1. The ATISG2 file is streamed through an external sort by Hilbert
//      key (storage/spill_sort.h; bounded memory, every block metered).
//   2. The sorted node stream is cut into K ranges of at most
//      `max_partition_nodes`. Each cut snaps to the largest Hilbert-key
//      gap within a window around the equal-count position — key gaps
//      fall in the empty space between cities, so cuts cross only the
//      few freeway corridors instead of slicing through street grids.
//   3. Each partition is materialised one at a time (never the whole
//      map): owned nodes get dense local ids; an edge leaving the
//      partition keeps its tuple in the owner's S relation but points at
//      a "ghost" local id — a stub node carrying the remote endpoint's
//      coordinates — with a per-partition ghost -> global table.
//   4. Cross-partition routing is stitched exactly through a boundary
//      overlay (the PR-8 idea at inter-partition scale): per partition,
//      a customized dense matrix of within-partition shortest costs from
//      every entry boundary node to every exit boundary node, plus the
//      cross edges themselves. A query runs restricted Dijkstra in the
//      source partition, Dijkstra over the in-memory overlay, and a
//      multi-source restricted Dijkstra in the target partition — the
//      standard three-phase argument makes the stitched cost equal to
//      the single-store answer.
//
// All partitions share one BufferPool (and so one metered DiskManager):
// the cache is a global resource, partitioning only the tuple space.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/relational_graph.h"
#include "storage/buffer_pool.h"
#include "util/deadline.h"

namespace atis::graph {

struct PartitionedStoreOptions {
  /// Upper bound on owned nodes per partition. Ghosts ride on top, so
  /// keep comfortably under the 32767-node store cap.
  size_t max_partition_nodes = 24000;
  /// Run-buffer budget for the build's external sorts.
  size_t sort_budget_bytes = 4u << 20;
};

class PartitionedGraphStore {
 public:
  struct RouteCost {
    bool found = false;
    double cost = 0.0;
  };

  /// Per-query work counters for the stitched path, for metrics.
  struct QueryStats {
    uint64_t settled_source = 0;   ///< phase-1 settled store nodes
    uint64_t settled_overlay = 0;  ///< phase-2 settled boundary nodes
    uint64_t settled_target = 0;   ///< phase-3 settled store nodes
    bool cross_partition = false;
  };

  /// Streams `path` (ATISG1/ATISG2) into a partitioned store backed by
  /// `pool`, then customizes the boundary overlay. Bounded memory: at no
  /// point is more than one partition's subgraph resident.
  static Result<std::unique_ptr<PartitionedGraphStore>> Build(
      const std::string& path, storage::BufferPool* pool,
      const PartitionedStoreOptions& options = {});

  size_t num_partitions() const { return partitions_.size(); }
  uint64_t num_nodes() const { return num_nodes_; }
  uint64_t num_edges() const { return num_edges_; }
  size_t num_boundary_nodes() const { return overlay_nodes_.size(); }
  size_t num_cross_edges() const { return num_cross_edges_; }

  /// Partition owning `global`, or -1 for an out-of-range id.
  int PartitionOf(NodeId global) const;
  RelationalGraphStore& partition(size_t p) { return *partitions_[p].store; }
  const RelationalGraphStore& partition(size_t p) const {
    return *partitions_[p].store;
  }
  /// Owned (non-ghost) nodes of partition p.
  size_t partition_num_owned(size_t p) const {
    return partitions_[p].num_owned;
  }

  /// Adjacency of a global node id, endpoints translated back to global
  /// ids. Served by the owning partition's clustered fetch (metered).
  Result<std::vector<RelationalGraphStore::EdgeRow>> FetchAdjacency(
      NodeId global) const;

  /// Exact point-to-point cost via the three-phase overlay stitch.
  /// Phases 1 and 3 run against the partition stores (metered); phase 2
  /// is in-memory. Thread-safe: no store working-state is touched.
  /// `deadline` is checked once per settled node (DeadlineExceeded).
  Result<RouteCost> StitchedDistance(NodeId source, NodeId destination,
                                     QueryStats* stats = nullptr,
                                     const Deadline& deadline = {}) const;

  /// Reference path: plain Dijkstra over FetchAdjacency with in-memory
  /// labels. Exact by construction; the unpartitioned baseline the
  /// stitched path is benchmarked against. Thread-safe. `deadline` as
  /// for StitchedDistance.
  Result<RouteCost> GlobalDijkstra(NodeId source, NodeId destination,
                                   QueryStats* stats = nullptr,
                                   const Deadline& deadline = {}) const;

 private:
  struct Partition {
    std::unique_ptr<RelationalGraphStore> store;
    uint32_t num_owned = 0;
    /// Local id -> global id, owned nodes then ghosts.
    std::vector<NodeId> local_to_global;
    /// Boundary nodes (global ids, sorted): targets of incoming cross
    /// edges (entries) and sources of outgoing ones (exits).
    std::vector<NodeId> entries;
    std::vector<NodeId> exits;
  };

  PartitionedGraphStore() = default;

  /// Packed owner of a global id: (partition << 16) | local.
  static constexpr uint32_t kUnmapped = UINT32_MAX;
  uint32_t packed(NodeId global) const {
    return global_map_[static_cast<size_t>(global)];
  }

  /// Restricted Dijkstra inside partition p from `seeds` (local id,
  /// initial dist), over the partition store's adjacency (metered).
  /// Returns the final distance labels (owned + ghost slots; ghosts are
  /// never expanded). `settled` counts pops; `deadline` is checked per
  /// pop.
  Result<std::vector<double>> RestrictedDijkstra(
      size_t p, const std::vector<std::pair<NodeId, double>>& seeds,
      uint64_t* settled, const Deadline& deadline) const;

  uint64_t num_nodes_ = 0;
  uint64_t num_edges_ = 0;
  size_t num_cross_edges_ = 0;
  std::vector<Partition> partitions_;
  /// Global id -> packed(partition, local), kUnmapped for invalid ids.
  std::vector<uint32_t> global_map_;
  /// Overlay graph over boundary nodes: ids, global->overlay index, and
  /// adjacency (entry->exit customized arcs + cross edges).
  std::vector<NodeId> overlay_nodes_;
  std::vector<std::vector<std::pair<NodeId, double>>> overlay_adj_;
  /// Overlay index of a global id, or -1 (parallel to global_map_; dense
  /// int32 keeps lookups O(1) without a hash map).
  std::vector<int32_t> overlay_index_;
};

}  // namespace atis::graph
