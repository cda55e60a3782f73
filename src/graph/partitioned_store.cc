#include "graph/partitioned_store.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <unordered_map>
#include <utility>

#include "graph/graph_io.h"
#include "graph/shortest_path.h"
#include "graph/spatial_layout.h"
#include "storage/spill_sort.h"

namespace atis::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cut-snapping window as a fraction of the equal-count partition size:
/// a cut lands on the largest Hilbert-key gap within +/- this window.
constexpr double kGapWindow = 0.10;

/// External-sort record for nodes: Hilbert key, original id, coordinates.
struct BuildNodeRecord {
  uint64_t key;
  NodeId id;
  double x;
  double y;
};

/// Rank-ordered node spill record (re-read per partition range, and
/// randomly for ghost coordinates).
struct RankedNodeRecord {
  NodeId id;
  double x;
  double y;
};

/// External-sort record for edges, keyed by the begin node's rank.
struct BuildEdgeRecord {
  uint64_t key;
  NodeId u;
  NodeId v;
  double cost;
};

/// Rank-ordered edge spill record; partition ranges are contiguous.
struct SortedEdgeRecord {
  NodeId u;
  NodeId v;
  double cost;
};

/// The store keeps edge costs as 4-byte floats; every consumer of a cost
/// that must agree with a store-served search has to round the same way.
double StoreCost(double cost) {
  return static_cast<double>(static_cast<float>(cost));
}

/// The per-settle deadline check every search here runs first.
Status CheckDeadline(const Deadline& deadline) {
  if (deadline.expired()) {
    return Status::DeadlineExceeded("route search deadline expired");
  }
  return Status::OK();
}

}  // namespace

int PartitionedGraphStore::PartitionOf(NodeId global) const {
  if (global < 0 || static_cast<size_t>(global) >= global_map_.size()) {
    return -1;
  }
  const uint32_t p = packed(global);
  if (p == kUnmapped) return -1;
  return static_cast<int>(p >> 16);
}

Result<std::unique_ptr<PartitionedGraphStore>> PartitionedGraphStore::Build(
    const std::string& path, storage::BufferPool* pool,
    const PartitionedStoreOptions& options) {
  if (options.max_partition_nodes < 2 ||
      options.max_partition_nodes > RelationalGraphStore::kMaxNodes) {
    return Status::InvalidArgument(
        "max_partition_nodes must be in [2, 32767]");
  }
  auto store = std::unique_ptr<PartitionedGraphStore>(
      new PartitionedGraphStore());
  storage::DiskManager* disk = pool->disk();

  // Pass 1: node-section scan for the global bounding box.
  ATIS_ASSIGN_OR_RETURN(StreamingGraphReader pass1,
                        StreamingGraphReader::Open(path));
  const uint64_t n64 = pass1.num_nodes();
  if (n64 > static_cast<uint64_t>(std::numeric_limits<NodeId>::max())) {
    return Status::InvalidArgument("node count exceeds NodeId range");
  }
  const size_t n = static_cast<size_t>(n64);
  store->num_nodes_ = n64;
  double min_x = kInf;
  double min_y = kInf;
  double max_x = -kInf;
  double max_y = -kInf;
  for (size_t u = 0; u < n; ++u) {
    StreamingGraphReader::NodeRecord rec;
    ATIS_RETURN_NOT_OK(pass1.NextNode(&rec));
    min_x = std::min(min_x, rec.x);
    min_y = std::min(min_y, rec.y);
    max_x = std::max(max_x, rec.x);
    max_y = std::max(max_y, rec.y);
  }
  if (n == 0) {
    return store;  // empty map: zero partitions, every query NotFound
  }
  const HilbertKeyMapper mapper =
      HilbertKeyMapper::FromBounds(min_x, min_y, max_x, max_y);

  // Pass 2: external-sort node tuples by (Hilbert key, id), then stream
  // the sorted order out into rank structures and the node spill. The
  // same reader handle continues into the edge section afterwards.
  ATIS_ASSIGN_OR_RETURN(StreamingGraphReader reader,
                        StreamingGraphReader::Open(path));
  storage::SpillSorter<BuildNodeRecord> node_sorter(
      disk, options.sort_budget_bytes);
  for (size_t u = 0; u < n; ++u) {
    StreamingGraphReader::NodeRecord rec;
    ATIS_RETURN_NOT_OK(reader.NextNode(&rec));
    ATIS_RETURN_NOT_OK(node_sorter.Add(BuildNodeRecord{
        mapper.Key(rec.x, rec.y), static_cast<NodeId>(u), rec.x, rec.y}));
  }
  ATIS_RETURN_NOT_OK(node_sorter.Finish());

  std::vector<NodeId> rank_of(n, kInvalidNode);
  std::vector<uint64_t> keys(n);  // rank-ordered; freed after the cuts
  storage::SpillFile<RankedNodeRecord> node_spill(disk);
  {
    BuildNodeRecord rec{};
    NodeId rank = 0;
    while (true) {
      ATIS_ASSIGN_OR_RETURN(bool more, node_sorter.Next(&rec));
      if (!more) break;
      rank_of[static_cast<size_t>(rec.id)] = rank;
      keys[static_cast<size_t>(rank)] = rec.key;
      ATIS_RETURN_NOT_OK(
          node_spill.Append(RankedNodeRecord{rec.id, rec.x, rec.y}));
      ++rank;
    }
    ATIS_RETURN_NOT_OK(node_spill.Finish());
  }

  // Partition cuts: equal-count positions snapped to the largest key gap
  // within the window. The 0.8 slack keeps a snapped cut from pushing a
  // partition past max_partition_nodes.
  const size_t effective_max =
      std::max<size_t>(1, options.max_partition_nodes * 8 / 10);
  const size_t num_parts = (n + effective_max - 1) / effective_max;
  if (num_parts > 65535) {
    return Status::InvalidArgument("too many partitions (max 65535)");
  }
  std::vector<size_t> cut;
  cut.reserve(num_parts + 1);
  cut.push_back(0);
  const size_t part_span = n / num_parts;
  const size_t window = std::max<size_t>(
      1, static_cast<size_t>(kGapWindow * static_cast<double>(part_span)));
  for (size_t p = 1; p < num_parts; ++p) {
    const size_t target = p * n / num_parts;
    const size_t lo = std::max(cut.back() + 1,
                               target > window ? target - window : 1);
    const size_t hi = std::min(n - 1, target + window);
    size_t best = std::max(lo, std::min(target, hi));
    uint64_t best_gap = 0;
    for (size_t r = lo; r <= hi && r < n; ++r) {
      const uint64_t gap = keys[r] - keys[r - 1];
      if (gap > best_gap) {
        best_gap = gap;
        best = r;
      }
    }
    cut.push_back(best);
  }
  cut.push_back(n);
  keys.clear();
  keys.shrink_to_fit();

  const size_t num_partitions = cut.size() - 1;
  store->global_map_.assign(n, kUnmapped);
  {
    // rank -> partition via the cuts; then id -> packed(partition, local).
    std::vector<uint16_t> part_of_rank(n);
    for (size_t p = 0; p < num_partitions; ++p) {
      for (size_t r = cut[p]; r < cut[p + 1]; ++r) {
        part_of_rank[r] = static_cast<uint16_t>(p);
      }
    }
    for (size_t id = 0; id < n; ++id) {
      const size_t r = static_cast<size_t>(rank_of[id]);
      const uint32_t p = part_of_rank[r];
      const uint32_t local = static_cast<uint32_t>(r - cut[p]);
      store->global_map_[id] = (p << 16) | local;
    }
  }

  // Edge pass: sort by begin rank, spill in sorted order, and record the
  // contiguous per-partition edge ranges plus every cross edge.
  ATIS_RETURN_NOT_OK(reader.BeginEdges());
  store->num_edges_ = reader.num_edges();
  storage::SpillSorter<BuildEdgeRecord> edge_sorter(
      disk, options.sort_budget_bytes);
  for (uint64_t i = 0; i < store->num_edges_; ++i) {
    StreamingGraphReader::EdgeRecord e;
    ATIS_RETURN_NOT_OK(reader.NextEdge(&e));
    if (e.u < 0 || static_cast<size_t>(e.u) >= n || e.v < 0 ||
        static_cast<size_t>(e.v) >= n) {
      return Status::Corruption("edge endpoint out of range in " + path);
    }
    ATIS_RETURN_NOT_OK(edge_sorter.Add(BuildEdgeRecord{
        static_cast<uint64_t>(rank_of[static_cast<size_t>(e.u)]), e.u, e.v,
        e.cost}));
  }
  ATIS_RETURN_NOT_OK(edge_sorter.Finish());

  storage::SpillFile<SortedEdgeRecord> edge_spill(disk);
  std::vector<size_t> edge_begin(num_partitions + 1, 0);
  struct CrossEdge {
    NodeId u;
    NodeId v;
    double cost;
  };
  std::vector<CrossEdge> cross_edges;
  std::vector<std::vector<uint32_t>> cross_of(num_partitions);
  {
    BuildEdgeRecord rec{};
    size_t index = 0;
    size_t current_part = 0;
    while (true) {
      ATIS_ASSIGN_OR_RETURN(bool more, edge_sorter.Next(&rec));
      if (!more) break;
      const uint32_t pu = store->global_map_[static_cast<size_t>(rec.u)];
      const uint32_t pv = store->global_map_[static_cast<size_t>(rec.v)];
      const size_t part_u = pu >> 16;
      while (current_part < part_u) edge_begin[++current_part] = index;
      if ((pv >> 16) != part_u) {
        cross_of[part_u].push_back(static_cast<uint32_t>(cross_edges.size()));
        cross_edges.push_back(CrossEdge{rec.u, rec.v, rec.cost});
      }
      ATIS_RETURN_NOT_OK(
          edge_spill.Append(SortedEdgeRecord{rec.u, rec.v, rec.cost}));
      ++index;
    }
    while (current_part < num_partitions) edge_begin[++current_part] = index;
    ATIS_RETURN_NOT_OK(edge_spill.Finish());
  }
  store->num_cross_edges_ = cross_edges.size();

  // Materialise the partitions one at a time. Ghost nodes (remote cross-
  // edge targets) are appended after the owned range so an edge leaving
  // the partition still has an in-store endpoint to point at.
  store->partitions_.resize(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    Partition& part = store->partitions_[p];
    part.num_owned = static_cast<uint32_t>(cut[p + 1] - cut[p]);
    Graph g;
    part.local_to_global.reserve(part.num_owned + cross_of[p].size());
    ATIS_RETURN_NOT_OK(node_spill.ReadRange(
        cut[p], cut[p + 1], [&](size_t, const RankedNodeRecord& rec) {
          g.AddNode(rec.x, rec.y);
          part.local_to_global.push_back(rec.id);
        }));
    std::unordered_map<NodeId, NodeId> ghost_local;
    ghost_local.reserve(cross_of[p].size());
    for (const uint32_t ci : cross_of[p]) {
      const NodeId v = cross_edges[static_cast<size_t>(ci)].v;
      if (ghost_local.count(v) != 0) continue;
      ATIS_ASSIGN_OR_RETURN(
          RankedNodeRecord rec,
          node_spill.Read(static_cast<size_t>(
              rank_of[static_cast<size_t>(v)])));
      const NodeId local = g.AddNode(rec.x, rec.y);
      ghost_local.emplace(v, local);
      part.local_to_global.push_back(v);
    }
    if (g.num_nodes() > RelationalGraphStore::kMaxNodes) {
      return Status::Internal(
          "partition plus ghosts exceeds the 32767-node store cap");
    }
    Status add_status = Status::OK();
    ATIS_RETURN_NOT_OK(edge_spill.ReadRange(
        edge_begin[p], edge_begin[p + 1],
        [&](size_t, const SortedEdgeRecord& rec) {
          if (!add_status.ok()) return;
          const uint32_t pu = store->global_map_[static_cast<size_t>(rec.u)];
          const uint32_t pv = store->global_map_[static_cast<size_t>(rec.v)];
          const NodeId lu = static_cast<NodeId>(pu & 0xFFFF);
          const NodeId lv = (pv >> 16) == p
                                ? static_cast<NodeId>(pv & 0xFFFF)
                                : ghost_local.at(rec.v);
          add_status = g.AddEdge(lu, lv, rec.cost);
        }));
    ATIS_RETURN_NOT_OK(add_status);
    part.store = std::make_unique<RelationalGraphStore>(pool);
    RelationalGraphStore::LoadOptions load_options;
    load_options.layout = StoreLayout::kHilbert;
    ATIS_RETURN_NOT_OK(part.store->Load(g, load_options));
  }
  node_spill.Clear();

  // Boundary sets: exits = cross-edge sources of p, entries = cross-edge
  // targets owned by p.
  for (const CrossEdge& ce : cross_edges) {
    const uint32_t pu = store->global_map_[static_cast<size_t>(ce.u)];
    const uint32_t pv = store->global_map_[static_cast<size_t>(ce.v)];
    store->partitions_[pu >> 16].exits.push_back(ce.u);
    store->partitions_[pv >> 16].entries.push_back(ce.v);
  }
  for (Partition& part : store->partitions_) {
    auto dedup = [](std::vector<NodeId>* v) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    };
    dedup(&part.entries);
    dedup(&part.exits);
  }

  // Customization: per partition, within-partition shortest costs from
  // every entry to every exit, over an in-memory CSR built from the edge
  // spill with store-rounded costs. Partitions are independent, so the
  // loop fans out across threads (the spill reads go through the
  // thread-safe DiskManager), one thread per hardware thread. The
  // result, per partition the entries x exits within-partition shortest
  // costs (row-major, +inf where unreachable without leaving it), lives
  // only until the overlay graph below is built from it.
  std::vector<std::vector<double>> entry_exit_cost(num_partitions);
  {
    const unsigned num_threads = static_cast<unsigned>(std::min<size_t>(
        std::max(1u, std::thread::hardware_concurrency()), num_partitions));
    std::atomic<size_t> next{0};
    std::vector<Status> thread_status(num_threads, Status::OK());
    auto customize_one = [&](size_t p) -> Status {
      Partition& part = store->partitions_[p];
      if (part.entries.empty() || part.exits.empty()) return Status::OK();
      const size_t owned = part.num_owned;
      // Intra-partition CSR over owned local ids.
      std::vector<std::vector<std::pair<NodeId, double>>> adj(owned);
      ATIS_RETURN_NOT_OK(edge_spill.ReadRange(
          edge_begin[p], edge_begin[p + 1],
          [&](size_t, const SortedEdgeRecord& rec) {
            const uint32_t pv =
                store->global_map_[static_cast<size_t>(rec.v)];
            if ((pv >> 16) != p) return;  // leaves the partition
            const uint32_t pu =
                store->global_map_[static_cast<size_t>(rec.u)];
            adj[pu & 0xFFFF].emplace_back(static_cast<NodeId>(pv & 0xFFFF),
                                          StoreCost(rec.cost));
          }));
      auto local_of = [&](NodeId global) {
        return static_cast<NodeId>(
            store->global_map_[static_cast<size_t>(global)] & 0xFFFF);
      };
      std::vector<double>& cost = entry_exit_cost[p];
      cost.resize(part.entries.size() * part.exits.size());
      for (size_t ei = 0; ei < part.entries.size(); ++ei) {
        ShortestPathSearch search(owned);
        search.Seed(local_of(part.entries[ei]), 0.0);
        search.Run([&adj](NodeId u, const auto& relax) {
          for (const auto& [v, c] : adj[static_cast<size_t>(u)]) relax(v, c);
        });
        for (size_t xi = 0; xi < part.exits.size(); ++xi) {
          cost[ei * part.exits.size() + xi] =
              search.dist(local_of(part.exits[xi]));
        }
      }
      return Status::OK();
    };
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t]() {
        while (true) {
          const size_t p = next.fetch_add(1, std::memory_order_relaxed);
          if (p >= num_partitions) break;
          Status s = customize_one(p);
          if (!s.ok() && thread_status[t].ok()) thread_status[t] = s;
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const Status& s : thread_status) ATIS_RETURN_NOT_OK(s);
  }
  edge_spill.Clear();

  // Overlay graph over the boundary nodes: customized entry->exit arcs
  // plus the cross edges themselves.
  {
    std::vector<NodeId> boundary;
    for (const Partition& part : store->partitions_) {
      boundary.insert(boundary.end(), part.entries.begin(),
                      part.entries.end());
      boundary.insert(boundary.end(), part.exits.begin(), part.exits.end());
    }
    std::sort(boundary.begin(), boundary.end());
    boundary.erase(std::unique(boundary.begin(), boundary.end()),
                   boundary.end());
    store->overlay_nodes_ = std::move(boundary);
    store->overlay_index_.assign(n, -1);
    for (size_t i = 0; i < store->overlay_nodes_.size(); ++i) {
      store->overlay_index_[static_cast<size_t>(store->overlay_nodes_[i])] =
          static_cast<int32_t>(i);
    }
    store->overlay_adj_.assign(store->overlay_nodes_.size(), {});
    for (size_t p = 0; p < num_partitions; ++p) {
      const Partition& part = store->partitions_[p];
      for (size_t ei = 0; ei < part.entries.size(); ++ei) {
        const int32_t from =
            store->overlay_index_[static_cast<size_t>(part.entries[ei])];
        for (size_t xi = 0; xi < part.exits.size(); ++xi) {
          if (part.entries[ei] == part.exits[xi]) continue;
          const double cost = entry_exit_cost[p][ei * part.exits.size() + xi];
          if (!(cost < kInf)) continue;
          const int32_t to =
              store->overlay_index_[static_cast<size_t>(part.exits[xi])];
          store->overlay_adj_[static_cast<size_t>(from)].emplace_back(to,
                                                                      cost);
        }
      }
    }
    for (const CrossEdge& ce : cross_edges) {
      const int32_t from = store->overlay_index_[static_cast<size_t>(ce.u)];
      const int32_t to = store->overlay_index_[static_cast<size_t>(ce.v)];
      store->overlay_adj_[static_cast<size_t>(from)].emplace_back(
          to, StoreCost(ce.cost));
    }
  }
  return store;
}

Result<std::vector<RelationalGraphStore::EdgeRow>>
PartitionedGraphStore::FetchAdjacency(NodeId global) const {
  const int p = PartitionOf(global);
  if (p < 0) {
    return Status::NotFound("node " + std::to_string(global) +
                            " not in the partitioned store");
  }
  const NodeId local = static_cast<NodeId>(packed(global) & 0xFFFF);
  const Partition& part = partitions_[static_cast<size_t>(p)];
  ATIS_ASSIGN_OR_RETURN(std::vector<RelationalGraphStore::EdgeRow> rows,
                        part.store->FetchAdjacency(local));
  for (RelationalGraphStore::EdgeRow& row : rows) {
    row.begin = global;
    row.end = part.local_to_global[static_cast<size_t>(row.end)];
  }
  return rows;
}

Result<std::vector<double>> PartitionedGraphStore::RestrictedDijkstra(
    size_t p, const std::vector<std::pair<NodeId, double>>& seeds,
    uint64_t* settled, const Deadline& deadline) const {
  const Partition& part = partitions_[p];
  ShortestPathSearch search(part.local_to_global.size());
  for (const auto& [local, d] : seeds) search.Seed(local, d);
  ATIS_RETURN_NOT_OK(search.Run([&](NodeId u, const auto& relax) -> Status {
    ATIS_RETURN_NOT_OK(CheckDeadline(deadline));
    ATIS_ASSIGN_OR_RETURN(std::vector<RelationalGraphStore::EdgeRow> rows,
                          part.store->FetchAdjacency(u));
    for (const RelationalGraphStore::EdgeRow& row : rows) {
      // Ghost ids follow the owned range: such an edge leaves p.
      if (static_cast<uint32_t>(row.end) < part.num_owned) {
        relax(row.end, row.cost);
      }
    }
    return Status::OK();
  }));
  if (settled != nullptr) *settled = search.settled();
  return search.TakeDistances();
}

Result<PartitionedGraphStore::RouteCost>
PartitionedGraphStore::StitchedDistance(NodeId source, NodeId destination,
                                        QueryStats* stats,
                                        const Deadline& deadline) const {
  const int ps = PartitionOf(source);
  const int pt = PartitionOf(destination);
  if (ps < 0 || pt < 0) {
    return Status::NotFound("query endpoint not in the partitioned store");
  }
  if (stats != nullptr) stats->cross_partition = (ps != pt);
  if (source == destination) return RouteCost{true, 0.0};
  const NodeId local_s = static_cast<NodeId>(packed(source) & 0xFFFF);
  const NodeId local_t = static_cast<NodeId>(packed(destination) & 0xFFFF);

  // Phase 1: restricted Dijkstra in the source partition.
  uint64_t settled1 = 0;
  ATIS_ASSIGN_OR_RETURN(
      std::vector<double> dist_s,
      RestrictedDijkstra(static_cast<size_t>(ps), {{local_s, 0.0}},
                         &settled1, deadline));
  if (stats != nullptr) stats->settled_source = settled1;
  double best = kInf;
  if (ps == pt) best = dist_s[static_cast<size_t>(local_t)];

  // Phase 2: Dijkstra over the in-memory boundary overlay, seeded with
  // the source partition's exit distances.
  const Partition& spart = partitions_[static_cast<size_t>(ps)];
  ShortestPathSearch overlay(overlay_nodes_.size());
  for (const NodeId exit : spart.exits) {
    overlay.Seed(overlay_index_[static_cast<size_t>(exit)],
                 dist_s[static_cast<size_t>(packed(exit) & 0xFFFF)]);
  }
  ATIS_RETURN_NOT_OK(
      overlay.Run([this, &deadline](NodeId u, const auto& relax) -> Status {
        ATIS_RETURN_NOT_OK(CheckDeadline(deadline));
        for (const auto& [to, cost] : overlay_adj_[static_cast<size_t>(u)]) {
          relax(to, cost);
        }
        return Status::OK();
      }));
  if (stats != nullptr) stats->settled_overlay = overlay.settled();

  // Phase 3: multi-source restricted Dijkstra in the target partition,
  // seeded with the overlay labels of its entry nodes.
  const Partition& tpart = partitions_[static_cast<size_t>(pt)];
  std::vector<std::pair<NodeId, double>> seeds;
  for (const NodeId entry : tpart.entries) {
    const double d = overlay.dist(overlay_index_[static_cast<size_t>(entry)]);
    if (!(d < kInf)) continue;
    seeds.emplace_back(static_cast<NodeId>(packed(entry) & 0xFFFF), d);
  }
  if (!seeds.empty()) {
    uint64_t settled3 = 0;
    ATIS_ASSIGN_OR_RETURN(
        std::vector<double> dist_t,
        RestrictedDijkstra(static_cast<size_t>(pt), seeds, &settled3,
                           deadline));
    if (stats != nullptr) stats->settled_target = settled3;
    best = std::min(best, dist_t[static_cast<size_t>(local_t)]);
  }
  if (!(best < kInf)) return RouteCost{false, 0.0};
  return RouteCost{true, best};
}

Result<PartitionedGraphStore::RouteCost>
PartitionedGraphStore::GlobalDijkstra(NodeId source, NodeId destination,
                                      QueryStats* stats,
                                      const Deadline& deadline) const {
  if (PartitionOf(source) < 0 || PartitionOf(destination) < 0) {
    return Status::NotFound("query endpoint not in the partitioned store");
  }
  if (stats != nullptr) {
    stats->cross_partition =
        PartitionOf(source) != PartitionOf(destination);
  }
  ShortestPathSearch search(static_cast<size_t>(num_nodes_));
  search.Seed(source, 0.0);
  ATIS_RETURN_NOT_OK(search.Run(
      [this, &deadline](NodeId u, const auto& relax) -> Status {
        ATIS_RETURN_NOT_OK(CheckDeadline(deadline));
        ATIS_ASSIGN_OR_RETURN(std::vector<RelationalGraphStore::EdgeRow> rows,
                              FetchAdjacency(u));
        for (const RelationalGraphStore::EdgeRow& row : rows) {
          relax(row.end, row.cost);
        }
        return Status::OK();
      },
      [destination](NodeId u) { return u == destination; }));
  if (stats != nullptr) stats->settled_source = search.settled();
  if (!search.Reached(destination)) return RouteCost{false, 0.0};
  return RouteCost{true, search.dist(destination)};
}

}  // namespace atis::graph
