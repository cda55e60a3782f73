// Concurrent route-query serving: a fixed worker pool over the
// database-resident engine.
//
// The paper frames ATIS as a shared service answering route-computation
// queries for many travellers against one database-resident map
// (Section 1). This module is that service's executor: N worker threads
// share one metered DiskManager and one sharded BufferPool, and serve
// one of two graph backends:
//
//   * The single relational store (RouteServer(graph, options)): each
//     worker owns a private RelationalGraphStore replica (Iterative,
//     Dijkstra and A* versions 1-3 write working state — status/pred/
//     path_cost — into R, so the node relation cannot be shared between
//     in-flight queries; the map data itself is identical across
//     replicas; served A* versions 4 and 5 only read R).
//   * A continent map too large for one store (RouteServer(map_path,
//     partitioning, options)): one read-only graph::PartitionedGraphStore
//     built on the server's own pool and shared by every worker, with no
//     replicas. A* v5 queries take the overlay-stitched path
//     (StitchedDistance), Dijkstra queries the flat GlobalDijkstra
//     baseline; other algorithms get InvalidArgument. The store is
//     immutable: ApplyUpdates returns FailedPrecondition, and the
//     degraded ladder has only its stale-cache rung.
//
// Queries are dispatched to whichever worker is free; per-query block I/O
// is accounted exactly via IoMeter::ScopedThreadCounters even though the
// disk is shared. Everything below applies to both backends unless it
// names the replicas, the WAL or the landmark/overlay estimators.
//
// Workers run with statement_at_a_time off: the paper's between-statement
// pool eviction is a single-user execution model and is meaningless (and
// unsafe) with concurrent pinners. Paper-mode experiments keep using a
// single-threaded DbSearchEngine and are bit-identical to before.
//
// Resilience: each query carries a deadline (cooperatively checked by the
// engine per expansion), miss fills retry transient disk faults with
// bounded backoff, each replica sits behind a circuit breaker that
// quarantines it after consecutive storage faults, and when the primary
// path still fails the server degrades gracefully — a stale cached route
// (flagged) first, then an in-memory search over the last-good graph
// snapshot — instead of returning an error. Oversized batches are shed by
// admission control with kResourceExhausted.
//
// Batched execution (Options::max_batch > 1): admitted queries wait in
// one shared queue; a free worker claims a FIFO seed plus up to
// max_batch - 1 queued queries whose sources share a coarse Hilbert
// region, and runs them back-to-back through a shared BatchContext
// (core/batch_engine.h) — one metered adjacency fetch per expanded node
// feeds every member, and identical (source, destination, algorithm,
// version) members coalesce into a single computation. Answers are
// bit-identical to serial execution; only the block I/O per query shrinks.
//
// Traffic ingestion (ApplyUpdates / UpdateEdgeCost): the write path is
// MVCC-lite. Every metric the server has ever served is an immutable
// MetricState — version number, float-rounded graph snapshot, overlay
// index, landmark table and estimator — and updates never quiesce the
// worker pool. A writer builds version N+1 off to the side (WAL append +
// fsync first when Options::wal.dir is set, then the apply to the
// writer's in-memory metric, its snapshot copy, incremental overlay
// re-customization over that snapshot deduplicated across the batch, and
// landmark revalidation when any cost decreased), then publishes it by
// swapping one shared_ptr under the queue mutex. Past the WAL commit the
// writer touches no storage. Every publication bumps the route cache's
// epoch.
//
// Landmark revalidation repairs the table in place of 2k SSSPs
// (RepairLandmarks): the writer keeps a reverse copy of its metric,
// updated edge for edge, and a pending list of the edges changed since
// the last revalidation with the cost the table was computed at (the
// first one, for an edge changed twice). Pure increases only extend the
// list; the next decreasing batch repairs every pending edge at once, so
// after each revalidation the table equals a recompute on the current
// metric.
//
// Workers pin the head state when they claim a batch and lazily catch
// their private store replica up to it: they apply only the per-edge
// dirty set they are behind on and swap their overlay and estimator
// pointers. Every query in the batch then runs against exactly one
// metric version, which it reports in RouteResponse::metric_version.
// Workers never free a version: the writer keeps each superseded
// MetricState in a retired list and frees it, outside the queue mutex,
// once no worker's replica is at it and no worker has it pinned — at
// most two versions per worker. Cache inserts are dropped when a newer
// version published mid-query, so a stale route can never be cached past
// its invalidation. With a WAL directory configured the server replays
// committed batches (and the newest checkpoint) at construction,
// restoring the exact pre-crash metric.
//
// Each ApplyUpdates observes the wall time of every stage it runs in
// atis_update_stage_seconds{stage=wal|apply|snapshot|overlay|landmarks|
// publish}: wal only with a WAL, overlay only with Version 5 on,
// landmarks only on a batch that revalidates.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/batch_engine.h"
#include "core/circuit_breaker.h"
#include "core/db_search.h"
#include "core/landmarks.h"
#include "core/overlay.h"
#include "core/route_cache.h"
#include "core/update_log.h"
#include "graph/graph.h"
#include "graph/partitioned_store.h"
#include "graph/relational_graph.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/deadline.h"

namespace atis::obs {
class Counter;
class Histogram;
class SloWindows;
class SlowQueryLog;
class TraceRing;
class TraceSampler;
}  // namespace atis::obs

namespace atis::core {

/// One route-computation request.
struct RouteQuery {
  graph::NodeId source = 0;
  graph::NodeId destination = 0;
  Algorithm algorithm = Algorithm::kAStar;
  /// Only read when algorithm == kAStar.
  AStarVersion version = AStarVersion::kV3;
  /// Per-query deadline; 0 = use the server's default_deadline_ms.
  uint64_t deadline_ms = 0;
};

/// How a response was produced.
enum class ServedVia {
  kEngine,      ///< database-resident search on a healthy replica
  kCache,       ///< fresh route-cache hit
  kStaleCache,  ///< degraded: cached route from before an epoch bump
  kSnapshot,    ///< degraded: in-memory search on the last-good graph
  kCoalesced,   ///< copied from an identical query in the same batch
  kNone,        ///< failed (or shed) with no answer
};
const char* ServedViaName(ServedVia via);

/// Outcome of one query: the path result plus serving-side accounting.
struct RouteResponse {
  size_t query_index = 0;     ///< position in the submitted batch
  Status status;              ///< non-OK when no answer could be produced
  PathResult result;          ///< valid iff status.ok()
  storage::IoCounters io;     ///< exact block I/O of this query
  double latency_seconds = 0.0;
  int worker_id = -1;
  bool cache_hit = false;     ///< answered from the route cache (io is 0)
  /// True when the answer came from a degraded fallback (stale cache or
  /// in-memory snapshot) after the primary path failed. status is OK —
  /// the route is usable — but it may not reflect current traffic.
  bool degraded = false;
  ServedVia served_via = ServedVia::kEngine;
  /// The primary-path error a degraded answer papered over (OK otherwise).
  Status degraded_cause;
  /// Id of the batch this query executed in (0 when batching is off).
  uint64_t batch_id = 0;
  /// True when this answer was coalesced from an identical query in the
  /// same batch (singleflight): io is zero, the computation ran once.
  bool coalesced = false;
  /// The metric version this answer was computed against (the version the
  /// worker pinned at batch claim). Subtracting it from the currently
  /// published version bounds the answer's staleness in update batches.
  uint64_t metric_version = 0;
};

class RouteServer {
 public:
  struct Options {
    /// Worker threads (and store replicas). Clamped to >= 1.
    size_t num_workers = 4;
    /// Total frames of the shared buffer pool; 0 = 128 per worker.
    size_t pool_frames = 0;
    /// Pool shards; 0 = max(4, 2 * num_workers).
    size_t pool_shards = 0;
    /// Simulated device latency for the shared disk (off by default).
    storage::DiskLatencyModel disk_latency;
    /// Engine options for every worker. statement_at_a_time is forced off
    /// (see file comment); the other knobs are honoured.
    DbSearchOptions search;
    /// Physical layout every store replica loads with. kHilbert packs
    /// spatially-near tuples into shared blocks (fewer distinct block
    /// reads per query); kRowOrder is the paper's layout.
    graph::StoreLayout layout = graph::StoreLayout::kRowOrder;
    /// Landmarks for A* Version 4. 0 disables; > 0 selects this many
    /// landmarks on the float-rounded map, persists the table through the
    /// storage layer once, and enables kV4 queries on every worker.
    size_t num_landmarks = 0;
    /// Partition-boundary overlay for A* Version 5 (core/overlay.h).
    /// 0 disables; > 0 builds the 2^order x 2^order Hilbert partition,
    /// persists its topology through replica 0's storage path, customizes
    /// the distance tables on the float-rounded map, and enables kV5
    /// queries on every worker. UpdateEdgeCost then re-customizes
    /// incrementally (only the touched cell) instead of leaving the
    /// overlay stale.
    uint32_t overlay_cell_order = 0;
    /// Memoise full route results in a sharded LRU invalidated by traffic
    /// epochs (see core/route_cache.h).
    bool enable_cache = false;
    /// Only read when enable_cache is true.
    RouteCache::Options cache;
    /// Deadline applied to queries that don't carry their own; 0 = none.
    uint64_t default_deadline_ms = 0;
    /// Admission control: when > 0, ServeBatch admits at most
    /// num_workers + max_queue_depth queries per call and sheds the rest
    /// with kResourceExhausted (they never reach a worker). 0 = unbounded.
    size_t max_queue_depth = 0;
    /// Serve degraded answers (stale cache, then in-memory search on the
    /// last-good graph snapshot) when the primary path fails.
    bool enable_degraded = false;
    /// Seeded probabilistic fault injection on the shared disk, installed
    /// after the replicas load (so construction itself never faults).
    storage::FaultProfile fault_profile;
    /// Bounded retry for buffer-pool miss fills hitting transient faults.
    storage::RetryPolicy retry;
    /// Per-replica circuit breaker configuration.
    CircuitBreaker::Options breaker;

    /// Batched execution: a worker claims up to this many queued queries
    /// sharing a region (see batch_region_order) and runs them as one
    /// batch through a shared BatchContext — one metered adjacency fetch
    /// per expanded node feeds every member, and identical queries
    /// coalesce into one computation.
    /// Results stay bit-identical to serial execution; only per-query I/O
    /// shrinks. 1 (default) = unbatched, the pre-batching serving path.
    size_t max_batch = 1;
    /// Region-affinity granularity: queries are grouped by the Hilbert
    /// cell of their source on a 2^order x 2^order grid over the map's
    /// bounding box. Read only when max_batch > 1.
    uint32_t batch_region_order = 3;

    /// Durable traffic ingestion. All off by default (in-memory updates
    /// only, exactly the pre-WAL behaviour).
    struct WalOptions {
      /// Directory for the write-ahead log (`wal.atisw`) and epoch
      /// checkpoints (`checkpoint-<seq>.atisg`). Empty = durability off.
      /// When set, construction replays the newest checkpoint plus every
      /// committed WAL frame past it before loading the replicas, so the
      /// served metric is exactly the last acknowledged state.
      std::string dir;
      /// fsync every committed batch (the durability guarantee). Off only
      /// for throughput experiments that isolate fsync cost.
      bool sync_on_commit = true;
      /// Write a checkpoint (and reset the WAL) every N applied batches;
      /// 0 = never checkpoint, the WAL grows until restart.
      uint64_t checkpoint_every = 0;
    };
    WalOptions wal;

    /// Serving-path observability (tracing, slow-query log, SLO windows).
    /// All off by default; each knob is independent.
    struct ObsOptions {
      /// Head-sample 1 query in N for trace persistence (0 = tracing off).
      /// When on, every query runs under a per-thread Tracer — cheap next
      /// to the metered block reads — but only head-sampled, slow,
      /// degraded, or errored span trees are written to the ring.
      uint64_t sample_every = 0;
      /// Directory for the bounded on-disk trace ring. Required when
      /// sample_every > 0.
      std::string trace_dir;
      /// Queries at or above this latency go to the slow-query log and
      /// force-persist their trace. 0 disables the slow-query log.
      double slow_query_ms = 0.0;
      /// JSONL slow-query log path. Required when slow_query_ms > 0.
      std::string slow_query_log_path;
      /// Keep rolling 10s/1m/5m SLO windows (QPS, percentiles,
      /// availability, burn rate) and publish them as gauges.
      bool enable_slo = false;
    };
    ObsOptions obs;
  };

  /// Loads `options.num_workers` store replicas of `g` and starts the
  /// workers. Check init_status() before serving.
  RouteServer(const graph::Graph& g, Options options);
  /// Same with default Options. (A separate overload: a nested class's
  /// default member initializers cannot feed a default argument of the
  /// enclosing class.)
  explicit RouteServer(const graph::Graph& g);
  /// Streams the map file at `map_path` into a partitioned store on the
  /// server's own pool (so pool, disk-latency, fault and retry options
  /// apply) and starts the workers over it. wal.dir, num_landmarks and
  /// overlay_cell_order are refused: init_status() is InvalidArgument.
  RouteServer(const std::string& map_path,
              const graph::PartitionedStoreOptions& partitioning,
              Options options);

  RouteServer(const RouteServer&) = delete;
  RouteServer& operator=(const RouteServer&) = delete;

  /// Graceful shutdown: running queries finish, workers join.
  ~RouteServer();

  /// OK when every store replica (or the partitioned store) loaded; the
  /// first load error otherwise.
  const Status& init_status() const { return init_status_; }

  /// Runs the batch across the worker pool and blocks until every query
  /// has an answer. Responses are positionally aligned with `queries`
  /// (response[i].query_index == i). A failed query yields a non-OK
  /// per-response status — the batch itself still succeeds. When
  /// Options::max_queue_depth bounds admission, queries beyond the
  /// admitted prefix are shed immediately with kResourceExhausted. Safe
  /// to call concurrently from multiple dispatcher threads (their queries
  /// interleave in one shared pending queue — with batching on they may
  /// even share a batch); fails if init_status() is non-OK.
  Result<std::vector<RouteResponse>> ServeBatch(
      const std::vector<RouteQuery>& queries);

  /// Applies one batch of traffic updates as a single committed metric
  /// version. Safe to call concurrently with ServeBatch — readers are
  /// never blocked: the batch is WAL-committed first (when durability is
  /// on; a failed commit applies nothing), built into an immutable
  /// version-N+1 MetricState off to the side (in-memory metric apply,
  /// overlay re-customization over the new snapshot deduplicated across
  /// the batch's cells, landmark re-validation when any cost decreased —
  /// Version 4 stays exact under live traffic), and published by one
  /// pointer swap. In-flight queries keep serving their pinned version;
  /// workers catch up at their next batch claim. Each publication bumps
  /// the route cache's epoch, so every cached route recomputes on its
  /// next lookup. Concurrent writers
  /// serialize among themselves. A batch with a negative or NaN cost
  /// (InvalidArgument) or an unknown edge (NotFound) applies and logs
  /// nothing. A cost of +infinity closes the street until a later update
  /// reopens it.
  ///
  /// Failure atomicity: any failure BEFORE the commit point (validation,
  /// WAL append/fsync) applies nothing and may be retried. A failure
  /// AFTER the commit point — while building version N+1 (metric apply,
  /// overlay re-customization, landmark revalidation) — leaves
  /// writer-side state half-mutated, so the write path poisons itself:
  /// nothing is published, readers keep serving the last fully-published
  /// version, and every later ApplyUpdates is refused with the poison
  /// status (see write_path_status()). A restart recovers by replaying
  /// the WAL into a consistent metric.
  ///
  /// A partitioned server is read-only: FailedPrecondition, nothing
  /// published.
  Status ApplyUpdates(std::span<const EdgeCostUpdate> updates);

  /// OK normally; the permanent refusal reason after a post-commit build
  /// failure poisoned the write path (readers are unaffected).
  Status write_path_status();

  /// Single-edge convenience wrapper over ApplyUpdates.
  Status UpdateEdgeCost(graph::NodeId u, graph::NodeId v, double cost);

  size_t num_workers() const { return options_.num_workers; }
  storage::DiskManager& disk() { return disk_; }
  storage::BufferPool& pool() { return *pool_; }
  bool landmarks_enabled() const {
    return !engines_.empty() && engines_.front()->landmarks_enabled();
  }
  bool overlay_enabled() const {
    return options_.overlay_cell_order > 0 && init_status_.ok();
  }
  /// Snapshot of the currently served overlay index (null when disabled).
  /// Consistent: the topology/customization pair is swapped as one unit.
  std::shared_ptr<const OverlayIndex> overlay_index();
  /// Metric version of the served customization (0 when disabled).
  uint64_t overlay_metric_version();
  /// The served partitioned store (null on the single-store backend).
  const graph::PartitionedGraphStore* partitioned_store() const {
    return partitioned_.get();
  }
  /// Null when Options::enable_cache was false.
  RouteCache* cache() { return cache_.get(); }
  /// The circuit breaker guarding worker `w`'s replica.
  const CircuitBreaker& breaker(size_t w) const { return *breakers_[w]; }
  /// The currently published metric snapshot: the in-memory graph under
  /// the store's float-rounded metric that degraded answers are computed
  /// on. Immutable — updates publish a fresh one rather than mutating it.
  /// Null on the partitioned backend.
  std::shared_ptr<const graph::Graph> snapshot();
  /// The currently published landmark table (null when Version 4 is
  /// off). Immutable, like snapshot().
  std::shared_ptr<const LandmarkSet> landmark_set();
  /// The currently published metric version (1 at construction; +1 per
  /// applied update batch). Lock-free.
  uint64_t published_version() const {
    return published_version_.load(std::memory_order_acquire);
  }
  /// WAL / recovery accounting (all zero when Options::wal.dir is empty).
  struct IngestStats {
    bool wal_enabled = false;
    uint64_t last_seq = 0;            ///< newest committed batch sequence
    uint64_t appended_batches = 0;    ///< WAL frames committed this run
    uint64_t appended_records = 0;
    uint64_t bytes_appended = 0;
    uint64_t append_failures = 0;     ///< commits refused by the WAL
    uint64_t checkpoints = 0;         ///< checkpoints written this run
    uint64_t recovered_batches = 0;   ///< frames replayed at construction
    uint64_t recovered_records = 0;
    bool recovery_torn_tail = false;  ///< a torn tail was truncated
    double recovery_seconds = 0.0;    ///< checkpoint load + WAL replay
    uint64_t updates_applied = 0;     ///< edge updates applied this run
    uint64_t update_batches = 0;      ///< ApplyUpdates calls that published
    uint64_t worker_catchups = 0;     ///< replica catch-ups at batch claim
    uint64_t landmark_revalidations = 0;
    /// Superseded metric versions the writer still holds because a
    /// worker's replica is at one or a worker has one pinned (at most
    /// 2 x num_workers). Read after releasing the ones no worker needs.
    uint64_t retained_versions = 0;
  };
  IngestStats ingest_stats();

  /// Null unless the corresponding Options::obs knob enabled them.
  obs::SloWindows* slo() { return slo_.get(); }
  obs::TraceRing* trace_ring() { return trace_ring_.get(); }
  obs::SlowQueryLog* slow_query_log() { return slow_log_.get(); }

  /// Batching totals for this server since construction (all 0 when
  /// max_batch == 1 — the unbatched path never touches them). The same
  /// numbers appear in /statusz under "batching" and, process-wide, as
  /// the atis_batch_* counters.
  uint64_t batches_executed() const {
    return batches_executed_.load(std::memory_order_relaxed);
  }
  uint64_t batch_members_executed() const {
    return batch_members_executed_.load(std::memory_order_relaxed);
  }
  uint64_t batch_adjacency_fetches() const {
    return batch_fetches_.load(std::memory_order_relaxed);
  }
  uint64_t batch_shared_hits() const {
    return batch_shared_.load(std::memory_order_relaxed);
  }
  uint64_t batch_coalesced_served() const {
    return batch_coalesced_served_.load(std::memory_order_relaxed);
  }

  /// Pushes pull-style gauges (SLO windows, uptime) into the default
  /// registry. Hook this into HttpExporter::Options::refresh, or call it
  /// before a one-shot metrics dump. Safe from any thread.
  void RefreshObsGauges();

  /// Per-worker serving state as a JSON object: breaker state and
  /// transition counts, queue depth, cache hit/stale rates, degraded
  /// serving counters, buffer-pool stats, SLO windows,
  /// uptime, and build/layout info. This is the /statusz body.
  std::string StatuszJson();

 private:
  /// One ServeBatch invocation's completion state (stack-allocated by the
  /// dispatcher; outlives its queries because ServeBatch blocks on it).
  struct ServeCall {
    size_t remaining = 0;  // guarded by mu_
  };
  /// One admitted query waiting in (or claimed from) the shared queue.
  struct WorkItem {
    const RouteQuery* query = nullptr;
    std::vector<RouteResponse>* out = nullptr;
    size_t index = 0;      ///< position within the dispatcher's call
    uint64_t region = 0;   ///< batch-formation affinity key
    ServeCall* call = nullptr;
  };

  /// One immutable published metric: everything a query needs to serve a
  /// consistent answer at one version. Swapped whole under mu_; readers
  /// pin the shared_ptr and outlive any number of later publications.
  struct MetricState {
    uint64_t version = 1;
    /// The served map under the store's float-rounded metric (degraded
    /// answers, region index lookups); null on the partitioned backend.
    std::shared_ptr<const graph::Graph> snapshot;
    std::shared_ptr<const OverlayIndex> overlay;      // null = V5 off
    std::shared_ptr<const LandmarkSet> landmarks;     // null = V4 off
    std::shared_ptr<const Estimator> estimator;       // over landmarks
  };
  /// Latest raw cost of an edge some replica has not yet applied, keyed
  /// (u << 32 | v). Applying only the newest cost per edge is idempotent,
  /// so the map is bounded by the edge count no matter how far a replica
  /// falls behind. Guarded by mu_.
  struct DirtyEdge {
    double cost = 0.0;
    uint64_t version = 0;  ///< the publication that wrote this cost
  };

  /// Construction's shared head: clamps options_.num_workers and builds
  /// the disk and the buffer pool.
  void StartPool();
  /// Construction's shared tail, once the backend loaded: metric series,
  /// cache, observability, breakers, metric version 1 (`initial`),
  /// fault/retry install and worker threads. Non-OK (and no
  /// worker started) on a broken observability configuration.
  Status StartServing(std::shared_ptr<MetricState> initial);

  void WorkerLoop(size_t worker_id);
  /// Claims a batch from the queue: a FIFO seed plus up to max_batch - 1
  /// pending queries sharing its region; it never waits for later
  /// arrivals. Returns false on shutdown. `lock` must hold mu_.
  bool ClaimBatch(std::unique_lock<std::mutex>& lock,
                  std::vector<WorkItem>* claimed, uint64_t* batch_id);
  RouteResponse RunOne(size_t worker_id, size_t query_index,
                       const RouteQuery& q, BatchContext* batch,
                       uint64_t batch_id, const MetricState& pinned,
                       const Status& replica_health);
  /// Answers `q` on the partitioned store (stitched for A* v5, flat for
  /// Dijkstra) and counts it in the atis_partition_* series.
  Result<PathResult> RunPartitioned(const RouteQuery& q,
                                    const Deadline& deadline);
  /// A singleflight follower's response: the leader's answer with the
  /// member's own accounting (zero I/O, ServedVia::kCoalesced).
  RouteResponse RunCoalesced(size_t worker_id, size_t query_index,
                             const RouteQuery& q,
                             const RouteResponse& leader,
                             uint64_t batch_id);
  /// Fills `resp` from a degraded source after primary failure `cause`.
  /// Returns false when no fallback produced an answer.
  bool ServeDegraded(const RouteQuery& q, const RouteCache::Key& key,
                     Status cause, const MetricState& pinned,
                     RouteResponse* resp);
  /// Brings worker `worker_id`'s replica (store costs, overlay pointer,
  /// estimator pointer) up to `pinned`, applying `todo`. Returns the
  /// first failure; on failure the replica stays marked behind and the
  /// batch serves degraded from the pinned snapshot.
  Status CatchUpReplica(size_t worker_id, const MetricState& pinned,
                        std::span<const EdgeCostUpdate> todo);
  /// Durable-recovery half of construction: loads the newest checkpoint,
  /// replays committed WAL frames past it into `base`, and opens the log
  /// for appending. Fills wal_ and recovery stats.
  Status RecoverFromWal(graph::Graph* base);
  /// Writes `checkpoint-<seq>.atisg` atomically, resets the WAL, and
  /// removes superseded checkpoints. Caller holds update_mu_.
  Status WriteCheckpoint(uint64_t seq);
  /// The post-commit half of ApplyUpdates: mutates write_graph_, builds
  /// the version-N+1 MetricState (overlay re-customization, landmark
  /// revalidation), publishes it, and bumps the cache epoch. Caller holds
  /// update_mu_ and must poison the write path on failure (writer state
  /// may be half-mutated).
  /// `started` is when the next stage began (for the stage timings).
  Status PublishBatchLocked(std::span<const EdgeCostUpdate> updates,
                            bool any_decrease,
                            std::chrono::steady_clock::time_point started);
  /// Frees the retired versions no worker's replica is at and no worker
  /// has pinned. Caller holds update_mu_ and not mu_.
  void ReleaseRetiredLocked();
  /// Observes the time since `*since` as update stage `stage` and moves
  /// `*since` to now.
  void ObserveStage(size_t stage,
                    std::chrono::steady_clock::time_point* since);

  storage::DiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::vector<std::unique_ptr<graph::RelationalGraphStore>> stores_;
  std::vector<std::unique_ptr<DbSearchEngine>> engines_;
  /// The partitioned backend (null on the single store, whose replicas
  /// are stores_/engines_).
  std::unique_ptr<graph::PartitionedGraphStore> partitioned_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  std::unique_ptr<RouteCache> cache_;
  /// The published metric head. Guarded by mu_ (pointer reads/writes
  /// only; the pointee is immutable). published_version_ mirrors
  /// head_->version for lock-free staleness checks.
  std::shared_ptr<const MetricState> head_;
  std::atomic<uint64_t> published_version_{1};
  /// The newest version whose cache invalidation has finished; it trails
  /// published_version_ while a publish is invalidating.
  std::atomic<uint64_t> cache_version_{1};
  Options options_;

  // ---- Write path (guarded by update_mu_; writers serialize among
  // themselves and never block readers) ----
  std::mutex update_mu_;
  /// The writer's working copy of the served metric (float-rounded).
  /// Each publication copies it into an immutable MetricState snapshot.
  graph::Graph write_graph_;
  /// ReverseOf(write_graph_) at the same costs, for the landmark repair's
  /// backward columns; built at the first update when V4 is on (empty
  /// before).
  graph::Graph reverse_graph_;
  /// Edges changed since the served landmark table was computed, each with
  /// the cost it was computed at, and their (u << 32 | v) keys.
  std::vector<ChangedEdge> landmark_pending_;
  std::unordered_set<uint64_t> landmark_pending_keys_;
  /// Superseded versions some worker may still use; see
  /// ReleaseRetiredLocked.
  std::vector<std::shared_ptr<const MetricState>> retired_;
  /// atis_update_stage_seconds, one series per stage (UpdateStage order).
  std::vector<obs::Histogram*> update_stage_;
  std::unique_ptr<UpdateLog> wal_;  // null when Options::wal.dir empty
  /// Non-OK after a post-commit build failure: writer-side state is
  /// half-mutated, so further updates are refused (readers keep serving
  /// the last published, fully-consistent version).
  Status write_path_status_;
  uint64_t last_committed_seq_ = 0;
  uint64_t batches_since_checkpoint_ = 0;
  double recovery_seconds_ = 0.0;
  UpdateLog::ReplayStats recovery_;

  // Per-replica catch-up state. replica_version_, pinned_version_ (0 =
  // none) and dirty_edges_ are guarded by mu_; worker_overlay_/
  // worker_estimator_ slots are touched only by their own worker thread
  // after construction.
  std::vector<uint64_t> replica_version_;
  std::vector<uint64_t> pinned_version_;
  std::unordered_map<uint64_t, DirtyEdge> dirty_edges_;
  std::vector<std::shared_ptr<const OverlayIndex>> worker_overlay_;
  std::vector<std::shared_ptr<const Estimator>> worker_estimator_;
  // Metric series, resolved once at startup (cache ones null w/o cache).
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* cache_stale_ = nullptr;
  obs::Counter* deadline_exceeded_ = nullptr;
  obs::Counter* degraded_stale_ = nullptr;
  obs::Counter* degraded_snapshot_ = nullptr;
  obs::Counter* breaker_opened_ = nullptr;
  obs::Counter* breaker_rejections_ = nullptr;
  obs::Counter* admission_shed_ = nullptr;
  obs::Counter* traces_sampled_ = nullptr;
  obs::Counter* slow_queries_ = nullptr;
  obs::Counter* batch_batches_ = nullptr;
  obs::Counter* batch_members_ = nullptr;
  obs::Counter* batch_adjacency_fetches_ = nullptr;
  obs::Counter* batch_shared_hits_ = nullptr;
  obs::Counter* batch_coalesced_ = nullptr;
  // atis_partition_* series (null on the single-store backend).
  obs::Counter* partition_queries_ = nullptr;
  obs::Counter* partition_cross_ = nullptr;
  obs::Counter* partition_settled_store_ = nullptr;
  obs::Counter* partition_settled_overlay_ = nullptr;
  // Per-server batching totals for /statusz (the counters above are
  // process-global and may aggregate several servers).
  std::atomic<uint64_t> batches_executed_{0};
  std::atomic<uint64_t> batch_members_executed_{0};
  std::atomic<uint64_t> batch_fetches_{0};
  std::atomic<uint64_t> batch_shared_{0};
  std::atomic<uint64_t> batch_coalesced_served_{0};
  /// Region-affinity index over the served map (null when max_batch <= 1).
  std::unique_ptr<RegionIndex> regions_;
  // Observability state (null unless enabled by Options::obs).
  std::unique_ptr<obs::TraceSampler> sampler_;
  std::unique_ptr<obs::TraceRing> trace_ring_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  std::unique_ptr<obs::SloWindows> slo_;
  std::chrono::steady_clock::time_point started_{};
  Status init_status_;

  // Traffic-update accounting (relaxed; read by /statusz).
  std::atomic<uint64_t> traffic_updates_applied_{0};
  std::atomic<uint64_t> traffic_update_batches_{0};
  std::atomic<uint64_t> overlay_cells_recustomized_{0};
  std::atomic<uint64_t> wal_append_failures_{0};
  std::atomic<uint64_t> checkpoints_written_{0};
  std::atomic<uint64_t> worker_catchups_{0};
  std::atomic<uint64_t> landmark_revalidations_{0};
  // WAL / snapshot metric series, resolved once at startup.
  obs::Counter* wal_appends_metric_ = nullptr;
  obs::Counter* wal_records_metric_ = nullptr;
  obs::Counter* wal_bytes_metric_ = nullptr;
  obs::Counter* wal_append_failures_metric_ = nullptr;
  obs::Counter* wal_checkpoints_metric_ = nullptr;
  obs::Counter* snapshot_published_metric_ = nullptr;
  obs::Counter* snapshot_catchups_metric_ = nullptr;
  obs::Counter* snapshot_revalidations_metric_ = nullptr;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for queries / stop
  std::condition_variable done_cv_;   // dispatchers wait for completion
  std::deque<WorkItem> pending_;      // guarded by mu_
  uint64_t next_batch_id_ = 0;        // guarded by mu_
  bool stop_ = false;                 // guarded by mu_
  std::vector<std::thread> workers_;
};

}  // namespace atis::core
