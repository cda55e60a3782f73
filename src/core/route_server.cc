#include "core/route_server.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <string>
#include <utility>

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "core/memory_search.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/slo.h"
#include "graph/spatial_layout.h"
#include "obs/trace.h"
#include "obs/trace_ring.h"

namespace atis::core {

namespace {

/// The write-path stages atis_update_stage_seconds times, in run order.
enum UpdateStage : size_t {
  kStageWal,
  kStageApply,
  kStageSnapshot,
  kStageOverlay,
  kStageLandmarks,
  kStagePublish,
};
constexpr const char* kUpdateStageNames[] = {
    "wal", "apply", "snapshot", "overlay", "landmarks", "publish"};

/// The (u << 32 | v) key of edge u -> v.
uint64_t EdgeKey(graph::NodeId u, graph::NodeId v) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
         static_cast<uint32_t>(v);
}

}  // namespace

const char* ServedViaName(ServedVia via) {
  switch (via) {
    case ServedVia::kEngine:
      return "engine";
    case ServedVia::kCache:
      return "cache";
    case ServedVia::kStaleCache:
      return "stale-cache";
    case ServedVia::kSnapshot:
      return "snapshot";
    case ServedVia::kCoalesced:
      return "coalesced";
    case ServedVia::kNone:
      return "none";
  }
  return "?";
}

RouteServer::RouteServer(const graph::Graph& g)
    : RouteServer(g, Options()) {}

RouteServer::RouteServer(const graph::Graph& g, Options options)
    : options_(std::move(options)) {
  StartPool();
  DbSearchOptions search = options_.search;
  search.statement_at_a_time = false;  // unsafe with concurrent pinners

  // Crash recovery: the base metric every replica loads is the caller's
  // graph, corrected by the newest checkpoint plus every committed WAL
  // frame past it — exactly the last state an updater was acknowledged.
  graph::Graph base = g;
  if (!options_.wal.dir.empty()) {
    if (init_status_ = RecoverFromWal(&base); !init_status_.ok()) return;
  }

  // Load one store replica per worker (sequentially; the workers are not
  // running yet). The first failure wins and the server stays inert.
  const graph::RelationalGraphStore::LoadOptions load_options{
      options_.layout};
  for (size_t w = 0; w < options_.num_workers; ++w) {
    auto store = std::make_unique<graph::RelationalGraphStore>(pool_.get());
    if (Status st = store->Load(base, load_options); !st.ok()) {
      init_status_ = std::move(st);
      return;
    }
    engines_.push_back(std::make_unique<DbSearchEngine>(
        store.get(), pool_.get(), search));
    stores_.push_back(std::move(store));
  }
  // The initial metric on the store's float-rounded costs (a snapshot
  // route costs what the engine would have reported); landmarks are
  // selected and the overlay customized on it too, since that is the
  // metric the engines accumulate.
  write_graph_ = WithStoredEdgeCosts(base);
  auto initial = std::make_shared<MetricState>();
  initial->snapshot = std::make_shared<const graph::Graph>(write_graph_);

  if (options_.num_landmarks > 0) {
    // One ALT table serves every worker: select on write_graph_,
    // persist/load it through replica 0's storage path for metered
    // accounting, and share the immutable result.
    init_status_ = [&]() -> Status {
      LandmarkOptions lm;
      lm.num_landmarks = options_.num_landmarks;
      ATIS_ASSIGN_OR_RETURN(LandmarkSet selected,
                            SelectLandmarks(write_graph_, lm));
      ATIS_ASSIGN_OR_RETURN(initial->landmarks,
                            PersistAndLoadLandmarks(selected,
                                                    stores_.front().get()));
      initial->estimator = MakeLandmarkEstimator(initial->landmarks);
      for (auto& engine : engines_) {
        ATIS_RETURN_NOT_OK(engine->EnableLandmarks(initial->estimator));
      }
      return Status::OK();
    }();
    if (!init_status_.ok()) return;
  }

  if (options_.overlay_cell_order > 0) {
    // Topology once (persisted through replica 0's metered storage path),
    // then customization on the writer's metric. Every engine serves the
    // same immutable index.
    init_status_ = [&]() -> Status {
      ATIS_ASSIGN_OR_RETURN(
          OverlayTopology built,
          OverlayTopology::Build(
              base, OverlayOptions{options_.overlay_cell_order}));
      ATIS_ASSIGN_OR_RETURN(
          auto topology,
          PersistAndLoadOverlayTopology(built, stores_.front().get(),
                                        base));
      ATIS_ASSIGN_OR_RETURN(
          auto customization,
          CustomizeOverlay(*topology, write_graph_, /*metric_version=*/1));
      auto index = std::make_shared<const OverlayIndex>(
          OverlayIndex{std::move(topology), std::move(customization)});
      for (auto& engine : engines_) {
        ATIS_RETURN_NOT_OK(engine->EnableOverlay(index));
      }
      initial->overlay = std::move(index);
      return Status::OK();
    }();
    if (!init_status_.ok()) return;
  }

  init_status_ = StartServing(std::move(initial));
}

RouteServer::RouteServer(const std::string& map_path,
                         const graph::PartitionedStoreOptions& partitioning,
                         Options options)
    : options_(std::move(options)) {
  StartPool();
  // The partitioned store is read-only and carries its own boundary
  // overlay: nothing for a WAL to recover, and no single-store estimator.
  if (!options_.wal.dir.empty() || options_.num_landmarks > 0 ||
      options_.overlay_cell_order > 0) {
    init_status_ = Status::InvalidArgument(
        "RouteServer: a partitioned store serves without wal.dir, "
        "num_landmarks or overlay_cell_order");
    return;
  }
  auto built =
      graph::PartitionedGraphStore::Build(map_path, pool_.get(), partitioning);
  if (!built.ok()) {
    init_status_ = built.status();
    return;
  }
  partitioned_ = std::move(built).value();

  auto& reg = obs::MetricsRegistry::Default();
  partition_queries_ = &reg.GetCounter(
      "atis_partition_queries_total",
      "Route queries served by sharded partitioned-store servers");
  partition_cross_ = &reg.GetCounter(
      "atis_partition_cross_queries_total",
      "Served queries whose source and destination lie in different "
      "partitions (stitched through the boundary overlay)");
  partition_settled_store_ = &reg.GetCounter(
      "atis_partition_settled_store_total",
      "Store nodes settled by the restricted source/target phases of "
      "stitched queries (and by flat reference Dijkstras)");
  partition_settled_overlay_ = &reg.GetCounter(
      "atis_partition_settled_overlay_total",
      "Boundary-overlay nodes settled by the in-memory middle phase of "
      "stitched queries");
  reg.GetGauge("atis_partition_partitions",
               "Partitions (region stores) of the served partitioned store")
      .Set(static_cast<double>(partitioned_->num_partitions()));
  reg.GetGauge("atis_partition_boundary_nodes",
               "Boundary (entry/exit) nodes of the served partitioned "
               "store's overlay")
      .Set(static_cast<double>(partitioned_->num_boundary_nodes()));

  init_status_ = StartServing(std::make_shared<MetricState>());
}

void RouteServer::StartPool() {
  if (options_.num_workers == 0) options_.num_workers = 1;
  const size_t frames = options_.pool_frames != 0
                            ? options_.pool_frames
                            : 128 * options_.num_workers;
  const size_t shards = options_.pool_shards != 0
                            ? options_.pool_shards
                            : std::max<size_t>(4, 2 * options_.num_workers);
  disk_.SetLatencyModel(options_.disk_latency);
  pool_ = std::make_unique<storage::BufferPool>(&disk_, frames, shards);
}

Status RouteServer::StartServing(std::shared_ptr<MetricState> initial) {
  if (options_.enable_cache) {
    cache_ = std::make_unique<RouteCache>(options_.cache);
    auto& reg = obs::MetricsRegistry::Default();
    cache_hits_ = &reg.GetCounter("atis_route_cache_hits_total",
                                  "Route queries answered from the cache");
    cache_misses_ = &reg.GetCounter(
        "atis_route_cache_misses_total",
        "Route queries that missed the cache and ran a search");
    cache_stale_ = &reg.GetCounter(
        "atis_route_cache_stale_evictions_total",
        "Cached routes evicted because a traffic update bumped the epoch");
  }

  {
    auto& reg = obs::MetricsRegistry::Default();
    deadline_exceeded_ = &reg.GetCounter(
        "atis_server_deadline_exceeded_total",
        "Route queries whose search ran past its deadline");
    degraded_stale_ = &reg.GetCounter(
        "atis_server_degraded_stale_total",
        "Degraded answers served from a stale cache entry");
    degraded_snapshot_ = &reg.GetCounter(
        "atis_server_degraded_snapshot_total",
        "Degraded answers computed on the in-memory graph snapshot");
    breaker_opened_ = &reg.GetCounter(
        "atis_server_breaker_open_transitions_total",
        "Replica circuit breakers opened by consecutive storage faults");
    breaker_rejections_ = &reg.GetCounter(
        "atis_server_breaker_rejections_total",
        "Route queries refused a quarantined replica");
    admission_shed_ = &reg.GetCounter(
        "atis_server_admission_shed_total",
        "Route queries shed by admission control (kResourceExhausted)");
    batch_batches_ = &reg.GetCounter(
        "atis_batch_batches_total",
        "Query batches executed through a shared BatchContext");
    batch_members_ = &reg.GetCounter(
        "atis_batch_members_total",
        "Route queries executed as members of a batch");
    batch_adjacency_fetches_ = &reg.GetCounter(
        "atis_batch_adjacency_fetches_total",
        "Metered adjacency fetches performed on behalf of a batch");
    batch_shared_hits_ = &reg.GetCounter(
        "atis_batch_shared_adjacency_hits_total",
        "Adjacency lookups served from a batch's shared scan cache "
        "(block reads a serial execution would have re-issued)");
    batch_coalesced_ = &reg.GetCounter(
        "atis_batch_coalesced_total",
        "Route queries answered by singleflight coalescing onto an "
        "identical query in the same batch");
    wal_appends_metric_ = &reg.GetCounter(
        "atis_wal_appends_total",
        "Update batches committed (appended and fsync'd) to the WAL");
    wal_records_metric_ = &reg.GetCounter(
        "atis_wal_records_total",
        "Edge-cost updates committed to the WAL across all batches");
    wal_bytes_metric_ = &reg.GetCounter(
        "atis_wal_bytes_written_total",
        "Bytes of committed WAL frames (header excluded)");
    wal_append_failures_metric_ = &reg.GetCounter(
        "atis_wal_append_failures_total",
        "Update batches refused because their WAL commit failed "
        "(nothing was applied)");
    wal_checkpoints_metric_ = &reg.GetCounter(
        "atis_wal_checkpoints_total",
        "Metric checkpoints written (each resets the WAL)");
    snapshot_published_metric_ = &reg.GetCounter(
        "atis_snapshot_published_total",
        "Metric versions published by atomic snapshot swap");
    snapshot_catchups_metric_ = &reg.GetCounter(
        "atis_snapshot_worker_catchups_total",
        "Worker replicas caught up to a newer metric version at batch "
        "claim");
    snapshot_revalidations_metric_ = &reg.GetCounter(
        "atis_snapshot_landmark_revalidations_total",
        "Landmark tables repaired because a batch lowered an edge cost");
    for (const char* stage : kUpdateStageNames) {
      update_stage_.push_back(&reg.GetHistogram(
          "atis_update_stage_seconds",
          "Wall time of one write-path stage of one ApplyUpdates call",
          obs::Histogram::ExponentialBounds(1e-6, 1.0),
          {{"stage", stage}}));
    }
    if (!options_.wal.dir.empty()) {
      // Recovery happened before the registry series existed; publish it
      // now so a restarted server's replay is visible process-wide.
      reg.GetCounter("atis_wal_replayed_batches_total",
                     "Committed WAL frames replayed during recovery")
          .Increment(recovery_.batches);
      reg.GetCounter("atis_wal_replayed_records_total",
                     "Edge-cost updates replayed during recovery")
          .Increment(recovery_.records);
      if (recovery_.torn_tail) {
        reg.GetCounter("atis_wal_torn_tail_truncations_total",
                       "Torn (uncommitted) WAL tails truncated at open")
            .Increment();
      }
    }
  }

  // Observability: trace sampling, slow-query log, SLO windows. A broken
  // obs configuration fails construction the same way a broken replica
  // does — a server you cannot observe as configured should not serve.
  started_ = std::chrono::steady_clock::now();
  if (options_.obs.sample_every > 0) {
    if (options_.obs.trace_dir.empty()) {
      return Status::InvalidArgument(
          "RouteServer: obs.sample_every > 0 requires obs.trace_dir");
    }
    obs::TraceRing::Options ring;
    ring.directory = options_.obs.trace_dir;
    ATIS_ASSIGN_OR_RETURN(trace_ring_, obs::TraceRing::Open(std::move(ring)));
    sampler_ = std::make_unique<obs::TraceSampler>(options_.obs.sample_every);
    traces_sampled_ = &obs::MetricsRegistry::Default().GetCounter(
        "atis_server_traces_sampled_total",
        "Query span trees persisted to the trace ring (head-sampled or "
        "forced by a slow/degraded/errored query)");
  }
  if (options_.obs.slow_query_ms > 0.0) {
    if (options_.obs.slow_query_log_path.empty()) {
      return Status::InvalidArgument(
          "RouteServer: obs.slow_query_ms > 0 requires "
          "obs.slow_query_log_path");
    }
    obs::SlowQueryLog::Options log;
    log.path = options_.obs.slow_query_log_path;
    log.threshold_ms = options_.obs.slow_query_ms;
    ATIS_ASSIGN_OR_RETURN(slow_log_, obs::SlowQueryLog::Open(std::move(log)));
    slow_queries_ = &obs::MetricsRegistry::Default().GetCounter(
        "atis_server_slow_queries_total",
        "Queries at or over the slow-query threshold");
  }
  if (options_.obs.enable_slo) {
    slo_ = std::make_unique<obs::SloWindows>();
  }

  for (size_t w = 0; w < options_.num_workers; ++w) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(options_.breaker));
  }
  // Version 1 (MetricState's default): the initial metric. Every worker
  // replica starts caught up to it.
  head_ = std::move(initial);
  published_version_.store(1, std::memory_order_release);
  obs::MetricsRegistry::Default()
      .GetGauge("atis_snapshot_version",
                "Currently published metric version (1 at construction)")
      .Set(1.0);
  replica_version_.assign(options_.num_workers, 1);
  pinned_version_.assign(options_.num_workers, 0);
  worker_overlay_.assign(options_.num_workers, head_->overlay);
  worker_estimator_.assign(options_.num_workers, head_->estimator);
  if (options_.max_batch > 1 && head_->snapshot != nullptr) {
    regions_ = std::make_unique<RegionIndex>(*head_->snapshot,
                                             options_.batch_region_order);
  }

  // Resilience knobs go live only after every replica (and the landmark
  // table), or the partitioned store, loaded cleanly — construction
  // itself never draws a fault.
  pool_->SetRetryPolicy(options_.retry);
  disk_.SetFaultProfile(options_.fault_profile);

  workers_.reserve(options_.num_workers);
  for (size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  return Status::OK();
}

RouteServer::~RouteServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

Result<std::vector<RouteResponse>> RouteServer::ServeBatch(
    const std::vector<RouteQuery>& queries) {
  ATIS_RETURN_NOT_OK(init_status_);
  std::vector<RouteResponse> responses(queries.size());
  if (queries.empty()) return responses;

  // Admission control: a bounded server accepts one batch's worth of work
  // per worker plus a fixed queue; the rest is shed immediately rather
  // than queued behind a saturated pool (load shedding beats unbounded
  // latency under overload).
  size_t admitted = queries.size();
  if (options_.max_queue_depth > 0) {
    admitted = std::min(queries.size(),
                        num_workers() + options_.max_queue_depth);
  }
  for (size_t i = admitted; i < queries.size(); ++i) {
    responses[i].query_index = i;
    responses[i].served_via = ServedVia::kNone;
    responses[i].status = Status::ResourceExhausted(
        "route server saturated: query shed by admission control");
    admission_shed_->Increment();
    // Shed queries count against availability: the traveller asked and got
    // nothing, however deliberate the refusal.
    if (slo_) {
      slo_->Record({.latency_seconds = 0.0, .ok = false, .degraded = false,
                    .shed = true});
    }
  }

  if (admitted == 0) return responses;

  // Hand the admitted prefix to the shared queue and block until every
  // query of THIS call has an answer. The call's completion state lives on
  // this stack frame; workers hold pointers to it only while the frame is
  // pinned here.
  ServeCall call;
  {
    std::lock_guard<std::mutex> lock(mu_);
    call.remaining = admitted;
    for (size_t i = 0; i < admitted; ++i) {
      WorkItem item;
      item.query = &queries[i];
      item.out = &responses;
      item.index = i;
      item.region =
          regions_ != nullptr ? regions_->RegionOf(queries[i].source) : 0;
      item.call = &call;
      pending_.push_back(item);
    }
  }
  work_cv_.notify_all();

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return call.remaining == 0; });
  }
  return responses;
}

bool RouteServer::ClaimBatch(std::unique_lock<std::mutex>& lock,
                             std::vector<WorkItem>* claimed,
                             uint64_t* batch_id) {
  work_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
  if (stop_) return false;

  // FIFO seed, then every pending query sharing its region, newest last —
  // region grouping reorders across dispatch calls, which is exactly the
  // locality win, while the FIFO seed bounds any query's queue delay.
  claimed->push_back(pending_.front());
  pending_.pop_front();
  const uint64_t region = claimed->front().region;
  const size_t max_batch = std::max<size_t>(1, options_.max_batch);
  for (auto it = pending_.begin();
       it != pending_.end() && claimed->size() < max_batch;) {
    if (it->region == region) {
      claimed->push_back(*it);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  *batch_id = max_batch > 1 ? ++next_batch_id_ : 0;
  return true;
}

void RouteServer::WorkerLoop(size_t worker_id) {
  // Per-worker series are resolved once; the references stay valid for the
  // registry's lifetime.
  auto& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"worker", std::to_string(worker_id)}};
  obs::Counter& served =
      reg.GetCounter("atis_server_queries_total",
                     "Route queries served by the worker pool", labels);
  obs::Counter& failed =
      reg.GetCounter("atis_server_query_failures_total",
                     "Route queries that returned an error", labels);
  obs::Histogram& latency = reg.GetHistogram(
      "atis_server_query_latency_seconds",
      "Per-query wall time inside a worker",
      obs::Histogram::LatencyBounds(), labels);

  while (true) {
    std::vector<WorkItem> claimed;
    uint64_t batch_id = 0;
    std::shared_ptr<const MetricState> pinned;
    std::vector<EdgeCostUpdate> todo;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!ClaimBatch(lock, &claimed, &batch_id)) return;
      // Pin the published metric for the whole batch, and collect the
      // dirty edges this replica is behind on — only up to the pinned
      // version, so the replica never runs ahead of what it reports.
      pinned = head_;
      pinned_version_[worker_id] = pinned->version;
      const uint64_t have = replica_version_[worker_id];
      if (have < pinned->version) {
        for (const auto& [key, e] : dirty_edges_) {
          if (e.version > have && e.version <= pinned->version) {
            todo.push_back(
                {static_cast<graph::NodeId>(key >> 32),
                 static_cast<graph::NodeId>(key & 0xffffffffu), e.cost});
          }
        }
      }
    }

    // Catch the private replica up outside the lock. On failure the
    // replica stays behind (retried at the next claim) and this batch
    // serves exact-but-degraded answers from the pinned snapshot.
    Status replica_health = Status::OK();
    if (!todo.empty() || pinned->overlay != worker_overlay_[worker_id] ||
        pinned->estimator != worker_estimator_[worker_id]) {
      replica_health = CatchUpReplica(worker_id, *pinned, todo);
    }

    // Singleflight plan: the first occurrence of each (source,
    // destination, algorithm, version) key computes; duplicates copy.
    std::vector<CoalesceKey> keys;
    keys.reserve(claimed.size());
    for (const WorkItem& item : claimed) {
      keys.push_back(CoalesceKey{item.query->source,
                                 item.query->destination,
                                 item.query->algorithm,
                                 item.query->version});
    }
    const std::vector<size_t> leaders = PlanCoalescing(keys);

    // Execute the batch sequentially through one shared context. With
    // batching off (batch_id == 0) the context stays unused and the loop
    // degenerates to the serial one-query-at-a-time path.
    BatchContext ctx(batch_id);
    BatchContext* ctx_ptr = batch_id != 0 ? &ctx : nullptr;
    std::vector<RouteResponse> resps(claimed.size());
    for (size_t i = 0; i < claimed.size(); ++i) {
      // leaders[i] <= i, so a follower's leader has already run.
      resps[i] = leaders[i] == i
                     ? RunOne(worker_id, claimed[i].index,
                              *claimed[i].query, ctx_ptr, batch_id,
                              *pinned, replica_health)
                     : RunCoalesced(worker_id, claimed[i].index,
                                    *claimed[i].query, resps[leaders[i]],
                                    batch_id);
      served.Increment();
      if (!resps[i].status.ok()) failed.Increment();
      latency.Observe(resps[i].latency_seconds);
    }

    if (batch_id != 0) {
      batch_batches_->Increment();
      batch_members_->Increment(claimed.size());
      batch_adjacency_fetches_->Increment(ctx.stats().adjacency_fetches);
      batch_shared_hits_->Increment(ctx.stats().shared_adjacency_hits);
      batches_executed_.fetch_add(1, std::memory_order_relaxed);
      batch_members_executed_.fetch_add(claimed.size(),
                                        std::memory_order_relaxed);
      batch_fetches_.fetch_add(ctx.stats().adjacency_fetches,
                               std::memory_order_relaxed);
      batch_shared_.fetch_add(ctx.stats().shared_adjacency_hits,
                              std::memory_order_relaxed);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < claimed.size(); ++i) {
        (*claimed[i].out)[claimed[i].index] = std::move(resps[i]);
        --claimed[i].call->remaining;
      }
      // Unpin under mu_: until the writer sees the pin gone it keeps the
      // version retired or at the head, so this is never the last
      // reference.
      pinned_version_[worker_id] = 0;
      pinned.reset();
    }
    done_cv_.notify_all();
  }
}

Status RouteServer::CatchUpReplica(size_t worker_id,
                                   const MetricState& pinned,
                                   std::span<const EdgeCostUpdate> todo) {
  // Applying latest-cost-per-edge is idempotent, so a partial failure
  // here is safe: replica_version_ only advances on full success, and the
  // next claim re-applies the whole remaining dirty set. The pointer swaps
  // drop this replica's old version's overlay and estimator, which the
  // writer still holds while replica_version_ names that version.
  for (const EdgeCostUpdate& e : todo) {
    ATIS_RETURN_NOT_OK(stores_[worker_id]->UpdateEdgeCost(e.u, e.v, e.cost));
  }
  if (pinned.overlay != worker_overlay_[worker_id]) {
    ATIS_RETURN_NOT_OK(engines_[worker_id]->EnableOverlay(pinned.overlay));
    worker_overlay_[worker_id] = pinned.overlay;
  }
  if (pinned.estimator != worker_estimator_[worker_id]) {
    ATIS_RETURN_NOT_OK(
        engines_[worker_id]->EnableLandmarks(pinned.estimator));
    worker_estimator_[worker_id] = pinned.estimator;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    replica_version_[worker_id] = pinned.version;
  }
  worker_catchups_.fetch_add(1, std::memory_order_relaxed);
  snapshot_catchups_metric_->Increment();
  return Status::OK();
}

Result<PathResult> RouteServer::RunPartitioned(const RouteQuery& q,
                                               const Deadline& deadline) {
  const bool stitched = q.algorithm == Algorithm::kAStar &&
                        q.version == AStarVersion::kV5;
  if (!stitched && q.algorithm != Algorithm::kDijkstra) {
    return Status::InvalidArgument(
        "a partitioned store serves A* v5 (stitched) and Dijkstra (flat) "
        "only");
  }
  graph::PartitionedGraphStore::QueryStats stats;
  auto route =
      stitched ? partitioned_->StitchedDistance(q.source, q.destination,
                                                &stats, deadline)
               : partitioned_->GlobalDijkstra(q.source, q.destination,
                                              &stats, deadline);
  partition_queries_->Increment();
  if (stats.cross_partition) partition_cross_->Increment();
  partition_settled_store_->Increment(stats.settled_source +
                                      stats.settled_target);
  partition_settled_overlay_->Increment(stats.settled_overlay);
  if (!route.ok()) return route.status();
  PathResult result;
  result.found = route->found;
  result.cost = route->cost;
  result.stats.nodes_expanded =
      stats.settled_source + stats.settled_overlay + stats.settled_target;
  return result;
}

RouteResponse RouteServer::RunCoalesced(size_t worker_id,
                                        size_t query_index,
                                        const RouteQuery& q,
                                        const RouteResponse& leader,
                                        uint64_t batch_id) {
  const auto started = std::chrono::steady_clock::now();
  RouteResponse resp;
  resp.query_index = query_index;
  resp.worker_id = static_cast<int>(worker_id);
  resp.batch_id = batch_id;
  resp.coalesced = true;
  // The leader's answer, whatever its provenance — including a failure:
  // an identical query asked at the same instant fails the same way.
  resp.status = leader.status;
  resp.result = leader.result;
  resp.degraded = leader.degraded;
  resp.degraded_cause = leader.degraded_cause;
  resp.metric_version = leader.metric_version;
  resp.served_via =
      leader.status.ok() ? ServedVia::kCoalesced : ServedVia::kNone;
  // No search ran and no cache lookup happened for this member: io stays
  // zero and cache hit/miss accounting belongs to the leader alone.
  resp.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  batch_coalesced_->Increment();
  batch_coalesced_served_.fetch_add(1, std::memory_order_relaxed);

  if (slow_log_ != nullptr) {
    obs::SlowQueryLog::Record rec;
    rec.source = q.source;
    rec.destination = q.destination;
    rec.algorithm = std::string(AlgorithmName(q.algorithm));
    rec.latency_ms = resp.latency_seconds * 1000.0;
    rec.blocks_read = 0;
    rec.cache_hit = false;
    rec.degraded = resp.degraded;
    rec.served_via = ServedViaName(resp.served_via);
    rec.worker_id = resp.worker_id;
    rec.batch_id = batch_id;
    rec.coalesced = true;
    if (!resp.status.ok()) rec.status = resp.status.ToString();
    slow_log_->MaybeRecord(rec,
                           /*force=*/resp.degraded || !resp.status.ok());
  }
  if (slo_) {
    slo_->Record({.latency_seconds = resp.latency_seconds,
                  .ok = resp.status.ok(),
                  .degraded = resp.degraded,
                  .shed = false});
  }
  return resp;
}

Status RouteServer::UpdateEdgeCost(graph::NodeId u, graph::NodeId v,
                                   double cost) {
  const EdgeCostUpdate one{u, v, cost};
  return ApplyUpdates({&one, 1});
}

Status RouteServer::ApplyUpdates(std::span<const EdgeCostUpdate> updates) {
  ATIS_RETURN_NOT_OK(init_status_);
  if (partitioned_ != nullptr) {
    return Status::FailedPrecondition(
        "RouteServer: the partitioned store takes no traffic updates");
  }
  if (updates.empty()) return Status::OK();

  // Writers serialize among themselves; readers are never touched.
  std::lock_guard<std::mutex> writer(update_mu_);
  ATIS_RETURN_NOT_OK(write_path_status_);
  auto stage_started = std::chrono::steady_clock::now();

  // Validate the whole batch against the writer's view before any
  // durable or in-memory effect: an invalid batch is refused whole.
  // Compare float-rounded costs (the metric searches actually see) so an
  // update that rounds to a no-op or pure increase is classified by its
  // served effect.
  bool any_decrease = false;
  for (const EdgeCostUpdate& e : updates) {
    if (!(e.cost >= 0.0)) {
      return Status::InvalidArgument("negative edge cost in update batch");
    }
    ATIS_ASSIGN_OR_RETURN(const double prior,
                          write_graph_.EdgeCost(e.u, e.v));
    if (static_cast<double>(static_cast<float>(e.cost)) < prior) {
      any_decrease = true;
    }
  }

  // Commit point: the batch is durable before anything serves it. A
  // failed commit applies nothing — the caller may retry and the served
  // metric is still exactly the last acknowledged state.
  const uint64_t seq = last_committed_seq_ + 1;
  if (wal_ != nullptr) {
    const uint64_t bytes_before = wal_->bytes_appended();
    if (Status st = wal_->Append(updates, seq); !st.ok()) {
      wal_append_failures_.fetch_add(1, std::memory_order_relaxed);
      wal_append_failures_metric_->Increment();
      return st;
    }
    wal_appends_metric_->Increment();
    wal_records_metric_->Increment(updates.size());
    wal_bytes_metric_->Increment(wal_->bytes_appended() - bytes_before);
    ObserveStage(kStageWal, &stage_started);
  }
  last_committed_seq_ = seq;

  // Past the commit point every fallible step mutates writer state
  // (write_graph_, overlay, landmarks); none reads storage, and for a
  // validated batch none fails. Should one fail, it would leave that
  // state half-applied with no batch in the dirty set, and the NEXT
  // successful publish would snapshot the half-applied graph while
  // worker replicas never catch up — served answers would silently
  // diverge from the published snapshot, overlay, and WAL. So a
  // post-commit build failure poisons the write path instead: readers
  // keep serving the last fully-published version (still internally
  // consistent), further updates are refused with the poison status, and
  // a restart replays the WAL into a consistent metric.
  if (Status st = PublishBatchLocked(updates, any_decrease, stage_started);
      !st.ok()) {
    write_path_status_ = Status::Unavailable(
        "write path poisoned by a post-commit build failure: " +
        st.ToString());
    return st;
  }

  if (wal_ != nullptr && options_.wal.checkpoint_every > 0 &&
      ++batches_since_checkpoint_ >= options_.wal.checkpoint_every) {
    ATIS_RETURN_NOT_OK(WriteCheckpoint(seq));
    batches_since_checkpoint_ = 0;
  }
  return Status::OK();
}

Status RouteServer::PublishBatchLocked(
    std::span<const EdgeCostUpdate> updates, bool any_decrease,
    std::chrono::steady_clock::time_point started) {
  std::shared_ptr<const MetricState> prev;
  {
    std::lock_guard<std::mutex> lock(mu_);
    prev = head_;
  }
  // Build version N+1 off to the side: the writer's graphs and the
  // landmark repair's pending list first, then one immutable snapshot
  // copy, which the overlay re-customization reads as its metric.
  const uint64_t new_version =
      published_version_.load(std::memory_order_relaxed) + 1;
  const bool landmarks = prev->landmarks != nullptr;
  if (landmarks && reverse_graph_.num_nodes() == 0) {
    reverse_graph_ = graph::ReverseOf(write_graph_);
  }
  for (const EdgeCostUpdate& e : updates) {
    const double cost = static_cast<float>(e.cost);
    if (landmarks) {
      if (landmark_pending_keys_.insert(EdgeKey(e.u, e.v)).second) {
        ATIS_ASSIGN_OR_RETURN(const double old,
                              write_graph_.EdgeCost(e.u, e.v));
        landmark_pending_.push_back({e.u, e.v, old});
      }
      ATIS_RETURN_NOT_OK(reverse_graph_.SetEdgeCost(e.v, e.u, cost));
    }
    ATIS_RETURN_NOT_OK(write_graph_.SetEdgeCost(e.u, e.v, cost));
  }
  ObserveStage(kStageApply, &started);
  auto next = std::make_shared<MetricState>();
  next->version = new_version;
  next->snapshot = std::make_shared<const graph::Graph>(write_graph_);
  ObserveStage(kStageSnapshot, &started);

  if (prev->overlay != nullptr) {
    // One re-customization for the whole batch, deduplicated by cell.
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
    edges.reserve(updates.size());
    for (const EdgeCostUpdate& e : updates) edges.push_back({e.u, e.v});
    size_t cells_changed = 0;
    ATIS_ASSIGN_OR_RETURN(
        auto customization,
        RecustomizeForEdges(*prev->overlay->topology,
                            *prev->overlay->customization, edges,
                            *next->snapshot, &cells_changed, new_version));
    next->overlay = std::make_shared<const OverlayIndex>(
        OverlayIndex{prev->overlay->topology, std::move(customization)});
    overlay_cells_recustomized_.fetch_add(cells_changed,
                                          std::memory_order_relaxed);
    ObserveStage(kStageOverlay, &started);
  }
  next->landmarks = prev->landmarks;
  next->estimator = prev->estimator;
  if (any_decrease && landmarks) {
    // A lowered cost breaks the ALT lower-bound proof; repair the distance
    // columns for the same landmark placement, pending increases included,
    // so Version 4 stays exact under live traffic.
    ATIS_ASSIGN_OR_RETURN(LandmarkSet repaired,
                          RepairLandmarks(*prev->landmarks, write_graph_,
                                          reverse_graph_, landmark_pending_));
    landmark_pending_.clear();
    landmark_pending_keys_.clear();
    next->landmarks = std::make_shared<const LandmarkSet>(std::move(repaired));
    next->estimator = MakeLandmarkEstimator(next->landmarks);
    landmark_revalidations_.fetch_add(1, std::memory_order_relaxed);
    snapshot_revalidations_metric_->Increment();
    ObserveStage(kStageLandmarks, &started);
  }

  // Publish: one pointer swap. Record the batch in the dirty set for
  // lazy replica catch-up, and GC entries every replica has applied.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const EdgeCostUpdate& e : updates) {
      dirty_edges_[EdgeKey(e.u, e.v)] = DirtyEdge{e.cost, new_version};
    }
    uint64_t min_version = new_version;
    for (const uint64_t v : replica_version_) {
      min_version = std::min(min_version, v);
    }
    std::erase_if(dirty_edges_, [&](const auto& kv) {
      return kv.second.version <= min_version;
    });
    head_ = std::move(next);
    published_version_.store(new_version, std::memory_order_release);
  }
  snapshot_published_metric_->Increment();
  obs::MetricsRegistry::Default()
      .GetGauge("atis_snapshot_version",
                "Currently published metric version (1 at construction)")
      .Set(static_cast<double>(new_version));

  // Cache invalidation AFTER publication: a query still pinned at the
  // old version can no longer insert past this point (its version guard
  // fails), so the invalidation cannot be raced stale.
  if (cache_) cache_->BumpEpoch();
  cache_version_.store(new_version, std::memory_order_release);
  traffic_updates_applied_.fetch_add(updates.size(),
                                     std::memory_order_relaxed);
  traffic_update_batches_.fetch_add(1, std::memory_order_relaxed);

  // The superseded head joins the retired list; this writer, not a
  // worker, frees whatever no worker needs any more.
  retired_.push_back(std::move(prev));
  ReleaseRetiredLocked();
  ObserveStage(kStagePublish, &started);
  return Status::OK();
}

void RouteServer::ReleaseRetiredLocked() {
  std::vector<std::shared_ptr<const MetricState>> released;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto in_use = [&](const std::shared_ptr<const MetricState>& m) {
      return std::ranges::find(replica_version_, m->version) !=
                 replica_version_.end() ||
             std::ranges::find(pinned_version_, m->version) !=
                 pinned_version_.end();
    };
    const auto unused =
        std::stable_partition(retired_.begin(), retired_.end(), in_use);
    released.assign(std::make_move_iterator(unused),
                    std::make_move_iterator(retired_.end()));
    retired_.erase(unused, retired_.end());
  }
  // `released` frees its versions here, outside mu_.
}

void RouteServer::ObserveStage(size_t stage,
                               std::chrono::steady_clock::time_point* since) {
  const auto now = std::chrono::steady_clock::now();
  update_stage_[stage]->Observe(
      std::chrono::duration<double>(now - *since).count());
  *since = now;
}

Status RouteServer::RecoverFromWal(graph::Graph* base) {
  namespace fs = std::filesystem;
  const auto started = std::chrono::steady_clock::now();
  std::error_code ec;
  fs::create_directories(options_.wal.dir, ec);
  if (ec) {
    return Status::Unavailable("cannot create WAL directory " +
                               options_.wal.dir + ": " + ec.message());
  }

  // Newest checkpoint wins; older ones are superseded garbage. Only
  // names matching checkpoint-<digits>.atisg exactly count — a crash
  // between WriteFileAtomic's tmp write and its rename leaves a
  // 'checkpoint-<seq>.atisg.tmp.<pid>' sibling behind, and trusting it
  // would load a possibly-partial file over a valid older checkpoint.
  // Stale tmp files are unlinked here so they cannot pile up.
  const auto parse_checkpoint_seq =
      [](const std::string& name) -> std::pair<bool, uint64_t> {
    constexpr std::string_view kPrefix = "checkpoint-";
    constexpr std::string_view kSuffix = ".atisg";
    if (name.size() <= kPrefix.size() + kSuffix.size()) return {false, 0};
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) return {false, 0};
    if (name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      return {false, 0};
    }
    uint64_t seq = 0;
    for (size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') return {false, 0};
      seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    return {true, seq};
  };
  uint64_t ckpt_seq = 0;
  std::string ckpt_path;
  for (const auto& entry : fs::directory_iterator(options_.wal.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) {
      fs::remove(entry.path(), ec);
      continue;
    }
    const auto [is_checkpoint, seq] = parse_checkpoint_seq(name);
    if (!is_checkpoint) continue;
    if (seq > ckpt_seq) {
      ckpt_seq = seq;
      ckpt_path = entry.path().string();
    }
  }
  if (!ckpt_path.empty()) {
    ATIS_ASSIGN_OR_RETURN(*base, graph::LoadGraphFile(ckpt_path));
  }

  // Replay every committed frame past the checkpoint onto the base
  // metric. Raw costs: the stores round them at load exactly as the live
  // update path rounds at apply.
  const std::string wal_path = options_.wal.dir + "/wal.atisw";
  ATIS_ASSIGN_OR_RETURN(
      recovery_,
      UpdateLog::Replay(
          wal_path, &disk_, ckpt_seq,
          [&](uint64_t, std::span<const EdgeCostUpdate> batch) -> Status {
            for (const EdgeCostUpdate& e : batch) {
              if (!(e.cost >= 0.0)) {
                return Status::Corruption("negative cost in WAL frame");
              }
              ATIS_RETURN_NOT_OK(base->SetEdgeCost(e.u, e.v, e.cost));
            }
            return Status::OK();
          }));

  UpdateLog::Options log;
  log.path = wal_path;
  log.disk = &disk_;
  log.sync_on_commit = options_.wal.sync_on_commit;
  ATIS_ASSIGN_OR_RETURN(wal_, UpdateLog::Open(std::move(log)));
  last_committed_seq_ = std::max(ckpt_seq, wal_->last_seq());
  recovery_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  return Status::OK();
}

Status RouteServer::WriteCheckpoint(uint64_t seq) {
  namespace fs = std::filesystem;
  const std::string name = "checkpoint-" + std::to_string(seq) + ".atisg";
  // Crash-safe ordering: the checkpoint lands atomically (tmp + rename)
  // BEFORE the WAL resets. A crash between the two replays frames at or
  // below the checkpoint's seq — which recovery skips — never the
  // reverse, where truncated frames would be lost.
  ATIS_RETURN_NOT_OK(
      graph::SaveGraphFile(write_graph_, options_.wal.dir + "/" + name));
  ATIS_RETURN_NOT_OK(wal_->Reset());
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.wal.dir, ec)) {
    const std::string other = entry.path().filename().string();
    if (other.rfind("checkpoint-", 0) == 0 && other != name) {
      fs::remove(entry.path(), ec);
    }
  }
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  wal_checkpoints_metric_->Increment();
  return Status::OK();
}

bool RouteServer::ServeDegraded(const RouteQuery& q,
                                const RouteCache::Key& key, Status cause,
                                const MetricState& pinned,
                                RouteResponse* resp) {
  // Fallback 1: a cached route, even one invalidated by a traffic update.
  // A slightly-stale route is still drivable; the degraded flag tells the
  // traveller it predates the latest costs.
  if (cache_) {
    RouteCache::StaleLookupResult stale = cache_->LookupAllowStale(key);
    if (stale.result.has_value()) {
      resp->result = *std::move(stale.result);
      resp->degraded = true;
      resp->served_via = ServedVia::kStaleCache;
      resp->degraded_cause = std::move(cause);
      resp->status = Status::OK();
      degraded_stale_->Increment();
      return true;
    }
  }
  // Fallback 2: exact in-memory Dijkstra on the pinned metric snapshot.
  // No storage I/O, so neither faults nor a quarantined replica can touch
  // it; Dijkstra regardless of the requested algorithm because it is
  // optimal, estimator-free, and microseconds at ATIS map scale. The
  // partitioned backend keeps no snapshot: a continent map is not held
  // in memory.
  if (pinned.snapshot == nullptr) return false;
  PathResult mem =
      DijkstraSearch(*pinned.snapshot, q.source, q.destination);
  resp->result = std::move(mem);
  resp->degraded = true;
  resp->served_via = ServedVia::kSnapshot;
  resp->degraded_cause = std::move(cause);
  resp->status = Status::OK();
  degraded_snapshot_->Increment();
  return true;
}

std::shared_ptr<const OverlayIndex> RouteServer::overlay_index() {
  std::lock_guard<std::mutex> lock(mu_);
  return head_ != nullptr ? head_->overlay : nullptr;
}

uint64_t RouteServer::overlay_metric_version() {
  std::lock_guard<std::mutex> lock(mu_);
  return head_ != nullptr && head_->overlay != nullptr
             ? head_->overlay->customization->metric_version()
             : 0;
}

std::shared_ptr<const graph::Graph> RouteServer::snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  return head_ != nullptr ? head_->snapshot : nullptr;
}

std::shared_ptr<const LandmarkSet> RouteServer::landmark_set() {
  std::lock_guard<std::mutex> lock(mu_);
  return head_ != nullptr ? head_->landmarks : nullptr;
}

RouteServer::IngestStats RouteServer::ingest_stats() {
  IngestStats s;
  s.updates_applied =
      traffic_updates_applied_.load(std::memory_order_relaxed);
  s.update_batches =
      traffic_update_batches_.load(std::memory_order_relaxed);
  s.worker_catchups = worker_catchups_.load(std::memory_order_relaxed);
  s.landmark_revalidations =
      landmark_revalidations_.load(std::memory_order_relaxed);
  s.append_failures = wal_append_failures_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_written_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> writer(update_mu_);
  ReleaseRetiredLocked();
  s.retained_versions = retired_.size();
  if (wal_ != nullptr) {
    s.wal_enabled = true;
    s.last_seq = last_committed_seq_;
    s.appended_batches = wal_->appended_batches();
    s.appended_records = wal_->appended_records();
    s.bytes_appended = wal_->bytes_appended();
    s.recovered_batches = recovery_.batches;
    s.recovered_records = recovery_.records;
    s.recovery_torn_tail = recovery_.torn_tail;
    s.recovery_seconds = recovery_seconds_;
  }
  return s;
}

Status RouteServer::write_path_status() {
  std::lock_guard<std::mutex> writer(update_mu_);
  return write_path_status_;
}

void RouteServer::RefreshObsGauges() {
  auto& reg = obs::MetricsRegistry::Default();
  reg.GetGauge("atis_server_uptime_seconds",
               "Seconds since the route server finished construction")
      .Set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started_)
               .count());
  if (slo_) slo_->PublishGauges(reg);
}

std::string RouteServer::StatuszJson() {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(6);
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  size_t queue_depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_depth = pending_.size();
  }
  out << "{\"uptime_seconds\":" << uptime
      << ",\"num_workers\":" << num_workers()
      << ",\"queue_depth\":" << queue_depth << ",\"build\":{\"layout\":\""
      << graph::StoreLayoutName(options_.layout)
      << "\",\"num_landmarks\":" << options_.num_landmarks
      << ",\"default_deadline_ms\":" << options_.default_deadline_ms
      << ",\"degraded_enabled\":"
      << (options_.enable_degraded ? "true" : "false") << "}";

  {
    const uint64_t batches =
        batches_executed_.load(std::memory_order_relaxed);
    const uint64_t members =
        batch_members_executed_.load(std::memory_order_relaxed);
    const uint64_t fetches = batch_fetches_.load(std::memory_order_relaxed);
    const uint64_t shared = batch_shared_.load(std::memory_order_relaxed);
    const uint64_t lookups = fetches + shared;
    out << ",\"batching\":{\"enabled\":"
        << (options_.max_batch > 1 ? "true" : "false")
        << ",\"max_batch\":" << options_.max_batch
        << ",\"region_order\":" << options_.batch_region_order
        << ",\"batches\":" << batches << ",\"members\":" << members
        << ",\"avg_occupancy\":"
        << (batches > 0 ? static_cast<double>(members) /
                              static_cast<double>(batches)
                        : 0.0)
        << ",\"adjacency_fetches\":" << fetches
        << ",\"shared_adjacency_hits\":" << shared
        << ",\"shared_hit_ratio\":"
        << (lookups > 0 ? static_cast<double>(shared) /
                              static_cast<double>(lookups)
                        : 0.0)
        << ",\"coalesced\":"
        << batch_coalesced_served_.load(std::memory_order_relaxed) << "}";
  }

  out << ",\"workers\":[";
  for (size_t w = 0; w < breakers_.size(); ++w) {
    const CircuitBreaker::Stats bs = breakers_[w]->stats();
    out << (w == 0 ? "" : ",") << "{\"id\":" << w << ",\"breaker\":{"
        << "\"state\":\"" << CircuitBreakerStateName(breakers_[w]->state())
        << "\",\"opened\":" << bs.opened << ",\"probes\":" << bs.probes
        << ",\"rejected\":" << bs.rejected << "}}";
  }
  out << "]";

  if (cache_) {
    const RouteCache::Stats cs = cache_->stats();
    const uint64_t lookups = cs.hits + cs.misses;
    out << ",\"cache\":{\"size\":" << cache_->size()
        << ",\"epoch\":" << cache_->epoch() << ",\"hits\":" << cs.hits
        << ",\"misses\":" << cs.misses << ",\"hit_ratio\":"
        << (lookups > 0 ? static_cast<double>(cs.hits) /
                              static_cast<double>(lookups)
                        : 0.0)
        << ",\"stale_evictions\":" << cs.stale_evictions
        << ",\"stale_serves\":" << cs.stale_serves << "}";
  }

  if (partitioned_ != nullptr) {
    out << ",\"partitioned\":{\"partitions\":"
        << partitioned_->num_partitions()
        << ",\"boundary_nodes\":" << partitioned_->num_boundary_nodes()
        << ",\"nodes\":" << partitioned_->num_nodes() << "}";
  }

  {
    std::shared_ptr<const OverlayIndex> ov = overlay_index();
    if (ov != nullptr) {
      out << ",\"overlay\":{\"cell_order\":" << options_.overlay_cell_order
          << ",\"cells\":" << ov->topology->num_cells()
          << ",\"boundary_nodes\":" << ov->topology->num_boundary_nodes()
          << ",\"metric_version\":"
          << ov->customization->metric_version()
          << ",\"traffic_updates\":"
          << traffic_updates_applied_.load(std::memory_order_relaxed)
          << ",\"cells_recustomized\":"
          << overlay_cells_recustomized_.load(std::memory_order_relaxed)
          << "}";
    }
  }

  {
    const IngestStats is = ingest_stats();
    out << ",\"ingestion\":{\"published_version\":" << published_version()
        << ",\"update_batches\":" << is.update_batches
        << ",\"updates_applied\":" << is.updates_applied
        << ",\"worker_catchups\":" << is.worker_catchups
        << ",\"landmark_revalidations\":" << is.landmark_revalidations
        << ",\"retained_versions\":" << is.retained_versions
        << ",\"wal\":{\"enabled\":" << (is.wal_enabled ? "true" : "false");
    if (is.wal_enabled) {
      out << ",\"last_seq\":" << is.last_seq
          << ",\"appended_batches\":" << is.appended_batches
          << ",\"appended_records\":" << is.appended_records
          << ",\"bytes_appended\":" << is.bytes_appended
          << ",\"append_failures\":" << is.append_failures
          << ",\"checkpoints\":" << is.checkpoints
          << ",\"recovery\":{\"batches\":" << is.recovered_batches
          << ",\"records\":" << is.recovered_records
          << ",\"torn_tail\":"
          << (is.recovery_torn_tail ? "true" : "false")
          << ",\"seconds\":" << is.recovery_seconds << "}";
    }
    out << "}}";
  }

  const storage::BufferPoolStats ps = pool_->stats();
  const uint64_t accesses = ps.hits + ps.misses;
  out << ",\"buffer_pool\":{\"hits\":" << ps.hits
      << ",\"misses\":" << ps.misses << ",\"hit_ratio\":"
      << (accesses > 0
              ? static_cast<double>(ps.hits) / static_cast<double>(accesses)
              : 0.0)
      << ",\"evictions\":" << ps.evictions
      << ",\"read_retries\":" << ps.read_retries << "}";

  if (trace_ring_) {
    out << ",\"traces\":{\"directory\":\""
        << obs::EscapeJson(trace_ring_->directory())
        << "\",\"appended\":" << trace_ring_->appended()
        << ",\"capacity\":" << trace_ring_->capacity()
        << ",\"sample_every\":" << options_.obs.sample_every << "}";
  }
  if (slow_log_) {
    out << ",\"slow_query_log\":{\"path\":\""
        << obs::EscapeJson(slow_log_->path())
        << "\",\"threshold_ms\":" << slow_log_->threshold_ms()
        << ",\"records\":" << slow_log_->records_written() << "}";
  }
  if (slo_) {
    out << ",\"slo\":{\"availability_target\":"
        << slo_->availability_target() << ",\"windows\":[";
    bool first = true;
    for (const obs::SloWindows::Window& w : slo_->Snapshot()) {
      out << (first ? "" : ",") << "{\"window\":\"" << w.name
          << "\",\"total\":" << w.total << ",\"errors\":" << w.errors
          << ",\"degraded\":" << w.degraded << ",\"shed\":" << w.shed
          << ",\"qps\":" << w.qps << ",\"availability\":" << w.availability
          // An infinite burn (target == 1.0) has no JSON spelling; clamp.
          << ",\"burn_rate\":"
          << (std::isfinite(w.burn_rate) ? w.burn_rate : 1e12)
          << ",\"p50_ms\":" << w.p50_seconds * 1000.0
          << ",\"p95_ms\":" << w.p95_seconds * 1000.0
          << ",\"p99_ms\":" << w.p99_seconds * 1000.0 << "}";
      first = false;
    }
    out << "]}";
  }
  out << "}";
  return out.str();
}

RouteResponse RouteServer::RunOne(size_t worker_id, size_t query_index,
                                  const RouteQuery& q, BatchContext* batch,
                                  uint64_t batch_id,
                                  const MetricState& pinned,
                                  const Status& replica_health) {
  RouteResponse resp;
  resp.query_index = query_index;
  resp.worker_id = static_cast<int>(worker_id);
  resp.batch_id = batch_id;
  resp.metric_version = pinned.version;

  const auto started = std::chrono::steady_clock::now();
  const uint64_t deadline_ms =
      q.deadline_ms != 0 ? q.deadline_ms : options_.default_deadline_ms;
  const Deadline deadline =
      deadline_ms > 0 ? Deadline::AfterMillis(deadline_ms) : Deadline();

  // Mirror every block this thread touches into resp.io: exact per-query
  // accounting even though the disk (and its meter) are shared. The scope
  // covers the whole query so a sampled tracer reading &resp.io sees a
  // monotone per-thread counter and every span delta stays non-negative.
  storage::IoMeter::ScopedThreadCounters io_scope(&resp.io);

  // When sampling is configured every query runs traced — the span
  // bookkeeping is pointer bumps next to metered block reads — but only
  // head-sampled, slow, degraded, or errored trees reach the ring. (A
  // trace cannot be begun retroactively once the query turns out slow.)
  const bool head_sampled = sampler_ != nullptr && sampler_->Sample();
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::Tracer::InstallScope> install;
  obs::TraceSpan* root = nullptr;
  if (sampler_ != nullptr) {
    tracer = std::make_unique<obs::Tracer>(&resp.io);
    install = std::make_unique<obs::Tracer::InstallScope>(tracer.get());
    root = tracer->BeginSpan("query", "query");
    root->Tag("worker", std::to_string(worker_id));
    root->Tag("source", std::to_string(q.source));
    root->Tag("destination", std::to_string(q.destination));
    root->Tag("algorithm", std::string(AlgorithmName(q.algorithm)));
    if (batch_id != 0) {
      root->Tag("batch", std::to_string(batch_id));
      root->Tag("coalesced", "0");  // followers never reach RunOne
    }
  }

  const RouteCache::Key key{q.source, q.destination, q.algorithm, q.version};
  uint64_t observed_epoch = 0;
  bool answered_from_cache = false;
  bool answered_stale_replica = false;
  if (!replica_health.ok()) {
    // The replica could not catch up to the pinned version; its stored
    // metric is behind what this batch promised. Fall down the degraded
    // ladder — a stale cached route first, else the exact answer on the
    // pinned in-memory snapshot — but never an inconsistent metered run.
    if (options_.enable_degraded) {
      ServeDegraded(q, key, replica_health, pinned, &resp);
    } else {
      resp.result = DijkstraSearch(*pinned.snapshot, q.source, q.destination);
      resp.degraded = true;
      resp.served_via = ServedVia::kSnapshot;
      resp.degraded_cause = replica_health;
      degraded_snapshot_->Increment();
    }
    answered_stale_replica = true;
  }
  if (cache_ && !answered_stale_replica) {
    observed_epoch = cache_->epoch();
    // A cached route is exact at the pinned version only once that
    // version's invalidation has finished (the older routes it drops are
    // gone) and while no newer version has published (whose queries may
    // have cached routes on a metric this query must not see).
    // A degraded-capable server keeps stale entries around (miss, no
    // eviction): they are the first fallback when this recompute fails,
    // and a successful Insert overwrites them anyway.
    RouteCache::LookupResult cached;
    if (cache_version_.load(std::memory_order_acquire) == pinned.version) {
      cached = cache_->Lookup(key, /*evict_stale=*/!options_.enable_degraded);
    }
    if (cached.stale_evicted) cache_stale_->Increment();
    if (cached.result.has_value() &&
        published_version_.load(std::memory_order_acquire) ==
            pinned.version) {
      cache_hits_->Increment();
      resp.cache_hit = true;
      resp.served_via = ServedVia::kCache;
      resp.result = *std::move(cached.result);
      answered_from_cache = true;
    } else {
      cache_misses_->Increment();
    }
  }

  if (!answered_from_cache && !answered_stale_replica) {
    CircuitBreaker& breaker = *breakers_[worker_id];
    const bool admitted = breaker.AllowRequest();
    Result<PathResult> r = [&]() -> Result<PathResult> {
      if (!admitted) {
        return Status::Unavailable("replica quarantined by circuit breaker");
      }
      if (partitioned_ != nullptr) return RunPartitioned(q, deadline);
      DbSearchEngine& engine = *engines_[worker_id];
      switch (q.algorithm) {
        case Algorithm::kIterative:
          return engine.Iterative(q.source, q.destination, deadline, batch);
        case Algorithm::kDijkstra:
          return engine.Dijkstra(q.source, q.destination, deadline, batch);
        case Algorithm::kAStar:
          return engine.AStar(q.source, q.destination, q.version, deadline,
                              batch);
      }
      return Status::InvalidArgument("unknown algorithm");
    }();
    if (!admitted) {
      breaker_rejections_->Increment();
    } else if (r.ok()) {
      // Feed the breaker storage health only: faults extend the streak, a
      // completed search resets it, and a deadline expiry says nothing
      // about the replica (slow != broken), so it leaves the streak alone;
      // nor does a query the backend refuses (InvalidArgument).
      breaker.RecordSuccess();
    } else if (r.status().IsDeadlineExceeded()) {
      deadline_exceeded_->Increment();
    } else if (!r.status().IsInvalidArgument()) {
      if (breaker.RecordFailure()) breaker_opened_->Increment();
    }

    if (r.ok()) {
      resp.result = std::move(r).value();
      // Cache successful answers (including proven "no route"); the insert
      // is dropped inside the cache when a traffic update's epoch bump
      // raced this query, and skipped entirely when a newer metric version
      // published mid-query: an answer computed at version N must never
      // outlive version N+1's invalidation.
      if (cache_ &&
          pinned.version ==
              published_version_.load(std::memory_order_acquire)) {
        cache_->Insert(key, observed_epoch, resp.result);
      }
    } else if (!options_.enable_degraded ||
               !ServeDegraded(q, key, r.status(), pinned, &resp)) {
      resp.status = r.status();
      resp.served_via = ServedVia::kNone;
    }
  }
  resp.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  // Observability epilogue: classify the finished query, then persist /
  // log / record. File writes happen only for sampled or slow queries, so
  // the common path adds a histogram increment and a mutexed O(1) SLO add.
  if (root != nullptr) {
    root->Tag("served_via", ServedViaName(resp.served_via));
    if (!resp.status.ok()) root->Tag("error", resp.status.ToString());
    tracer->EndSpan(root);
    install.reset();  // uninstall before any further work on this thread
  }
  const double latency_ms = resp.latency_seconds * 1000.0;
  const bool slow =
      slow_log_ != nullptr && latency_ms >= slow_log_->threshold_ms();
  if (slow) slow_queries_->Increment();
  bool trace_persisted = false;
  if (tracer != nullptr &&
      (head_sampled || slow || resp.degraded || !resp.status.ok())) {
    std::string label = std::string(AlgorithmName(q.algorithm)) + " " +
                        std::to_string(q.source) + "->" +
                        std::to_string(q.destination) + " via " +
                        ServedViaName(resp.served_via);
    trace_persisted = trace_ring_->Append(*tracer, label).ok();
    if (trace_persisted) traces_sampled_->Increment();
  }
  if (slow_log_ != nullptr) {
    obs::SlowQueryLog::Record rec;
    rec.source = q.source;
    rec.destination = q.destination;
    rec.algorithm = std::string(AlgorithmName(q.algorithm));
    rec.latency_ms = latency_ms;
    rec.blocks_read = resp.io.blocks_read;
    rec.cache_hit = resp.cache_hit;
    rec.degraded = resp.degraded;
    rec.served_via = ServedViaName(resp.served_via);
    rec.has_deadline = deadline.active();
    if (rec.has_deadline) {
      rec.deadline_remaining_ms = deadline.remaining_seconds() * 1000.0;
    }
    rec.worker_id = resp.worker_id;
    rec.batch_id = batch_id;
    rec.coalesced = false;
    if (!resp.status.ok()) rec.status = resp.status.ToString();
    rec.sampled = trace_persisted;
    // Degraded / errored queries are logged regardless of latency — the
    // log is the serving-path incident record, not just a latency outlier
    // list.
    slow_log_->MaybeRecord(rec,
                           /*force=*/resp.degraded || !resp.status.ok());
  }
  if (slo_) {
    slo_->Record({.latency_seconds = resp.latency_seconds,
                  .ok = resp.status.ok(),
                  .degraded = resp.degraded,
                  .shed = false});
  }
  return resp;
}

}  // namespace atis::core
