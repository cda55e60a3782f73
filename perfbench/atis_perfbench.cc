// ATIS performance benchmark: runs one named workload against the route
// server for a fixed wall-clock window and prints one JSON result line.
//
//   atis_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>]
//
// Workloads (README.md in this directory says why each one exists):
//   paper_mix      the paper's algorithms (Iterative, Dijkstra, A* v1-v3)
//                  on the 20x20 grid, every trip 12 hops long;
//   serve_uniform  A* v4 on the Minneapolis-like map, uniform random pairs;
//   serve_hot      the same map; sources cluster in hot regions
//                  (bench/harness.h MakeSkewedQueries), so batching works;
//   live_traffic   A* v5 (overlay) on the same map; one operation in 20 is
//                  a traffic update committed through the fsync'd WAL.
//
// The simulated device latency is off, so latency and CPU time are the
// program's own; the paper's block cost (Table 4A units) comes from the
// exact per-query block counters and is reported apart from them. Timings
// are scaled by a host-speed probe (HostProbe) that runs only while the
// server is idle, so that interference from other work on a shared host
// cancels out. The map is fixed per workload; --seed drives every query
// and update stream. Answers are checked against an in-memory Dijkstra on
// the metric version they report.
//
// --trace 0 prints the end-to-end metrics (EndToEnd), --trace 1 the
// per-layer ones (PerLayer); BENCHMARK.json lists both.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/batch_engine.h"
#include "core/landmarks.h"
#include "core/memory_search.h"
#include "core/route_server.h"
#include "graph/grid_generator.h"
#include "graph/road_map_generator.h"
#include "harness.h"
#include "util/random.h"
#include "util/stats.h"

namespace atis::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using core::Algorithm;
using core::AStarVersion;
using NodePair = std::pair<graph::NodeId, graph::NodeId>;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "atis_perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(Result<T> r, const char* what) {
  if (!r.ok()) Fatal(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

// ---------------------------------------------------------------------------
// Host-speed probe
//
// A shared (virtualised) host lends its cores, caches and memory bandwidth
// to other tenants' work, which on a 4-vCPU Xeon slowed every instruction
// by up to ~40% for tens of seconds at a time. ProbeKernel times a fixed kernel written here -- page
// copies, hash-table probes and heap operations, the mix the engine runs,
// but none of the engine's code -- on every vCPU at once (HostProbe). It
// runs only while the server is idle: between set-ups, and at fixed pause
// points of the window where every client is parked (ClientGate), so the
// program's own threads and memory traffic cannot slow it. End-to-end
// timings are scaled by kProbeRefUs / (median burst time): a host slowdown
// cancels, while a change in the program's own work does not (README.md in
// this directory shows a control run with extra work in the engine).

/// Burst time of the probe kernel on a quiet development host (Intel Xeon,
/// 4 vCPUs); the unit the scaled timings are expressed in.
constexpr double kProbeRefUs = 40.0;

class ProbeKernel {
 public:
  ProbeKernel() : ring_(256 << 10), page_(4096) {
    for (size_t i = 0; i < ring_.size(); ++i) {
      ring_[i] = static_cast<uint8_t>(i * 131);
    }
    for (uint32_t i = 0; i < 16384; ++i) table_[i * 2654435761u] = i;
  }

  /// Runs `bursts` bursts back to back and appends each one's time in
  /// microseconds to `burst_us`.
  void Run(int bursts, std::vector<double>* burst_us) {
    for (int b = 0; b < bursts; ++b) {
      const auto t0 = Clock::now();
      for (int k = 0; k < 16; ++k) {
        std::memcpy(page_.data(), ring_.data() + offset_, page_.size());
        offset_ = (offset_ + 7 * page_.size()) % ring_.size();
        for (size_t j = 0; j < page_.size(); j += 64) sink_ += page_[j];
        for (int j = 0; j < 64; ++j) {
          key_ = key_ * 1103515245u + 12345u;
          auto it = table_.find((key_ % 16384) * 2654435761u);
          if (it != table_.end()) sink_ += it->second;
        }
        for (int j = 0; j < 32; ++j) {
          heap_.push_back(static_cast<double>((sink_ + j) % 1000));
          std::push_heap(heap_.begin(), heap_.end());
        }
        for (int j = 0; j < 32; ++j) {
          std::pop_heap(heap_.begin(), heap_.end());
          heap_.pop_back();
        }
      }
      burst_us->push_back(1e6 * SecondsSince(t0));
    }
  }

  uint64_t sink() const { return sink_; }

 private:
  std::vector<uint8_t> ring_;
  std::vector<uint8_t> page_;
  std::unordered_map<uint32_t, uint32_t> table_;
  std::vector<double> heap_;
  uint64_t sink_ = 0;
  uint32_t key_ = 1;
  size_t offset_ = 0;
};

/// One ProbeKernel per vCPU, run side by side. The workload's threads
/// spread over every vCPU, and so must the probe: one probe thread samples
/// only the core it happens to run on, whose neighbours' load differs
/// from the others'.
class HostProbe {
 public:
  HostProbe()
      : kernels_(std::clamp<size_t>(std::thread::hardware_concurrency(), 1,
                                    16)) {}

  /// Runs `bursts` bursts on every kernel at once and appends each burst's
  /// time in microseconds to `burst_us`. Returns the CPU seconds used.
  double Run(int bursts, std::vector<double>* burst_us) {
    std::vector<std::vector<double>> times(kernels_.size());
    std::vector<double> cpu_s(kernels_.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kernels_.size(); ++i) {
      threads.emplace_back([&, i] {
        const double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
        kernels_[i].Run(bursts, &times[i]);
        cpu_s[i] = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
      });
    }
    for (std::thread& t : threads) t.join();
    double cpu = 0.0;
    for (size_t i = 0; i < kernels_.size(); ++i) {
      burst_us->insert(burst_us->end(), times[i].begin(), times[i].end());
      cpu += cpu_s[i];
    }
    return cpu;
  }

  /// Sums the kernels' results; reading it keeps their work observable.
  uint64_t sink() const {
    uint64_t sum = 0;
    for (const ProbeKernel& k : kernels_) sum += k.sink();
    return sum;
  }

 private:
  std::vector<ProbeKernel> kernels_;
};

/// Pause points in the window: every kProbePeriodS the clients are parked
/// and, once the last in-flight operation has returned, the probe runs
/// kProbeBursts bursts on the idle server.
constexpr double kProbePeriodS = 0.5;
constexpr int kProbeBursts = 16;
/// Bursts after each set-up, while the new server is idle.
constexpr int kSetupProbeBursts = 8;

/// Parks the client threads at fixed points so that the probe runs while
/// no query or update is in flight.
class ClientGate {
 public:
  explicit ClientGate(size_t clients) : running_(clients) {}

  /// Client side, before each operation: waits out a pause in progress.
  void Pass() {
    if (!paused_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(mu_);
    if (!paused_.load()) return;
    --running_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !paused_.load(); });
    ++running_;
  }

  /// Client side, once, when the client stops.
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    cv_.notify_all();
  }

  /// Parks every client, runs `idle` once none is running, releases them.
  void WhileIdle(const std::function<void()>& idle) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      paused_.store(true, std::memory_order_release);
      cv_.wait(lock, [this] { return running_ == 0; });
    }
    idle();
    {
      std::lock_guard<std::mutex> lock(mu_);
      paused_.store(false, std::memory_order_release);
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> paused_{false};  // written under mu_
  size_t running_;                   // clients not parked; guarded by mu_
};

/// What the probe saw during the measured window.
struct ProbeLog {
  std::vector<double> burst_us;
  double idle_s = 0.0;  ///< wall time with every client parked
  double cpu_s = 0.0;   ///< CPU time the probe itself spent
};

// ---------------------------------------------------------------------------
// Inputs

/// Nodes with at least one out-edge. On both maps these are mutually
/// reachable, so any two distinct ones form an answerable query.
std::vector<graph::NodeId> RoutableNodes(const graph::Graph& g) {
  std::vector<graph::NodeId> nodes;
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    const auto id = static_cast<graph::NodeId>(u);
    if (g.OutDegree(id) > 0) nodes.push_back(id);
  }
  return nodes;
}

/// Uniformly random pair of distinct routable nodes.
NodePair UniformPair(const std::vector<graph::NodeId>& nodes, Rng& rng) {
  while (true) {
    const graph::NodeId s = nodes[rng.UniformInt(nodes.size())];
    const graph::NodeId d = nodes[rng.UniformInt(nodes.size())];
    if (s != d) return {s, d};
  }
}

constexpr int kGrid = 20;

/// A 12-hop trip on the kGrid x kGrid grid: a random source and the node
/// six rows and six columns away in a random diagonal direction. Every trip
/// has the same minimum-hop length, the paper's controlled path-length
/// setting (Table 6), so per-query work varies little between seeds.
NodePair GridTrip(Rng& rng) {
  constexpr int kHalf = 6;
  while (true) {
    const int r = static_cast<int>(rng.UniformInt(kGrid));
    const int c = static_cast<int>(rng.UniformInt(kGrid));
    const int r2 = r + (rng.UniformInt(2) != 0 ? kHalf : -kHalf);
    const int c2 = c + (rng.UniformInt(2) != 0 ? kHalf : -kHalf);
    if (r2 < 0 || r2 >= kGrid || c2 < 0 || c2 >= kGrid) continue;
    return {graph::GridGraphGenerator::NodeAt(kGrid, r, c),
            graph::GridGraphGenerator::NodeAt(kGrid, r2, c2)};
  }
}

/// serve_hot's skew, as in bench_batching and bench_throughput --skew:
/// Zipf(1.2) over order-3 Hilbert regions, the key RouteServer batches on.
constexpr double kZipfS = 1.2;
constexpr uint32_t kRegionOrder = 3;
/// Queries pre-drawn per client for serve_hot: more than six times what a
/// client sent in a 10 s window on the development host, so repeats come
/// from the skew, not from a client starting its stream over.
constexpr size_t kSkewedStreamLength = 16384;

/// One MakeSkewedQueries stream per client, drawn in parallel.
std::vector<std::vector<core::RouteQuery>> SkewedStreams(
    const graph::Graph& g, size_t clients, uint64_t seed) {
  std::vector<std::vector<core::RouteQuery>> streams(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      streams[c] = bench::MakeSkewedQueries(g, kSkewedStreamLength,
                                            seed * 1000003ULL + c, kZipfS,
                                            kRegionOrder);
    });
  }
  for (std::thread& t : threads) t.join();
  return streams;
}

// ---------------------------------------------------------------------------
// Measurement records

/// One answered query as the client saw it.
struct Sample {
  graph::NodeId source = 0;
  graph::NodeId destination = 0;
  bool ok = false;
  std::string error;       ///< why the query failed (when !ok)
  bool found = false;
  double cost = 0.0;
  uint64_t metric_version = 1;
  double latency_s = 0.0;  ///< client-observed: submit -> answer
  double service_s = 0.0;  ///< inside the worker
  bool computed = false;   ///< the engine ran (no cache hit, no coalescing)
  bool cache_hit = false;
  bool coalesced = false;
  storage::IoCounters io;  ///< every block this query touched
  // Engine work; meaningful only when `computed`.
  uint64_t iterations = 0;
  uint64_t nodes_generated = 0;
  uint64_t selection_blocks = 0;  ///< C5: frontier scan for the minimum
  uint64_t adjacency_blocks = 0;  ///< C7: FetchAdjacency on S
};

uint64_t Blocks(const storage::IoCounters& io) {
  return io.blocks_read + io.blocks_written;
}

/// Counters read from the server itself at the edges of the window.
struct LayerCounters {
  storage::BufferPoolStats pool;
  uint64_t batches = 0;
  uint64_t batch_members = 0;
  uint64_t batch_fetches = 0;
  uint64_t batch_shared = 0;
  uint64_t updates_applied = 0;
  uint64_t wal_bytes = 0;
  uint64_t catchups = 0;
};

LayerCounters ReadCounters(core::RouteServer& server) {
  LayerCounters c;
  c.pool = server.pool().stats();
  c.batches = server.batches_executed();
  c.batch_members = server.batch_members_executed();
  c.batch_fetches = server.batch_adjacency_fetches();
  c.batch_shared = server.batch_shared_hits();
  const core::RouteServer::IngestStats in = server.ingest_stats();
  c.updates_applied = in.updates_applied;
  c.wal_bytes = in.bytes_appended;
  c.catchups = in.worker_catchups;
  return c;
}

/// Everything one run produced.
struct RunData {
  std::vector<Sample> samples;  ///< measured window only
  double window_s = 0.0;
  double cpu_s = 0.0;           ///< process CPU time over the window
  std::vector<double> setup_s;
  std::vector<double> setup_probe_us;  ///< probe bursts between set-ups
  ProbeLog window_probe;               ///< probe pauses in the window
  LayerCounters before;
  LayerCounters after;
  double update_busy_s = 0.0;
  bool correct = true;
  std::string why_incorrect;
};

// ---------------------------------------------------------------------------
// Correctness: answers equal an in-memory Dijkstra on the stored
// (float-rounded) metric at the version the answer reports.

/// Checks every answer, or an even stride of kMaxChecks of them when a fast
/// workload answered more (each check is one in-memory search).
/// `metric(version)` returns the stored-metric graph of that version; it is
/// called with nondecreasing versions.
void Verify(const std::vector<Sample>& samples,
            const std::function<const graph::Graph*(uint64_t)>& metric,
            RunData* run) {
  constexpr size_t kMaxChecks = 20000;
  auto fail = [run](std::string why) {
    run->correct = false;
    run->why_incorrect = std::move(why);
  };
  std::vector<const Sample*> checked;
  const size_t stride = std::max<size_t>(1, samples.size() / kMaxChecks);
  for (size_t i = 0; i < samples.size(); i += stride) {
    checked.push_back(&samples[i]);
  }
  std::stable_sort(checked.begin(), checked.end(),
                   [](const Sample* a, const Sample* b) {
                     return a->metric_version < b->metric_version;
                   });
  std::unordered_map<uint64_t, double> reference;  // -1 = unreachable
  for (const Sample* sample : checked) {
    const Sample& s = *sample;
    if (!s.ok) continue;  // counted as failed, not as wrong
    const graph::Graph* g = metric(s.metric_version);
    if (g == nullptr) {
      return fail("answer reports unknown metric version " +
                  std::to_string(s.metric_version));
    }
    const uint64_t key = (s.metric_version << 32) |
                         (static_cast<uint64_t>(s.source) << 16) |
                         static_cast<uint64_t>(s.destination);
    auto it = reference.find(key);
    if (it == reference.end()) {
      const core::PathResult r =
          core::DijkstraSearch(*g, s.source, s.destination);
      it = reference.emplace(key, r.found ? r.cost : -1.0).first;
    }
    const double want = it->second;
    // The store accumulates path costs in its 4-byte float column, so an
    // exact answer agrees with the double reference to float precision
    // summed over the path's edges.
    const bool match =
        want < 0.0 ? !s.found
                   : s.found && std::abs(s.cost - want) <=
                                    1e-5 * std::max(1.0, want);
    if (!match) {
      return fail("query " + std::to_string(s.source) + "->" +
                  std::to_string(s.destination) + " at version " +
                  std::to_string(s.metric_version) + ": cost " +
                  std::to_string(s.cost) + ", reference " +
                  std::to_string(want));
    }
  }
}

// ---------------------------------------------------------------------------
// The served system and its traffic

enum class Traffic { kPaperMix, kUniform, kHot, kLive };

/// Two workers: half the host's four vCPUs, which leaves room for the
/// clients.
constexpr size_t kWorkers = 2;
/// Closed loop: each client sends its next query when its last one
/// returns; two per worker, so a worker always has a query waiting.
constexpr size_t kClients = 2 * kWorkers;
/// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupRuns = 41;

/// Traffic updates (live_traffic): the update share of YCSB workload B
/// (95% reads, 5% updates), so every 20th operation of a client is,
/// instead of a query, one traffic-feed batch as bench_ingest draws it:
/// kUpdateBatch random out-edges set to cost = base * U[0.8, 1.2] and
/// committed as one WAL frame. A mix fixed per operation keeps the write
/// work per query independent of how fast the host happens to run.
constexpr uint64_t kOpsPerUpdate = 20;
constexpr size_t kUpdateBatch = 8;

/// Warm-up before the measured window: pools and caches fill.
double WarmupSeconds(const Args& args) {
  return std::min(1.0, args.seconds / 5.0);
}

/// The served configuration: Hilbert layout, ALT landmarks, route cache and
/// region batching on; a 16-frame-per-worker pool, smaller than the store
/// replicas, so queries reach the metered disk. paper_mix runs without the
/// cache, as the paper did: its fewer than 4,000 distinct trip-and-algorithm
/// keys would otherwise repeat at a rate set by the host's speed.
/// live_traffic adds the A* v5 overlay and a durable WAL in `wal_dir`, and
/// runs unbatched: RouteServer's batch-region index keeps a pointer to the
/// first metric snapshot, which a traffic update frees, so batching under
/// updates reads freed memory (ThreadSanitizer shows it in ServeBatch).
core::RouteServer::Options ServerOptions(Traffic traffic,
                                         const std::string& wal_dir) {
  core::RouteServer::Options opt;
  opt.num_workers = kWorkers;
  opt.pool_frames = 16 * kWorkers;
  opt.layout = graph::StoreLayout::kHilbert;
  opt.num_landmarks = 8;
  opt.enable_cache = traffic != Traffic::kPaperMix;
  opt.max_batch = 8;
  opt.batch_region_order = kRegionOrder;
  if (traffic == Traffic::kLive) {
    opt.max_batch = 1;
    opt.overlay_cell_order = 3;
    opt.wal.dir = wal_dir;
    opt.wal.sync_on_commit = true;
  }
  return opt;
}

/// Commits traffic-update batches for the clients and logs each one under
/// the metric version it published, so the verifier can rebuild the
/// stored-metric graph of any version.
class TrafficFeed {
 public:
  TrafficFeed(core::RouteServer* server, const graph::Graph& base)
      : server_(server), base_(base), replay_(core::WithStoredEdgeCosts(base)) {}

  /// Draws one batch from `rng` (bench_ingest's MakeUpdateBatch: a uniform
  /// node with out-edges, then a uniform out-edge) and commits it. Writers
  /// are serialised here, so each publication maps to exactly one logged
  /// batch.
  void Apply(Rng& rng) {
    std::vector<core::EdgeCostUpdate> batch;
    while (batch.size() < kUpdateBatch) {
      const auto u = static_cast<graph::NodeId>(rng.UniformInt(base_.num_nodes()));
      const std::span<const graph::Edge> out = base_.Neighbors(u);
      if (out.empty()) continue;
      const graph::Edge& e = out[rng.UniformInt(out.size())];
      batch.push_back({u, e.to, e.cost * rng.UniformDouble(0.8, 1.2)});
    }
    std::lock_guard<std::mutex> lock(mu_);
    const auto t0 = Clock::now();
    Status st = server_->ApplyUpdates(batch);
    busy_s_ += SecondsSince(t0);
    if (!st.ok()) {
      if (status_.ok()) status_ = std::move(st);
      return;
    }
    log_[server_->published_version()] = std::move(batch);
  }

  /// Seconds spent inside ApplyUpdates since the last call.
  double TakeBusySeconds() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(busy_s_, 0.0);
  }

  // Read once the clients have stopped.
  const Status& status() const { return status_; }
  /// The stored-metric graph at version `v`, rebuilt by replaying the log;
  /// versions must be asked for in nondecreasing order. Null when `v` was
  /// never published.
  const graph::Graph* Version(uint64_t v) {
    for (auto it = log_.upper_bound(replay_version_);
         it != log_.end() && it->first <= v; ++it) {
      for (const core::EdgeCostUpdate& e : it->second) {
        (void)replay_.SetEdgeCost(e.u, e.v, static_cast<float>(e.cost));
      }
      replay_version_ = it->first;
    }
    return replay_version_ == v ? &replay_ : nullptr;
  }

 private:
  core::RouteServer* server_;
  const graph::Graph& base_;
  std::mutex mu_;  // guards the three below
  std::map<uint64_t, std::vector<core::EdgeCostUpdate>> log_;
  double busy_s_ = 0.0;
  Status status_;
  graph::Graph replay_;  ///< version replay_version_ of the stored metric
  uint64_t replay_version_ = 1;
};

/// A client's own random stream and operation count; both carry over
/// from the warm-up into the measured window.
struct ClientState {
  Rng rng;
  uint64_t op = 0;
};

/// Makes client queries: (client, its state) -> query.
using QuerySource = std::function<core::RouteQuery(size_t, ClientState&)>;

/// Runs the closed-loop clients until `end`; their query samples replace
/// `out`. With a `feed`, every kOpsPerUpdate-th operation is an update.
/// With a `probe`, the clients are parked every kProbePeriodS and the probe
/// runs on the idle server, logging into `probe_log`.
void RunClients(core::RouteServer& server, const QuerySource& next_query,
                TrafficFeed* feed, std::vector<ClientState>& clients_state,
                Clock::time_point end, HostProbe* probe,
                ProbeLog* probe_log, std::vector<Sample>* out) {
  std::vector<std::vector<Sample>> per_client(kClients);
  ClientGate gate(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientState& state = clients_state[c];
      std::vector<core::RouteQuery> one(1);
      for (; Clock::now() < end; ++state.op) {
        gate.Pass();
        if (feed != nullptr && state.op % kOpsPerUpdate == kOpsPerUpdate - 1) {
          feed->Apply(state.rng);
          continue;
        }
        one[0] = next_query(c, state);
        Sample s;
        s.source = one[0].source;
        s.destination = one[0].destination;
        const auto t0 = Clock::now();
        Result<std::vector<core::RouteResponse>> r = server.ServeBatch(one);
        s.latency_s = SecondsSince(t0);
        if (!r.ok()) {
          s.error = r.status().ToString();
        } else if (!(*r)[0].status.ok()) {
          s.error = (*r)[0].status.ToString();
        } else if ((*r)[0].degraded) {
          s.error = "degraded: " + (*r)[0].degraded_cause.ToString();
        } else {
          const core::RouteResponse& resp = (*r)[0];
          s.ok = true;
          s.found = resp.result.found;
          s.cost = resp.result.cost;
          s.metric_version = resp.metric_version;
          s.service_s = resp.latency_seconds;
          s.cache_hit = resp.cache_hit;
          s.coalesced = resp.coalesced;
          s.computed = resp.served_via == core::ServedVia::kEngine;
          s.io = resp.io;
          if (s.computed) {
            const core::SearchStats& st = resp.result.stats;
            s.iterations = st.iterations;
            s.nodes_generated = st.nodes_generated;
            s.selection_blocks = Blocks(st.breakdown.selection);
            s.adjacency_blocks = Blocks(st.breakdown.adjacency);
          }
        }
        per_client[c].push_back(std::move(s));
      }
      gate.Leave();
    });
  }
  if (probe != nullptr) {
    for (auto at = After(Clock::now(), kProbePeriodS); at < end;
         at = After(at, kProbePeriodS)) {
      std::this_thread::sleep_until(at);
      gate.WhileIdle([&] {
        const auto t0 = Clock::now();
        probe_log->cpu_s += probe->Run(kProbeBursts, &probe_log->burst_us);
        probe_log->idle_s += SecondsSince(t0);
      });
    }
  }
  for (std::thread& t : clients) t.join();
  out->clear();
  for (auto& v : per_client) out->insert(out->end(), v.begin(), v.end());
}

graph::Graph MakeMap(Traffic traffic) {
  if (traffic == Traffic::kPaperMix) {
    graph::GridGraphGenerator::Options grid;
    grid.k = kGrid;
    grid.cost_model = graph::GridCostModel::kVariance20;
    return Unwrap(graph::GridGraphGenerator::Generate(grid), "grid");
  }
  return Unwrap(graph::GenerateMinneapolisLike(), "road map").graph;
}

RunData Run(const Args& args, Traffic traffic) {
  const graph::Graph g = MakeMap(traffic);
  const std::vector<graph::NodeId> nodes = RoutableNodes(g);
  std::vector<std::vector<core::RouteQuery>> skewed;
  if (traffic == Traffic::kHot) skewed = SkewedStreams(g, kClients, args.seed);
  // paper_mix cycles through the paper's algorithms, one per query.
  struct Step {
    Algorithm algorithm;
    AStarVersion version;
  };
  static constexpr Step kPaperSteps[] = {
      {Algorithm::kIterative, AStarVersion::kV3},
      {Algorithm::kDijkstra, AStarVersion::kV3},
      {Algorithm::kAStar, AStarVersion::kV1},
      {Algorithm::kAStar, AStarVersion::kV2},
      {Algorithm::kAStar, AStarVersion::kV3}};
  const QuerySource next_query = [&](size_t client, ClientState& state) {
    core::RouteQuery q;
    NodePair pair;
    switch (traffic) {
      case Traffic::kPaperMix: {
        pair = GridTrip(state.rng);
        const Step& step = kPaperSteps[state.op % std::size(kPaperSteps)];
        q.algorithm = step.algorithm;
        q.version = step.version;
        break;
      }
      case Traffic::kUniform:
        pair = UniformPair(nodes, state.rng);
        q.version = AStarVersion::kV4;
        break;
      case Traffic::kLive:
        pair = UniformPair(nodes, state.rng);
        q.version = AStarVersion::kV5;
        break;
      case Traffic::kHot: {
        const std::vector<core::RouteQuery>& stream = skewed[client];
        const core::RouteQuery& drawn = stream[state.op % stream.size()];
        pair = {drawn.source, drawn.destination};
        q.version = AStarVersion::kV4;
        break;
      }
    }
    q.source = pair.first;
    q.destination = pair.second;
    return q;
  };

  HostProbe probe;
  // Set-up: construct (and tear down) the server kSetupRuns times; the
  // last one serves. Each durable server starts from an empty WAL dir.
  // Each construction runs on a fresh thread: on the main thread the
  // median of a whole run varied by 40% between processes, on fresh
  // threads by about 5%.
  RunData run;
  std::unique_ptr<core::RouteServer> server;
  const std::string wal_dir = args.work_dir + "/wal";
  for (int i = 0; i < kSetupRuns; ++i) {
    server.reset();
    if (traffic == Traffic::kLive) {
      std::filesystem::remove_all(wal_dir);
      std::filesystem::create_directories(wal_dir);
    }
    std::thread([&] {
      const auto t0 = Clock::now();
      server = std::make_unique<core::RouteServer>(
          g, ServerOptions(traffic, wal_dir));
      run.setup_s.push_back(SecondsSince(t0));
    }).join();
    if (!server->init_status().ok()) {
      Fatal("server init: " + server->init_status().ToString());
    }
    probe.Run(kSetupProbeBursts, &run.setup_probe_us);
  }

  std::unique_ptr<TrafficFeed> feed;
  if (traffic == Traffic::kLive) {
    feed = std::make_unique<TrafficFeed>(server.get(), g);
  }

  std::vector<ClientState> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back({Rng(args.seed * 1000003ULL + c), c});
  }
  RunClients(*server, next_query, feed.get(), clients,
             After(Clock::now(), WarmupSeconds(args)), nullptr, nullptr,
             &run.samples);

  if (feed) feed->TakeBusySeconds();
  run.before = ReadCounters(*server);
  const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  const auto start = Clock::now();
  RunClients(*server, next_query, feed.get(), clients,
             After(start, args.seconds), &probe, &run.window_probe,
             &run.samples);
  run.window_s = SecondsSince(start);
  run.cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0 -
              run.window_probe.cpu_s;
  if (feed) run.update_busy_s = feed->TakeBusySeconds();
  run.after = ReadCounters(*server);
  if (probe.sink() == 0) std::fprintf(stderr, "probe kernels summed to 0\n");

  const graph::Graph stored = core::WithStoredEdgeCosts(g);
  if (feed && !feed->status().ok()) {
    run.correct = false;
    run.why_incorrect = "traffic update failed: " + feed->status().ToString();
  }
  Verify(
      run.samples,
      [&](uint64_t v) -> const graph::Graph* {
        if (feed) return feed->Version(v);
        return v == 1 ? &stored : nullptr;
      },
      &run);

  feed.reset();
  server.reset();
  std::filesystem::remove_all(wal_dir);
  return run;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The run's timings, each multiplied by `speed` (throughput divided by
/// it). Throughput counts serving time only: the probe pauses, when every
/// client was parked, are left out.
struct Timings {
  double p50_ms, p90_ms, qps, cpu_ms_per_query, setup_s;
};

Timings TimingsAt(const RunData& run, double window_speed,
                  double setup_speed) {
  std::vector<double> latency_ms;
  for (const Sample& s : run.samples) {
    if (s.ok) latency_ms.push_back(1e3 * s.latency_s);
  }
  const double n = static_cast<double>(latency_ms.size());
  return {Percentile(latency_ms, 50) * window_speed,
          Percentile(latency_ms, 90) * window_speed,
          Ratio(n, run.window_s - run.window_probe.idle_s) / window_speed,
          Ratio(1e3 * run.cpu_s, n) * window_speed,
          Median(run.setup_s) * setup_speed};
}

double ProbeUs(const std::vector<double>& bursts) {
  if (bursts.empty()) Fatal("the speed probe recorded no burst");
  return Median(bursts);
}

/// End-to-end metrics over the measured window (set-up: the median of the
/// kSetupRuns set-ups). Timings are scaled to the probe's reference speed;
/// block cost is a count and is not.
std::vector<Metric> EndToEnd(const RunData& run) {
  const Timings t =
      TimingsAt(run, kProbeRefUs / ProbeUs(run.window_probe.burst_us),
                kProbeRefUs / ProbeUs(run.setup_probe_us));
  double cost_units = 0.0, n = 0.0;
  for (const Sample& s : run.samples) {
    if (!s.ok) continue;
    cost_units += s.io.Cost(storage::CostParams{});
    n += 1;
  }
  return {
      {"latency_p50_ms", t.p50_ms, "ms"},
      {"latency_p90_ms", t.p90_ms, "ms"},
      {"throughput_qps", t.qps, "1/s"},
      {"cpu_ms_per_query", t.cpu_ms_per_query, "ms"},
      {"block_cost_per_query", Ratio(cost_units, n), "cost_units"},
      {"setup_s", t.setup_s, "s"},
  };
}

/// Per-layer metrics over the whole measured window, unscaled.
std::vector<Metric> PerLayer(const RunData& run) {
  double queries = 0, computed = 0, cache_hits = 0, coalesced = 0;
  double latency_s = 0, service_s = 0, engine_s = 0;
  double blocks_read = 0, blocks_written = 0;
  double iterations = 0, generated = 0, selection = 0, adjacency = 0;
  for (const Sample& s : run.samples) {
    if (!s.ok) continue;
    queries += 1;
    latency_s += s.latency_s;
    service_s += s.service_s;
    blocks_read += static_cast<double>(s.io.blocks_read);
    blocks_written += static_cast<double>(s.io.blocks_written);
    cache_hits += s.cache_hit ? 1 : 0;
    coalesced += s.coalesced ? 1 : 0;
    if (!s.computed) continue;
    computed += 1;
    engine_s += s.service_s;
    iterations += static_cast<double>(s.iterations);
    generated += static_cast<double>(s.nodes_generated);
    selection += static_cast<double>(s.selection_blocks);
    adjacency += static_cast<double>(s.adjacency_blocks);
  }
  const LayerCounters& a = run.after;
  const LayerCounters& b = run.before;
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double hits = d(a.pool.hits, b.pool.hits);
  const double misses = d(a.pool.misses, b.pool.misses);
  const double batches = d(a.batches, b.batches);
  const double fetches = d(a.batch_fetches, b.batch_fetches);
  const double shared = d(a.batch_shared, b.batch_shared);
  const double updates = d(a.updates_applied, b.updates_applied);
  const Timings raw = TimingsAt(run, 1.0, 1.0);
  return {
      // Host: the probe burst time the end-to-end timings are scaled by,
      // and the end-to-end timings before scaling.
      {"host_probe_us", ProbeUs(run.window_probe.burst_us), "us"},
      {"latency_p50_raw_ms", raw.p50_ms, "ms"},
      {"latency_p90_raw_ms", raw.p90_ms, "ms"},
      {"throughput_raw_qps", raw.qps, "1/s"},
      {"cpu_raw_ms_per_query", raw.cpu_ms_per_query, "ms"},
      {"setup_raw_s", raw.setup_s, "s"},
      // Device: the simulated disk's exact per-query block counters.
      {"blocks_read_per_query", Ratio(blocks_read, queries), "count"},
      {"blocks_written_per_query", Ratio(blocks_written, queries), "count"},
      // Buffer pool.
      {"pool_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"pool_misses_per_query", Ratio(misses, queries), "count"},
      // Access methods: the paper's C5 selection scan and C7 adjacency
      // fetch, per engine search.
      {"selection_blocks_per_search", Ratio(selection, computed), "count"},
      {"adjacency_blocks_per_search", Ratio(adjacency, computed), "count"},
      // Search engine.
      {"engine_ms_per_search", Ratio(1e3 * engine_s, computed), "ms"},
      {"iterations_per_search", Ratio(iterations, computed), "count"},
      {"nodes_generated_per_search", Ratio(generated, computed), "count"},
      // Server: share of client latency spent before a worker ran the
      // query (queue, batch claim, replica catch-up, earlier batch members).
      {"queue_wait_share", Ratio(latency_s - service_s, latency_s), "ratio"},
      {"cache_hit_ratio", Ratio(cache_hits, queries), "ratio"},
      {"coalesced_ratio", Ratio(coalesced, queries), "ratio"},
      {"batch_members_per_batch",
       Ratio(d(a.batch_members, b.batch_members), batches), "count"},
      {"batch_shared_adjacency_ratio", Ratio(shared, fetches + shared),
       "ratio"},
      // Write side: WAL commit + snapshot publish, and its cost to readers.
      {"wal_bytes_per_update", Ratio(d(a.wal_bytes, b.wal_bytes), updates),
       "bytes"},
      {"update_busy_ratio", Ratio(run.update_busy_s, run.window_s), "ratio"},
      {"replica_catchups_per_query", Ratio(d(a.catchups, b.catchups), queries),
       "count"},
  };
}

void PrintResult(const RunData& run, const std::vector<Metric>& metrics) {
  size_t failed = 0;
  for (const Sample& s : run.samples) {
    if (!s.ok && failed++ == 0) {
      std::fprintf(stderr, "atis_perfbench: first failure: %s\n",
                   s.error.c_str());
    }
  }
  std::string out = "{\"correct\": ";
  out += run.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.samples.size());
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

Args ParseArgs(int argc, char** argv) {
  if (argc % 2 == 0) Fatal("arguments must come in --key value pairs");
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      Fatal("unknown argument " + key);
    }
  }
  if (!(args.seconds > 0.0)) Fatal("--seconds must be positive");
  return args;
}

}  // namespace
}  // namespace atis::perfbench

int main(int argc, char** argv) {
  using namespace atis::perfbench;
  const Args args = ParseArgs(argc, argv);
  const std::map<std::string, Traffic> kWorkloads = {
      {"paper_mix", Traffic::kPaperMix},
      {"serve_uniform", Traffic::kUniform},
      {"serve_hot", Traffic::kHot},
      {"live_traffic", Traffic::kLive}};
  const auto it = kWorkloads.find(args.workload);
  if (it == kWorkloads.end()) Fatal("unknown workload '" + args.workload + "'");
  const RunData run = Run(args, it->second);
  if (!run.correct) {
    std::fprintf(stderr, "atis_perfbench: WRONG ANSWER: %s\n",
                 run.why_incorrect.c_str());
  }
  std::fprintf(stderr, "%s: %zu queries in %.2f s\n", args.workload.c_str(),
               run.samples.size(), run.window_s);
  PrintResult(run, args.trace ? PerLayer(run) : EndToEnd(run));
  return 0;
}
