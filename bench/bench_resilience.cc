// Resilience (chaos) benchmark for the route server: availability and tail
// latency under seeded storage-fault injection.
//
// Sweeps transient-fault probability x latency-spike rate on the 30x30
// grid and the Minneapolis-like road map. Each configuration builds a
// fresh server with bounded retries, per-query deadlines, per-replica
// circuit breakers, and degraded fallbacks enabled; serves one healthy
// warm-up batch (populating the route cache); applies a traffic update
// (bumping the cache epoch so nothing is served as a *fresh* hit); then
// injects faults and measures a batch. The base disk latency is zero —
// every stall in the measured batch comes from injected spikes and retry
// backoff, so the numbers isolate the resilience machinery itself.
//
// Reported per configuration: availability (answered + degraded), the
// served-via breakdown (engine / stale cache / snapshot / failed), p50/p99
// latency, retry amplification ((blocks_read + read_retries) /
// blocks_read), and the number of injected faults. Emits
// BENCH_resilience.json (override the path with a positional argument).
//
// Gate: >= 99% availability at a 1% transient fault rate with a 250 ms
// deadline on grid30.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/route_server.h"
#include "graph/road_map_generator.h"
#include "harness.h"
#include "obs/slo.h"

namespace atis::bench {
namespace {

constexpr size_t kQueriesPerBatch = 64;
constexpr uint64_t kSeed = 1993;  // the repo-wide experiment seed
constexpr size_t kWorkers = 2;
constexpr size_t kFramesPerWorker = 32;
constexpr uint64_t kDeadlineMs = 250;
constexpr int kRetryAttempts = 4;
constexpr uint32_t kRetryBackoffMicros = 100;

struct ChaosConfig {
  double transient_rate = 0.0;  ///< P(block access fails kUnavailable)
  double spike_rate = 0.0;      ///< P(successful access is a straggler)
  uint32_t spike_micros = 0;    ///< straggler stall
};

// fault probability x latency-spike rate, plus the fault-free baseline.
constexpr ChaosConfig kConfigs[] = {
    {0.00, 0.00, 0},    {0.01, 0.00, 0},    {0.05, 0.00, 0},
    {0.00, 0.02, 2000}, {0.01, 0.02, 2000}, {0.05, 0.02, 2000},
};

struct ConfigResult {
  ChaosConfig chaos;
  size_t engine = 0;    ///< answered by a healthy replica
  size_t stale = 0;     ///< degraded: stale cached route
  size_t snapshot = 0;  ///< degraded: in-memory last-good graph
  size_t failed = 0;    ///< no answer produced
  double availability = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double retry_amplification = 1.0;
  uint64_t faults_injected = 0;
  uint64_t read_retries = 0;
  uint64_t deadline_hits = 0;  ///< degraded answers caused by the deadline
  /// The server's own rolling 10s SLO window, snapshotted right after the
  /// measured batch — the availability figure a live scrape would report,
  /// as opposed to `availability` computed offline from the responses.
  /// (The warm-up batch also lands in the window, so `windowed.total`
  /// exceeds the measured batch size and the two figures may differ.)
  obs::SloWindows::Window windowed;
};

/// The first edge of `g`, used as the traffic-update target that bumps the
/// cache epoch between the warm-up and the measured batch.
struct EdgeRef {
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  double cost = 0.0;
};
EdgeRef FirstEdge(const graph::Graph& g) {
  for (graph::NodeId u = 0; static_cast<size_t>(u) < g.num_nodes(); ++u) {
    const auto nbrs = g.Neighbors(u);
    if (!nbrs.empty()) return {u, nbrs[0].to, nbrs[0].cost};
  }
  Fatal("graph has no edges");
}

ConfigResult RunConfig(const graph::Graph& g, const ChaosConfig& chaos,
                       const std::vector<core::RouteQuery>& queries) {
  core::RouteServer::Options opt;
  opt.num_workers = kWorkers;
  opt.pool_frames = kFramesPerWorker * kWorkers;
  opt.enable_cache = true;
  opt.enable_degraded = true;
  opt.default_deadline_ms = kDeadlineMs;
  opt.retry.max_attempts = kRetryAttempts;
  opt.retry.initial_backoff_micros = kRetryBackoffMicros;
  opt.obs.enable_slo = true;  // windowed availability joins the report
  const auto server_owner = StartServer(g, opt);
  core::RouteServer& server = *server_owner;

  // Healthy warm-up: populates the route cache with every answer.
  Serve(server, queries, Expect::kAnything);
  // Traffic update: mild congestion on one edge bumps the cache epoch, so
  // the measured batch cannot be served from fresh hits — only recomputed
  // under chaos, or salvaged as flagged-stale entries.
  const EdgeRef e = FirstEdge(g);
  CheckOk(server.UpdateEdgeCost(e.u, e.v, e.cost * 1.05));
  // Chaos on: installed only now, so warm-up and construction were clean.
  storage::FaultProfile profile;
  profile.seed = kSeed;
  profile.transient_rate = chaos.transient_rate;
  profile.spike_rate = chaos.spike_rate;
  profile.spike_micros = chaos.spike_micros;
  server.disk().SetFaultProfile(profile);

  const uint64_t reads_before = server.disk().meter().counters().blocks_read;
  const uint64_t retries_before = server.pool().stats().read_retries;
  const uint64_t faults_before = server.disk().faults_injected();
  const ServedBatch served = Serve(server, queries, Expect::kAnything);
  const std::vector<core::RouteResponse>& responses = served.responses;

  ConfigResult out;
  out.chaos = chaos;
  for (const core::RouteResponse& resp : responses) {
    if (!resp.status.ok()) {
      ++out.failed;
      continue;
    }
    switch (resp.served_via) {
      case core::ServedVia::kEngine:
      case core::ServedVia::kCache:
      case core::ServedVia::kCoalesced:  // this bench serves unbatched
        ++out.engine;
        break;
      case core::ServedVia::kStaleCache:
        ++out.stale;
        break;
      case core::ServedVia::kSnapshot:
        ++out.snapshot;
        break;
      case core::ServedVia::kNone:
        ++out.failed;
        break;
    }
    if (resp.degraded && resp.degraded_cause.IsDeadlineExceeded()) {
      ++out.deadline_hits;
    }
  }
  out.availability =
      static_cast<double>(responses.size() - out.failed) / responses.size();
  out.p50_ms = served.p50_ms;
  out.p99_ms = served.p99_ms;
  const uint64_t reads =
      server.disk().meter().counters().blocks_read - reads_before;
  out.read_retries = server.pool().stats().read_retries - retries_before;
  out.retry_amplification =
      reads == 0 ? 1.0
                 : static_cast<double>(reads + out.read_retries) /
                       static_cast<double>(reads);
  out.faults_injected = server.disk().faults_injected() - faults_before;
  // The trailing 10s window spans warm-up + measured batch (both finish
  // well inside it); index 0 of Snapshot() is the 10s window.
  out.windowed = server.slo()->Snapshot().front();
  return out;
}

struct MapRun {
  std::string name;
  size_t nodes = 0;
  size_t edges = 0;
  std::vector<ConfigResult> configs;
};

MapRun RunMap(const std::string& name, const graph::Graph& g) {
  MapRun run;
  run.name = name;
  run.nodes = g.num_nodes();
  run.edges = g.num_edges();
  const std::vector<core::RouteQuery> queries =
      MakeQueries(g, kQueriesPerBatch, kSeed);
  for (const ChaosConfig& chaos : kConfigs) {
    run.configs.push_back(RunConfig(g, chaos, queries));
  }
  return run;
}

void PrintMap(const MapRun& run) {
  std::printf("\n%s: %zu nodes, %zu edges; %zu A*-v3 queries/batch, "
              "%zu workers, %llu ms deadline\n",
              run.name.c_str(), run.nodes, run.edges, kQueriesPerBatch,
              kWorkers, static_cast<unsigned long long>(kDeadlineMs));
  PrintRow("fault% / spike%", {"avail%", "engine", "stale", "snap", "fail",
                               "p50 ms", "p99 ms", "retry amp", "faults"});
  for (const ConfigResult& r : run.configs) {
    char label[48], avail[32], p50[32], p99[32], amp[32];
    std::snprintf(label, sizeof(label), "%.0f%% / %.0f%%",
                  100 * r.chaos.transient_rate, 100 * r.chaos.spike_rate);
    std::snprintf(avail, sizeof(avail), "%.1f", 100 * r.availability);
    std::snprintf(p50, sizeof(p50), "%.2f", r.p50_ms);
    std::snprintf(p99, sizeof(p99), "%.2f", r.p99_ms);
    std::snprintf(amp, sizeof(amp), "%.4f", r.retry_amplification);
    PrintRow(label,
             {avail, std::to_string(r.engine), std::to_string(r.stale),
              std::to_string(r.snapshot), std::to_string(r.failed), p50, p99,
              amp, std::to_string(r.faults_injected)});
  }
}

int EmitJson(const std::vector<MapRun>& runs, const std::string& path) {
  JsonWriter w;
  BeginBenchJson(w, "resilience");
  w.Field("seed", kSeed);
  w.Field("queries_per_batch", kQueriesPerBatch);
  w.Field("workers", kWorkers);
  w.Field("frames_per_worker", kFramesPerWorker);
  w.Field("deadline_ms", kDeadlineMs);
  w.Key("retry").BeginObject();
  w.Field("max_attempts", static_cast<uint64_t>(kRetryAttempts));
  w.Field("initial_backoff_micros",
          static_cast<uint64_t>(kRetryBackoffMicros));
  w.EndObject();
  w.Key("maps").BeginArray();
  for (const MapRun& run : runs) {
    w.BeginObject();
    w.Field("name", run.name);
    w.Field("nodes", run.nodes);
    w.Field("edges", run.edges);
    w.Key("configs").BeginArray();
    for (const ConfigResult& r : run.configs) {
      w.BeginObject();
      w.Field("transient_fault_rate", r.chaos.transient_rate);
      w.Field("spike_rate", r.chaos.spike_rate);
      w.Field("spike_micros", static_cast<uint64_t>(r.chaos.spike_micros));
      w.Field("availability", r.availability);
      w.Field("served_engine", r.engine);
      w.Field("served_stale_cache", r.stale);
      w.Field("served_snapshot", r.snapshot);
      w.Field("failed", r.failed);
      w.Field("deadline_degraded", r.deadline_hits);
      w.Field("p50_ms", r.p50_ms);
      w.Field("p99_ms", r.p99_ms);
      w.Field("retry_amplification", r.retry_amplification);
      w.Field("read_retries", r.read_retries);
      w.Field("faults_injected", r.faults_injected);
      w.Key("slo_window_10s").BeginObject();
      w.Field("total", r.windowed.total);
      w.Field("errors", r.windowed.errors);
      w.Field("degraded", r.windowed.degraded);
      w.Field("shed", r.windowed.shed);
      w.Field("availability", r.windowed.availability);
      w.Field("burn_rate", r.windowed.burn_rate);
      w.Field("p50_ms", 1e3 * r.windowed.p50_seconds);
      w.Field("p99_ms", 1e3 * r.windowed.p99_seconds);
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  // Acceptance: grid30, 1% transient faults, no spikes (kConfigs[1]).
  return FinishBenchFile(
      w, path,
      {{"grid30_uniform/availability_at_1pct_faults",
        runs.front().configs[1].availability, Better::kHigher, 0.99,
        /*relative=*/false}});
}

int Run(const std::string& json_path) {
  PrintHeader("Resilience: route serving under storage chaos",
              "Seeded fault injection on the shared disk: transient faults "
              "absorbed by\nbounded retries, latency spikes bounded by "
              "per-query deadlines, and what\nstill fails served degraded "
              "(stale cache, then in-memory snapshot).\nAvailability = "
              "answered + degraded. Base disk latency is zero, so all\n"
              "stalls are injected.");

  std::vector<MapRun> runs;
  runs.push_back(RunMap("grid30_uniform",
                        MakeGrid(30, graph::GridCostModel::kUniform)));
  const graph::RoadMap rm = ValueOrDie(graph::GenerateMinneapolisLike());
  runs.push_back(RunMap("minneapolis_like", rm.graph));

  for (const MapRun& run : runs) PrintMap(run);

  return EmitJson(runs, json_path);
}

}  // namespace
}  // namespace atis::bench

int main(int argc, char** argv) {
  const std::string json_path =
      atis::bench::ParseBenchArgs(argc, argv, "resilience", {});
  return atis::bench::Run(json_path);
}
