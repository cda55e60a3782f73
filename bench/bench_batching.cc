// Batched-execution benchmark for core::RouteServer: QPS and distinct
// blocks read per query as a function of max_batch, on a cold (32-frame)
// pool with simulated block latency — the I/O-bound regime where shared
// adjacency scans pay.
//
// Two workloads per map: uniform random pairs and the Zipf-skewed
// hot-region workload (sources clustered in a few Hilbert cells — the
// rush-hour shape batching exploits; see MakeSkewedQueries). A single
// worker serves every configuration so the batch size is the only moving
// part; answers are checked bit-identical against the unbatched run.
//
// Gates: on the skewed minneapolis workload, max_batch = 8 must read
// >= 30% fewer blocks per query than max_batch = 1 with QPS no worse;
// every configuration's QPS and blocks/query are held to the baseline.
// Emits BENCH_batching.json (override the path with a positional
// argument).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/route_server.h"
#include "graph/road_map_generator.h"
#include "harness.h"

namespace atis::bench {
namespace {

constexpr uint64_t kSeed = 1993;  // the repo-wide experiment seed
// One worker, 32 frames: far below the per-query working set, so the pool
// stays cold and every adjacency re-read is a real block read — the
// serving regime the shared-scan machinery targets.
constexpr size_t kPoolFrames = 32;
// Table 4A's t_read : t_write ratio scaled to microseconds, as in
// bench_throughput: block waits dominate, so fewer blocks = more QPS.
constexpr uint32_t kReadMicros = 175;
constexpr uint32_t kWriteMicros = 250;
// Skew shape shared with bench_throughput --skew.
constexpr double kZipfS = 1.2;
constexpr uint32_t kRegionOrder = 3;

struct Params {
  bool quick = false;
  size_t queries = 64;
  std::vector<size_t> batch_sizes = {1, 4, 8, 16};
  /// Workloads to run: false = uniform pairs, true = Zipf hot-region.
  std::vector<bool> skews = {false, true};
  /// Run the grid map besides minneapolis (full mode only).
  bool include_grid = true;

  static Params ForMode(bool quick) {
    Params p;
    if (quick) {
      p.quick = true;
      p.queries = 24;
      p.batch_sizes = {1, 8};
      p.skews = {true};  // the gated configuration only
      p.include_grid = false;
    }
    return p;
  }
};

struct ConfigResult {
  size_t max_batch = 0;
  ServedBatch batch;
  // Batching internals over the measured batch (0 when max_batch == 1).
  uint64_t batches = 0;
  double avg_occupancy = 0.0;
  uint64_t adjacency_fetches = 0;
  uint64_t shared_adjacency_hits = 0;
  double shared_hit_ratio = 0.0;
  uint64_t coalesced = 0;
};

/// Serves `queries` once unmeasured (timing warm-up; the 32-frame pool
/// stays effectively cold regardless) and once measured.
ConfigResult RunConfig(const graph::Graph& g, size_t max_batch,
                       const std::vector<core::RouteQuery>& queries) {
  core::RouteServer::Options opt;
  opt.num_workers = 1;
  opt.pool_frames = kPoolFrames;
  opt.disk_latency.read_micros = kReadMicros;
  opt.disk_latency.write_micros = kWriteMicros;
  opt.max_batch = max_batch;
  opt.batch_region_order = kRegionOrder;
  const auto server = StartServer(g, opt);

  Serve(*server, queries);  // warm-up
  const uint64_t batches0 = server->batches_executed();
  const uint64_t members0 = server->batch_members_executed();
  const uint64_t fetches0 = server->batch_adjacency_fetches();
  const uint64_t shared0 = server->batch_shared_hits();
  const uint64_t coalesced0 = server->batch_coalesced_served();

  ConfigResult out;
  out.max_batch = max_batch;
  out.batch = Serve(*server, queries);
  out.batches = server->batches_executed() - batches0;
  const uint64_t members = server->batch_members_executed() - members0;
  out.avg_occupancy =
      out.batches == 0 ? 0.0
                       : static_cast<double>(members) /
                             static_cast<double>(out.batches);
  out.adjacency_fetches = server->batch_adjacency_fetches() - fetches0;
  out.shared_adjacency_hits = server->batch_shared_hits() - shared0;
  const uint64_t lookups = out.adjacency_fetches + out.shared_adjacency_hits;
  out.shared_hit_ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(out.shared_adjacency_hits) /
                         static_cast<double>(lookups);
  out.coalesced = server->batch_coalesced_served() - coalesced0;
  return out;
}

struct WorkloadRun {
  std::string map;
  std::string workload;  // "uniform" | "skewed_zipf"
  size_t nodes = 0;
  size_t edges = 0;
  std::vector<ConfigResult> configs;
};

WorkloadRun RunWorkload(const std::string& map_name, const graph::Graph& g,
                        bool skew, const Params& params) {
  WorkloadRun run;
  run.map = map_name;
  run.workload = skew ? "skewed_zipf" : "uniform";
  run.nodes = g.num_nodes();
  run.edges = g.num_edges();

  const std::vector<core::RouteQuery> queries =
      skew ? MakeSkewedQueries(g, params.queries, kSeed, kZipfS,
                               kRegionOrder)
           : MakeQueries(g, params.queries, kSeed);

  for (size_t mb : params.batch_sizes) {
    run.configs.push_back(RunConfig(g, mb, queries));
    // Bit-identical parity: batching must not change a single answer.
    CheckSameRoutes(run.configs.front().batch.responses,
                    run.configs.back().batch.responses,
                    run.map + "/" + run.workload + " at batch " +
                        std::to_string(mb));
  }
  return run;
}

void PrintWorkload(const WorkloadRun& run) {
  std::printf("\n%s / %s: %zu nodes, %zu edges\n", run.map.c_str(),
              run.workload.c_str(), run.nodes, run.edges);
  PrintRow("max_batch", {"QPS", "blocks/query", "p50 ms", "p95 ms",
                         "occupancy", "shared hits", "coalesced"});
  for (const ConfigResult& r : run.configs) {
    char qps[32], bpq[32], p50[32], p95[32], occ[32], shared[48], co[32];
    std::snprintf(qps, sizeof(qps), "%.1f", r.batch.qps);
    std::snprintf(bpq, sizeof(bpq), "%.1f", r.batch.blocks_per_query);
    std::snprintf(p50, sizeof(p50), "%.2f", r.batch.p50_ms);
    std::snprintf(p95, sizeof(p95), "%.2f", r.batch.p95_ms);
    std::snprintf(occ, sizeof(occ), "%.2f", r.avg_occupancy);
    std::snprintf(shared, sizeof(shared), "%llu (%.0f%%)",
                  static_cast<unsigned long long>(r.shared_adjacency_hits),
                  100.0 * r.shared_hit_ratio);
    std::snprintf(co, sizeof(co), "%llu",
                  static_cast<unsigned long long>(r.coalesced));
    PrintRow(std::to_string(r.max_batch),
             {qps, bpq, p50, p95, occ, shared, co});
  }
}

const ConfigResult* FindConfig(const WorkloadRun& run, size_t mb) {
  for (const ConfigResult& r : run.configs) {
    if (r.max_batch == mb) return &r;
  }
  return nullptr;
}

int EmitJson(const std::vector<WorkloadRun>& runs, const Params& params,
             const std::string& path) {
  JsonWriter w;
  BeginBenchJson(w, "batching");
  w.Field("seed", kSeed);
  w.Field("quick", params.quick);
  w.Field("queries", params.queries);
  w.Field("pool_frames", static_cast<uint64_t>(kPoolFrames));
  w.Field("zipf_s", kZipfS);
  w.Field("region_order", static_cast<uint64_t>(kRegionOrder));
  w.Key("disk_latency_micros").BeginObject();
  w.Field("read", static_cast<uint64_t>(kReadMicros));
  w.Field("write", static_cast<uint64_t>(kWriteMicros));
  w.EndObject();
  w.Key("runs").BeginArray();
  for (const WorkloadRun& run : runs) {
    w.BeginObject();
    w.Field("map", run.map);
    w.Field("workload", run.workload);
    w.Field("nodes", run.nodes);
    w.Field("edges", run.edges);
    w.Key("configs").BeginArray();
    for (const ConfigResult& r : run.configs) {
      w.BeginObject();
      w.Field("max_batch", r.max_batch);
      w.Field("qps", r.batch.qps);
      w.Field("blocks_per_query", r.batch.blocks_per_query);
      w.Field("blocks_read", r.batch.blocks_read);
      w.Field("p50_ms", r.batch.p50_ms);
      w.Field("p95_ms", r.batch.p95_ms);
      w.Field("elapsed_seconds", r.batch.elapsed_seconds);
      w.Field("batches", r.batches);
      w.Field("avg_occupancy", r.avg_occupancy);
      w.Field("adjacency_fetches", r.adjacency_fetches);
      w.Field("shared_adjacency_hits", r.shared_adjacency_hits);
      w.Field("shared_hit_ratio", r.shared_hit_ratio);
      w.Field("coalesced", r.coalesced);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  std::vector<Gate> gates;
  for (const WorkloadRun& run : runs) {
    for (const ConfigResult& r : run.configs) {
      const std::string prefix = run.map + "/" + run.workload + "/batch" +
                                 std::to_string(r.max_batch) + "/";
      gates.push_back({prefix + "qps", r.batch.qps, Better::kHigher,
                       std::nullopt, /*relative=*/true});
      gates.push_back({prefix + "blocks_per_query", r.batch.blocks_per_query,
                       Better::kLower, std::nullopt, /*relative=*/true});
    }
    // Acceptance: on skewed minneapolis, batch 8 reads >= 30% fewer
    // blocks/query than batch 1 with QPS no worse.
    const ConfigResult* b1 = FindConfig(run, 1);
    const ConfigResult* b8 = FindConfig(run, 8);
    if (run.map == "minneapolis_like" && run.workload == "skewed_zipf" &&
        b1 != nullptr && b8 != nullptr) {
      const std::string prefix = run.map + "/" + run.workload + "/";
      gates.push_back(
          {prefix + "blocks_reduction_batch8_vs_batch1",
           1.0 - b8->batch.blocks_per_query / b1->batch.blocks_per_query,
           Better::kHigher, 0.30, /*relative=*/false});
      gates.push_back({prefix + "qps_ratio_batch8_over_batch1",
                       b8->batch.qps / b1->batch.qps, Better::kHigher, 1.0,
                       /*relative=*/false});
    }
  }
  return FinishBenchFile(w, path, gates);
}



int Run(const std::string& json_path, bool quick) {
  const Params params = Params::ForMode(quick);
  PrintHeader("Batching: shared-frontier adjacency scans",
              "QPS and blocks read per query vs max_batch; one worker, a "
              "cold 32-frame\npool and simulated block latency, so the "
              "win is exactly the adjacency\nre-reads a batch shares. "
              "Answers are checked bit-identical to the\nunbatched run "
              "for every configuration.");

  std::vector<WorkloadRun> runs;
  const graph::RoadMap rm = ValueOrDie(graph::GenerateMinneapolisLike());
  for (bool skew : params.skews) {
    runs.push_back(RunWorkload("minneapolis_like", rm.graph, skew, params));
  }
  if (params.include_grid) {
    const graph::Graph grid =
        MakeGrid(30, graph::GridCostModel::kUniform);
    for (bool skew : params.skews) {
      runs.push_back(RunWorkload("grid30", grid, skew, params));
    }
  }

  for (const WorkloadRun& run : runs) PrintWorkload(run);
  return EmitJson(runs, params, json_path);
}

}  // namespace
}  // namespace atis::bench

int main(int argc, char** argv) {
  bool quick = false;
  const std::string json_path = atis::bench::ParseBenchArgs(
      argc, argv, "batching", {{"--quick", &quick}});
  return atis::bench::Run(json_path, quick);
}
