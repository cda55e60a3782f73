// Continent-scale serving benchmark: streaming build + partitioned
// serving through core::RouteServer.
//
// Pipeline under test (the partitioned-store subsystem end to end):
//   1. ContinentGenerator streams a multi-city map to an ATISG2 file —
//      nothing is ever resident.
//   2. RouteServer's partitioned constructor runs
//      PartitionedGraphStore::Build on the server's own pool: it
//      external-sorts the file by Hilbert key through the metered
//      DiskManager and materialises K region stores one at a time, then
//      customizes the boundary overlay.
//   3. The same server answers random trips as A* v5 queries, which take
//      the stitched path (restricted Dijkstra + in-memory overlay +
//      restricted Dijkstra), and, as the unpartitioned baseline, as
//      Dijkstra queries, which take the flat GlobalDijkstra path over the
//      same store. Settled-node and cross-partition figures are deltas of
//      the server's own atis_partition_* counters; latency percentiles
//      come from RouteResponse::latency_seconds (reported, not gated).
//
// Gates: stitched-vs-flat exactness, stitched QPS >= the flat baseline,
// and — held to the checked-in baseline — stitched QPS, blocks/query,
// the QPS ratio and the streaming build's peak RSS (plus an absolute
// 256 MB ceiling on the ~100k-node quick map).
//
// Emits BENCH_continent.json (override with a positional argument);
// --quick serves a ~100k-node map instead of ~1M for the CI perf smoke.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/route_server.h"
#include "graph/continent_generator.h"
#include "graph/partitioned_store.h"
#include "harness.h"
#include "obs/metrics.h"

namespace atis::bench {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kSeed = 1993;
/// Peak-RSS ceiling for the streaming build of the ~100k-node quick map.
/// The ~1M-node full run is held to its own baseline only: most of the
/// RSS is the RAM-backed DiskManager holding the store's pages, which
/// scales with the map.
constexpr double kQuickPeakRssCeilingMb = 256.0;

/// A "VmHWM:" / "VmRSS:" value from /proc/self/status, in MiB (0.0 when
/// unavailable — non-Linux or restricted /proc).
double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      double kb = 0.0;
      std::istringstream ss(line.substr(std::strlen(key) + 1));
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

struct ServingRun {
  ServedBatch served;
  double avg_settled_store = 0.0;
  double avg_settled_overlay = 0.0;
  double cross_fraction = 0.0;
};

/// The server's atis_partition_* counters, read before and after a run.
struct PartitionCounters {
  uint64_t cross = 0;
  uint64_t settled_store = 0;
  uint64_t settled_overlay = 0;

  static PartitionCounters Read() {
    auto& reg = obs::MetricsRegistry::Default();
    auto value = [&reg](const char* name) {
      return reg.GetCounter(name, "").value();
    };
    return {value("atis_partition_cross_queries_total"),
            value("atis_partition_settled_store_total"),
            value("atis_partition_settled_overlay_total")};
  }
};

/// Serves `num_queries` random trips of kind `shape` (its algorithm and
/// version pick the stitched or the flat path) as one batch.
ServingRun ServeTrips(core::RouteServer& server, core::RouteQuery shape,
                      size_t num_queries, uint64_t seed) {
  const std::vector<core::RouteQuery> queries =
      MakeQueries(server.partitioned_store()->num_nodes(), num_queries, seed,
                  /*routable_in=*/nullptr, shape);
  const PartitionCounters before = PartitionCounters::Read();
  ServingRun run;
  run.served = Serve(server, queries, Expect::kNoErrors);
  const PartitionCounters after = PartitionCounters::Read();
  const auto nq = static_cast<double>(num_queries);
  run.avg_settled_store =
      static_cast<double>(after.settled_store - before.settled_store) / nq;
  run.avg_settled_overlay =
      static_cast<double>(after.settled_overlay - before.settled_overlay) /
      nq;
  run.cross_fraction = static_cast<double>(after.cross - before.cross) / nq;
  return run;
}

int Run(const std::string& json_path, bool quick) {
  // ~100k nodes quick / ~1M nodes full. The full map is 1024 cities on a
  // 32x32 grid — the extent stays inside the store's int16 fixed-point
  // coordinate budget by construction (Create() re-validates).
  graph::ContinentOptions map_options;
  map_options.seed = kSeed;
  map_options.num_cities = quick ? 121 : 1024;
  map_options.city_k = quick ? 29 : 32;

  PrintHeader("continent",
              std::string("streaming build + partitioned serving, ") +
                  (quick ? "~100k nodes (--quick)" : "~1M nodes"));

  auto gen = ValueOrDie(graph::ContinentGenerator::Create(map_options));
  const fs::path map_path =
      fs::temp_directory_path() /
      (quick ? "atis_bench_continent_quick.atisg"
             : "atis_bench_continent.atisg");

  auto t0 = std::chrono::steady_clock::now();
  CheckOk(gen.WriteTo(map_path.string()));
  const double generate_seconds = SecondsSince(t0);
  const double rss_before_build_mb = ProcStatusMb("VmHWM:");

  core::RouteServer::Options server_options;
  server_options.num_workers = 4;
  server_options.pool_frames = quick ? 1024 : 4096;
  server_options.pool_shards = 8;
  t0 = std::chrono::steady_clock::now();
  const auto server = StartServer(
      map_path.string(), graph::PartitionedStoreOptions(), server_options);
  const double build_seconds = SecondsSince(t0);
  const graph::PartitionedGraphStore& store = *server->partitioned_store();
  const double peak_rss_mb = ProcStatusMb("VmHWM:");
  const double current_rss_mb = ProcStatusMb("VmRSS:");

  // What the non-streaming path would have held resident *on top of the
  // store itself*: the materialised Graph (points + adjacency vectors)
  // plus ComputeNodeOrder's key/permutation arrays. Arithmetic estimate,
  // reported for scale.
  const double materialized_estimate_mb =
      (static_cast<double>(store.num_nodes()) *
           (sizeof(graph::Point) + 24 /* adjacency vector header */ +
            12 /* sort key + permutation entry */) +
       static_cast<double>(store.num_edges()) * sizeof(graph::Edge)) /
      (1024.0 * 1024.0);

  PrintRow("map", {std::to_string(store.num_nodes()) + " nodes",
                   std::to_string(store.num_edges()) + " edges",
                   std::to_string(store.num_partitions()) + " parts"});
  PrintRow("build", {std::to_string(build_seconds) + "s",
                     std::to_string(peak_rss_mb) + "MB peak"});

  const size_t stitched_queries = quick ? 256 : 64;
  const size_t global_queries = quick ? 32 : 4;
  const ServingRun stitched =
      ServeTrips(*server,
                 {.algorithm = core::Algorithm::kAStar,
                  .version = core::AStarVersion::kV5},
                 stitched_queries, kSeed + 1);
  const ServingRun global =
      ServeTrips(*server, {.algorithm = core::Algorithm::kDijkstra},
                 global_queries, kSeed + 1);

  for (const auto& [label, run] :
       {std::pair{"stitched", &stitched}, std::pair{"flat", &global}}) {
    const ServedBatch& b = run->served;
    PrintRow(label, {std::to_string(b.qps) + " qps",
                     std::to_string(b.blocks_per_query) + " blocks/q",
                     "p50 " + std::to_string(b.p50_ms) + "ms",
                     "p99 " + std::to_string(b.p99_ms) + "ms"});
  }

  // Exactness spot check: stitched == flat reference over the same store
  // (both accumulate in double, so agreement is to rounding noise).
  bool exact = true;
  {
    Rng rng(kSeed + 2);
    const auto n = static_cast<int64_t>(store.num_nodes());
    const int checks = quick ? 16 : 4;
    for (int i = 0; i < checks; ++i) {
      const auto s = static_cast<graph::NodeId>(rng.UniformInt(0, n - 1));
      const auto t = static_cast<graph::NodeId>(rng.UniformInt(0, n - 1));
      const auto a = ValueOrDie(store.StitchedDistance(s, t));
      const auto b = ValueOrDie(store.GlobalDijkstra(s, t));
      if (a.found != b.found ||
          (a.found && std::abs(a.cost - b.cost) > 1e-9)) {
        std::fprintf(stderr, "INEXACT %d -> %d: stitched %.12f flat %.12f\n",
                     s, t, a.cost, b.cost);
        exact = false;
      }
    }
  }

  const double qps_ratio = stitched.served.qps / global.served.qps;

  JsonWriter w;
  BeginBenchJson(w, "continent");
  w.Field("quick", quick);
  w.Key("map").BeginObject();
  w.Field("num_cities", map_options.num_cities);
  w.Field("city_k", map_options.city_k);
  w.Field("nodes", store.num_nodes());
  w.Field("edges", store.num_edges());
  w.Field("partitions", static_cast<uint64_t>(store.num_partitions()));
  w.Field("boundary_nodes",
          static_cast<uint64_t>(store.num_boundary_nodes()));
  w.Field("cross_edges", static_cast<uint64_t>(store.num_cross_edges()));
  w.EndObject();
  w.Key("build").BeginObject();
  w.Field("generate_seconds", generate_seconds);
  w.Field("build_seconds", build_seconds);
  w.Field("peak_rss_mb_before_build", rss_before_build_mb);
  w.Field("peak_rss_mb", peak_rss_mb);
  w.Field("final_rss_mb", current_rss_mb);
  w.Field("materialized_overhead_estimate_mb", materialized_estimate_mb);
  w.EndObject();
  auto emit_serving = [&w](const char* key, const ServingRun& run) {
    w.Key(key).BeginObject();
    w.Field("queries", static_cast<uint64_t>(run.served.responses.size()));
    w.Field("qps", run.served.qps);
    w.Field("blocks_per_query", run.served.blocks_per_query);
    w.Field("latency_p50_ms", run.served.p50_ms);
    w.Field("latency_p99_ms", run.served.p99_ms);
    w.Field("avg_settled_store", run.avg_settled_store);
    w.Field("avg_settled_overlay", run.avg_settled_overlay);
    w.Field("cross_fraction", run.cross_fraction);
    w.EndObject();
  };
  emit_serving("stitched", stitched);
  emit_serving("flat_baseline", global);

  // A peak RSS of 0 means /proc/self/status is unavailable (non-Linux
  // host): reported, not gated.
  const bool have_rss = peak_rss_mb > 0.0;
  const int exit_code = FinishBenchFile(
      w, json_path,
      {{"exact", exact ? 1.0 : 0.0, Better::kHigher, 1.0, /*relative=*/false},
       {"qps_ratio_stitched_over_flat", qps_ratio, Better::kHigher, 1.0,
        /*relative=*/true},
       {"stitched_qps", stitched.served.qps, Better::kHigher, std::nullopt,
        /*relative=*/true},
       {"blocks_per_query", stitched.served.blocks_per_query, Better::kLower,
        std::nullopt, /*relative=*/true},
       {"peak_rss_mb", peak_rss_mb, Better::kLower,
        quick && have_rss ? std::optional(kQuickPeakRssCeilingMb)
                          : std::nullopt,
        /*relative=*/have_rss}});

  std::error_code ec;
  fs::remove(map_path, ec);
  return exit_code;
}

}  // namespace
}  // namespace atis::bench

int main(int argc, char** argv) {
  bool quick = false;
  const std::string json_path = atis::bench::ParseBenchArgs(
      argc, argv, "continent", {{"--quick", &quick}});
  return atis::bench::Run(json_path, quick);
}
