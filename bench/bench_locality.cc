// Physical-locality benchmark: store layout x algorithm.
//
// The paper counts block accesses as the cost of database-resident path
// computation but takes the physical layout of the node/edge relations as
// given (insertion order). This benchmark measures the spatial clustering
// this repo adds underneath the cost model: RelationalGraphStore loaded
// with StoreLayout::kHilbert packs spatially-near tuples into the same
// slotted pages, so a search whose frontier is a compact region reads
// fewer *distinct* blocks than under the paper's row order.
//
// Method: every trip runs against a cold pool large enough to hold the
// whole working set, so each physical block is read at most once and the
// metered disk's blocks_read delta *is* the distinct-block count. The
// delta is taken on the disk's meter around the search and the EvictAll
// that re-colds the pool, so the trip's dirty write-backs (flushed by
// that EvictAll, after the engine returned) count in blocks_written.
// Both layouts run with statement_at_a_time off, the served execution
// model: the paper-mode EvictAll between statements would re-read a
// block once per statement touching it, and the count would stop being
// a distinct-block count. Result parity is enforced: every (algorithm,
// trip) must return the identical path cost and iteration count under
// both layouts — layout is a physical knob and must not change a single
// answer.
//
// Gate: Hilbert clustering cuts A* v2's distinct block reads on the road
// map by >= 25%. Emits BENCH_locality.json (override the path with a
// positional argument); --quick shrinks trips and drops the simulated
// latency for CI smoke runs.
#include <chrono>
#include <cstdio>
#include <iterator>

#include "core/landmarks.h"
#include "graph/road_map_generator.h"
#include "harness.h"

namespace atis::bench {
namespace {

constexpr uint64_t kSeed = 1993;  // the repo-wide experiment seed
// Large enough that neither map's relations (plus landmarkDist) ever
// force a capacity eviction: with no re-reads, blocks_read == distinct
// blocks touched.
constexpr size_t kPoolFrames = 1024;
constexpr size_t kNumLandmarks = 8;
// Simulated device latency (Table 4A's read:write ratio, same scale as
// bench_throughput), so the block reads a layout saves show in wall time.
constexpr uint32_t kReadMicros = 175;
constexpr uint32_t kWriteMicros = 250;

struct AlgoSpec {
  const char* name;
  core::Algorithm algorithm;
  core::AStarVersion version;  // read only for kAStar
};

constexpr AlgoSpec kAlgos[] = {
    {"dijkstra", core::Algorithm::kDijkstra, core::AStarVersion::kV3},
    {"astar_v2", core::Algorithm::kAStar, core::AStarVersion::kV2},
    {"astar_v4", core::Algorithm::kAStar, core::AStarVersion::kV4},
};

/// The first layout is the baseline the others are compared against.
constexpr graph::StoreLayout kLayouts[] = {graph::StoreLayout::kRowOrder,
                                           graph::StoreLayout::kHilbert};

/// One (algorithm, layout) cell, summed over the map's trips.
struct ConfigResult {
  graph::StoreLayout layout = graph::StoreLayout::kRowOrder;
  uint64_t blocks_read = 0;  // distinct blocks (cold pool, no re-reads)
  uint64_t blocks_written = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t iterations = 0;
  double elapsed_ms = 0.0;  // search wall time (excl. the trailing EvictAll)
  std::vector<double> path_costs;      // per trip, for parity checks
  std::vector<uint64_t> trip_iters;    // per trip, for parity checks
};

struct AlgoResult {
  std::string name;
  std::vector<ConfigResult> configs;
};

struct MapRun {
  std::string name;
  size_t nodes = 0;
  size_t edges = 0;
  std::vector<AlgoResult> algos;
};

void MeasureTrip(DbInstance& db, const AlgoSpec& algo, const Trip& trip,
                 ConfigResult& out) {
  // The pool is cold here (the previous measurement, or setup, ended with
  // EvictAll), so every block this trip reads is a first touch.
  db.pool().ResetStats();
  const storage::IoCounters before = db.disk().meter().counters();
  const auto started = std::chrono::steady_clock::now();
  Result<core::PathResult> r =
      algo.algorithm == core::Algorithm::kDijkstra
          ? db.engine().Dijkstra(trip.source, trip.destination)
          : db.engine().AStar(trip.source, trip.destination, algo.version);
  const double elapsed = SecondsSince(started);
  if (!r.ok() || !(*r).found) {
    Fatal(std::string(algo.name) + " trip " + trip.name +
          ": no route: " + r.status().ToString());
  }
  // The EvictAll re-colds the pool, and its dirty write-backs charge the
  // trip's REPLACE traffic to blocks_written.
  CheckOk(db.pool().EvictAll());
  const storage::IoCounters delta = db.disk().meter().counters() - before;
  const storage::BufferPoolStats ps = db.pool().stats();

  out.blocks_read += delta.blocks_read;
  out.blocks_written += delta.blocks_written;
  out.hits += ps.hits;
  out.misses += ps.misses;
  out.iterations += r->stats.iterations;
  out.elapsed_ms += 1e3 * elapsed;
  out.path_costs.push_back(r->cost);
  out.trip_iters.push_back(r->stats.iterations);
}

MapRun RunMap(const std::string& name, const graph::Graph& g,
              std::vector<Trip> trips, bool quick) {
  if (quick) trips.resize(1);
  MapRun run;
  run.name = name;
  run.nodes = g.num_nodes();
  run.edges = g.num_edges();
  for (const AlgoSpec& algo : kAlgos) {
    run.algos.push_back({algo.name, {}});
  }

  for (const graph::StoreLayout layout : kLayouts) {
    DbInstance::Options opt;
    opt.search.statement_at_a_time = false;  // see file comment
    opt.pool_frames = kPoolFrames;
    opt.layout = layout;
    if (!quick) {
      opt.disk_latency.read_micros = kReadMicros;
      opt.disk_latency.write_micros = kWriteMicros;
    }
    DbInstance db(g, opt);

    // Version 4 preprocessing, outside every measurement window.
    core::LandmarkOptions lm;
    lm.num_landmarks = kNumLandmarks;
    const core::LandmarkSet set = ValueOrDie(
        core::SelectLandmarks(core::WithStoredEdgeCosts(g), lm));
    CheckOk(db.engine().EnableLandmarks(core::MakeLandmarkEstimator(
        ValueOrDie(core::PersistAndLoadLandmarks(set, &db.store())),
        /*euclidean_scale=*/1.0)));
    CheckOk(db.pool().EvictAll());

    for (size_t a = 0; a < std::size(kAlgos); ++a) {
      ConfigResult result;
      result.layout = layout;
      for (const Trip& trip : trips) {
        MeasureTrip(db, kAlgos[a], trip, result);
      }
      run.algos[a].configs.push_back(std::move(result));
    }
  }

  // Parity: physical knobs must not change a single answer. Path costs
  // and iteration counts are bit-identical across both layouts.
  for (const AlgoResult& algo : run.algos) {
    const ConfigResult& base = algo.configs.front();
    for (const ConfigResult& other : algo.configs) {
      for (size_t t = 0; t < trips.size(); ++t) {
        if (other.path_costs[t] != base.path_costs[t] ||
            other.trip_iters[t] != base.trip_iters[t]) {
          Fatal(name + " " + algo.name + " trip " + trips[t].name + " [" +
                graph::StoreLayoutName(other.layout) + "]: cost " +
                std::to_string(other.path_costs[t]) + " iters " +
                std::to_string(other.trip_iters[t]) + " vs baseline cost " +
                std::to_string(base.path_costs[t]) + " iters " +
                std::to_string(base.trip_iters[t]));
        }
      }
    }
  }
  return run;
}

void PrintMap(const MapRun& run) {
  std::printf("\n%s: %zu nodes, %zu edges\n", run.name.c_str(), run.nodes,
              run.edges);
  for (const AlgoResult& algo : run.algos) {
    std::printf("  %s\n", algo.name.c_str());
    PrintRow("  layout", {"blocks read", "written", "misses", "iters", "ms"});
    for (const ConfigResult& r : algo.configs) {
      char ms[32];
      std::snprintf(ms, sizeof(ms), "%.1f", r.elapsed_ms);
      PrintRow("  " + std::string(graph::StoreLayoutName(r.layout)),
               {std::to_string(r.blocks_read),
                std::to_string(r.blocks_written), std::to_string(r.misses),
                std::to_string(r.iterations), ms});
    }
  }
}

/// blocks_read of `layout` relative to the row-order baseline for one
/// algorithm; negative when the layout reads *more*.
double Reduction(const AlgoResult& algo, graph::StoreLayout layout) {
  const ConfigResult& base = algo.configs.front();
  for (const ConfigResult& r : algo.configs) {
    if (r.layout == layout && base.blocks_read > 0) {
      return 1.0 - static_cast<double>(r.blocks_read) /
                       static_cast<double>(base.blocks_read);
    }
  }
  Fatal("reduction: missing layout");
}

int EmitJson(const std::vector<MapRun>& runs, bool quick, double reduction,
             const std::string& path) {
  JsonWriter w;
  BeginBenchJson(w, "locality");
  w.Field("seed", kSeed);
  w.Field("quick", quick);
  w.Field("pool_frames", kPoolFrames);
  w.Field("num_landmarks", kNumLandmarks);
  w.Key("disk_latency_micros").BeginObject();
  w.Field("read", quick ? uint64_t{0} : uint64_t{kReadMicros});
  w.Field("write", quick ? uint64_t{0} : uint64_t{kWriteMicros});
  w.EndObject();
  w.Key("maps").BeginArray();
  for (const MapRun& run : runs) {
    w.BeginObject();
    w.Field("name", run.name);
    w.Field("nodes", run.nodes);
    w.Field("edges", run.edges);
    w.Key("algorithms").BeginArray();
    for (const AlgoResult& algo : run.algos) {
      w.BeginObject();
      w.Field("name", algo.name);
      w.Key("configs").BeginArray();
      for (const ConfigResult& r : algo.configs) {
        w.BeginObject();
        w.Field("layout", graph::StoreLayoutName(r.layout));
        w.Field("blocks_read", r.blocks_read);
        w.Field("blocks_written", r.blocks_written);
        w.Field("hits", r.hits);
        w.Field("misses", r.misses);
        w.Field("iterations", r.iterations);
        w.Field("elapsed_ms", r.elapsed_ms);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  return FinishBenchFile(
      w, path,
      {{"minneapolis_like/astar_v2/block_reduction_hilbert_vs_roworder",
        reduction, Better::kHigher, 0.25, /*relative=*/false}});
}

int Run(const std::string& json_path, bool quick) {
  PrintHeader("Physical locality: layout x algorithm",
              "Distinct block reads (cold pool, every block a first touch) "
              "and wall time\nfor row-order vs Hilbert-clustered heap "
              "files. Answers are checked\nbit-identical across both "
              "layouts — layout is a physical knob only.");

  std::vector<MapRun> runs;
  runs.push_back(RunMap("grid30_uniform",
                        MakeGrid(30, graph::GridCostModel::kUniform),
                        GridTrips(30), quick));
  const graph::RoadMap rm = ValueOrDie(graph::GenerateMinneapolisLike());
  runs.push_back(
      RunMap("minneapolis_like", rm.graph, RoadMapTrips(rm), quick));

  for (const MapRun& run : runs) PrintMap(run);

  // Acceptance: clustering must cut the distinct-block count for the
  // paper's Euclidean A* on the road map by >= 25%.
  const double reduction =
      Reduction(runs.back().algos[1], graph::StoreLayout::kHilbert);
  return EmitJson(runs, quick, reduction, json_path);
}

}  // namespace
}  // namespace atis::bench

int main(int argc, char** argv) {
  bool quick = false;
  const std::string json_path = atis::bench::ParseBenchArgs(
      argc, argv, "locality", {{"--quick", &quick}});
  return atis::bench::Run(json_path, quick);
}
