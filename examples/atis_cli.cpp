// atis_cli — command-line front end to the library: generate maps, inspect
// them, and answer route queries.
//
//   atis_cli generate grid <k> <uniform|variance|skewed> <file>
//   atis_cli generate roadmap <file>
//   atis_cli info <file>
//   atis_cli route <file> <src> <dst> [astar|dijkstra|iterative|bidir]
//                  [manhattan|euclidean] [weight]
//   atis_cli dbroute <file> <src> <dst>
//                  [dijkstra|iterative|astar1|astar2|astar3|astar4|astar5]
//                  [--landmarks=K] [--cell-order=N] [--trace[=FILE]]
//                  [--metrics=FILE]
//   atis_cli serve <file> --queries=FILE [--workers=N]
//                  [--latency=READ_US,WRITE_US] [--landmarks=K]
//                  [--algorithm=ALGO] [--cell-order=N]
//                  [--cache[=CAPACITY]] [--fault-rate=P] [--deadline-ms=MS]
//                  [--degraded] [--json=FILE] [--metrics=FILE]
//                  [--wal-dir=DIR] [--checkpoint-every=N] [--update-rate=R]
//   atis_cli alternates <file> <src> <dst> <k>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/advanced_search.h"
#include "core/db_search.h"
#include "core/landmarks.h"
#include "core/overlay.h"
#include "core/route_server.h"
#include "core/k_shortest.h"
#include "core/memory_search.h"
#include "core/route_service.h"
#include "core/sssp.h"
#include "graph/continent_generator.h"
#include "graph/graph_io.h"
#include "graph/partitioned_store.h"
#include "graph/grid_generator.h"
#include "graph/relational_graph.h"
#include "graph/road_map_generator.h"
#include "graph/svg_export.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/storage_collectors.h"
#include "obs/trace.h"
#include "obs/trace_ring.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/parse_number.h"

namespace {

using namespace atis;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s generate grid <k> <uniform|variance|skewed> <file>\n"
      "  %s generate roadmap <file>\n"
      "  %s info <file>\n"
      "  %s route <file> <src> <dst> [astar|dijkstra|iterative|bidir]"
      " [manhattan|euclidean] [weight]\n"
      "  %s dbroute <file> <src> <dst>"
      " [dijkstra|iterative|astar1|astar2|astar3|astar4|astar5]"
      " [--landmarks=K] [--cell-order=N] [--trace[=FILE]]"
      " [--metrics=FILE]\n"
      "  %s serve <file> --queries=FILE [--workers=N]"
      " [--latency=READ_US,WRITE_US] [--landmarks=K] [--cache[=CAPACITY]]"
      " [--fault-rate=P] [--deadline-ms=MS] [--degraded]"
      " [--layout=roworder|hilbert]"
      " [--algorithm=ALGO] [--cell-order=N]"
      " [--obs-port=P] [--sample-every=N] [--trace-dir=DIR]"
      " [--slow-query-ms=MS] [--slow-query-log=FILE] [--repeat=N]"
      " [--max-batch=N]"
      " [--json=FILE] [--metrics=FILE]\n"
      "  %s alternates <file> <src> <dst> <k>\n"
      "  %s svg <file> <src> <dst> <out.svg>\n"
      "  %s continent generate <file> [--cities=N] [--city-k=K]"
      " [--seed=S]\n"
      "  %s continent route <file> <src> <dst>"
      " [--max-partition-nodes=N] [--workers=N]\n"
      "dbroute runs the database-resident engine; astar4 uses the landmark\n"
      "(ALT) estimator over --landmarks=K precomputed landmarks (default\n"
      "8); astar5 searches the customizable partition-boundary overlay\n"
      "(--cell-order=N Hilbert partition, default 1) and also enables the\n"
      "landmark heuristic; --trace prints the span tree (with =FILE:\n"
      "Chrome trace_event JSON), --metrics writes a Prometheus-text\n"
      "metrics dump ('-' = stdout).\n"
      "serve answers a batch of queries (lines: 'src dst [algorithm]',\n"
      "'#' comments) on a worker pool sharing one sharded buffer pool;\n"
      "--latency simulates per-block device waits, --landmarks enables\n"
      "astar4 queries, --cache memoises results in an epoch-invalidated\n"
      "LRU, --json writes the per-query responses ('-' = stdout).\n"
      "serve resilience: --fault-rate injects seeded transient disk\n"
      "faults (retried with backoff), --deadline-ms bounds each query,\n"
      "--degraded falls back to stale cache / in-memory snapshot answers\n"
      "instead of failing.\n"
      "serve locality: --layout picks the physical store layout (default:\n"
      "the layout recorded in an ATISG2 file, else roworder; hilbert\n"
      "clusters spatially-near tuples into shared blocks).\n"
      "serve observability: --obs-port=P serves /metrics, /metrics.json,\n"
      "/healthz and /statusz on 127.0.0.1:P while the batch runs (P=0\n"
      "binds an ephemeral port, printed on startup), --sample-every=N\n"
      "persists every Nth query's span tree (plus every slow, degraded,\n"
      "or errored one) to --trace-dir (default atis-traces),\n"
      "--slow-query-ms=MS appends queries at or over MS to the JSONL\n"
      "--slow-query-log (default slow_queries.jsonl), --repeat=N serves\n"
      "the batch N times (keeps the endpoint up for scrapes).\n"
      "serve overlay: --algorithm=ALGO sets the default algorithm for\n"
      "query lines that name none (default astar3); --cell-order=N builds\n"
      "the Version 5 overlay at that Hilbert order (implied at order 1\n"
      "when astar5 queries are present), and traffic updates then\n"
      "re-customize only the touched cell.\n"
      "serve batching: --max-batch=N groups up to N queued queries whose\n"
      "sources share a map region into one batch (shared adjacency scans,\n"
      "coalesced duplicates; answers stay bit-identical). A batch takes\n"
      "only the queries already queued; it never waits for more.\n"
      "serve durability: --wal-dir=DIR write-ahead-logs every cost update\n"
      "(fsync at commit) and replays checkpoint + log on restart, so a\n"
      "crash loses no acknowledged update; --checkpoint-every=N rolls the\n"
      "log into a checkpoint every N committed batches; --update-rate=R\n"
      "feeds R synthetic edge-cost updates/sec from a background writer\n"
      "while the --repeat loop serves (queries never block on writers).\n"
      "continent generate streams a deterministic multi-city map to an\n"
      "ATISG2 file without ever materialising it (--cities=N city\n"
      "clusters of --city-k^2 nodes each, default 9 x 18^2); continent\n"
      "route builds a Hilbert-range partitioned store from the file\n"
      "(bounded memory; one 32767-node-capped region store per range)\n"
      "and answers the query exactly through the partition-boundary\n"
      "overlay on the route server's worker pool.\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
      argv0);
  return 2;
}

/// Parses the whole of `text` as a T in [lo, hi] (util::ParseNumber). On
/// failure prints "<expect>, got '<text>'" and returns false; callers then
/// exit 2 rather than act on a guessed value.
template <typename T>
bool ParseNumber(std::string_view text, const char* expect, T* out,
                 T lo = std::numeric_limits<T>::lowest(),
                 T hi = std::numeric_limits<T>::max()) {
  const std::optional<T> value = util::ParseNumber<T>(text, lo, hi);
  if (!value) {
    std::fprintf(stderr, "%s, got '%.*s'\n", expect,
                 static_cast<int>(text.size()), text.data());
    return false;
  }
  *out = *value;
  return true;
}

/// A node id argument: a non-negative int32 (the store's id type).
bool ParseNode(std::string_view text, graph::NodeId* out) {
  return ParseNumber(text, "node id wants an integer >= 0", out,
                     graph::NodeId{0});
}

/// The value of a "--name=value" flag, given its "--name=" prefix.
std::string_view FlagValue(const std::string& arg, std::string_view prefix) {
  return std::string_view(arg).substr(prefix.size());
}

Result<graph::Graph> Load(const std::string& path) {
  return graph::LoadGraphFile(path);
}

/// Subcommands that accept no flags call this so a stray --option fails
/// loudly with usage instead of being read as a positional argument.
bool RejectFlags(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

int CmdGenerate(int argc, char** argv, const char* argv0) {
  if (argc >= 2 && std::strcmp(argv[0], "roadmap") == 0) {
    auto rm = graph::GenerateMinneapolisLike();
    if (!rm.ok()) {
      std::fprintf(stderr, "%s\n", rm.status().ToString().c_str());
      return 1;
    }
    if (auto st = graph::SaveGraphFile(rm->graph, argv[1]); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu nodes, %zu edges); landmarks A=%d B=%d "
                "C=%d D=%d E=%d F=%d G=%d\n",
                argv[1], rm->graph.num_nodes(), rm->graph.num_edges(),
                rm->a, rm->b, rm->c, rm->d, rm->e, rm->f, rm->g);
    return 0;
  }
  if (argc >= 4 && std::strcmp(argv[0], "grid") == 0) {
    graph::GridGraphGenerator::Options opt;
    if (!ParseNumber(argv[1], "grid side k wants an integer", &opt.k)) {
      return 2;
    }
    const std::string model = argv[2];
    if (model == "uniform") {
      opt.cost_model = graph::GridCostModel::kUniform;
    } else if (model == "variance") {
      opt.cost_model = graph::GridCostModel::kVariance20;
    } else if (model == "skewed") {
      opt.cost_model = graph::GridCostModel::kSkewed;
    } else {
      return Usage(argv0);
    }
    auto g = graph::GridGraphGenerator::Generate(opt);
    if (!g.ok()) {
      std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
      return 1;
    }
    if (auto st = graph::SaveGraphFile(*g, argv[3]); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu nodes, %zu edges)\n", argv[3],
                g->num_nodes(), g->num_edges());
    return 0;
  }
  return Usage(argv0);
}

int CmdInfo(const std::string& path) {
  auto g = Load(path);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu nodes, %zu directed edges, average degree %.2f\n",
              path.c_str(), g->num_nodes(), g->num_edges(),
              g->AverageDegree());
  if (g->num_nodes() <= 2500) {
    auto diameter = core::GraphDiameter(*g);
    if (diameter.ok()) {
      std::printf("cost diameter: %.3f\n", *diameter);
    }
  } else {
    std::printf("cost diameter: skipped (graph too large for exact "
                "all-pairs)\n");
  }
  return 0;
}

int CmdRoute(int argc, char** argv) {
  auto g = Load(argv[0]);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  graph::NodeId src = 0, dst = 0;
  double weight = 1.0;
  if (!ParseNode(argv[1], &src) || !ParseNode(argv[2], &dst) ||
      (argc > 5 &&
       !ParseNumber(argv[5], "weight wants a number >= 0", &weight, 0.0))) {
    return 2;
  }
  const std::string algo = argc > 3 ? argv[3] : "astar";
  const std::string est = argc > 4 ? argv[4] : "euclidean";

  auto estimator = core::MakeEstimator(
      est == "manhattan" ? core::EstimatorKind::kManhattan
                         : core::EstimatorKind::kEuclidean);
  core::MemorySearchOptions opt;
  opt.estimator_known_admissible = false;  // unknown user graph

  core::PathResult r;
  if (algo == "dijkstra") {
    r = core::DijkstraSearch(*g, src, dst);
  } else if (algo == "iterative") {
    r = core::IterativeBfsSearch(*g, src, dst);
  } else if (algo == "bidir") {
    r = core::BidirectionalDijkstra(*g, src, dst);
  } else {
    r = core::WeightedAStarSearch(*g, src, dst, *estimator, weight, opt);
  }
  if (!r.found) {
    std::printf("no route from %d to %d\n", src, dst);
    return 1;
  }
  std::printf("cost %.4f over %zu segments (%llu nodes examined%s)\n",
              r.cost, r.path.size() - 1,
              (unsigned long long)r.stats.nodes_expanded,
              r.optimality_guaranteed ? ", optimal" : "");
  std::printf("%s", core::RenderDirections(*g, r.path).c_str());
  return 0;
}

bool WriteFileOrStdout(const std::string& path, const std::string& body) {
  if (path == "-") {
    std::printf("%s", body.c_str());
    return true;
  }
  std::ofstream out(path);
  out << body;
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int CmdDbRoute(int argc, char** argv, const char* argv0) {
  std::string algo = "astar2";
  bool trace = false;
  std::string trace_file;    // empty = print the tree to stdout
  std::string metrics_file;  // empty = no metrics dump
  size_t num_landmarks = 8;   // only read for astar4/astar5
  uint32_t cell_order = 1;    // only read for astar5
  std::vector<const char*> positional;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace = true;
      trace_file = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_file = arg.substr(10);
    } else if (arg.rfind("--landmarks=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--landmarks="),
                       "--landmarks wants a positive count", &num_landmarks,
                       size_t{1})) {
        return 2;
      }
    } else if (arg.rfind("--cell-order=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--cell-order="),
                       "--cell-order wants a positive order", &cell_order,
                       uint32_t{1})) {
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage(argv0);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 3) return Usage(argv0);
  graph::NodeId src = 0, dst = 0;
  if (!ParseNode(positional[1], &src) || !ParseNode(positional[2], &dst)) {
    return 2;
  }
  auto g = Load(positional[0]);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  if (positional.size() > 3) algo = positional[3];
  if (algo != "dijkstra" && algo != "iterative" && algo != "astar1" &&
      algo != "astar2" && algo != "astar3" && algo != "astar4" &&
      algo != "astar5") {
    std::fprintf(stderr, "unknown algorithm %s\n", algo.c_str());
    return Usage(argv0);
  }

  storage::DiskManager disk;
  storage::BufferPool pool(&disk, /*num_frames=*/64);
  graph::RelationalGraphStore store(&pool);
  if (auto st = store.Load(*g); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  core::DbSearchOptions opt;
  opt.estimator_known_admissible = false;  // unknown user graph
  core::DbSearchEngine engine(&store, &pool, opt);

  if (algo == "astar4" || algo == "astar5") {
    core::LandmarkOptions lm;
    lm.num_landmarks = num_landmarks;
    auto selected = core::SelectLandmarks(core::WithStoredEdgeCosts(*g), lm);
    if (!selected.ok()) {
      std::fprintf(stderr, "%s\n", selected.status().ToString().c_str());
      return 1;
    }
    auto table = core::PersistAndLoadLandmarks(*selected, &store);
    if (!table.ok()) {
      std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
      return 1;
    }
    if (auto st = engine.EnableLandmarks(
            core::MakeLandmarkEstimator(std::move(table).value()));
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (algo == "astar5") {
    core::OverlayOptions oopt;
    oopt.cell_order = cell_order;
    auto built = core::OverlayTopology::Build(*g, oopt);
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    auto topo = core::PersistAndLoadOverlayTopology(*built, &store, *g);
    if (!topo.ok()) {
      std::fprintf(stderr, "%s\n", topo.status().ToString().c_str());
      return 1;
    }
    auto cust = core::CustomizeOverlay(
        **topo, core::WithStoredEdgeCosts(*g), /*metric_version=*/1);
    if (!cust.ok()) {
      std::fprintf(stderr, "%s\n", cust.status().ToString().c_str());
      return 1;
    }
    auto index = std::make_shared<core::OverlayIndex>(
        core::OverlayIndex{std::move(topo).value(),
                           std::move(cust).value()});
    if (auto st = engine.EnableOverlay(std::move(index)); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  auto& registry = obs::MetricsRegistry::Default();
  obs::RegisterStorageCollectors(registry, &disk, &pool);

  obs::Tracer tracer(&disk, &pool);
  Result<core::PathResult> r = [&]() -> Result<core::PathResult> {
    obs::Tracer::InstallScope scope(trace ? &tracer : nullptr);
    if (algo == "dijkstra") return engine.Dijkstra(src, dst);
    if (algo == "iterative") return engine.Iterative(src, dst);
    if (algo == "astar1") {
      return engine.AStar(src, dst, core::AStarVersion::kV1);
    }
    if (algo == "astar3") {
      return engine.AStar(src, dst, core::AStarVersion::kV3);
    }
    if (algo == "astar4") {
      return engine.AStar(src, dst, core::AStarVersion::kV4);
    }
    if (algo == "astar5") {
      return engine.AStar(src, dst, core::AStarVersion::kV5);
    }
    return engine.AStar(src, dst, core::AStarVersion::kV2);
  }();
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }

  if (!r->found) {
    std::printf("no route from %d to %d\n", src, dst);
  } else {
    std::printf("cost %.4f over %zu segments\n", r->cost,
                r->path.size() - 1);
  }
  std::printf("%llu iterations; %s\n",
              (unsigned long long)r->stats.iterations,
              r->stats.io.ToString().c_str());

  if (trace) {
    if (trace_file.empty()) {
      std::printf("%s",
                  tracer.ToTreeString(engine.options().cost_params).c_str());
    } else if (!WriteFileOrStdout(trace_file,
                                  tracer.ToChromeTraceJson())) {
      return 1;
    }
  }
  if (!metrics_file.empty() &&
      !WriteFileOrStdout(metrics_file, registry.ToPrometheusText())) {
    return 1;
  }
  return r->found ? 0 : 1;
}

bool ParseQueryLine(const std::string& line, size_t lineno,
                    const std::string& default_algo, core::RouteQuery* q) {
  std::istringstream in(line);
  std::string src, dst;
  std::string algo = default_algo;
  if (!(in >> src >> dst)) {
    std::fprintf(stderr, "queries line %zu: expected 'src dst [algorithm]'\n",
                 lineno);
    return false;
  }
  if (!ParseNode(src, &q->source) || !ParseNode(dst, &q->destination)) {
    std::fprintf(stderr, "queries line %zu: bad node id\n", lineno);
    return false;
  }
  in >> algo;
  if (algo == "dijkstra") {
    q->algorithm = core::Algorithm::kDijkstra;
  } else if (algo == "iterative") {
    q->algorithm = core::Algorithm::kIterative;
  } else if (algo == "astar1" || algo == "astar2" || algo == "astar3" ||
             algo == "astar4" || algo == "astar5") {
    q->algorithm = core::Algorithm::kAStar;
    q->version = algo == "astar1"   ? core::AStarVersion::kV1
                 : algo == "astar2" ? core::AStarVersion::kV2
                 : algo == "astar3" ? core::AStarVersion::kV3
                 : algo == "astar4" ? core::AStarVersion::kV4
                                    : core::AStarVersion::kV5;
  } else {
    std::fprintf(stderr, "queries line %zu: unknown algorithm %s\n", lineno,
                 algo.c_str());
    return false;
  }
  return true;
}

int CmdServe(int argc, char** argv, const char* argv0) {
  size_t workers = 4;
  size_t num_landmarks = 0;
  bool enable_cache = false;
  size_t cache_capacity = 0;  // 0 = library default
  bool degraded = false;
  double fault_rate = 0.0;
  uint64_t deadline_ms = 0;
  bool layout_flag = false;
  graph::StoreLayout layout = graph::StoreLayout::kRowOrder;
  int obs_port = -1;  // -1 = no exporter; 0 = ephemeral
  uint64_t sample_every = 0;
  double slow_query_ms = 0.0;
  std::string trace_dir = "atis-traces";
  std::string slow_query_log = "slow_queries.jsonl";
  size_t repeat = 1;
  size_t max_batch = 1;
  uint32_t cell_order = 0;  // 0 = no overlay unless astar5 queries demand it
  std::string wal_dir;          // empty = durability off
  double update_rate = 0.0;     // synthetic edge-cost updates per second
  uint64_t checkpoint_every = 0;  // WAL batches per checkpoint, 0 = never
  std::string default_algo = "astar3";
  std::string queries_file, json_file, metrics_file;
  storage::DiskLatencyModel latency;
  std::vector<const char*> positional;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--workers="),
                       "--workers wants a positive count", &workers,
                       size_t{1})) {
        return 2;
      }
    } else if (arg.rfind("--queries=", 0) == 0) {
      queries_file = arg.substr(10);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_file = arg.substr(7);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_file = arg.substr(10);
    } else if (arg.rfind("--landmarks=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--landmarks="),
                       "--landmarks wants a positive count", &num_landmarks,
                       size_t{1})) {
        return 2;
      }
    } else if (arg == "--cache") {
      enable_cache = true;
    } else if (arg.rfind("--cache=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--cache="),
                       "--cache wants a positive capacity", &cache_capacity,
                       size_t{1})) {
        return 2;
      }
      enable_cache = true;
    } else if (arg.rfind("--latency=", 0) == 0) {
      const std::string_view value = FlagValue(arg, "--latency=");
      const size_t comma = value.find(',');
      const char* expect = "--latency wants READ_US,WRITE_US";
      if (comma == std::string_view::npos ||
          !ParseNumber(value.substr(0, comma), expect, &latency.read_micros) ||
          !ParseNumber(value.substr(comma + 1), expect,
                       &latency.write_micros)) {
        return 2;
      }
    } else if (arg.rfind("--fault-rate=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--fault-rate="),
                       "--fault-rate wants a probability in [0,1)",
                       &fault_rate, 0.0, std::nextafter(1.0, 0.0))) {
        return 2;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--deadline-ms="),
                       "--deadline-ms wants a positive count", &deadline_ms,
                       uint64_t{1})) {
        return 2;
      }
    } else if (arg == "--degraded") {
      degraded = true;
    } else if (arg.rfind("--layout=", 0) == 0) {
      if (!graph::StoreLayoutFromName(arg.substr(9), &layout)) {
        std::fprintf(stderr, "--layout wants roworder or hilbert\n");
        return 2;
      }
      layout_flag = true;
    } else if (arg.rfind("--obs-port=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--obs-port="),
                       "--obs-port wants a port in [0, 65535]", &obs_port, 0,
                       65535)) {
        return 2;
      }
    } else if (arg.rfind("--sample-every=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--sample-every="),
                       "--sample-every wants a positive N", &sample_every,
                       uint64_t{1})) {
        return 2;
      }
    } else if (arg.rfind("--trace-dir=", 0) == 0) {
      trace_dir = arg.substr(12);
    } else if (arg.rfind("--slow-query-ms=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--slow-query-ms="),
                       "--slow-query-ms wants a positive threshold",
                       &slow_query_ms, std::numeric_limits<double>::min())) {
        return 2;
      }
    } else if (arg.rfind("--slow-query-log=", 0) == 0) {
      slow_query_log = arg.substr(17);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--repeat="),
                       "--repeat wants a positive count", &repeat,
                       size_t{1})) {
        return 2;
      }
    } else if (arg.rfind("--max-batch=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--max-batch="),
                       "--max-batch wants a positive count", &max_batch,
                       size_t{1})) {
        return 2;
      }
    } else if (arg.rfind("--algorithm=", 0) == 0) {
      default_algo = arg.substr(12);
    } else if (arg.rfind("--cell-order=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--cell-order="),
                       "--cell-order wants a positive order", &cell_order,
                       uint32_t{1})) {
        return 2;
      }
    } else if (arg.rfind("--wal-dir=", 0) == 0) {
      wal_dir = arg.substr(10);
    } else if (arg.rfind("--update-rate=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--update-rate="),
                       "--update-rate wants a rate >= 0", &update_rate,
                       0.0)) {
        return 2;
      }
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      if (!ParseNumber(FlagValue(arg, "--checkpoint-every="),
                       "--checkpoint-every wants a count >= 0",
                       &checkpoint_every)) {
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage(argv0);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() != 1 || queries_file.empty()) return Usage(argv0);

  // The graph file's header layout (ATISG2) is the default; an explicit
  // --layout flag overrides it.
  auto gf = graph::LoadGraphFileWithLayout(positional[0]);
  if (!gf.ok()) {
    std::fprintf(stderr, "%s\n", gf.status().ToString().c_str());
    return 1;
  }
  if (!layout_flag) layout = gf.value().layout;
  const graph::Graph& served_graph = gf.value().graph;

  std::ifstream qin(queries_file);
  if (!qin.good()) {
    std::fprintf(stderr, "cannot read %s\n", queries_file.c_str());
    return 1;
  }
  std::vector<core::RouteQuery> queries;
  std::string line;
  for (size_t lineno = 1; std::getline(qin, line); ++lineno) {
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    core::RouteQuery q;
    if (!ParseQueryLine(line, lineno, default_algo, &q)) return 2;
    queries.push_back(q);
  }
  if (queries.empty()) {
    std::fprintf(stderr, "%s holds no queries\n", queries_file.c_str());
    return 1;
  }
  // Version 5 needs the overlay; build it at order 1 when the flag was not
  // given but astar5 queries are present.
  const bool wants_v5 = std::any_of(
      queries.begin(), queries.end(), [](const core::RouteQuery& q) {
        return q.algorithm == core::Algorithm::kAStar &&
               q.version == core::AStarVersion::kV5;
      });
  if (wants_v5 && cell_order == 0) cell_order = 1;

  core::RouteServer::Options opt;
  opt.num_workers = workers;
  opt.disk_latency = latency;
  opt.search.estimator_known_admissible = false;  // unknown user graph
  opt.num_landmarks = num_landmarks;
  opt.enable_cache = enable_cache;
  if (cache_capacity > 0) opt.cache.capacity = cache_capacity;
  opt.default_deadline_ms = deadline_ms;
  opt.enable_degraded = degraded;
  opt.layout = layout;
  opt.overlay_cell_order = cell_order;
  opt.max_batch = max_batch;
  opt.wal.dir = wal_dir;
  opt.wal.checkpoint_every = checkpoint_every;
  if (fault_rate > 0.0) {
    opt.fault_profile.transient_rate = fault_rate;
    opt.retry.max_attempts = 4;  // absorb most transient faults in place
  }
  opt.obs.sample_every = sample_every;
  opt.obs.trace_dir = trace_dir;
  opt.obs.slow_query_ms = slow_query_ms;
  opt.obs.slow_query_log_path = slow_query_log;
  // Rolling SLO windows only earn their mutex when someone can read them.
  opt.obs.enable_slo = obs_port >= 0;
  core::RouteServer server(served_graph, opt);
  if (!server.init_status().ok()) {
    std::fprintf(stderr, "%s\n", server.init_status().ToString().c_str());
    return 1;
  }
  // Storage-layer series (block I/O, retries, injected faults) join the
  // --metrics dump, which happens before `server` goes out of scope.
  obs::RegisterStorageCollectors(obs::MetricsRegistry::Default(),
                                 &server.disk(), &server.pool());

  // Declared after `server` so the exporter (whose callbacks reach into
  // the server) is destroyed first.
  std::unique_ptr<obs::HttpExporter> exporter;
  if (obs_port >= 0) {
    obs::HttpExporter::Options eopt;
    eopt.port = static_cast<uint16_t>(obs_port);
    eopt.statusz = [&server] { return server.StatuszJson(); };
    eopt.refresh = [&server] { server.RefreshObsGauges(); };
    auto started_exporter = obs::HttpExporter::Start(std::move(eopt));
    if (!started_exporter.ok()) {
      std::fprintf(stderr, "%s\n",
                   started_exporter.status().ToString().c_str());
      return 1;
    }
    exporter = std::move(started_exporter).value();
    // Parsed by scripts (check_metrics.py): keep the format stable.
    std::printf("obs exporter listening on %s:%u\n",
                exporter->host().c_str(), exporter->port());
    std::fflush(stdout);
  }

  // Synthetic traffic feed: a background writer perturbing random edge
  // costs at --update-rate while the serve loop runs, exercising the
  // durable write path under live queries. Queries never block on it —
  // each batch pins the metric version published at claim time.
  std::atomic<bool> stop_updates{false};
  std::atomic<uint64_t> updates_sent{0};
  std::thread updater;
  if (update_rate > 0.0) {
    updater = std::thread([&] {
      std::mt19937_64 rng(42);
      std::uniform_int_distribution<graph::NodeId> pick(
          0, static_cast<graph::NodeId>(served_graph.num_nodes()) - 1);
      std::uniform_real_distribution<double> jitter(0.8, 1.25);
      const auto interval =
          std::chrono::duration<double>(1.0 / update_rate);
      while (!stop_updates.load(std::memory_order_relaxed)) {
        const graph::NodeId u = pick(rng);
        const std::span<const graph::Edge> out = served_graph.Neighbors(u);
        if (!out.empty()) {
          const graph::Edge& e = out[rng() % out.size()];
          if (server.UpdateEdgeCost(u, e.to, e.cost * jitter(rng)).ok()) {
            updates_sent.fetch_add(1, std::memory_order_relaxed);
          }
        }
        std::this_thread::sleep_for(interval);
      }
    });
  }

  const auto started = std::chrono::steady_clock::now();
  Result<std::vector<core::RouteResponse>> batch =
      std::vector<core::RouteResponse>();
  for (size_t round = 0; round < repeat; ++round) {
    batch = server.ServeBatch(queries);
    if (!batch.ok()) break;
  }
  stop_updates.store(true, std::memory_order_relaxed);
  if (updater.joinable()) updater.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count() /
      static_cast<double>(repeat);
  if (!batch.ok()) {
    std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
    return 1;
  }

  size_t failures = 0, degraded_answers = 0;
  std::vector<double> latencies;
  latencies.reserve(batch->size());
  for (const core::RouteResponse& resp : *batch) {
    latencies.push_back(resp.latency_seconds);
    if (!resp.status.ok() || !resp.result.found) ++failures;
    if (resp.degraded) ++degraded_answers;
  }
  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double p) {
    const size_t i = static_cast<size_t>(p / 100.0 *
                                         static_cast<double>(
                                             latencies.size() - 1));
    return 1e3 * latencies[i];
  };
  std::printf("%zu queries on %zu workers in %.3fs: %.1f queries/s; "
              "per-query p50 %.2fms p95 %.2fms p99 %.2fms; %zu "
              "unanswered, %zu degraded\n",
              batch->size(), server.num_workers(), elapsed,
              static_cast<double>(batch->size()) / elapsed, pct(50), pct(95),
              pct(99), failures, degraded_answers);
  if (server.cache() != nullptr) {
    const core::RouteCache::Stats cs = server.cache()->stats();
    std::printf("route cache: %llu hits, %llu misses, %llu stale "
                "evictions, %zu resident\n",
                (unsigned long long)cs.hits, (unsigned long long)cs.misses,
                (unsigned long long)cs.stale_evictions,
                server.cache()->size());
  }
  {
    const core::RouteServer::IngestStats ing = server.ingest_stats();
    if (ing.wal_enabled || ing.update_batches > 0 ||
        updates_sent.load() > 0) {
      std::printf(
          "ingestion: %llu batches (%llu edge updates) applied at metric "
          "version %llu; %llu worker catch-ups\n",
          (unsigned long long)ing.update_batches,
          (unsigned long long)ing.updates_applied,
          (unsigned long long)server.published_version(),
          (unsigned long long)ing.worker_catchups);
      if (ing.wal_enabled) {
        std::printf(
            "wal: %llu frames (%llu bytes, %llu checkpoints) committed "
            "through seq %llu; recovery replayed %llu batches in %.3fs%s\n",
            (unsigned long long)ing.appended_batches,
            (unsigned long long)ing.bytes_appended,
            (unsigned long long)ing.checkpoints,
            (unsigned long long)ing.last_seq,
            (unsigned long long)ing.recovered_batches, ing.recovery_seconds,
            ing.recovery_torn_tail ? " (torn tail truncated)" : "");
      }
    }
  }
  if (server.trace_ring() != nullptr) {
    std::printf("traces: %llu span trees in %s (1 in %llu sampled)\n",
                (unsigned long long)server.trace_ring()->appended(),
                server.trace_ring()->directory().c_str(),
                (unsigned long long)sample_every);
  }
  if (server.slow_query_log() != nullptr) {
    std::printf("slow queries (>= %.1fms): %llu logged to %s\n",
                slow_query_ms,
                (unsigned long long)server.slow_query_log()
                    ->records_written(),
                server.slow_query_log()->path().c_str());
  }

  if (!json_file.empty()) {
    std::ostringstream out;
    out << "{\n  \"queries\": [";
    for (size_t i = 0; i < batch->size(); ++i) {
      const core::RouteResponse& r = (*batch)[i];
      out << (i == 0 ? "\n" : ",\n");
      out << "    {\"index\": " << r.query_index << ", \"source\": "
          << queries[i].source << ", \"destination\": "
          << queries[i].destination << ", \"ok\": "
          << ((r.status.ok() && r.result.found) ? "true" : "false")
          << ", \"cost\": " << r.result.cost << ", \"latency_ms\": "
          << 1e3 * r.latency_seconds << ", \"blocks_read\": "
          << r.io.blocks_read << ", \"worker\": " << r.worker_id
          << ", \"cache_hit\": " << (r.cache_hit ? "true" : "false")
          << ", \"degraded\": " << (r.degraded ? "true" : "false")
          << ", \"served_via\": \"" << core::ServedViaName(r.served_via)
          << "\"}";
    }
    out << "\n  ]\n}\n";
    if (!WriteFileOrStdout(json_file, out.str())) return 1;
  }
  if (!metrics_file.empty()) {
    server.RefreshObsGauges();  // SLO windows / uptime join the dump
    if (!WriteFileOrStdout(metrics_file, obs::MetricsRegistry::Default()
                                             .ToPrometheusText())) {
      return 1;
    }
  }
  return failures == 0 ? 0 : 1;
}

int CmdSvg(char** argv) {
  graph::NodeId src = 0, dst = 0;
  if (!ParseNode(argv[1], &src) || !ParseNode(argv[2], &dst)) return 2;
  auto g = Load(argv[0]);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  const auto r = core::DijkstraSearch(*g, src, dst);
  if (!r.found) {
    std::fprintf(stderr, "no route from %d to %d\n", src, dst);
    return 1;
  }
  if (auto st = graph::SaveSvgFile(*g, r.path, argv[3]); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (route cost %.4f, %zu segments)\n", argv[3],
              r.cost, r.path.size() - 1);
  return 0;
}

int CmdAlternates(char** argv) {
  graph::NodeId src = 0, dst = 0;
  size_t k = 0;
  if (!ParseNode(argv[1], &src) || !ParseNode(argv[2], &dst) ||
      !ParseNumber(argv[3], "k wants a positive count", &k, size_t{1})) {
    return 2;
  }
  auto g = Load(argv[0]);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  auto routes = core::KShortestPaths(*g, src, dst, k);
  if (!routes.ok()) {
    std::fprintf(stderr, "%s\n", routes.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < routes->size(); ++i) {
    std::printf("#%zu cost %.4f, %zu segments\n", i + 1,
                (*routes)[i].cost, (*routes)[i].path.size() - 1);
  }
  return 0;
}

int CmdContinent(int argc, char** argv, const char* argv0) {
  if (argc < 2) return Usage(argv0);
  const std::string verb = argv[0];
  std::vector<std::string> positional;
  int cities = 9, city_k = 18;
  uint64_t seed = 1993;
  size_t max_partition_nodes = 24000, workers = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // 1 when `arg` is --name=<value in [lo, max]>, -1 when the value is
    // bad, 0 when `arg` is another flag.
    auto flag = [&arg](std::string_view prefix, const char* expect,
                       auto* out, auto lo) {
      if (arg.rfind(prefix, 0) != 0) return 0;
      return ParseNumber(FlagValue(arg, prefix), expect, out, lo) ? 1 : -1;
    };
    const int matched =
        flag("--cities=", "--cities wants a positive count", &cities, 1) +
        flag("--city-k=", "--city-k wants a positive side", &city_k, 1) +
        flag("--seed=", "--seed wants an integer >= 0", &seed, uint64_t{0}) +
        flag("--max-partition-nodes=",
             "--max-partition-nodes wants a positive count",
             &max_partition_nodes, size_t{1}) +
        flag("--workers=", "--workers wants a positive count", &workers,
             size_t{1});
    if (matched < 0) return 2;
    if (matched > 0) continue;
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage(argv0);
    }
    positional.push_back(arg);
  }

  if (verb == "generate") {
    if (positional.size() != 1) return Usage(argv0);
    graph::ContinentOptions options;
    options.num_cities = cities;
    options.city_k = city_k;
    options.seed = seed;
    auto gen = graph::ContinentGenerator::Create(options);
    if (!gen.ok()) {
      std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
      return 1;
    }
    if (auto st = gen->WriteTo(positional[0]); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%llu nodes, %llu directed edges, %d cities)\n",
                positional[0].c_str(),
                static_cast<unsigned long long>(gen->num_nodes()),
                static_cast<unsigned long long>(gen->CountEdges()), cities);
    return 0;
  }

  if (verb == "route") {
    if (positional.size() != 3) return Usage(argv0);
    core::RouteQuery query;
    if (!ParseNode(positional[1], &query.source) ||
        !ParseNode(positional[2], &query.destination)) {
      return 2;
    }
    query.algorithm = core::Algorithm::kAStar;
    query.version = core::AStarVersion::kV5;
    graph::PartitionedStoreOptions partitioning;
    partitioning.max_partition_nodes = max_partition_nodes;
    core::RouteServer::Options server_options;
    server_options.num_workers = workers;
    server_options.pool_frames = 4096;
    server_options.pool_shards = 8;
    const auto t0 = std::chrono::steady_clock::now();
    core::RouteServer server(positional[0], partitioning, server_options);
    if (!server.init_status().ok()) {
      std::fprintf(stderr, "%s\n", server.init_status().ToString().c_str());
      return 1;
    }
    const double build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const graph::PartitionedGraphStore& store = *server.partitioned_store();
    std::printf("built %zu partitions over %llu nodes (%zu boundary nodes, "
                "%zu cross edges) in %.2fs\n",
                store.num_partitions(),
                static_cast<unsigned long long>(store.num_nodes()),
                store.num_boundary_nodes(), store.num_cross_edges(),
                build_seconds);

    auto responses = server.ServeBatch({query});
    if (!responses.ok()) {
      std::fprintf(stderr, "%s\n", responses.status().ToString().c_str());
      return 1;
    }
    const core::RouteResponse& resp = (*responses)[0];
    if (!resp.status.ok()) {
      std::fprintf(stderr, "%s\n", resp.status.ToString().c_str());
      return 1;
    }
    if (!resp.result.found) {
      std::fprintf(stderr, "no route from %s to %s\n", positional[1].c_str(),
                   positional[2].c_str());
      return 1;
    }
    const bool cross = store.PartitionOf(query.source) !=
                       store.PartitionOf(query.destination);
    std::printf("route cost %.4f (%s, worker %d, %llu blocks, %.1fms)\n",
                resp.result.cost,
                cross ? "cross-partition stitch" : "single partition",
                resp.worker_id,
                static_cast<unsigned long long>(resp.io.blocks_read),
                resp.latency_seconds * 1e3);
    return 0;
  }

  return Usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string cmd = argv[1];
  // dbroute, serve, and continent parse their own flags; every other
  // subcommand is flag-free, so reject stray --options before positional
  // dispatch.
  if (cmd != "dbroute" && cmd != "serve" && cmd != "continent" &&
      !RejectFlags(argc - 2, argv + 2)) {
    return Usage(argv[0]);
  }
  if (cmd == "generate" && argc >= 4) {
    return CmdGenerate(argc - 2, argv + 2, argv[0]);
  }
  if (cmd == "info" && argc == 3) return CmdInfo(argv[2]);
  if (cmd == "route" && argc >= 5) return CmdRoute(argc - 2, argv + 2);
  if (cmd == "dbroute" && argc >= 5) {
    return CmdDbRoute(argc - 2, argv + 2, argv[0]);
  }
  if (cmd == "serve" && argc >= 4) {
    return CmdServe(argc - 2, argv + 2, argv[0]);
  }
  if (cmd == "continent" && argc >= 4) {
    return CmdContinent(argc - 2, argv + 2, argv[0]);
  }
  if (cmd == "alternates" && argc == 6) return CmdAlternates(argv + 2);
  if (cmd == "svg" && argc == 6) return CmdSvg(argv + 2);
  return Usage(argv[0]);
}
