// Shared experiment harness for the per-table/per-figure benchmark
// binaries. Each binary regenerates one table or figure of the paper's
// evaluation (Section 5), printing measured values next to the published
// ones so the reproduction can be eyeballed row by row.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/db_search.h"
#include "core/memory_search.h"
#include "core/route_server.h"
#include "graph/grid_generator.h"
#include "graph/relational_graph.h"
#include "graph/road_map_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/random.h"
#include "util/stats.h"

namespace atis::bench {

/// A database-resident copy of a graph plus a search engine over it.
/// Bundles the storage stack so experiment code stays declarative.
class DbInstance {
 public:
  /// Full configuration of the bundled storage stack. The two-argument
  /// constructor below is the common subset most benches need.
  struct Options {
    core::DbSearchOptions search;
    size_t pool_frames = 64;
    /// Physical order of the store's heap files (graph/spatial_layout.h).
    graph::StoreLayout layout = graph::StoreLayout::kRowOrder;
    /// Simulated device latency on the metered disk (off by default).
    storage::DiskLatencyModel disk_latency;
  };

  DbInstance(const graph::Graph& g, const Options& options);

  /// `options.cost_params` also drives reported cost units.
  explicit DbInstance(const graph::Graph& g,
                      core::DbSearchOptions options = {},
                      size_t pool_frames = 64);

  core::DbSearchEngine& engine() { return *engine_; }
  graph::RelationalGraphStore& store() { return *store_; }
  storage::DiskManager& disk() { return disk_; }
  storage::BufferPool& pool() { return *pool_; }

 private:
  storage::DiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<graph::RelationalGraphStore> store_;
  std::unique_ptr<core::DbSearchEngine> engine_;
};

/// One measured cell: iterations + simulated execution cost.
struct Cell {
  uint64_t iterations = 0;
  double cost_units = 0.0;
  uint64_t blocks = 0;  ///< blocks read + written
  double path_cost = 0.0;
  /// Buffer-pool hit rate over this run only (hits / (hits + misses);
  /// 0 when the run touched no pages).
  double hit_rate = 0.0;
  bool found = false;
};

Cell ToCell(const core::PathResult& r);

/// Runs `algorithm` on the db instance; aborts with a message on error
/// (benchmark binaries fail loudly rather than reporting bogus rows).
/// The buffer pool's statistics are reset before the run so `hit_rate`
/// covers exactly this query. With ATIS_TRACE set in the environment the
/// run executes under a Tracer and the span tree is printed to stderr.
Cell RunDb(DbInstance& db, core::Algorithm algorithm, graph::NodeId s,
           graph::NodeId d,
           core::AStarVersion version = core::AStarVersion::kV3);

/// Formats a cell's execution cost plus its buffer-pool hit rate, e.g.
/// "171.4 h38%" — the standard cost-column rendering of the bench tables.
std::string CostCell(const Cell& c);

/// Builds the paper's grid for a given size / cost model (seed 1993).
graph::Graph MakeGrid(int k, graph::GridCostModel model);

// -- Workloads --------------------------------------------------------------

/// Power-law sampler over ranks 0..n-1: P(k) ∝ 1/(k+1)^s, drawn from a
/// precomputed inverse-CDF table (one uniform + one binary search per
/// draw). s = 0 degenerates to uniform; larger s concentrates mass on the
/// first ranks. Deterministic given the caller's Rng.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t operator()(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// A named route between two nodes of a workload's map.
struct Trip {
  std::string name;
  graph::NodeId source = 0;
  graph::NodeId destination = 0;
};

/// The standard trips on a k x k grid: corner diagonal, anti-diagonal
/// and mid-to-corner.
std::vector<Trip> GridTrips(int k);

/// The paper's Minneapolis trips (Table 8): A->B, C->D, E->F, G->D.
std::vector<Trip> RoadMapTrips(const graph::RoadMap& rm);

/// A map with its trips. `euclidean_scale` is the ALT estimator's
/// Euclidean mix-in: 1 where edge costs dominate geometric distance (so
/// Version 2's Euclidean estimator is admissible too), 0 where not.
struct Workload {
  std::string name;
  graph::Graph graph;
  std::vector<Trip> trips;
  double euclidean_scale = 0.0;
};

/// The estimator studies' maps: grid10/20/30 under the uniform,
/// 20%-variance and skewed cost models, then the Minneapolis-like map.
std::vector<Workload> PaperWorkloads(const graph::RoadMap& rm);

/// Builds `n` reachable route queries (A* v3 defaults) whose *sources*
/// cluster in hot regions: nodes are bucketed into the coarse Hilbert
/// cells of the given order — the same core::RegionIndex key RouteServer
/// batches on — cells are ranked by population, and a Zipf(s) draw picks
/// the cell, so a few regions receive most of the traffic (the rush-hour
/// access pattern batching exploits). Destinations stay uniform over the
/// whole map. Deterministic in `seed`.
std::vector<core::RouteQuery> MakeSkewedQueries(const graph::Graph& g,
                                                size_t n, uint64_t seed,
                                                double zipf_s,
                                                uint32_t region_order);

// -- Serving benches --------------------------------------------------------
//
// The shared driver of the serving benches (bench_throughput, _batching,
// _alt_cache, _locality, _overlay, _ingest, _continent, _resilience):
// each keeps only its scenario and gets its command line, query stream,
// server, timed batches, parity check and gates from here.

/// Prints "fatal: <message>" to stderr and aborts: a bench fails loudly
/// rather than report a bogus row.
[[noreturn]] void Fatal(const std::string& message);

/// Fatal unless `st` is OK.
void CheckOk(const Status& st);

/// Wall time since `t0`, in seconds.
double SecondsSince(std::chrono::steady_clock::time_point t0);

/// The value of `r`; Fatal on error.
template <typename T>
T ValueOrDie(Result<T> r) {
  CheckOk(r.status());
  return std::move(r).value();
}

/// Parses a bench's command line. Each `--flag` named in `flags` sets its
/// bool; one positional argument is the BENCH JSON path, which defaults
/// to BENCH_<benchmark>.json (BENCH_<benchmark>_quick.json once a
/// "--quick" flag is set). Any other `-`-prefixed argument prints
/// "unknown flag: ..." and a second positional argument prints
/// "unexpected argument: ..."; both exit 2 before anything runs or is
/// written.
std::string ParseBenchArgs(
    int argc, char** argv, const std::string& benchmark,
    std::initializer_list<std::pair<std::string_view, bool*>> flags);

/// `n` queries between uniform random distinct nodes of a `num_nodes`-node
/// map, each a copy of `shape` (A* v3 by default) with its endpoints set.
/// With `routable_in`, only pairs that have a route there are kept (road
/// maps have unreachable islands). Deterministic in `seed`.
std::vector<core::RouteQuery> MakeQueries(
    size_t num_nodes, size_t n, uint64_t seed,
    const graph::Graph* routable_in = nullptr, core::RouteQuery shape = {});

/// `n` answerable A* v3 queries between uniform random nodes of `g`.
inline std::vector<core::RouteQuery> MakeQueries(const graph::Graph& g,
                                                 size_t n, uint64_t seed) {
  return MakeQueries(g.num_nodes(), n, seed, &g);
}

/// Constructs a RouteServer from `args`; Fatal unless it started.
template <typename... Args>
std::unique_ptr<core::RouteServer> StartServer(Args&&... args) {
  auto server =
      std::make_unique<core::RouteServer>(std::forward<Args>(args)...);
  CheckOk(server->init_status());
  return server;
}

/// What a served batch must hold; anything less is Fatal.
enum class Expect {
  kAnything,  ///< only the batch call itself must succeed
  kNoErrors,  ///< every response OK (found or not)
  kRoutes,    ///< every response OK and found
};

/// Served responses and their summary: QPS over the wall time they took,
/// response-latency percentiles and summed blocks read.
struct ServedBatch {
  std::vector<core::RouteResponse> responses;
  double elapsed_seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t blocks_read = 0;
  double blocks_per_query = 0.0;
};

/// Summarizes `responses` that took `elapsed_seconds` to serve.
ServedBatch Summarize(std::vector<core::RouteResponse> responses,
                      double elapsed_seconds);

/// Serves `queries` as one timed ServeBatch call.
ServedBatch Serve(core::RouteServer& server,
                  const std::vector<core::RouteQuery>& queries,
                  Expect expect = Expect::kRoutes);

/// Fatal unless each response in `got` has bit-for-bit the cost and node
/// sequence of the same query's response in `want`: both sides ran the
/// same engine on the same store, so any difference is a bug.
void CheckSameRoutes(const std::vector<core::RouteResponse>& want,
                     const std::vector<core::RouteResponse>& got,
                     const std::string& context);

// -- Gates ------------------------------------------------------------------

enum class Better { kHigher, kLower };

/// One acceptance rule, declared in the BENCH JSON "gates" list. `value`
/// must clear `limit` (a floor when higher is better, a ceiling when
/// lower is); a `relative` gate is also held to the baseline's value
/// within check_perf.py's --tolerance.
struct Gate {
  std::string name;
  double value = 0.0;
  Better better = Better::kHigher;
  std::optional<double> limit;
  bool relative = false;
};

// -- Table formatting -------------------------------------------------------

/// Prints a header box: experiment id + description.
void PrintHeader(const std::string& experiment, const std::string& detail);

/// Prints one row: label + columns, aligned. `width` is the column width.
void PrintRow(const std::string& label, const std::vector<std::string>& cols,
              int width = 14);

/// Formats "measured (paper published)" for quick comparison.
std::string VsPaper(double measured, double published, int precision = 1);
std::string VsPaper(uint64_t measured, uint64_t published);

// -- Machine-readable emission ----------------------------------------------

/// Schema version stamped into every BENCH_*.json envelope. Bump when the
/// envelope itself changes shape (per-benchmark payloads evolve freely;
/// files without a schema_version field predate the envelope).
inline constexpr uint64_t kBenchSchemaVersion = 3;

/// The git commit the build was configured at, or "unknown" outside a
/// checkout. Baked in at configure time (see bench/CMakeLists.txt), so an
/// incremental build after new commits reports the last configure's HEAD.
const char* BuildGitCommit();

/// Streaming JSON writer for benchmark result files. Handles commas and
/// string escaping; the caller is responsible for well-formed nesting
/// (every Key is followed by exactly one Value/Begin*). Output is
/// pretty-printed with two-space indentation so result files diff cleanly.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& k);
  JsonWriter& Value(const std::string& v);
  JsonWriter& Value(const char* v) { return Value(std::string(v)); }
  JsonWriter& Value(double v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<uint64_t>(v)); }
  JsonWriter& Value(bool v);

  /// Convenience: Key(k).Value(v).
  template <typename T>
  JsonWriter& Field(const std::string& k, T v) {
    Key(k);
    return Value(v);
  }

  std::string str() const { return out_.str(); }
  /// Writes str() to `path`; non-OK on I/O failure.
  Status WriteFile(const std::string& path) const;

 private:
  void BeforeValue();
  void Indent();

  std::ostringstream out_;
  std::vector<bool> first_;  // per nesting level: no element emitted yet
  bool pending_key_ = false;
};

/// Opens the shared BENCH_*.json envelope on `w`: the root object plus
/// the provenance fields every result file carries — "benchmark" (the
/// binary's short name), "schema_version" and "git_commit". The caller
/// appends its payload fields and closes with FinishBenchFile.
void BeginBenchJson(JsonWriter& w, const std::string& benchmark);

/// Appends the "gates" list, closes the envelope's root object and writes
/// `w` to `path`, then prints each gate against its limit. Returns the
/// bench's exit code: 0 when every gate clears its limit, 1 otherwise.
/// Aborts on I/O failure — a benchmark must never exit 0 with a truncated
/// result file.
int FinishBenchFile(JsonWriter& w, const std::string& path,
                    const std::vector<Gate>& gates);

/// Percentile summaries come from util/stats.h (atis::Percentile /
/// atis::PercentileSorted) — the bench namespace re-exports the free
/// function so existing call sites keep reading naturally.
using ::atis::Percentile;

}  // namespace atis::bench
