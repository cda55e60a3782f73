#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/batch_engine.h"
#include "obs/trace.h"

// Configure-time provenance stamp (bench/CMakeLists.txt); "unknown" when
// the harness is built outside a git checkout.
#ifndef ATIS_GIT_COMMIT
#define ATIS_GIT_COMMIT "unknown"
#endif

namespace atis::bench {

DbInstance::DbInstance(const graph::Graph& g, const Options& options) {
  disk_.SetLatencyModel(options.disk_latency);
  pool_ = std::make_unique<storage::BufferPool>(&disk_, options.pool_frames);
  store_ = std::make_unique<graph::RelationalGraphStore>(pool_.get());
  const graph::RelationalGraphStore::LoadOptions load{options.layout};
  const Status st = store_->Load(g, load);
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: store load failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  engine_ =
      std::make_unique<core::DbSearchEngine>(store_.get(), pool_.get(),
                                             options.search);
}

DbInstance::DbInstance(const graph::Graph& g, core::DbSearchOptions options,
                       size_t pool_frames)
    : DbInstance(g, [&] {
        Options full;
        full.search = std::move(options);
        full.pool_frames = pool_frames;
        return full;
      }()) {}

Cell ToCell(const core::PathResult& r) {
  Cell c;
  c.iterations = r.stats.iterations;
  c.cost_units = r.stats.cost_units;
  c.blocks = r.stats.io.blocks_read + r.stats.io.blocks_written;
  c.path_cost = r.cost;
  c.found = r.found;
  return c;
}

Cell RunDb(DbInstance& db, core::Algorithm algorithm, graph::NodeId s,
           graph::NodeId d, core::AStarVersion version) {
  // Per-run hit rate: clear the pool's counters (not its contents) so the
  // delta below covers exactly this query.
  db.pool().ResetStats();

  // Opt-in tracing hook: ATIS_TRACE=<anything> traces every harness run
  // and dumps the span tree to stderr (tables on stdout stay clean).
  const char* trace_env = std::getenv("ATIS_TRACE");
  std::unique_ptr<obs::Tracer> tracer;
  if (trace_env != nullptr && trace_env[0] != '\0') {
    tracer = std::make_unique<obs::Tracer>(&db.disk(), &db.pool());
  }

  Result<core::PathResult> r = [&]() -> Result<core::PathResult> {
    obs::Tracer::InstallScope scope(tracer.get());
    switch (algorithm) {
      case core::Algorithm::kIterative:
        return db.engine().Iterative(s, d);
      case core::Algorithm::kDijkstra:
        return db.engine().Dijkstra(s, d);
      case core::Algorithm::kAStar:
        return db.engine().AStar(s, d, version);
    }
    return Status::Internal("bad algorithm");
  }();
  if (!r.ok()) {
    std::fprintf(stderr, "fatal: %s failed: %s\n",
                 std::string(core::AlgorithmName(algorithm)).c_str(),
                 r.status().ToString().c_str());
    std::abort();
  }
  if (tracer != nullptr) {
    std::fprintf(stderr, "%s",
                 tracer->ToTreeString(db.engine().options().cost_params)
                     .c_str());
  }
  Cell cell = ToCell(*r);
  const storage::BufferPoolStats& ps = db.pool().stats();
  const uint64_t touched = ps.hits + ps.misses;
  cell.hit_rate =
      touched == 0 ? 0.0
                   : static_cast<double>(ps.hits) /
                         static_cast<double>(touched);
  return cell;
}

std::string CostCell(const Cell& c) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f h%.0f%%", c.cost_units,
                100.0 * c.hit_rate);
  return std::string(buf);
}

graph::Graph MakeGrid(int k, graph::GridCostModel model) {
  graph::GridGraphGenerator::Options opt;
  opt.k = k;
  opt.cost_model = model;
  auto g = graph::GridGraphGenerator::Generate(opt);
  if (!g.ok()) {
    std::fprintf(stderr, "fatal: grid generation failed: %s\n",
                 g.status().ToString().c_str());
    std::abort();
  }
  return std::move(g).value();
}

// -- Workloads --------------------------------------------------------------

ZipfSampler::ZipfSampler(size_t n, double s) {
  if (n == 0) n = 1;
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // absorb rounding so Sample never falls off the end
}

size_t ZipfSampler::operator()(Rng& rng) const {
  const double u = rng.NextDouble();
  return static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

std::vector<Trip> GridTrips(int k) {
  const auto n = static_cast<graph::NodeId>(k * k);
  return {
      {"corner_diag", 0, static_cast<graph::NodeId>(n - 1)},
      {"anti_diag", static_cast<graph::NodeId>(k - 1),
       static_cast<graph::NodeId>(n - k)},
      {"mid_to_corner", static_cast<graph::NodeId>(n / 2 + k / 2),
       static_cast<graph::NodeId>(n - 1)},
  };
}

std::vector<Trip> RoadMapTrips(const graph::RoadMap& rm) {
  return {{"A_to_B", rm.a, rm.b},
          {"C_to_D", rm.c, rm.d},
          {"E_to_F", rm.e, rm.f},
          {"G_to_D", rm.g, rm.d}};
}

std::vector<Workload> PaperWorkloads(const graph::RoadMap& rm) {
  std::vector<Workload> workloads;
  for (const int k : {10, 20, 30}) {
    const std::string grid = "grid" + std::to_string(k);
    workloads.push_back({grid + "_uniform",
                         MakeGrid(k, graph::GridCostModel::kUniform),
                         GridTrips(k), /*euclidean_scale=*/1.0});
    workloads.push_back({grid + "_variance20",
                         MakeGrid(k, graph::GridCostModel::kVariance20),
                         GridTrips(k), /*euclidean_scale=*/1.0});
    workloads.push_back({grid + "_skewed",
                         MakeGrid(k, graph::GridCostModel::kSkewed),
                         GridTrips(k), /*euclidean_scale=*/0.0});
  }
  workloads.push_back({"minneapolis_like", rm.graph, RoadMapTrips(rm),
                       /*euclidean_scale=*/1.0});
  return workloads;
}

std::vector<core::RouteQuery> MakeSkewedQueries(const graph::Graph& g,
                                                size_t n, uint64_t seed,
                                                double zipf_s,
                                                uint32_t region_order) {
  // Bucket nodes by the same coarse Hilbert cell RouteServer batches on.
  const core::RegionIndex regions(g, region_order);
  std::unordered_map<uint64_t, std::vector<graph::NodeId>> by_region;
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    const auto id = static_cast<graph::NodeId>(u);
    by_region[regions.RegionOf(id)].push_back(id);
  }
  // Rank cells by population, ties broken by cell id for determinism
  // (unordered_map iteration order must not leak into the workload).
  std::vector<std::pair<uint64_t, std::vector<graph::NodeId>>> ranked(
      by_region.begin(), by_region.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.size() != b.second.size()) {
      return a.second.size() > b.second.size();
    }
    return a.first < b.first;
  });

  Rng rng(seed);
  const ZipfSampler zipf(ranked.size(), zipf_s);
  std::vector<core::RouteQuery> queries;
  queries.reserve(n);
  while (queries.size() < n) {
    const std::vector<graph::NodeId>& cell = ranked[zipf(rng)].second;
    core::RouteQuery q;
    q.source = cell[rng.UniformInt(cell.size())];
    q.destination =
        static_cast<graph::NodeId>(rng.UniformInt(g.num_nodes()));
    if (q.source == q.destination) continue;
    // Keep only answerable pairs (road maps have unreachable islands).
    if (!core::DijkstraSearch(g, q.source, q.destination).found) continue;
    queries.push_back(q);
  }
  return queries;
}

// -- Serving benches --------------------------------------------------------

void Fatal(const std::string& message) {
  std::fprintf(stderr, "fatal: %s\n", message.c_str());
  std::abort();
}

void CheckOk(const Status& st) {
  if (!st.ok()) Fatal(st.ToString());
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string ParseBenchArgs(
    int argc, char** argv, const std::string& benchmark,
    std::initializer_list<std::pair<std::string_view, bool*>> flags) {
  std::string path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.empty() && arg[0] == '-') {
      const auto flag =
          std::find_if(flags.begin(), flags.end(),
                       [&](const auto& f) { return f.first == arg; });
      if (flag == flags.end()) {
        std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
        std::exit(2);
      }
      *flag->second = true;
      quick = quick || arg == "--quick";
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (path.empty()) {
    path = "BENCH_" + benchmark + (quick ? "_quick" : "") + ".json";
  }
  return path;
}

std::vector<core::RouteQuery> MakeQueries(size_t num_nodes, size_t n,
                                          uint64_t seed,
                                          const graph::Graph* routable_in,
                                          core::RouteQuery shape) {
  Rng rng(seed);
  std::vector<core::RouteQuery> queries;
  queries.reserve(n);
  while (queries.size() < n) {
    shape.source = static_cast<graph::NodeId>(rng.UniformInt(num_nodes));
    shape.destination =
        static_cast<graph::NodeId>(rng.UniformInt(num_nodes));
    if (shape.source == shape.destination) continue;
    if (routable_in != nullptr &&
        !core::DijkstraSearch(*routable_in, shape.source, shape.destination)
             .found) {
      continue;
    }
    queries.push_back(shape);
  }
  return queries;
}

ServedBatch Summarize(std::vector<core::RouteResponse> responses,
                      double elapsed_seconds) {
  ServedBatch out;
  out.elapsed_seconds = elapsed_seconds;
  std::vector<double> latencies;
  latencies.reserve(responses.size());
  for (const core::RouteResponse& resp : responses) {
    latencies.push_back(resp.latency_seconds);
    out.blocks_read += resp.io.blocks_read;
  }
  const auto n = static_cast<double>(responses.size());
  out.qps = n / elapsed_seconds;
  out.blocks_per_query = static_cast<double>(out.blocks_read) / n;
  out.p50_ms = 1e3 * Percentile(latencies, 50);
  out.p95_ms = 1e3 * Percentile(latencies, 95);
  out.p99_ms = 1e3 * Percentile(latencies, 99);
  out.responses = std::move(responses);
  return out;
}

ServedBatch Serve(core::RouteServer& server,
                  const std::vector<core::RouteQuery>& queries,
                  Expect expect) {
  const auto started = std::chrono::steady_clock::now();
  auto batch = server.ServeBatch(queries);
  const double elapsed = SecondsSince(started);
  if (!batch.ok()) Fatal("batch failed: " + batch.status().ToString());
  if (expect != Expect::kAnything) {
    for (const core::RouteResponse& resp : *batch) {
      if (!resp.status.ok() ||
          (expect == Expect::kRoutes && !resp.result.found)) {
        Fatal("query " + std::to_string(resp.query_index) + " failed: " +
              (resp.status.ok() ? "no route" : resp.status.ToString()));
      }
    }
  }
  return Summarize(std::move(batch).value(), elapsed);
}

void CheckSameRoutes(const std::vector<core::RouteResponse>& want,
                     const std::vector<core::RouteResponse>& got,
                     const std::string& context) {
  if (want.size() != got.size()) {
    Fatal(context + ": " + std::to_string(got.size()) + " answers vs " +
          std::to_string(want.size()));
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].result.cost != want[i].result.cost ||
        got[i].result.path != want[i].result.path) {
      char costs[64];
      std::snprintf(costs, sizeof(costs), "cost %.17g vs %.17g",
                    got[i].result.cost, want[i].result.cost);
      Fatal(context + ": query " + std::to_string(i) +
            " diverged from the reference answer (" + costs + ")");
    }
  }
}

void PrintHeader(const std::string& experiment, const std::string& detail) {
  std::printf("\n=== %s ===\n%s\n", experiment.c_str(), detail.c_str());
  std::printf("(cells show: measured (paper); execution cost in Table 4A "
              "units;\n cost cells carry the per-run buffer-pool hit rate "
              "as hNN%%)\n\n");
}

void PrintRow(const std::string& label,
              const std::vector<std::string>& cols, int width) {
  std::printf("%-22s", label.c_str());
  for (const std::string& c : cols) {
    std::printf(" | %*s", width, c.c_str());
  }
  std::printf("\n");
}

std::string VsPaper(double measured, double published, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << measured << " (" << published << ")";
  return out.str();
}

std::string VsPaper(uint64_t measured, uint64_t published) {
  std::ostringstream out;
  out << measured << " (" << published << ")";
  return out.str();
}

// -- Machine-readable emission ----------------------------------------------

const char* BuildGitCommit() { return ATIS_GIT_COMMIT; }

void BeginBenchJson(JsonWriter& w, const std::string& benchmark) {
  w.BeginObject();
  w.Field("benchmark", benchmark);
  w.Field("schema_version", kBenchSchemaVersion);
  w.Field("git_commit", BuildGitCommit());
}

namespace {
bool ClearsLimit(const Gate& g) {
  if (!g.limit) return true;
  return g.better == Better::kHigher ? g.value >= *g.limit
                                     : g.value <= *g.limit;
}
}  // namespace

int FinishBenchFile(JsonWriter& w, const std::string& path,
                    const std::vector<Gate>& gates) {
  w.Key("gates").BeginArray();
  for (const Gate& g : gates) {
    w.BeginObject();
    w.Field("name", g.name);
    w.Field("value", g.value);
    w.Field("better", g.better == Better::kHigher ? "higher" : "lower");
    if (g.limit) w.Field("limit", *g.limit);
    w.Field("relative", g.relative);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  CheckOk(w.WriteFile(path));
  std::printf("\nwrote %s\n", path.c_str());

  int exit_code = 0;
  for (const Gate& g : gates) {
    const bool ok = ClearsLimit(g);
    std::printf("%-4s %s = %g", ok ? "ok" : "FAIL", g.name.c_str(),
                g.value);
    if (g.limit) {
      std::printf(" (%s %g)",
                  g.better == Better::kHigher ? "floor" : "ceiling",
                  *g.limit);
    }
    std::printf("%s\n", g.relative ? ", held to baseline" : "");
    if (!ok) exit_code = 1;
  }
  return exit_code;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // "key": <here> — no comma, no indent
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ << ",";
    first_.back() = false;
    out_ << "\n";
    Indent();
  }
}

void JsonWriter::Indent() {
  for (size_t i = 0; i < first_.size(); ++i) out_ << "  ";
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ << "{";
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  const bool empty = first_.back();
  first_.pop_back();
  if (!empty) {
    out_ << "\n";
    Indent();
  }
  out_ << "}";
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ << "[";
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  const bool empty = first_.back();
  first_.pop_back();
  if (!empty) {
    out_ << "\n";
    Indent();
  }
  out_ << "]";
  return *this;
}

namespace {
void AppendJsonEscaped(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}
}  // namespace

JsonWriter& JsonWriter::Key(const std::string& k) {
  BeforeValue();
  AppendJsonEscaped(out_, k);
  out_ << ": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& v) {
  BeforeValue();
  AppendJsonEscaped(out_, v);
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  BeforeValue();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out_ << buf;
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  BeforeValue();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  BeforeValue();
  out_ << (v ? "true" : "false");
  return *this;
}

Status JsonWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  const std::string body = str();
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int newline_ok = std::fputc('\n', f);
  if (std::fclose(f) != 0 || written != body.size() || newline_ok == EOF) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

}  // namespace atis::bench
