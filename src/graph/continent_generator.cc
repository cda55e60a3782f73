#include "graph/continent_generator.h"

#include <cmath>
#include <cstdlib>

#include "graph/graph_io.h"
#include "graph/relational_graph.h"
#include "graph/spatial_layout.h"
#include "util/random.h"

namespace atis::graph {

namespace {

/// Street tiers, fastest first. Faster tiers divide the distance cost by
/// a larger speed, so routes prefer freeways for long hauls — the shape
/// ATIS route queries exercise.
enum class Tier { kFreeway = 0, kArterial = 1, kLocal = 2 };

constexpr double kTierSpeed[] = {4.0, 2.0, 1.0};

/// Slot pitch between city origins, in units of the city lattice side.
/// The 0.6 gap keeps clusters visually and Hilbert-key separated, which
/// is what lets the partitioner cut between cities instead of through
/// them.
constexpr double kSlotFactor = 1.6;

/// Stateless per-(city, row, col, salt) uniform double in [0, 1). Every
/// emit pass recomputes the same stream, so node positions and edge
/// decisions never need to be stored.
double HashUniform(uint64_t seed, uint64_t city, uint64_t a, uint64_t b,
                   uint64_t salt) {
  uint64_t h = seed;
  h = SplitMix64(h ^ (city * 0x9e3779b97f4a7c15ULL)).Next();
  h = SplitMix64(h ^ (a * 0xbf58476d1ce4e5b9ULL)).Next();
  h = SplitMix64(h ^ (b * 0x94d049bb133111ebULL)).Next();
  h = SplitMix64(h ^ salt).Next();
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

ContinentGenerator::ContinentGenerator(const ContinentOptions& options)
    : options_(options) {
  grid_cols_ = options_.num_cities > 0
                   ? static_cast<int>(std::ceil(
                         std::sqrt(static_cast<double>(options_.num_cities))))
                   : 0;
  num_nodes_ = static_cast<uint64_t>(options_.num_cities) *
               static_cast<uint64_t>(options_.city_k) *
               static_cast<uint64_t>(options_.city_k);
}

double ContinentGenerator::city_slot_span() const {
  return static_cast<double>(options_.city_k) * kSlotFactor;
}

Result<ContinentGenerator> ContinentGenerator::Create(
    const ContinentOptions& options) {
  if (options.num_cities < 0) {
    return Status::InvalidArgument("num_cities must be >= 0");
  }
  if (options.city_k < 1) {
    return Status::InvalidArgument("city_k must be >= 1");
  }
  if (options.freeway_weight < 0.0 || options.arterial_weight < 0.0 ||
      options.local_weight < 0.0) {
    return Status::InvalidArgument("tier weights must be non-negative");
  }
  const double weight_sum = options.freeway_weight + options.arterial_weight +
                            options.local_weight;
  if (!(weight_sum > 0.0)) {
    return Status::InvalidArgument("tier weights must sum to a positive value");
  }
  if (options.jitter < 0.0) {
    return Status::InvalidArgument("jitter must be >= 0");
  }
  ContinentGenerator gen(options);
  // The relational store quantises coordinates to int16 fixed point; a
  // layout wider than that budget would be rejected at load time, so
  // reject it here where the fix (fewer/smaller cities) is obvious.
  const double max_coord =
      static_cast<double>(gen.grid_cols_) * gen.city_slot_span() +
      options.jitter + 1.0;
  if (max_coord * RelationalGraphStore::kCoordScale >
      static_cast<double>(RelationalGraphStore::kMaxFixedCoord)) {
    return Status::InvalidArgument(
        "continent extent exceeds the int16 fixed-point coordinate budget; "
        "reduce num_cities or city_k");
  }
  return gen;
}

Status ContinentGenerator::EmitNodes(
    const std::function<void(NodeId, double, double)>& cb) const {
  const int k = options_.city_k;
  const double slot = city_slot_span();
  NodeId id = 0;
  for (int city = 0; city < options_.num_cities; ++city) {
    const int cr = city / grid_cols_;
    const int cc = city % grid_cols_;
    const double ox = static_cast<double>(cc) * slot;
    const double oy = static_cast<double>(cr) * slot;
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        const double jx = (2.0 * HashUniform(options_.seed, city, i, j, 1) -
                           1.0) * options_.jitter;
        const double jy = (2.0 * HashUniform(options_.seed, city, i, j, 2) -
                           1.0) * options_.jitter;
        cb(id++, ox + j + jx, oy + i + jy);
      }
    }
  }
  return Status::OK();
}

Status ContinentGenerator::EmitEdges(
    const std::function<void(NodeId, NodeId, double)>& cb) const {
  const int k = options_.city_k;
  const double slot = city_slot_span();
  const double weight_sum = options_.freeway_weight +
                            options_.arterial_weight + options_.local_weight;
  const double p_freeway = options_.freeway_weight / weight_sum;
  const double p_arterial = options_.arterial_weight / weight_sum;

  // Tier of a city street line (row or column): one stateless draw per
  // line. axis_salt distinguishes row lines from column lines.
  auto line_tier = [&](int city, int line, uint64_t axis_salt) {
    const double u = HashUniform(options_.seed, static_cast<uint64_t>(city),
                                 static_cast<uint64_t>(line), 0, axis_salt);
    if (u < p_freeway) return Tier::kFreeway;
    if (u < p_freeway + p_arterial) return Tier::kArterial;
    return Tier::kLocal;
  };

  auto pos = [&](int city, int i, int j, double* x, double* y) {
    const int cr = city / grid_cols_;
    const int cc = city % grid_cols_;
    *x = static_cast<double>(cc) * slot + j +
         (2.0 * HashUniform(options_.seed, city, i, j, 1) - 1.0) *
             options_.jitter;
    *y = static_cast<double>(cr) * slot + i +
         (2.0 * HashUniform(options_.seed, city, i, j, 2) - 1.0) *
             options_.jitter;
  };

  auto node_id = [&](int city, int i, int j) {
    return static_cast<NodeId>(
        static_cast<uint64_t>(city) * static_cast<uint64_t>(k) *
            static_cast<uint64_t>(k) +
        static_cast<uint64_t>(i) * static_cast<uint64_t>(k) +
        static_cast<uint64_t>(j));
  };

  // Emits a two-way street between lattice points of one city.
  auto emit_street = [&](int city, int i1, int j1, int i2, int j2,
                         Tier tier) {
    double x1;
    double y1;
    double x2;
    double y2;
    pos(city, i1, j1, &x1, &y1);
    pos(city, i2, j2, &x2, &y2);
    const double cost = std::hypot(x2 - x1, y2 - y1) /
                        kTierSpeed[static_cast<int>(tier)];
    const NodeId u = node_id(city, i1, j1);
    const NodeId v = node_id(city, i2, j2);
    cb(u, v, cost);
    cb(v, u, cost);
  };

  for (int city = 0; city < options_.num_cities; ++city) {
    // Spanning comb (always present, keeps the city connected): every
    // vertical segment, plus row 0's horizontal spine.
    for (int i = 1; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        emit_street(city, i - 1, j, i, j, line_tier(city, j, 12));
      }
    }
    for (int j = 1; j < k; ++j) {
      emit_street(city, 0, j - 1, 0, j, line_tier(city, 0, 13));
    }
    // Remaining horizontal segments: tier of the row decides. Freeway and
    // arterial rows are fully built; local rows keep each segment with
    // probability local_fill.
    for (int i = 1; i < k; ++i) {
      const Tier row_tier = line_tier(city, i, 13);
      for (int j = 1; j < k; ++j) {
        if (row_tier == Tier::kLocal &&
            HashUniform(options_.seed, city, i, j, 3) >= options_.local_fill) {
          continue;
        }
        emit_street(city, i, j - 1, i, j, row_tier);
      }
    }
  }

  // Inter-city freeway corridors. The spanning set (west neighbour, or
  // north neighbour in column 0) keeps the continent connected; extra
  // vertical corridors appear with a freeway-weight-scaled probability.
  const double p_extra =
      std::min(1.0, 4.0 * options_.freeway_weight / weight_sum);
  auto emit_corridor = [&](int city_a, int ia, int ja, int city_b, int ib,
                           int jb) {
    double xa;
    double ya;
    double xb;
    double yb;
    pos(city_a, ia, ja, &xa, &ya);
    pos(city_b, ib, jb, &xb, &yb);
    const double cost = std::hypot(xb - xa, yb - ya) /
                        kTierSpeed[static_cast<int>(Tier::kFreeway)];
    const NodeId u = node_id(city_a, ia, ja);
    const NodeId v = node_id(city_b, ib, jb);
    cb(u, v, cost);
    cb(v, u, cost);
  };
  const int mid = k / 2;
  for (int city = 0; city < options_.num_cities; ++city) {
    const int cr = city / grid_cols_;
    const int cc = city % grid_cols_;
    // Spanning corridors.
    if (cc > 0) {
      // West gateway of this city to the east gateway of the left city.
      emit_corridor(city, mid, 0, city - 1, mid, k - 1);
    } else if (cr > 0) {
      emit_corridor(city, 0, mid, city - grid_cols_, k - 1, mid);
    }
    // Extra vertical corridor to the city above, when both exist.
    if (cr > 0 && cc > 0 &&
        HashUniform(options_.seed, city, 0, 0, 4) < p_extra) {
      emit_corridor(city, 0, mid, city - grid_cols_, k - 1, mid);
    }
  }
  return Status::OK();
}

uint64_t ContinentGenerator::CountEdges() const {
  uint64_t count = 0;
  (void)EmitEdges([&count](NodeId, NodeId, double) { ++count; });
  return count;
}

Status ContinentGenerator::WriteTo(const std::string& path) const {
  const uint64_t num_edges = CountEdges();
  ATIS_ASSIGN_OR_RETURN(
      StreamingGraphWriter writer,
      StreamingGraphWriter::Create(path, StoreLayout::kHilbert, num_nodes_,
                                   num_edges));
  Status status = Status::OK();
  ATIS_RETURN_NOT_OK(EmitNodes([&](NodeId, double x, double y) {
    if (status.ok()) status = writer.AddNode(x, y);
  }));
  ATIS_RETURN_NOT_OK(status);
  ATIS_RETURN_NOT_OK(EmitEdges([&](NodeId u, NodeId v, double cost) {
    if (status.ok()) status = writer.AddEdge(u, v, cost);
  }));
  ATIS_RETURN_NOT_OK(status);
  return writer.Finish();
}

Result<Graph> ContinentGenerator::Materialize() const {
  Graph g;
  ATIS_RETURN_NOT_OK(EmitNodes(
      [&g](NodeId, double x, double y) { g.AddNode(x, y); }));
  Status status = Status::OK();
  ATIS_RETURN_NOT_OK(EmitEdges([&](NodeId u, NodeId v, double cost) {
    if (status.ok()) status = g.AddEdge(u, v, cost);
  }));
  ATIS_RETURN_NOT_OK(status);
  return g;
}

}  // namespace atis::graph
