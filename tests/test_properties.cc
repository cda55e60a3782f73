// Cross-module property tests: randomised schemas, relations, joins, and
// search configurations, each checked against a simple reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/advanced_search.h"
#include "core/estimator.h"
#include "core/k_shortest.h"
#include "core/landmarks.h"
#include "core/memory_search.h"
#include "core/sssp.h"
#include "graph/grid_generator.h"
#include "graph/road_map_generator.h"
#include "relational/external_sort.h"
#include "relational/join.h"
#include "util/random.h"
#include "tuple_rows.h"

namespace atis {
namespace {

using relational::AsDouble;
using relational::AsInt;
using relational::FieldType;
using relational::Relation;
using relational::Schema;
using relational::Tuple;

// ---------------------------------------------------------------------------
// Random schema pack/unpack fuzz.

class SchemaFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchemaFuzz, PackUnpackRoundTripsRandomSchemas) {
  Rng rng(GetParam());
  const FieldType kinds[] = {FieldType::kInt8,  FieldType::kInt16,
                             FieldType::kInt32, FieldType::kInt64,
                             FieldType::kFloat, FieldType::kDouble};
  for (int trial = 0; trial < 50; ++trial) {
    const size_t nfields = 1 + rng.UniformInt(uint64_t{12});
    std::vector<relational::Field> fields;
    for (size_t i = 0; i < nfields; ++i) {
      std::string field_name = "f";
      field_name += std::to_string(i);
      fields.push_back({field_name, kinds[rng.UniformInt(uint64_t{6})]});
    }
    const Schema schema(std::move(fields));
    std::vector<int64_t> ints(nfields, 0);
    std::vector<double> doubles(nfields, 0.0);
    std::vector<uint8_t> buf(schema.tuple_size(), 0);
    for (size_t i = 0; i < nfields; ++i) {
      switch (schema.field(i).type) {
        case FieldType::kInt8:
          ints[i] = rng.UniformInt(int64_t{-128}, int64_t{127});
          break;
        case FieldType::kInt16:
          ints[i] = rng.UniformInt(int64_t{-32768}, int64_t{32767});
          break;
        case FieldType::kInt32:
          ints[i] = rng.UniformInt(int64_t{-2147483648}, int64_t{2147483647});
          break;
        case FieldType::kInt64:
          ints[i] = static_cast<int64_t>(rng.Next());
          break;
        case FieldType::kFloat:
          doubles[i] = static_cast<float>(rng.UniformDouble(-1e6, 1e6));
          break;
        case FieldType::kDouble:
          doubles[i] = rng.UniformDouble(-1e12, 1e12);
          break;
      }
      if (relational::IsIntegerType(schema.field(i).type)) {
        schema.WriteInt(buf.data(), i, ints[i]);
      } else {
        schema.WriteDouble(buf.data(), i, doubles[i]);
      }
    }
    for (size_t i = 0; i < nfields; ++i) {
      if (relational::IsIntegerType(schema.field(i).type)) {
        EXPECT_EQ(schema.ReadInt(buf.data(), i), ints[i]);
      } else {
        EXPECT_DOUBLE_EQ(schema.ReadDouble(buf.data(), i), doubles[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemaFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

// ---------------------------------------------------------------------------
// Join strategies agree on random relations.

class JoinFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinFuzz, AllStrategiesProduceTheSameMultiset) {
  Rng rng(GetParam());
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  Relation left("L",
                Schema({{"k", FieldType::kInt32},
                        {"v", FieldType::kInt32}}),
                &pool);
  Relation right("R",
                 Schema({{"k", FieldType::kInt32},
                         {"w", FieldType::kInt32}}),
                 &pool);
  const int64_t key_space = 12;  // force plenty of duplicates
  const size_t nl = 30 + rng.UniformInt(uint64_t{50});
  const size_t nr = 30 + rng.UniformInt(uint64_t{50});
  for (size_t i = 0; i < nl; ++i) {
    ASSERT_TRUE(InsertTuple(&left, Tuple{rng.UniformInt(int64_t{0}, key_space),
                                  static_cast<int64_t>(i)})
                    .ok());
  }
  for (size_t i = 0; i < nr; ++i) {
    ASSERT_TRUE(InsertTuple(&right, Tuple{rng.UniformInt(int64_t{0}, key_space),
                                   static_cast<int64_t>(i)})
                    .ok());
  }
  ASSERT_TRUE(right.CreateHashIndex("k", 8).ok());

  auto rows_of = [](const Relation& rel) {
    std::multiset<std::tuple<int64_t, int64_t, int64_t>> rows;
    for (Relation::Cursor c = rel.Scan(); c.Valid(); c.Next()) {
      const Tuple t = Unpacked(c.row());
      rows.insert({AsInt(t[0]), AsInt(t[1]), AsInt(t[3])});
    }
    return rows;
  };

  std::multiset<std::tuple<int64_t, int64_t, int64_t>> reference;
  bool have_reference = false;
  for (auto strategy :
       {relational::JoinStrategy::kNestedLoop,
        relational::JoinStrategy::kHash,
        relational::JoinStrategy::kSortMerge,
        relational::JoinStrategy::kPrimaryKey}) {
    auto out = relational::Join(left, right, {"k", "k"}, strategy,
                                storage::CostParams{}, "J");
    ASSERT_TRUE(out.ok()) << relational::JoinStrategyName(strategy);
    const auto rows = rows_of(**out);
    if (!have_reference) {
      reference = rows;
      have_reference = true;
    } else {
      EXPECT_EQ(rows, reference)
          << relational::JoinStrategyName(strategy);
    }
    ASSERT_TRUE((*out)->Clear(false).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinFuzz,
                         ::testing::Range(uint64_t{10}, uint64_t{16}));

// ---------------------------------------------------------------------------
// External sort equals std::stable_sort on random data.

class SortFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SortFuzz, MatchesReferenceSort) {
  Rng rng(GetParam());
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  Relation rel("t",
               Schema({{"k", FieldType::kInt32},
                       {"seq", FieldType::kInt32}}),
               &pool);
  const size_t n = 500 + rng.UniformInt(uint64_t{4000});
  std::vector<std::pair<int64_t, int64_t>> reference;
  for (size_t i = 0; i < n; ++i) {
    const int64_t k = rng.UniformInt(int64_t{0}, int64_t{40});
    ASSERT_TRUE(InsertTuple(&rel, Tuple{k, static_cast<int64_t>(i)}).ok());
    reference.emplace_back(k, static_cast<int64_t>(i));
  }
  std::stable_sort(
      reference.begin(), reference.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  relational::SortOptions opt;
  opt.memory_frames = 3;  // force multi-run, multi-pass behaviour
  auto sorted = relational::ExternalSort(rel, "k", "out", opt);
  ASSERT_TRUE(sorted.ok());
  size_t i = 0;
  for (Relation::Cursor c = (*sorted)->Scan(); c.Valid(); c.Next(), ++i) {
    ASSERT_LT(i, reference.size());
    EXPECT_EQ(c.row().Int(0), reference[i].first);
    EXPECT_EQ(c.row().Int(1), reference[i].second);
  }
  EXPECT_EQ(i, reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortFuzz,
                         ::testing::Range(uint64_t{20}, uint64_t{25}));

// ---------------------------------------------------------------------------
// Search-algorithm agreement matrix on random grids: every exact
// configuration returns the same cost as single-source Dijkstra.

class ExactSearchMatrix : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactSearchMatrix, AllExactConfigurationsAgree) {
  graph::GridGraphGenerator::Options gopt;
  gopt.k = 9;
  gopt.cost_model = graph::GridCostModel::kVariance20;
  gopt.seed = GetParam();
  auto g = graph::GridGraphGenerator::Generate(gopt);
  ASSERT_TRUE(g.ok());
  auto tree = core::SingleSourceDijkstra(*g, 0);
  ASSERT_TRUE(tree.ok());
  auto man = core::MakeEstimator(core::EstimatorKind::kManhattan);
  auto eu = core::MakeEstimator(core::EstimatorKind::kEuclidean);
  const graph::Graph rev = graph::ReverseOf(*g);
  Rng rng(GetParam() * 31);
  for (int trial = 0; trial < 12; ++trial) {
    const auto d =
        static_cast<graph::NodeId>(rng.UniformInt(g->num_nodes()));
    const double want = tree->Distance(d);
    EXPECT_NEAR(core::DijkstraSearch(*g, 0, d).cost, want, 1e-9);
    EXPECT_NEAR(core::IterativeBfsSearch(*g, 0, d).cost, want, 1e-9);
    EXPECT_NEAR(core::AStarSearch(*g, 0, d, *man).cost, want, 1e-9);
    EXPECT_NEAR(core::AStarSearch(*g, 0, d, *eu).cost, want, 1e-9);
    EXPECT_NEAR(core::WeightedAStarSearch(*g, 0, d, *man, 1.0).cost, want,
                1e-9);
    EXPECT_NEAR(core::BidirectionalDijkstra(*g, rev, 0, d).cost, want,
                1e-9);
    auto k1 = core::KShortestPaths(*g, 0, d, 1);
    ASSERT_TRUE(k1.ok());
    ASSERT_EQ(k1->size(), 1u);
    EXPECT_NEAR((*k1)[0].cost, want, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactSearchMatrix,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

// ---------------------------------------------------------------------------
// Estimator admissibility sweep: every estimator kind against the paper's
// grids (10/20/30, all three cost models) and the road map, checked
// exhaustively with EstimatorIsAdmissibleOn. The landmark estimator must be
// admissible *everywhere*; the geometric ones exactly where the cost model
// dominates geometry.

std::unique_ptr<core::Estimator> BuildEstimator(core::EstimatorKind kind,
                                                const graph::Graph& g) {
  if (kind != core::EstimatorKind::kLandmark) {
    return core::MakeEstimator(kind);
  }
  core::LandmarkOptions opt;
  opt.num_landmarks = 6;
  auto set = core::SelectLandmarks(g, opt);
  EXPECT_TRUE(set.ok());
  return core::MakeLandmarkEstimator(
      std::make_shared<const core::LandmarkSet>(std::move(set).value()));
}

bool GeometricallyAdmissible(graph::GridCostModel model) {
  // kUniform and kVariance20 cost >= 1 per unit step; kSkewed has cheap
  // corridor edges the geometric estimators overestimate across.
  return model != graph::GridCostModel::kSkewed;
}

class AdmissibilitySweep : public ::testing::TestWithParam<int> {};

TEST_P(AdmissibilitySweep, AllEstimatorKindsOnPaperGrids) {
  for (const graph::GridCostModel model :
       {graph::GridCostModel::kUniform, graph::GridCostModel::kVariance20,
        graph::GridCostModel::kSkewed}) {
    graph::GridGraphGenerator::Options gopt;
    gopt.k = GetParam();
    gopt.cost_model = model;
    auto g = graph::GridGraphGenerator::Generate(gopt);
    ASSERT_TRUE(g.ok());
    for (const core::EstimatorKind kind :
         {core::EstimatorKind::kZero, core::EstimatorKind::kEuclidean,
          core::EstimatorKind::kManhattan, core::EstimatorKind::kLandmark}) {
      const auto estimator = BuildEstimator(kind, *g);
      ASSERT_NE(estimator, nullptr);
      const bool want = kind == core::EstimatorKind::kZero ||
                        kind == core::EstimatorKind::kLandmark ||
                        GeometricallyAdmissible(model);
      EXPECT_EQ(core::EstimatorIsAdmissibleOn(*estimator, *g), want)
          << core::EstimatorKindName(kind) << " on grid" << GetParam()
          << " model " << static_cast<int>(model);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GridSizes, AdmissibilitySweep,
                         ::testing::Values(10, 20, 30));

TEST(AdmissibilitySweepTest, AllEstimatorKindsOnRoadMap) {
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  const graph::Graph& g = rm->graph;
  EXPECT_TRUE(core::EstimatorIsAdmissibleOn(
      *BuildEstimator(core::EstimatorKind::kZero, g), g));
  EXPECT_TRUE(core::EstimatorIsAdmissibleOn(
      *BuildEstimator(core::EstimatorKind::kEuclidean, g), g));
  // Section 5.3.2: Manhattan overestimates on the Minneapolis data set.
  EXPECT_FALSE(core::EstimatorIsAdmissibleOn(
      *BuildEstimator(core::EstimatorKind::kManhattan, g), g));
  EXPECT_TRUE(core::EstimatorIsAdmissibleOn(
      *BuildEstimator(core::EstimatorKind::kLandmark, g), g));
}

TEST(AdmissibilitySweepTest, AltDominatesEuclideanOnDistanceCostGraphs) {
  // With euclidean_scale = 1 the landmark estimator is max(ALT, Euclidean),
  // so it must dominate plain Euclidean pointwise while staying admissible.
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  const graph::Graph& g = rm->graph;
  core::LandmarkOptions opt;
  opt.num_landmarks = 8;
  auto set = core::SelectLandmarks(g, opt);
  ASSERT_TRUE(set.ok());
  const auto alt = core::MakeLandmarkEstimator(
      std::make_shared<const core::LandmarkSet>(std::move(set).value()),
      /*euclidean_scale=*/1.0);
  const auto eu = core::MakeEstimator(core::EstimatorKind::kEuclidean);
  Rng rng(1993);
  for (int trial = 0; trial < 200; ++trial) {
    const auto u = static_cast<graph::NodeId>(rng.UniformInt(g.num_nodes()));
    const auto v = static_cast<graph::NodeId>(rng.UniformInt(g.num_nodes()));
    EXPECT_GE(alt->EstimateNodes(u, g.point(u), v, g.point(v)),
              eu->Estimate(g.point(u), g.point(v)))
        << u << " -> " << v;
  }
  EXPECT_TRUE(core::EstimatorIsAdmissibleOn(*alt, g));
}

}  // namespace
}  // namespace atis
