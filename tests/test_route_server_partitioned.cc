// Tests for core::RouteServer over a graph::PartitionedGraphStore, the
// continent backend: it must answer exactly (A* v5 through the stitched
// overlay path, Dijkstra through the flat baseline), keep the serving
// features of the single store (deadlines, cache, admission, /statusz),
// and refuse what a read-only store cannot do.
#include "core/route_server.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include "core/db_search.h"
#include "graph/continent_generator.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/random.h"

namespace atis::core {
namespace {

using graph::NodeId;

/// A multi-city map small enough for a single-store reference load.
std::string WriteContinentMap(int num_cities, int city_k, const char* tag) {
  graph::ContinentOptions options;
  options.num_cities = num_cities;
  options.city_k = city_k;
  auto gen = graph::ContinentGenerator::Create(options);
  EXPECT_TRUE(gen.ok());
  const std::string path =
      ::testing::TempDir() + "/atis_route_server_partitioned_" + tag +
      ".atisg";
  EXPECT_TRUE(gen->WriteTo(path).ok());
  return path;
}

graph::PartitionedStoreOptions Partitioning(size_t max_partition_nodes) {
  graph::PartitionedStoreOptions options;
  options.max_partition_nodes = max_partition_nodes;
  options.sort_budget_bytes = 1 << 12;  // force spilled runs
  return options;
}

RouteQuery Stitched(NodeId source, NodeId destination) {
  return RouteQuery{source, destination, Algorithm::kAStar, AStarVersion::kV5};
}

RouteQuery Flat(NodeId source, NodeId destination) {
  return RouteQuery{source, destination, Algorithm::kDijkstra};
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name, "").value();
}

/// Strict JSON syntax check: true when `text` is exactly one JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool Valid() {
    if (!Value()) return false;
    SkipSpace();
    return i_ == s_.size();
  }

 private:
  void SkipSpace() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool Value() {
    SkipSpace();
    if (i_ >= s_.size()) return false;
    if (s_[i_] == '{') return Members('}', /*keyed=*/true);
    if (s_[i_] == '[') return Members(']', /*keyed=*/false);
    if (s_[i_] == '"') return String();
    for (const char* literal : {"true", "false", "null"}) {
      if (s_.compare(i_, std::strlen(literal), literal) == 0) {
        i_ += std::strlen(literal);
        return true;
      }
    }
    return Number();
  }
  bool Members(char close, bool keyed) {
    ++i_;
    if (Eat(close)) return true;
    do {
      if (keyed) {
        SkipSpace();
        if (!String() || !Eat(':')) return false;
      }
      if (!Value()) return false;
    } while (Eat(','));
    return Eat(close);
  }
  bool String() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (static_cast<unsigned char>(s_[i_]) < 0x20) return false;
      if (s_[i_] == '\\') {
        ++i_;
      } else if (s_[i_] == '"') {
        ++i_;
        return true;
      }
    }
    return false;
  }
  bool Digits() {
    const size_t start = i_;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    return i_ > start;
  }
  bool Number() {
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    if (!Digits()) return false;
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      if (!Digits()) return false;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (!Digits()) return false;
    }
    return true;
  }

  const std::string& s_;
  size_t i_ = 0;
};

TEST(RouteServerPartitionedTest, ServesExactAnswers) {
  const std::string path = WriteContinentMap(4, 8, "exact");

  storage::DiskManager ref_disk;
  storage::BufferPool ref_pool(&ref_disk, 512);
  graph::RelationalGraphStore ref_store(&ref_pool);
  ASSERT_TRUE(ref_store.LoadStreaming(path).ok());
  DbSearchEngine ref_engine(&ref_store, &ref_pool);

  RouteServer::Options options;
  options.num_workers = 3;
  RouteServer server(path, Partitioning(100), options);
  ASSERT_TRUE(server.init_status().ok()) << server.init_status().message();
  ASSERT_NE(server.partitioned_store(), nullptr);
  EXPECT_GE(server.partitioned_store()->num_partitions(), 3u);
  EXPECT_EQ(server.num_workers(), 3u);

  Rng rng(23);
  const auto n = static_cast<NodeId>(server.partitioned_store()->num_nodes());
  std::vector<RouteQuery> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(Stitched(static_cast<NodeId>(rng.UniformInt(0, n - 1)),
                               static_cast<NodeId>(rng.UniformInt(0, n - 1))));
  }
  const uint64_t served_before = CounterValue("atis_partition_queries_total");
  auto responses = server.ServeBatch(queries);
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const RouteResponse& resp = (*responses)[i];
    EXPECT_EQ(resp.query_index, i);
    ASSERT_TRUE(resp.status.ok()) << resp.status.message();
    EXPECT_EQ(resp.served_via, ServedVia::kEngine);
    EXPECT_GE(resp.worker_id, 0);
    EXPECT_EQ(resp.metric_version, 1u);
    auto ref = ref_engine.Dijkstra(queries[i].source, queries[i].destination);
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(resp.result.found, ref->found);
    if (ref->found) {
      // The paper engine rounds each prefix sum into R's float32
      // path_cost; the partitioned paths accumulate in double.
      EXPECT_NEAR(resp.result.cost, ref->cost, 1e-5 * (1.0 + ref->cost));
    }
  }
  EXPECT_EQ(CounterValue("atis_partition_queries_total") - served_before,
            queries.size());
}

TEST(RouteServerPartitionedTest, DijkstraServesTheFlatBaseline) {
  const std::string path = WriteContinentMap(3, 6, "flat");
  RouteServer::Options options;
  options.num_workers = 2;
  RouteServer server(path, Partitioning(50), options);
  ASSERT_TRUE(server.init_status().ok()) << server.init_status().message();

  const std::vector<RouteQuery> queries = {Flat(0, 50), Flat(50, 0),
                                            Flat(10, 10)};
  auto responses = server.ServeBatch(queries);
  ASSERT_TRUE(responses.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const RouteResponse& resp = (*responses)[i];
    ASSERT_TRUE(resp.status.ok()) << resp.status.message();
    EXPECT_TRUE(resp.result.found);
    EXPECT_TRUE(resp.result.path.empty());  // the store computes costs only
    auto ref = server.partitioned_store()->GlobalDijkstra(
        queries[i].source, queries[i].destination);
    ASSERT_TRUE(ref.ok());
    EXPECT_NEAR(resp.result.cost, ref->cost, 1e-12);
  }
  EXPECT_GT((*responses)[0].result.stats.nodes_expanded, 0u);
}

TEST(RouteServerPartitionedTest, RefusesUnsupportedQueriesAndOptions) {
  const std::string path = WriteContinentMap(3, 6, "refuse");
  {
    RouteServer::Options options;
    options.num_workers = 1;
    RouteServer server(path, Partitioning(50), options);
    ASSERT_TRUE(server.init_status().ok());
    RouteQuery v3 = Stitched(0, 50);
    v3.version = AStarVersion::kV3;
    RouteQuery iterative = Flat(0, 50);
    iterative.algorithm = Algorithm::kIterative;
    auto responses = server.ServeBatch({v3, iterative, Stitched(0, 50)});
    ASSERT_TRUE(responses.ok());
    EXPECT_TRUE((*responses)[0].status.IsInvalidArgument());
    EXPECT_TRUE((*responses)[1].status.IsInvalidArgument());
    EXPECT_TRUE((*responses)[2].status.ok());
    // A refused query says nothing about storage health.
    EXPECT_EQ(server.breaker(0).state(), CircuitBreaker::State::kClosed);
  }
  RouteServer::Options wal;
  wal.wal.dir = ::testing::TempDir() + "/atis_route_server_partitioned_wal";
  RouteServer::Options landmarks;
  landmarks.num_landmarks = 4;
  RouteServer::Options overlay;
  overlay.overlay_cell_order = 1;
  for (const RouteServer::Options& options : {wal, landmarks, overlay}) {
    RouteServer server(path, Partitioning(50), options);
    EXPECT_TRUE(server.init_status().IsInvalidArgument())
        << server.init_status().ToString();
    EXPECT_FALSE(server.ServeBatch({Stitched(0, 50)}).ok());
  }
  RouteServer missing(path + ".missing", Partitioning(50),
                      RouteServer::Options());
  EXPECT_FALSE(missing.init_status().ok());
}

TEST(RouteServerPartitionedTest, ApplyUpdatesIsRefused) {
  const std::string path = WriteContinentMap(3, 6, "updates");
  RouteServer server(path, Partitioning(50), RouteServer::Options());
  ASSERT_TRUE(server.init_status().ok());
  const EdgeCostUpdate update{0, 1, 5.0};
  EXPECT_EQ(server.ApplyUpdates({&update, 1}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.UpdateEdgeCost(0, 1, 5.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.published_version(), 1u);
  EXPECT_EQ(server.snapshot(), nullptr);
}

// Every disk access after construction straggles 3 ms and the pool holds
// 8 frames, so a 1 ms deadline expires within the first few settles.
TEST(RouteServerPartitionedTest, DeadlineExpiresOnBothEngines) {
  const std::string path = WriteContinentMap(4, 8, "deadline");
  RouteServer::Options options;
  options.num_workers = 1;
  options.pool_frames = 8;
  options.fault_profile.spike_rate = 1.0;
  options.fault_profile.spike_micros = 3000;
  RouteServer server(path, Partitioning(100), options);
  ASSERT_TRUE(server.init_status().ok()) << server.init_status().message();

  const auto last = static_cast<NodeId>(
      server.partitioned_store()->num_nodes() - 1);
  for (RouteQuery q : {Stitched(0, last), Flat(0, last)}) {
    q.deadline_ms = 1;
    auto responses = server.ServeBatch({q});
    ASSERT_TRUE(responses.ok());
    EXPECT_TRUE((*responses)[0].status.IsDeadlineExceeded())
        << (*responses)[0].status.ToString();
    EXPECT_EQ((*responses)[0].served_via, ServedVia::kNone);
  }
  EXPECT_EQ(server.breaker(0).state(), CircuitBreaker::State::kClosed);
}

TEST(RouteServerPartitionedTest, RepeatedQueryIsACacheHitWithoutIo) {
  const std::string path = WriteContinentMap(3, 6, "cache");
  RouteServer::Options options;
  options.num_workers = 2;
  options.pool_frames = 8;  // the first run must read from the disk
  options.enable_cache = true;
  RouteServer server(path, Partitioning(50), options);
  ASSERT_TRUE(server.init_status().ok());

  auto first = server.ServeBatch({Stitched(0, 50)});
  auto second = server.ServeBatch({Stitched(0, 50)});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const RouteResponse& miss = (*first)[0];
  const RouteResponse& hit = (*second)[0];
  ASSERT_TRUE(miss.status.ok());
  ASSERT_TRUE(hit.status.ok());
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_GT(miss.io.blocks_read, 0u);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.served_via, ServedVia::kCache);
  EXPECT_EQ(hit.io.blocks_read, 0u);
  EXPECT_EQ(hit.result.cost, miss.result.cost);
}

TEST(RouteServerPartitionedTest, AdmissionShedsBeyondTheQueueBound) {
  const std::string path = WriteContinentMap(3, 6, "admission");
  RouteServer::Options options;
  options.num_workers = 2;
  options.max_queue_depth = 1;  // admits 2 workers + 1 queued = 3 per batch
  RouteServer server(path, Partitioning(50), options);
  ASSERT_TRUE(server.init_status().ok());

  auto responses =
      server.ServeBatch(std::vector<RouteQuery>(6, Stitched(0, 50)));
  ASSERT_TRUE(responses.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE((*responses)[i].status.ok()) << "admitted query " << i;
  }
  for (size_t i = 3; i < 6; ++i) {
    EXPECT_EQ((*responses)[i].status.code(), StatusCode::kResourceExhausted)
        << "shed " << i;
  }
}

TEST(RouteServerPartitionedTest, StatuszParsesAndNamesThePartitions) {
  const std::string path = WriteContinentMap(3, 6, "statusz");
  RouteServer::Options options;
  options.num_workers = 2;
  options.enable_cache = true;
  options.obs.enable_slo = true;
  RouteServer server(path, Partitioning(50), options);
  ASSERT_TRUE(server.init_status().ok());
  ASSERT_TRUE(server.ServeBatch({Stitched(0, 50), Flat(50, 0)}).ok());

  const std::string statusz = server.StatuszJson();
  EXPECT_TRUE(JsonChecker(statusz).Valid()) << statusz;
  const std::string partitions =
      "\"partitioned\":{\"partitions\":" +
      std::to_string(server.partitioned_store()->num_partitions()) + ",";
  EXPECT_NE(statusz.find(partitions), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("\"num_workers\":2,"), std::string::npos);
}

}  // namespace
}  // namespace atis::core
