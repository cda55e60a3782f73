// Tests for the serving-path observability wiring: TraceSampler head
// sampling, the bounded on-disk TraceRing, concurrent Tracer use from
// many threads (TSan target — span trees must stay internally consistent:
// parent/child nesting, monotone timestamps, exact non-negative I/O
// deltas), and the RouteServer integration (sampled traces persisted,
// slow queries logged, SLO windows populated, gauges refreshed).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/route_server.h"
#include "graph/grid_generator.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "obs/trace_ring.h"
#include "storage/io_meter.h"

namespace atis::obs {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TraceRingTest, SamplerIsDeterministicOneInN) {
  TraceSampler off(0);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(off.Sample());

  TraceSampler all(1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(all.Sample());

  TraceSampler third(3);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) sampled += third.Sample();
  EXPECT_EQ(sampled, 3);  // queries 0, 3, 6
}

TEST(TraceRingTest, SamplerCountsExactlyUnderConcurrentCallers) {
  TraceSampler sampler(4);
  constexpr int kThreads = 8, kPerThread = 100;
  std::atomic<int> sampled{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (sampler.Sample()) sampled.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sampled.load(), kThreads * kPerThread / 4);
}

TEST(TraceRingTest, AppendWritesSlotFilesAndWrapsAtCapacity) {
  const std::string dir = ::testing::TempDir() + "/atis_trace_ring_wrap";
  auto ring = TraceRing::Open({.directory = dir, .capacity = 2});
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();

  for (int i = 0; i < 3; ++i) {
    Tracer tracer;
    TraceSpan* root = tracer.BeginSpan("query", "query");
    tracer.EndSpan(root);
    ASSERT_TRUE((*ring)->Append(tracer, "label-" + std::to_string(i)).ok());
  }
  EXPECT_EQ((*ring)->appended(), 3u);  // monotone past capacity

  const std::vector<std::string> slots = (*ring)->SlotPaths();
  ASSERT_EQ(slots.size(), 2u);  // only capacity slot files exist
  // Slot 0 was overwritten by the third append; its label proves it.
  const std::string slot0 = Slurp(slots[0]);
  EXPECT_NE(slot0.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(slot0.find("\"atisLabel\":\"label-2\""), std::string::npos);
  EXPECT_NE(Slurp(slots[1]).find("\"atisLabel\":\"label-1\""),
            std::string::npos);
}

// N threads each drive their own thread-sink Tracer (the mode the route
// server uses per query) while appending into one shared ring. Under TSan
// this is the data-race gate; the assertions below check every tree is
// internally consistent.
TEST(ObsSamplingTest, ConcurrentTracersKeepSpanTreesConsistent) {
  const std::string dir = ::testing::TempDir() + "/atis_obs_concurrent";
  auto ring = TraceRing::Open({.directory = dir, .capacity = 8});
  ASSERT_TRUE(ring.ok());

  constexpr int kThreads = 8, kIterations = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < kIterations; ++iter) {
        storage::IoCounters io{};  // the per-thread sink, monotone
        Tracer tracer(&io);
        TraceSpan* root = tracer.BeginSpan("query", "query");
        root->Tag("thread", std::to_string(t));
        for (int s = 0; s < 3; ++s) {
          TraceSpan* child = tracer.BeginSpan("statement", "statement");
          io.blocks_read += static_cast<uint64_t>(s + 1);
          io.blocks_written += 1;
          tracer.EndSpan(child);
        }
        io.blocks_read += 10;  // work outside any child span
        tracer.EndSpan(root);

        // Exact attribution: children saw only their own increments, the
        // root saw everything (deltas can never go negative — the sink
        // only grows and is confined to this thread).
        if (tracer.roots().size() != 1) ++failures;
        const TraceSpan& r = *tracer.roots().front();
        if (r.io.blocks_read != 1 + 2 + 3 + 10) ++failures;
        if (r.io.blocks_written != 3) ++failures;
        if (r.children.size() != 3) ++failures;
        for (size_t s = 0; s < r.children.size(); ++s) {
          const TraceSpan& c = *r.children[s];
          if (c.io.blocks_read != s + 1) ++failures;
          if (c.io.blocks_written != 1) ++failures;
          // Nesting: a child starts no earlier than its parent and never
          // outlives it; siblings start in order (monotone clock).
          if (c.start_offset < r.start_offset) ++failures;
          if (c.wall > r.wall) ++failures;
          if (s > 0 && c.start_offset < r.children[s - 1]->start_offset) {
            ++failures;
          }
        }
        std::string trace_name = "t";
        trace_name += std::to_string(t);
        if ((*ring)->Append(tracer, trace_name).ok() == false) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*ring)->appended(),
            static_cast<uint64_t>(kThreads * kIterations));
}

core::RouteServer::Options ObsServerOptions(const std::string& tmp) {
  core::RouteServer::Options opt;
  opt.num_workers = 4;
  opt.obs.sample_every = 2;
  // One level under TempDir: TraceRing::Open mkdirs a single level.
  opt.obs.trace_dir = tmp + "/atis_obs_server_traces";
  // Threshold far below any real query latency: every query is "slow",
  // so the log and the ring must see all of them.
  opt.obs.slow_query_ms = 1e-4;
  opt.obs.slow_query_log_path = tmp + "/atis_obs_server_slow.jsonl";
  opt.obs.enable_slo = true;
  return opt;
}

TEST(ObsSamplingTest, RouteServerPersistsTracesLogsSlowQueriesAndTracksSlo) {
  graph::GridGraphGenerator::Options gopt;
  gopt.k = 12;
  gopt.cost_model = graph::GridCostModel::kVariance20;
  auto g = graph::GridGraphGenerator::Generate(gopt);
  ASSERT_TRUE(g.ok());

  const std::string tmp = ::testing::TempDir();
  std::remove((tmp + "/atis_obs_server_slow.jsonl").c_str());
  core::RouteServer server(*g, ObsServerOptions(tmp));
  ASSERT_TRUE(server.init_status().ok())
      << server.init_status().ToString();

  std::vector<core::RouteQuery> queries;
  const graph::NodeId nodes = 144;
  for (size_t i = 0; i < 24; ++i) {
    core::RouteQuery q;
    q.source = static_cast<graph::NodeId>((7 * i + 3) % nodes);
    q.destination = static_cast<graph::NodeId>((11 * i + 72) % nodes);
    if (q.source == q.destination) q.destination = (q.destination + 1) % nodes;
    q.algorithm =
        i % 3 == 0 ? core::Algorithm::kDijkstra : core::Algorithm::kAStar;
    queries.push_back(q);
  }
  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const core::RouteResponse& r : *batch) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }

  // Every query crossed the slow threshold -> all 24 trees persisted and
  // all 24 logged, from 4 workers concurrently.
  ASSERT_NE(server.trace_ring(), nullptr);
  EXPECT_EQ(server.trace_ring()->appended(), 24u);
  ASSERT_NE(server.slow_query_log(), nullptr);
  EXPECT_EQ(server.slow_query_log()->records_written(), 24u);
  const std::string log = Slurp(server.slow_query_log()->path());
  EXPECT_NE(log.find("\"algorithm\":\"dijkstra\""), std::string::npos);
  EXPECT_NE(log.find("\"served_via\":\"engine\""), std::string::npos);

  // Persisted trees are well-formed: a root "query" span tagged with its
  // worker, and metered block reads that stayed non-negative (an unsigned
  // underflow would render astronomically large).
  for (const std::string& path : server.trace_ring()->SlotPaths()) {
    const std::string trace = Slurp(path);
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos) << path;
    EXPECT_NE(trace.find("\"name\":\"query\""), std::string::npos) << path;
    EXPECT_NE(trace.find("\"worker\":"), std::string::npos) << path;
    EXPECT_EQ(trace.find("1844674407"), std::string::npos)
        << path << ": suspicious wrapped-negative counter";
  }

  // SLO windows saw the whole batch, all answered.
  ASSERT_NE(server.slo(), nullptr);
  const SloWindows::Window w = server.slo()->Snapshot().front();
  EXPECT_EQ(w.total, 24u);
  EXPECT_EQ(w.errors, 0u);
  EXPECT_DOUBLE_EQ(w.availability, 1.0);
  EXPECT_GT(w.p50_seconds, 0.0);

  // Pull-style gauges land in the default registry on refresh, and the
  // /statusz body carries every serving section.
  server.RefreshObsGauges();
  const std::string text = MetricsRegistry::Default().ToPrometheusText();
  EXPECT_NE(text.find("atis_server_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("atis_slo_qps{window=\"10s\"}"), std::string::npos);

  const std::string statusz = server.StatuszJson();
  for (const char* section :
       {"\"workers\"", "\"buffer_pool\"", "\"slo\"", "\"traces\"",
        "\"slow_query_log\"", "\"build\"", "\"uptime_seconds\""}) {
    EXPECT_NE(statusz.find(section), std::string::npos)
        << "statusz missing " << section << ": " << statusz;
  }
}

TEST(ObsSamplingTest, TracingRequiresATraceDirectory) {
  graph::GridGraphGenerator::Options gopt;
  gopt.k = 4;
  auto g = graph::GridGraphGenerator::Generate(gopt);
  ASSERT_TRUE(g.ok());
  core::RouteServer::Options opt;
  opt.num_workers = 1;
  opt.obs.sample_every = 8;  // but no trace_dir
  core::RouteServer server(*g, opt);
  EXPECT_FALSE(server.init_status().ok());
}

}  // namespace
}  // namespace atis::obs
