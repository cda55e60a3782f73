// Metrics registry: counters/gauges/histograms, bucket boundaries, and the
// Prometheus-text / JSON exports (including escaping rules).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/storage_collectors.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace atis::obs {
namespace {

TEST(Counter, IncrementAndSet) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(9);
  EXPECT_EQ(c.value(), 10u);
  c.Set(3);
  EXPECT_EQ(c.value(), 3u);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 5.0});
  // A value equal to a bound lands in that bound's bucket (le semantics).
  h.Observe(1.0);
  h.Observe(1.5);
  h.Observe(2.0);
  h.Observe(5.0);
  h.Observe(7.0);  // above every bound: +Inf bucket only
  EXPECT_EQ(h.CumulativeCount(0), 1u);  // <= 1
  EXPECT_EQ(h.CumulativeCount(1), 3u);  // <= 2
  EXPECT_EQ(h.CumulativeCount(2), 4u);  // <= 5
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.5);
}

TEST(HistogramTest, ExponentialBoundsFollowThe125Ladder) {
  const auto b = Histogram::ExponentialBounds(1e-2, 1.0);
  const std::vector<double> expect{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0};
  ASSERT_EQ(b.size(), expect.size());
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(b[i], expect[i], 1e-12) << i;
  }
}

TEST(HistogramTest, BoundsAreSortedAndDeduplicated) {
  Histogram h({5.0, 1.0, 5.0, 2.0});
  const std::vector<double> expect{1.0, 2.0, 5.0};
  EXPECT_EQ(h.bounds(), expect);
}

TEST(MetricsRegistryTest, LabelsDistinguishSeries) {
  MetricsRegistry reg;
  reg.GetCounter("runs", "runs", {{"algorithm", "dijkstra"}}).Increment(2);
  reg.GetCounter("runs", "runs", {{"algorithm", "astar"}}).Increment(5);
  EXPECT_EQ(
      reg.GetCounter("runs", "runs", {{"algorithm", "dijkstra"}}).value(),
      2u);
  EXPECT_EQ(reg.GetCounter("runs", "runs", {{"algorithm", "astar"}}).value(),
            5u);
}

TEST(MetricsRegistryTest, PrometheusTextHasHelpTypeAndSamples) {
  MetricsRegistry reg;
  reg.GetCounter("atis_runs_total", "Total runs").Increment(7);
  reg.GetGauge("atis_frames", "Pool frames").Set(64);
  const std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("# HELP atis_runs_total Total runs\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE atis_runs_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("atis_runs_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE atis_frames gauge\n"), std::string::npos);
  EXPECT_NE(text.find("atis_frames 64\n"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusHistogramIsCumulativeWithInf) {
  MetricsRegistry reg;
  Histogram& h =
      reg.GetHistogram("lat", "latency", {0.1, 1.0}, {{"q", "diag"}});
  h.Observe(0.05);
  h.Observe(0.5);
  h.Observe(2.0);
  const std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("lat_bucket{q=\"diag\",le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{q=\"diag\",le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{q=\"diag\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_count{q=\"diag\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum{q=\"diag\"} 2.55\n"), std::string::npos);
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  EXPECT_EQ(EscapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  MetricsRegistry reg;
  reg.GetCounter("c", "", {{"k", "say \"hi\"\n"}}).Increment();
  const std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("c{k=\"say \\\"hi\\\"\\n\"} 1\n"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonEscapesControlCharacters) {
  EXPECT_EQ(EscapeJson("a\"b\\c\nd\te\rf"), "a\\\"b\\\\c\\nd\\te\\rf");
  EXPECT_EQ(EscapeJson(std::string(1, '\x01')), "\\u0001");
}

TEST(MetricsRegistryTest, JsonDumpContainsEverySeries) {
  MetricsRegistry reg;
  reg.GetCounter("c", "help", {{"a", "b"}}).Increment(4);
  reg.GetGauge("g", "").Set(1.5);
  reg.GetHistogram("h", "", {1.0}).Observe(0.5);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\":[{\"name\":\"c\",\"labels\":"
                      "{\"a\":\"b\"},\"value\":4}]"),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\":[1]"), std::string::npos);
  EXPECT_NE(json.find("\"cumulative_counts\":[1,1]"), std::string::npos);
}

TEST(MetricsRegistryTest, CollectorsRunAtDumpTime) {
  MetricsRegistry reg;
  int runs = 0;
  reg.AddCollector([&](MetricsRegistry& r) {
    ++runs;
    r.GetCounter("mirrored", "").Set(static_cast<uint64_t>(runs));
  });
  EXPECT_EQ(runs, 0);  // registration alone does not collect
  const std::string text = reg.ToPrometheusText();
  EXPECT_EQ(runs, 1);
  EXPECT_NE(text.find("mirrored 1\n"), std::string::npos);
  reg.ToJson();
  EXPECT_EQ(runs, 2);
}

TEST(MetricsRegistryTest, ResetDropsMetricsAndCollectors) {
  MetricsRegistry reg;
  reg.GetCounter("c", "").Increment();
  reg.AddCollector([](MetricsRegistry& r) { r.GetGauge("g", "").Set(1); });
  reg.Reset();
  const std::string text = reg.ToPrometheusText();
  EXPECT_EQ(text.find("c "), std::string::npos);
  EXPECT_EQ(text.find("g "), std::string::npos);
}

TEST(StorageCollectorsTest, MirrorIoMeterAndPoolIntoRegistry) {
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 4);
  MetricsRegistry reg;
  RegisterStorageCollectors(reg, &disk, &pool);

  // Create a page, evict it (1 write-back), then fetch it twice: the
  // first fetch misses and reads from disk, the second hits the cache.
  storage::PageId id = storage::kInvalidPageId;
  {
    auto fresh = pool.NewPage();
    ASSERT_TRUE(fresh.ok());
    id = fresh->id();
    fresh->MutablePage();  // dirty, so eviction charges the write
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  {
    auto miss = pool.FetchPage(id);
    ASSERT_TRUE(miss.ok());
  }
  {
    auto hit = pool.FetchPage(id);
    ASSERT_TRUE(hit.ok());
  }

  const std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("atis_blocks_read_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("atis_blocks_written_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("atis_buffer_misses_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("atis_buffer_evictions_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("atis_buffer_frames 4\n"), std::string::npos);
  // hit_ratio = hits / (hits + misses); one of each = 0.5 once the second
  // fetch hits.
  EXPECT_NE(text.find("atis_buffer_hits_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("atis_buffer_hit_ratio 0.5\n"), std::string::npos);
}

TEST(MetricsRegistryTest, DefaultIsAProcessWideSingleton) {
  EXPECT_EQ(&MetricsRegistry::Default(), &MetricsRegistry::Default());
}

TEST(HistogramTest, PercentileInterpolatesAndClampsToObservedRange) {
  Histogram h({1.0, 2.0, 5.0});
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 0.0);  // empty histogram

  // Two observations in (1,2], two above every bound.
  h.Observe(1.2);
  h.Observe(1.8);
  h.Observe(7.0);
  h.Observe(9.0);
  const double p50 = h.Percentile(50.0);
  const double p99 = h.Percentile(99.0);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_LE(p50, p99);
  // The +Inf bucket's upper edge is the observed max, so the estimate
  // never invents values beyond the data.
  EXPECT_LE(p99, 9.0);
  EXPECT_GE(h.Percentile(0.0), 1.2 - 1e-12);  // clamped to observed min
}

TEST(HistogramTest, PercentileFromBucketsMatchesHandComputation) {
  const std::vector<double> bounds{1.0, 2.0, 5.0};
  // Non-cumulative: 2 in (min,1], 2 in (1,2], 0 in (2,5], 1 in (5,max].
  const std::vector<uint64_t> buckets{2, 2, 0, 1};
  // p50: target rank 2.5 lands in the second bucket after 2 -> a quarter
  // of the way through [1, 2].
  EXPECT_NEAR(PercentileFromBuckets(bounds, buckets, 50.0, 0.5, 9.0), 1.25,
              1e-9);
  // p20: rank 1.0 is halfway through the first bucket [min_hint, 1].
  EXPECT_NEAR(PercentileFromBuckets(bounds, buckets, 20.0, 0.5, 9.0), 0.75,
              1e-9);
  // p100: the full +Inf bucket -> its upper edge, max_hint.
  EXPECT_NEAR(PercentileFromBuckets(bounds, buckets, 100.0, 0.5, 9.0), 9.0,
              1e-9);
}

TEST(MetricsRegistryTest, HistogramExportDerivesQuantileGauges) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("atis_test_latency_seconds", "test",
                                  {0.01, 0.1, 1.0}, {{"q", "diag"}});
  for (int i = 0; i < 100; ++i) h.Observe(0.05);

  const std::string text = reg.ToPrometheusText();
  for (const char* derived :
       {"atis_test_latency_seconds_p50", "atis_test_latency_seconds_p95",
        "atis_test_latency_seconds_p99"}) {
    EXPECT_NE(text.find("# TYPE " + std::string(derived) + " gauge"),
              std::string::npos)
        << derived;
    EXPECT_NE(text.find(std::string(derived) + "{q=\"diag\"} "),
              std::string::npos)
        << derived;
  }

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(MetricsRegistryTest, ListFamiliesReportsTypesLabelsAndSeries) {
  MetricsRegistry reg;
  reg.GetCounter("atis_c_total", "help c", {{"algorithm", "dijkstra"}});
  reg.GetCounter("atis_c_total", "help c", {{"algorithm", "astar"}});
  reg.GetGauge("atis_g_ratio", "help g");
  reg.GetHistogram("atis_h_seconds", "help h", {1.0});
  reg.AddCollector([](MetricsRegistry& r) {
    r.GetGauge("atis_from_collector", "").Set(1.0);
  });

  const std::vector<MetricsRegistry::FamilyInfo> families =
      reg.ListFamilies();
  ASSERT_EQ(families.size(), 4u);  // collectors ran: their family shows
  // Sorted by name.
  EXPECT_EQ(families[0].name, "atis_c_total");
  EXPECT_EQ(families[0].type, "counter");
  EXPECT_EQ(families[0].num_series, 2u);
  ASSERT_EQ(families[0].label_keys.size(), 1u);
  EXPECT_EQ(families[0].label_keys[0], "algorithm");
  EXPECT_EQ(families[1].name, "atis_from_collector");
  EXPECT_EQ(families[2].name, "atis_g_ratio");
  EXPECT_EQ(families[2].type, "gauge");
  EXPECT_EQ(families[3].name, "atis_h_seconds");
  EXPECT_EQ(families[3].type, "histogram");
}

// The documented metric inventory (README "Live observability" table).
// Every family any layer registers must appear here — the test fails on
// undocumented additions and on renames that leave the table stale.
constexpr const char* kDocumentedFamilies[] = {
    "atis_batch_adjacency_fetches_total",
    "atis_batch_batches_total",
    "atis_batch_coalesced_total",
    "atis_batch_members_total",
    "atis_batch_shared_adjacency_hits_total",
    "atis_blocks_read_total",
    "atis_blocks_written_total",
    "atis_buffer_dirty_writebacks_total",
    "atis_buffer_evictions_total",
    "atis_buffer_frames",
    "atis_buffer_hit_ratio",
    "atis_buffer_hits_total",
    "atis_buffer_misses_total",
    "atis_buffer_pool_occupancy_ratio",
    "atis_buffer_pool_shards",
    "atis_buffer_read_retries_total",
    "atis_buffer_retries_exhausted_total",
    "atis_disk_faults_injected_total",
    "atis_disk_pages_allocated",
    "atis_io_cost_units",
    "atis_landmark_count",
    "atis_landmark_preprocess_blocks_read_total",
    "atis_landmark_preprocess_blocks_written_total",
    "atis_landmark_preprocess_seconds",
    "atis_landmark_select_seconds",
    "atis_overlay_boundary_nodes",
    "atis_overlay_cells",
    "atis_overlay_cells_recustomized_total",
    "atis_overlay_customizations_total",
    "atis_overlay_customize_seconds",
    "atis_overlay_expansions_total",
    "atis_overlay_metric_version",
    "atis_overlay_preprocess_blocks_read_total",
    "atis_overlay_preprocess_blocks_written_total",
    "atis_overlay_preprocess_seconds",
    "atis_partition_boundary_nodes",
    "atis_partition_cross_queries_total",
    "atis_partition_partitions",
    "atis_partition_queries_total",
    "atis_partition_settled_overlay_total",
    "atis_partition_settled_store_total",
    "atis_query_latency_seconds",
    "atis_relations_created_total",
    "atis_relations_deleted_total",
    "atis_route_cache_hits_total",
    "atis_route_cache_misses_total",
    "atis_route_cache_stale_evictions_total",
    "atis_search_iterations_total",
    "atis_search_runs_total",
    "atis_server_admission_shed_total",
    "atis_server_breaker_open_transitions_total",
    "atis_server_breaker_rejections_total",
    "atis_server_deadline_exceeded_total",
    "atis_server_degraded_snapshot_total",
    "atis_server_degraded_stale_total",
    "atis_server_queries_total",
    "atis_server_query_failures_total",
    "atis_server_query_latency_seconds",
    "atis_server_slow_queries_total",
    "atis_server_traces_sampled_total",
    "atis_server_uptime_seconds",
    "atis_slo_availability_ratio",
    "atis_slo_degraded_ratio",
    "atis_slo_error_budget_burn_rate",
    "atis_slo_latency_p50_seconds",
    "atis_slo_latency_p95_seconds",
    "atis_slo_latency_p99_seconds",
    "atis_slo_qps",
    "atis_snapshot_landmark_revalidations_total",
    "atis_snapshot_published_total",
    "atis_snapshot_version",
    "atis_snapshot_worker_catchups_total",
    "atis_update_stage_seconds",
    "atis_wal_append_failures_total",
    "atis_wal_appends_total",
    "atis_wal_bytes_written_total",
    "atis_wal_checkpoints_total",
    "atis_wal_records_total",
    "atis_wal_replayed_batches_total",
    "atis_wal_replayed_records_total",
    "atis_wal_torn_tail_truncations_total",
};

bool IsDocumented(const std::string& name) {
  for (const char* doc : kDocumentedFamilies) {
    if (name == doc) return true;
  }
  return false;
}

void CheckConventions(const MetricsRegistry::FamilyInfo& fam) {
  EXPECT_TRUE(fam.name.starts_with("atis_"))
      << fam.name << ": families are atis_-prefixed";
  if (fam.type == "counter") {
    EXPECT_TRUE(fam.name.ends_with("_total"))
        << fam.name << ": counters end in _total";
  }
  if (fam.name.ends_with("_ratio")) {
    EXPECT_EQ(fam.type, "gauge") << fam.name << ": ratios are gauges";
  }
}

TEST(MetricsInventoryTest, RegisteredFamiliesMatchTheDocumentedSet) {
  // A local registry picks up the storage collectors and the SLO gauges
  // deterministically (the server-side counters are covered through the
  // default-registry sweep below, populated by whichever tests served
  // queries in this process).
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 4);
  MetricsRegistry reg;
  RegisterStorageCollectors(reg, &disk, &pool);
  SloWindows slo;
  slo.PublishGauges(reg);

  for (const MetricsRegistry::FamilyInfo& fam : reg.ListFamilies()) {
    EXPECT_TRUE(IsDocumented(fam.name))
        << fam.name << " is registered but not in the documented inventory";
    CheckConventions(fam);
  }
  // The pre-rename gauge must be gone for good.
  const std::string text = reg.ToPrometheusText();
  EXPECT_EQ(text.find("atis_buffer_pool_occupancy "), std::string::npos);
  EXPECT_NE(text.find("atis_buffer_pool_occupancy_ratio "),
            std::string::npos);

  for (const MetricsRegistry::FamilyInfo& fam :
       MetricsRegistry::Default().ListFamilies()) {
    if (fam.name.rfind("atis_", 0) != 0) continue;  // test-local families
    EXPECT_TRUE(IsDocumented(fam.name))
        << fam.name << " is registered but not in the documented inventory";
    CheckConventions(fam);
  }
}

}  // namespace
}  // namespace atis::obs
