// Tests for the durable traffic-ingestion write path: the ATISW1
// write-ahead log (framing, torn-tail recovery, fault injection through
// the DiskManager), the DurableFile it rides on, atomic whole-file saves,
// and end-to-end crash recovery of a RouteServer killed mid-ingest.
#include "core/update_log.h"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/landmarks.h"
#include "core/memory_search.h"
#include "core/route_server.h"
#include "graph/graph_io.h"
#include "graph/grid_generator.h"
#include "storage/disk_manager.h"
#include "storage/durable_file.h"
#include "util/atomic_file.h"

namespace atis::core {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

graph::Graph MakeGrid(int k) {
  graph::GridGraphGenerator::Options opt;
  opt.k = k;
  opt.cost_model = graph::GridCostModel::kVariance20;
  auto g = graph::GridGraphGenerator::Generate(opt);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

std::vector<EdgeCostUpdate> Batch(uint64_t salt, size_t n) {
  std::vector<EdgeCostUpdate> updates;
  for (size_t i = 0; i < n; ++i) {
    updates.push_back(EdgeCostUpdate{
        static_cast<graph::NodeId>(salt + i),
        static_cast<graph::NodeId>(salt + i + 1),
        1.0 + 0.25 * static_cast<double>(salt) +
            static_cast<double>(i)});
  }
  return updates;
}

TEST(UpdateLogTest, RoundTripReplaysExactBatches) {
  const std::string path = TempPath("wal_roundtrip.atisw");
  fs::remove(path);
  {
    auto log = UpdateLog::Open({.path = path});
    ASSERT_TRUE(log.ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      const std::vector<EdgeCostUpdate> batch = Batch(seq * 10, seq);
      ASSERT_TRUE((*log)->Append(batch, seq).ok());
    }
    EXPECT_EQ((*log)->last_seq(), 3u);
    EXPECT_EQ((*log)->appended_batches(), 3u);
    EXPECT_EQ((*log)->appended_records(), 6u);
    EXPECT_EQ((*log)->sync_commits(), 3u);
  }
  std::vector<std::pair<uint64_t, std::vector<EdgeCostUpdate>>> seen;
  auto stats = UpdateLog::Replay(
      path, nullptr, /*after_seq=*/0,
      [&](uint64_t seq, std::span<const EdgeCostUpdate> updates) {
        seen.emplace_back(seq, std::vector<EdgeCostUpdate>(updates.begin(),
                                                           updates.end()));
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batches, 3u);
  EXPECT_EQ(stats->records, 6u);
  EXPECT_EQ(stats->last_seq, 3u);
  EXPECT_FALSE(stats->torn_tail);
  ASSERT_EQ(seen.size(), 3u);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    const auto& [got_seq, got] = seen[seq - 1];
    EXPECT_EQ(got_seq, seq);
    const std::vector<EdgeCostUpdate> want = Batch(seq * 10, seq);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].u, want[i].u);
      EXPECT_EQ(got[i].v, want[i].v);
      EXPECT_DOUBLE_EQ(got[i].cost, want[i].cost);
    }
  }

  // after_seq skips the checkpointed prefix.
  size_t replayed = 0;
  auto tail = UpdateLog::Replay(
      path, nullptr, /*after_seq=*/2,
      [&](uint64_t seq, std::span<const EdgeCostUpdate>) {
        EXPECT_EQ(seq, 3u);
        ++replayed;
        return Status::OK();
      });
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(replayed, 1u);
}

TEST(UpdateLogTest, MissingFileReplaysEmpty) {
  auto stats = UpdateLog::Replay(
      TempPath("wal_never_written.atisw"), nullptr, 0,
      [](uint64_t, std::span<const EdgeCostUpdate>) {
        ADD_FAILURE() << "nothing to replay";
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batches, 0u);
  EXPECT_EQ(stats->last_seq, 0u);
}

TEST(UpdateLogTest, ForeignFileIsCorruption) {
  const std::string path = TempPath("wal_foreign.atisw");
  WriteAll(path, "this is not a write-ahead log at all\n");
  auto stats = UpdateLog::Replay(
      path, nullptr, 0,
      [](uint64_t, std::span<const EdgeCostUpdate>) { return Status::OK(); });
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsCorruption());
  auto log = UpdateLog::Open({.path = path});
  EXPECT_FALSE(log.ok());
}

TEST(UpdateLogTest, StaleSequenceNumberIsRejected) {
  const std::string path = TempPath("wal_stale_seq.atisw");
  fs::remove(path);
  auto log = UpdateLog::Open({.path = path});
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append(Batch(1, 1), 5).ok());
  EXPECT_FALSE((*log)->Append(Batch(2, 1), 5).ok());
  EXPECT_FALSE((*log)->Append(Batch(2, 1), 4).ok());
  EXPECT_TRUE((*log)->Append(Batch(2, 1), 6).ok());
}

TEST(UpdateLogTest, TornTailIsTruncatedOnOpen) {
  const std::string path = TempPath("wal_torn.atisw");
  fs::remove(path);
  {
    auto log = UpdateLog::Open({.path = path});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(Batch(10, 2), 1).ok());
    ASSERT_TRUE((*log)->Append(Batch(20, 3), 2).ok());
  }
  const std::string intact = ReadAll(path);
  // A crash mid-append leaves a prefix of the next frame.
  WriteAll(path, intact + intact.substr(8, 13));

  auto log = UpdateLog::Open({.path = path});
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE((*log)->recovery().torn_tail);
  EXPECT_EQ((*log)->recovery().batches, 2u);
  EXPECT_EQ((*log)->last_seq(), 2u);
  EXPECT_EQ(fs::file_size(path), intact.size());  // tail gone

  // The log is clean again: appends land on a frame boundary.
  ASSERT_TRUE((*log)->Append(Batch(30, 1), 3).ok());
  auto stats = UpdateLog::Replay(
      path, nullptr, 0,
      [](uint64_t, std::span<const EdgeCostUpdate>) { return Status::OK(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batches, 3u);
  EXPECT_FALSE(stats->torn_tail);
}

TEST(UpdateLogTest, CorruptPayloadStopsReplayAtTheTear) {
  const std::string path = TempPath("wal_bitflip.atisw");
  fs::remove(path);
  uint64_t first_frame_end = 0;
  {
    auto log = UpdateLog::Open({.path = path});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(Batch(10, 2), 1).ok());
    first_frame_end = fs::file_size(path);
    ASSERT_TRUE((*log)->Append(Batch(20, 2), 2).ok());
    ASSERT_TRUE((*log)->Append(Batch(30, 2), 3).ok());
  }
  std::string bytes = ReadAll(path);
  bytes[first_frame_end + 25] ^= 0x40;  // inside frame 2's payload
  WriteAll(path, bytes);

  auto stats = UpdateLog::Replay(
      path, nullptr, 0,
      [](uint64_t seq, std::span<const EdgeCostUpdate>) {
        EXPECT_EQ(seq, 1u);  // only the intact prefix is applied
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batches, 1u);
  EXPECT_TRUE(stats->torn_tail);
  EXPECT_EQ(stats->valid_bytes, first_frame_end);
}

// The recovery invariant, exhaustively: kill the writer at EVERY byte
// offset and the log must reopen cleanly with exactly the batches whose
// frames were fully on disk — never an error, never a partial batch.
TEST(UpdateLogTest, KillAtEveryByteOffsetRecoversTheCommittedPrefix) {
  const std::string full_path = TempPath("wal_killscan_full.atisw");
  fs::remove(full_path);
  std::vector<uint64_t> frame_ends;  // file size after each commit
  {
    auto log = UpdateLog::Open({.path = full_path});
    ASSERT_TRUE(log.ok());
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE((*log)->Append(Batch(seq * 7, 2), seq).ok());
      frame_ends.push_back(fs::file_size(full_path));
    }
  }
  const std::string bytes = ReadAll(full_path);
  const std::string crash_path = TempPath("wal_killscan_crash.atisw");
  for (size_t cut = 8; cut <= bytes.size(); ++cut) {
    WriteAll(crash_path, bytes.substr(0, cut));
    auto log = UpdateLog::Open({.path = crash_path});
    ASSERT_TRUE(log.ok()) << "cut at " << cut << ": "
                          << log.status().ToString();
    uint64_t committed = 0;
    while (committed < frame_ends.size() &&
           frame_ends[committed] <= cut) {
      ++committed;
    }
    EXPECT_EQ((*log)->recovery().batches, committed) << "cut at " << cut;
    EXPECT_EQ((*log)->last_seq(), committed) << "cut at " << cut;
    // And the truncated log accepts the "retransmitted" next batch.
    ASSERT_TRUE((*log)->Append(Batch(99, 1), committed + 1).ok())
        << "cut at " << cut;
  }
}

TEST(DurableFileTest, AppendsAreMeteredInBlockUnits) {
  storage::DiskManager disk;
  const std::string path = TempPath("durable_meter.bin");
  fs::remove(path);
  auto file = storage::DurableFile::Open(path, &disk);
  ASSERT_TRUE(file.ok());
  const uint64_t before = disk.meter().counters().blocks_written;

  const std::string small(100, 'a');
  ASSERT_TRUE((*file)->Append(small.data(), small.size()).ok());
  EXPECT_EQ((*file)->blocks_metered(), 1u);

  const std::string big(5000, 'b');  // 2 blocks at 4 KiB
  ASSERT_TRUE((*file)->Append(big.data(), big.size()).ok());
  EXPECT_EQ((*file)->blocks_metered(), 3u);
  EXPECT_EQ(disk.meter().counters().blocks_written - before, 3u);
  EXPECT_EQ((*file)->size(), 5100u);
}

TEST(DurableFileTest, FailedWritesAreNotMeteredAndWriteNothing) {
  storage::DiskManager disk;
  const std::string path = TempPath("durable_faulted.bin");
  fs::remove(path);
  auto file = storage::DurableFile::Open(path, &disk);
  ASSERT_TRUE(file.ok());

  storage::FaultProfile chaos;
  chaos.write_transient_rate = 1.0;
  disk.SetFaultProfile(chaos);
  const std::string payload(64, 'x');
  EXPECT_FALSE((*file)->Append(payload.data(), payload.size()).ok());
  EXPECT_EQ((*file)->size(), 0u);
  EXPECT_EQ((*file)->blocks_metered(), 0u);
  EXPECT_EQ(disk.meter().counters().blocks_written, 0u);
  EXPECT_EQ(fs::file_size(path), 0u);

  chaos.write_transient_rate = 0.0;
  chaos.sync_transient_rate = 1.0;
  disk.SetFaultProfile(chaos);
  EXPECT_TRUE((*file)->Append(payload.data(), payload.size()).ok());
  EXPECT_FALSE((*file)->Sync().ok());

  disk.SetFaultProfile(storage::FaultProfile{});
  EXPECT_TRUE((*file)->Sync().ok());
}

TEST(UpdateLogTest, FailedCommitLeavesTheLogUnchanged) {
  storage::DiskManager disk;
  const std::string path = TempPath("wal_commit_fault.atisw");
  fs::remove(path);
  auto log = UpdateLog::Open({.path = path, .disk = &disk});
  ASSERT_TRUE(log.ok());
  const uint64_t header_size = fs::file_size(path);

  storage::FaultProfile chaos;
  chaos.sync_transient_rate = 1.0;
  disk.SetFaultProfile(chaos);
  EXPECT_FALSE((*log)->Append(Batch(10, 2), 1).ok());
  EXPECT_EQ((*log)->last_seq(), 0u);
  EXPECT_EQ((*log)->appended_batches(), 0u);
  // The un-synced frame was rolled back: a reopen sees an empty log.
  EXPECT_EQ(fs::file_size(path), header_size);

  disk.SetFaultProfile(storage::FaultProfile{});
  EXPECT_TRUE((*log)->Append(Batch(10, 2), 1).ok());
  EXPECT_EQ((*log)->last_seq(), 1u);
}

// Replay reads a record count above kMaxRecordsPerFrame as a torn tail,
// so a frame that large would be acknowledged and then truncated (with
// every frame after it) by the next Open. Append must refuse it first.
TEST(UpdateLogTest, OversizedBatchIsRefusedBeforeWriting) {
  const std::string path = TempPath("wal_oversized_batch.atisw");
  fs::remove(path);
  auto log = UpdateLog::Open({.path = path});
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append(Batch(1, 2), 1).ok());
  const uint64_t size_before = fs::file_size(path);

  ASSERT_EQ(UpdateLog::kMaxRecordsPerFrame, 16777216u);
  const std::vector<EdgeCostUpdate> oversized(
      UpdateLog::kMaxRecordsPerFrame + 1, EdgeCostUpdate{0, 1, 1.0});
  const Status st = (*log)->Append(oversized, 2);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.ToString().find("16777216"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(fs::file_size(path), size_before);
  EXPECT_EQ((*log)->last_seq(), 1u);

  EXPECT_TRUE((*log)->Append(Batch(5, 3), 2).ok());
  EXPECT_EQ((*log)->last_seq(), 2u);
}

// The nastiest durable fault: a commit's fsync fails AND the rollback
// truncate fails, leaving a CRC-valid never-acknowledged ghost frame in
// the file. The log must poison itself — if a retry could reuse the
// ghost's seq with different contents, replay would apply the ghost
// batch before the real one.
TEST(UpdateLogTest, FailedRollbackPoisonsTheLog) {
  storage::DiskManager disk;
  const std::string path = TempPath("wal_ghost_poison.atisw");
  fs::remove(path);
  auto log = UpdateLog::Open({.path = path, .disk = &disk});
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append(Batch(10, 2), 1).ok());
  EXPECT_TRUE((*log)->poison_status().ok());

  storage::FaultProfile chaos;
  chaos.sync_transient_rate = 1.0;
  chaos.truncate_transient_rate = 1.0;
  disk.SetFaultProfile(chaos);
  EXPECT_FALSE((*log)->Append(Batch(20, 2), 2).ok());
  EXPECT_FALSE((*log)->poison_status().ok());

  // Even with the device healthy again, appends are refused for good:
  // seq 2 must never be reissued with different contents.
  disk.ClearFaultInjection();
  const Status refused = (*log)->Append(Batch(30, 2), 3);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.ToString().find("poisoned"), std::string::npos);
  EXPECT_EQ((*log)->last_seq(), 1u);

  // Reopening recovers: the surviving ghost scans as committed (it was
  // maybe-durable; treating it as applied is the consistent reading) and
  // sequencing continues past it, never through it.
  auto reopened = UpdateLog::Open({.path = path, .disk = &disk});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovery().batches, 2u);
  EXPECT_EQ((*reopened)->last_seq(), 2u);
  ASSERT_TRUE((*reopened)->Append(Batch(30, 2), 3).ok());
}

TEST(AtomicFileTest, ReplacesContentWholly) {
  const std::string path = TempPath("atomic_basic.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "version one").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "v2").ok());
  EXPECT_EQ(ReadAll(path), "v2");
}

TEST(AtomicFileTest, InjectedCrashLeavesThePreviousFileIntact) {
  const std::string path = TempPath("atomic_crash.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "the good copy").ok());
  {
    ScopedAtomicWriteFailure crash(ScopedAtomicWriteFailure::kDuringWrite);
    EXPECT_FALSE(WriteFileAtomic(path, "torn garbage").ok());
  }
  EXPECT_EQ(ReadAll(path), "the good copy");
  {
    ScopedAtomicWriteFailure crash(ScopedAtomicWriteFailure::kBeforeRename);
    EXPECT_FALSE(WriteFileAtomic(path, "never renamed").ok());
  }
  EXPECT_EQ(ReadAll(path), "the good copy");
  // And a later healthy save goes through despite the leftover tmp file.
  ASSERT_TRUE(WriteFileAtomic(path, "the better copy").ok());
  EXPECT_EQ(ReadAll(path), "the better copy");
}

TEST(AtomicFileTest, GraphSaveSurvivesAnInjectedCrash) {
  const graph::Graph g = MakeGrid(4);
  const std::string path = TempPath("atomic_graph.atisg");
  ASSERT_TRUE(graph::SaveGraphFile(g, path).ok());
  {
    ScopedAtomicWriteFailure crash(ScopedAtomicWriteFailure::kBeforeRename);
    EXPECT_FALSE(graph::SaveGraphFile(g, path).ok());
  }
  auto reloaded = graph::LoadGraphFile(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->num_nodes(), g.num_nodes());
  EXPECT_EQ(reloaded->num_edges(), g.num_edges());
}

// End-to-end crash drill: a child process ingests traffic updates through
// the WAL and is SIGKILLed mid-stream. Recovery must (a) come up clean,
// (b) serve routes bit-identical to a reference replay of the committed
// log onto the base graph, and (c) finish fast.
TEST(CrashRecoveryTest, SigkillMidIngestRecoversExactCommittedMetric) {
  const graph::Graph g = MakeGrid(8);
  const std::string dir = TempPath("crash_drill_wal");
  fs::remove_all(dir);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: ingest forever (or until a failure) — the parent's SIGKILL
    // is the only way out, so death lands at an arbitrary WAL offset.
    RouteServer::Options opt;
    opt.num_workers = 1;
    opt.wal.dir = dir;
    RouteServer server(g, opt);
    if (!server.init_status().ok()) _exit(1);
    std::mt19937_64 rng(7);
    for (uint64_t i = 0; i < 1000000; ++i) {
      const auto u = static_cast<graph::NodeId>(rng() % g.num_nodes());
      const std::span<const graph::Edge> out = g.Neighbors(u);
      if (out.empty()) continue;
      const graph::Edge& e = out[rng() % out.size()];
      const double cost = e.cost * (0.8 + 0.4 * (double(rng() % 1000) / 1000.0));
      (void)server.UpdateEdgeCost(u, e.to, cost);
    }
    _exit(0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  kill(child, SIGKILL);
  int wstatus = 0;
  waitpid(child, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Reference metric: the base graph plus every committed WAL frame.
  graph::Graph expected = g;
  auto replay = UpdateLog::Replay(
      dir + "/wal.atisw", nullptr, 0,
      [&](uint64_t, std::span<const EdgeCostUpdate> updates) {
        for (const EdgeCostUpdate& e : updates) {
          ATIS_RETURN_NOT_OK(expected.SetEdgeCost(e.u, e.v, e.cost));
        }
        return Status::OK();
      });
  ASSERT_TRUE(replay.ok());
  ASSERT_GT(replay->batches, 0u) << "child died before committing anything";

  RouteServer::Options opt;
  opt.num_workers = 2;
  opt.wal.dir = dir;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  const RouteServer::IngestStats ing = server.ingest_stats();
  EXPECT_EQ(ing.recovered_batches, replay->batches);
  EXPECT_LT(ing.recovery_seconds, 1.0);

  // The recovered metric is exactly the committed one: every edge cost
  // equals the reference replay bit-for-bit (the snapshot holds the
  // float-rounded stored metric, so round the reference the same way).
  auto snap = server.snapshot();
  const graph::Graph rounded = WithStoredEdgeCosts(expected);
  ASSERT_EQ(snap->num_nodes(), rounded.num_nodes());
  for (graph::NodeId u = 0;
       u < static_cast<graph::NodeId>(rounded.num_nodes()); ++u) {
    const std::span<const graph::Edge> got = snap->Neighbors(u);
    const std::span<const graph::Edge> want = rounded.Neighbors(u);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].to, want[i].to);
      ASSERT_EQ(got[i].cost, want[i].cost)
          << "edge " << u << "->" << got[i].to;
    }
  }

  // And so are the served routes: a fresh server built straight from the
  // reference graph (no WAL) answers bit-identically, path and cost.
  RouteServer::Options ref_opt;
  ref_opt.num_workers = 2;
  RouteServer reference(expected, ref_opt);
  ASSERT_TRUE(reference.init_status().ok());
  std::vector<RouteQuery> queries;
  for (graph::NodeId s = 0; s < 8; ++s) {
    queries.push_back(RouteQuery{s, static_cast<graph::NodeId>(63 - s),
                                 Algorithm::kDijkstra});
  }
  auto batch = server.ServeBatch(queries);
  auto ref_batch = reference.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(ref_batch.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const RouteResponse& resp = (*batch)[i];
    const RouteResponse& want = (*ref_batch)[i];
    ASSERT_TRUE(resp.status.ok());
    ASSERT_TRUE(want.status.ok());
    ASSERT_EQ(resp.result.found, want.result.found);
    EXPECT_EQ(resp.result.cost, want.result.cost) << "query " << i;
    EXPECT_EQ(resp.result.path, want.result.path) << "query " << i;
  }
}

// Same drill through the checkpoint path: kill while checkpoints roll the
// log, recover from checkpoint + WAL tail.
TEST(CrashRecoveryTest, SigkillWithCheckpointsRecoversExactly) {
  const graph::Graph g = MakeGrid(6);
  const std::string dir = TempPath("crash_drill_ckpt");
  fs::remove_all(dir);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    RouteServer::Options opt;
    opt.num_workers = 1;
    opt.wal.dir = dir;
    opt.wal.checkpoint_every = 4;
    RouteServer server(g, opt);
    if (!server.init_status().ok()) _exit(1);
    std::mt19937_64 rng(11);
    for (uint64_t i = 0; i < 1000000; ++i) {
      const auto u = static_cast<graph::NodeId>(rng() % g.num_nodes());
      const std::span<const graph::Edge> out = g.Neighbors(u);
      if (out.empty()) continue;
      const graph::Edge& e = out[rng() % out.size()];
      (void)server.UpdateEdgeCost(u, e.to, e.cost * 1.01);
    }
    _exit(0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  kill(child, SIGKILL);
  int wstatus = 0;
  waitpid(child, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  RouteServer::Options opt;
  opt.num_workers = 1;
  opt.wal.dir = dir;
  opt.wal.checkpoint_every = 4;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  EXPECT_LT(server.ingest_stats().recovery_seconds, 1.0);

  // Parity against an independent recovery: checkpoint + WAL tail from a
  // second server instance must agree edge-for-edge with the first.
  auto snap = server.snapshot();
  RouteServer again(g, opt);
  ASSERT_TRUE(again.init_status().ok());
  auto snap2 = again.snapshot();
  ASSERT_EQ(snap->num_nodes(), snap2->num_nodes());
  for (graph::NodeId u = 0; u < static_cast<graph::NodeId>(snap->num_nodes());
       ++u) {
    const std::span<const graph::Edge> a = snap->Neighbors(u);
    const std::span<const graph::Edge> b = snap2->Neighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to);
      EXPECT_DOUBLE_EQ(a[i].cost, b[i].cost) << "edge " << u << "->" << a[i].to;
    }
  }
}

// A crash between WriteFileAtomic's tmp write and its rename leaves a
// 'checkpoint-<seq>.atisg.tmp.<pid>' file behind, possibly partial and
// with a newer seq than any real checkpoint. Recovery must ignore it
// (never treat it as the newest checkpoint), come up from the real
// checkpoint + WAL tail, and unlink the stale tmp.
TEST(CrashRecoveryTest, StaleCheckpointTmpIsIgnoredAndCleanedUp) {
  const graph::Graph g = MakeGrid(6);
  const std::string dir = TempPath("stale_ckpt_tmp_wal");
  fs::remove_all(dir);

  RouteServer::Options opt;
  opt.num_workers = 1;
  opt.wal.dir = dir;
  opt.wal.checkpoint_every = 2;
  std::vector<std::vector<graph::Edge>> expected;
  {
    RouteServer server(g, opt);
    ASSERT_TRUE(server.init_status().ok());
    // Two batches roll a checkpoint; a third lands in the WAL tail.
    int applied = 0;
    for (graph::NodeId u = 0; applied < 3; ++u) {
      const std::span<const graph::Edge> out = g.Neighbors(u);
      if (out.empty()) continue;
      ASSERT_TRUE(
          server.UpdateEdgeCost(u, out[0].to, out[0].cost * 1.5).ok());
      ++applied;
    }
    ASSERT_GE(server.ingest_stats().checkpoints, 1u);
    auto snap = server.snapshot();
    for (graph::NodeId u = 0;
         u < static_cast<graph::NodeId>(snap->num_nodes()); ++u) {
      const std::span<const graph::Edge> e = snap->Neighbors(u);
      expected.emplace_back(e.begin(), e.end());
    }
  }

  // Simulated crash debris: a partial checkpoint tmp whose seq would win
  // any prefix-based "newest checkpoint" scan, plus a non-checkpoint
  // name that must not be parsed as one.
  const std::string stale_tmp = dir + "/checkpoint-999999.atisg.tmp.4242";
  WriteAll(stale_tmp, "ATISG2 torn checkpoint prefix");
  WriteAll(dir + "/checkpoint-abc.atisg", "not a checkpoint either");

  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  EXPECT_FALSE(fs::exists(stale_tmp)) << "stale tmp not cleaned up";
  auto snap = server.snapshot();
  ASSERT_EQ(static_cast<size_t>(snap->num_nodes()), expected.size());
  for (graph::NodeId u = 0;
       u < static_cast<graph::NodeId>(snap->num_nodes()); ++u) {
    const std::span<const graph::Edge> got = snap->Neighbors(u);
    ASSERT_EQ(got.size(), expected[u].size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].to, expected[u][i].to);
      EXPECT_EQ(got[i].cost, expected[u][i].cost)
          << "edge " << u << "->" << got[i].to;
    }
  }
}

// Past the WAL commit the writer touches no storage: overlay
// re-customization reads the metric snapshot it is about to publish. So
// on an overlay server without a WAL whose every page access faults, an
// update batch still publishes, and the worker, whose replica cannot
// catch up, answers at the new version degraded from that snapshot.
TEST(RouteServerWritePathTest, UpdatesPublishWhileEveryPageAccessFaults) {
  const graph::Graph g = MakeGrid(16);
  RouteServer::Options opt;
  opt.num_workers = 1;
  opt.overlay_cell_order = 1;
  opt.pool_frames = 16;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  // Nothing cached: the replica's catch-up must read the disk.
  ASSERT_TRUE(server.pool().EvictAll().ok());
  storage::FaultProfile chaos;
  chaos.transient_rate = 1.0;  // every page access fails
  server.disk().SetFaultProfile(chaos);
  const graph::Edge first = g.Neighbors(0)[0];
  const graph::Edge second = g.Neighbors(17)[1];
  const EdgeCostUpdate batch[] = {{0, first.to, first.cost * 2.0},
                                  {17, second.to, second.cost * 0.5}};
  ASSERT_TRUE(server.ApplyUpdates(batch).ok());
  EXPECT_TRUE(server.write_path_status().ok());
  EXPECT_EQ(server.published_version(), 2u);
  EXPECT_EQ(server.overlay_metric_version(), 2u);

  graph::Graph updated = g;
  for (const EdgeCostUpdate& e : batch) {
    ASSERT_TRUE(updated.SetEdgeCost(e.u, e.v, e.cost).ok());
  }
  const graph::Graph rounded = WithStoredEdgeCosts(updated);
  const auto last = static_cast<graph::NodeId>(g.num_nodes() - 1);
  const std::vector<RouteQuery> queries = {
      RouteQuery{0, last, Algorithm::kDijkstra},
      RouteQuery{17, last - 20, Algorithm::kAStar, AStarVersion::kV5}};
  auto served = server.ServeBatch(queries);
  ASSERT_TRUE(served.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const RouteResponse& resp = (*served)[i];
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.metric_version, 2u) << "query " << i;
    EXPECT_TRUE(resp.degraded) << "query " << i;
    EXPECT_EQ(resp.served_via, ServedVia::kSnapshot) << "query " << i;
    const PathResult want =
        DijkstraSearch(rounded, queries[i].source, queries[i].destination);
    ASSERT_TRUE(want.found);
    EXPECT_EQ(resp.result.cost, want.cost) << "query " << i;
  }
}

}  // namespace
}  // namespace atis::core
