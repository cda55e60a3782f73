#!/usr/bin/env bash
# Tier-1 gate: full build + test suite, then a ThreadSanitizer pass over
# the concurrent components (buffer pool, route server, route cache,
# resilience machinery, disk-manager fault injection).
# Run from anywhere; builds land in <repo>/build and <repo>/build-tsan.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: build + ctest =="
cmake -B "$repo/build" -S "$repo"
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

echo
echo "== tsan: concurrent stress tests (buffer pool / route server / batching / route cache / overlay / resilience / ingestion / observability / per-thread I/O accounting) =="
cmake -B "$repo/build-tsan" -S "$repo" -DATIS_SANITIZE=thread
cmake --build "$repo/build-tsan" -j "$jobs" \
  --target storage_test route_server_test batch_test alt_cache_test \
  resilience_test obs_test overlay_test ingest_test db_search_test
ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" \
  -R 'BufferPool|RouteServer|RouteCache|Resilien|DiskManager|CircuitBreaker|Deadline|SloWindows|HttpExporter|SlowQueryLog|TraceRing|ObsSampling|Batch|Overlay|UpdateLog|DurableFile|AtomicFile|CrashRecovery|Ingest|IoMeter|DbThreadCounters'
# The pool's and the disk's races are rare interleavings: run their tests
# 20 more times.
"$repo/build-tsan/tests/storage_test" --gtest_filter='BufferPool*:DiskManager*' \
  --gtest_repeat=20 --gtest_brief=1

echo
echo "check.sh: all gates passed"
