#!/usr/bin/env bash
# Sanitizer gate: builds the tree and runs the full test suite under each
# requested sanitizer. With no arguments AddressSanitizer, ThreadSanitizer
# (the background indexer makes data-race coverage mandatory) and
# UndefinedBehaviorSanitizer all run.
#
# --bench-smoke additionally executes every bench binary with a tiny
# workload (DOMINO_BENCH_SMOKE=1) inside each sanitizer build, so the
# bench-only code paths (notably the E14 multi-threaded group-commit
# driver) get race/UB coverage without full-run cost.
#
# --crash-matrix upgrades the torn-page recovery tests from their
# sampled default to the exhaustive sweep (DOMINO_CRASH_MATRIX=1: every
# checkpoint fault point × every tearable page, every WAL cut offset),
# then reruns the log-recovery tests every store now depends on: the
# store crash/truncation tests in storage_test and the SharedLog torn-tail
# and store-on-log tests in shared_log_test (every NoteStore, standalone
# or on a server, recovers through a SharedLog stream), the
# Append/SyncThrough crash-copy tests, and the tests that copy a fleet at
# each step of a router pass (mail_test), between a replication batch's
# installs and its sync, and just after a batch's sync or a first
# session (replication_test). The last two cover the info record that
# carries each database's replication history: a recovered
# received-through cutoff never covers a note the store lacks, a
# sent-through cutoff may lag but never leads, and a database's first
# peer survives; the format tests refuse a version-2 store by its meta
# file or its logged info record (storage_test).
#
# --formula-diff re-runs the tree-walker-vs-bytecode-VM differential
# harness with a much larger generated corpus (DOMINO_FORMULA_DIFF_N)
# inside each sanitizer build, so engine-divergence hunting also gets
# ASan/TSan/UBSan coverage.
#
# --workload-smoke executes the E17 NotesBench-style macro workload
# driver (bench_workload) with its tiny-N smoke sweep inside each
# sanitizer build. The driver exits non-zero on any end-of-run invariant
# violation (undrained mail.boxes, mail accounting mismatch, leaked MVCC
# versions, diverged replicas), so this doubles as a cross-subsystem
# consistency check, not just a crash test.
#
# --mvcc-stress loops the MVCC snapshot-semantics suite, the
# multi-reader/writer stress tests, the update-queue scheduling tests
# (writers drain with no pool; the pool is set and cleared while writers
# run), the secured-view and secured-search differentials, the full-text
# oracle (FullTextIndex against a brute-force model over seeded scripts
# of edits, pins and reclaims; each repetition runs new seeds), and the
# replication suite (its mutual cluster pair has a writer thread per
# side) — mvcc_test + concurrency_test + indexer_test + view_acl_test +
# search_acl_test + fulltext_oracle_test + replication_test —
# DOMINO_MVCC_STRESS_ITERS times (default 20) inside each sanitizer
# build — snapshot-isolation races are interleaving-sensitive, so one
# pass per sanitizer is not enough signal. The looped
# view_acl_test runs DOMINO_VIEW_ACL_ROUNDS seeded rounds per mode
# (default 100 here; the plain ctest pass runs its full 1 000), and
# search_acl_test DOMINO_SEARCH_ACL_ROUNDS (default 100 here, 300 in
# ctest). concurrency_test's
# SecuredReadsMatchTheirPinWhileReaderFieldsFlip runs 4 TraverseViewAs +
# SearchAs readers against a writer that flips reader fields and
# deletes documents, and checks each result against its pin.
#
# When clang++ is on PATH, a static thread-safety pass also runs first:
# a Clang build of src/ with -Wthread-safety promoted to an error, which
# checks the GUARDED_BY/REQUIRES annotations on Database, ViewIndex and
# FullTextIndex. On GCC-only machines the pass is
# skipped with a notice (the annotations compile away under GCC).
# Usage: scripts/check.sh [--bench-smoke] [--workload-smoke] \
#                         [--crash-matrix] [--formula-diff] \
#                         [--mvcc-stress] [address|thread|undefined ...]
set -euo pipefail

BENCH_SMOKE=0
WORKLOAD_SMOKE=0
CRASH_MATRIX=0
FORMULA_DIFF=0
MVCC_STRESS=0
SANITIZERS=()
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --workload-smoke) WORKLOAD_SMOKE=1 ;;
    --crash-matrix) CRASH_MATRIX=1 ;;
    --formula-diff) FORMULA_DIFF=1 ;;
    --mvcc-stress) MVCC_STRESS=1 ;;
    *) SANITIZERS+=("$arg") ;;
  esac
done
if [ ${#SANITIZERS[@]} -eq 0 ]; then
  SANITIZERS=(address thread undefined)
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

if command -v clang++ >/dev/null 2>&1; then
  echo "== check.sh: clang thread-safety analysis =="
  TSA_DIR="$ROOT/build-tsa"
  cmake -B "$TSA_DIR" -S "$ROOT" \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDOMINO_THREAD_SAFETY=ON
  cmake --build "$TSA_DIR" -j"$(nproc)"
else
  echo "== check.sh: clang++ not found; skipping thread-safety analysis =="
fi

for SANITIZER in "${SANITIZERS[@]}"; do
  echo "== check.sh: $SANITIZER =="
  BUILD_DIR="$ROOT/build-$SANITIZER"
  cmake -B "$BUILD_DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDOMINO_SANITIZE="$SANITIZER"
  cmake --build "$BUILD_DIR" -j"$(nproc)"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"
  if [ "$CRASH_MATRIX" -eq 1 ]; then
    echo "== check.sh: $SANITIZER exhaustive crash matrix =="
    DOMINO_CRASH_MATRIX=1 "$BUILD_DIR/tests/pager_test" \
      --gtest_filter='*CheckpointFaultMatrix*:*CrashMatrixTest*'
    DOMINO_CRASH_MATRIX=1 "$BUILD_DIR/tests/storage_test" \
      --gtest_filter='*NoteStoreTest.Crash*:*NoteStoreTest.Refuses*'
    DOMINO_CRASH_MATRIX=1 "$BUILD_DIR/tests/shared_log_test" \
      --gtest_filter='*TornTail*:*NoteStoreSharedLog*:*SharedLogAppend*'
    "$BUILD_DIR/tests/mail_test" --gtest_filter='*RouterCrash*'
    "$BUILD_DIR/tests/replication_test" \
      --gtest_filter='*BatchedInstall*:*ReplicaRestart*'
  fi
  if [ "$FORMULA_DIFF" -eq 1 ]; then
    echo "== check.sh: $SANITIZER formula differential harness (10k) =="
    DOMINO_FORMULA_DIFF_N=10000 "$BUILD_DIR/tests/formula_diff_test"
  fi
  if [ "$MVCC_STRESS" -eq 1 ]; then
    ITERS="${DOMINO_MVCC_STRESS_ITERS:-20}"
    echo "== check.sh: $SANITIZER mvcc stress x$ITERS =="
    "$BUILD_DIR/tests/mvcc_test" --gtest_repeat="$ITERS" \
      --gtest_break_on_failure
    "$BUILD_DIR/tests/concurrency_test" --gtest_repeat="$ITERS" \
      --gtest_break_on_failure
    "$BUILD_DIR/tests/indexer_test" --gtest_repeat="$ITERS" \
      --gtest_break_on_failure
    DOMINO_VIEW_ACL_ROUNDS="${DOMINO_VIEW_ACL_ROUNDS:-100}" \
      "$BUILD_DIR/tests/view_acl_test" --gtest_repeat="$ITERS" \
      --gtest_break_on_failure
    DOMINO_SEARCH_ACL_ROUNDS="${DOMINO_SEARCH_ACL_ROUNDS:-100}" \
      "$BUILD_DIR/tests/search_acl_test" --gtest_repeat="$ITERS" \
      --gtest_break_on_failure
    "$BUILD_DIR/tests/fulltext_oracle_test" --gtest_repeat="$ITERS" \
      --gtest_break_on_failure
    "$BUILD_DIR/tests/replication_test" --gtest_repeat="$ITERS" \
      --gtest_break_on_failure
  fi
  if [ "$WORKLOAD_SMOKE" -eq 1 ]; then
    echo "== check.sh: $SANITIZER workload-smoke bench_workload =="
    DOMINO_BENCH_SMOKE=1 "$BUILD_DIR/bench/bench_workload"
  fi
  if [ "$BENCH_SMOKE" -eq 1 ]; then
    for BENCH in "$BUILD_DIR"/bench/bench_*; do
      [ -x "$BENCH" ] || continue
      echo "== check.sh: $SANITIZER bench-smoke $(basename "$BENCH") =="
      DOMINO_BENCH_SMOKE=1 "$BENCH" --benchmark_min_time=0.01s \
        >/dev/null
    done
  fi
done
