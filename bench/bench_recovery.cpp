// E7 — Transaction logging: commit throughput per sync mode (a lone
// group-commit writer pays one fsync per commit), and restart recovery time
// vs WAL length (with/without checkpointing), reproducing the Domino R5
// transaction-logging story.
//
// E14 — Group commit on the server-wide shared log: commits/sec vs writer
// thread count for fsync-per-commit (one log per store, or one shared log
// with the writers serialized by the bench) against leader/follower group
// commit, showing the fsync count staying near-flat as writers scale.

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "storage/note_store.h"
#include "wal/shared_log.h"

using namespace dominodb;
using namespace dominodb::bench;

namespace {

Note Doc(Rng* rng, int i) {
  Note note = SyntheticDoc(rng, 300);
  note.StampCreated(Unid{0xBE, static_cast<uint64_t>(i + 1)}, i + 1);
  return note;
}

// --- E14 ------------------------------------------------------------------

struct E14Result {
  double commits_per_sec = 0;
  uint64_t syncs = 0;
  uint64_t commits = 0;
};

// `writers` threads, each committing `per_writer` docs into its own store.
// Every log runs group commit; a log with one committer at a time syncs
// once per commit. kPrivate: each store opens a one-stream log of its own
// (the kernel may merge flushes of DIFFERENT files). kSharedSerialized /
// kSharedGrouped: all stores multiplex one SharedLog, with the writers
// serialized by a bench-side mutex around Put vs committing concurrently.
enum class E14Mode {
  kPrivate,
  kSharedSerialized,
  kSharedGrouped,
};

E14Result RunE14(E14Mode mode, int writers, int per_writer) {
  BenchDir dir("e14_" + std::to_string(static_cast<int>(mode)) + "_" +
               std::to_string(writers));
  stats::StatRegistry stats;  // private registry: per-run counters
  std::unique_ptr<wal::SharedLog> log;
  if (mode != E14Mode::kPrivate) {
    wal::SharedLogOptions options;
    options.stats = &stats;
    log = *wal::SharedLog::Open(dir.Sub("txnlog"), options);
  }
  std::vector<std::unique_ptr<NoteStore>> stores;
  for (int w = 0; w < writers; ++w) {
    StoreOptions options;
    options.checkpoint_threshold_bytes = 0;
    options.stats = &stats;
    if (log != nullptr) {
      options.shared_log = log.get();
      options.shared_stream =
          *log->RegisterStream("db" + std::to_string(w) + ".nsf");
    } else {
      options.sync_mode = wal::SyncMode::kGroupCommit;
    }
    DatabaseInfo info;
    info.replica_id = Unid{0xE14, static_cast<uint64_t>(w + 1)};
    stores.push_back(*NoteStore::Open(dir.Sub("db" + std::to_string(w)),
                                      options, info));
  }
  std::atomic<int> failures{0};
  std::mutex serial;  // kSharedSerialized: one commit in flight at a time
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      // NoteStore is single-threaded by contract; each thread owns one.
      Rng rng(static_cast<uint64_t>(w) + 7);
      for (int i = 0; i < per_writer; ++i) {
        Note note = Doc(&rng, i);
        std::unique_lock<std::mutex> lock(serial, std::defer_lock);
        if (mode == E14Mode::kSharedSerialized) lock.lock();
        if (!stores[w]->Put(&note).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  double secs = watch.ElapsedMicros() / 1e6;
  if (failures.load() != 0) {
    printf("!! %d commit failures\n", failures.load());
  }
  E14Result result;
  result.commits = static_cast<uint64_t>(writers) * per_writer;
  result.commits_per_sec = result.commits / secs;
  result.syncs = stats.GetCounter("Server.WAL.Syncs").value();
  return result;
}

void RunE14Sweep() {
  PrintHeader("E14 — server-wide shared log with group commit",
              "one shared log + leader/follower group commit amortizes the "
              "commit fsync across concurrent writers: syncs stay near-flat "
              "as writers scale, where fsync-per-commit grows linearly");
  const int per_writer = ScaleN(400, 10);
  printf("%-18s %-8s %-10s %-12s %-10s %-12s\n", "mode", "writers",
         "commits", "commits/sec", "fsyncs", "commits/sync");
  for (E14Mode mode : {E14Mode::kPrivate, E14Mode::kSharedSerialized,
                       E14Mode::kSharedGrouped}) {
    const char* name = mode == E14Mode::kPrivate          ? "fsync/private"
                       : mode == E14Mode::kSharedSerialized ? "fsync/shared"
                                                            : "group/shared";
    for (int writers : {1, 2, 4, 8}) {
      E14Result r = RunE14(mode, writers, per_writer);
      printf("%-18s %-8d %-10llu %-12.0f %-10llu %-12.1f\n", name, writers,
             static_cast<unsigned long long>(r.commits), r.commits_per_sec,
             static_cast<unsigned long long>(r.syncs),
             r.syncs > 0 ? static_cast<double>(r.commits) / r.syncs : 0.0);
    }
  }
}

}  // namespace

int main() {
  PrintHeader("E7 — write-ahead logging and restart recovery",
              "group-buffered commits are orders of magnitude faster than "
              "fsync-per-commit; recovery time is linear in WAL length and "
              "resets at a checkpoint");

  // --- Commit throughput by sync mode. ---------------------------------
  printf("%-14s %-10s %-14s\n", "sync mode", "commits", "commits/sec");
  // The fsync row is group commit with one committer: one sync per commit.
  for (auto mode : {wal::SyncMode::kNone, wal::SyncMode::kGroupCommit}) {
    BenchDir dir(mode == wal::SyncMode::kNone ? "sync_none" : "sync_group");
    StoreOptions options;
    options.sync_mode = mode;
    options.checkpoint_threshold_bytes = 0;
    DatabaseInfo info;
    info.replica_id = Unid{1, 2};
    auto store = *NoteStore::Open(dir.Sub("db"), options, info);
    Rng rng(1);
    int commits = mode == wal::SyncMode::kNone ? ScaleN(20000, 200)
                                               : ScaleN(500, 20);
    Stopwatch watch;
    for (int i = 0; i < commits; ++i) {
      Note note = Doc(&rng, i);
      store->Put(&note).ok();
    }
    double secs = watch.ElapsedMicros() / 1e6;
    printf("%-14s %-10d %-14.0f\n",
           mode == wal::SyncMode::kNone ? "buffered" : "fsync/commit",
           commits, commits / secs);
  }

  // --- Recovery time vs WAL length. -------------------------------------
  printf("\n%-12s %-12s | %-14s %-16s\n", "records", "ckpt?",
         "wal bytes", "recovery (ms)");
  for (int records : {ScaleN(1000, 100), ScaleN(10000, 200),
                      ScaleN(50000, 400)}) {
    for (bool checkpoint : {false, true}) {
      BenchDir dir("recovery_" + std::to_string(records) +
                   (checkpoint ? "_ckpt" : "_nockpt"));
      StoreOptions options;
      options.sync_mode = wal::SyncMode::kNone;
      options.checkpoint_threshold_bytes = 0;
      DatabaseInfo info;
      info.replica_id = Unid{1, 2};
      uint64_t wal_bytes = 0;
      {
        auto store = *NoteStore::Open(dir.Sub("db"), options, info);
        Rng rng(2);
        for (int i = 0; i < records; ++i) {
          Note note = Doc(&rng, i);
          store->Put(&note).ok();
        }
        if (checkpoint) store->Checkpoint().ok();
        wal_bytes = store->wal_size_bytes();
      }
      Stopwatch watch;
      auto reopened = *NoteStore::Open(dir.Sub("db"), options, info);
      double ms = watch.ElapsedMillis();
      printf("%-12d %-12s | %-14llu %-16.1f  (recovered %llu records, "
             "%zu notes)\n",
             records, checkpoint ? "yes" : "no",
             static_cast<unsigned long long>(wal_bytes), ms,
             static_cast<unsigned long long>(
                 reopened->stats().recovered_records),
             reopened->total_count());
    }
  }
  RunE14Sweep();

  dominodb::bench::EmitStatsSnapshot("bench_recovery");
  return 0;
}
