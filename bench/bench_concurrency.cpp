// E15 — concurrent readers on the Database hot path.
// Claim: MVCC read snapshots mean writers never block readers. Readers
// pin an epoch and resolve notes through the pre-image overlay, touching
// no database-wide lock, so reader throughput scales with cores and a
// saturating writer barely moves reader latency.
//
// Three phases:
//   1. Throughput: aggregate reader ops/sec of the mixed read workload
//      (view walk, full-text search, note reads) for 1–8 readers, with
//      and without a writer.
//   2. Hostile writer latency: per-op view-traversal latency (p50/p99)
//      for 1–8 readers, with the writer idle vs saturating the write
//      path with updates.
//   3. Read-call scaling: per-call µs of TraverseViewAs and SearchAs at
//      1, 2 and 4 threads on readers-shaped data (2 000 docs of ~1 KB, a
//      categorized view, a quarter of the docs with reader fields). A
//      call that scales keeps its per-call time flat as threads are
//      added; the target is 4 threads ≤ 1.3× 1 thread. Run it once more
//      with MALLOC_ARENA_MAX=1 in the environment to see whether the
//      calls depend on per-thread malloc arenas.
//
// The one-big-lock and reader/writer-lock disciplines this replaced are
// no longer emulated here; EXPERIMENTS.md (E15) keeps their tables.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/database.h"
#include "view/view_design.h"

using namespace dominodb;
using namespace dominodb::bench;

namespace {

ViewDesign BenchView() {
  std::vector<ViewColumn> columns;
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  return *ViewDesign::Create("all", "SELECT @All", std::move(columns));
}

struct CellResult {
  double reader_ops_per_sec = 0;
  uint64_t write_ops = 0;
};

/// Runs `readers` reader threads (+ `writers` writer threads) for
/// `slice_ms`.
CellResult RunCell(Database* db, const std::vector<NoteId>& ids, int readers,
                   int writers, double slice_ms, Rng* seed_rng) {
  const Principal reader = Principal::User("bench reader");
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_ops{0};
  std::atomic<uint64_t> write_ops{0};
  std::vector<std::thread> threads;

  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(1000 + r);
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        switch (local % 3) {
          case 0: {
            size_t rows = 0;
            db->TraverseViewAs(reader, "all",
                               [&](const ViewRow&) { ++rows; })
                .ok();
            break;
          }
          case 1:
            db->SearchAs(reader, "lotus OR domino").ok();
            break;
          default:
            db->ReadNote(ids[rng.Uniform(ids.size())]).ok();
            break;
        }
        ++local;
      }
      read_ops.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (int w = 0; w < writers; ++w) {
    const uint64_t writer_seed = seed_rng->Next();
    threads.emplace_back([&, writer_seed] {
      Rng rng(writer_seed);
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (local % 2 == 0) {
          db->CreateNote(SyntheticDoc(&rng, 120)).ok();
        } else {
          auto note = db->ReadNote(ids[rng.Uniform(ids.size())]);
          if (note.ok()) {
            note->SetText("Subject", note->GetText("Subject") + "+");
            db->UpdateNote(std::move(*note)).ok();
          }
        }
        ++local;
      }
      write_ops.fetch_add(local, std::memory_order_relaxed);
    });
  }

  Stopwatch clock;
  while (clock.ElapsedMillis() < slice_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  CellResult out;
  out.reader_ops_per_sec =
      static_cast<double>(read_ops.load()) / (clock.ElapsedMillis() / 1000.0);
  out.write_ops = write_ops.load();
  return out;
}

struct LatencyResult {
  double p50_us = 0;
  double p99_us = 0;
  uint64_t write_ops = 0;
};

double PercentileUs(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(q * (sorted.size() - 1));
  return sorted[idx];
}

/// Runs `readers` threads doing full view traversals, each op timed, with
/// an optional saturating update writer. Returns merged p50/p99 µs.
LatencyResult RunLatencyCell(Database* db, const std::vector<NoteId>& ids,
                             int readers, bool hostile_writer,
                             double slice_ms, Rng* seed_rng) {
  const Principal reader = Principal::User("bench reader");
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> write_ops{0};
  std::vector<std::vector<double>> samples(readers);
  std::vector<std::thread> threads;

  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto& mine = samples[r];
      do {
        const auto start = std::chrono::steady_clock::now();
        size_t rows = 0;
        db->TraverseViewAs(reader, "all", [&](const ViewRow&) { ++rows; })
            .ok();
        mine.push_back(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count());
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  if (hostile_writer) {
    const uint64_t writer_seed = seed_rng->Next();
    threads.emplace_back([&, writer_seed] {
      Rng rng(writer_seed);
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Update-only so the view row count (and thus traversal cost)
        // stays constant across cells; the writer still exercises the
        // full commit path including overlay recording and WAL append.
        auto note = db->ReadNote(ids[rng.Uniform(ids.size())]);
        if (note.ok()) {
          note->SetNumber("Amount", static_cast<double>(local));
          db->UpdateNote(std::move(*note)).ok();
        }
        ++local;
      }
      write_ops.fetch_add(local, std::memory_order_relaxed);
    });
  }

  Stopwatch clock;
  while (clock.ElapsedMillis() < slice_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  std::vector<double> merged;
  for (auto& s : samples) merged.insert(merged.end(), s.begin(), s.end());
  std::sort(merged.begin(), merged.end());
  LatencyResult out;
  out.p50_us = PercentileUs(merged, 0.50);
  out.p99_us = PercentileUs(merged, 0.99);
  out.write_ops = write_ops.load();
  return out;
}

// -- Phase 3: read-call scaling on readers-shaped data ----------------------

ViewDesign CategorizedView() {
  std::vector<ViewColumn> columns(2);
  columns[0].title = "Category";
  columns[0].formula_source = "Category";
  columns[0].sort = ColumnSort::kAscending;
  columns[0].categorized = true;
  columns[1].title = "Subject";
  columns[1].formula_source = "Subject";
  columns[1].sort = ColumnSort::kAscending;
  return *ViewDesign::Create("topics", "SELECT @All", std::move(columns));
}

/// Mean µs per call when `threads` threads each make `calls` calls of
/// `call(thread, i)` at once.
template <typename Call>
double PerCallUs(int threads, int calls, const Call& call) {
  std::atomic<int> ready{0};
  std::vector<double> total_us(threads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      Stopwatch watch;
      for (int i = 0; i < calls; ++i) call(t, i);
      total_us[t] = watch.ElapsedMicros();
    });
  }
  for (auto& th : pool) th.join();
  double sum = 0;
  for (double us : total_us) sum += us;
  return sum / (static_cast<double>(threads) * calls);
}

void RunScalingPhase() {
  const int kDocs = ScaleN(2000, 100);
  const int kCalls = ScaleN(200, 5);
  const int kRepeats = ScaleN(5, 1);
  BenchDir dir("concurrency_scaling");
  SimClock clock;
  clock.Set(1'000'000'000);
  DatabaseOptions options;
  options.store.checkpoint_threshold_bytes = 1ull << 30;
  auto db = *Database::Open(dir.Sub("db"), options, &clock);
  Rng rng(24);
  for (int d = 0; d < kDocs; ++d) db->CreateNote(ReadersDoc(&rng)).ok();
  db->CreateView(CategorizedView()).ok();
  db->EnsureFullTextIndex().ok();
  std::vector<Principal> users;
  for (int u = 0; u < kReadersUsers; ++u) {
    users.push_back(Principal::User("user" + std::to_string(u)));
  }
  const char* arenas = std::getenv("MALLOC_ARENA_MAX");
  printf("\nread-call scaling: %d docs, %d calls per thread, median of %d "
         "runs, MALLOC_ARENA_MAX=%s (microseconds per call)\n",
         kDocs, kCalls, kRepeats, arenas != nullptr ? arenas : "unset");
  printf("%-16s %-10s %-10s %-10s %-10s\n", "call", "1 thread",
         "2 threads", "4 threads", "4t / 1t");
  auto traverse = [&](int t, int i) {
    size_t rows = 0;
    db->TraverseViewAs(users[(t + i) % kReadersUsers], "topics",
                       [&](const ViewRow&) { ++rows; })
        .ok();
  };
  auto search = [&](int t, int i) {
    db->SearchAs(users[(t + i) % kReadersUsers], kReadersWords[i % 8]).ok();
  };
  auto row = [&](const char* name, const auto& call) {
    // Warm the note cache and the pool with every query before timing.
    for (int i = 0; i < 8; ++i) call(0, i);
    // The thread counts take turns, so a noisy moment on the host lands
    // on one run of each, not on every run of one.
    const int counts[3] = {1, 2, 4};
    std::vector<double> runs[3];
    for (int r = 0; r < kRepeats; ++r) {
      for (int k = 0; k < 3; ++k) {
        runs[k].push_back(PerCallUs(counts[k], kCalls, call));
      }
    }
    double us[3];
    for (int k = 0; k < 3; ++k) {
      std::sort(runs[k].begin(), runs[k].end());
      us[k] = runs[k][runs[k].size() / 2];
    }
    printf("%-16s %-10.0f %-10.0f %-10.0f %.2fx\n", name, us[0], us[1],
           us[2], us[0] > 0 ? us[2] / us[0] : 0);
  };
  row("TraverseViewAs", traverse);
  row("SearchAs", search);
}

}  // namespace

int main() {
  PrintHeader(
      "E15 — concurrent readers on MVCC snapshots",
      "snapshot readers never block on writers: reader throughput scales "
      "with cores and a saturating writer barely moves reader latency");

  const int kDocs = ScaleN(1500, 80);
  const double kSliceMs = ScaleN(400, 40);
  BenchDir dir("concurrency");
  SimClock clock;
  clock.Set(1'000'000'000);
  DatabaseOptions options;
  options.store.checkpoint_threshold_bytes = 1ull << 30;
  // Durable commits: the lone writer's group commit fsyncs the WAL on
  // every write — the realistic hostile-writer shape, where a reader that
  // waited on the writer would wait out the fsync too.
  options.store.sync_mode = wal::SyncMode::kGroupCommit;
  auto db = *Database::Open(dir.Sub("db"), options, &clock);
  Rng rng(11);

  db->CreateView(BenchView()).ok();
  db->EnsureFullTextIndex().ok();
  std::vector<NoteId> ids;
  for (int i = 0; i < kDocs; ++i) {
    auto id = db->CreateNote(SyntheticDoc(&rng, 200));
    if (id.ok()) ids.push_back(*id);
  }
  printf("loaded %d docs; slice %.0f ms/cell (hw threads: %u)\n\n", kDocs,
         kSliceMs, std::thread::hardware_concurrency());

  printf("%-9s %-8s %-14s %-14s\n", "readers", "writers", "ops/s",
         "vs 1 reader");
  double mvcc_1r_0w = 0;
  double mvcc_8r_0w = 0;
  for (int writers : {0, 1}) {
    double one_reader = 0;
    for (int readers : {1, 2, 4, 8}) {
      CellResult mvcc =
          RunCell(db.get(), ids, readers, writers, kSliceMs, &rng);
      if (readers == 1) one_reader = mvcc.reader_ops_per_sec;
      if (writers == 0 && readers == 1) mvcc_1r_0w = mvcc.reader_ops_per_sec;
      if (writers == 0 && readers == 8) mvcc_8r_0w = mvcc.reader_ops_per_sec;
      printf("%-9d %-8d %-14.0f %.2fx\n", readers, writers,
             mvcc.reader_ops_per_sec,
             one_reader > 0 ? mvcc.reader_ops_per_sec / one_reader : 0);
    }
  }
  if (mvcc_1r_0w > 0) {
    printf("\nmvcc read scaling, 8 readers vs 1 (no writer): %.2fx\n",
           mvcc_8r_0w / mvcc_1r_0w);
  }

  // Phase 2 — hostile-writer latency. Per-op view-traversal latency for
  // snapshot readers with the writer idle vs saturating.
  printf("\nhostile-writer traversal latency (microseconds)\n");
  printf("%-9s %-12s %-12s %-14s %-14s %-10s\n", "readers", "idle p50",
         "idle p99", "hostile p50", "hostile p99", "p99 x");
  for (int readers : {1, 2, 4, 8}) {
    LatencyResult idle = RunLatencyCell(
        db.get(), ids, readers, /*hostile_writer=*/false, kSliceMs, &rng);
    LatencyResult hostile = RunLatencyCell(
        db.get(), ids, readers, /*hostile_writer=*/true, kSliceMs, &rng);
    printf("%-9d %-12.0f %-12.0f %-14.0f %-14.0f %.2fx\n", readers,
           idle.p50_us, idle.p99_us, hostile.p50_us, hostile.p99_us,
           idle.p99_us > 0 ? hostile.p99_us / idle.p99_us : 0);
  }

  // Phase 3 — per-call scaling of the two read calls.
  RunScalingPhase();

  EmitStatsSnapshot("bench_concurrency");
  return 0;
}
