// E12 — The background indexer (UPDATE/UPDALL reproduction).
// Claim: deferring index maintenance to the background UPDATE task takes
// view + full-text work off the writer's critical path, so write latency
// drops to store cost while indexes catch up asynchronously (and
// deterministically via FlushIndexes). The full (UPDALL) view rebuild and
// full-text build are serial; their times are printed as the reference
// for that path.

#include <thread>

#include "bench/bench_util.h"
#include "core/database.h"
#include "indexer/thread_pool.h"
#include "view/view_design.h"

using namespace dominodb;
using namespace dominodb::bench;

namespace {

ViewDesign BenchView() {
  std::vector<ViewColumn> columns;
  ViewColumn category;
  category.title = "Category";
  category.formula_source = "Category";
  category.categorized = true;
  columns.push_back(std::move(category));
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "@UpperCase(Subject)";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  return *ViewDesign::Create("bench", "SELECT Amount > 1000",
                             std::move(columns));
}

}  // namespace

int main() {
  PrintHeader("E12 — background indexer: full rebuilds & deferred "
              "maintenance",
              "the UPDATE task takes index maintenance off the writer's "
              "critical path");

  const int kDocs = ScaleN(20000, 300);
  BenchDir dir("indexer");
  SimClock clock;
  DatabaseOptions options;
  options.store.checkpoint_threshold_bytes = 1ull << 30;
  auto db = *Database::Open(dir.Sub("db"), options, &clock);
  Rng rng(7);

  Stopwatch load;
  for (int i = 0; i < kDocs; ++i) {
    db->CreateNote(SyntheticDoc(&rng, 300)).ok();
  }
  printf("loaded %d docs in %.0f ms (hw threads: %u)\n\n", kDocs,
         load.ElapsedMillis(), std::thread::hardware_concurrency());

  db->CreateView(BenchView()).ok();
  ViewIndex* view = db->FindView("bench");
  db->EnsureFullTextIndex().ok();

  // -- Full (UPDALL) rebuilds ---------------------------------------------
  // The view rebuild reads the store inside the timer. The full-text build
  // is timed over notes copied out beforehand, so its figure is indexing
  // work alone.
  Stopwatch view_watch;
  view->Rebuild(
          [&](const std::function<void(const Note&)>& fn) {
            db->ForEachNote(fn);
          },
          db.get())
      .ok();
  double view_ms = view_watch.ElapsedMillis();
  double ft_ms;
  {
    std::vector<Note> copies;
    db->ForEachNote([&](const Note& n) { copies.push_back(n); });
    Stopwatch ft_watch;
    const_cast<FullTextIndex*>(db->fulltext())
        ->BuildFrom([&](const std::function<void(const Note&)>& fn) {
          for (const Note& n : copies) fn(n);
        });
    ft_ms = ft_watch.ElapsedMillis();
  }
  printf("%-18s %-18s\n", "view rebuild(ms)", "ft build (ms)");
  printf("%-18.1f %-18.1f\n", view_ms, ft_ms);

  // -- Write latency: inline maintenance vs background deferral ----------
  constexpr int kWrites = 2000;
  auto time_writes = [&](const char* label) {
    Stopwatch w;
    for (int i = 0; i < kWrites; ++i) {
      db->CreateNote(SyntheticDoc(&rng, 300)).ok();
    }
    double per_write_us = w.ElapsedMicros() / kWrites;
    printf("%-34s %8.1f us/write\n", label, per_write_us);
    return per_write_us;
  };

  printf("\nwrite latency with a view + full-text index attached "
         "(%d creates):\n", kWrites);
  double inline_us = time_writes("inline (no indexer)");

  indexer::ThreadPool pool(2);
  db->AttachIndexer(&pool);
  double deferred_us = time_writes("deferred (background UPDATE)");
  Stopwatch drain;
  db->FlushIndexes().ok();
  printf("%-34s %8.1f ms (FlushIndexes barrier)\n", "catch-up drain",
         drain.ElapsedMillis());
  printf("writer-visible speedup: %.2fx\n",
         deferred_us > 0 ? inline_us / deferred_us : 0);

  // The queue-depth gauge arms an `Indexer.Threads.QueueDepth >= capacity`
  // warning threshold; report whether this run ever saturated.
  size_t fired = stats::StatRegistry::Global().CheckThresholds(clock.Now());
  printf("threshold events fired (queue saturation watch): %zu\n", fired);

  db->AttachIndexer(nullptr);
  // STATS after the barrier so Indexer.* reflects a fully drained queue.
  dominodb::bench::EmitStatsSnapshot("bench_indexer");
  return 0;
}
