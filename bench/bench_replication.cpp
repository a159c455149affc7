// E3 — Incremental replication cost scales with changed notes, not with
// database size; the full-replication baseline scales with database size.
// Time too: the source-side change summary at the incremental cutoff
// (median of repeated calls) tracks the changed notes, not the database.
// The first session after both servers restart is incremental as well:
// each database keeps its replication history in its store.

#include <algorithm>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "server/server.h"

using namespace dominodb;
using namespace dominodb::bench;

namespace {

// Changes `n` random notes of `db`.
void UpdateNotes(Database* db, const std::vector<NoteId>& ids, int n,
                 Rng* rng) {
  for (int k = 0; k < n; ++k) {
    auto note = db->ReadNote(ids[rng->Uniform(ids.size())]);
    note->SetText("Subject", rng->Word(4, 12));
    db->UpdateNote(std::move(*note)).ok();
  }
}

// Median wall time of `db.ChangeSummarySince(cutoff)` in microseconds.
double SummaryMicros(const Database& db, Micros cutoff) {
  constexpr int kReps = 31;
  std::vector<double> us;
  for (int i = 0; i < kReps; ++i) {
    Stopwatch sw;
    volatile size_t n = db.ChangeSummarySince(cutoff)->size();
    (void)n;
    us.push_back(sw.ElapsedMicros());
  }
  std::nth_element(us.begin(), us.begin() + kReps / 2, us.end());
  return us[kReps / 2];
}

}  // namespace

int main() {
  PrintHeader("E3 — incremental vs full replication",
              "bytes/messages moved track the number of changed notes, not "
              "database size; full replication re-summarizes everything");

  printf("%-8s %-9s | %-12s %-12s | %-13s | %-12s %-12s | %-11s | "
         "%-12s %s\n",
         "dbsize", "changed", "incr bytes", "incr msgs", "restart bytes",
         "full bytes", "full msgs", "bytes ratio", "incr sum us",
         "full sum us");

  for (int db_size : {ScaleN(1000, 50), ScaleN(5000, 100), ScaleN(20000, 200)}) {
    for (int changed : {1, 10, 100, 1000}) {
      if (changed > db_size) continue;
      BenchDir dir("repl_" + std::to_string(db_size) + "_" +
                   std::to_string(changed));
      SimClock clock(1'700'000'000'000'000);
      SimNet net(&clock);
      MailDirectory directory;
      auto a = std::make_unique<Server>("a", dir.Sub("a"), &clock, &net,
                                        &directory);
      auto b = std::make_unique<Server>("b", dir.Sub("b"), &clock, &net,
                                        &directory);

      DatabaseOptions options;
      options.store.checkpoint_threshold_bytes = 1ull << 30;
      Database* da = *a->OpenDatabase("bench.nsf", options);
      b->CreateReplicaOf(*da, "bench.nsf").ok();

      Rng rng(7);
      std::vector<NoteId> ids;
      for (int i = 0; i < db_size; ++i) {
        ids.push_back(*da->CreateNote(SyntheticDoc(&rng, 300)));
      }
      // Baseline sync so both replicas are identical.
      a->ReplicateWith(*b, "bench.nsf").status().ok();
      clock.Advance(1'000'000);
      // Everything the baseline sync moved is stamped at or below this.
      const Micros cutoff = da->last_write_stamp();

      // Apply `changed` updates on A.
      UpdateNotes(da, ids, changed, &rng);
      clock.Advance(1'000'000);
      const double incr_us = SummaryMicros(*da, cutoff);
      const double full_us = SummaryMicros(*da, 0);

      auto incr = a->ReplicateWith(*b, "bench.nsf");
      clock.Advance(1'000'000);

      // Restart both servers, change as many notes again, and replicate:
      // the histories come back with the databases.
      a.reset();
      b.reset();
      a = std::make_unique<Server>("a", dir.Sub("a"), &clock, &net,
                                   &directory);
      b = std::make_unique<Server>("b", dir.Sub("b"), &clock, &net,
                                   &directory);
      da = *a->OpenDatabase("bench.nsf", options);
      Database* db = *b->OpenDatabase("bench.nsf", options);
      UpdateNotes(da, ids, changed, &rng);
      clock.Advance(1'000'000);
      auto restart = a->ReplicateWith(*b, "bench.nsf");
      clock.Advance(1'000'000);

      // Full replication baseline: once both sides clear their history
      // with the other, each summarizes every note.
      da->ClearReplicationHistory("b").ok();
      db->ClearReplicationHistory("a").ok();
      auto full_report = a->ReplicateWith(*b, "bench.nsf");

      double ratio =
          incr->bytes_transferred > 0
              ? static_cast<double>(full_report->bytes_transferred) /
                    static_cast<double>(incr->bytes_transferred)
              : 0;
      printf("%-8d %-9d | %-12llu %-12llu | %-13llu | %-12llu %-12llu | "
             "%10.1fx | %-12.1f %.1f\n",
             db_size, changed,
             static_cast<unsigned long long>(incr->bytes_transferred),
             static_cast<unsigned long long>(incr->messages),
             static_cast<unsigned long long>(restart->bytes_transferred),
             static_cast<unsigned long long>(full_report->bytes_transferred),
             static_cast<unsigned long long>(full_report->messages),
             ratio, incr_us, full_us);
    }
  }
  printf("\n(the 'full' column still moves no note bodies — versions are "
         "identical — but pays the O(db) change summary every time)\n");
  dominodb::bench::EmitStatsSnapshot("bench_replication");
  return 0;
}
