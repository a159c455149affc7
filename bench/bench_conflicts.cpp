// E4 — Conflict behavior under concurrent multi-replica updates.
// Claim: concurrent edits never lose updates — they surface as conflict
// documents — and replicas converge in a bounded number of rounds.

#include "base/string_util.h"
#include "bench/bench_util.h"
#include "server/replication_scheduler.h"
#include "server/server.h"

using namespace dominodb;
using namespace dominodb::bench;

int main() {
  PrintHeader("E4 — conflicts and convergence under concurrent updates",
              "no lost updates: losers become $Conflict documents; "
              "replicas converge within a few rounds");

  printf("%-9s %-12s | %-9s %-11s %-10s %-10s %-8s\n", "replicas",
         "P(confl op)", "edits", "expected", "conflicts", "rounds",
         "diverged");

  for (int replica_count : {2, 4, 8}) {
    for (double conflict_prob : {0.0, 0.1, 0.3}) {
      BenchDir dir("confl_" + std::to_string(replica_count) + "_" +
                   std::to_string(static_cast<int>(conflict_prob * 100)));
      SimClock clock(1'700'000'000'000'000);
      SimNet net(&clock);
      MailDirectory directory;

      std::vector<std::unique_ptr<Server>> servers;
      std::vector<Server*> ptrs;
      std::vector<std::string> names;
      for (int i = 0; i < replica_count; ++i) {
        names.push_back(StrPrintf("s%d", i));
        servers.push_back(std::make_unique<Server>(
            names.back(), dir.Sub(names.back()), &clock, &net, &directory));
        ptrs.push_back(servers.back().get());
      }
      DatabaseOptions options;
      options.store.checkpoint_threshold_bytes = 1ull << 30;
      Database* seed = *ptrs[0]->OpenDatabase("bench.nsf", options);
      for (size_t i = 1; i < ptrs.size(); ++i) {
        ptrs[i]->CreateReplicaOf(*seed, "bench.nsf").ok();
      }

      // Seed documents, fan out.
      Rng rng(11 + replica_count);
      std::vector<Unid> unids;
      for (int i = 0; i < 100; ++i) {
        NoteId id = *seed->CreateNote(SyntheticDoc(&rng, 100));
        unids.push_back(seed->ReadNote(id)->unid());
      }
      ReplicationScheduler scheduler(ptrs, "bench.nsf");
      scheduler.SetTopology(MeshTopology(names));
      scheduler.RunUntilConverged(5).ok();

      // Edit phase: each op edits one distinct document. A clean op edits
      // on the document's home replica only; with probability
      // `conflict_prob` a second replica edits the SAME document before
      // replication runs — a guaranteed replication conflict.
      int edits = 0;
      int expected_conflicts = 0;
      for (int op = 0; op < 200; ++op) {
        const Unid& unid = unids[static_cast<size_t>(op) % unids.size()];
        size_t r1 = rng.Uniform(ptrs.size());
        Database* db1 = ptrs[r1]->FindDatabase("bench.nsf");
        auto note1 = db1->ReadNoteByUnid(unid);
        if (note1.ok()) {
          note1->SetText("Subject", rng.Word(4, 12));
          if (db1->UpdateNote(std::move(*note1)).ok()) ++edits;
        }
        if (rng.Bernoulli(conflict_prob) && ptrs.size() > 1) {
          size_t r2 = (r1 + 1 + rng.Uniform(ptrs.size() - 1)) % ptrs.size();
          Database* db2 = ptrs[r2]->FindDatabase("bench.nsf");
          auto note2 = db2->ReadNoteByUnid(unid);
          if (note2.ok()) {
            note2->SetText("Subject", rng.Word(4, 12));
            if (db2->UpdateNote(std::move(*note2)).ok()) {
              ++edits;
              ++expected_conflicts;
            }
          }
        }
        clock.Advance(1000);
        // Replicate between ops so clean edits never collide: only the
        // deliberate double-writes above conflict.
        if (op % 20 == 19) scheduler.RunAllDue(clock.Now());
      }

      auto rounds = scheduler.RunUntilConverged(20);
      Database* first = ptrs[0]->FindDatabase("bench.nsf");
      auto conflicts = first->FormulaSearch("SELECT @IsAvailable($Conflict)");
      bool diverged = !rounds.ok();
      printf("%-9d %-12.2f | %-9d %-11d %-10zu %-10s %-8s\n", replica_count,
             conflict_prob, edits, expected_conflicts,
             conflicts.ok() ? conflicts->size() : 0,
             rounds.ok() ? std::to_string(*rounds).c_str() : ">20",
             diverged ? "YES" : "no");
    }
  }
  printf("\n(P=0 rows show baseline: zero conflicts when edits never "
         "collide between replication rounds)\n");
  dominodb::bench::EmitStatsSnapshot("bench_conflicts");
  return 0;
}
