// Replication example: three servers in a hub-spoke topology, incremental
// pull-pull replication, a replication conflict with its conflict
// document, deletion stubs, and selective replication.
//
//   ./replication_demo [workdir]

#include <cstdio>

#include "base/env.h"
#include "repl/replicator.h"
#include "server/replication_scheduler.h"
#include "server/server.h"

using namespace dominodb;

namespace {

Note Invoice(const std::string& region, const std::string& customer,
             double amount) {
  Note doc(NoteClass::kDocument);
  doc.SetText("Form", "Invoice");
  doc.SetText("Region", region);
  doc.SetText("Customer", customer);
  doc.SetNumber("Amount", amount);
  return doc;
}

void PrintReport(const char* label, const ReplicationReport& r) {
  printf("%-28s pulled=%zu pushed=%zu conflicts=%zu deletes=%zu "
         "summary=%zu bytes=%llu\n",
         label, r.pulled, r.pushed, r.conflicts, r.deletions_applied,
         r.summarized, static_cast<unsigned long long>(r.bytes_transferred));
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp/dominodb_replication";
  RemoveDirRecursively(dir).ok();

  SimClock clock(1'700'000'000'000'000);  // deterministic simulated time
  SimNet net(&clock);
  net.SetDefaultLink(/*latency=*/5'000, /*bytes_per_second=*/1'000'000);
  MailDirectory directory;

  Server hq("hq", dir + "/hq", &clock, &net, &directory);
  Server east("east", dir + "/east", &clock, &net, &directory);
  Server west("west", dir + "/west", &clock, &net, &directory);

  DatabaseOptions options;
  options.title = "Invoices";
  Database* hq_db = *hq.OpenDatabase("invoices.nsf", options);
  east.CreateReplicaOf(*hq_db, "invoices.nsf").ok();
  west.CreateReplicaOf(*hq_db, "invoices.nsf").ok();

  // Seed data at HQ.
  for (int i = 0; i < 5; ++i) {
    hq_db->CreateNote(Invoice(i % 2 ? "east" : "west",
                              "Customer " + std::to_string(i),
                              100.0 * (i + 1)))
        .ok();
  }
  printf("HQ starts with %zu invoices; spokes are empty.\n\n",
         hq_db->note_count());

  // First replication: everything moves. The servers own the replication
  // histories, so a session is just "replicate file with peer".
  PrintReport("hq <-> east (initial)",
              *hq.ReplicateWith(east, "invoices.nsf"));
  PrintReport("hq <-> west (initial)",
              *hq.ReplicateWith(west, "invoices.nsf"));

  // Second replication: the histories make it incremental — nothing moves.
  clock.Advance(1'000'000);
  PrintReport("hq <-> east (no changes)",
              *hq.ReplicateWith(east, "invoices.nsf"));

  // Concurrent edits of the same invoice on two replicas → conflict doc.
  Database* east_db = east.FindDatabase("invoices.nsf");
  Database* west_db = west.FindDatabase("invoices.nsf");
  auto pick = east_db->FormulaSearch("SELECT Customer = \"Customer 0\"");
  Note east_copy = (*pick)[0];
  east_copy.SetNumber("Amount", 111);
  east_db->UpdateNote(east_copy).ok();
  clock.Advance(1'000);
  auto pick_w = west_db->FormulaSearch("SELECT Customer = \"Customer 0\"");
  Note west_copy = (*pick_w)[0];
  west_copy.SetNumber("Amount", 222);
  west_db->UpdateNote(west_copy).ok();

  clock.Advance(1'000'000);
  printf("\nConcurrent edits on east (111) and west (222):\n");
  ReplicationScheduler scheduler({&hq, &east, &west}, "invoices.nsf");
  scheduler.SetTopology(HubSpokeTopology({"hq", "east", "west"}));
  auto rounds = scheduler.RunUntilConverged(8);
  printf("Converged after %d round(s).\n", rounds.ok() ? *rounds : -1);
  bool all_converged = rounds.ok();

  auto winner = hq_db->FormulaSearch(
      "SELECT Customer = \"Customer 0\" & @IsUnavailable($Conflict)");
  auto conflicts = hq_db->FormulaSearch("SELECT @IsAvailable($Conflict)");
  printf("Winner amount: %.0f; conflict documents preserved: %zu "
         "(loser amount %.0f)\n",
         (*winner)[0].GetNumber("Amount"), conflicts->size(),
         (*conflicts)[0].GetNumber("Amount"));

  // Deletion propagates via a stub.
  printf("\nDeleting 'Customer 1' at HQ...\n");
  auto doomed = hq_db->FormulaSearch("SELECT Customer = \"Customer 1\"");
  hq_db->DeleteNote((*doomed)[0].id()).ok();
  clock.Advance(1'000'000);
  all_converged &= scheduler.RunUntilConverged(8).ok();
  printf("east now has %zu invoices, %zu deletion stub(s).\n",
         east_db->note_count(), east_db->stub_count());

  // Selective replication: a fourth server only wants its own region.
  printf("\nSelective replication: 'branch' pulls only Region=\"east\".\n");
  Server branch("branch", dir + "/branch", &clock, &net, &directory);
  branch.CreateReplicaOf(*hq_db, "invoices.nsf").ok();
  ReplicationOptions selective;
  selective.selective_formula = "SELECT Region = \"east\"";
  selective.push = false;  // one-way pull into the branch
  PrintReport("branch <- hq (selective)",
              *branch.ReplicateWith(hq, "invoices.nsf", selective));
  printf("branch holds %zu invoice(s), all Region=east.\n",
         branch.FindDatabase("invoices.nsf")->note_count());

  // Replication over a lossy WAN: 10% of messages vanish, transfers can
  // die halfway, and the hq<->east link takes a scheduled outage. The
  // replicator task (connection documents + exponential backoff + circuit
  // breaker) retries until the fleet converges anyway.
  printf("\nLossy WAN: 10%% loss, mid-transfer failures, an hq<->east "
         "outage.\n");
  net.SeedFaults(42);
  FaultProfile lossy;
  lossy.drop_probability = 0.10;
  lossy.mid_transfer_probability = 0.05;
  lossy.jitter_max = 2'000;
  net.SetDefaultFaultProfile(lossy);
  net.AddFlapWindow("hq", "east", clock.Now(), clock.Now() + 3'000'000);

  for (int i = 0; i < 20; ++i) {
    hq_db->CreateNote(Invoice(i % 2 ? "east" : "west",
                              "Late customer " + std::to_string(i),
                              10.0 * (i + 1)))
        .ok();
  }
  repl::RetryPolicy policy;
  policy.base_backoff = 500'000;  // 0.5 s, doubling per failure
  policy.max_backoff = 4'000'000;
  policy.jitter_fraction = 0.25;
  policy.circuit_open_after = 10;
  policy.circuit_cooloff = 2'000'000;  // match the simulated timescale
  hq.StartReplicator(policy, /*seed=*/7).ok();
  hq.AddConnection(east, "invoices.nsf").ok();
  hq.AddConnection(west, "invoices.nsf").ok();

  int polls = 0;
  while (polls < 400) {
    ++polls;
    hq.RunReplicatorDue().ok();
    clock.Advance(250'000);
    if (hq.replicator()->Quiescent() &&
        DatabasesConverged({hq_db, east_db, west_db})) {
      break;
    }
  }
  bool wan_converged = DatabasesConverged({hq_db, east_db, west_db});
  printf("Converged after %d poll(s) despite the faults: %s\n", polls,
         wan_converged ? "yes" : "no");
  all_converged &= wan_converged;

  printf("\nTotal simulated network traffic: %llu bytes in %llu messages.\n",
         static_cast<unsigned long long>(net.total().bytes),
         static_cast<unsigned long long>(net.total().messages));

  // The servers share the process-wide registry, so `show stat` on any of
  // them reports the whole run (Domino console: `show stat Replica`).
  printf("\n> show stat Replica\n%s", hq.ShowStat("Replica").c_str());
  printf("\n> show stat Net\n%s", hq.ShowStat("Net").c_str());
  // Non-zero exit when any convergence above failed, so a test run of the
  // demo catches it.
  return all_converged ? 0 : 1;
}
