// E6 — Replication topology comparison: hub-spoke vs ring vs mesh.
// Claim: topology choice trades convergence rounds against per-round
// traffic — hubs concentrate load, meshes converge in one round but move
// quadratically many sessions.

#include "base/string_util.h"
#include "bench/bench_util.h"
#include "server/replication_scheduler.h"
#include "server/server.h"

using namespace dominodb;
using namespace dominodb::bench;

int main() {
  PrintHeader("E6 — replication topologies",
              "mesh converges fastest but costs O(n^2) sessions; hub-spoke "
              "needs ~2 rounds with O(n) sessions; ring is slowest");

  printf("%-9s %-10s | %-8s %-10s %-10s %-12s %-12s\n", "servers",
         "topology", "rounds", "sessions", "msgs", "bytes", "sim time(s)");

  for (int n : {4, 8}) {
    for (int kind = 0; kind < 3; ++kind) {
      const char* topo_name = kind == 0 ? "hubspoke"
                              : kind == 1 ? "ring"
                                          : "mesh";
      BenchDir dir("topo_" + std::to_string(n) + "_" + topo_name);
      SimClock clock(1'700'000'000'000'000);
      Micros start_time = clock.Now();
      SimNet net(&clock);
      net.SetDefaultLink(/*latency=*/10'000, /*bytes_per_second=*/2'000'000);
      MailDirectory directory;

      std::vector<std::unique_ptr<Server>> servers;
      std::vector<Server*> ptrs;
      std::vector<std::string> names;
      for (int i = 0; i < n; ++i) {
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

      // Workload: every server originates 50 documents.
      Rng rng(n * 17 + kind);
      for (Server* s : ptrs) {
        Database* db = s->FindDatabase("bench.nsf");
        for (int i = 0; i < 50; ++i) {
          db->CreateNote(SyntheticDoc(&rng, 200)).ok();
        }
        clock.Advance(1000);
      }

      ReplicationScheduler scheduler(ptrs, "bench.nsf");
      std::vector<TopologyLink> links =
          kind == 0   ? HubSpokeTopology(names)
          : kind == 1 ? RingTopology(names)
                      : MeshTopology(names);
      scheduler.SetTopology(links);
      scheduler.InstallConnections().ok();

      net.ResetStats();
      int rounds = 0;
      size_t sessions = 0;
      while (rounds < 32 && !scheduler.Converged()) {
        repl::SchedulerRunReport report = scheduler.RunAllDue(clock.Now());
        sessions += report.attempted;
        if (report.succeeded != report.attempted) break;
        ++rounds;
        clock.Advance(1'000'000);
      }

      printf("%-9d %-10s | %-8d %-10zu %-10llu %-12llu %-12.2f\n", n,
             topo_name, rounds, sessions,
             static_cast<unsigned long long>(net.total().messages),
             static_cast<unsigned long long>(net.total().bytes),
             static_cast<double>(clock.Now() - start_time) / 1e6);
    }
  }
  dominodb::bench::EmitStatsSnapshot("bench_topology");
  return 0;
}
