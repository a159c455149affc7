// E13 — replication under injected faults. Two claims: (1) a session
// killed mid-transfer resumes from its batch cutoff, so the retry ships
// well under half of the from-scratch bytes; (2) the resilient
// replicator task (backoff + circuit breaker + resume) converges a pair
// under sustained message loss plus a mid-run outage, with bounded
// retry traffic.

#include "bench/bench_util.h"
#include "repl/replicator_task.h"
#include "server/replication_scheduler.h"
#include "server/server.h"

using namespace dominodb;
using namespace dominodb::bench;

namespace {

constexpr int kDocs = 100;
constexpr uint64_t kRetryCap = 500;

void SeedDocs(Database* db) {
  Rng rng(5);
  for (int i = 0; i < kDocs; ++i) {
    db->CreateNote(SyntheticDoc(&rng, 300)).ok();
  }
}

struct Pair {
  BenchDir dir;
  SimClock clock{1'700'000'000'000'000};
  SimNet net{&clock};
  MailDirectory directory;
  Server a, b;
  Database* da;

  explicit Pair(const std::string& tag)
      : dir("repl_faults_" + tag),
        a("a", dir.Sub("a"), &clock, &net, &directory),
        b("b", dir.Sub("b"), &clock, &net, &directory) {
    net.SetDefaultLink(/*latency=*/2'000, /*bytes_per_second=*/1'000'000);
    DatabaseOptions options;
    options.store.checkpoint_threshold_bytes = 1ull << 30;
    da = *a.OpenDatabase("bench.nsf", options);
    b.CreateReplicaOf(*da, "bench.nsf").ok();
    SeedDocs(da);
    clock.Advance(1'000);
  }
};

// Part 1: one session dies to a scheduled outage at ~2/3 of its clean
// duration; the retry resumes from the committed batch cutoff.
void ResumedSessionBytes() {
  ReplicationOptions ropts;
  ropts.batch_size = 16;

  uint64_t clean_bytes = 0;
  Micros clean_duration = 0;
  {
    Pair clean("clean");
    Micros start = clean.clock.Now();
    auto report = clean.a.ReplicateWith(clean.b, "bench.nsf", ropts);
    clean_bytes = report->bytes_transferred;
    clean_duration = clean.clock.Now() - start;
  }

  Pair lossy("resume");
  Micros outage = lossy.clock.Now() + (2 * clean_duration) / 3;
  lossy.net.AddFlapWindow("a", "b", outage, outage + 100 * clean_duration);
  auto failed = lossy.a.ReplicateWith(lossy.b, "bench.nsf", ropts);
  size_t partial = lossy.b.FindDatabase("bench.nsf")->note_count();
  lossy.clock.Set(outage + 101 * clean_duration);
  auto retry = lossy.a.ReplicateWith(lossy.b, "bench.nsf", ropts);
  bool converged = DatabasesConverged(
      {lossy.da, lossy.b.FindDatabase("bench.nsf")});

  double pct = clean_bytes > 0
                   ? 100.0 * static_cast<double>(retry->bytes_transferred) /
                         static_cast<double>(clean_bytes)
                   : 0.0;
  printf("clean session: %d docs, %llu bytes\n", kDocs,
         static_cast<unsigned long long>(clean_bytes));
  printf("outage at 2/3: session %s with %zu/%d docs committed\n",
         failed.ok() ? "SURVIVED (unexpected)" : "failed", partial, kDocs);
  printf("retry after outage: %llu bytes = %.0f%% of from-scratch "
         "(target < 50%%), converged=%s\n\n",
         static_cast<unsigned long long>(retry->bytes_transferred), pct,
         converged ? "yes" : "NO");
}

// Part 2: the replicator task vs sustained loss + a mid-run outage.
void LossSweepRow(double drop, bool with_outage, const std::string& tag) {
  Pair pair(tag);
  pair.net.SeedFaults(13);
  FaultProfile profile;
  profile.drop_probability = drop;
  profile.mid_transfer_probability = drop / 2;
  profile.jitter_max = 1'000;
  if (drop > 0) pair.net.SetDefaultFaultProfile(profile);
  if (with_outage) {
    pair.net.AddFlapWindow("a", "b", pair.clock.Now() + 200'000,
                           pair.clock.Now() + 1'200'000);
  }

  repl::RetryPolicy policy;
  policy.base_backoff = 50'000;
  policy.max_backoff = 800'000;
  policy.jitter_fraction = 0.25;
  policy.circuit_open_after = 12;
  policy.circuit_cooloff = 400'000;
  policy.max_retries = kRetryCap;
  pair.a.StartReplicator(policy, /*seed=*/17).ok();
  pair.a.AddConnection(pair.b, "bench.nsf").ok();

  Database* db_b = pair.b.FindDatabase("bench.nsf");
  ReplicationOptions ropts;
  ropts.batch_size = 16;
  bool converged = false;
  int polls = 0;
  while (polls < 3'000 && !converged) {
    ++polls;
    pair.a.RunReplicatorDue().ok();
    pair.clock.Advance(50'000);
    converged = pair.a.replicator()->Quiescent() &&
                DatabasesConverged({pair.da, db_b});
  }
  // `retries` resets on success; attempts/successes are cumulative, so
  // failed sessions = attempts - successes.
  const repl::ConnectionState& state = pair.a.replicator()->state(0);
  printf("%-6.0f%% %-7s | %-9s %-6d | %-8llu %-8llu %-8llu | %-10llu "
         "%-12llu\n",
         drop * 100, with_outage ? "yes" : "no",
         converged ? "yes" : "NO", polls,
         static_cast<unsigned long long>(state.attempts),
         static_cast<unsigned long long>(state.attempts - state.successes),
         static_cast<unsigned long long>(kRetryCap),
         static_cast<unsigned long long>(pair.net.total().bytes),
         static_cast<unsigned long long>(pair.net.total().wasted_bytes));
}

}  // namespace

int main() {
  PrintHeader("E13 — replication under injected faults",
              "batch-resumable sessions + the resilient replicator task "
              "converge replicas on a lossy WAN; retries stay bounded and "
              "resumed sessions ship only the remainder");

  printf("-- resumed session after mid-transfer outage --\n");
  ResumedSessionBytes();

  printf("-- replicator task under sustained loss (+1s outage) --\n");
  printf("%-7s %-7s | %-9s %-6s | %-8s %-8s %-8s | %-10s %-12s\n", "loss",
         "outage", "converged", "polls", "attempts", "failed", "cap",
         "bytes", "wasted");
  LossSweepRow(0.00, false, "base");
  LossSweepRow(0.05, true, "l05");
  LossSweepRow(0.10, true, "l10");
  LossSweepRow(0.20, true, "l20");

  printf("\n(every failed session still advanced the receiver's history to "
         "its last committed batch; that is what keeps retry traffic "
         "proportional to the remainder, not the database)\n");
  EmitStatsSnapshot("bench_repl_faults");
  return 0;
}
