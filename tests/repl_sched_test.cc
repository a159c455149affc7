// The resilient replicator task: failure classification, exponential
// backoff, circuit breaking, graceful degradation, and resumable
// sessions surviving a mid-session partition.

#include <gtest/gtest.h>

#include "repl/replicator_task.h"
#include "server/replication_scheduler.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

using repl::CircuitState;
using repl::ClassifyFailure;
using repl::ConnectionDoc;
using repl::FailureKind;
using repl::ReplicatorTask;
using repl::RetryPolicy;
using repl::SchedulerRunReport;
using testing_util::MakeDoc;
using testing_util::ScratchDir;

ConnectionDoc TestDoc(const std::string& remote = "R") {
  ConnectionDoc doc;
  doc.local = "L";
  doc.remote = remote;
  doc.file = "db.nsf";
  return doc;
}

TEST(ClassifyFailureTest, OnlyUnavailableIsTransient) {
  EXPECT_EQ(ClassifyFailure(Status::Unavailable("link down")),
            FailureKind::kTransient);
  EXPECT_EQ(ClassifyFailure(Status::InvalidArgument("not a replica")),
            FailureKind::kPermanent);
  EXPECT_EQ(ClassifyFailure(Status::NotFound("no such database")),
            FailureKind::kPermanent);
}

TEST(ReplSchedulerTest, BackoffDoublesFromBaseToCap) {
  stats::StatRegistry reg;
  RetryPolicy policy;
  policy.base_backoff = 1'000'000;
  policy.max_backoff = 4'000'000;
  policy.jitter_fraction = 0.0;
  policy.circuit_open_after = 100;  // keep the breaker out of this test
  ReplicatorTask sched(
      [](const ConnectionDoc&) -> Result<ReplicationReport> {
        return Status::Unavailable("injected");
      },
      policy, /*seed=*/1, &reg);
  sched.AddConnection(TestDoc());

  // First failure: backoff starts at base.
  EXPECT_EQ(sched.RunDue(0).transient_failures, 1u);
  EXPECT_EQ(sched.state(0).backoff, 1'000'000);
  EXPECT_EQ(sched.state(0).next_due, 1'000'000);

  // Not yet due: skipped, no attempt burned.
  SchedulerRunReport early = sched.RunDue(500'000);
  EXPECT_EQ(early.attempted, 0u);
  EXPECT_EQ(early.skipped_waiting, 1u);

  // Each further failure doubles the delay...
  EXPECT_EQ(sched.RunDue(1'000'000).transient_failures, 1u);
  EXPECT_EQ(sched.state(0).backoff, 2'000'000);
  EXPECT_EQ(sched.state(0).next_due, 3'000'000);
  EXPECT_EQ(sched.RunDue(3'000'000).transient_failures, 1u);
  EXPECT_EQ(sched.state(0).backoff, 4'000'000);
  // ...until the cap holds it flat.
  EXPECT_EQ(sched.RunDue(7'000'000).transient_failures, 1u);
  EXPECT_EQ(sched.state(0).backoff, 4'000'000);
  EXPECT_EQ(sched.state(0).next_due, 11'000'000);
  EXPECT_EQ(reg.FindCounter("Replica.Retry.Backoffs")->value(), 4u);
  EXPECT_FALSE(sched.Quiescent());
}

TEST(ReplSchedulerTest, JitterStretchesDelayWithinBoundDeterministically) {
  RetryPolicy policy;
  policy.base_backoff = 1'000'000;
  policy.jitter_fraction = 1.0;  // delay in [base, 2*base)
  auto fail = [](const ConnectionDoc&) -> Result<ReplicationReport> {
    return Status::Unavailable("injected");
  };
  stats::StatRegistry reg1, reg2;
  ReplicatorTask first(fail, policy, /*seed=*/5, &reg1);
  ReplicatorTask twin(fail, policy, /*seed=*/5, &reg2);
  first.AddConnection(TestDoc());
  twin.AddConnection(TestDoc());
  first.RunDue(0);
  twin.RunDue(0);
  EXPECT_GE(first.state(0).next_due, 1'000'000);
  EXPECT_LT(first.state(0).next_due, 2'000'000);
  // Same seed → same jitter draw → identical schedule.
  EXPECT_EQ(first.state(0).next_due, twin.state(0).next_due);
}

TEST(ReplSchedulerTest, CircuitOpensHalfOpensAndCloses) {
  stats::StatRegistry reg;
  RetryPolicy policy;
  policy.base_backoff = 1'000'000;
  policy.circuit_open_after = 3;
  policy.circuit_cooloff = 10'000'000;
  bool healthy = false;
  ReplicatorTask sched(
      [&healthy](const ConnectionDoc&) -> Result<ReplicationReport> {
        if (healthy) return ReplicationReport{};
        return Status::Unavailable("injected");
      },
      policy, /*seed=*/1, &reg);
  sched.AddConnection(TestDoc());

  sched.RunDue(0);          // failure 1 → backoff 1s
  sched.RunDue(1'000'000);  // failure 2 → backoff 2s
  sched.RunDue(3'000'000);  // failure 3 → breaker trips
  EXPECT_EQ(sched.state(0).circuit, CircuitState::kOpen);
  EXPECT_EQ(sched.state(0).next_due, 13'000'000);
  EXPECT_EQ(reg.FindCounter("Replica.Retry.CircuitOpens")->value(), 1u);

  // While open, polls don't touch the wire.
  SchedulerRunReport blocked = sched.RunDue(5'000'000);
  EXPECT_EQ(blocked.attempted, 0u);
  EXPECT_EQ(blocked.skipped_open, 1u);

  // Cool-off elapsed: exactly one half-open probe; it fails → reopen.
  SchedulerRunReport probe = sched.RunDue(13'000'000);
  EXPECT_EQ(probe.attempted, 1u);
  EXPECT_EQ(sched.state(0).circuit, CircuitState::kOpen);
  EXPECT_EQ(sched.state(0).next_due, 23'000'000);
  EXPECT_EQ(reg.FindCounter("Replica.Retry.HalfOpenProbes")->value(), 1u);

  // Next probe succeeds → circuit closes, state resets.
  healthy = true;
  SchedulerRunReport recovered = sched.RunDue(23'000'000);
  EXPECT_EQ(recovered.succeeded, 1u);
  EXPECT_EQ(sched.state(0).circuit, CircuitState::kClosed);
  EXPECT_EQ(sched.state(0).consecutive_failures, 0);
  EXPECT_EQ(sched.state(0).backoff, 0);
  EXPECT_EQ(reg.FindCounter("Replica.Retry.CircuitCloses")->value(), 1u);
  EXPECT_TRUE(sched.Quiescent());
}

TEST(ReplSchedulerTest, RetryBudgetExhaustionDisablesUntilRevived) {
  stats::StatRegistry reg;
  RetryPolicy policy;
  policy.base_backoff = 1'000;
  policy.circuit_open_after = 100;
  policy.max_retries = 2;
  ReplicatorTask sched(
      [](const ConnectionDoc&) -> Result<ReplicationReport> {
        return Status::Unavailable("injected");
      },
      policy, /*seed=*/1, &reg);
  sched.AddConnection(TestDoc());

  Micros now = 0;
  for (int i = 0; i < 3; ++i) {  // first attempt + 2 retries
    sched.RunDue(now);
    now = sched.state(0).next_due + 1;
  }
  EXPECT_TRUE(sched.state(0).dead);
  EXPECT_EQ(sched.state(0).retries, 2u);
  EXPECT_EQ(reg.FindCounter("Replica.Retry.Exhausted")->value(), 1u);
  EXPECT_EQ(sched.RunDue(now).skipped_dead, 1u);
  EXPECT_TRUE(sched.Quiescent());  // dead pairs don't count as pending

  // The operator's "tell replicator to retry now".
  sched.Revive(0);
  EXPECT_FALSE(sched.state(0).dead);
  EXPECT_EQ(sched.RunDue(now).attempted, 1u);
}

TEST(ReplSchedulerTest, PermanentFailureDisablesOnlyItsPair) {
  stats::StatRegistry reg;
  size_t good_sessions = 0;
  ReplicatorTask sched(
      [&good_sessions](const ConnectionDoc& doc) -> Result<ReplicationReport> {
        if (doc.remote == "bad") {
          return Status::InvalidArgument("not a replica");
        }
        ++good_sessions;
        return ReplicationReport{};
      },
      RetryPolicy(), /*seed=*/1, &reg);
  sched.AddConnection(TestDoc("bad"));
  sched.AddConnection(TestDoc("good"));

  SchedulerRunReport first = sched.RunDue(0);
  EXPECT_EQ(first.permanent_failures, 1u);
  EXPECT_EQ(first.succeeded, 1u);
  EXPECT_TRUE(sched.state(0).dead);
  EXPECT_EQ(sched.state(0).last_error.code(), StatusCode::kInvalidArgument);

  // The healthy pair keeps replicating; the dead one is skipped, not
  // retried.
  SchedulerRunReport second = sched.RunDue(1);
  EXPECT_EQ(second.skipped_dead, 1u);
  EXPECT_EQ(second.succeeded, 1u);
  EXPECT_EQ(good_sessions, 2u);
  EXPECT_EQ(reg.FindCounter("Replica.Retry.PermanentFailures")->value(), 1u);
}

// -- Server integration ------------------------------------------------------

TEST(ReplicatorTaskTest, ConvergesUnderInjectedLossAndFlap) {
  ScratchDir dir;
  SimClock clock(1'000'000'000);
  SimNet net(&clock);
  MailDirectory directory;
  Server a("A", dir.Sub("a"), &clock, &net, &directory);
  Server b("B", dir.Sub("b"), &clock, &net, &directory);
  DatabaseOptions options;
  Database* da = *a.OpenDatabase("db.nsf", options);
  ASSERT_OK(b.CreateReplicaOf(*da, "db.nsf").status());
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(da->CreateNote(MakeDoc("Memo", StrPrintf("m%d", i)))
                  .status());
  }
  clock.Advance(1000);

  net.SeedFaults(9);
  FaultProfile lossy;
  lossy.drop_probability = 0.10;
  lossy.jitter_max = 500;
  net.SetDefaultFaultProfile(lossy);
  net.AddFlapWindow("A", "B", clock.Now() + 50'000, clock.Now() + 400'000);

  // Under 10% per-message loss most sessions lose at least one message,
  // so convergence leans on batch-committed resume. Tune the breaker to
  // the simulated timescale: cool-offs far longer than the test horizon
  // would freeze recovery.
  RetryPolicy policy;
  policy.base_backoff = 50'000;
  policy.max_backoff = 400'000;
  policy.circuit_open_after = 10;
  policy.circuit_cooloff = 500'000;
  ASSERT_OK(a.StartReplicator(policy, /*seed=*/3));
  ASSERT_OK(a.AddConnection(b, "db.nsf").status());

  Database* db_b = b.FindDatabase("db.nsf");
  bool converged = false;
  for (int poll = 0; poll < 200 && !converged; ++poll) {
    ASSERT_OK(a.RunReplicatorDue().status());
    clock.Advance(100'000);
    converged = a.replicator()->Quiescent() &&
                DatabasesConverged({da, db_b});
  }
  EXPECT_TRUE(converged);
  EXPECT_EQ(db_b->note_count(), 30u);
  // The loss was real (sessions did fail and retry), but bounded.
  const stats::Counter* retries =
      a.stats().FindCounter("Replica.Retry.Retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_GT(retries->value(), 0u);
}

TEST(ReplicatorTaskTest, MissingDatabaseOnPeerIsPermanentNotRetried) {
  ScratchDir dir;
  SimClock clock(1'000'000'000);
  SimNet net(&clock);
  MailDirectory directory;
  Server a("A", dir.Sub("a"), &clock, &net, &directory);
  Server b("B", dir.Sub("b"), &clock, &net, &directory);
  Server c("C", dir.Sub("c"), &clock, &net, &directory);
  DatabaseOptions options;
  Database* da = *a.OpenDatabase("db.nsf", options);
  ASSERT_OK(b.CreateReplicaOf(*da, "db.nsf").status());
  // C never got a replica: that pair is misconfigured, not unlucky.
  ASSERT_OK(da->CreateNote(MakeDoc("Memo", "payload")).status());
  clock.Advance(1000);

  ASSERT_OK(a.StartReplicator());
  ASSERT_OK(a.AddConnection(c, "db.nsf").status());
  ASSERT_OK(a.AddConnection(b, "db.nsf").status());

  ASSERT_OK_AND_ASSIGN(SchedulerRunReport first, a.RunReplicatorDue());
  EXPECT_EQ(first.permanent_failures, 1u);
  EXPECT_EQ(first.succeeded, 1u);
  EXPECT_EQ(b.FindDatabase("db.nsf")->note_count(), 1u);

  clock.Advance(1000);
  ASSERT_OK_AND_ASSIGN(SchedulerRunReport second, a.RunReplicatorDue());
  EXPECT_EQ(second.skipped_dead, 1u);
  EXPECT_EQ(second.permanent_failures, 0u);
}

TEST(ReplicatorTaskTest, ReAddingAPairUpdatesItsDocumentInPlace) {
  ScratchDir dir;
  SimClock clock(1'000'000'000);
  SimNet net(&clock);
  MailDirectory directory;
  Server a("A", dir.Sub("a"), &clock, &net, &directory);
  Server b("B", dir.Sub("b"), &clock, &net, &directory);
  DatabaseOptions options;
  Database* da = *a.OpenDatabase("db.nsf", options);
  ASSERT_OK(b.CreateReplicaOf(*da, "db.nsf").status());

  ASSERT_OK_AND_ASSIGN(size_t first, a.AddConnection(b, "db.nsf"));
  ASSERT_OK_AND_ASSIGN(size_t again,
                       a.AddConnection(b, "db.nsf", /*interval=*/1'000'000));
  EXPECT_EQ(again, first);
  ASSERT_EQ(a.replicator()->connection_count(), 1u);
  EXPECT_EQ(a.replicator()->state(0).doc.interval, 1'000'000);

  // One session per poll for the pair, then the 1 s gap holds.
  Micros start = clock.Now();
  ASSERT_OK_AND_ASSIGN(SchedulerRunReport poll, a.RunReplicatorDue());
  EXPECT_EQ(poll.attempted, 1u);
  EXPECT_EQ(poll.succeeded, 1u);
  clock.Set(start + 999'999);
  ASSERT_OK_AND_ASSIGN(SchedulerRunReport early, a.RunReplicatorDue());
  EXPECT_EQ(early.attempted, 0u);
  EXPECT_EQ(early.skipped_waiting, 1u);
  clock.Set(start + 1'000'000);
  ASSERT_OK_AND_ASSIGN(SchedulerRunReport due, a.RunReplicatorDue());
  EXPECT_EQ(due.attempted, 1u);
}

TEST(ReplicatorTaskTest, StartReplicatorAfterAddConnectionAppliesPolicy) {
  ScratchDir dir;
  SimClock clock(1'000'000'000);
  SimNet net(&clock);
  MailDirectory directory;
  Server a("A", dir.Sub("a"), &clock, &net, &directory);
  Server b("B", dir.Sub("b"), &clock, &net, &directory);
  DatabaseOptions options;
  Database* da = *a.OpenDatabase("db.nsf", options);
  ASSERT_OK(b.CreateReplicaOf(*da, "db.nsf").status());

  ASSERT_OK(a.AddConnection(b, "db.nsf").status());
  RetryPolicy policy;
  policy.circuit_open_after = 1;
  ASSERT_OK(a.StartReplicator(policy));

  net.AddFlapWindow("A", "B", clock.Now(), clock.Now() + 60'000'000);
  ASSERT_OK_AND_ASSIGN(SchedulerRunReport poll, a.RunReplicatorDue());
  EXPECT_EQ(poll.transient_failures, 1u);
  EXPECT_EQ(a.replicator()->state(0).circuit, CircuitState::kOpen);
}

// -- Fleet convergence through the replicator tasks -------------------------

/// Three servers sharing one stat registry, each holding a replica of
/// db.nsf unless told otherwise, driven by a mesh topology.
struct MeshFleet {
  explicit MeshFleet(bool c_has_replica = true)
      : net(&clock),
        a("A", dir.Sub("a"), &clock, &net, &directory, &stats),
        b("B", dir.Sub("b"), &clock, &net, &directory, &stats),
        c("C", dir.Sub("c"), &clock, &net, &directory, &stats),
        scheduler({&a, &b, &c}, "db.nsf") {
    DatabaseOptions options;
    Database* da = *a.OpenDatabase("db.nsf", options);
    EXPECT_OK(b.CreateReplicaOf(*da, "db.nsf").status());
    if (c_has_replica) EXPECT_OK(c.CreateReplicaOf(*da, "db.nsf").status());
    for (int i = 0; i < 5; ++i) {
      EXPECT_OK(da->CreateNote(MakeDoc("Memo", "a" + std::to_string(i)))
                    .status());
      EXPECT_OK(b.FindDatabase("db.nsf")
                    ->CreateNote(MakeDoc("Memo", "b" + std::to_string(i)))
                    .status());
    }
    clock.Advance(1000);
    scheduler.SetTopology(MeshTopology({"A", "B", "C"}));
  }

  uint64_t Counter(const std::string& name) const {
    const stats::Counter* counter = stats.FindCounter(name);
    return counter == nullptr ? 0 : counter->value();
  }

  ScratchDir dir;
  SimClock clock{1'000'000'000};
  stats::StatRegistry stats;
  SimNet net;
  MailDirectory directory;
  Server a, b, c;
  ReplicationScheduler scheduler;
};

TEST(RunUntilConvergedTest, ConvergesAroundAFlappingPair) {
  MeshFleet fleet;
  // A <-> B is down for the whole call; A and B still meet through C.
  fleet.net.AddFlapWindow("A", "B", fleet.clock.Now(),
                          fleet.clock.Now() + 3'600'000'000);
  ASSERT_OK(fleet.scheduler.RunUntilConverged(10).status());
  EXPECT_TRUE(fleet.scheduler.Converged());
  EXPECT_EQ(fleet.c.FindDatabase("db.nsf")->note_count(), 10u);
  EXPECT_GE(fleet.Counter("Replica.Retry.TransientFailures"), 1u);
}

TEST(RunUntilConvergedTest, MissingReplicaIsAnErrorNotConvergence) {
  MeshFleet fleet(/*c_has_replica=*/false);
  Result<int> rounds = fleet.scheduler.RunUntilConverged(10);
  ASSERT_FALSE(rounds.ok());
  EXPECT_EQ(rounds.status().code(), StatusCode::kNotFound);
}

TEST(RunUntilConvergedTest, EverySessionIsAReplicatorTaskAttempt) {
  MeshFleet fleet;
  ASSERT_OK(fleet.scheduler.RunUntilConverged(10).status());
  fleet.clock.Advance(1'000'000);
  ASSERT_OK(fleet.a.FindDatabase("db.nsf")
                ->CreateNote(MakeDoc("Memo", "late"))
                .status());
  ASSERT_OK(fleet.scheduler.RunUntilConverged(10).status());
  uint64_t attempts = fleet.Counter("Replica.Retry.Attempts");
  EXPECT_GT(attempts, 0u);
  EXPECT_EQ(attempts, fleet.Counter("Replica.Sessions.Completed") +
                          fleet.Counter("Replica.Sessions.Failed"));
}

TEST(ResumableSessionTest, PartitionMidSessionShipsOnlyRemainderOnRetry) {
  ScratchDir dir;
  MailDirectory directory;
  auto seed_docs = [](Database* db) {
    for (int i = 0; i < 60; ++i) {
      Note doc = MakeDoc("Memo", "memo " + std::to_string(i));
      doc.SetText("Body", std::string(200, 'x'));
      ASSERT_OK(db->CreateNote(std::move(doc)).status());
    }
  };
  ReplicationOptions ropts;
  ropts.batch_size = 8;

  // Calibration twin: same server names, same file, same clock start →
  // identical UNIDs/stamps/bytes, so the clean session's duration tells
  // us exactly when "halfway" is.
  uint64_t clean_bytes = 0;
  Micros clean_duration = 0;
  {
    SimClock clock(1'000'000'000);
    SimNet net(&clock);
    net.SetDefaultLink(/*latency=*/1'000, /*bytes_per_second=*/1'000'000);
    Server a("A", dir.Sub("cal_a"), &clock, &net, &directory);
    Server b("B", dir.Sub("cal_b"), &clock, &net, &directory);
    DatabaseOptions options;
    Database* da = *a.OpenDatabase("db.nsf", options);
    ASSERT_OK(b.CreateReplicaOf(*da, "db.nsf").status());
    seed_docs(da);
    clock.Advance(1000);
    Micros start = clock.Now();
    ASSERT_OK_AND_ASSIGN(ReplicationReport clean,
                         a.ReplicateWith(b, "db.nsf", ropts));
    EXPECT_EQ(clean.pushed, 60u);
    clean_bytes = clean.bytes_transferred;
    clean_duration = clock.Now() - start;
  }
  ASSERT_GT(clean_duration, 0);

  // Real pair: the link dies halfway through that same session and stays
  // down long past where the session would have ended.
  SimClock clock(1'000'000'000);
  SimNet net(&clock);
  net.SetDefaultLink(/*latency=*/1'000, /*bytes_per_second=*/1'000'000);
  Server a("A", dir.Sub("a"), &clock, &net, &directory);
  Server b("B", dir.Sub("b"), &clock, &net, &directory);
  DatabaseOptions options;
  Database* da = *a.OpenDatabase("db.nsf", options);
  ASSERT_OK(b.CreateReplicaOf(*da, "db.nsf").status());
  Database* db_b = b.FindDatabase("db.nsf");
  seed_docs(da);
  clock.Advance(1000);
  // Two thirds in: the session front-loads the change-summary exchange,
  // so this leaves well under half the payload still to ship.
  Micros outage_start = clock.Now() + (2 * clean_duration) / 3;
  net.AddFlapWindow("A", "B", outage_start,
                    outage_start + 100 * clean_duration);

  auto failed = a.ReplicateWith(b, "db.nsf", ropts);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  // The committed batches survived the failure.
  EXPECT_GT(db_b->note_count(), 0u);
  EXPECT_LT(db_b->note_count(), 60u);
  size_t partial = db_b->note_count();

  // After the outage, the retry resumes from the batch cutoff: it ships
  // only the remainder, not the whole database again.
  clock.Set(outage_start + 101 * clean_duration);
  ASSERT_OK_AND_ASSIGN(ReplicationReport retry,
                       a.ReplicateWith(b, "db.nsf", ropts));
  EXPECT_EQ(retry.pushed, 60u - partial);
  EXPECT_LT(retry.bytes_transferred, clean_bytes / 2);
  EXPECT_TRUE(DatabasesConverged({da, db_b}));
}

}  // namespace
}  // namespace dominodb
