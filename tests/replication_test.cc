#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <thread>

#include "base/rng.h"
#include "repl/replicator.h"
#include "server/replication_scheduler.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

using testing_util::MakeDoc;
using testing_util::ScratchDir;

class ReplicationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(1'000'000'000);
    net_ = std::make_unique<SimNet>(&clock_);
    server_a_ = std::make_unique<Server>("A", dir_.Sub("a"), &clock_,
                                         net_.get(), &directory_);
    server_b_ = std::make_unique<Server>("B", dir_.Sub("b"), &clock_,
                                         net_.get(), &directory_);
    DatabaseOptions options;
    options.title = "Shared DB";
    auto a = server_a_->OpenDatabase("shared.nsf", options);
    ASSERT_OK(a);
    a_ = *a;
    auto b = server_b_->CreateReplicaOf(*a_, "shared.nsf");
    ASSERT_OK(b);
    b_ = *b;
  }

  /// The Servers own the replication histories; tests never thread them.
  ReplicationReport Sync(const ReplicationOptions& options = {}) {
    auto report = server_a_->ReplicateWith(*server_b_, "shared.nsf", options);
    EXPECT_OK(report);
    return report.value_or(ReplicationReport{});
  }

  bool Converged() { return DatabasesConverged({a_, b_}); }

  ScratchDir dir_;
  SimClock clock_;
  MailDirectory directory_;
  std::unique_ptr<SimNet> net_;
  std::unique_ptr<Server> server_a_, server_b_;
  Database* a_ = nullptr;
  Database* b_ = nullptr;
};

TEST_F(ReplicationFixture, MismatchedReplicaIdsRejected) {
  DatabaseOptions options;
  auto other = Database::Open(dir_.Sub("other"), options, &clock_);
  ASSERT_OK(other);
  Replicator replicator(nullptr);
  ReplicationHistory history_a, history_o;
  EXPECT_FALSE(replicator
                   .Replicate(ReplicaEndpoint{a_, "A", history_a},
                              ReplicaEndpoint{other->get(), "O", history_o}, {})
                   .ok());
}

TEST_F(ReplicationFixture, StatCountersMatchReport) {
  ASSERT_OK(a_->CreateNote(MakeDoc("Memo", "from A")).status());
  ASSERT_OK(b_->CreateNote(MakeDoc("Memo", "from B")).status());
  clock_.Advance(1000);
  stats::StatRegistry reg;
  Replicator replicator(net_.get(), &reg);
  ReplicationHistory history_a, history_b;
  auto result = replicator.Replicate(ReplicaEndpoint{a_, "A", history_a},
                                     ReplicaEndpoint{b_, "B", history_b}, {});
  ASSERT_OK(result);
  const ReplicationReport& report = *result;
  auto counter = [&reg](const std::string& name) {
    const stats::Counter* c = reg.FindCounter(name);
    return c != nullptr ? c->value() : 0u;
  };
  EXPECT_EQ(counter("Replica.Sessions.Completed"), 1u);
  EXPECT_EQ(counter("Replica.Sessions.Failed"), 0u);
  EXPECT_EQ(counter("Replica.Docs.Summarized"), report.summarized);
  EXPECT_EQ(counter("Replica.Docs.Received"), report.pulled);
  EXPECT_EQ(counter("Replica.Docs.Sent"), report.pushed);
  EXPECT_EQ(counter("Replica.Docs.Deleted"), report.deletions_applied);
  EXPECT_EQ(counter("Replica.Docs.Conflicts"), report.conflicts);
  EXPECT_EQ(counter("Replica.Docs.Merged"), report.merges);
  EXPECT_EQ(counter("Replica.Docs.Skipped"), report.skipped_unchanged);
  EXPECT_EQ(counter("Replica.Docs.Filtered"), report.skipped_by_formula);
  EXPECT_EQ(counter("Replica.Bytes.Transferred"), report.bytes_transferred);
  EXPECT_EQ(counter("Replica.Messages"), report.messages);
  EXPECT_EQ(report.pulled, 1u);
  EXPECT_EQ(report.pushed, 1u);
}

TEST_F(ReplicationFixture, FailedSessionCountsAndLogsFailureEvent) {
  DatabaseOptions options;
  auto other = Database::Open(dir_.Sub("other"), options, &clock_);
  ASSERT_OK(other);
  stats::StatRegistry reg;
  Replicator replicator(nullptr, &reg);
  ReplicationHistory history_a, history_o;
  EXPECT_FALSE(replicator
                   .Replicate(ReplicaEndpoint{a_, "A", history_a},
                              ReplicaEndpoint{other->get(), "O", history_o}, {})
                   .ok());
  EXPECT_EQ(reg.FindCounter("Replica.Sessions.Failed")->value(), 1u);
  EXPECT_EQ(reg.events().CountRetained(stats::Severity::kFailure), 1u);
}

TEST_F(ReplicationFixture, BidirectionalSync) {
  ASSERT_OK(a_->CreateNote(MakeDoc("Memo", "from A")).status());
  ASSERT_OK(b_->CreateNote(MakeDoc("Memo", "from B")).status());
  clock_.Advance(1000);
  ReplicationReport report = Sync();
  EXPECT_EQ(report.pulled, 1u);
  EXPECT_EQ(report.pushed, 1u);
  EXPECT_EQ(report.conflicts, 0u);
  EXPECT_EQ(a_->note_count(), 2u);
  EXPECT_EQ(b_->note_count(), 2u);
  EXPECT_TRUE(Converged());
}

TEST_F(ReplicationFixture, IncrementalSecondPassMovesNothing) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(a_->CreateNote(MakeDoc("Memo", StrPrintf("m%d", i)))
                  .status());
  }
  clock_.Advance(1000);
  ReplicationReport first = Sync();
  EXPECT_EQ(first.pulled, 0u);
  EXPECT_EQ(first.pushed, 50u);
  clock_.Advance(1000);
  ReplicationReport second = Sync();
  EXPECT_EQ(second.pushed, 0u);
  EXPECT_EQ(second.pulled, 0u);
  EXPECT_EQ(second.summarized, 0u);  // replication history prunes summary
  EXPECT_LT(second.bytes_transferred, first.bytes_transferred / 10);
}

TEST_F(ReplicationFixture, FreshHistoriesSummarizeEveryNote) {
  // The full-replication baseline (E3): a session whose sides hold no
  // cutoff summarizes every note, however often the pair has replicated
  // (with the Servers' histories the second session summarizes none, as
  // IncrementalSecondPassMovesNothing shows).
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(a_->CreateNote(MakeDoc("Memo", StrPrintf("m%d", i)))
                  .status());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(b_->CreateNote(MakeDoc("Memo", "b" + std::to_string(i)))
                  .status());
  }
  clock_.Advance(1000);
  Replicator replicator(net_.get());
  for (int session = 0; session < 2; ++session) {
    ReplicationHistory history_a, history_b;
    ASSERT_OK_AND_ASSIGN(
        ReplicationReport report,
        replicator.Replicate(ReplicaEndpoint{a_, "A", history_a},
                             ReplicaEndpoint{b_, "B", history_b}, {}));
    // A pulls from B, then B pulls from A. Session 0: A's own 20 notes
    // come first in A's stamp order, so the echo walk stops at once and B
    // is summarized all 25 notes A then holds. Session 1: every note of A
    // is a version B just summarized, so the walk covers them all and B
    // is summarized none.
    EXPECT_EQ(report.summarized, session == 0 ? 5u + 25u : 25u)
        << "session " << session;
    EXPECT_EQ(report.pulled + report.pushed, session == 0 ? 25u : 0u);
    clock_.Advance(1000);
  }
  EXPECT_TRUE(Converged());
}

TEST_F(ReplicationFixture, UpdatePropagatesWithoutConflict) {
  ASSERT_OK_AND_ASSIGN(NoteId id, a_->CreateNote(MakeDoc("Memo", "v1")));
  clock_.Advance(1000);
  Sync();
  ASSERT_OK_AND_ASSIGN(Note note, a_->ReadNote(id));
  note.SetText("Subject", "v2");
  ASSERT_OK(a_->UpdateNote(note));
  clock_.Advance(1000);
  ReplicationReport report = Sync();
  EXPECT_EQ(report.conflicts, 0u);
  ASSERT_OK_AND_ASSIGN(Note remote, b_->ReadNoteByUnid(note.unid()));
  EXPECT_EQ(remote.GetText("Subject"), "v2");
  EXPECT_EQ(remote.sequence(), 2u);
  EXPECT_TRUE(Converged());
}

TEST_F(ReplicationFixture, ConcurrentEditsMakeConflictDocument) {
  ASSERT_OK_AND_ASSIGN(NoteId id, a_->CreateNote(MakeDoc("Memo", "base")));
  clock_.Advance(1000);
  Sync();
  ASSERT_TRUE(Converged());

  // Both replicas edit independently.
  ASSERT_OK_AND_ASSIGN(Note on_a, a_->ReadNote(id));
  on_a.SetText("Subject", "edit from A");
  ASSERT_OK(a_->UpdateNote(on_a));
  clock_.Advance(500);
  ASSERT_OK_AND_ASSIGN(Note on_b, b_->ReadNoteByUnid(on_a.unid()));
  on_b.SetText("Subject", "edit from B");
  ASSERT_OK(b_->UpdateNote(on_b));

  clock_.Advance(1000);
  ReplicationReport report = Sync();
  EXPECT_GE(report.conflicts, 1u);

  // Both sides now hold the same winner + one conflict response. B's edit
  // is later (same sequence, larger time) → B wins.
  clock_.Advance(1000);
  Sync();
  EXPECT_TRUE(Converged());
  ASSERT_OK_AND_ASSIGN(Note winner, a_->ReadNoteByUnid(on_a.unid()));
  EXPECT_EQ(winner.GetText("Subject"), "edit from B");
  auto conflicts = a_->FormulaSearch("SELECT @IsAvailable($Conflict)");
  ASSERT_OK(conflicts);
  ASSERT_EQ(conflicts->size(), 1u);
  EXPECT_EQ((*conflicts)[0].GetText("Subject"), "edit from A");
  EXPECT_EQ((*conflicts)[0].parent_unid(), winner.unid());
  // No lost update: both texts exist somewhere.
}

TEST_F(ReplicationFixture, HigherSequenceWinsConflict) {
  ASSERT_OK_AND_ASSIGN(NoteId id, a_->CreateNote(MakeDoc("Memo", "base")));
  clock_.Advance(1000);
  Sync();

  // A edits twice, B once → A's version dominates by sequence count.
  ASSERT_OK_AND_ASSIGN(Note on_a, a_->ReadNote(id));
  on_a.SetText("Subject", "A1");
  ASSERT_OK(a_->UpdateNote(on_a));
  ASSERT_OK_AND_ASSIGN(on_a, a_->ReadNote(id));
  on_a.SetText("Subject", "A2");
  ASSERT_OK(a_->UpdateNote(on_a));

  clock_.Advance(500);
  ASSERT_OK_AND_ASSIGN(Note on_b, b_->ReadNoteByUnid(on_a.unid()));
  on_b.SetText("Subject", "B1");
  ASSERT_OK(b_->UpdateNote(on_b));

  clock_.Advance(1000);
  Sync();
  clock_.Advance(1000);
  Sync();
  EXPECT_TRUE(Converged());
  ASSERT_OK_AND_ASSIGN(Note winner, b_->ReadNoteByUnid(on_a.unid()));
  EXPECT_EQ(winner.GetText("Subject"), "A2");
}

TEST_F(ReplicationFixture, DeletionPropagatesViaStub) {
  ASSERT_OK_AND_ASSIGN(NoteId id, a_->CreateNote(MakeDoc("Memo", "doomed")));
  clock_.Advance(1000);
  Sync();
  EXPECT_EQ(b_->note_count(), 1u);
  ASSERT_OK(a_->DeleteNote(id));
  clock_.Advance(1000);
  ReplicationReport report = Sync();
  EXPECT_EQ(report.deletions_applied, 1u);
  EXPECT_EQ(b_->note_count(), 0u);
  EXPECT_EQ(b_->stub_count(), 1u);
  EXPECT_TRUE(Converged());
}

TEST_F(ReplicationFixture, DeletionWinsOverConcurrentEdit) {
  ASSERT_OK_AND_ASSIGN(NoteId id, a_->CreateNote(MakeDoc("Memo", "target")));
  clock_.Advance(1000);
  Sync();

  ASSERT_OK(a_->DeleteNote(id));
  clock_.Advance(500);
  ASSERT_OK_AND_ASSIGN(auto hits, b_->FormulaSearch("SELECT @All"));
  ASSERT_EQ(hits.size(), 1u);
  Note on_b = hits[0];
  on_b.SetText("Subject", "still editing");
  ASSERT_OK(b_->UpdateNote(on_b));
  // B even edits again so its sequence dominates the stub's.
  ASSERT_OK_AND_ASSIGN(auto hits2, b_->FormulaSearch("SELECT @All"));
  Note again = hits2[0];
  again.SetText("Subject", "more edits");
  ASSERT_OK(b_->UpdateNote(again));

  clock_.Advance(1000);
  Sync();
  clock_.Advance(1000);
  Sync();
  EXPECT_TRUE(Converged());
  EXPECT_EQ(a_->note_count(), 0u);
  EXPECT_EQ(b_->note_count(), 0u);
  EXPECT_EQ(b_->stub_count(), 1u);
}

TEST_F(ReplicationFixture, SelectiveReplicationFilters) {
  ASSERT_OK(a_->CreateNote(MakeDoc("Invoice", "wanted", 100)).status());
  ASSERT_OK(a_->CreateNote(MakeDoc("Memo", "unwanted")).status());
  clock_.Advance(1000);
  ReplicationOptions options;
  options.selective_formula = "SELECT Form = \"Invoice\"";
  ReplicationReport report = Sync(options);
  EXPECT_EQ(report.pushed, 1u);
  EXPECT_EQ(report.skipped_by_formula, 1u);
  EXPECT_EQ(b_->note_count(), 1u);
  ASSERT_OK_AND_ASSIGN(auto docs, b_->FormulaSearch("SELECT @All"));
  EXPECT_EQ(docs[0].GetText("Subject"), "wanted");
}

TEST_F(ReplicationFixture, PurgeWaitsForPeersSoDeletesCannotResurrect) {
  // The classic anomaly the paper warns about: if the purge interval is
  // shorter than the replication interval, a deletion's stub used to be
  // purged before it propagated and the document came back from the
  // dead. PurgeStubs now clamps eligibility by the minimum peer cutoff
  // in the server's replication history, so the stub outlives the purge
  // interval until every recorded peer has seen the deletion.
  ASSERT_OK_AND_ASSIGN(NoteId id, a_->CreateNote(MakeDoc("Memo", "zombie")));
  clock_.Advance(1000);
  Sync();
  ASSERT_OK(a_->DeleteNote(id));
  // Try to purge the stub before the pair replicates again: B has not
  // seen the deletion, so the stub must survive despite its age.
  clock_.Advance(a_->info().purge_interval + 1'000'000);
  ASSERT_OK_AND_ASSIGN(size_t purged, a_->PurgeStubs());
  EXPECT_EQ(purged, 0u);
  EXPECT_EQ(a_->stub_count(), 1u);

  // B touches the document in the meantime; on the next sync the stub
  // still propagates and the deletion wins — no resurrection.
  ASSERT_OK_AND_ASSIGN(auto on_b, b_->FormulaSearch("SELECT @All"));
  ASSERT_EQ(on_b.size(), 1u);
  Note edit = on_b[0];
  edit.SetText("Subject", "zombie");
  ASSERT_OK(b_->UpdateNote(edit));
  clock_.Advance(1000);
  Sync();
  EXPECT_EQ(a_->note_count(), 0u);
  EXPECT_EQ(b_->note_count(), 0u);
  EXPECT_EQ(b_->stub_count(), 1u);

  // Once B has recorded the deletion, age-based purge proceeds again.
  clock_.Advance(a_->info().purge_interval + 1'000'000);
  ASSERT_OK_AND_ASSIGN(purged, a_->PurgeStubs());
  EXPECT_EQ(purged, 1u);
  EXPECT_EQ(a_->stub_count(), 0u);
}

TEST_F(ReplicationFixture, NoteWrittenDuringSessionReplicatesLater) {
  // A note written to B while a session runs is stamped above every
  // cutoff that session records, so a later session ships it. Recording
  // B's last stamp after both pulls used to cover the mid-session write:
  // no session ever summarized it again and the pair never converged.
  ASSERT_OK(b_->CreateNote(MakeDoc("Memo", "before")).status());
  clock_.Advance(1000);
  struct WriteIntoPeer : DatabaseObserver {
    Database* peer = nullptr;
    bool armed = true;
    void OnCommit() override {
      if (!armed) return;
      armed = false;
      EXPECT_OK(peer->CreateNote(MakeDoc("Memo", "during")).status());
    }
  } observer;
  observer.peer = b_;
  a_->AddObserver(&observer);
  Sync();  // A installs "before"; that commit writes "during" into B
  a_->RemoveObserver(&observer);
  EXPECT_FALSE(observer.armed);
  for (int i = 0; i < 2; ++i) {
    clock_.Advance(1000);
    Sync();
  }
  EXPECT_EQ(a_->note_count(), 2u);
  EXPECT_EQ(b_->note_count(), 2u);
  EXPECT_TRUE(Converged());
}

TEST_F(ReplicationFixture, PurgeWithoutHistoryIsAgeOnlyAndCanResurrect) {
  // Databases that never replicate through a Server have no replication
  // history attached; purge falls back to the age-only rule and the
  // paper's resurrection anomaly remains demonstrable. This pins down
  // the opt-out: the peer clamp only engages when a history is attached.
  DatabaseOptions options;
  options.title = "raw pair";
  auto a_or = Database::Open(dir_.Sub("raw_a"), options, &clock_);
  ASSERT_OK(a_or);
  Database* a = a_or->get();
  options.replica_id = a->replica_id();
  options.unid_seed = 77;
  auto b_or = Database::Open(dir_.Sub("raw_b"), options, &clock_);
  ASSERT_OK(b_or);
  Database* b = b_or->get();

  // No Server and no attached history: each session gets fresh histories
  // of its own, which the databases' purge never sees.
  Replicator replicator(net_.get());
  auto replicate = [&] {
    ReplicationHistory history_a, history_b;
    return replicator
        .Replicate(ReplicaEndpoint{a, "A", history_a},
                   ReplicaEndpoint{b, "B", history_b}, {})
        .status();
  };
  ASSERT_OK_AND_ASSIGN(NoteId id, a->CreateNote(MakeDoc("Memo", "zombie")));
  clock_.Advance(1000);
  ASSERT_OK(replicate());
  ASSERT_OK(a->DeleteNote(id));
  clock_.Advance(a->info().purge_interval + 1'000'000);
  ASSERT_OK_AND_ASSIGN(size_t purged, a->PurgeStubs());
  EXPECT_EQ(purged, 1u);
  EXPECT_EQ(a->stub_count(), 0u);

  // B never saw the deletion and touches the document; with A's stub
  // gone, replication brings the document *back from the dead*.
  ASSERT_OK_AND_ASSIGN(auto on_b, b->FormulaSearch("SELECT @All"));
  ASSERT_EQ(on_b.size(), 1u);
  Note edit = on_b[0];
  edit.SetText("Subject", "zombie");
  ASSERT_OK(b->UpdateNote(edit));
  clock_.Advance(1000);
  ASSERT_OK(replicate());
  EXPECT_EQ(a->note_count(), 1u);  // resurrected
}

TEST_F(ReplicationFixture, StubInstalledEvenWithoutLocalCopy) {
  // A deletes before B ever saw the note: B still records the stub so a
  // later arrival of the old version cannot resurrect it.
  ASSERT_OK_AND_ASSIGN(NoteId id, a_->CreateNote(MakeDoc("Memo", "flash")));
  ASSERT_OK(a_->DeleteNote(id));
  clock_.Advance(1000);
  Sync();
  EXPECT_EQ(b_->note_count(), 0u);
  EXPECT_EQ(b_->stub_count(), 1u);
}

TEST_F(ReplicationFixture, DesignNotesReplicate) {
  std::vector<ViewColumn> columns;
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  ASSERT_OK_AND_ASSIGN(ViewDesign design,
                       ViewDesign::Create("shared view", "SELECT @All",
                                          std::move(columns)));
  ASSERT_OK(a_->CreateView(design).status());
  Acl acl;
  acl.set_default_level(AccessLevel::kAuthor);
  ASSERT_OK(a_->SetAcl(acl));
  ASSERT_OK(a_->CreateNote(MakeDoc("Memo", "content")).status());

  clock_.Advance(1000);
  Sync();
  // B received and *applied* the design: the view exists and is built,
  // the ACL took effect.
  ViewIndex* view = b_->FindView("shared view");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->size(), 1u);
  EXPECT_EQ(b_->acl().default_level(), AccessLevel::kAuthor);
  EXPECT_TRUE(Converged());
}

TEST_F(ReplicationFixture, PartitionFailsReplication) {
  ASSERT_OK(a_->CreateNote(MakeDoc("Memo", "stuck")).status());
  net_->SetPartitioned("A", "B", true);
  auto report = server_a_->ReplicateWith(*server_b_, "shared.nsf", {});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
  net_->SetPartitioned("A", "B", false);
  EXPECT_OK(server_a_->ReplicateWith(*server_b_, "shared.nsf", {}).status());
  EXPECT_TRUE(Converged());
}

TEST_F(ReplicationFixture, ClusterReplicationIsImmediate) {
  ClusterReplicator cluster(a_, {b_});
  ASSERT_OK(a_->CreateNote(MakeDoc("Memo", "instant")).status());
  // No replicator run needed: the event-driven push already delivered.
  EXPECT_EQ(b_->note_count(), 1u);
  ASSERT_OK_AND_ASSIGN(auto docs, b_->FormulaSearch("SELECT @All"));
  EXPECT_EQ(docs[0].GetText("Subject"), "instant");
  EXPECT_EQ(cluster.report().pulled, 1u);
}

TEST_F(ReplicationFixture, ClusterPairDoesNotEcho) {
  ClusterReplicator ab(a_, {b_});
  ClusterReplicator ba(b_, {a_});
  ASSERT_OK(a_->CreateNote(MakeDoc("Memo", "ping")).status());
  ASSERT_OK(b_->CreateNote(MakeDoc("Memo", "pong")).status());
  EXPECT_EQ(a_->note_count(), 2u);
  EXPECT_EQ(b_->note_count(), 2u);
  EXPECT_TRUE(Converged());
}

TEST_F(ReplicationFixture, ClusterMutualPairWithConcurrentWritersConverges) {
  // Each side is the other's cluster peer and has its own writer thread.
  // A commit that finds a push running hands it the work instead of
  // waiting, so the pair cannot deadlock, and every change has reached
  // the peer by the time both writers return — no scheduled session.
  constexpr int kPerSide = 2000;
  ClusterReplicator ab(a_, {b_});
  ClusterReplicator ba(b_, {a_});
  auto write = [](Database* db, const std::string& subject) {
    for (int i = 0; i < kPerSide; ++i) {
      EXPECT_OK(db->CreateNote(MakeDoc("Memo", subject)).status());
    }
  };
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread run([&] {
    std::thread on_a(write, a_, "from A");
    std::thread on_b(write, b_, "from B");
    on_a.join();
    on_b.join();
    done.set_value();
  });
  if (finished.wait_for(std::chrono::minutes(5)) !=
      std::future_status::ready) {
    // Threads stuck in a deadlock cannot be joined: fail the binary.
    std::fprintf(stderr, "mutual cluster pair did not finish (deadlock)\n");
    std::fflush(nullptr);
    std::_Exit(1);
  }
  run.join();
  EXPECT_EQ(a_->note_count(), 2u * kPerSide);
  EXPECT_EQ(b_->note_count(), 2u * kPerSide);
  EXPECT_TRUE(Converged());
  EXPECT_EQ(ab.report().apply_failures, 0u);
  EXPECT_EQ(ba.report().apply_failures, 0u);
}

TEST_F(ReplicationFixture, ClusterPushFailureIsRecordedNotSwallowed) {
  // A peer that is not a replica of the source cannot accept pushes.
  // The failure must surface in the report, the Replica.Cluster.Failures
  // counter, and the event log — not vanish.
  DatabaseOptions options;
  auto stranger = Database::Open(dir_.Sub("stranger"), options, &clock_);
  ASSERT_OK(stranger);
  stats::StatRegistry reg;
  ClusterReplicator cluster(a_, {stranger->get()}, &reg);
  ASSERT_OK(a_->CreateNote(MakeDoc("Memo", "doomed push")).status());
  EXPECT_EQ(cluster.report().apply_failures, 1u);
  EXPECT_EQ(cluster.report().pulled, 0u);
  EXPECT_EQ(reg.FindCounter("Replica.Cluster.Failures")->value(), 1u);
  EXPECT_GE(reg.events().CountRetained(stats::Severity::kWarning), 1u);
  // The foreign database was not contaminated.
  EXPECT_EQ(stranger->get()->note_count(), 0u);
}

// ------------------------------------------------------- multi-server sweeps --

struct TopologyCase {
  const char* name;
  std::vector<TopologyLink> (*build)(const std::vector<std::string>&);
};

class TopologySweep : public ::testing::TestWithParam<int> {};

TEST_P(TopologySweep, RandomWorkloadConverges) {
  int topology_kind = GetParam();
  ScratchDir dir;
  SimClock clock(1'000'000'000);
  SimNet net(&clock);
  MailDirectory directory;

  std::vector<std::string> names = {"hub", "s1", "s2", "s3"};
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<Server*> server_ptrs;
  for (const std::string& name : names) {
    servers.push_back(std::make_unique<Server>(
        name, dir.Sub(name), &clock, &net, &directory));
    server_ptrs.push_back(servers.back().get());
  }

  // Seed database on the hub, replicas elsewhere.
  DatabaseOptions options;
  options.title = "Discussion";
  auto seed = servers[0]->OpenDatabase("disc.nsf", options);
  ASSERT_OK(seed);
  for (size_t i = 1; i < servers.size(); ++i) {
    ASSERT_OK(servers[i]->CreateReplicaOf(**seed, "disc.nsf").status());
  }

  ReplicationScheduler scheduler(server_ptrs, "disc.nsf");
  switch (topology_kind) {
    case 0:
      scheduler.SetTopology(HubSpokeTopology(names));
      break;
    case 1:
      scheduler.SetTopology(RingTopology(names));
      break;
    default:
      scheduler.SetTopology(MeshTopology(names));
      break;
  }
  ASSERT_OK(scheduler.InstallConnections());

  // Random workload on random replicas, interleaved with replication.
  Rng rng(2026 + topology_kind);
  std::vector<Unid> created;
  for (int phase = 0; phase < 5; ++phase) {
    for (int op = 0; op < 30; ++op) {
      Database* db =
          server_ptrs[rng.Uniform(server_ptrs.size())]->FindDatabase(
              "disc.nsf");
      double dice = rng.NextDouble();
      if (dice < 0.6 || created.empty()) {
        Note doc = MakeDoc("Topic", rng.Word(3, 10),
                           static_cast<double>(rng.Uniform(100)));
        auto id = db->CreateNote(std::move(doc));
        ASSERT_OK(id);
        auto note = db->ReadNote(*id);
        created.push_back(note->unid());
      } else if (dice < 0.85) {
        const Unid& unid = created[rng.Uniform(created.size())];
        auto note = db->ReadNoteByUnid(unid);
        if (note.ok()) {
          note->SetText("Subject", rng.Word(3, 10));
          db->UpdateNote(*note).ok();  // may conflict-fail; fine
        }
      } else {
        const Unid& unid = created[rng.Uniform(created.size())];
        auto note = db->ReadNoteByUnid(unid);
        if (note.ok()) db->DeleteNote(note->id()).ok();
      }
      clock.Advance(1000);
    }
    repl::SchedulerRunReport round = scheduler.RunAllDue(clock.Now());
    ASSERT_EQ(round.succeeded, round.attempted);
    clock.Advance(10'000);
  }
  auto rounds = scheduler.RunUntilConverged(10);
  ASSERT_OK(rounds);
  EXPECT_LE(*rounds, 10);

  // All replicas expose identical live content.
  std::vector<Database*> replicas = scheduler.Replicas();
  auto reference = replicas[0]->FormulaSearch("SELECT @All");
  ASSERT_OK(reference);
  for (Database* db : replicas) {
    auto docs = db->FormulaSearch("SELECT @All");
    ASSERT_OK(docs);
    EXPECT_EQ(docs->size(), reference->size());
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologySweep,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0:
                               return std::string("HubSpoke");
                             case 1:
                               return std::string("Ring");
                             default:
                               return std::string("Mesh");
                           }
                         });

// ------------------------------------------ batched install durability --

// Two servers on group-commit shared logs (each with its own stat
// registry), holding replicas of "shared.nsf" under `base`.
struct LoggedPair {
  LoggedPair(const std::string& base, SimClock* clock, SimNet* net,
             MailDirectory* directory, bool create) {
    a = std::make_unique<Server>("A", base + "/a", clock, net, directory,
                                 &stats_a);
    b = std::make_unique<Server>("B", base + "/b", clock, net, directory,
                                 &stats_b);
    EXPECT_OK(a->EnableSharedLog());
    EXPECT_OK(b->EnableSharedLog());
    DatabaseOptions options;
    options.title = "Shared DB";
    auto opened = a->OpenDatabase("shared.nsf", options);
    EXPECT_OK(opened);
    db_a = *opened;
    auto replica = create ? b->CreateReplicaOf(*db_a, "shared.nsf")
                          : b->OpenDatabase("shared.nsf", options);
    EXPECT_OK(replica);
    db_b = *replica;
  }
  uint64_t Syncs() {
    return stats_a.GetCounter("Server.WAL.Syncs").value() +
           stats_b.GetCounter("Server.WAL.Syncs").value();
  }

  stats::StatRegistry stats_a, stats_b;
  std::unique_ptr<Server> a, b;
  Database* db_a = nullptr;
  Database* db_b = nullptr;
};

class BatchedInstallTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(1'000'000'000);
    net_ = std::make_unique<SimNet>(&clock_);
  }

  ScratchDir dir_;
  SimClock clock_;
  MailDirectory directory_;
  std::unique_ptr<SimNet> net_;
};

// The installs of one batch (32 notes by default) share one log sync.
TEST_F(BatchedInstallTest, HundredNotePullSyncsOncePerBatch) {
  LoggedPair pair(dir_.Sub("pair"), &clock_, net_.get(), &directory_,
                  /*create=*/true);
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(pair.db_a->CreateNote(MakeDoc("Memo", StrPrintf("n%d", i)))
                  .status());
  }
  clock_.Advance(1000);
  const uint64_t before = pair.Syncs();
  ASSERT_OK_AND_ASSIGN(ReplicationReport report,
                       pair.a->ReplicateWith(*pair.b, "shared.nsf"));
  EXPECT_EQ(report.pushed, 100u);
  EXPECT_EQ(pair.db_b->note_count(), 100u);
  EXPECT_LE(pair.Syncs() - before, (100u + 31u) / 32u + 1u);
}

// A crash between a batch's installs and its sync loses that batch and
// nothing before it; a new session after restart converges, and the
// deletions the lost batch carried still win.
TEST_F(BatchedInstallTest, CrashBeforeBatchSyncRecoversAndConverges) {
  const std::string live = dir_.Sub("live");
  const std::string crashed = dir_.Sub("crashed");
  std::vector<Unid> deleted;
  {
    LoggedPair pair(live, &clock_, net_.get(), &directory_, /*create=*/true);
    std::vector<NoteId> originals;
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK_AND_ASSIGN(
          NoteId id,
          pair.db_a->CreateNote(MakeDoc("Memo", "old" + std::to_string(i))));
      originals.push_back(id);
    }
    clock_.Advance(1000);
    ASSERT_OK(pair.a->ReplicateWith(*pair.b, "shared.nsf").status());
    // Session 2 ships 60 new notes, then 10 deletion stubs (stamp order):
    // batch 1 = 32 notes, batch 2 = 28 notes + 4 stubs, batch 3 = 6 stubs.
    for (int i = 0; i < 60; ++i) {
      ASSERT_OK(
          pair.db_a->CreateNote(MakeDoc("Memo", "new" + std::to_string(i)))
              .status());
    }
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK_AND_ASSIGN(Note doomed, pair.db_a->ReadNote(originals[i]));
      deleted.push_back(doomed.unid());
      ASSERT_OK(pair.db_a->DeleteNote(originals[i]));
    }
    clock_.Advance(1000);
    // Crash at B's 62nd install: inside batch 2, after two of its stubs.
    struct CopyAtInstall : DatabaseObserver {
      int installs = 0;
      std::string from, to;
      void OnCommit() override {
        if (++installs != 62) return;
        testing_util::CopyDirTree(from, to);
      }
    } crash;
    crash.from = live;
    crash.to = crashed;
    pair.db_b->AddObserver(&crash);
    ASSERT_OK(pair.a->ReplicateWith(*pair.b, "shared.nsf").status());
    pair.db_b->RemoveObserver(&crash);
    ASSERT_GE(crash.installs, 62);
  }

  LoggedPair pair(crashed, &clock_, net_.get(), &directory_,
                  /*create=*/false);
  // Batch 1 was synced before the crash; batch 2 was not.
  EXPECT_EQ(pair.db_b->note_count(), 132u);
  EXPECT_EQ(pair.db_b->stub_count(), 0u);
  clock_.Advance(1000);
  ASSERT_OK(pair.a->ReplicateWith(*pair.b, "shared.nsf").status());
  EXPECT_TRUE(DatabasesConverged({pair.db_a, pair.db_b}));
  EXPECT_EQ(pair.db_b->note_count(), 150u);
  for (const Unid& unid : deleted) {
    for (Database* db : {pair.db_a, pair.db_b}) {
      ASSERT_OK_AND_ASSIGN(Note note, db->GetAnyByUnid(unid));
      EXPECT_TRUE(note.deleted()) << unid.ToString();
    }
  }
}

TEST(ReplicationHistoryTest, CutoffBookkeeping) {
  ReplicationHistory history;
  EXPECT_EQ(history.CutoffFor("peer"), 0);
  history.Record("peer", 100);
  EXPECT_EQ(history.CutoffFor("peer"), 100);
  history.Record("peer", 50);  // never regresses
  EXPECT_EQ(history.CutoffFor("peer"), 100);
  history.Record("peer", 200);
  EXPECT_EQ(history.CutoffFor("peer"), 200);

  // Sent-through is separate and clamps purge: a peer this database only
  // pulled from has seen none of its changes.
  EXPECT_EQ(history.MinSentCutoff(), 0);
  history.RecordSent("peer", 150);
  history.RecordSent("peer", 120);  // never regresses
  EXPECT_EQ(history.MinSentCutoff(), 150);
  EXPECT_EQ(history.CutoffFor("peer"), 200);
  history.RecordSent("other", 90);
  EXPECT_EQ(history.MinSentCutoff(), 90);
  EXPECT_EQ(history.CutoffFor("other"), 0);
  EXPECT_EQ(ReplicationHistory().MinSentCutoff(),
            std::numeric_limits<Micros>::max());
}

}  // namespace
}  // namespace dominodb
