#include <gtest/gtest.h>

#include "agent/agent.h"
#include "repl/replicator.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

using testing_util::MakeDoc;
using testing_util::ScratchDir;

class AgentFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(1'000'000'000);
    DatabaseOptions options;
    options.title = "Agent DB";
    db_ = *Database::Open(dir_.Sub("db"), options, &clock_);
    runner_ = std::make_unique<AgentRunner>(db_.get());
  }

  AgentDesign EscalateAgent(AgentTrigger trigger = AgentTrigger::kManual,
                            Micros interval = 0) {
    return *AgentDesign::Create(
        "Escalate", trigger, interval,
        "SELECT Form = \"Ticket\" & Priority > 1 & Status = \"Open\"",
        "FIELD Priority := Priority - 1; FIELD Escalated := \"yes\"");
  }

  ScratchDir dir_;
  SimClock clock_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<AgentRunner> runner_;
};

Note Ticket(const std::string& subject, double priority,
            const std::string& status = "Open") {
  Note doc(NoteClass::kDocument);
  doc.SetText("Form", "Ticket");
  doc.SetText("Subject", subject);
  doc.SetNumber("Priority", priority);
  doc.SetText("Status", status);
  return doc;
}

TEST_F(AgentFixture, ManualRunModifiesSelectedDocs) {
  ASSERT_OK(db_->CreateNote(Ticket("slow", 3)).status());
  ASSERT_OK(db_->CreateNote(Ticket("fast", 1)).status());
  ASSERT_OK(db_->CreateNote(Ticket("done", 3, "Closed")).status());
  ASSERT_OK(runner_->AddAgent(EscalateAgent()));

  ASSERT_OK_AND_ASSIGN(AgentRunReport report, runner_->RunAgent("Escalate"));
  EXPECT_EQ(report.docs_scanned, 3u);
  EXPECT_EQ(report.docs_selected, 1u);
  EXPECT_EQ(report.docs_modified, 1u);
  EXPECT_EQ(report.errors, 0u);

  ASSERT_OK_AND_ASSIGN(auto escalated,
                       db_->FormulaSearch("SELECT Escalated = \"yes\""));
  ASSERT_EQ(escalated.size(), 1u);
  EXPECT_EQ(escalated[0].GetText("Subject"), "slow");
  EXPECT_EQ(escalated[0].GetNumber("Priority"), 2);
  // The agent update bumped the sequence like any edit.
  EXPECT_EQ(escalated[0].sequence(), 2u);
}

TEST_F(AgentFixture, UnknownAgentAndBadFormulasRejected) {
  EXPECT_FALSE(runner_->RunAgent("nope").ok());
  EXPECT_FALSE(AgentDesign::Create("bad", AgentTrigger::kManual, 0,
                                   "SELECT ((", "1")
                   .ok());
  EXPECT_FALSE(AgentDesign::Create("bad2", AgentTrigger::kManual, 0,
                                   "SELECT @All", "FIELD x :=")
                   .ok());
}

TEST_F(AgentFixture, ScheduledAgentRunsWhenDue) {
  ASSERT_OK(db_->CreateNote(Ticket("t", 3)).status());
  ASSERT_OK(runner_->AddAgent(
      EscalateAgent(AgentTrigger::kScheduled, 60'000'000)));  // every 60s

  clock_.Advance(30'000'000);
  ASSERT_OK_AND_ASSIGN(auto none, runner_->RunDue(clock_.Now()));
  // First call: last_run=0, so it IS due immediately; runs once.
  EXPECT_EQ(none.size(), 1u);
  ASSERT_OK_AND_ASSIGN(auto again, runner_->RunDue(clock_.Now()));
  EXPECT_TRUE(again.empty());  // not due yet
  clock_.Advance(61'000'000);
  ASSERT_OK_AND_ASSIGN(auto due, runner_->RunDue(clock_.Now()));
  EXPECT_EQ(due.size(), 1u);
}

TEST_F(AgentFixture, NewAndChangedProcessesOnlyDeltas) {
  auto design = *AgentDesign::Create(
      "Stamp", AgentTrigger::kOnNewAndChanged, 0, "SELECT Form = \"Ticket\"",
      "FIELD Seen := \"yes\"");
  ASSERT_OK(runner_->AddAgent(design));

  ASSERT_OK(db_->CreateNote(Ticket("first", 1)).status());
  clock_.Advance(1'000'000);
  ASSERT_OK_AND_ASSIGN(auto r1, runner_->RunDue(clock_.Now()));
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].docs_scanned, 1u);
  EXPECT_EQ(r1[0].docs_modified, 1u);

  // No changes: nothing scanned (the agent's own writes don't retrigger).
  clock_.Advance(1'000'000);
  ASSERT_OK_AND_ASSIGN(auto r2, runner_->RunDue(clock_.Now()));
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0].docs_scanned, 0u);

  // One new doc: only it is scanned.
  ASSERT_OK(db_->CreateNote(Ticket("second", 1)).status());
  clock_.Advance(1'000'000);
  ASSERT_OK_AND_ASSIGN(auto r3, runner_->RunDue(clock_.Now()));
  ASSERT_EQ(r3.size(), 1u);
  EXPECT_EQ(r3[0].docs_scanned, 1u);
  EXPECT_EQ(r3[0].docs_modified, 1u);
}

TEST_F(AgentFixture, NewAndChangedSeesWritesCommittedDuringItsRun) {
  // Another writer saves a ticket while the agent's own update commits:
  // the ticket's stamp lies past everything the run read, so the next run
  // must scan it — and only it, not the agent's own update.
  class TicketOnCommit : public DatabaseObserver {
   public:
    explicit TicketOnCommit(Database* db) : db_(db) {}
    void OnCommit() override {
      if (!armed) return;
      armed = false;  // the ticket's own commit fires OnCommit again
      ticket = *db_->CreateNote(Ticket("during run", 1));
    }
    bool armed = false;
    NoteId ticket = kInvalidNoteId;

   private:
    Database* db_;
  };

  auto design = *AgentDesign::Create(
      "Stamp", AgentTrigger::kOnNewAndChanged, 0, "SELECT Form = \"Ticket\"",
      "FIELD Seen := \"yes\"");
  ASSERT_OK(runner_->AddAgent(design));
  ASSERT_OK(db_->CreateNote(Ticket("first", 1)).status());

  TicketOnCommit observer(db_.get());
  db_->AddObserver(&observer);
  observer.armed = true;  // the next commit is the agent's update
  clock_.Advance(1'000'000);
  ASSERT_OK_AND_ASSIGN(auto r1, runner_->RunDue(clock_.Now()));
  db_->RemoveObserver(&observer);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].docs_scanned, 1u);
  EXPECT_EQ(r1[0].docs_modified, 1u);
  ASSERT_NE(observer.ticket, kInvalidNoteId);

  clock_.Advance(1'000'000);
  ASSERT_OK_AND_ASSIGN(auto r2, runner_->RunDue(clock_.Now()));
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0].docs_scanned, 1u);
  EXPECT_EQ(r2[0].docs_modified, 1u);
  ASSERT_OK_AND_ASSIGN(Note ticket, db_->ReadNote(observer.ticket));
  EXPECT_EQ(ticket.GetText("Seen"), "yes");

  // Both writes are now the agent's own: nothing left to scan.
  clock_.Advance(1'000'000);
  ASSERT_OK_AND_ASSIGN(auto r3, runner_->RunDue(clock_.Now()));
  ASSERT_EQ(r3.size(), 1u);
  EXPECT_EQ(r3[0].docs_scanned, 0u);
}

TEST_F(AgentFixture, AgentsReplicateAsDesignNotes) {
  ASSERT_OK(runner_->AddAgent(EscalateAgent()));

  DatabaseOptions options;
  options.replica_id = db_->replica_id();
  auto replica = *Database::Open(dir_.Sub("replica"), options, &clock_);
  Replicator replicator(nullptr);
  ReplicationHistory history_a, history_b;
  ASSERT_OK(replicator
                .Replicate(ReplicaEndpoint{db_.get(), "A", history_a},
                           ReplicaEndpoint{replica.get(), "B", history_b}, {})
                .status());

  AgentRunner remote_runner(replica.get());
  EXPECT_EQ(remote_runner.AgentNames(),
            (std::vector<std::string>{"Escalate"}));
  // And it runs on the replica's own data.
  ASSERT_OK(replica->CreateNote(Ticket("remote", 5)).status());
  ASSERT_OK_AND_ASSIGN(AgentRunReport report,
                       remote_runner.RunAgent("Escalate"));
  EXPECT_EQ(report.docs_modified, 1u);
}

TEST_F(AgentFixture, AddAgentReplacesSameName) {
  ASSERT_OK(runner_->AddAgent(EscalateAgent()));
  auto v2 = *AgentDesign::Create("Escalate", AgentTrigger::kManual, 0,
                                 "SELECT Form = \"Ticket\"",
                                 "FIELD Version := 2");
  ASSERT_OK(runner_->AddAgent(v2));
  EXPECT_EQ(runner_->AgentNames().size(), 1u);
  // Only one agent note exists.
  size_t agent_notes = 0;
  db_->ForEachLiveNote([&](const Note& n) {
    if (n.note_class() == NoteClass::kAgent) ++agent_notes;
  });
  EXPECT_EQ(agent_notes, 1u);
}

TEST_F(AgentFixture, DesignNoteRoundtrip) {
  AgentDesign design = EscalateAgent(AgentTrigger::kScheduled, 12345);
  Note note = design.ToNote();
  auto loaded = AgentDesign::FromNote(note);
  ASSERT_OK(loaded);
  EXPECT_EQ(loaded->name(), "Escalate");
  EXPECT_EQ(loaded->trigger(), AgentTrigger::kScheduled);
  EXPECT_EQ(loaded->interval(), 12345);
  EXPECT_FALSE(AgentDesign::FromNote(MakeDoc("Memo", "x")).ok());
}

}  // namespace
}  // namespace dominodb
