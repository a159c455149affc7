// End-to-end scenario tests tying every subsystem together: a discussion
// application spread over three servers with replication, views, the
// formula language, full-text search, document security, and mail.

#include <gtest/gtest.h>

#include "repl/replicator.h"
#include "server/replication_scheduler.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "view/view_design.h"

namespace dominodb {
namespace {

using testing_util::ScratchDir;

ViewDesign ThreadsView() {
  std::vector<ViewColumn> columns;
  ViewColumn category;
  category.title = "Category";
  category.formula_source = "Category";
  category.categorized = true;
  columns.push_back(std::move(category));
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  ViewColumn author;
  author.title = "Author";
  author.formula_source = "@GetField(\"$UpdatedBy\")";
  columns.push_back(std::move(author));
  auto design = ViewDesign::Create(
      "Threads", "SELECT Form = \"Topic\" | @AllDescendants",
      std::move(columns), /*show_response_hierarchy=*/true);
  EXPECT_TRUE(design.ok());
  return *design;
}

class DiscussionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(2'000'000'000);
    net_ = std::make_unique<SimNet>(&clock_);
    for (const char* name : {"hq", "east", "west"}) {
      servers_.push_back(std::make_unique<Server>(
          name, dir_.Sub(name), &clock_, net_.get(), &directory_));
      server_ptrs_.push_back(servers_.back().get());
    }
    DatabaseOptions options;
    options.title = "Product Discussion";
    auto seed = server_ptrs_[0]->OpenDatabase("disc.nsf", options);
    ASSERT_OK(seed);
    hq_db_ = *seed;

    Acl acl;
    acl.set_default_level(AccessLevel::kAuthor);
    acl.SetEntry("Moderator", AccessLevel::kEditor);
    ASSERT_OK(hq_db_->SetAcl(acl));
    ASSERT_OK(hq_db_->CreateView(ThreadsView()).status());

    for (size_t i = 1; i < server_ptrs_.size(); ++i) {
      ASSERT_OK(server_ptrs_[i]->CreateReplicaOf(*hq_db_, "disc.nsf")
                    .status());
    }
    scheduler_ = std::make_unique<ReplicationScheduler>(server_ptrs_,
                                                        "disc.nsf");
    scheduler_->SetTopology(
        HubSpokeTopology({"hq", "east", "west"}));
  }

  Database* DbOn(const std::string& server) {
    for (Server* s : server_ptrs_) {
      if (s->name() == server) return s->FindDatabase("disc.nsf");
    }
    return nullptr;
  }

  Result<NoteId> Post(const std::string& server, const std::string& user,
                      const std::string& category,
                      const std::string& subject, const std::string& body) {
    Note topic(NoteClass::kDocument);
    topic.SetText("Form", "Topic");
    topic.SetText("Category", category);
    topic.SetText("Subject", subject);
    topic.SetItem("Body", Value::RichText({RichTextRun{body, 0, ""}}));
    return DbOn(server)->CreateNoteAs(Principal::User(user), topic);
  }

  ScratchDir dir_;
  SimClock clock_;
  std::unique_ptr<SimNet> net_;
  MailDirectory directory_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<Server*> server_ptrs_;
  Database* hq_db_ = nullptr;
  std::unique_ptr<ReplicationScheduler> scheduler_;
};

TEST_F(DiscussionFixture, DistributedDiscussionEndToEnd) {
  // Design (view + ACL) reaches the spokes via replication.
  ASSERT_OK(scheduler_->RunUntilConverged(1).status());
  ASSERT_NE(DbOn("east")->FindView("Threads"), nullptr);
  EXPECT_EQ(DbOn("east")->acl().LevelFor(Principal::User("Moderator")),
            AccessLevel::kEditor);

  // Users on different servers post topics and responses.
  ASSERT_OK_AND_ASSIGN(
      NoteId t1, Post("east", "Emma", "Bugs", "Crash on startup", "trace"));
  ASSERT_OK_AND_ASSIGN(Note topic1, DbOn("east")->ReadNote(t1));
  Note reply(NoteClass::kDocument);
  reply.SetText("Form", "Response");
  reply.SetText("Category", "Bugs");
  reply.SetText("Subject", "Repro steps");
  ASSERT_OK(DbOn("east")
                ->CreateResponse(topic1.unid(), std::move(reply))
                .status());
  ASSERT_OK(
      Post("west", "Walt", "Ideas", "Dark mode please", "body").status());
  ASSERT_OK(Post("hq", "Hank", "Bugs", "Login flaky", "intermittent")
                .status());

  clock_.Advance(60'000'000);
  ASSERT_OK_AND_ASSIGN(int rounds, scheduler_->RunUntilConverged(6));
  EXPECT_LE(rounds, 3);

  // Every replica sees the full categorized, threaded view.
  for (const char* server : {"hq", "east", "west"}) {
    Database* db = DbOn(server);
    ViewIndex* view = db->FindView("Threads");
    ASSERT_NE(view, nullptr);
    std::vector<std::string> rows;
    ASSERT_OK(db->TraverseViewAs(
        Principal::User("Reader"), "Threads", [&](const ViewRow& row) {
          if (row.kind == ViewRow::Kind::kCategory) {
            rows.push_back("[" + row.category + "] (" +
                           std::to_string(row.descendant_count) + ")");
          } else {
            rows.push_back(std::string(row.indent * 2, ' ') +
                           row.entry->ColumnText(1));
          }
        }));
    ASSERT_EQ(rows.size(), 6u) << server;
    EXPECT_EQ(rows[0], "[Bugs] (3)");
    EXPECT_EQ(rows[1], "  Crash on startup");
    EXPECT_EQ(rows[2], "    Repro steps");
    EXPECT_EQ(rows[3], "  Login flaky");
    EXPECT_EQ(rows[4], "[Ideas] (1)");
    EXPECT_EQ(rows[5], "  Dark mode please");
  }

  // Full-text search on a spoke finds replicated content.
  Database* west = DbOn("west");
  ASSERT_OK(west->EnsureFullTextIndex());
  ASSERT_OK_AND_ASSIGN(auto hits, west->SearchAs(Principal::User("Walt"),
                                                 "crash OR flaky"));
  EXPECT_EQ(hits.size(), 2u);

  // A conflicting edit on two replicas converges with a conflict doc.
  ASSERT_OK_AND_ASSIGN(auto on_hq,
                       DbOn("hq")->FormulaSearch(
                           "SELECT Subject = \"Dark mode please\""));
  ASSERT_EQ(on_hq.size(), 1u);
  Note hq_copy = on_hq[0];
  hq_copy.SetText("Subject", "Dark mode (HQ edit)");
  ASSERT_OK(DbOn("hq")->UpdateNote(hq_copy));
  clock_.Advance(1'000'000);
  ASSERT_OK_AND_ASSIGN(auto on_west,
                       west->FormulaSearch(
                           "SELECT Subject = \"Dark mode please\""));
  ASSERT_EQ(on_west.size(), 1u);
  Note west_copy = on_west[0];
  west_copy.SetText("Subject", "Dark mode (West edit)");
  ASSERT_OK(west->UpdateNote(west_copy));

  clock_.Advance(1'000'000);
  ASSERT_OK(scheduler_->RunUntilConverged(8).status());
  ASSERT_OK_AND_ASSIGN(auto conflicts,
                       hq_db_->FormulaSearch(
                           "SELECT @IsAvailable($Conflict)"));
  EXPECT_EQ(conflicts.size(), 1u);

  // Mail: notify a user cross-server about the thread.
  ASSERT_OK(server_ptrs_[0]->EnsureMailInfrastructure());
  for (Server* s : server_ptrs_) ASSERT_OK(s->EnsureMailInfrastructure());
  ASSERT_OK(server_ptrs_[1]->CreateMailFile("Emma").status());
  ASSERT_OK(server_ptrs_[0]->SendMail("Hank", {"Emma"},
                                      "Please triage 'Crash on startup'",
                                      "It is urgent."));
  std::map<std::string, Router*> peers;
  for (Server* s : server_ptrs_) peers[s->name()] = s->router();
  for (int i = 0; i < 4; ++i) {
    for (Server* s : server_ptrs_) ASSERT_OK(s->RunRouterOnce(peers).status());
  }
  EXPECT_EQ(server_ptrs_[1]->MailFileOf("Emma")->note_count(), 1u);
}

TEST_F(DiscussionFixture, ReplicaRestartPreservesEverything) {
  ASSERT_OK(scheduler_->RunUntilConverged(1).status());
  ASSERT_OK(Post("east", "Emma", "Bugs", "persisted?", "yes").status());
  clock_.Advance(1'000'000);
  ASSERT_OK(scheduler_->RunUntilConverged(5).status());

  // Snapshot the east replica, then reopen it from disk in place.
  Database* east = DbOn("east");
  ASSERT_OK(east->Checkpoint());
  Unid replica_id = east->replica_id();
  size_t count = east->note_count();

  DatabaseOptions options;
  auto reopened = Database::Open(dir_.Sub("east") + "/disc.nsf", options,
                                 &clock_);
  ASSERT_OK(reopened);
  EXPECT_EQ((*reopened)->replica_id(), replica_id);
  EXPECT_EQ((*reopened)->note_count(), count);
  ViewIndex* view = (*reopened)->FindView("Threads");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->size(), 1u);
}

TEST_F(DiscussionFixture, ServerIndexerDefersMaintenanceAcrossReplication) {
  // Loading the UPDATE task attaches every already-open database...
  ASSERT_OK(server_ptrs_[0]->StartIndexer(2));
  ASSERT_NE(server_ptrs_[0]->indexer_pool(), nullptr);
  // ...and databases opened afterwards attach automatically.
  DatabaseOptions options;
  auto extra = server_ptrs_[0]->OpenDatabase("extra.nsf", options);
  ASSERT_OK(extra);

  ASSERT_OK(scheduler_->RunUntilConverged(1).status());
  ASSERT_OK(Post("hq", "Hank", "Bugs", "deferred but visible", "body")
                .status());
  // The traversal catches the queue up before answering, so the write is
  // visible without an explicit FlushIndexes.
  std::vector<std::string> subjects;
  ASSERT_OK(hq_db_->TraverseViewAs(
      Principal::User("Hank"), "Threads", [&](const ViewRow& row) {
        if (row.kind == ViewRow::Kind::kDocument) {
          subjects.push_back(row.entry->ColumnText(1));
        }
      }));
  EXPECT_EQ(subjects, std::vector<std::string>{"deferred but visible"});

  // Replication out of hq still sees the note, and the spokes (no
  // indexer loaded) index inline as before.
  clock_.Advance(1'000'000);
  ASSERT_OK(scheduler_->RunUntilConverged(5).status());
  ASSERT_OK(hq_db_->FlushIndexes());
  EXPECT_EQ(DbOn("east")->FindView("Threads")->size(), 1u);
  EXPECT_EQ(DbOn("west")->FindView("Threads")->size(), 1u);
}

}  // namespace
}  // namespace dominodb
