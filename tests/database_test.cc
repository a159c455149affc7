#include <gtest/gtest.h>

#include "core/database.h"
#include "tests/test_util.h"
#include "view/view_design.h"

namespace dominodb {
namespace {

using testing_util::MakeDoc;
using testing_util::ScratchDir;

class DatabaseFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.title = "Test DB";
    auto db = Database::Open(dir_.Sub("db"), options, &clock_);
    ASSERT_OK(db);
    db_ = std::move(*db);
  }

  Result<NoteId> Create(const std::string& form, const std::string& subject,
                        double amount = 0) {
    return db_->CreateNote(MakeDoc(form, subject, amount));
  }

  ScratchDir dir_;
  SimClock clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseFixture, CreateReadUpdateDelete) {
  ASSERT_OK_AND_ASSIGN(NoteId id, Create("Memo", "hello"));
  ASSERT_OK_AND_ASSIGN(Note note, db_->ReadNote(id));
  EXPECT_EQ(note.sequence(), 1u);
  EXPECT_FALSE(note.unid().IsNull());

  note.SetText("Subject", "updated");
  ASSERT_OK(db_->UpdateNote(note));
  ASSERT_OK_AND_ASSIGN(Note updated, db_->ReadNote(id));
  EXPECT_EQ(updated.sequence(), 2u);
  EXPECT_EQ(updated.GetText("Subject"), "updated");
  EXPECT_GT(updated.sequence_time(), note.sequence_time());

  ASSERT_OK(db_->DeleteNote(id));
  EXPECT_FALSE(db_->ReadNote(id).ok());
  EXPECT_EQ(db_->stub_count(), 1u);
  // The stub retains identity for replication.
  ASSERT_OK_AND_ASSIGN(Note stub, db_->GetAnyByUnid(updated.unid()));
  EXPECT_TRUE(stub.deleted());
  EXPECT_EQ(stub.sequence(), 3u);
}

TEST_F(DatabaseFixture, SaveConflictDetected) {
  ASSERT_OK_AND_ASSIGN(NoteId id, Create("Memo", "v1"));
  ASSERT_OK_AND_ASSIGN(Note copy_a, db_->ReadNote(id));
  ASSERT_OK_AND_ASSIGN(Note copy_b, db_->ReadNote(id));
  copy_a.SetText("Subject", "from A");
  ASSERT_OK(db_->UpdateNote(copy_a));
  copy_b.SetText("Subject", "from B");
  Status st = db_->UpdateNote(copy_b);
  EXPECT_TRUE(st.IsConflict()) << st.ToString();
}

TEST_F(DatabaseFixture, UnidsAreUniqueAndMonotonicStamps) {
  std::set<Unid> unids;
  Micros last = 0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK_AND_ASSIGN(NoteId id, Create("Memo", "m"));
    ASSERT_OK_AND_ASSIGN(Note note, db_->ReadNote(id));
    EXPECT_TRUE(unids.insert(note.unid()).second);
    EXPECT_GT(note.sequence_time(), last);
    last = note.sequence_time();
  }
}

TEST_F(DatabaseFixture, ResponsesAndChildrenIndex) {
  ASSERT_OK_AND_ASSIGN(NoteId topic_id, Create("Topic", "thread root"));
  ASSERT_OK_AND_ASSIGN(Note topic, db_->ReadNote(topic_id));
  ASSERT_OK_AND_ASSIGN(
      NoteId r1, db_->CreateResponse(topic.unid(), MakeDoc("Re", "reply 1")));
  ASSERT_OK_AND_ASSIGN(
      NoteId r2, db_->CreateResponse(topic.unid(), MakeDoc("Re", "reply 2")));
  auto children = db_->ChildrenOf(topic.unid());
  EXPECT_EQ(children.size(), 2u);
  ASSERT_OK_AND_ASSIGN(Note reply, db_->ReadNote(r1));
  EXPECT_TRUE(reply.IsResponse());
  EXPECT_EQ(reply.parent_unid(), topic.unid());
  // Deleting a response removes it from the children index.
  ASSERT_OK(db_->DeleteNote(r2));
  EXPECT_EQ(db_->ChildrenOf(topic.unid()).size(), 1u);
  EXPECT_FALSE(
      db_->CreateResponse(Unid{123, 456}, MakeDoc("Re", "orphan")).ok());
}

TEST_F(DatabaseFixture, ViewsAutoUpdate) {
  std::vector<ViewColumn> columns;
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  ASSERT_OK_AND_ASSIGN(
      ViewDesign design,
      ViewDesign::Create("invoices", "SELECT Form = \"Invoice\"",
                         std::move(columns)));
  ASSERT_OK_AND_ASSIGN(ViewIndex * view, db_->CreateView(design));
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->size(), 0u);

  ASSERT_OK_AND_ASSIGN(NoteId inv, Create("Invoice", "zeta"));
  ASSERT_OK(Create("Memo", "not in view").status());
  EXPECT_EQ(view->size(), 1u);

  ASSERT_OK_AND_ASSIGN(Note note, db_->ReadNote(inv));
  note.SetText("Subject", "alpha");
  ASSERT_OK(db_->UpdateNote(note));
  EXPECT_EQ(view->size(), 1u);
  EXPECT_EQ(view->Entries()[0]->ColumnText(0), "alpha");

  ASSERT_OK(db_->DeleteNote(inv));
  EXPECT_EQ(view->size(), 0u);
  EXPECT_EQ(db_->ViewNames(), (std::vector<std::string>{"invoices"}));
}

// A two-level categorized view over a numeric and a text column, where
// reader fields hide one sub-category, and one whole top category, from
// Bob: TraverseViewAs returns what collecting every row at the pin,
// dropping the unreadable documents and then pruning the categories left
// empty returns.
TEST_F(DatabaseFixture, TraverseViewAsPrunesEmptiedCategories) {
  std::vector<ViewColumn> columns(3);
  columns[0].title = "Amount";
  columns[0].formula_source = "Amount";
  columns[0].sort = ColumnSort::kAscending;
  columns[0].categorized = true;
  columns[1].title = "Form";
  columns[1].formula_source = "Form";
  columns[1].sort = ColumnSort::kAscending;
  columns[1].categorized = true;
  columns[2].title = "Subject";
  columns[2].formula_source = "Subject";
  columns[2].sort = ColumnSort::kAscending;
  ASSERT_OK_AND_ASSIGN(
      ViewDesign design,
      ViewDesign::Create("ByAmount", "SELECT @All", std::move(columns)));
  ASSERT_OK(db_->CreateView(design).status());
  struct Spec {
    double amount;
    const char* form;
    const char* subject;
    bool alice_only;
  };
  const Spec specs[] = {
      {1, "Memo", "a", false},     {1, "Memo", "b", true},
      {1, "Invoice", "c", true},   {1, "Invoice", "d", true},
      {2.5, "Memo", "e", true},    {2.5, "Invoice", "f", true},
      {10, "Invoice", "g", false}, {10, "Memo", "h", true},
      {10, "Task", "i", false}};
  for (const Spec& spec : specs) {
    Note doc = MakeDoc(spec.form, spec.subject, spec.amount);
    if (spec.alice_only) {
      doc.SetItem("DocReaders", Value::TextList({"Alice"}),
                  kItemReaders | kItemNames);
    }
    ASSERT_OK(db_->CreateNote(std::move(doc)).status());
  }
  auto sign = [](const ViewRow& row) {
    if (row.kind == ViewRow::Kind::kCategory) {
      return "C" + std::to_string(row.indent) + "|" + row.category + "|" +
             std::to_string(row.descendant_count);
    }
    return "D" + std::to_string(row.indent) + "|" +
           row.entry->ColumnText(2);
  };
  auto reference = [&](const Principal& who) {
    Database::ReadTxn txn(db_.get());
    const AccessContext access = ResolveAccess(db_->acl(), who);
    std::vector<ViewRow> rows;
    db_->FindView("ByAmount")->TraverseAt(txn.epoch(), [&](const ViewRow& row) {
      if (row.kind == ViewRow::Kind::kDocument && row.reader_names != nullptr &&
          !CanReadWithNames(access, who, *row.reader_names)) {
        return;
      }
      rows.push_back(row);
    });
    std::vector<std::string> out;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].kind == ViewRow::Kind::kCategory) {
        bool has_docs = false;
        for (size_t j = i + 1; j < rows.size(); ++j) {
          if (rows[j].kind == ViewRow::Kind::kCategory &&
              rows[j].indent <= rows[i].indent) {
            break;
          }
          if (rows[j].kind == ViewRow::Kind::kDocument) {
            has_docs = true;
            break;
          }
        }
        if (!has_docs) continue;
      }
      out.push_back(sign(rows[i]));
    }
    return out;
  };
  auto traverse = [&](const Principal& who) {
    std::vector<std::string> out;
    EXPECT_OK(db_->TraverseViewAs(who, "ByAmount", [&](const ViewRow& row) {
      out.push_back(sign(row));
    }));
    return out;
  };
  const Principal bob = Principal::User("Bob");
  const Principal alice = Principal::User("Alice");
  EXPECT_EQ(traverse(bob), reference(bob));
  EXPECT_EQ(traverse(alice), reference(alice));
  // Counts are of every document under the category, readable or not.
  EXPECT_EQ(traverse(bob),
            (std::vector<std::string>{"C0|1|4", "C1|Memo|2", "D2|a",
                                      "C0|10|3", "C1|Invoice|1", "D2|g",
                                      "C1|Task|1", "D2|i"}));
  EXPECT_EQ(traverse(alice).size(), 9u + 3u + 7u);
}

TEST_F(DatabaseFixture, PersistenceAcrossReopen) {
  // Create content + design, close, reopen, and verify everything is
  // rebuilt from the store (views from their design notes, the ACL from
  // the ACL note).
  std::vector<ViewColumn> columns;
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  ASSERT_OK_AND_ASSIGN(ViewDesign design,
                       ViewDesign::Create("all", "SELECT @All",
                                          std::move(columns)));
  ASSERT_OK(db_->CreateView(design).status());
  ASSERT_OK(Create("Memo", "persisted").status());

  Acl acl;
  acl.set_default_level(AccessLevel::kNoAccess);
  acl.SetEntry("Alice", AccessLevel::kManager);
  ASSERT_OK(db_->SetAcl(acl));

  Unid replica = db_->replica_id();
  db_.reset();

  DatabaseOptions options;
  ASSERT_OK_AND_ASSIGN(db_, Database::Open(dir_.Sub("db"), options, &clock_));
  EXPECT_EQ(db_->title(), "Test DB");
  EXPECT_EQ(db_->replica_id(), replica);
  EXPECT_EQ(db_->note_count(), 3u);  // memo + view note + acl note
  ViewIndex* view = db_->FindView("all");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->size(), 1u);
  EXPECT_EQ(db_->acl().LevelFor(Principal::User("Alice")),
            AccessLevel::kManager);
  EXPECT_EQ(db_->acl().LevelFor(Principal::User("Rando")),
            AccessLevel::kNoAccess);
}

TEST_F(DatabaseFixture, CheckedCrudEnforcesAcl) {
  Acl acl;
  acl.set_default_level(AccessLevel::kNoAccess);
  acl.SetEntry("Manager", AccessLevel::kManager);
  acl.SetEntry("Author", AccessLevel::kAuthor);
  acl.SetEntry("Reader", AccessLevel::kReader);
  ASSERT_OK(db_->SetAcl(acl));

  Principal manager = Principal::User("Manager");
  Principal author = Principal::User("Author");
  Principal reader = Principal::User("Reader");
  Principal nobody = Principal::User("Nobody");

  // Authors may create; readers may not.
  Note doc = MakeDoc("Memo", "authored");
  doc.SetItem("Authors", Value::TextList({"Author"}),
              kItemAuthors | kItemNames);
  ASSERT_OK_AND_ASSIGN(NoteId id, db_->CreateNoteAs(author, doc));
  EXPECT_FALSE(db_->CreateNoteAs(reader, MakeDoc("Memo", "x")).ok());
  EXPECT_FALSE(db_->CreateNoteAs(nobody, MakeDoc("Memo", "x")).ok());

  // Reads.
  ASSERT_OK(db_->ReadNoteAs(reader, id).status());
  EXPECT_FALSE(db_->ReadNoteAs(nobody, id).ok());

  // Author edits their own doc; reader cannot edit.
  ASSERT_OK_AND_ASSIGN(Note mine, db_->ReadNoteAs(author, id));
  mine.SetText("Subject", "edited");
  ASSERT_OK(db_->UpdateNoteAs(author, mine));
  ASSERT_OK_AND_ASSIGN(Note theirs, db_->ReadNoteAs(reader, id));
  theirs.SetText("Subject", "hacked");
  EXPECT_FALSE(db_->UpdateNoteAs(reader, theirs).ok());

  // $UpdatedBy stamped.
  ASSERT_OK_AND_ASSIGN(Note after, db_->ReadNote(id));
  EXPECT_EQ(after.GetText("$UpdatedBy"), "Author");

  // Deletion permission mirrors editing.
  EXPECT_FALSE(db_->DeleteNoteAs(reader, id).ok());
  ASSERT_OK(db_->DeleteNoteAs(author, id));

  // ACL changes need Manager.
  EXPECT_FALSE(db_->SetAclAs(reader, acl).ok());
  ASSERT_OK(db_->SetAclAs(manager, acl));
}

TEST_F(DatabaseFixture, ReaderFieldsFilterViewsAndSearch) {
  Acl acl;
  acl.set_default_level(AccessLevel::kReader);
  acl.SetEntry("Editor", AccessLevel::kEditor);
  ASSERT_OK(db_->SetAcl(acl));

  std::vector<ViewColumn> columns;
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  ASSERT_OK_AND_ASSIGN(ViewDesign design,
                       ViewDesign::Create("all", "SELECT @All",
                                          std::move(columns)));
  ASSERT_OK(db_->CreateView(design).status());

  Note open_doc = MakeDoc("Memo", "public document");
  ASSERT_OK(db_->CreateNote(open_doc).status());
  Note secret = MakeDoc("Memo", "secret document");
  secret.SetItem("DocReaders", Value::TextList({"Editor"}),
                 kItemReaders | kItemNames);
  ASSERT_OK(db_->CreateNote(secret).status());

  auto rows_for = [&](const Principal& who) {
    std::vector<std::string> subjects;
    EXPECT_OK(db_->TraverseViewAs(who, "all", [&](const ViewRow& row) {
      if (row.kind == ViewRow::Kind::kDocument) {
        subjects.push_back(row.entry->ColumnText(0));
      }
    }));
    return subjects;
  };
  EXPECT_EQ(rows_for(Principal::User("Editor")).size(), 2u);
  EXPECT_EQ(rows_for(Principal::User("Guest")).size(), 1u);

  ASSERT_OK(db_->EnsureFullTextIndex());
  ASSERT_OK_AND_ASSIGN(auto editor_hits,
                       db_->SearchAs(Principal::User("Editor"), "document"));
  EXPECT_EQ(editor_hits.size(), 2u);
  ASSERT_OK_AND_ASSIGN(auto guest_hits,
                       db_->SearchAs(Principal::User("Guest"), "document"));
  ASSERT_EQ(guest_hits.size(), 1u);
  EXPECT_EQ(guest_hits[0].GetText("Subject"), "public document");
}

TEST_F(DatabaseFixture, FormulaSearch) {
  ASSERT_OK(Create("Invoice", "big", 5000).status());
  ASSERT_OK(Create("Invoice", "small", 10).status());
  ASSERT_OK(Create("Memo", "other").status());
  ASSERT_OK_AND_ASSIGN(
      auto hits, db_->FormulaSearch("SELECT Form = \"Invoice\" & Amount > 100"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].GetText("Subject"), "big");
  EXPECT_FALSE(db_->FormulaSearch("SELECT ((").ok());
}

TEST_F(DatabaseFixture, FullTextStaysIncremental) {
  ASSERT_OK(db_->EnsureFullTextIndex());
  ASSERT_OK_AND_ASSIGN(NoteId id, Create("Memo", "searchable widget"));
  ASSERT_OK_AND_ASSIGN(auto hits,
                       db_->SearchAs(Principal::User("x"), "widget"));
  EXPECT_EQ(hits.size(), 1u);
  ASSERT_OK(db_->DeleteNote(id));
  ASSERT_OK_AND_ASSIGN(auto gone,
                       db_->SearchAs(Principal::User("x"), "widget"));
  EXPECT_TRUE(gone.empty());
}

TEST_F(DatabaseFixture, UnreadMarks) {
  Principal user = Principal::User("Reader Person");
  ASSERT_OK_AND_ASSIGN(NoteId a, Create("Memo", "one"));
  ASSERT_OK_AND_ASSIGN(NoteId b, Create("Memo", "two"));
  (void)b;
  EXPECT_EQ(db_->UnreadCount(user), 2u);
  ASSERT_OK_AND_ASSIGN(Note note, db_->ReadNote(a));
  db_->MarkRead(user, note.unid());
  EXPECT_FALSE(db_->IsUnread(user, note.unid()));
  EXPECT_EQ(db_->UnreadCount(user), 1u);
}

TEST_F(DatabaseFixture, ChangesSinceAndPurge) {
  clock_.Set(1'000'000);
  ASSERT_OK_AND_ASSIGN(NoteId a, Create("Memo", "early"));
  clock_.Set(2'000'000);
  Micros cutoff = clock_.Now();
  clock_.Set(3'000'000);
  ASSERT_OK(Create("Memo", "late").status());
  ASSERT_OK(db_->DeleteNote(a));

  auto changes = db_->ChangeSummarySince(cutoff);
  ASSERT_EQ(changes.size(), 2u);  // the late note and the stub
  EXPECT_GT(changes[0].stamp, cutoff);
  EXPECT_LT(changes[0].stamp, changes[1].stamp);

  // Purge: stub removed once past the purge interval.
  clock_.Set(clock_.Now() + db_->info().purge_interval + 10'000'000);
  ASSERT_OK_AND_ASSIGN(size_t purged, db_->PurgeStubs());
  EXPECT_EQ(purged, 1u);
  EXPECT_EQ(db_->stub_count(), 0u);
}

TEST(DatabaseClockless, PurgeAgesAgainstNewestStampWhenNoClock) {
  // A database opened without a clock stamps notes from a logical
  // counter. PurgeStubs used to compute `0 - purge_interval` as the
  // cutoff and silently purge nothing, forever; it now ages stubs
  // against the newest stamp the store has seen.
  ScratchDir dir;
  DatabaseOptions options;
  options.title = "clockless";
  options.purge_interval = 10'000;  // ten logical milliseconds
  auto db_or = Database::Open(dir.Sub("db"), options, nullptr);
  ASSERT_OK(db_or);
  Database* db = db_or->get();

  ASSERT_OK_AND_ASSIGN(NoteId id, db->CreateNote(MakeDoc("Memo", "old")));
  ASSERT_OK(db->DeleteNote(id));
  // Later writes advance the logical time well past the stub's age.
  for (int i = 0; i < 32; ++i) {
    ASSERT_OK(db->CreateNote(MakeDoc("Memo", "filler")).status());
  }
  EXPECT_EQ(db->stub_count(), 1u);
  ASSERT_OK_AND_ASSIGN(size_t purged, db->PurgeStubs());
  EXPECT_EQ(purged, 1u);
  EXPECT_EQ(db->stub_count(), 0u);
}

TEST(DatabaseCommitMaintenance, FailedCheckpointDoesNotFailCommittedWrite) {
  // Threshold maintenance runs after the write is logged and published.
  // A checkpoint failing there is the store's problem, not the writer's:
  // reporting it would make a caller retry an acknowledged CreateNote and
  // store the document twice.
  ScratchDir dir;
  SimClock clock;
  stats::StatRegistry registry;
  DatabaseOptions options;
  options.stats = &registry;
  options.store.checkpoint_threshold_bytes = 1;
  options.store.checkpoint_fault = [](std::string_view point) {
    return point == "pager:after_log" ? Status::IOError("injected fault")
                                      : Status::Ok();
  };
  auto db_or = Database::Open(dir.Sub("db"), options, &clock);
  ASSERT_OK(db_or);
  Database* db = db_or->get();

  ASSERT_OK_AND_ASSIGN(NoteId id, db->CreateNote(MakeDoc("Memo", "kept")));
  ASSERT_OK_AND_ASSIGN(Note note, db->ReadNote(id));
  EXPECT_EQ(note.GetText("Subject"), "kept");
  EXPECT_EQ(db->note_count(), 1u);
  size_t store_warnings = 0;
  for (const stats::Event& event : registry.events().Events()) {
    if (event.source == "Store" &&
        event.severity == stats::Severity::kWarning) {
      ++store_warnings;
    }
  }
  EXPECT_GT(store_warnings, 0u);
}

TEST_F(DatabaseFixture, OnCommitFiresOncePerOutermostCommit) {
  // OnCommit carries no payload: one call per outermost mutation, after
  // the write lock is released, so the callback may write to the same
  // database (that write fires its own OnCommit, nested in this one).
  struct Recorder : DatabaseObserver {
    Database* db = nullptr;
    int commits = 0;
    bool write_back = false;
    void OnCommit() override {
      ++commits;
      if (!write_back) return;
      write_back = false;
      EXPECT_OK(db->CreateNote(MakeDoc("Memo", "from observer")).status());
    }
  } recorder;
  recorder.db = db_.get();
  db_->AddObserver(&recorder);

  ASSERT_OK_AND_ASSIGN(NoteId id, Create("Memo", "watched"));
  EXPECT_EQ(recorder.commits, 1);
  // CreateResponse nests CreateNote inside its own mutation: one commit.
  ASSERT_OK_AND_ASSIGN(Note parent, db_->ReadNote(id));
  ASSERT_OK(db_->CreateResponse(parent.unid(), MakeDoc("Reply", "re"))
                .status());
  EXPECT_EQ(recorder.commits, 2);
  ASSERT_OK(db_->DeleteNote(id));
  EXPECT_EQ(recorder.commits, 3);
  clock_.Set(clock_.Now() + db_->info().purge_interval + 10'000'000);
  ASSERT_OK_AND_ASSIGN(size_t purged, db_->PurgeStubs());
  EXPECT_EQ(purged, 1u);
  EXPECT_EQ(recorder.commits, 4);

  // Writing from the callback does not deadlock.
  recorder.write_back = true;
  ASSERT_OK(Create("Memo", "trigger").status());
  EXPECT_EQ(recorder.commits, 6);
  EXPECT_EQ(db_->note_count(), 3u);

  // Non-commit maintenance (a checkpoint) fires nothing.
  ASSERT_OK(db_->Checkpoint());
  EXPECT_EQ(recorder.commits, 6);
  db_->RemoveObserver(&recorder);
  ASSERT_OK(Create("Memo", "unwatched").status());
  EXPECT_EQ(recorder.commits, 6);
}

TEST_F(DatabaseFixture, ViewDesignChangeViaNoteTakesEffect) {
  // Simulate a replicated design change: install a view note remotely.
  std::vector<ViewColumn> columns;
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  ASSERT_OK_AND_ASSIGN(ViewDesign design,
                       ViewDesign::Create("dyn", "SELECT Form = \"A\"",
                                          std::move(columns)));
  ASSERT_OK(db_->CreateView(design).status());
  ASSERT_OK(Create("A", "doc-a").status());
  ASSERT_OK(Create("B", "doc-b").status());
  EXPECT_EQ(db_->FindView("dyn")->size(), 1u);

  // New design note with the same name but a different selection, as a
  // remote replica would deliver it.
  std::vector<ViewColumn> columns2;
  ViewColumn subject2;
  subject2.title = "Subject";
  subject2.formula_source = "Subject";
  subject2.sort = ColumnSort::kAscending;
  columns2.push_back(std::move(subject2));
  ASSERT_OK_AND_ASSIGN(ViewDesign design2,
                       ViewDesign::Create("dyn", "SELECT Form = \"B\"",
                                          std::move(columns2)));
  Note incoming = design2.ToNote();
  incoming.StampCreated(Unid{0xD1, 0xD2}, clock_.Now() + 50);
  ASSERT_OK(db_->InstallRemoteNote(incoming));
  EXPECT_EQ(db_->FindView("dyn")->size(), 1u);
  EXPECT_EQ(db_->FindView("dyn")->Entries()[0]->ColumnText(0), "doc-b");
}

}  // namespace
}  // namespace dominodb
