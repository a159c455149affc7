// Field-level conflict merging (the Notes "merge replication conflicts"
// form option).

#include <gtest/gtest.h>

#include "repl/replicator.h"
#include "server/replication_scheduler.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

using testing_util::MakeDoc;
using testing_util::ScratchDir;

class MergeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(1'000'000'000);
    DatabaseOptions options;
    options.title = "Merge DB";
    a_ = *Database::Open(dir_.Sub("a"), options, &clock_);
    options.replica_id = a_->replica_id();
    b_ = *Database::Open(dir_.Sub("b"), options, &clock_);

    Note doc = MakeDoc("Contact", "Ada Lovelace");
    doc.SetText("Phone", "555-0100");
    doc.SetText("City", "London");
    unid_ = a_->ReadNote(*a_->CreateNote(std::move(doc)))->unid();
    clock_.Advance(1000);
    Sync(true);
  }

  ReplicationReport Sync(bool merge) {
    Replicator replicator(nullptr);
    ReplicationOptions options;
    options.merge_conflicts = merge;
    auto report = replicator.Replicate(ReplicaEndpoint{a_.get(), "A"},
                                       ReplicaEndpoint{b_.get(), "B"}, options);
    EXPECT_OK(report);
    clock_.Advance(1000);
    return report.value_or(ReplicationReport{});
  }

  void EditField(Database* db, const std::string& field,
                 const std::string& value) {
    auto note = db->ReadNoteByUnid(unid_);
    ASSERT_OK(note);
    note->SetText(field, value);
    ASSERT_OK(db->UpdateNote(std::move(*note)));
    clock_.Advance(1000);
  }

  size_t ConflictCount(Database* db) {
    auto hits = db->FormulaSearch("SELECT @IsAvailable($Conflict)");
    return hits.ok() ? hits->size() : 0;
  }

  ScratchDir dir_;
  SimClock clock_;
  std::unique_ptr<Database> a_, b_;
  Unid unid_;
};

TEST_F(MergeFixture, DisjointFieldEditsMerge) {
  EditField(a_.get(), "Phone", "555-9999");   // A edits Phone
  EditField(b_.get(), "City", "Cambridge");   // B edits City
  ReplicationReport report = Sync(true);
  EXPECT_EQ(report.merges, 1u);
  EXPECT_EQ(report.conflicts, 0u);
  Sync(true);

  // Both replicas hold one document with BOTH edits and no conflict doc.
  EXPECT_TRUE(DatabasesConverged({a_.get(), b_.get()}));
  for (Database* db : {a_.get(), b_.get()}) {
    auto note = db->ReadNoteByUnid(unid_);
    ASSERT_OK(note);
    EXPECT_EQ(note->GetText("Phone"), "555-9999");
    EXPECT_EQ(note->GetText("City"), "Cambridge");
    EXPECT_EQ(ConflictCount(db), 0u);
  }
}

TEST_F(MergeFixture, OverlappingEditsStillConflict) {
  EditField(a_.get(), "Phone", "111");
  EditField(b_.get(), "Phone", "222");
  ReplicationReport report = Sync(true);
  EXPECT_EQ(report.merges, 0u);
  EXPECT_GE(report.conflicts, 1u);
  Sync(true);
  EXPECT_TRUE(DatabasesConverged({a_.get(), b_.get()}));
  EXPECT_EQ(ConflictCount(a_.get()), 1u);
}

TEST_F(MergeFixture, MixedEditsConflictWhenAnyFieldOverlaps) {
  EditField(a_.get(), "Phone", "111");
  EditField(a_.get(), "City", "Paris");
  EditField(b_.get(), "City", "Berlin");  // City overlaps
  ReplicationReport report = Sync(true);
  EXPECT_EQ(report.merges, 0u);
  EXPECT_GE(report.conflicts, 1u);
}

TEST_F(MergeFixture, IdenticalEditsMergeCleanly) {
  // Both sides set the same value on the same field: no real overlap.
  EditField(a_.get(), "Phone", "same");
  EditField(b_.get(), "Phone", "same");
  EditField(b_.get(), "City", "Zurich");
  ReplicationReport report = Sync(true);
  EXPECT_EQ(report.merges, 1u);
  EXPECT_EQ(report.conflicts, 0u);
  Sync(true);
  EXPECT_TRUE(DatabasesConverged({a_.get(), b_.get()}));
  auto note = a_->ReadNoteByUnid(unid_);
  EXPECT_EQ(note->GetText("Phone"), "same");
  EXPECT_EQ(note->GetText("City"), "Zurich");
}

TEST_F(MergeFixture, MergeDisabledKeepsConflictBehavior) {
  EditField(a_.get(), "Phone", "555-9999");
  EditField(b_.get(), "City", "Cambridge");
  ReplicationReport report = Sync(false);
  EXPECT_EQ(report.merges, 0u);
  EXPECT_GE(report.conflicts, 1u);
  Sync(false);
  EXPECT_TRUE(DatabasesConverged({a_.get(), b_.get()}));
  EXPECT_EQ(ConflictCount(a_.get()), 1u);
}

TEST_F(MergeFixture, MergedNoteAddedFieldsPropagate) {
  // A adds a brand-new item; B edits an existing one.
  EditField(a_.get(), "Email", "ada@example.com");
  EditField(b_.get(), "City", "Oxford");
  Sync(true);
  Sync(true);
  EXPECT_TRUE(DatabasesConverged({a_.get(), b_.get()}));
  auto note = b_->ReadNoteByUnid(unid_);
  EXPECT_EQ(note->GetText("Email"), "ada@example.com");
  EXPECT_EQ(note->GetText("City"), "Oxford");
}

TEST_F(MergeFixture, MergedVersionDominatesBothInputs) {
  EditField(a_.get(), "Phone", "1");
  EditField(b_.get(), "City", "2");
  Sync(true);
  Sync(true);
  auto note = a_->ReadNoteByUnid(unid_);
  ASSERT_OK(note);
  // seq = max(2,2)+1 = 3, and both input versions are in its history.
  EXPECT_EQ(note->sequence(), 3u);
  EXPECT_GE(note->revisions().size(), 2u);
}

TEST(TryMergeNotesTest, NoCommonAncestorFails) {
  Note a, b;
  a.StampCreated(Unid{1, 1}, 100);
  b.StampCreated(Unid{1, 1}, 200);  // different creation history
  EXPECT_FALSE(TryMergeNotes(a, b, 1000).has_value());
}

}  // namespace
}  // namespace dominodb
