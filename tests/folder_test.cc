// Folders: manual document collections stored as design notes.

#include <gtest/gtest.h>

#include "repl/replicator.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

using testing_util::MakeDoc;
using testing_util::ScratchDir;

class FolderFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.title = "Folders";
    db_ = *Database::Open(dir_.Sub("db"), options, &clock_);
    ASSERT_OK(db_->CreateFolder("Inbox").status());
    for (int i = 0; i < 3; ++i) {
      NoteId id = *db_->CreateNote(MakeDoc("Memo", StrPrintf("m%d", i)));
      unids_.push_back(db_->ReadNote(id)->unid());
    }
  }

  ScratchDir dir_;
  SimClock clock_;
  std::unique_ptr<Database> db_;
  std::vector<Unid> unids_;
};

TEST_F(FolderFixture, AddRemoveContents) {
  ASSERT_OK(db_->AddToFolder("Inbox", unids_[0]));
  ASSERT_OK(db_->AddToFolder("Inbox", unids_[2]));
  ASSERT_OK_AND_ASSIGN(auto contents, db_->FolderContents("Inbox"));
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0].GetText("Subject"), "m0");
  EXPECT_EQ(contents[1].GetText("Subject"), "m2");

  // Adding twice is idempotent.
  ASSERT_OK(db_->AddToFolder("Inbox", unids_[0]));
  EXPECT_EQ(db_->FolderContents("Inbox")->size(), 2u);

  ASSERT_OK(db_->RemoveFromFolder("Inbox", unids_[0]));
  EXPECT_EQ(db_->FolderContents("Inbox")->size(), 1u);
  EXPECT_FALSE(db_->RemoveFromFolder("Inbox", unids_[0]).ok());
}

TEST_F(FolderFixture, Errors) {
  EXPECT_TRUE(db_->CreateFolder("Inbox").status().code() ==
              StatusCode::kAlreadyExists);
  EXPECT_FALSE(db_->AddToFolder("NoSuch", unids_[0]).ok());
  EXPECT_FALSE(db_->AddToFolder("Inbox", Unid{9, 9}).ok());
  EXPECT_FALSE(db_->FolderContents("NoSuch").ok());
  EXPECT_EQ(*db_->FolderNames(), (std::vector<std::string>{"Inbox"}));
}

TEST_F(FolderFixture, DeletedDocumentsDropOut) {
  ASSERT_OK(db_->AddToFolder("Inbox", unids_[1]));
  auto note = db_->ReadNoteByUnid(unids_[1]);
  ASSERT_OK(db_->DeleteNote(note->id()));
  // The ref is dangling; contents skip it.
  EXPECT_TRUE(db_->FolderContents("Inbox")->empty());
}

TEST_F(FolderFixture, FoldersReplicate) {
  ASSERT_OK(db_->AddToFolder("Inbox", unids_[0]));
  DatabaseOptions options;
  options.replica_id = db_->replica_id();
  auto replica = *Database::Open(dir_.Sub("replica"), options, &clock_);
  Replicator replicator(nullptr);
  ASSERT_OK(replicator
                .Replicate(ReplicaEndpoint{db_.get(), "A"},
                           ReplicaEndpoint{replica.get(), "B"}, {})
                .status());
  EXPECT_EQ(*replica->FolderNames(), (std::vector<std::string>{"Inbox"}));
  ASSERT_OK_AND_ASSIGN(auto contents, replica->FolderContents("Inbox"));
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents[0].GetText("Subject"), "m0");
}

TEST_F(FolderFixture, PersistsAcrossReopen) {
  ASSERT_OK(db_->AddToFolder("Inbox", unids_[2]));
  db_.reset();
  DatabaseOptions options;
  db_ = *Database::Open(dir_.Sub("db"), options, &clock_);
  ASSERT_OK_AND_ASSIGN(auto contents, db_->FolderContents("Inbox"));
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents[0].GetText("Subject"), "m2");
}

}  // namespace
}  // namespace dominodb
