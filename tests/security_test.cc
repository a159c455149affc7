#include <gtest/gtest.h>

#include "base/rng.h"
#include "security/acl.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

Acl StandardAcl() {
  Acl acl;
  acl.set_default_level(AccessLevel::kNoAccess);
  acl.SetEntry("Alice Manager", AccessLevel::kManager, {"[Admin]"});
  acl.SetEntry("Bob Editor", AccessLevel::kEditor);
  acl.SetEntry("Carol Author", AccessLevel::kAuthor);
  acl.SetEntry("Dave Reader", AccessLevel::kReader);
  acl.SetEntry("Eve Depositor", AccessLevel::kDepositor);
  acl.SetEntry("Sales Team", AccessLevel::kAuthor, {"[Sales]"});
  return acl;
}

TEST(AclTest, LevelResolution) {
  Acl acl = StandardAcl();
  EXPECT_EQ(acl.LevelFor(Principal::User("Alice Manager")),
            AccessLevel::kManager);
  EXPECT_EQ(acl.LevelFor(Principal::User("Nobody")), AccessLevel::kNoAccess);
  // Group membership grants the group's level.
  Principal grace{"Grace", {"Sales Team"}};
  EXPECT_EQ(acl.LevelFor(grace), AccessLevel::kAuthor);
  // Strongest of several matches wins.
  Principal bob_in_sales{"Bob Editor", {"Sales Team"}};
  EXPECT_EQ(acl.LevelFor(bob_in_sales), AccessLevel::kEditor);
}

TEST(AclTest, DefaultEntry) {
  Acl acl = StandardAcl();
  acl.set_default_level(AccessLevel::kReader);
  EXPECT_EQ(acl.LevelFor(Principal::User("Random Person")),
            AccessLevel::kReader);
  // "-Default-" routes through SetEntry too.
  acl.SetEntry("-Default-", AccessLevel::kNoAccess);
  EXPECT_EQ(acl.LevelFor(Principal::User("Random Person")),
            AccessLevel::kNoAccess);
}

TEST(AclTest, Roles) {
  Acl acl = StandardAcl();
  auto roles = acl.RolesFor(Principal{"Grace", {"Sales Team"}});
  ASSERT_EQ(roles.size(), 1u);
  EXPECT_EQ(roles[0], "[Sales]");
  EXPECT_TRUE(acl.RolesFor(Principal::User("Dave Reader")).empty());
}

TEST(AclTest, EntriesManagement) {
  Acl acl = StandardAcl();
  EXPECT_NE(acl.FindEntry("bob editor"), nullptr);  // case-insensitive
  EXPECT_TRUE(acl.RemoveEntry("Bob Editor"));
  EXPECT_FALSE(acl.RemoveEntry("Bob Editor"));
  EXPECT_EQ(acl.FindEntry("Bob Editor"), nullptr);
}

TEST(AclTest, NoteRoundtrip) {
  Acl acl = StandardAcl();
  Note note = acl.ToNote();
  EXPECT_EQ(note.note_class(), NoteClass::kAcl);
  auto loaded = Acl::FromNote(note);
  ASSERT_OK(loaded);
  EXPECT_EQ(loaded->default_level(), AccessLevel::kNoAccess);
  EXPECT_EQ(loaded->LevelFor(Principal::User("Carol Author")),
            AccessLevel::kAuthor);
  auto roles = loaded->RolesFor(Principal{"G", {"Sales Team"}});
  ASSERT_EQ(roles.size(), 1u);
  EXPECT_EQ(roles[0], "[Sales]");
}

TEST(AclTest, CapabilityChecks) {
  Acl acl = StandardAcl();
  EXPECT_TRUE(CanCreateDocuments(acl, Principal::User("Eve Depositor")));
  EXPECT_TRUE(CanCreateDocuments(acl, Principal::User("Carol Author")));
  EXPECT_FALSE(CanCreateDocuments(acl, Principal::User("Dave Reader")));
  EXPECT_FALSE(CanCreateDocuments(acl, Principal::User("Nobody")));
  EXPECT_TRUE(CanChangeDesign(acl, Principal::User("Alice Manager")));
  EXPECT_FALSE(CanChangeDesign(acl, Principal::User("Bob Editor")));
  EXPECT_TRUE(CanChangeAcl(acl, Principal::User("Alice Manager")));
  EXPECT_FALSE(CanChangeAcl(acl, Principal::User("Bob Editor")));
}

Note OpenDoc() {
  Note note = testing_util::MakeDoc("Memo", "public info");
  return note;
}

Note RestrictedDoc() {
  Note note = testing_util::MakeDoc("Memo", "restricted");
  note.SetItem("DocReaders", Value::TextList({"Dave Reader", "[Admin]"}),
               kItemReaders | kItemNames);
  note.SetItem("DocAuthors", Value::TextList({"Carol Author"}),
               kItemAuthors | kItemNames);
  return note;
}

TEST(DocumentSecurityTest, ReadWithoutReaderFields) {
  Acl acl = StandardAcl();
  EXPECT_TRUE(CanReadDocument(acl, Principal::User("Dave Reader"), OpenDoc()));
  EXPECT_FALSE(CanReadDocument(acl, Principal::User("Eve Depositor"),
                               OpenDoc()));  // Depositor can't read
  EXPECT_FALSE(CanReadDocument(acl, Principal::User("Nobody"), OpenDoc()));
}

TEST(DocumentSecurityTest, ReaderFieldsRestrict) {
  Acl acl = StandardAcl();
  Note doc = RestrictedDoc();
  // Named reader: yes.
  EXPECT_TRUE(CanReadDocument(acl, Principal::User("Dave Reader"), doc));
  // Editor NOT in the reader list: no — reader fields trump ACL level.
  EXPECT_FALSE(CanReadDocument(acl, Principal::User("Bob Editor"), doc));
  // Role-based reader access.
  EXPECT_TRUE(CanReadDocument(acl, Principal::User("Alice Manager"), doc));
  // Authors named on the document can always read it.
  EXPECT_TRUE(CanReadDocument(acl, Principal::User("Carol Author"), doc));
}

TEST(DocumentSecurityTest, AuthorFieldsGateAuthorEdits) {
  Acl acl = StandardAcl();
  Note doc = RestrictedDoc();
  // Carol is Author level and named in the authors item.
  EXPECT_TRUE(CanEditDocument(acl, Principal::User("Carol Author"), doc));
  // Dave is only a Reader.
  EXPECT_FALSE(CanEditDocument(acl, Principal::User("Dave Reader"), doc));
  // Bob is Editor but cannot read (reader fields) → cannot edit either.
  EXPECT_FALSE(CanEditDocument(acl, Principal::User("Bob Editor"), doc));

  Note open = OpenDoc();
  // Editor edits anything readable.
  EXPECT_TRUE(CanEditDocument(acl, Principal::User("Bob Editor"), open));
  // Author without an authors item naming them: no.
  EXPECT_FALSE(CanEditDocument(acl, Principal::User("Carol Author"), open));
}

TEST(DocumentSecurityTest, GroupsInReaderFields) {
  Acl acl = StandardAcl();
  Note doc = testing_util::MakeDoc("Memo", "for the team");
  doc.SetItem("DocReaders", Value::TextList({"Sales Team"}),
              kItemReaders | kItemNames);
  Principal grace{"Grace", {"Sales Team"}};
  EXPECT_TRUE(CanReadDocument(acl, grace, doc));
  EXPECT_FALSE(CanReadDocument(acl, Principal::User("Dave Reader"), doc));
}

TEST(DocumentSecurityTest, NameListMatching) {
  std::vector<std::string> names = {"Alice", "Team X", "[Ops]"};
  EXPECT_TRUE(NameListMatches(names, Principal::User("alice"), {}));
  EXPECT_TRUE(NameListMatches(names, Principal{"Zed", {"team x"}}, {}));
  EXPECT_TRUE(NameListMatches(names, Principal::User("Zed"), {"[ops]"}));
  EXPECT_FALSE(NameListMatches(names, Principal::User("Zed"), {"[dev]"}));
}

TEST(DocumentSecurityTest, AccessContextMatchesAclOverloads) {
  // The memoized overloads power secured traversals/searches; they must
  // agree with the per-call Acl overloads for every reader-field shape.
  Acl acl;
  acl.set_default_level(AccessLevel::kNoAccess);
  acl.SetEntry("Alice", AccessLevel::kEditor, {"[Ops]"});
  acl.SetEntry("Bob", AccessLevel::kReader);
  acl.SetEntry("Sales Team", AccessLevel::kAuthor);

  Note open = testing_util::MakeDoc("Memo", "open");
  Note restricted = testing_util::MakeDoc("Memo", "restricted");
  restricted.SetItem("DocReaders", Value::TextList({"Bob", "[Ops]"}),
                     kItemReaders | kItemNames);
  Note authored = testing_util::MakeDoc("Memo", "authored");
  authored.SetItem("DocAuthors", Value::TextList({"Sales Team"}),
                   kItemAuthors | kItemNames);

  const Principal principals[] = {
      Principal::User("Alice"), Principal::User("Bob"),
      Principal{"Carol", {"Sales Team"}}, Principal::User("Mallory")};
  for (const Principal& who : principals) {
    const AccessContext access = ResolveAccess(acl, who);
    EXPECT_EQ(access.level, acl.LevelFor(who)) << who.name;
    for (const Note* note : {&open, &restricted, &authored}) {
      EXPECT_EQ(CanReadDocument(access, who, *note),
                CanReadDocument(acl, who, *note))
          << who.name << "/" << note->GetText("Subject");
      EXPECT_EQ(CanEditDocument(access, who, *note),
                CanEditDocument(acl, who, *note))
          << who.name << "/" << note->GetText("Subject");
    }
  }
}

TEST(DocumentSecurityTest, ReaderNamesOfCollectsReadersThenAuthors) {
  Note open = testing_util::MakeDoc("Memo", "open");
  open.SetItem("DocAuthors", Value::TextList({"Carol"}),
               kItemAuthors | kItemNames);
  // Author names alone do not restrict reading.
  EXPECT_TRUE(ReaderNamesOf(open).empty());
  Note doc = open;
  doc.SetItem("DocReaders", Value::TextList({"bob", "", "[Ops]"}),
              kItemReaders | kItemNames);
  doc.SetItem("MoreReaders", Value::TextList({"bob"}),
              kItemReaders | kItemNames);
  EXPECT_EQ(ReaderNamesOf(doc),
            (std::vector<std::string>{"Carol", "[Ops]", "bob"}));
  Note blank = open;
  blank.SetItem("DocReaders", Value::TextList({""}),
                kItemReaders | kItemNames);
  EXPECT_TRUE(ReaderNamesOf(blank).empty());  // empty names name no one
}

TEST(DocumentSecurityTest, InPlaceCheckMatchesCollectedNames) {
  // CanReadDocument scans a note's items in place; view traversals apply
  // CanReadWithNames to ReaderNamesOf collected at index time. Both must
  // give the same verdict for every reader/author shape.
  const char* const pool[] = {"Alice", "alice", "BOB",   "Sales Team",
                              "[ops]", "[Ops]", "[X]",   "Nobody", ""};
  const Principal principals[] = {
      Principal{"Alice", {"sales team"}}, Principal::User("bob"),
      Principal::User("Carol")};
  Rng rng(2024);
  for (int round = 0; round < 2000; ++round) {
    Note note = testing_util::MakeDoc("Memo", "x");
    for (const char* item : {"R1", "R2", "A1"}) {
      if (rng.Bernoulli(0.5)) continue;
      std::vector<std::string> names;
      for (size_t n = 1 + rng.Uniform(3); n > 0; --n) {
        names.push_back(pool[rng.Uniform(std::size(pool))]);
      }
      note.SetItem(item, Value::TextList(std::move(names)),
                   (item[0] == 'R' ? kItemReaders : kItemAuthors) |
                       kItemNames);
    }
    const std::vector<std::string> names = ReaderNamesOf(note);
    for (const Principal& who : principals) {
      AccessContext access;
      access.level = static_cast<AccessLevel>(rng.Uniform(7));
      if (rng.Bernoulli(0.5)) access.roles.push_back("[OPS]");
      EXPECT_EQ(CanReadDocument(access, who, note),
                CanReadWithNames(access, who, names))
          << "round " << round << " " << who.name;
    }
  }
}

TEST(AclTest, FromNoteRejectsGarbage) {
  Note not_acl = testing_util::MakeDoc("Memo", "x");
  EXPECT_FALSE(Acl::FromNote(not_acl).ok());
  Note bad = Acl().ToNote();
  bad.SetNumber("$DefaultLevel", 99);
  EXPECT_FALSE(Acl::FromNote(bad).ok());
}

}  // namespace
}  // namespace dominodb
