#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "fulltext/fulltext_index.h"
#include "fulltext/tokenizer.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

TEST(TokenizerTest, SplitsAndFolds) {
  auto tokens = TokenizeText("Hello, World! C++20 rocks");
  EXPECT_EQ(tokens,
            (std::vector<std::string>{"hello", "world", "20", "rocks"}));
  EXPECT_TRUE(TokenizeText("a . ! ?").empty());  // short tokens dropped
  EXPECT_EQ(TokenizeText("x1y2"), (std::vector<std::string>{"x1y2"}));
}

Note Doc(NoteId id, const std::string& subject, const std::string& body,
         const std::string& category = "") {
  Note note(NoteClass::kDocument);
  note.set_id(id);
  note.StampCreated(Unid{0xF7, id}, 1000 + id);
  note.SetText("Subject", subject);
  note.SetItem("Body", Value::RichText({RichTextRun{body, 0, ""}}));
  if (!category.empty()) note.SetText("Category", category);
  return note;
}

class FullTextFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    index_.IndexNote(Doc(1, "Quarterly sales report",
                         "Revenue grew in the east region", "finance"));
    index_.IndexNote(Doc(2, "Meeting notes",
                         "Discussed the sales pipeline and hiring",
                         "minutes"));
    index_.IndexNote(Doc(3, "Vacation policy",
                         "Employees accrue vacation days monthly", "hr"));
    index_.IndexNote(Doc(4, "Sales kickoff",
                         "Sales sales sales: east and west targets",
                         "finance"));
  }

  std::vector<NoteId> Ids(const std::string& query) {
    auto hits = index_.Search(query);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    std::vector<NoteId> ids;
    if (hits.ok()) {
      for (const FtHit& h : *hits) ids.push_back(h.note_id);
    }
    return ids;
  }

  FullTextIndex index_;
};

TEST_F(FullTextFixture, SingleTerm) {
  auto ids = Ids("sales");
  ASSERT_EQ(ids.size(), 3u);
  // Doc 4 mentions "sales" most → highest score first.
  EXPECT_EQ(ids[0], 4u);
}

TEST_F(FullTextFixture, CaseInsensitive) {
  EXPECT_EQ(Ids("SALES").size(), 3u);
  EXPECT_EQ(Ids("Vacation").size(), 1u);
}

TEST_F(FullTextFixture, BooleanOperators) {
  EXPECT_EQ(Ids("sales AND east"), (std::vector<NoteId>{4, 1}));
  EXPECT_EQ(Ids("sales east").size(), 2u);  // implicit AND
  EXPECT_EQ(Ids("vacation OR hiring").size(), 2u);
  auto not_sales = Ids("NOT sales");
  EXPECT_EQ(not_sales, (std::vector<NoteId>{3}));
  EXPECT_EQ(Ids("sales AND NOT east"), (std::vector<NoteId>{2}));
  EXPECT_EQ(Ids("(vacation OR hiring) AND monthly"),
            (std::vector<NoteId>{3}));
}

TEST_F(FullTextFixture, PhraseSearch) {
  EXPECT_EQ(Ids("\"sales pipeline\""), (std::vector<NoteId>{2}));
  EXPECT_TRUE(Ids("\"pipeline sales\"").empty());
  EXPECT_EQ(Ids("\"east region\""), (std::vector<NoteId>{1}));
}

TEST_F(FullTextFixture, FieldContains) {
  EXPECT_EQ(Ids("FIELD Category CONTAINS finance").size(), 2u);
  EXPECT_EQ(Ids("FIELD Subject CONTAINS vacation"),
            (std::vector<NoteId>{3}));
  // "east" appears in bodies, not subjects of doc 1.
  EXPECT_TRUE(Ids("FIELD Subject CONTAINS east").empty());
}

TEST_F(FullTextFixture, IncrementalUpdateAndRemoval) {
  EXPECT_EQ(index_.doc_count(), 4u);
  // Update doc 3 to mention sales.
  index_.IndexNote(Doc(3, "Vacation policy", "sales staff vacation"));
  EXPECT_EQ(Ids("sales").size(), 4u);
  // Remove doc 4.
  index_.RemoveNote(4);
  EXPECT_EQ(index_.doc_count(), 3u);
  EXPECT_EQ(Ids("sales").size(), 3u);
  // Deletion stubs un-index automatically.
  Note stub = Doc(1, "", "");
  stub.MakeStub(99999);
  index_.IndexNote(stub);
  EXPECT_EQ(index_.doc_count(), 2u);
}

TEST_F(FullTextFixture, QuerySyntaxErrors) {
  EXPECT_FALSE(index_.Search("").ok());
  EXPECT_FALSE(index_.Search("(sales").ok());
  EXPECT_FALSE(index_.Search("\"open phrase").ok());
  EXPECT_FALSE(index_.Search("FIELD Subject sales").ok());
  EXPECT_FALSE(index_.Search("sales AND").ok());
}

TEST_F(FullTextFixture, MissingTermReturnsEmpty) {
  EXPECT_TRUE(Ids("zebra").empty());
  EXPECT_TRUE(Ids("sales AND zebra").empty());
  EXPECT_EQ(Ids("sales OR zebra").size(), 3u);
}

TEST_F(FullTextFixture, AttachmentNamesSearchable) {
  Note doc = Doc(9, "With attachment", "see file");
  doc.SetItem("Body2",
              Value::RichText({RichTextRun{"", 0, "budget_plan.xls"}}));
  index_.IndexNote(doc);
  EXPECT_EQ(Ids("budget"), (std::vector<NoteId>{9}));
}

TEST(FullTextIndexTest, StatsAndClear) {
  stats::StatRegistry reg;
  FullTextIndex index(&reg);
  index.IndexNote(Doc(1, "alpha beta", "gamma"));
  EXPECT_EQ(reg.GetCounter("Database.FullText.Docs.Indexed").value(), 1u);
  EXPECT_GT(reg.GetCounter("Database.FullText.Tokens").value(), 0u);
  EXPECT_GT(index.term_count(), 0u);
  index.Clear();
  EXPECT_EQ(index.doc_count(), 0u);
  EXPECT_EQ(index.term_count(), 0u);
}

TEST(FullTextIndexTest, NonDocumentsNotIndexed) {
  FullTextIndex index;
  Note view_note(NoteClass::kView);
  view_note.set_id(5);
  view_note.StampCreated(Unid{1, 5}, 10);
  view_note.SetText("$Title", "searchable view title");
  index.IndexNote(view_note);
  EXPECT_EQ(index.doc_count(), 0u);
}

TEST(FullTextIndexTest, PhraseDoesNotSpanFields) {
  FullTextIndex index;
  Note doc(NoteClass::kDocument);
  doc.set_id(1);
  doc.StampCreated(Unid{1, 1}, 10);
  doc.SetText("A", "hello");
  doc.SetText("B", "world");
  index.IndexNote(doc);
  auto hits = index.Search("\"hello world\"");
  ASSERT_OK(hits);
  EXPECT_TRUE(hits->empty());
}

// -- Versioning: the ViewIndex rule ------------------------------------

std::vector<NoteId> IdsAt(const FullTextIndex& index, const std::string& query,
                          Epoch at) {
  auto hits = index.Search(query, at);
  EXPECT_TRUE(hits.ok()) << hits.status().ToString();
  std::vector<NoteId> ids;
  if (hits.ok()) {
    for (const FtHit& h : *hits) ids.push_back(h.note_id);
  }
  return ids;
}

using Ids = std::vector<NoteId>;

/// Posting key → note id of every version the index holds, zombies
/// included (free slots skipped).
std::map<FullTextIndex::DocKey, NoteId> Versions(const FullTextIndex& index) {
  std::map<FullTextIndex::DocKey, NoteId> out;
  const FullTextIndex::DocTable& docs = index.all_docs();
  for (FullTextIndex::DocKey key = 0; key < docs.size(); ++key) {
    if (docs[key].note_id != kInvalidNoteId) out[key] = docs[key].note_id;
  }
  return out;
}

TEST(FullTextVersioningTest, PinnedEpochStillFindsTheReplacedVersion) {
  FullTextIndex index;
  index.IndexNote(Doc(1, "alpha", "old text"), 1);
  index.IndexNote(Doc(2, "gamma", "other"), 1);
  index.IndexNote(Doc(1, "beta", "new text"), 2);
  EXPECT_EQ(IdsAt(index, "alpha", 1), Ids{1});
  EXPECT_EQ(IdsAt(index, "beta", 1), Ids{});
  EXPECT_EQ(IdsAt(index, "alpha", 2), Ids{});
  EXPECT_EQ(IdsAt(index, "beta", kEpochLatest), Ids{1});
  EXPECT_EQ(IdsAt(index, "FIELD Subject CONTAINS alpha", 1), Ids{1});
  // NOT complements within the versions visible at the epoch.
  EXPECT_EQ(IdsAt(index, "NOT alpha", 1), Ids{2});
  EXPECT_EQ(IdsAt(index, "NOT alpha", 2), (Ids{1, 2}));
  EXPECT_EQ(index.doc_count(), 2u);
  EXPECT_EQ(index.zombie_count(), 1u);
  EXPECT_EQ(Versions(index).size(), 3u);
}

TEST(FullTextVersioningTest, SameEpochAndUnversionedReindexLeaveNoZombie) {
  FullTextIndex index;
  index.IndexNote(Doc(1, "alpha", ""), 3);
  index.IndexNote(Doc(1, "beta", ""), 3);  // same commit: erased, not kept
  EXPECT_EQ(index.zombie_count(), 0u);
  EXPECT_EQ(IdsAt(index, "alpha", 3), Ids{});
  EXPECT_EQ(IdsAt(index, "beta", 3), Ids{1});

  index.IndexNote(Doc(2, "alpha", ""));
  const FullTextIndex::DocKey key = Versions(index).rbegin()->first;
  index.IndexNote(Doc(2, "gamma", ""));  // kEpochNone: dropped at once
  EXPECT_EQ(index.zombie_count(), 0u);
  EXPECT_EQ(Versions(index).size(), 2u);
  EXPECT_EQ(Versions(index).at(key), 2u);  // the key was recycled
  EXPECT_EQ(IdsAt(index, "alpha", kEpochLatest), Ids{});
  EXPECT_EQ(index.FindTerm("alpha"), nullptr);
}

TEST(FullTextVersioningTest, RemoveKeepsTheOldVersionForEarlierPins) {
  FullTextIndex index;
  index.IndexNote(Doc(1, "alpha", ""), 1);
  index.RemoveNote(1, 4);
  EXPECT_EQ(IdsAt(index, "alpha", 3), Ids{1});
  EXPECT_EQ(IdsAt(index, "alpha", 4), Ids{});
  EXPECT_EQ(IdsAt(index, "alpha", kEpochLatest), Ids{});
  EXPECT_EQ(index.doc_count(), 0u);
  EXPECT_EQ(index.zombie_count(), 1u);
}

TEST(FullTextVersioningTest, ReclaimDropsExactlyVersionsRemovedAtOrBelowFloor) {
  FullTextIndex index;
  for (NoteId id = 1; id <= 3; ++id) index.IndexNote(Doc(id, "alpha", ""), 1);
  index.RemoveNote(1, 2);
  index.IndexNote(Doc(2, "beta", ""), 3);
  index.RemoveNote(3, 5);
  EXPECT_EQ(index.zombie_count(), 3u);

  index.ReclaimVersions(3);  // drops the versions removed at 2 and 3
  EXPECT_EQ(index.zombie_count(), 1u);
  EXPECT_EQ(Versions(index).size(), 2u);
  EXPECT_EQ(IdsAt(index, "alpha", 4), Ids{3});
  EXPECT_EQ(IdsAt(index, "beta", 4), Ids{2});

  index.ReclaimVersions(5);
  EXPECT_EQ(index.zombie_count(), 0u);
  EXPECT_EQ(Versions(index).size(), 1u);
  EXPECT_EQ(index.FindTerm("alpha"), nullptr);
  EXPECT_EQ(IdsAt(index, "beta", kEpochLatest), Ids{2});
}

TEST(FullTextVersioningTest, ReindexAtOrBelowTheReclaimFloorKeepsItsKey) {
  FullTextIndex index;
  index.IndexNote(Doc(1, "alpha", ""), 1);
  const FullTextIndex::DocKey key = Versions(index).begin()->first;
  index.ReclaimVersions(2);  // no reader is, or will be, pinned below 2
  index.IndexNote(Doc(1, "beta", ""), 2);
  EXPECT_EQ(index.zombie_count(), 0u);
  ASSERT_EQ(Versions(index).size(), 1u);
  EXPECT_EQ(Versions(index).begin()->first, key);
  index.IndexNote(Doc(1, "gamma", ""), 3);  // above the floor: kept
  EXPECT_EQ(index.zombie_count(), 1u);
  EXPECT_EQ(IdsAt(index, "beta", 2), Ids{1});
}

// Two same-named items give a document one field posting pair each. When
// a dropped version's key is reused, the new version's pairs land below
// the field postings' tail: FIELD ... CONTAINS still finds exactly the
// notes whose Tags items carry the term, before and after removals.
TEST(FullTextIndexTest, FieldContainsOverSameNamedItemsAfterKeyRecycling) {
  auto tagged = [](NoteId id, const std::string& first,
                   const std::string& second) {
    Note note(NoteClass::kDocument);
    note.set_id(id);
    note.SetText("Subject", "subject " + std::to_string(id));
    note.mutable_items().push_back(Item{"Tags", Value::Text(first)});
    note.mutable_items().push_back(Item{"Tags", Value::Text(second)});
    return note;
  };
  auto ids = [](const FullTextIndex& index, const std::string& term) {
    Ids out = IdsAt(index, "FIELD Tags CONTAINS " + term, kEpochLatest);
    std::sort(out.begin(), out.end());
    return out;
  };
  FullTextIndex index;
  index.IndexNote(tagged(1, "red", "blue"));
  index.IndexNote(tagged(2, "green", "red"));
  index.IndexNote(tagged(3, "blue", "blue"));
  const FullTextIndex::DocKey recycled = Versions(index).begin()->first;
  index.RemoveNote(1);
  index.IndexNote(tagged(4, "blue red", "red"));
  ASSERT_EQ(Versions(index).at(recycled), 4u);  // below keys of 2 and 3

  EXPECT_EQ(ids(index, "red"), (Ids{2, 4}));
  EXPECT_EQ(ids(index, "blue"), (Ids{3, 4}));
  EXPECT_EQ(ids(index, "green"), Ids{2});
  EXPECT_EQ(IdsAt(index, "FIELD Subject CONTAINS red", kEpochLatest), Ids{});
  // Both items' occurrences of "red" in note 4, in position order.
  FullTextIndex::PostingMap red = index.MaterializeFieldTerm("Tags", "red");
  ASSERT_EQ(red.count(recycled), 1u);
  ASSERT_EQ(red.at(recycled).positions.size(), 2u);
  EXPECT_LT(red.at(recycled).positions[0], red.at(recycled).positions[1]);

  index.RemoveNote(4);
  EXPECT_EQ(ids(index, "red"), Ids{2});
  EXPECT_EQ(ids(index, "blue"), Ids{3});
  index.RemoveNote(2);
  index.RemoveNote(3);
  EXPECT_TRUE(index.MaterializeFieldTerm("Tags", "red").empty());
  EXPECT_TRUE(index.MaterializeFieldTerm("Tags", "blue").empty());
  EXPECT_EQ(index.term_count(), 0u);
}

}  // namespace
}  // namespace dominodb
