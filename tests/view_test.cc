#include <gtest/gtest.h>

#include "base/rng.h"
#include "tests/test_util.h"
#include "view/view_design.h"
#include "view/view_index.h"

namespace dominodb {
namespace {

/// A simple in-memory resolver over a bag of notes (the Database performs
/// this role in production).
class MapResolver : public NoteResolver {
 public:
  Note* Add(Note note) {
    NoteId id = note.id();
    notes_[id] = std::move(note);
    return &notes_[id];
  }
  void Remove(NoteId id) { notes_.erase(id); }

  NoteHandle FindByUnid(const Unid& unid) const override {
    for (const auto& [id, note] : notes_) {
      if (note.unid() == unid && !note.deleted()) {
        return std::make_shared<const Note>(note);
      }
    }
    return nullptr;
  }
  NoteHandle FindById(NoteId id) const override {
    auto it = notes_.find(id);
    if (it == notes_.end() || it->second.deleted()) return nullptr;
    return std::make_shared<const Note>(it->second);
  }
  std::vector<NoteId> ChildrenOf(const Unid& parent) const override {
    std::vector<NoteId> out;
    for (const auto& [id, note] : notes_) {
      if (note.parent_unid() == parent && !note.deleted()) out.push_back(id);
    }
    return out;
  }

  void ForEach(const std::function<void(const Note&)>& fn) const {
    for (const auto& [id, note] : notes_) fn(note);
  }

 private:
  std::map<NoteId, Note> notes_;
};

Note Doc(NoteId id, const std::string& form, const std::string& subject,
         double amount, Micros t) {
  Note note = testing_util::MakeDoc(form, subject, amount);
  note.set_id(id);
  note.StampCreated(Unid{0xF00D, id}, t);
  return note;
}

ViewDesign SimpleView(const std::string& selection,
                      ColumnSort sort = ColumnSort::kAscending) {
  std::vector<ViewColumn> columns;
  ViewColumn by_subject;
  by_subject.title = "Subject";
  by_subject.formula_source = "Subject";
  by_subject.sort = sort;
  columns.push_back(std::move(by_subject));
  ViewColumn amount;
  amount.title = "Amount";
  amount.formula_source = "Amount";
  columns.push_back(std::move(amount));
  auto design = ViewDesign::Create("test", selection, std::move(columns));
  EXPECT_TRUE(design.ok()) << design.status().ToString();
  return *design;
}

TEST(ViewIndexTest, SelectionFiltersAndSorts) {
  MapResolver resolver;
  SimClock clock;
  ViewIndex view(SimpleView("SELECT Form = \"Invoice\""), &clock);
  resolver.Add(Doc(1, "Invoice", "charlie", 10, 100));
  resolver.Add(Doc(2, "Memo", "alpha", 0, 101));
  resolver.Add(Doc(3, "Invoice", "Bravo", 20, 102));
  resolver.Add(Doc(4, "Invoice", "alpha", 30, 103));
  resolver.ForEach(
      [&](const Note& n) { ASSERT_OK(view.Update(n, &resolver)); });

  auto entries = view.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0]->ColumnText(0), "alpha");
  EXPECT_EQ(entries[1]->ColumnText(0), "Bravo");  // case-insensitive order
  EXPECT_EQ(entries[2]->ColumnText(0), "charlie");
}

TEST(ViewIndexTest, DescendingSort) {
  MapResolver resolver;
  SimClock clock;
  ViewIndex view(SimpleView("SELECT @All", ColumnSort::kDescending), &clock);
  for (int i = 0; i < 5; ++i) {
    Note* n = resolver.Add(Doc(i + 1, "Invoice",
                               std::string(1, static_cast<char>('a' + i)),
                               i, 100 + i));
    ASSERT_OK(view.Update(*n, &resolver));
  }
  auto entries = view.Entries();
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries.front()->ColumnText(0), "e");
  EXPECT_EQ(entries.back()->ColumnText(0), "a");
}

TEST(ViewIndexTest, IncrementalUpdateMovesAndRemoves) {
  MapResolver resolver;
  SimClock clock;
  ViewIndex view(SimpleView("SELECT Form = \"Invoice\""), &clock);
  Note* doc = resolver.Add(Doc(1, "Invoice", "mmm", 10, 100));
  ASSERT_OK(view.Update(*doc, &resolver));
  EXPECT_EQ(view.size(), 1u);

  // Update: new sort key → entry moves.
  doc->SetText("Subject", "aaa");
  doc->BumpSequence(200);
  ASSERT_OK(view.Update(*doc, &resolver));
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view.Entries()[0]->ColumnText(0), "aaa");

  // Update that falls out of the selection.
  doc->SetText("Form", "Memo");
  doc->BumpSequence(300);
  ASSERT_OK(view.Update(*doc, &resolver));
  EXPECT_EQ(view.size(), 0u);

  // Back in.
  doc->SetText("Form", "Invoice");
  doc->BumpSequence(400);
  ASSERT_OK(view.Update(*doc, &resolver));
  EXPECT_EQ(view.size(), 1u);

  // Deletion stub removes.
  doc->MakeStub(500);
  ASSERT_OK(view.Update(*doc, &resolver));
  EXPECT_EQ(view.size(), 0u);
}

TEST(ViewIndexTest, CategorizedTraversalWithCounts) {
  MapResolver resolver;
  SimClock clock;
  std::vector<ViewColumn> columns;
  ViewColumn cat;
  cat.title = "Form";
  cat.formula_source = "Form";
  cat.categorized = true;
  columns.push_back(std::move(cat));
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  auto design = ViewDesign::Create("cats", "SELECT @All", std::move(columns));
  ASSERT_OK(design);
  ViewIndex view(std::move(*design), &clock);

  const char* forms[] = {"Invoice", "Invoice", "Memo", "Invoice", "Memo"};
  for (int i = 0; i < 5; ++i) {
    Note* n = resolver.Add(Doc(i + 1, forms[i], "s" + std::to_string(i),
                               0, 100 + i));
    ASSERT_OK(view.Update(*n, &resolver));
  }

  std::vector<std::string> rows;
  view.Traverse([&](const ViewRow& row) {
    if (row.kind == ViewRow::Kind::kCategory) {
      rows.push_back("CAT:" + row.category + ":" +
                     std::to_string(row.descendant_count));
    } else {
      rows.push_back("DOC:" + row.entry->ColumnText(1));
    }
  });
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0], "CAT:Invoice:3");
  EXPECT_EQ(rows[1], "DOC:s0");
  EXPECT_EQ(rows[2], "DOC:s1");
  EXPECT_EQ(rows[3], "DOC:s3");
  EXPECT_EQ(rows[4], "CAT:Memo:2");
  EXPECT_EQ(rows[5], "DOC:s2");
  EXPECT_EQ(rows[6], "DOC:s4");
}

TEST(ViewIndexTest, ResponseHierarchyNestsUnderParents) {
  MapResolver resolver;
  SimClock clock;
  std::vector<ViewColumn> columns;
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  auto design = ViewDesign::Create("threads", "SELECT @All",
                                   std::move(columns),
                                   /*show_response_hierarchy=*/true);
  ASSERT_OK(design);
  ViewIndex view(std::move(*design), &clock);

  Note* topic = resolver.Add(Doc(1, "Topic", "zz-topic", 0, 100));
  ASSERT_OK(view.Update(*topic, &resolver));

  Note reply1 = Doc(2, "Response", "first reply", 0, 200);
  reply1.set_parent_unid(topic->unid());
  Note* r1 = resolver.Add(std::move(reply1));
  ASSERT_OK(view.Update(*r1, &resolver));

  Note reply2 = Doc(3, "Response", "second reply", 0, 300);
  reply2.set_parent_unid(topic->unid());
  Note* r2 = resolver.Add(std::move(reply2));
  ASSERT_OK(view.Update(*r2, &resolver));

  Note nested = Doc(4, "Response", "nested", 0, 400);
  nested.set_parent_unid(r1->unid());
  Note* rn = resolver.Add(std::move(nested));
  ASSERT_OK(view.Update(*rn, &resolver));

  std::vector<std::pair<int, std::string>> rows;
  view.Traverse([&](const ViewRow& row) {
    if (row.kind == ViewRow::Kind::kDocument) {
      rows.push_back({row.indent, row.entry->ColumnText(0)});
    }
  });
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], (std::pair<int, std::string>{0, "zz-topic"}));
  EXPECT_EQ(rows[1], (std::pair<int, std::string>{1, "first reply"}));
  EXPECT_EQ(rows[2], (std::pair<int, std::string>{2, "nested"}));
  EXPECT_EQ(rows[3], (std::pair<int, std::string>{1, "second reply"}));
}

TEST(ViewIndexTest, AllDescendantsSelectsResponseChains) {
  MapResolver resolver;
  SimClock clock;
  std::vector<ViewColumn> columns;
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  auto design = ViewDesign::Create(
      "sel", "SELECT Form = \"Topic\" | @AllDescendants", std::move(columns));
  ASSERT_OK(design);
  ViewIndex view(std::move(*design), &clock);

  Note* topic = resolver.Add(Doc(1, "Topic", "t", 0, 100));
  Note reply = Doc(2, "Response", "r", 0, 200);
  reply.set_parent_unid(topic->unid());
  Note* r = resolver.Add(std::move(reply));
  Note nested = Doc(3, "Response", "rr", 0, 300);
  nested.set_parent_unid(r->unid());
  Note* rn = resolver.Add(std::move(nested));
  Note* stray = resolver.Add(Doc(4, "Other", "stray", 0, 400));

  ASSERT_OK(view.Update(*topic, &resolver));
  ASSERT_OK(view.Update(*r, &resolver));
  ASSERT_OK(view.Update(*rn, &resolver));
  ASSERT_OK(view.Update(*stray, &resolver));
  EXPECT_EQ(view.size(), 3u);  // topic + both responses, not the stray

  // When the topic stops matching, its descendants drop out too (the
  // update walk re-evaluates known children).
  topic->SetText("Form", "Archived");
  topic->BumpSequence(500);
  ASSERT_OK(view.Update(*topic, &resolver));
  EXPECT_EQ(view.size(), 0u);
}

TEST(ViewIndexTest, FindByKey) {
  MapResolver resolver;
  SimClock clock;
  ViewIndex view(SimpleView("SELECT @All"), &clock);
  for (int i = 0; i < 6; ++i) {
    Note* n = resolver.Add(Doc(i + 1, "Invoice", i % 2 == 0 ? "even" : "odd",
                               i, 100 + i));
    ASSERT_OK(view.Update(*n, &resolver));
  }
  auto evens = view.FindByKey(Value::Text("EVEN"));
  EXPECT_EQ(evens.size(), 3u);
  auto none = view.FindByKey(Value::Text("evenx"));
  EXPECT_TRUE(none.empty());
}

TEST(ViewIndexTest, RebuildMatchesIncrementalSweep) {
  Rng rng(123);
  MapResolver resolver;
  SimClock clock;
  ViewIndex incremental(SimpleView("SELECT Amount > 50"), &clock);

  std::map<NoteId, Note> docs;
  Micros t = 100;
  for (int op = 0; op < 400; ++op) {
    double dice = rng.NextDouble();
    if (dice < 0.5 || docs.empty()) {
      NoteId id = static_cast<NoteId>(docs.size() + 1 + op);
      Note doc = Doc(id, "Invoice", rng.Word(2, 8),
                     static_cast<double>(rng.Uniform(100)), t++);
      docs[id] = doc;
      resolver.Add(doc);
      ASSERT_OK(incremental.Update(doc, &resolver));
    } else if (dice < 0.8) {
      auto it = docs.begin();
      std::advance(it, rng.Uniform(docs.size()));
      it->second.SetNumber("Amount", static_cast<double>(rng.Uniform(100)));
      it->second.SetText("Subject", rng.Word(2, 8));
      it->second.BumpSequence(t++);
      resolver.Add(it->second);
      ASSERT_OK(incremental.Update(it->second, &resolver));
    } else {
      auto it = docs.begin();
      std::advance(it, rng.Uniform(docs.size()));
      it->second.MakeStub(t++);
      resolver.Add(it->second);
      ASSERT_OK(incremental.Update(it->second, &resolver));
      docs.erase(it);
    }
  }

  ViewIndex rebuilt(SimpleView("SELECT Amount > 50"), &clock);
  ASSERT_OK(rebuilt.Rebuild(
      [&](const std::function<void(const Note&)>& fn) { resolver.ForEach(fn); },
      &resolver));

  auto a = incremental.Entries();
  auto b = rebuilt.Entries();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->note_id, b[i]->note_id) << "row " << i;
    EXPECT_EQ(a[i]->ColumnText(0), b[i]->ColumnText(0));
  }
}

// Two updates of one note in one epoch that leave its sort columns alone
// land on the same row key. The first update's row must not become a
// zombie that reclamation later erases together with the live row.
TEST(ViewIndexTest, SameEpochUpdatesKeepLiveRow) {
  MapResolver resolver;
  SimClock clock;
  ViewIndex view(SimpleView("SELECT @All"), &clock);
  Note* doc = resolver.Add(Doc(1, "Invoice", "same", 10, 100));
  ASSERT_OK(view.Update(*doc, &resolver, 1));
  doc->SetNumber("Amount", 20);
  doc->BumpSequence(200);
  ASSERT_OK(view.Update(*doc, &resolver, 2));
  doc->SetNumber("Amount", 30);
  doc->BumpSequence(201);
  ASSERT_OK(view.Update(*doc, &resolver, 2));

  auto pinned = view.EntriesAt(1);  // a reader pinned before epoch 2
  ASSERT_EQ(pinned.size(), 1u);
  EXPECT_EQ(pinned[0]->column_values[1].AsNumber(), 10);

  view.ReclaimVersions(2);
  EXPECT_EQ(view.zombie_count(), 0u);
  auto entries = view.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->column_values[1].AsNumber(), 30);
}

TEST(ViewIndexTest, StatsCountEvals) {
  MapResolver resolver;
  SimClock clock;
  ViewIndex view(SimpleView("SELECT @All"), &clock);
  Note* doc = resolver.Add(Doc(1, "Invoice", "x", 1, 100));
  ASSERT_OK(view.Update(*doc, &resolver));
  EXPECT_EQ(view.stats().selection_evals, 1u);
  EXPECT_EQ(view.stats().column_evals, 2u);
  EXPECT_EQ(view.stats().inserts, 1u);
}

TEST(ViewIndexTest, RegistryCountersMirrorViewStats) {
  MapResolver resolver;
  SimClock clock;
  stats::StatRegistry reg;
  ViewIndex view(SimpleView("SELECT @All"), &clock, &reg);
  Note* doc = resolver.Add(Doc(1, "Invoice", "x", 1, 100));
  ASSERT_OK(view.Update(*doc, &resolver));
  ASSERT_OK(view.Rebuild(
      [&](const std::function<void(const Note&)>& fn) { resolver.ForEach(fn); },
      &resolver));
  auto counter = [&reg](const std::string& name) {
    const stats::Counter* c = reg.FindCounter(name);
    return c != nullptr ? c->value() : 0u;
  };
  EXPECT_EQ(counter("Database.View.SelectionEvals"),
            view.stats().selection_evals);
  EXPECT_EQ(counter("Database.View.ColumnEvals"), view.stats().column_evals);
  EXPECT_EQ(counter("Database.View.Inserts"), view.stats().inserts);
  EXPECT_EQ(counter("Database.View.Rebuilds"), 1u);
  const stats::Histogram* rebuild_micros =
      reg.FindHistogram("Database.View.RebuildMicros");
  ASSERT_NE(rebuild_micros, nullptr);
  EXPECT_EQ(rebuild_micros->count(), 1u);
}

TEST(ViewDesignTest, NoteRoundtrip) {
  std::vector<ViewColumn> columns;
  ViewColumn cat;
  cat.title = "Region";
  cat.formula_source = "Region";
  cat.categorized = true;
  columns.push_back(std::move(cat));
  ViewColumn amount;
  amount.title = "Amount";
  amount.formula_source = "Amount";
  amount.sort = ColumnSort::kDescending;
  columns.push_back(std::move(amount));
  auto design = ViewDesign::Create("By Region", "SELECT Form = \"Sale\"",
                                   std::move(columns), true);
  ASSERT_OK(design);

  Note note = design->ToNote();
  EXPECT_EQ(note.note_class(), NoteClass::kView);
  auto loaded = ViewDesign::FromNote(note);
  ASSERT_OK(loaded);
  EXPECT_EQ(loaded->name(), "By Region");
  EXPECT_TRUE(loaded->show_response_hierarchy());
  ASSERT_EQ(loaded->columns().size(), 2u);
  EXPECT_TRUE(loaded->columns()[0].categorized);
  EXPECT_EQ(loaded->columns()[1].sort, ColumnSort::kDescending);
  EXPECT_TRUE(loaded->categorized());
}

TEST(ViewDesignTest, BadFormulaRejected) {
  EXPECT_FALSE(ViewDesign::Create("bad", "SELECT (", {}).ok());
  std::vector<ViewColumn> columns;
  ViewColumn broken;
  broken.title = "X";
  broken.formula_source = "1 +";
  columns.push_back(std::move(broken));
  EXPECT_FALSE(
      ViewDesign::Create("bad2", "SELECT @All", std::move(columns)).ok());
}

}  // namespace
}  // namespace dominodb
