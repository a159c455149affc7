// ACL-checked view traversal against the view entry's reader set.
//
// Database::TraverseViewAs checks each row against the reader names the
// view stored when it evaluated the note, and never opens the note. The
// differential tests here rebuild the filter it replaced from public
// calls only — ReadTxn + ViewIndex::TraverseAt + ReadNote (which joins the
// pin) + CanReadDocument, with the same category pruning — and compare
// the two row for row over seeded random reader/author fields, ACL edits,
// updates under older pins, deletes and PurgeStubs. The oracle also
// asserts that every entry visible at a pin is a live note at that pin.
//
// DOMINO_VIEW_ACL_ROUNDS overrides the number of seeded rounds (default
// 1 000 per mode).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "core/database.h"
#include "indexer/thread_pool.h"
#include "security/acl.h"
#include "tests/random_acl.h"
#include "tests/test_util.h"
#include "view/view_design.h"

namespace dominodb {
namespace {

using testing_util::kPrincipalCount;
using testing_util::PrincipalAt;
using testing_util::RandomAcl;
using testing_util::RandomizeSecurity;
using testing_util::ScratchDir;

constexpr const char* kByCategory = "ByCategory";
constexpr const char* kThreads = "Threads";

size_t Rounds() {
  const char* env = std::getenv("DOMINO_VIEW_ACL_ROUNDS");
  return env != nullptr ? static_cast<size_t>(std::atoll(env)) : 1000;
}

std::string RowSignature(const ViewRow& row) {
  if (row.kind == ViewRow::Kind::kCategory) {
    return "C" + std::to_string(row.indent) + "|" + row.category + "|" +
           std::to_string(row.descendant_count);
  }
  return "D" + std::to_string(row.indent) + "|" +
         std::to_string(row.entry->note_id) + "|" + row.entry->ColumnText(1);
}

/// Drops category rows left without a document before the next category
/// at the same or an outer level — the pruning TraverseViewAs applies.
std::vector<std::string> PruneAndSign(const std::vector<ViewRow>& rows) {
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
    out.push_back(RowSignature(rows[i]));
  }
  return out;
}

/// The filter TraverseViewAs used before view entries carried reader
/// sets: resolve every document row at the pin and check the note.
Result<std::vector<std::string>> OracleRows(const Database& db,
                                            const Principal& who,
                                            const std::string& view_name) {
  Database::ReadTxn txn(&db);
  const AccessContext access = ResolveAccess(db.acl(), who);
  if (access.level < AccessLevel::kReader) {
    return Status::PermissionDenied(who.name);
  }
  const ViewIndex* view = db.FindView(view_name);
  if (view == nullptr) return Status::NotFound(view_name);
  std::vector<ViewRow> rows;
  view->TraverseAt(txn.epoch(), [&](const ViewRow& row) {
    if (row.kind == ViewRow::Kind::kDocument) {
      Result<Note> note = db.ReadNote(row.entry->note_id);
      // A visible entry is a live note at the pin.
      EXPECT_TRUE(note.ok()) << "entry for note " << row.entry->note_id
                             << " has no live note at epoch " << txn.epoch();
      if (!note.ok() || !CanReadDocument(access, who, *note)) return;
    }
    rows.push_back(row);
  });
  return PruneAndSign(rows);
}

Result<std::vector<std::string>> SecuredRows(const Database& db,
                                             const Principal& who,
                                             const std::string& view_name) {
  std::vector<std::string> out;
  Status status = db.TraverseViewAs(who, view_name, [&](const ViewRow& row) {
    out.push_back(RowSignature(row));
  });
  if (!status.ok()) return status;
  return out;
}

/// Compares the two filters for every principal and view at the current
/// pin (the caller's, when it holds one).
void ExpectFiltersAgree(const Database& db, const std::string& where) {
  Database::ReadTxn txn(&db);
  for (size_t p = 0; p < kPrincipalCount; ++p) {
    const Principal& who = PrincipalAt(p);
    for (const char* view : {kByCategory, kThreads}) {
      auto expected = OracleRows(db, who, view);
      auto actual = SecuredRows(db, who, view);
      ASSERT_EQ(expected.ok(), actual.ok())
          << where << " " << who.name << "/" << view << ": "
          << expected.status().ToString() << " vs "
          << actual.status().ToString();
      if (!expected.ok()) {
        EXPECT_EQ(actual.status().code(), StatusCode::kPermissionDenied);
        continue;
      }
      ASSERT_EQ(*expected, *actual) << where << " " << who.name << "/"
                                    << view << " at epoch " << txn.epoch();
    }
  }
}

ViewColumn Column(const char* formula, ColumnSort sort,
                  bool categorized = false) {
  ViewColumn col;
  col.title = formula;
  col.formula_source = formula;
  col.sort = sort;
  col.categorized = categorized;
  return col;
}

/// A categorized flat view and a response-hierarchy view over every
/// document; RowSignature shows column 1 of both.
Status CreateViews(Database* db) {
  DOMINO_ASSIGN_OR_RETURN(
      ViewDesign by_category,
      ViewDesign::Create(kByCategory, "SELECT @All",
                         {Column("Category", ColumnSort::kAscending, true),
                          Column("Subject", ColumnSort::kAscending)}));
  DOMINO_RETURN_IF_ERROR(db->CreateView(std::move(by_category)).status());
  DOMINO_ASSIGN_OR_RETURN(
      ViewDesign threads,
      ViewDesign::Create(kThreads, "SELECT @All",
                         {Column("Form", ColumnSort::kNone),
                          Column("Subject", ColumnSort::kAscending)},
                         /*show_response_hierarchy=*/true));
  return db->CreateView(std::move(threads)).status();
}

class ViewAclFixture : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    clock_.Set(1'000'000'000);
    DatabaseOptions options;
    options.purge_interval = 1000;  // so PurgeStubs can fire in-test
    options.stats = &stats_;
    auto db = Database::Open(dir_.Sub("db"), options, &clock_);
    ASSERT_OK(db);
    db_ = std::move(*db);
    if (GetParam()) db_->AttachIndexer(&pool_);

    ASSERT_OK(CreateViews(db_.get()));
  }

  Note NewDoc(Rng* rng) {
    Note doc(NoteClass::kDocument);
    doc.SetText("Form", "Topic");
    doc.SetText("Category", std::string(1, 'A' + rng->Uniform(3)));
    doc.SetText("Subject", "s" + std::to_string(next_subject_++));
    RandomizeSecurity(rng, &doc);
    return doc;
  }

  std::vector<NoteId> LiveDocuments() {
    std::vector<NoteId> ids;
    db_->ForEachLiveNote([&](const Note& note) {
      if (note.note_class() == NoteClass::kDocument) ids.push_back(note.id());
    });
    return ids;
  }

  /// One random mutation, made on a thread of its own so that it reads
  /// and writes the latest state even while the test thread holds a pin.
  /// Returns a label for failure messages.
  std::string MutateUnpinned(Rng* rng) {
    std::string what;
    std::thread([&] { what = Mutate(rng); }).join();
    return what;
  }

  std::string Mutate(Rng* rng) {
    clock_.Advance(10'000);  // keeps note stamps in step with the clock
    std::vector<NoteId> live = LiveDocuments();
    const uint64_t dice = rng->Uniform(100);
    if (live.empty() || dice < 25) {
      Note doc = NewDoc(rng);
      if (!live.empty() && rng->Bernoulli(0.3)) {
        auto parent = db_->ReadNote(live[rng->Uniform(live.size())]);
        EXPECT_OK(parent);
        if (parent.ok()) {
          doc.SetText("Form", "Reply");
          EXPECT_OK(db_->CreateResponse(parent->unid(), std::move(doc)));
          return "reply";
        }
      }
      EXPECT_OK(db_->CreateNote(std::move(doc)));
      return "create";
    }
    const NoteId id = live[rng->Uniform(live.size())];
    if (dice < 65) {
      auto note = db_->ReadNote(id);
      EXPECT_OK(note);
      if (!note.ok()) return "update (unreadable)";
      RandomizeSecurity(rng, &*note);
      if (rng->Bernoulli(0.3)) {
        note->SetText("Category", std::string(1, 'A' + rng->Uniform(3)));
      }
      EXPECT_OK(db_->UpdateNote(std::move(*note)));
      return "update " + std::to_string(id);
    }
    if (dice < 80) {
      EXPECT_OK(db_->DeleteNote(id));
      return "delete " + std::to_string(id);
    }
    if (dice < 90) {
      clock_.Advance(purge_step_);
      EXPECT_OK(db_->PurgeStubs().status());
      return "purge";
    }
    EXPECT_OK(db_->SetAcl(RandomAcl(rng)));
    return "acl";
  }

  /// Distinct reader sets of the live documents: what a quiescent view
  /// should hold interned, nothing more.
  size_t LiveReaderSets() {
    std::set<std::vector<std::string>> sets;
    db_->ForEachLiveNote([&](const Note& note) {
      if (note.note_class() != NoteClass::kDocument) return;
      std::vector<std::string> names = ReaderNamesOf(note);
      if (!names.empty()) sets.insert(std::move(names));
    });
    return sets.size();
  }

  ScratchDir dir_;
  SimClock clock_;
  stats::StatRegistry stats_;
  // Declared before the database: ~Database waits on in-flight drains.
  indexer::ThreadPool pool_{2};
  std::unique_ptr<Database> db_;
  int next_subject_ = 0;
  // Larger than purge_interval plus the stamps a run makes in between.
  static constexpr Micros purge_step_ = 1'000'000;
};

TEST_P(ViewAclFixture, SecuredTraversalMatchesNoteCheckOracle) {
  Rng rng(GetParam() ? 0x5eed1 : 0x5eed0);
  for (int i = 0; i < 40; ++i) MutateUnpinned(&rng);
  const size_t rounds = Rounds();
  // A pin held across several rounds: writes made while it is open commit
  // after it, so the comparisons under it run against older entry
  // versions (zombies) and pre-image notes.
  std::optional<Database::ReadTxn> held;
  for (size_t round = 0; round < rounds; ++round) {
    std::string what = MutateUnpinned(&rng);
    if (!held.has_value() && rng.Bernoulli(0.3)) {
      // Without catch-up, events up to the pin stay queued until the first
      // view read; a mutation before that read commits after the pin.
      held.emplace(db_.get(), /*catch_up=*/rng.Bernoulli(0.5));
      if (rng.Bernoulli(0.5)) what += ", pin, " + MutateUnpinned(&rng);
    }
    const std::string where =
        "round " + std::to_string(round) + " after " + what +
        (held.has_value() ? " (pinned)" : "");
    ExpectFiltersAgree(*db_, where);
    if (::testing::Test::HasFatalFailure()) return;
    if (held.has_value() && rng.Bernoulli(0.25)) {
      held.reset();
      ExpectFiltersAgree(*db_, where + ", unpinned");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  held.reset();
  ASSERT_OK(db_->FlushIndexes());
  ExpectFiltersAgree(*db_, "final");

  // Quiescent: every zombie is reclaimed, and the interned table holds
  // exactly the live documents' distinct reader sets.
  const ViewIndex* view = db_->FindView(kByCategory);
  EXPECT_EQ(view->zombie_count(), 0u);
  EXPECT_EQ(view->reader_set_count(), LiveReaderSets());
}

TEST_P(ViewAclFixture, VisibleEntryIsALiveNoteAtThePin) {
  Acl acl;
  acl.set_default_level(AccessLevel::kReader);
  ASSERT_OK(db_->SetAcl(acl));
  Note doc(NoteClass::kDocument);
  doc.SetText("Category", "A");
  doc.SetText("Subject", "secret");
  doc.SetItem("DocReaders", Value::TextList({"Alice"}),
              kItemReaders | kItemNames);
  ASSERT_OK_AND_ASSIGN(NoteId id, db_->CreateNote(doc));
  const Principal alice = PrincipalAt(0);
  const Principal bob = PrincipalAt(1);
  auto doc_rows = [&](const Principal& who) {
    size_t n = 0;
    EXPECT_OK(db_->TraverseViewAs(who, kByCategory, [&](const ViewRow& row) {
      if (row.kind == ViewRow::Kind::kDocument) {
        EXPECT_EQ(row.entry->note_id, id);
        EXPECT_TRUE(db_->ReadNote(row.entry->note_id).ok());
        ++n;
      }
    }));
    return n;
  };
  {
    Database::ReadTxn pin(db_.get());
    ASSERT_OK(db_->DeleteNote(id));
    clock_.Advance(purge_step_);
    ASSERT_OK_AND_ASSIGN(size_t purged, db_->PurgeStubs());
    EXPECT_EQ(purged, 1u);
    // Deleted and purged after the pin: still a live, restricted note at
    // the pin, so Alice sees it and Bob does not.
    EXPECT_EQ(doc_rows(alice), 1u);
    EXPECT_EQ(doc_rows(bob), 0u);
    ExpectFiltersAgree(*db_, "under pin after delete + purge");
  }
  EXPECT_EQ(doc_rows(alice), 0u);
  ExpectFiltersAgree(*db_, "after unpin");
  EXPECT_EQ(db_->FindView(kByCategory)->reader_set_count(), 0u);
}

TEST_P(ViewAclFixture, ReaderFieldEditsUnderAnOlderPin) {
  Acl acl;
  acl.set_default_level(AccessLevel::kReader);
  ASSERT_OK(db_->SetAcl(acl));
  Note doc(NoteClass::kDocument);
  doc.SetText("Category", "A");
  doc.SetText("Subject", "open");
  ASSERT_OK_AND_ASSIGN(NoteId id, db_->CreateNote(doc));
  const Principal bob = PrincipalAt(1);
  auto bob_rows = [&] {
    size_t n = 0;
    EXPECT_OK(db_->TraverseViewAs(bob, kByCategory, [&](const ViewRow& row) {
      if (row.kind == ViewRow::Kind::kDocument) ++n;
    }));
    return n;
  };
  {
    Database::ReadTxn pin(db_.get());
    ASSERT_OK_AND_ASSIGN(Note note, db_->ReadNote(id));
    note.SetItem("DocReaders", Value::TextList({"Alice"}),
                 kItemReaders | kItemNames);
    ASSERT_OK(db_->UpdateNote(std::move(note)));
    EXPECT_EQ(bob_rows(), 1u);  // the pin predates the restriction
    ExpectFiltersAgree(*db_, "pinned before restriction");
  }
  EXPECT_EQ(bob_rows(), 0u);
  {
    Database::ReadTxn pin(db_.get());
    ASSERT_OK_AND_ASSIGN(Note note, db_->ReadNote(id));
    note.RemoveItem("DocReaders");
    ASSERT_OK(db_->UpdateNote(std::move(note)));
    EXPECT_EQ(bob_rows(), 0u);  // the pin predates the lifted restriction
    ExpectFiltersAgree(*db_, "pinned before lift");
  }
  EXPECT_EQ(bob_rows(), 1u);
  // ACL and role edits apply immediately: nothing about the principal is
  // cached in the index.
  Acl denied;
  denied.set_default_level(AccessLevel::kNoAccess);
  ASSERT_OK(db_->SetAcl(denied));
  EXPECT_EQ(db_->TraverseViewAs(bob, kByCategory, [](const ViewRow&) {})
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_P(ViewAclFixture, ReaderSetTableStaysBoundedUnderChurn) {
  // Every update names a brand-new reader, so each version interns a new
  // set; the table must shed a set once no entry (zombies included)
  // carries it.
  ASSERT_OK_AND_ASSIGN(NoteId id,
                       db_->CreateNote(testing_util::MakeDoc("Memo", "c")));
  const stats::Gauge* gauge = stats_.FindGauge("Database.View.ReaderSets");
  ASSERT_NE(gauge, nullptr);
  for (int i = 0; i < 200; ++i) {
    std::optional<Database::ReadTxn> pin;
    if (i % 3 == 0) pin.emplace(db_.get());
    ASSERT_OK_AND_ASSIGN(Note note, db_->ReadNote(id));
    note.SetItem("DocReaders", Value::TextList({"user" + std::to_string(i)}),
                 kItemReaders | kItemNames);
    ASSERT_OK(db_->UpdateNote(std::move(note)));
    ASSERT_OK(db_->FlushIndexes());
    // One live set, plus at most the zombie's while the pin is open, in
    // each of the two views.
    EXPECT_LE(db_->FindView(kByCategory)->reader_set_count(), 2u);
    EXPECT_LE(gauge->value(), 4);
  }
  // A read that pins and unpins is a reclamation point: the last reader
  // out drops the zombies a deferred flush left behind.
  auto settle = [&] { Database::ReadTxn txn(db_.get()); };
  settle();
  EXPECT_EQ(db_->FindView(kByCategory)->reader_set_count(), 1u);
  EXPECT_EQ(db_->FindView(kThreads)->reader_set_count(), 1u);
  EXPECT_EQ(gauge->value(), 2);
  ASSERT_OK(db_->DeleteNote(id));
  ASSERT_OK(db_->FlushIndexes());
  settle();
  EXPECT_EQ(gauge->value(), 0);
}

INSTANTIATE_TEST_SUITE_P(Indexing, ViewAclFixture,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Deferred" : "Inline";
                         });

TEST(ViewReaderSetTest, LatestModeRemovalReleasesTheSet) {
  stats::StatRegistry stats;
  std::vector<ViewColumn> cols;
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  cols.push_back(std::move(subject));
  ViewIndex view(*ViewDesign::Create("v", "SELECT @All", std::move(cols)),
                 nullptr, &stats);
  Note a = testing_util::MakeDoc("Memo", "a");
  a.set_id(1);
  a.SetItem("R", Value::TextList({"Bob", "Alice", "Bob"}),
            kItemReaders | kItemNames);
  Note b = testing_util::MakeDoc("Memo", "b");
  b.set_id(2);
  b.SetItem("R", Value::TextList({"Alice", "Bob"}), kItemReaders | kItemNames);
  ASSERT_OK(view.Update(a, nullptr));
  ASSERT_OK(view.Update(b, nullptr));
  // Same names in another order and with a duplicate: one set.
  EXPECT_EQ(view.reader_set_count(), 1u);
  ReaderSetId shared = kUnrestricted;
  view.Traverse([&](const ViewRow& row) {
    ASSERT_NE(row.reader_names, nullptr);
    EXPECT_EQ(*row.reader_names, (std::vector<std::string>{"Alice", "Bob"}));
    if (shared == kUnrestricted) shared = row.entry->reader_set;
    EXPECT_EQ(row.entry->reader_set, shared);
  });
  view.Remove(1);
  EXPECT_EQ(view.reader_set_count(), 1u);
  b.RemoveItem("R");
  ASSERT_OK(view.Update(b, nullptr));  // unversioned: erases in place
  EXPECT_EQ(view.reader_set_count(), 0u);
  EXPECT_EQ(stats.FindGauge("Database.View.ReaderSets")->value(), 0);
  view.Traverse([&](const ViewRow& row) {
    EXPECT_EQ(row.reader_names, nullptr);
    EXPECT_EQ(row.entry->reader_set, kUnrestricted);
  });
}

TEST(ViewReaderSetTest, ResponseWalkEvaluatesChildrenAtTheEventEpoch) {
  // A parent's update re-evaluates its responses. When that event is
  // applied late (deferred indexing), a child committed after it must
  // still be indexed as it was at the parent's epoch — its columns and
  // its reader set — or a reader pinned between the two commits would see
  // the child's later state.
  ScratchDir dir;
  SimClock clock;
  clock.Set(1'000'000'000);
  stats::StatRegistry stats;
  indexer::ThreadPool pool(1, &stats);
  DatabaseOptions options;
  options.stats = &stats;
  auto opened = Database::Open(dir.Sub("db"), options, &clock);
  ASSERT_OK(opened);
  std::unique_ptr<Database> db = std::move(*opened);
  ASSERT_OK(CreateViews(db.get()));
  db->AttachIndexer(&pool);
  // Park the only worker so index events wait for a reader's catch-up.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ASSERT_TRUE(pool.Submit([gate] { gate.wait(); }));

  Note parent(NoteClass::kDocument);
  parent.SetText("Category", "A");
  parent.SetText("Subject", "parent");
  ASSERT_OK_AND_ASSIGN(NoteId parent_id, db->CreateNote(parent));
  ASSERT_OK_AND_ASSIGN(Note stored_parent, db->ReadNote(parent_id));
  Note child(NoteClass::kDocument);
  child.SetText("Category", "A");
  child.SetText("Subject", "child");
  child.SetItem("DocReaders", Value::TextList({"Alice"}),
                kItemReaders | kItemNames);
  ASSERT_OK_AND_ASSIGN(NoteId child_id,
                       db->CreateResponse(stored_parent.unid(), child));
  ASSERT_OK(db->FlushIndexes());

  stored_parent.SetText("Subject", "parent v2");
  ASSERT_OK(db->UpdateNote(stored_parent));  // event stays queued
  {
    Database::ReadTxn pin(db.get(), /*catch_up=*/false);
    ASSERT_OK_AND_ASSIGN(Note c, db->ReadNote(child_id));
    c.RemoveItem("DocReaders");
    c.SetText("Subject", "child v2");
    ASSERT_OK(db->UpdateNote(std::move(c)));  // after the pin
    // The first view read catches up to the pin, applying the parent's
    // event while the store already holds the child's later state.
    ExpectFiltersAgree(*db, "pinned between parent and child commits");
    size_t bob_rows = 0;
    ASSERT_OK(db->TraverseViewAs(
        PrincipalAt(1), kThreads, [&](const ViewRow& row) {
          if (row.kind == ViewRow::Kind::kDocument) ++bob_rows;
        }));
    EXPECT_EQ(bob_rows, 1u);  // the parent only: the child is restricted
  }
  release.set_value();
  ExpectFiltersAgree(*db, "after unpin");
}

// TSan target: a writer churns reader fields, deletes and purges while
// readers compare the two filters under their own pins. The ACL stays
// fixed here: it is read at call time, not at the pin, so an edit between
// the two filters' calls would make them differ legitimately.
TEST(ViewAclStressTest, ConcurrentWritersAndSecuredReaders) {
  ScratchDir dir;
  SimClock clock;
  clock.Set(1'000'000'000);
  stats::StatRegistry stats;
  indexer::ThreadPool pool(2, &stats);
  DatabaseOptions options;
  options.purge_interval = 1000;
  options.stats = &stats;
  auto opened = Database::Open(dir.Sub("db"), options, &clock);
  ASSERT_OK(opened);
  std::unique_ptr<Database> db = std::move(*opened);
  db->AttachIndexer(&pool);
  Acl acl;
  acl.set_default_level(AccessLevel::kReader);
  acl.SetEntry("Dave", AccessLevel::kNoAccess);
  acl.SetEntry("Sales Team", AccessLevel::kEditor, {"[Ops]"});
  ASSERT_OK(db->SetAcl(acl));
  ASSERT_OK(CreateViews(db.get()));

  Rng seed_rng(77);
  std::vector<NoteId> ids;
  for (int i = 0; i < 60; ++i) {
    Note doc(NoteClass::kDocument);
    doc.SetText("Category", std::string(1, 'A' + seed_rng.Uniform(3)));
    doc.SetText("Subject", "s" + std::to_string(i));
    RandomizeSecurity(&seed_rng, &doc);
    ASSERT_OK_AND_ASSIGN(NoteId id, db->CreateNote(std::move(doc)));
    ids.push_back(id);
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(78);
    for (int i = 0; i < 300; ++i) {
      const NoteId id = ids[rng.Uniform(ids.size())];
      auto note = db->ReadNote(id);
      if (note.ok()) {
        if (rng.Bernoulli(0.1)) {
          EXPECT_OK(db->DeleteNote(id));
        } else {
          RandomizeSecurity(&rng, &*note);
          EXPECT_OK(db->UpdateNote(std::move(*note)));
        }
      } else {
        Note doc(NoteClass::kDocument);
        doc.SetText("Category", "B");
        doc.SetText("Subject", "new" + std::to_string(i));
        RandomizeSecurity(&rng, &doc);
        auto created = db->CreateNote(std::move(doc));
        EXPECT_OK(created);
        if (created.ok()) ids[rng.Uniform(ids.size())] = *created;
      }
      if (i % 50 == 49) {
        clock.Advance(1'000'000);
        EXPECT_OK(db->PurgeStubs().status());
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      size_t passes = 0;
      while (!stop.load() || passes < 5) {
        Database::ReadTxn pin(db.get());
        const Principal& who = PrincipalAt(passes + r);
        for (const char* view : {kByCategory, kThreads}) {
          auto expected = OracleRows(*db, who, view);
          auto actual = SecuredRows(*db, who, view);
          ASSERT_EQ(expected.ok(), actual.ok()) << who.name;
          if (expected.ok()) {
            ASSERT_EQ(*expected, *actual) << who.name;
          }
        }
        ++passes;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
}

}  // namespace
}  // namespace dominodb
