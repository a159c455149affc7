// Multi-reader/multi-writer stress over the Database: view traversals,
// full-text searches and @DbLookup-re-entrant formula evaluation proceed
// concurrently with mutations and purges. Readers pin MVCC snapshot
// epochs and never take the database lock (tests/mvcc_test.cc checks the
// snapshot semantics themselves); writers serialize on the exclusive
// lock. Primarily a TSan target (scripts/check.sh runs the suite under
// all sanitizers), but the final consistency checks catch lost updates
// under any build.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "formula/formula.h"
#include "indexer/thread_pool.h"
#include "tests/test_util.h"
#include "view/view_design.h"

namespace dominodb {
namespace {

using testing_util::MakeDoc;
using testing_util::ScratchDir;

class ConcurrencyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // The SimClock is not thread-safe: it is set once here and never
    // advanced while worker threads run. StampTime stays monotonic on
    // its own (it bumps past the last issued stamp under the exclusive
    // lock), so a frozen clock is fine for this workload.
    clock_.Set(1'000'000'000);
    DatabaseOptions options;
    options.title = "Stress DB";
    auto db = Database::Open(dir_.Sub("db"), options, &clock_);
    ASSERT_OK(db);
    db_ = std::move(*db);

    // "All" view for traversals plus a keyword view for @DbLookup.
    std::vector<ViewColumn> subject;
    ViewColumn s;
    s.title = "Subject";
    s.formula_source = "Subject";
    s.sort = ColumnSort::kAscending;
    subject.push_back(std::move(s));
    ASSERT_OK(db_->CreateView(*ViewDesign::Create("all", "SELECT @All",
                                                  std::move(subject)))
                  .status());
    std::vector<ViewColumn> rate_cols;
    ViewColumn code;
    code.title = "Code";
    code.formula_source = "Code";
    code.sort = ColumnSort::kAscending;
    rate_cols.push_back(std::move(code));
    ViewColumn rate;
    rate.title = "Rate";
    rate.formula_source = "Rate";
    rate_cols.push_back(std::move(rate));
    ASSERT_OK(db_->CreateView(*ViewDesign::Create("Rates",
                                                  "SELECT Form = \"Rate\"",
                                                  std::move(rate_cols)))
                  .status());
    ASSERT_OK(db_->EnsureFullTextIndex());

    Note eur(NoteClass::kDocument);
    eur.SetText("Form", "Rate");
    eur.SetText("Code", "EUR");
    eur.SetNumber("Rate", 1.08);
    ASSERT_OK(db_->CreateNote(std::move(eur)).status());
    ASSERT_OK_AND_ASSIGN(anchor_id_,
                         db_->CreateNote(MakeDoc("Memo", "anchor")));
  }

  ScratchDir dir_;
  SimClock clock_;
  // Declared before the database: ~Database waits on in-flight drains.
  indexer::ThreadPool pool_{2};
  std::unique_ptr<Database> db_;
  NoteId anchor_id_ = kInvalidNoteId;
};

TEST_F(ConcurrencyFixture, ReadersProceedWhileWritersMutate) {
  db_->AttachIndexer(&pool_);

  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kDocsPerWriter = 30;
  const Principal reader = Principal::User("reader");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_ops{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<NoteId> mine;
      for (int i = 0; i < kDocsPerWriter; ++i) {
        Note note = MakeDoc("Memo", StrPrintf("w%d doc %d", w, i));
        note.SetText("Body", "stress body lotus " + std::to_string(i));
        auto id = db_->CreateNote(std::move(note));
        EXPECT_OK(id);
        if (id.ok()) mine.push_back(*id);
        if (i % 4 == 1 && !mine.empty()) {
          auto read = db_->ReadNote(mine.front());
          if (read.ok()) {
            read->SetText("Subject", read->GetText("Subject") + "+");
            EXPECT_OK(db_->UpdateNote(std::move(*read)));
          }
        }
        if (i % 7 == 3 && mine.size() > 1) {
          EXPECT_OK(db_->DeleteNote(mine.back()));
          mine.pop_back();
        }
        if (i % 5 == 0) {
          // Exclusive paths beyond plain writes: inline index barrier
          // and the purge scan (the frozen clock keeps every stub
          // younger than the purge interval, so nothing is erased —
          // the point is the lock discipline, not the purge).
          EXPECT_OK(db_->FlushIndexes());
          EXPECT_OK(db_->PurgeStubs().status());
        }
        db_->MarkRead(reader, Unid{});  // trivial exclusive touch
      }
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // do-while: each reader completes at least one pass even when the
      // writers (no longer slowed by readers) finish first.
      do {
        size_t rows = 0;
        EXPECT_OK(db_->TraverseViewAs(reader, "all",
                                      [&](const ViewRow&) { ++rows; }));
        EXPECT_OK(db_->SearchAs(reader, "lotus OR anchor").status());
        // Re-entrant read: the selection's @DbLookup joins this thread's
        // pinned snapshot mid-scan.
        auto looked = db_->FormulaSearch(
            "SELECT @DbLookup(\"\"; \"Rates\"; \"EUR\"; 2) > 1");
        EXPECT_OK(looked.status());
        if (looked.ok()) {
          EXPECT_GE(looked->size(), 1u);
        }
        EXPECT_OK(db_->ReadNote(anchor_id_).status());
        (void)db_->UnreadCount(reader);
        {
          // The modified-in-file index read races the writers' commits:
          // within one pin, the summary at a non-zero cutoff must be
          // exactly the tail of the full summary past that cutoff.
          Database::ReadTxn txn(db_.get(), /*catch_up=*/false);
          const Micros cutoff = db_->last_write_stamp() - 20'000;
          std::vector<Database::Change> all = db_->ChangeSummarySince(0);
          std::vector<Database::Change> recent =
              db_->ChangeSummarySince(cutoff);
          auto tail = std::find_if(
              all.begin(), all.end(),
              [&](const Database::Change& c) { return c.stamp > cutoff; });
          EXPECT_EQ(recent.size(),
                    static_cast<size_t>(std::distance(tail, all.end())));
          for (size_t i = 0; i < recent.size() && tail != all.end();
               ++i, ++tail) {
            EXPECT_EQ(recent[i].oid, tail->oid);
            EXPECT_EQ(recent[i].stamp, tail->stamp);
          }
        }
        if (r % 2 == 0) (void)db_->note_count();
        read_ops.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  EXPECT_GT(read_ops.load(), 0u);

  // Quiesce and check nothing was lost: every surviving document shows
  // up in the view and the store agrees with itself.
  ASSERT_OK(db_->FlushIndexes());
  EXPECT_FALSE(db_->HasPendingIndexWork());
  const ViewIndex* view = db_->FindView("all");
  ASSERT_NE(view, nullptr);
  size_t live_docs = 0;
  db_->ForEachLiveNote([&](const Note& note) {
    if (note.note_class() == NoteClass::kDocument) ++live_docs;
  });
  EXPECT_EQ(view->size(), live_docs);
  // Store total = the documents plus the two view design notes.
  EXPECT_EQ(db_->note_count(), live_docs + 2);
}

TEST_F(ConcurrencyFixture, CheckedAndFolderMutatorsInterleave) {
  // The checked CRUD variants, SetAclAs and the folder mutators each
  // take the write lock once and call a locked core; here they race one
  // another and snapshot readers. Flipping the editor between Editor and
  // Reader makes PermissionDenied a legal outcome; two writers editing one
  // note make Conflict one. Any other error is a bug.
  db_->AttachIndexer(&pool_);
  const Principal admin = Principal::User("admin");
  const Principal editor = Principal::User("editor");
  const Principal reader = Principal::User("reader");
  auto acl_with = [](AccessLevel editor_level) {
    Acl acl;
    acl.SetEntry("admin", AccessLevel::kManager);
    acl.SetEntry("editor", editor_level);
    acl.set_default_level(AccessLevel::kReader);
    return acl;
  };
  ASSERT_OK(db_->SetAcl(acl_with(AccessLevel::kEditor)));
  ASSERT_OK(db_->CreateFolder("Inbox").status());
  constexpr int kFolderThreads = 2;
  constexpr int kDocsPerFolderThread = 4;
  std::vector<Unid> filed;
  for (int i = 0; i < kFolderThreads * kDocsPerFolderThread; ++i) {
    ASSERT_OK_AND_ASSIGN(NoteId id, db_->CreateNote(MakeDoc(
                                        "Memo", "filed " + std::to_string(i))));
    filed.push_back(db_->ReadNote(id)->unid());
  }

  auto allowed = [](const Status& s) {
    return s.ok() || s.IsPermissionDenied() || s.IsConflict();
  };
  constexpr int kWriters = 2;
  constexpr int kOpsPerThread = 40;
  std::atomic<int> creates{0};
  std::atomic<int> deletes{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<NoteId> mine;
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto id = db_->CreateNoteAs(
            editor, MakeDoc("Memo", StrPrintf("w%d %d", w, i)));
        EXPECT_TRUE(allowed(id.status())) << id.status().message();
        if (id.ok()) {
          mine.push_back(*id);
          creates.fetch_add(1);
        }
        if (i % 3 == 0) {
          // Both writers edit the anchor: a stale read is a Conflict.
          auto anchor = db_->ReadNote(anchor_id_);
          ASSERT_OK(anchor);
          anchor->SetText("Subject", "anchor " + std::to_string(i));
          Status st = db_->UpdateNoteAs(editor, std::move(*anchor));
          EXPECT_TRUE(allowed(st)) << st.message();
        }
        if (i % 4 == 3 && !mine.empty()) {
          Status st = db_->DeleteNoteAs(editor, mine.back());
          EXPECT_TRUE(allowed(st)) << st.message();
          if (st.ok()) {
            mine.pop_back();
            deletes.fetch_add(1);
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kOpsPerThread; ++i) {
      EXPECT_OK(db_->SetAclAs(
          admin, acl_with(i % 2 == 0 ? AccessLevel::kReader
                                     : AccessLevel::kEditor)));
      // The editor is never a Manager.
      EXPECT_TRUE(db_->SetAclAs(editor, acl_with(AccessLevel::kManager))
                      .IsPermissionDenied());
    }
  });
  // Each folder thread owns a disjoint slice of `filed`, so it knows each
  // document's membership and every add or remove it issues takes effect.
  std::vector<std::vector<int>> net(kFolderThreads,
                                    std::vector<int>(kDocsPerFolderThread));
  for (int f = 0; f < kFolderThreads; ++f) {
    threads.emplace_back([&, f] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int slot = (i * 3 + f) % kDocsPerFolderThread;
        const Unid& unid = filed[f * kDocsPerFolderThread + slot];
        int& member = net[f][slot];
        Status st = member == 0 ? db_->AddToFolder("Inbox", unid)
                                : db_->RemoveFromFolder("Inbox", unid);
        EXPECT_TRUE(allowed(st)) << st.message();
        if (st.ok()) member = 1 - member;
      }
    });
  }
  const size_t mutators = threads.size();
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      do {
        EXPECT_OK(db_->TraverseViewAs(reader, "all", [](const ViewRow&) {}));
        auto contents = db_->FolderContents("Inbox");
        ASSERT_OK(contents);
        std::set<Unid> seen;
        for (const Note& note : *contents) {
          EXPECT_TRUE(seen.insert(note.unid()).second);
          EXPECT_NE(std::find(filed.begin(), filed.end(), note.unid()),
                    filed.end());
        }
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (size_t t = 0; t < mutators; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = mutators; t < threads.size(); ++t) threads[t].join();

  std::set<Unid> expected;
  for (int f = 0; f < kFolderThreads; ++f) {
    for (int slot = 0; slot < kDocsPerFolderThread; ++slot) {
      if (net[f][slot] == 1) {
        expected.insert(filed[f * kDocsPerFolderThread + slot]);
      }
    }
  }
  ASSERT_OK_AND_ASSIGN(std::vector<Note> contents,
                       db_->FolderContents("Inbox"));
  std::set<Unid> members;
  for (const Note& note : contents) members.insert(note.unid());
  EXPECT_EQ(members, expected);

  // The last flip left the editor at Editor level.
  EXPECT_EQ(db_->acl().LevelFor(editor), AccessLevel::kEditor);
  ASSERT_OK(db_->FlushIndexes());
  size_t live_docs = 0;
  db_->ForEachLiveNote([&](const Note& note) {
    if (note.note_class() == NoteClass::kDocument) ++live_docs;
  });
  // Rate + anchor + the filed documents + net checked creates.
  EXPECT_EQ(live_docs, 2 + filed.size() +
                           static_cast<size_t>(creates - deletes));
  EXPECT_EQ(db_->FindView("all")->size(), live_docs);
}

// Four readers run TraverseViewAs (a categorized view) and SearchAs
// while a writer flips documents' reader fields and deletes and creates
// documents. Each reader pins a snapshot, computes at that pin which
// documents it may read (a formula scan plus the document ACL check),
// and requires both calls, made inside the same pin, to return exactly
// those documents, at the versions the scan saw, with no category row
// left empty.
TEST_F(ConcurrencyFixture, SecuredReadsMatchTheirPinWhileReaderFieldsFlip) {
  db_->AttachIndexer(&pool_);
  std::vector<ViewColumn> columns(2);
  columns[0].title = "Category";
  columns[0].formula_source = "Category";
  columns[0].sort = ColumnSort::kAscending;
  columns[0].categorized = true;
  columns[1].title = "Subject";
  columns[1].formula_source = "Subject";
  columns[1].sort = ColumnSort::kAscending;
  ASSERT_OK(db_->CreateView(*ViewDesign::Create("Topics",
                                                "SELECT Form = \"Topic\"",
                                                std::move(columns)))
                .status());
  const Principal reader = Principal::User("Reader0");
  auto topic = [](int i, bool restricted) {
    Note doc = MakeDoc("Topic", "t" + std::to_string(i));
    doc.SetText("Category", std::string(1, static_cast<char>('A' + i % 4)));
    doc.SetText("Body", "shared word" + std::to_string(i));
    if (restricted) {
      doc.SetItem("DocReaders", Value::TextList({"Other"}),
                  kItemReaders | kItemNames);
    }
    return doc;
  };
  constexpr int kDocs = 40;
  std::vector<NoteId> live;
  for (int i = 0; i < kDocs; ++i) {
    ASSERT_OK_AND_ASSIGN(NoteId id, db_->CreateNote(topic(i, i % 3 == 0)));
    live.push_back(id);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::thread writer([&] {
    Rng rng(24);
    int next = kDocs;
    for (int op = 0; op < 200; ++op) {
      const size_t slot = rng.Uniform(live.size());
      if (rng.Uniform(5) == 0) {
        EXPECT_OK(db_->DeleteNote(live[slot]));
        auto id = db_->CreateNote(topic(next++, rng.Uniform(2) == 0));
        EXPECT_OK(id);
        if (id.ok()) live[slot] = *id;
        continue;
      }
      auto note = db_->ReadNote(live[slot]);
      EXPECT_OK(note);
      if (!note.ok()) continue;
      if (!note->RemoveItem("DocReaders")) {
        note->SetItem("DocReaders",
                      Value::TextList(rng.Uniform(2) == 0
                                          ? std::vector<std::string>{"Other"}
                                          : std::vector<std::string>{
                                                "Other", "Reader0"}),
                      kItemReaders | kItemNames);
      }
      EXPECT_OK(db_->UpdateNote(std::move(*note)));
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      do {
        Database::ReadTxn txn(db_.get());
        const Acl acl = db_->acl();
        auto all = db_->FormulaSearch("SELECT Form = \"Topic\"");
        ASSERT_OK(all);
        std::map<NoteId, uint32_t> expected;  // id → sequence at the pin
        for (const Note& note : *all) {
          if (CanReadDocument(acl, reader, note)) {
            expected[note.id()] = note.sequence();
          }
        }
        std::set<NoteId> expected_ids;
        for (const auto& [id, sequence] : expected) expected_ids.insert(id);
        std::set<NoteId> rows;
        std::vector<ViewRow> order;
        ASSERT_OK(
            db_->TraverseViewAs(reader, "Topics", [&](const ViewRow& row) {
              order.push_back(row);
              if (row.kind == ViewRow::Kind::kDocument) {
                rows.insert(row.entry->note_id);
              }
            }));
        EXPECT_EQ(rows, expected_ids);
        // One category level: a kept category row heads a document row.
        for (size_t i = 0; i < order.size(); ++i) {
          if (order[i].kind != ViewRow::Kind::kCategory) continue;
          ASSERT_LT(i + 1, order.size());
          EXPECT_EQ(order[i + 1].kind, ViewRow::Kind::kDocument)
              << "empty category " << order[i].category;
        }
        auto found = db_->SearchAs(reader, "shared");
        ASSERT_OK(found);
        std::map<NoteId, uint32_t> hits;
        for (const Note& note : *found) hits[note.id()] = note.sequence();
        EXPECT_EQ(hits, expected);
        checked.fetch_add(1);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GE(checked.load(), 4u);
}

TEST_F(ConcurrencyFixture, LookupFormulaCatchesUpOnPendingIndexWork) {
  // Agent-style evaluation: the formula itself runs outside any lock and
  // @DbLookup pins a snapshot per call. The lookup's ReadTxn must catch
  // up on deferred index maintenance first, so a Rate document whose
  // view update is still queued is found anyway.
  db_->AttachIndexer(&pool_);
  Note gbp(NoteClass::kDocument);
  gbp.SetText("Form", "Rate");
  gbp.SetText("Code", "GBP");
  gbp.SetNumber("Rate", 1.27);
  ASSERT_OK(db_->CreateNote(std::move(gbp)).status());

  formula::EvalContext ctx;
  db_->BindFormulaServices(&ctx);
  auto result = formula::EvaluateFormula(
      "@DbLookup(\"\"; \"Rates\"; \"GBP\"; 2)", ctx);
  ASSERT_OK(result);
  ASSERT_EQ(result->numbers().size(), 1u);
  EXPECT_DOUBLE_EQ(result->numbers()[0], 1.27);
}

}  // namespace
}  // namespace dominodb
