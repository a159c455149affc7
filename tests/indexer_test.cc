#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "indexer/indexer_task.h"
#include "indexer/thread_pool.h"
#include "tests/test_util.h"
#include "view/view_design.h"

namespace dominodb {
namespace {

using testing_util::MakeDoc;
using testing_util::ScratchDir;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  stats::StatRegistry reg;
  std::atomic<int> ran{0};
  {
    indexer::ThreadPool pool(4, &reg);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
    }
    pool.WaitIdle();
    EXPECT_EQ(ran.load(), 100);
  }
  EXPECT_EQ(reg.GetCounter("Indexer.Threads.TasksQueued").value(), 100u);
  EXPECT_EQ(reg.GetCounter("Indexer.Threads.TasksRun").value(), 100u);
  EXPECT_EQ(reg.GetGauge("Indexer.Threads.QueueDepth").value(), 0);
}

TEST(ThreadPoolTest, ShutdownRunsQueuedWorkThenRefusesNew) {
  std::atomic<int> ran{0};
  indexer::ThreadPool pool(2, nullptr);
  for (int i = 0; i < 50; ++i) pool.Submit([&] { ran.fetch_add(1); });
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 50);
  EXPECT_FALSE(pool.Submit([&] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, QueueDepthSaturationFiresWarningEvent) {
  stats::StatRegistry reg;
  constexpr size_t kCapacity = 4;
  indexer::ThreadPool pool(1, &reg, kCapacity);

  // Park the only worker so submissions pile up in the queue.
  std::mutex mu;
  std::condition_variable cv;
  bool parked = true;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !parked; });
  });
  // Wait until the worker picked the blocker up (queue drained to 0).
  while (reg.GetGauge("Indexer.Threads.QueueDepth").value() != 0) {
    std::this_thread::yield();
  }
  for (size_t i = 0; i < kCapacity; ++i) pool.Submit([] {});
  EXPECT_EQ(reg.GetGauge("Indexer.Threads.QueueDepth").value(),
            static_cast<int64_t>(kCapacity));
  // The constructor armed a QueueDepth >= capacity warning threshold.
  EXPECT_GE(reg.CheckThresholds(), 1u);
  bool found = false;
  for (const stats::Event& event : reg.events().Events()) {
    if (event.severity == stats::Severity::kWarning &&
        event.message.find("Indexer.Threads.QueueDepth") !=
            std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  {
    std::lock_guard<std::mutex> lock(mu);
    parked = false;
  }
  cv.notify_all();
  pool.WaitIdle();
}

// ---------------------------------------------------------------------------
// IndexerTask
// ---------------------------------------------------------------------------

TEST(IndexerTaskTest, BackgroundDrainAppliesEvents) {
  stats::StatRegistry reg;
  indexer::ThreadPool pool(2, &reg);
  std::mutex mu;
  std::vector<NoteId> applied;
  indexer::IndexerTask task(
      &pool,
      [&](indexer::IndexerTask* t) {
        std::lock_guard<std::mutex> lock(mu);
        t->CatchUp(kEpochMax, [&](const indexer::NoteChange& change) {
          applied.push_back(change.id);
        });
      },
      &reg);
  for (NoteId id = 1; id <= 20; ++id) {
    task.Enqueue(indexer::NoteChange{id, indexer::ChangeKind::kChanged,
                                      kEpochNone, nullptr});
  }
  // A full CatchUp from this thread acts as the deterministic barrier.
  {
    std::lock_guard<std::mutex> lock(mu);
    task.CatchUp(kEpochMax, [&](const indexer::NoteChange& change) {
      applied.push_back(change.id);
    });
  }
  task.Close();
  EXPECT_EQ(applied.size(), 20u);
  EXPECT_FALSE(task.HasPending());
  EXPECT_EQ(reg.GetCounter("Indexer.Queue.Enqueued").value(), 20u);
  EXPECT_EQ(reg.GetCounter("Indexer.Queue.Drained").value(), 20u);
}

TEST(IndexerTaskTest, CloseWithQueuedWorkDoesNotHang) {
  indexer::ThreadPool pool(1, nullptr);
  indexer::IndexerTask task(
      &pool,
      [](indexer::IndexerTask* t) { t->CatchUp(kEpochMax, [](auto&) {}); },
      nullptr);
  for (NoteId id = 1; id <= 100; ++id) {
    task.Enqueue(indexer::NoteChange{id, indexer::ChangeKind::kChanged,
                                      kEpochNone, nullptr});
  }
  task.Close();  // must wait for in-flight callbacks and return
  EXPECT_FALSE(task.HasPending());
}

// ---------------------------------------------------------------------------
// Database integration
// ---------------------------------------------------------------------------

ViewDesign SubjectView(const std::string& name, const std::string& selection) {
  std::vector<ViewColumn> columns;
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  auto design = ViewDesign::Create(name, selection, std::move(columns));
  EXPECT_TRUE(design.ok());
  return *design;
}

/// Serializes a view traversal (categories, indents, subjects) so two
/// databases can be compared row-for-row.
std::string TraversalOf(const Database& db, const std::string& view_name) {
  const ViewIndex* view = db.FindView(view_name);
  if (view == nullptr) return "<missing>";
  std::string out;
  view->Traverse([&](const ViewRow& row) {
    if (row.kind == ViewRow::Kind::kCategory) {
      out += "C" + std::to_string(row.indent) + ":" + row.category + ";";
    } else {
      out += "D" + std::to_string(row.indent) + ":" +
             row.entry->ColumnText(0) + ";";
    }
  });
  return out;
}

/// The same mixed workload applied to both databases of a twin pair.
void RunWorkload(Database* db) {
  std::vector<NoteId> ids;
  for (int i = 0; i < 40; ++i) {
    Note note = MakeDoc(i % 3 == 0 ? "Invoice" : "Memo",
                        "doc " + std::to_string(i), i * 1.5);
    note.SetText("Body", "lotus domino note number " + std::to_string(i));
    auto id = db->CreateNote(std::move(note));
    ASSERT_OK(id);
    ids.push_back(*id);
  }
  for (int i = 0; i < 40; i += 4) {
    auto note = db->ReadNote(ids[i]);
    ASSERT_OK(note);
    note->SetText("Subject", "updated " + std::to_string(i));
    ASSERT_OK(db->UpdateNote(std::move(*note)));
  }
  for (int i = 2; i < 40; i += 8) ASSERT_OK(db->DeleteNote(ids[i]));
}

class IndexerTwinFixture : public ::testing::Test {
 protected:
  std::unique_ptr<Database> OpenDb(const std::string& sub) {
    DatabaseOptions options;
    options.title = "Twin";
    options.unid_seed = 42;  // identical seeds → identical UNIDs/stamps
    auto db = Database::Open(dir_.Sub(sub), options, &clock_);
    EXPECT_TRUE(db.ok());
    return std::move(*db);
  }

  ScratchDir dir_;
  SimClock clock_;
  // Declared before the databases it serves: ~Database waits on its
  // in-flight drain callbacks, which run here.
  indexer::ThreadPool pool_{4};
};

TEST_F(IndexerTwinFixture, BackgroundIndexingMatchesSynchronous) {
  auto sync_db = OpenDb("sync");
  auto bg_db = OpenDb("bg");
  bg_db->AttachIndexer(&pool_);

  for (Database* db : {sync_db.get(), bg_db.get()}) {
    ASSERT_OK(db->CreateView(SubjectView("all", "SELECT @All")).status());
    ASSERT_OK(db->CreateView(
                    SubjectView("invoices", "SELECT Form = \"Invoice\""))
                  .status());
    ASSERT_OK(db->EnsureFullTextIndex());
    RunWorkload(db);
  }
  ASSERT_OK(bg_db->FlushIndexes());
  EXPECT_FALSE(bg_db->HasPendingIndexWork());

  for (const char* name : {"all", "invoices"}) {
    EXPECT_EQ(TraversalOf(*sync_db, name), TraversalOf(*bg_db, name)) << name;
    // Deferred events evaluate the note's CURRENT state, so a create
    // followed by a delete before the drain coalesces into a removal:
    // the background path never does MORE work than sync, and the net
    // row count (inserts - removes) is identical because the rows are.
    const ViewStats& a = sync_db->FindView(name)->stats();
    const ViewStats& b = bg_db->FindView(name)->stats();
    EXPECT_LE(b.selection_evals, a.selection_evals) << name;
    EXPECT_LE(b.column_evals, a.column_evals) << name;
    EXPECT_EQ(a.inserts - a.removes, b.inserts - b.removes) << name;
  }

  EXPECT_EQ(sync_db->fulltext()->doc_count(), bg_db->fulltext()->doc_count());
  EXPECT_EQ(sync_db->fulltext()->term_count(),
            bg_db->fulltext()->term_count());
  for (const char* query :
       {"domino", "\"lotus domino\"", "updated AND doc",
        "FIELD Subject CONTAINS updated", "note OR missingterm"}) {
    auto a = sync_db->SearchAs(Principal::User("x"), query);
    auto b = bg_db->SearchAs(Principal::User("x"), query);
    ASSERT_OK(a);
    ASSERT_OK(b);
    ASSERT_EQ(a->size(), b->size()) << query;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].unid(), (*b)[i].unid()) << query;
    }
  }
}

TEST_F(IndexerTwinFixture, BackgroundCountersMatchSyncWithoutDeletes) {
  // With no deletes (and a selection stable across updates) there is no
  // coalescing, so the deferred path does exactly the same evaluations.
  auto sync_db = OpenDb("sync_nd");
  auto bg_db = OpenDb("bg_nd");
  bg_db->AttachIndexer(&pool_);
  for (Database* db : {sync_db.get(), bg_db.get()}) {
    ASSERT_OK(db->CreateView(SubjectView("all", "SELECT @All")).status());
    // With no pool every writer drains its own events before it returns.
    if (db == sync_db.get()) {
      EXPECT_FALSE(db->HasPendingIndexWork());
    }
    std::vector<NoteId> ids;
    for (int i = 0; i < 30; ++i) {
      auto id = db->CreateNote(MakeDoc("Memo", StrPrintf("n%d", i)));
      ASSERT_OK(id);
      ids.push_back(*id);
      if (db == sync_db.get()) {
      EXPECT_FALSE(db->HasPendingIndexWork());
    }
    }
    for (int i = 0; i < 30; i += 3) {
      auto note = db->ReadNote(ids[i]);
      ASSERT_OK(note);
      note->SetText("Subject", "renamed " + std::to_string(i));
      ASSERT_OK(db->UpdateNote(std::move(*note)));
      if (db == sync_db.get()) {
      EXPECT_FALSE(db->HasPendingIndexWork());
    }
    }
  }
  ASSERT_OK(bg_db->FlushIndexes());
  EXPECT_EQ(TraversalOf(*sync_db, "all"), TraversalOf(*bg_db, "all"));
  const ViewStats& a = sync_db->FindView("all")->stats();
  const ViewStats& b = bg_db->FindView("all")->stats();
  EXPECT_EQ(a.selection_evals, b.selection_evals);
  EXPECT_EQ(a.column_evals, b.column_evals);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.removes, b.removes);
}

TEST_F(IndexerTwinFixture, RebuildWithIndexerAttachedMatchesDetached) {
  auto serial_db = OpenDb("serial");
  auto par_db = OpenDb("par");
  // Attach BEFORE the views exist: CreateView's initial Rebuild and
  // EnsureFullTextIndex's build then run while deferred maintenance is
  // live, and must build exactly what the detached database builds.
  par_db->AttachIndexer(&pool_);
  for (Database* db : {serial_db.get(), par_db.get()}) {
    RunWorkload(db);
    ASSERT_OK(db->FlushIndexes());
    ASSERT_OK(db->CreateView(SubjectView("all", "SELECT @All")).status());
    ASSERT_OK(db->CreateView(
                    SubjectView("invoices", "SELECT Form = \"Invoice\""))
                  .status());
    ASSERT_OK(db->EnsureFullTextIndex());
  }
  for (const char* name : {"all", "invoices"}) {
    EXPECT_EQ(TraversalOf(*serial_db, name), TraversalOf(*par_db, name))
        << name;
    const ViewStats& a = serial_db->FindView(name)->stats();
    const ViewStats& b = par_db->FindView(name)->stats();
    EXPECT_EQ(a.selection_evals, b.selection_evals) << name;
    EXPECT_EQ(a.column_evals, b.column_evals) << name;
    EXPECT_EQ(a.inserts, b.inserts) << name;
  }
  EXPECT_EQ(serial_db->fulltext()->doc_count(),
            par_db->fulltext()->doc_count());
  EXPECT_EQ(serial_db->fulltext()->term_count(),
            par_db->fulltext()->term_count());
  for (const char* query : {"domino", "\"note number\"",
                            "FIELD Body CONTAINS lotus"}) {
    auto a = serial_db->SearchAs(Principal::User("x"), query);
    auto b = par_db->SearchAs(Principal::User("x"), query);
    ASSERT_OK(a);
    ASSERT_OK(b);
    ASSERT_EQ(a->size(), b->size()) << query;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].unid(), (*b)[i].unid()) << query;
    }
  }
}

TEST_F(IndexerTwinFixture, WritesDeferUntilBarrierWhenWorkerIsBusy) {
  indexer::ThreadPool pool(1);
  auto db = OpenDb("defer");
  ASSERT_OK_AND_ASSIGN(ViewIndex * view,
                       db->CreateView(SubjectView("all", "SELECT @All")));
  db->AttachIndexer(&pool);

  // Park the only worker so the background drain cannot run; the write
  // must still return immediately and leave the event pending.
  std::mutex mu;
  std::condition_variable cv;
  bool parked = true;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !parked; });
  });

  ASSERT_OK(db->CreateNote(MakeDoc("Memo", "deferred")).status());
  EXPECT_TRUE(db->HasPendingIndexWork());
  EXPECT_EQ(view->size(), 0u);  // raw pointer: bypasses FindView catch-up

  // FlushIndexes is an inline barrier — it needs no pool worker.
  ASSERT_OK(db->FlushIndexes());
  EXPECT_FALSE(db->HasPendingIndexWork());
  EXPECT_EQ(view->size(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    parked = false;
  }
  cv.notify_all();
  pool.WaitIdle();
  db->AttachIndexer(nullptr);  // detach before `pool` goes out of scope
}

TEST_F(IndexerTwinFixture, StoreMaintenanceRunsAtCommitWhileWorkerIsBusy) {
  indexer::ThreadPool pool(1);
  DatabaseOptions options;
  options.title = "Maintenance";
  options.store.checkpoint_threshold_bytes = 4096;
  options.store.compact_threshold_bytes = 1;
  auto db_or = Database::Open(dir_.Sub("maintenance"), options, &clock_);
  ASSERT_OK(db_or);
  Database* db = db_or->get();
  ASSERT_OK(db->CreateView(SubjectView("all", "SELECT @All")).status());
  db->AttachIndexer(&pool);

  // Park the only worker: no index event gets drained, yet checkpoints
  // and compaction slices must still run — they belong to the commit,
  // not to the drain.
  std::mutex mu;
  std::condition_variable cv;
  bool parked = true;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !parked; });
  });

  // Several bucket pages of documents, then rewrite the first ones so
  // pages other than the fill page carry dead bytes.
  std::vector<NoteId> ids;
  for (int i = 0; i < 40; ++i) {
    Note note = MakeDoc("Memo", "doc " + std::to_string(i));
    note.SetText("Body", std::string(400, static_cast<char>('a' + i % 26)));
    ASSERT_OK_AND_ASSIGN(NoteId id, db->CreateNote(std::move(note)));
    ids.push_back(id);
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(Note note, db->ReadNote(ids[i]));
    note.SetText("Subject", "rewritten " + std::to_string(i));
    ASSERT_OK(db->UpdateNote(std::move(note)));
  }
  EXPECT_TRUE(db->HasPendingIndexWork());
  EXPECT_GT(db->store_stats().checkpoints, 0u);
  EXPECT_GT(db->store()->compact_stats().runs, 0u);

  {
    std::lock_guard<std::mutex> lock(mu);
    parked = false;
  }
  cv.notify_all();
  pool.WaitIdle();
  db->AttachIndexer(nullptr);  // detach before `pool` goes out of scope
}

TEST_F(IndexerTwinFixture, PurgeOrdersErasureBehindPendingChanges) {
  indexer::ThreadPool pool(1);
  auto db = OpenDb("purge_order");
  ASSERT_OK_AND_ASSIGN(ViewIndex * view,
                       db->CreateView(SubjectView("all", "SELECT @All")));
  ASSERT_OK(db->EnsureFullTextIndex());
  db->AttachIndexer(&pool);

  // Park the only worker: everything below stays queued until the
  // explicit flush, so the purge's erasure must line up as a kErased
  // event behind the note's still-pending kChanged instead of touching
  // the indexes synchronously (which would let the queued update
  // resurrect the purged note in the view).
  std::mutex mu;
  std::condition_variable cv;
  bool parked = true;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !parked; });
  });

  ASSERT_OK_AND_ASSIGN(NoteId id,
                       db->CreateNote(MakeDoc("Memo", "ephemeral")));
  ASSERT_OK(db->DeleteNote(id));
  clock_.Advance(db->info().purge_interval + 1'000'000);
  ASSERT_OK_AND_ASSIGN(size_t purged, db->PurgeStubs());
  EXPECT_EQ(purged, 1u);
  EXPECT_TRUE(db->HasPendingIndexWork());

  ASSERT_OK(db->FlushIndexes());
  EXPECT_FALSE(db->HasPendingIndexWork());
  EXPECT_EQ(view->size(), 0u);
  EXPECT_EQ(db->fulltext()->doc_count(), 0u);
  ASSERT_OK_AND_ASSIGN(auto hits,
                       db->SearchAs(Principal::User("x"), "ephemeral"));
  EXPECT_TRUE(hits.empty());

  {
    std::lock_guard<std::mutex> lock(mu);
    parked = false;
  }
  cv.notify_all();
  pool.WaitIdle();
  db->AttachIndexer(nullptr);  // detach before `pool` goes out of scope
}

TEST_F(IndexerTwinFixture, ReadPathsCatchUpWithoutExplicitFlush) {
  auto db = OpenDb("catchup");
  ASSERT_OK(db->CreateView(SubjectView("all", "SELECT @All")).status());
  ASSERT_OK(db->EnsureFullTextIndex());
  db->AttachIndexer(&pool_);
  ASSERT_OK(db->CreateNote(MakeDoc("Memo", "findme")).status());

  // No FlushIndexes: FindView / TraverseViewAs / SearchAs must observe
  // the committed write anyway ("refresh on open").
  size_t rows = 0;
  ASSERT_OK(db->TraverseViewAs(Principal::User("x"), "all",
                               [&](const ViewRow&) { ++rows; }));
  EXPECT_EQ(rows, 1u);
  ASSERT_OK_AND_ASSIGN(auto hits,
                       db->SearchAs(Principal::User("x"), "findme"));
  EXPECT_EQ(hits.size(), 1u);
}

TEST_F(IndexerTwinFixture, ConcurrentWritersAndReadersStayConsistent) {
  auto db = OpenDb("stress");
  ASSERT_OK(db->CreateView(SubjectView("all", "SELECT @All")).status());
  ASSERT_OK(db->EnsureFullTextIndex());
  db->AttachIndexer(&pool_);

  constexpr int kWriters = 4;
  constexpr int kDocsPerWriter = 25;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kDocsPerWriter; ++i) {
        Note note = MakeDoc("Memo", StrPrintf("w%d d%d", w, i));
        note.SetText("Body", "stress body " + std::to_string(w));
        auto id = db->CreateNote(std::move(note));
        ASSERT_OK(id);
        if (i % 5 == 0) {
          auto read = db->ReadNote(*id);
          ASSERT_OK(read);
          read->SetText("Subject", read->GetText("Subject") + "!");
          ASSERT_OK(db->UpdateNote(std::move(*read)));
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        size_t rows = 0;
        EXPECT_OK(db->TraverseViewAs(Principal::User("reader"), "all",
                                     [&](const ViewRow&) { ++rows; }));
        EXPECT_OK(db->SearchAs(Principal::User("reader"), "stress").status());
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  ASSERT_OK(db->FlushIndexes());
  const ViewIndex* view = db->FindView("all");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->size(), static_cast<size_t>(kWriters * kDocsPerWriter));
  ASSERT_OK_AND_ASSIGN(auto hits,
                       db->SearchAs(Principal::User("reader"), "stress"));
  EXPECT_EQ(hits.size(), static_cast<size_t>(kWriters * kDocsPerWriter));
}

TEST_F(IndexerTwinFixture, PoolSwitchesWhileWritersRunLoseNoEvent) {
  // Who drains may change at any moment; every committed write must
  // still reach the indexes.
  auto db = OpenDb("switch");
  ASSERT_OK(db->CreateView(SubjectView("all", "SELECT @All")).status());
  ASSERT_OK(db->EnsureFullTextIndex());
  indexer::ThreadPool other(1);

  constexpr int kWriters = 3;
  constexpr int kDocsPerWriter = 30;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kDocsPerWriter; ++i) {
        Note note = MakeDoc("Memo", StrPrintf("w%d d%d", w, i));
        note.SetText("Body", "switch body");
        ASSERT_OK(db->CreateNote(std::move(note)).status());
      }
    });
  }
  std::thread switcher([&] {
    indexer::ThreadPool* pools[] = {&pool_, nullptr, &other, nullptr};
    for (size_t i = 0; !stop.load(); ++i) {
      db->AttachIndexer(pools[i % 4]);
      std::this_thread::yield();
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true);
  switcher.join();
  db->AttachIndexer(nullptr);
  other.WaitIdle();

  ASSERT_OK(db->FlushIndexes());
  EXPECT_FALSE(db->HasPendingIndexWork());
  const ViewIndex* view = db->FindView("all");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->size(), static_cast<size_t>(kWriters * kDocsPerWriter));
  ASSERT_OK_AND_ASSIGN(auto hits,
                       db->SearchAs(Principal::User("reader"), "switch"));
  EXPECT_EQ(hits.size(), static_cast<size_t>(kWriters * kDocsPerWriter));
}

// ---------------------------------------------------------------------------
// Field-scoped postings as slices
// ---------------------------------------------------------------------------

TEST(FieldSliceTest, FieldPostingsMaterializeFromPlainPositions) {
  FullTextIndex index;
  Note note(NoteClass::kDocument);
  note.set_id(7);
  note.SetText("Subject", "alpha beta alpha");
  note.SetText("Body", "gamma alpha");
  index.IndexNote(note);

  // Only plain terms count toward term_count — field-scoped entries are
  // slices, not duplicated postings.
  EXPECT_EQ(index.term_count(), 3u);  // alpha, beta, gamma

  // Postings are keyed by the indexed version, not by the note id.
  ASSERT_EQ(index.all_docs().size(), 1u);
  const FullTextIndex::DocKey key = 0;
  EXPECT_EQ(index.all_docs()[key].note_id, 7u);

  const PostingList* plain = index.FindTerm("alpha");
  ASSERT_NE(plain, nullptr);
  ASSERT_EQ(plain->doc_count(), 1u);
  std::vector<uint32_t> plain_positions;
  ASSERT_TRUE(plain->GetPositions(key, &plain_positions));
  EXPECT_EQ(plain_positions.size(), 3u);  // 2 in Subject + 1 in Body

  FullTextIndex::PostingMap subject =
      index.MaterializeFieldTerm("Subject", "alpha");
  ASSERT_EQ(subject.count(key), 1u);
  EXPECT_EQ(subject.at(key).positions.size(), 2u);
  // The slice references the same stored positions.
  EXPECT_EQ(subject.at(key).positions[0], plain_positions[0]);
  EXPECT_EQ(subject.at(key).positions[1], plain_positions[1]);

  FullTextIndex::PostingMap body = index.MaterializeFieldTerm("Body", "alpha");
  ASSERT_EQ(body.count(key), 1u);
  EXPECT_EQ(body.at(key).positions.size(), 1u);
  EXPECT_TRUE(index.MaterializeFieldTerm("Subject", "gamma").empty());
  EXPECT_TRUE(index.MaterializeFieldTerm("Nope", "alpha").empty());

  // Removal drops both representations.
  index.RemoveNote(7);
  EXPECT_EQ(index.FindTerm("alpha"), nullptr);
  EXPECT_TRUE(index.MaterializeFieldTerm("Subject", "alpha").empty());
}

}  // namespace
}  // namespace dominodb
