// MVCC snapshot isolation: Database::ReadTxn pins an epoch, and every
// read made through the txn — note reads, view traversals, full-text
// search, @DbLookup — resolves at that epoch while writers commit
// concurrently. The deterministic tests drive writer/reader interleavings
// from one thread (a pinned thread may write; the write commits at a
// later epoch the pin does not see); the stress test at the bottom is the
// TSan target.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "agent/agent.h"
#include "base/rng.h"
#include "core/database.h"
#include "formula/formula.h"
#include "indexer/thread_pool.h"
#include "tests/test_util.h"
#include "view/view_design.h"

namespace dominodb {
namespace {

using testing_util::FoundNote;
using testing_util::MakeDoc;
using testing_util::ScratchDir;

class MvccFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(1'000'000'000);
    DatabaseOptions options;
    options.title = "MVCC DB";
    options.purge_interval = 1000;  // so PurgeStubs can fire in-test
    options.stats = &stats_;
    auto db = Database::Open(dir_.Sub("db"), options, &clock_);
    ASSERT_OK(db);
    db_ = std::move(*db);

    std::vector<ViewColumn> cols;
    ViewColumn subject;
    subject.title = "Subject";
    subject.formula_source = "Subject";
    subject.sort = ColumnSort::kAscending;
    cols.push_back(std::move(subject));
    ASSERT_OK(db_->CreateView(*ViewDesign::Create("all", "SELECT @All",
                                                  std::move(cols)))
                  .status());
  }

  size_t CountViewRows() {
    size_t rows = 0;
    EXPECT_OK(db_->TraverseViewAs(reader_, "all", [&](const ViewRow& row) {
      if (row.kind == ViewRow::Kind::kDocument) ++rows;
    }));
    return rows;
  }

  ScratchDir dir_;
  SimClock clock_;
  stats::StatRegistry stats_;
  // Declared before the database: ~Database waits on in-flight drains.
  indexer::ThreadPool pool_{2};
  std::unique_ptr<Database> db_;
  const Principal reader_ = Principal::User("reader");
};

TEST_F(MvccFixture, ViewTraversalIsRepeatableUnderWrites) {
  ASSERT_OK_AND_ASSIGN(NoteId kept, db_->CreateNote(MakeDoc("Memo", "kept")));
  ASSERT_OK_AND_ASSIGN(NoteId doomed,
                       db_->CreateNote(MakeDoc("Memo", "doomed")));
  ASSERT_OK(db_->CreateNote(MakeDoc("Memo", "third")).status());

  Database::ReadTxn txn(db_.get());
  EXPECT_EQ(CountViewRows(), 3u);

  // Commits after the pin: a create, an update and a delete.
  ASSERT_OK(db_->CreateNote(MakeDoc("Memo", "late")).status());
  ASSERT_OK_AND_ASSIGN(Note note, db_->ReadNote(kept));
  note.SetText("Subject", "kept v2");
  ASSERT_OK(db_->UpdateNote(std::move(note)));
  ASSERT_OK(db_->DeleteNote(doomed));

  // The pinned snapshot is unmoved: same rows, same contents.
  EXPECT_EQ(CountViewRows(), 3u);
  ASSERT_OK_AND_ASSIGN(Note at_pin, db_->ReadNote(kept));
  EXPECT_EQ(at_pin.GetText("Subject"), "kept");
  ASSERT_OK_AND_ASSIGN(Note doomed_at_pin, db_->ReadNote(doomed));
  EXPECT_EQ(doomed_at_pin.GetText("Subject"), "doomed");
  bool saw_late = false;
  db_->ForEachLiveNote([&](const Note& n) {
    saw_late = saw_late || n.GetText("Subject") == "late";
  });
  EXPECT_FALSE(saw_late);
}

TEST_F(MvccFixture, DroppingThePinRevealsLaterCommits) {
  ASSERT_OK_AND_ASSIGN(NoteId id, db_->CreateNote(MakeDoc("Memo", "v1")));
  {
    Database::ReadTxn txn(db_.get());
    ASSERT_OK_AND_ASSIGN(Note note, db_->ReadNote(id));
    note.SetText("Subject", "v2");
    ASSERT_OK(db_->UpdateNote(std::move(note)));
    ASSERT_OK_AND_ASSIGN(Note pinned, db_->ReadNote(id));
    EXPECT_EQ(pinned.GetText("Subject"), "v1");
    EXPECT_GT(db_->mvcc().live_versions(), 0u);
  }
  // Unpinned: the latest state is visible and the overlay is empty again.
  ASSERT_OK_AND_ASSIGN(Note latest, db_->ReadNote(id));
  EXPECT_EQ(latest.GetText("Subject"), "v2");
  EXPECT_EQ(db_->mvcc().live_versions(), 0u);
  EXPECT_EQ(db_->mvcc().pinned_count(), 0u);
  const stats::Counter* reclaimed =
      stats_.FindCounter("Db.Mvcc.ReclaimedVersions");
  ASSERT_NE(reclaimed, nullptr);
  EXPECT_GT(reclaimed->value(), 0u);
}

TEST_F(MvccFixture, FullTextSearchRunsAtThePinnedEpoch) {
  Note old_doc = MakeDoc("Memo", "old");
  old_doc.SetText("Body", "lotus domino architecture");
  ASSERT_OK_AND_ASSIGN(NoteId old_id, db_->CreateNote(std::move(old_doc)));
  ASSERT_OK(db_->EnsureFullTextIndex());

  Database::ReadTxn txn(db_.get());
  // After the pin: rewrite the matching doc so it no longer matches, and
  // add a fresh doc that does.
  ASSERT_OK_AND_ASSIGN(Note rewrite, db_->ReadNote(old_id));
  rewrite.SetText("Body", "nothing of note");
  ASSERT_OK(db_->UpdateNote(std::move(rewrite)));
  Note late = MakeDoc("Memo", "late");
  late.SetText("Body", "lotus arrives late");
  ASSERT_OK(db_->CreateNote(std::move(late)).status());

  // At the pin, only the original document matched "lotus" — the hit is
  // its replaced version, kept in the index for the pin and resolved to
  // the overlay pre-image, and the post-pin doc is filtered.
  ASSERT_OK_AND_ASSIGN(auto hits, db_->SearchAs(reader_, "lotus"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id(), old_id);
  EXPECT_EQ(hits[0].GetText("Subject"), "old");
}

// A reader pinned before a rewrite keeps its single-term ranking after
// another thread's catch-up applies the rewrite: the replaced version stays
// in the index as a zombie and is scored in the same corpus as every other
// hit, so all hits share the term's idf.
TEST_F(MvccFixture, SearchRankingIsRepeatableAcrossAnotherThreadsCatchUp) {
  Note target = MakeDoc("Memo", "target");
  target.SetText("Body", "lotus lotus");  // twice: ranks first at the pin
  ASSERT_OK_AND_ASSIGN(NoteId target_id, db_->CreateNote(std::move(target)));
  for (int i = 0; i < 3; ++i) {
    Note doc = MakeDoc("Memo", "match " + std::to_string(i));
    doc.SetText("Body", "lotus notes");
    ASSERT_OK(db_->CreateNote(std::move(doc)).status());
  }
  for (int i = 0; i < 16; ++i) {
    Note doc = MakeDoc("Memo", "other " + std::to_string(i));
    doc.SetText("Body", "domino server");
    ASSERT_OK(db_->CreateNote(std::move(doc)).status());
  }
  ASSERT_OK(db_->EnsureFullTextIndex());

  // Park the only worker so the rewrite's event waits for a catch-up.
  indexer::ThreadPool pool(1);
  db_->AttachIndexer(&pool);
  std::mutex mu;
  std::condition_variable cv;
  bool parked = true;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !parked; });
  });
  auto ids = [](const std::vector<Note>& notes) {
    std::vector<NoteId> out;
    for (const Note& note : notes) out.push_back(note.id());
    return out;
  };

  {
    Database::ReadTxn txn(db_.get());
    ASSERT_OK_AND_ASSIGN(auto before, db_->SearchAs(reader_, "lotus"));
    ASSERT_EQ(before.size(), 4u);
    EXPECT_EQ(before[0].id(), target_id);
    std::thread([&] {
      ASSERT_OK_AND_ASSIGN(Note rewrite, db_->ReadNote(target_id));
      rewrite.SetText("Body", "nothing of note");
      ASSERT_OK(db_->UpdateNote(std::move(rewrite)));
      EXPECT_TRUE(db_->HasPendingIndexWork());
      Database::ReadTxn catch_up(db_.get());  // applies the rewrite
    }).join();
    EXPECT_FALSE(db_->HasPendingIndexWork());
    EXPECT_EQ(db_->fulltext()->zombie_count(), 1u);
    ASSERT_OK_AND_ASSIGN(auto after, db_->SearchAs(reader_, "lotus"));
    EXPECT_EQ(ids(after), ids(before));
  }
  // Unpinned, the rewrite no longer matches.
  ASSERT_OK_AND_ASSIGN(auto latest, db_->SearchAs(reader_, "lotus"));
  EXPECT_EQ(latest.size(), 3u);

  {
    std::lock_guard<std::mutex> lock(mu);
    parked = false;
  }
  cv.notify_all();
  pool.WaitIdle();
  db_->AttachIndexer(nullptr);  // detach before `pool` goes out of scope
}

// The last unpin on an idle database sweeps both indexes: a quiescent
// database keeps no zombie version in the view or the full-text index.
TEST_F(MvccFixture, LastUnpinLeavesNoZombieInEitherIndex) {
  ASSERT_OK(db_->EnsureFullTextIndex());
  db_->AttachIndexer(&pool_);
  std::vector<NoteId> ids;
  for (int i = 0; i < 8; ++i) {
    Note doc = MakeDoc("Memo", "doc " + std::to_string(i));
    doc.SetText("Body", "lotus version one");
    ASSERT_OK_AND_ASSIGN(NoteId id, db_->CreateNote(std::move(doc)));
    ids.push_back(id);
  }
  ASSERT_OK(db_->FlushIndexes());
  {
    Database::ReadTxn txn(db_.get());
    // Writes from the pinned thread commit after the pin.
    for (NoteId id : ids) {
      ASSERT_OK_AND_ASSIGN(Note doc, db_->ReadNote(id));
      doc.SetText("Subject", "rewritten " + std::to_string(id));
      doc.SetText("Body", "domino version two");
      ASSERT_OK(db_->UpdateNote(std::move(doc)));
    }
    ASSERT_OK(db_->DeleteNote(ids[0]));
    ASSERT_OK(db_->FlushIndexes());
    EXPECT_GT(db_->FindView("all")->zombie_count(), 0u);
    EXPECT_GT(db_->fulltext()->zombie_count(), 0u);
  }
  EXPECT_FALSE(db_->HasPendingIndexWork());
  EXPECT_EQ(db_->FindView("all")->zombie_count(), 0u);
  EXPECT_EQ(db_->fulltext()->zombie_count(), 0u);
  db_->AttachIndexer(nullptr);
}

TEST_F(MvccFixture, DbLookupJoinsTheEnclosingPin) {
  Note rate(NoteClass::kDocument);
  rate.SetText("Form", "Rate");
  rate.SetText("Code", "EUR");
  rate.SetNumber("Rate", 1.08);
  ASSERT_OK_AND_ASSIGN(NoteId rate_id, db_->CreateNote(std::move(rate)));
  std::vector<ViewColumn> cols;
  ViewColumn code;
  code.title = "Code";
  code.formula_source = "Code";
  code.sort = ColumnSort::kAscending;
  cols.push_back(std::move(code));
  ViewColumn value;
  value.title = "Rate";
  value.formula_source = "Rate";
  cols.push_back(std::move(value));
  ASSERT_OK(db_->CreateView(*ViewDesign::Create("Rates",
                                                "SELECT Form = \"Rate\"",
                                                std::move(cols)))
                .status());

  Database::ReadTxn txn(db_.get());
  ASSERT_OK_AND_ASSIGN(Note bump, db_->ReadNote(rate_id));
  bump.SetNumber("Rate", 2.0);
  ASSERT_OK(db_->UpdateNote(std::move(bump)));

  // The lookup's nested ReadTxn must reuse this thread's pin, so the
  // formula sees the rate as of the snapshot, not the fresh commit.
  formula::EvalContext ctx;
  db_->BindFormulaServices(&ctx);
  ASSERT_OK_AND_ASSIGN(
      Value looked,
      formula::EvaluateFormula("@DbLookup(\"\"; \"Rates\"; \"EUR\"; 2)",
                               ctx));
  ASSERT_EQ(looked.numbers().size(), 1u);
  EXPECT_DOUBLE_EQ(looked.numbers()[0], 1.08);
}

TEST_F(MvccFixture, PurgedStubStaysVisibleToPinnedReader) {
  Note doc = MakeDoc("Memo", "short lived");
  ASSERT_OK_AND_ASSIGN(NoteId id, db_->CreateNote(std::move(doc)));
  ASSERT_OK_AND_ASSIGN(Note created, db_->ReadNote(id));
  const Unid unid = created.unid();
  ASSERT_OK(db_->DeleteNote(id));
  clock_.Advance(10'000'000);  // well past the 1ms purge interval

  Database::ReadTxn txn(db_.get());
  ASSERT_OK_AND_ASSIGN(size_t purged, db_->PurgeStubs());
  EXPECT_EQ(purged, 1u);
  EXPECT_EQ(db_->stub_count(), 0u);  // physically gone from the store
  // ...but the pinned reader still resolves the stub through the overlay
  // (replication change summaries must not lose deletions mid-session).
  ASSERT_OK_AND_ASSIGN(Note stub, db_->GetAnyByUnid(unid));
  EXPECT_TRUE(stub.deleted());
  bool summarized = false;
  ASSERT_OK_AND_ASSIGN(auto changes, db_->ChangeSummarySince(0));
  for (const auto& change : changes) {
    summarized = summarized || change.oid.unid == unid;
  }
  EXPECT_TRUE(summarized);
}

TEST_F(MvccFixture, OverlayDrainsAfterPurgeUnderPin) {
  ASSERT_OK_AND_ASSIGN(NoteId id, db_->CreateNote(MakeDoc("Memo", "x")));
  ASSERT_OK_AND_ASSIGN(Note created, db_->ReadNote(id));
  const Unid unid = created.unid();
  ASSERT_OK(db_->DeleteNote(id));
  clock_.Advance(10'000'000);
  {
    Database::ReadTxn txn(db_.get());
    ASSERT_OK(db_->PurgeStubs().status());
    EXPECT_GT(db_->mvcc().live_versions(), 0u);
  }
  EXPECT_EQ(db_->mvcc().live_versions(), 0u);
  EXPECT_EQ(db_->GetAnyByUnid(unid).status().code(), StatusCode::kNotFound);
}

TEST_F(MvccFixture, ReadTxnCatchesUpDeferredIndexWorkToItsPin) {
  db_->AttachIndexer(&pool_);
  ASSERT_OK(db_->CreateNote(MakeDoc("Memo", "queued")).status());
  // Whether or not the background drain has run yet, a reader pinned now
  // must see the committed document in the view.
  Database::ReadTxn txn(db_.get());
  EXPECT_EQ(CountViewRows(), 1u);
}

// Satellite regression for the old catch-up design, which released the
// shared lock, flushed under the exclusive lock and retried: a reader
// mid-traversal must never observe a note committed after its pin, no
// matter how the writer interleaves.
TEST_F(MvccFixture, MidTraversalReaderNeverSeesPostPinCommit) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(
        db_->CreateNote(MakeDoc("Memo", "pre " + std::to_string(i)))
            .status());
  }
  size_t rows = 0;
  bool injected = false;
  ASSERT_OK(db_->TraverseViewAs(reader_, "all", [&](const ViewRow& row) {
    if (row.kind != ViewRow::Kind::kDocument) return;
    ++rows;
    if (!injected) {
      injected = true;
      // Commit from another thread while this traversal is mid-flight.
      std::thread writer([this] {
        EXPECT_OK(db_->CreateNote(MakeDoc("Memo", "mid-flight")).status());
        EXPECT_OK(db_->FlushIndexes());
      });
      writer.join();
    }
  }));
  EXPECT_TRUE(injected);
  EXPECT_EQ(rows, 4u);  // the mid-flight commit is invisible to this pin
  EXPECT_EQ(CountViewRows(), 5u);  // a fresh pin sees it
}

TEST_F(MvccFixture, StressReadersSeeConsistentSnapshots) {
  // 4 readers × 2 writers; primarily a TSan/ASan target (scripts/check.sh
  // runs this under all sanitizers via --mvcc-stress), but the in-txn
  // invariants below catch snapshot tearing under any build: within one
  // ReadTxn, the view row count and any note's contents are stable no
  // matter what the writers commit.
  db_->AttachIndexer(&pool_);
  ASSERT_OK_AND_ASSIGN(NoteId anchor,
                       db_->CreateNote(MakeDoc("Memo", "anchor 0")));

  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kDocsPerWriter = 40;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots_checked{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<NoteId> mine;
      for (int i = 0; i < kDocsPerWriter; ++i) {
        auto id = db_->CreateNote(
            MakeDoc("Memo", StrPrintf("w%d.%d", w, i)));
        EXPECT_OK(id);
        if (id.ok()) mine.push_back(*id);
        if (i % 3 == 1) {
          // Bump the anchor; concurrent bumps may lose the sequence race
          // (Conflict), which is fine — some bumps land.
          auto note = db_->ReadNote(anchor);
          if (note.ok()) {
            note->SetText("Subject", "anchor " + std::to_string(i));
            (void)db_->UpdateNote(std::move(*note));
          }
        }
        if (i % 5 == 4 && mine.size() > 1) {
          EXPECT_OK(db_->DeleteNote(mine.back()));
          mine.pop_back();
        }
        if (i % 11 == 7) EXPECT_OK(db_->PurgeStubs().status());
      }
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      // do-while: every reader completes at least one full check even if
      // the writers finish first.
      do {
        Database::ReadTxn txn(db_.get());
        const size_t first = CountViewRows();
        auto a1 = db_->ReadNote(anchor);
        const size_t second = CountViewRows();
        auto a2 = db_->ReadNote(anchor);
        EXPECT_EQ(first, second);
        ASSERT_OK(a1);
        ASSERT_OK(a2);
        EXPECT_EQ(a1->GetText("Subject"), a2->GetText("Subject"));
        EXPECT_EQ(a1->sequence(), a2->sequence());
        snapshots_checked.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  EXPECT_GT(snapshots_checked.load(), 0u);

  // Quiesced: no pins, so the overlay and the view zombies are gone.
  ASSERT_OK(db_->FlushIndexes());
  EXPECT_EQ(db_->mvcc().pinned_count(), 0u);
  EXPECT_EQ(db_->mvcc().live_versions(), 0u);
  size_t live_docs = 0;
  db_->ForEachLiveNote([&](const Note& note) {
    if (note.note_class() == NoteClass::kDocument) ++live_docs;
  });
  EXPECT_EQ(CountViewRows(), live_docs);
}

// -- Differential: the modified-in-file index vs a full scan ------------
//
// ChangeSummarySince, ForEachLiveNote and the new-and-changed agent are
// answered from the store's (modified_in_file, id) index and a live-only
// scan. The oracle here is the full ScanAt scan (ForEachNote) filtered the
// way the scan-based implementations filtered it. Seeded random steps mix
// creates, updates, deletes, remote installs, stub purges, checkpoints,
// compaction and close/reopen, with a ReadTxn held across some of them so
// the overlay path (notes rewritten or purged after the pin) is exercised.

using ChangeRow = std::tuple<Micros, Unid, uint32_t, Micros>;

std::vector<ChangeRow> SummaryRows(const Database& db, Micros cutoff) {
  std::vector<ChangeRow> rows;
  auto changes = db.ChangeSummarySince(cutoff);
  EXPECT_OK(changes.status());
  for (const Database::Change& c : changes.value_or({})) {
    rows.emplace_back(c.stamp, c.oid.unid, c.oid.sequence,
                      c.oid.sequence_time);
  }
  return rows;
}

// Every note at the caller's snapshot, in summary order; a summary at
// cutoff c is the suffix with stamp > c.
std::vector<ChangeRow> OracleSummaryRows(const Database& db) {
  std::vector<ChangeRow> rows;
  db.ForEachNote([&](const Note& note) {
    rows.emplace_back(note.modified_in_file(), note.unid(), note.sequence(),
                      note.sequence_time());
  });
  std::sort(rows.begin(), rows.end(),
            [](const ChangeRow& a, const ChangeRow& b) {
              if (std::get<0>(a) != std::get<0>(b)) {
                return std::get<0>(a) < std::get<0>(b);
              }
              return std::get<1>(a) < std::get<1>(b);
            });
  return rows;
}

using LiveRow = std::tuple<NoteId, uint32_t, Micros>;

std::vector<LiveRow> LiveRows(const Database& db, bool oracle) {
  std::vector<LiveRow> rows;
  auto add = [&](const Note& note) {
    if (!note.deleted()) {
      rows.emplace_back(note.id(), note.sequence(), note.sequence_time());
    }
  };
  if (oracle) {
    db.ForEachNote(add);
  } else {
    db.ForEachLiveNote(add);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class ChangeIndexDifferential : public ::testing::TestWithParam<uint64_t> {
 protected:
  void Open() {
    DatabaseOptions options;
    options.title = "local";
    options.purge_interval = 5'000;
    options.stats = &stats_;
    // A tiny threshold so the store also checkpoints on its own.
    options.store.checkpoint_threshold_bytes = 16 << 10;
    auto db = Database::Open(dir_.Sub("local"), options, &clock_);
    ASSERT_OK(db);
    db_ = std::move(*db);
    runner_ = std::make_unique<AgentRunner>(db_.get());
    agent_cutoff_ = 0;  // a fresh runner has seen nothing
  }

  Note NewDoc(const std::string& subject) {
    Note note = MakeDoc("Memo", subject);
    note.SetNumber("Touched", 0);
    return note;
  }

  // How many times the agent has touched each live document.
  std::map<Unid, double> TouchedByUnid() {
    std::map<Unid, double> touched;
    db_->ForEachNote([&](const Note& note) {
      if (!note.deleted() && note.note_class() == NoteClass::kDocument) {
        touched[note.unid()] = note.GetNumber("Touched");
      }
    });
    return touched;
  }

  // The agent must touch exactly the live documents the oracle scan says
  // changed since its previous run, each once.
  void RunAgentAndCheck() {
    std::vector<Unid> expected;
    db_->ForEachNote([&](const Note& note) {
      if (!note.deleted() && note.note_class() == NoteClass::kDocument &&
          note.modified_in_file() > agent_cutoff_) {
        expected.push_back(note.unid());
      }
    });
    std::map<Unid, double> before = TouchedByUnid();
    ASSERT_OK_AND_ASSIGN(AgentRunReport report, runner_->RunAgent("Touch"));
    EXPECT_EQ(report.docs_scanned, expected.size());
    EXPECT_EQ(report.docs_modified, expected.size());
    std::map<Unid, double> after = TouchedByUnid();
    ASSERT_EQ(before.size(), after.size());
    for (const Unid& unid : expected) before[unid] += 1;
    EXPECT_EQ(before, after);
    agent_cutoff_ = db_->last_write_stamp();
  }

  void CheckAgainstOracle(const std::vector<Micros>& stamps, Rng* rng) {
    std::vector<Micros> cutoffs = {0, db_->last_write_stamp()};
    for (int k = 0; k < 3 && !stamps.empty(); ++k) {
      const Micros past = stamps[rng->Uniform(stamps.size())];
      cutoffs.push_back(past);
      cutoffs.push_back(past - 1);
    }
    const std::vector<ChangeRow> oracle = OracleSummaryRows(*db_);
    // The store's index itself must be exact (no stale or missing keys),
    // not just filtered into shape by the resolve step above it.
    std::vector<std::pair<Micros, NoteId>> latest;
    db_->store()->ForEach([&](const Note& note) {
      latest.emplace_back(note.modified_in_file(), note.id());
    });
    std::sort(latest.begin(), latest.end());
    for (Micros cutoff : cutoffs) {
      std::vector<ChangeRow> expected;
      for (const ChangeRow& row : oracle) {
        if (std::get<0>(row) > cutoff) expected.push_back(row);
      }
      ASSERT_EQ(SummaryRows(*db_, cutoff), expected) << "cutoff " << cutoff;
      std::vector<NoteId> expected_ids;
      for (const auto& [stamp, id] : latest) {
        if (stamp > cutoff) expected_ids.push_back(id);
      }
      ASSERT_EQ(db_->store()->IdsModifiedSince(cutoff), expected_ids)
          << "cutoff " << cutoff;
    }
    ASSERT_EQ(LiveRows(*db_, false), LiveRows(*db_, true));
  }

  testing_util::ScratchDir dir_;
  SimClock clock_;
  stats::StatRegistry stats_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<AgentRunner> runner_;
  Micros agent_cutoff_ = 0;
};

TEST_P(ChangeIndexDifferential, SummaryAndLiveScanMatchFullScanOracle) {
  constexpr int kSteps = 300;
  Rng rng(GetParam());
  clock_.Set(1'000'000'000);
  Open();
  ASSERT_NE(db_, nullptr);
  ASSERT_OK(runner_->AddAgent(*AgentDesign::Create(
      "Touch", AgentTrigger::kOnNewAndChanged, 0, "SELECT Form = \"Memo\"",
      "FIELD Touched := Touched + 1")));

  // The remote replica whose notes InstallRemoteNote brings in.
  DatabaseOptions remote_options;
  remote_options.title = "remote";
  remote_options.stats = &stats_;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> remote,
                       Database::Open(dir_.Sub("remote"), remote_options,
                                      &clock_));
  std::vector<Unid> remote_unids;

  std::optional<Database::ReadTxn> pin;
  std::vector<Micros> stamps;  // earlier last_write_stamp values
  // Writers act on the latest state, read from the store directly: under
  // a held pin every Database read would return the pinned versions.
  auto live_ids = [&]() {
    std::vector<NoteId> ids;
    db_->store()->ForEach(
        [&](const Note& note) {
          if (note.note_class() == NoteClass::kDocument) {
            ids.push_back(note.id());
          }
        },
        NoteStore::Visit::kLiveOnly);
    return ids;
  };

  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " step " +
                 std::to_string(step));
    clock_.Advance(rng.Range(0, 2'000));
    const uint64_t op = rng.Uniform(100);
    if (op < 30) {
      ASSERT_OK(db_->CreateNote(NewDoc("c" + std::to_string(step))).status());
    } else if (op < 50) {
      std::vector<NoteId> ids = live_ids();
      if (!ids.empty()) {
        const NoteId id = ids[rng.Uniform(ids.size())];
        ASSERT_OK_AND_ASSIGN(Note note, FoundNote(db_->store()->Find(id)));
        note.SetText("Subject", "u" + std::to_string(step));
        ASSERT_OK(db_->UpdateNote(std::move(note)));
      }
    } else if (op < 62) {
      std::vector<NoteId> ids = live_ids();
      if (!ids.empty()) {
        ASSERT_OK(db_->DeleteNote(ids[rng.Uniform(ids.size())]));
      }
    } else if (op < 77) {
      // Remote create, update or delete, then install the result here.
      const uint64_t kind = remote_unids.empty() ? 0 : rng.Uniform(3);
      Unid unid;
      if (kind == 0) {
        ASSERT_OK_AND_ASSIGN(
            NoteId rid,
            remote->CreateNote(NewDoc("r" + std::to_string(step))));
        ASSERT_OK_AND_ASSIGN(Note created, remote->ReadNote(rid));
        unid = created.unid();
        remote_unids.push_back(unid);
      } else {
        unid = remote_unids[rng.Uniform(remote_unids.size())];
        ASSERT_OK_AND_ASSIGN(Note current, remote->GetAnyByUnid(unid));
        if (current.deleted()) {
          // Re-ship the stub as is.
        } else if (kind == 1) {
          current.SetText("Subject", "ru" + std::to_string(step));
          ASSERT_OK(remote->UpdateNote(std::move(current)));
        } else {
          ASSERT_OK(remote->DeleteNote(current.id()));
        }
      }
      ASSERT_OK_AND_ASSIGN(Note incoming, remote->GetAnyByUnid(unid));
      ASSERT_OK(db_->InstallRemoteNote(std::move(incoming)));
    } else if (op < 85) {
      clock_.Advance(rng.Range(0, 10'000));
      ASSERT_OK(db_->PurgeStubs().status());
    } else if (op < 88) {
      ASSERT_OK(db_->Checkpoint());
    } else if (op < 90) {
      ASSERT_OK(db_->RunCompact());  // moves notes; stamps must follow
    } else if (op < 93) {
      if (!pin.has_value()) {
        runner_.reset();
        db_.reset();
        Open();
        ASSERT_NE(db_, nullptr);
      }
    } else if (op < 97) {
      if (pin.has_value()) {
        pin.reset();
      } else {
        pin.emplace(db_.get(), /*catch_up=*/false);
      }
    } else if (!pin.has_value()) {
      RunAgentAndCheck();
    }
    stamps.push_back(db_->last_write_stamp());
    CheckAgainstOracle(stamps, &rng);
    if (HasFatalFailure()) return;
  }
  pin.reset();
  RunAgentAndCheck();
}

// Four seeds × 300 steps: 1 200 differential steps per run.
INSTANTIATE_TEST_SUITE_P(Seeds, ChangeIndexDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace dominodb
