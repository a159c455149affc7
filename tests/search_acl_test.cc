// Differential test of Database::SearchAs, the ACL-checked full-text
// search. SearchAs searches the versioned index at its pin and resolves
// every hit through the store's decoded-note cache; the oracles here
// rebuild the answer from public calls only — ReadTxn + ReadNote (which
// joins the pin) + CanReadDocument, over a fresh index of the notes
// visible at the pin (the result set) and over
// FullTextIndex::Search(word, pin) (the result order) — and compare
// under seeded churn: updates that change the indexed words, reader and
// author edits, deletes, PurgeStubs, ACL edits, and pins held across
// writes. Every returned note must also be the version ReadNote sees at
// the pin, so a stale cache entry shows up as a content mismatch.
//
// DOMINO_SEARCH_ACL_ROUNDS overrides the number of seeded rounds (default
// 300 per mode).

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "core/database.h"
#include "fulltext/fulltext_index.h"
#include "indexer/thread_pool.h"
#include "security/acl.h"
#include "tests/random_acl.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

using testing_util::kPrincipalCount;
using testing_util::PrincipalAt;
using testing_util::RandomAcl;
using testing_util::RandomizeSecurity;
using testing_util::ScratchDir;

const char* const kWords[] = {"alpha", "bravo", "charlie", "delta", "echo"};

size_t Rounds() {
  const char* env = std::getenv("DOMINO_SEARCH_ACL_ROUNDS");
  return env != nullptr ? static_cast<size_t>(std::atoll(env)) : 300;
}

/// What a result row must match: id, version and content.
std::string Signature(const Note& note) {
  std::string sig = std::to_string(note.id()) + "#" +
                    std::to_string(note.sequence()) + ":";
  for (const Item& item : note.items()) {
    sig += item.name + "=" + item.value.ToDisplayString() + ";";
  }
  return sig;
}

std::vector<std::string> Signatures(const std::vector<Note>& notes) {
  std::vector<std::string> out;
  for (const Note& note : notes) out.push_back(Signature(note));
  return out;
}

class SearchAclFixture : public ::testing::TestWithParam<bool> {
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
    ASSERT_OK(db_->EnsureFullTextIndex());
  }

  void RandomizeWords(Rng* rng, Note* doc) {
    std::string subject;
    for (size_t i = 0, n = 1 + rng->Uniform(3); i < n; ++i) {
      subject += std::string(kWords[rng->Uniform(std::size(kWords))]) + " ";
    }
    doc->SetText("Subject", subject + std::to_string(next_subject_++));
  }

  Note NewDoc(Rng* rng) {
    Note doc(NoteClass::kDocument);
    doc.SetText("Form", "Topic");
    RandomizeWords(rng, &doc);
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
  std::string MutateUnpinned(Rng* rng) {
    std::string what;
    std::thread([&] { what = Mutate(rng); }).join();
    return what;
  }

  std::string Mutate(Rng* rng) {
    clock_.Advance(10'000);
    std::vector<NoteId> live = LiveDocuments();
    const uint64_t dice = rng->Uniform(100);
    if (live.empty() || dice < 25) {
      auto id = db_->CreateNote(NewDoc(rng));
      EXPECT_OK(id);
      if (id.ok()) ids_.insert(*id);
      return "create";
    }
    const NoteId id = live[rng->Uniform(live.size())];
    if (dice < 65) {
      auto note = db_->ReadNote(id);
      EXPECT_OK(note);
      if (!note.ok()) return "update (unreadable)";
      if (rng->Bernoulli(0.5)) RandomizeWords(rng, &*note);
      if (rng->Bernoulli(0.5)) RandomizeSecurity(rng, &*note);
      EXPECT_OK(db_->UpdateNote(std::move(*note)));
      return "update " + std::to_string(id);
    }
    if (dice < 80) {
      EXPECT_OK(db_->DeleteNote(id));
      return "delete " + std::to_string(id);
    }
    if (dice < 90) {
      clock_.Advance(kPurgeStep);
      EXPECT_OK(db_->PurgeStubs().status());
      return "purge";
    }
    EXPECT_OK(db_->SetAcl(RandomAcl(rng)));
    return "acl";
  }

  /// Compares SearchAs with the oracles for every principal and word at
  /// the current pin (the caller's, when it holds one): the same notes as
  /// a full search of what the pin sees, in the order of the database
  /// index's hits at the pin.
  void ExpectSearchesAgree(const std::string& where) {
    Database::ReadTxn txn(db_.get());
    // The documents visible at the pin, indexed afresh: the answer to a
    // full search at the pin, whatever was rewritten after it.
    std::map<NoteId, Note> visible;
    stats::StatRegistry scratch_stats;
    FullTextIndex at_pin(&scratch_stats);
    for (NoteId id : ids_) {
      Result<Note> note = db_->ReadNote(id);
      if (!note.ok()) continue;
      at_pin.IndexNote(*note);
      visible.emplace(id, std::move(*note));
    }
    for (size_t p = 0; p < kPrincipalCount; ++p) {
      const Principal& who = PrincipalAt(p);
      const AccessContext access = ResolveAccess(db_->acl(), who);
      for (const char* word : kWords) {
        const std::string label = where + " " + who.name + "/" + word +
                                  " at epoch " + std::to_string(txn.epoch());
        ASSERT_OK_AND_ASSIGN(std::vector<Note> actual,
                             db_->SearchAs(who, word));
        ASSERT_OK_AND_ASSIGN(std::vector<FtHit> hits, at_pin.Search(word));
        std::set<std::string> expected_set;
        for (const FtHit& hit : hits) {
          const Note& note = visible.at(hit.note_id);
          if (CanReadDocument(access, who, note)) {
            expected_set.insert(Signature(note));
          }
        }
        std::vector<std::string> got = Signatures(actual);
        EXPECT_EQ(std::set<std::string>(got.begin(), got.end()),
                  expected_set)
            << label;
        EXPECT_EQ(got.size(), expected_set.size()) << label << " duplicates";
        ASSERT_OK_AND_ASSIGN(std::vector<FtHit> main_hits,
                             db_->fulltext()->Search(word, txn.epoch()));
        std::vector<std::string> expected;
        for (const FtHit& hit : main_hits) {
          Result<Note> note = db_->ReadNote(hit.note_id);
          ASSERT_TRUE(note.ok()) << label << ": main index hit "
                                 << hit.note_id;
          if (CanReadDocument(access, who, *note)) {
            expected.push_back(Signature(*note));
          }
        }
        EXPECT_EQ(got, expected) << label << " (order)";
      }
    }
  }

  static constexpr Micros kPurgeStep = 1'000'000;

  ScratchDir dir_;
  SimClock clock_;
  stats::StatRegistry stats_;
  // Declared before the database: ~Database waits on in-flight drains.
  indexer::ThreadPool pool_{2};
  std::unique_ptr<Database> db_;
  std::set<NoteId> ids_;  // every document ever created, purged included
  int next_subject_ = 0;
};

TEST_P(SearchAclFixture, SearchAsMatchesReadNoteOracle) {
  Rng rng(GetParam() ? 0x5ea7c1 : 0x5ea7c0);
  for (int i = 0; i < 40; ++i) MutateUnpinned(&rng);
  const size_t rounds = Rounds();
  // A pin held across several rounds: writes made while it is open commit
  // after it, so SearchAs must answer from the versions they replaced.
  std::optional<Database::ReadTxn> held;
  for (size_t round = 0; round < rounds; ++round) {
    std::string what = MutateUnpinned(&rng);
    if (!held.has_value() && rng.Bernoulli(0.3)) {
      held.emplace(db_.get(), /*catch_up=*/rng.Bernoulli(0.5));
      if (rng.Bernoulli(0.5)) what += ", pin, " + MutateUnpinned(&rng);
    }
    const std::string where =
        "round " + std::to_string(round) + " after " + what +
        (held.has_value() ? " (pinned)" : "");
    ExpectSearchesAgree(where);
    if (::testing::Test::HasFatalFailure()) return;
    if (held.has_value() && rng.Bernoulli(0.25)) {
      held.reset();
      ExpectSearchesAgree(where + ", unpinned");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  held.reset();
  ASSERT_OK(db_->FlushIndexes());
  ExpectSearchesAgree("final");
}

INSTANTIATE_TEST_SUITE_P(Indexing, SearchAclFixture, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Deferred" : "Inline";
                         });

}  // namespace
}  // namespace dominodb
