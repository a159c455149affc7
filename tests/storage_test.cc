#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "base/coding.h"
#include "base/crc32c.h"
#include "base/env.h"
#include "base/rng.h"
#include "storage/note_store.h"
#include "tests/test_util.h"
#include "wal/log_format.h"
#include "wal/log_reader.h"

namespace dominodb {
namespace {

using testing_util::FirstLogSegment;
using testing_util::MakeDoc;
using testing_util::ScratchDir;

// -------------------------------------------------------------------- WAL --

TEST(WalTest, WriteAndReadRecords) {
  std::string contents;
  wal::AppendFrameTo(&contents, wal::RecordType::kData, "one");
  wal::AppendFrameTo(&contents, wal::RecordType::kCheckpoint, "");
  wal::AppendFrameTo(&contents, wal::RecordType::kData,
                     std::string(100000, 'z'));
  wal::LogReader reader(contents);
  wal::RecordType type;
  std::string_view payload;
  ASSERT_TRUE(reader.ReadRecord(&type, &payload));
  EXPECT_EQ(type, wal::RecordType::kData);
  EXPECT_EQ(payload, "one");
  ASSERT_TRUE(reader.ReadRecord(&type, &payload));
  EXPECT_EQ(type, wal::RecordType::kCheckpoint);
  ASSERT_TRUE(reader.ReadRecord(&type, &payload));
  EXPECT_EQ(payload.size(), 100000u);
  EXPECT_FALSE(reader.ReadRecord(&type, &payload));
  EXPECT_FALSE(reader.tail_corrupted());
}

class WalTornTailSweep : public ::testing::TestWithParam<int> {};

TEST_P(WalTornTailSweep, TruncationYieldsCommittedPrefix) {
  std::vector<std::string> payloads = {"alpha", "bravo", "charlie", "delta"};
  std::string full;
  for (const auto& p : payloads) {
    wal::AppendFrameTo(&full, wal::RecordType::kData, p);
  }
  // Cut `cut` bytes off the tail.
  size_t cut = static_cast<size_t>(GetParam());
  ASSERT_LE(cut, full.size());
  wal::LogReader reader(full.substr(0, full.size() - cut));
  wal::RecordType type;
  std::string_view payload;
  size_t read = 0;
  while (reader.ReadRecord(&type, &payload)) {
    ASSERT_LT(read, payloads.size());
    EXPECT_EQ(payload, payloads[read]);  // any record read must be intact
    ++read;
  }
  if (cut == 0) {
    EXPECT_EQ(read, payloads.size());
  } else {
    EXPECT_LT(read, payloads.size());
  }
}

INSTANTIATE_TEST_SUITE_P(CutPoints, WalTornTailSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 11, 12, 20));

TEST(WalTest, CorruptedRecordStopsIteration) {
  std::string contents;
  wal::AppendFrameTo(&contents, wal::RecordType::kData, "good");
  wal::AppendFrameTo(&contents, wal::RecordType::kData, "soon bad");
  contents[contents.size() - 2] ^= 0x40;  // flip a bit in the last payload
  wal::LogReader reader(contents);
  wal::RecordType type;
  std::string_view payload;
  ASSERT_TRUE(reader.ReadRecord(&type, &payload));
  EXPECT_EQ(payload, "good");
  EXPECT_FALSE(reader.ReadRecord(&type, &payload));
  EXPECT_TRUE(reader.tail_corrupted());
}

// -------------------------------------------------------------- NoteStore --

StoreOptions FastOptions() {
  StoreOptions options;
  options.sync_mode = wal::SyncMode::kNone;
  options.checkpoint_threshold_bytes = 0;  // manual checkpoints in tests
  return options;
}

DatabaseInfo TestInfo() {
  DatabaseInfo info;
  info.replica_id = Unid{0xabc, 0xdef};
  info.title = "store test";
  return info;
}

Note StampedDoc(const std::string& subject, uint64_t unid_lo, Micros t) {
  Note note = MakeDoc("Memo", subject);
  note.StampCreated(Unid{0x11, unid_lo}, t);
  return note;
}

TEST(NoteStoreTest, PutGetAndUnidIndex) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), FastOptions(),
                                       TestInfo()));
  Note note = StampedDoc("hello", 1, 100);
  ASSERT_OK(store->Put(&note));
  EXPECT_NE(note.id(), kInvalidNoteId);
  ASSERT_OK_AND_ASSIGN(Note by_id, store->Get(note.id()));
  EXPECT_EQ(by_id.GetText("Subject"), "hello");
  ASSERT_OK_AND_ASSIGN(Note by_unid, store->GetByUnid(note.unid()));
  EXPECT_EQ(by_unid.id(), note.id());
  EXPECT_EQ(store->note_count(), 1u);
  EXPECT_FALSE(store->Get(9999).ok());
}

TEST(NoteStoreTest, PutRequiresUnid) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), FastOptions(),
                                       TestInfo()));
  Note note = MakeDoc("Memo", "unstamped");
  EXPECT_FALSE(store->Put(&note).ok());
}

TEST(NoteStoreTest, RecoveryReplaysWal) {
  ScratchDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(dir.Sub("db"), FastOptions(),
                                         TestInfo()));
    for (int i = 0; i < 50; ++i) {
      Note note = StampedDoc(StrPrintf("n%d", i),
                             static_cast<uint64_t>(i + 1), 100 + i);
      ASSERT_OK(store->Put(&note));
    }
  }
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), FastOptions(),
                                       TestInfo()));
  EXPECT_EQ(store->note_count(), 50u);
  // 50 puts + the initial metadata record.
  EXPECT_EQ(store->stats().recovered_records, 51u);
  ASSERT_OK_AND_ASSIGN(Note n, store->GetByUnid(Unid{0x11, 7}));
  EXPECT_EQ(n.GetText("Subject"), "n6");
}

TEST(NoteStoreTest, CheckpointThenReopen) {
  ScratchDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(dir.Sub("db"), FastOptions(),
                                         TestInfo()));
    for (int i = 0; i < 20; ++i) {
      Note note = StampedDoc("pre" + std::to_string(i),
                             static_cast<uint64_t>(i + 1), i);
      ASSERT_OK(store->Put(&note));
    }
    ASSERT_OK(store->Checkpoint());
    EXPECT_LT(store->wal_size_bytes(), 16u);  // truncated
    Note extra = StampedDoc("post", 999, 1000);
    ASSERT_OK(store->Put(&extra));
  }
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), FastOptions(),
                                       TestInfo()));
  EXPECT_EQ(store->note_count(), 21u);
  EXPECT_EQ(store->stats().recovered_records, 1u);  // only the post-ckpt put
  EXPECT_EQ(store->info().title, "store test");
}

TEST(NoteStoreTest, RefusesStoreOfAnotherFormatVersion) {
  // notes.meta = "DMET1" + blob (version byte first) + masked CRC of the
  // blob. Rewrite the version as 1 (the 32-byte id-table layout) with a
  // valid CRC: open must refuse it by name, not misread the id table.
  ScratchDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(dir.Sub("db"), FastOptions(),
                                         TestInfo()));
    Note note = StampedDoc("old", 1, 10);
    ASSERT_OK(store->Put(&note));
    ASSERT_OK(store->Checkpoint());
  }
  const std::string meta_path = dir.Sub("db") + "/notes.meta";
  ASSERT_OK_AND_ASSIGN(std::string meta, ReadFileToString(meta_path));
  constexpr size_t kMagicLen = 5;
  std::string blob = meta.substr(kMagicLen, meta.size() - kMagicLen - 4);
  blob[0] = 1;
  std::string old_meta = meta.substr(0, kMagicLen) + blob;
  PutFixed32(&old_meta, crc32c::Mask(crc32c::Value(blob)));
  ASSERT_OK(WriteFileAtomic(meta_path, old_meta));

  auto reopened = NoteStore::Open(dir.Sub("db"), FastOptions(), TestInfo());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(reopened.status().message().find("version 1"), std::string::npos)
      << reopened.status().ToString();
}

TEST(NoteStoreTest, CrashTruncationRecoversCommittedPrefix) {
  ScratchDir dir;
  std::string db_dir = dir.Sub("db");
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(db_dir, FastOptions(), TestInfo()));
    for (int i = 0; i < 30; ++i) {
      Note note = StampedDoc(StrPrintf("c%d", i),
                             static_cast<uint64_t>(i + 1), i);
      ASSERT_OK(store->Put(&note));
    }
  }
  // Simulate a torn write: chop arbitrary byte counts off the WAL tail.
  std::string wal_path = FirstLogSegment(db_dir);
  ASSERT_OK_AND_ASSIGN(uint64_t size, FileSize(wal_path));
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    uint64_t cut = rng.Uniform(size / 2) + 1;
    ASSERT_OK(TruncateFile(wal_path, size - cut));
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(db_dir, FastOptions(), TestInfo()));
    // Every recovered note must be fully intact.
    size_t count = 0;
    store->ForEach([&](const Note& note) {
      EXPECT_TRUE(note.GetText("Subject").starts_with("c"));
      ++count;
    });
    EXPECT_EQ(count, store->total_count());
    EXPECT_LT(count, 30u);
    size = size - cut;
    if (size < 10) break;
  }
}

// Recovery cuts a torn tail off the log, so a commit made after the crash
// is not stranded behind unreadable bytes at the next recovery.
TEST(NoteStoreTest, CrashThenCommitSurvivesNextRecovery) {
  ScratchDir dir;
  std::string db_dir = dir.Sub("db");
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(db_dir, FastOptions(), TestInfo()));
    for (int i = 0; i < 5; ++i) {
      Note note = StampedDoc("t" + std::to_string(i),
                             static_cast<uint64_t>(i + 1), i);
      ASSERT_OK(store->Put(&note));
    }
  }
  std::string wal_path = FirstLogSegment(db_dir);
  ASSERT_OK_AND_ASSIGN(uint64_t size, FileSize(wal_path));
  ASSERT_OK(TruncateFile(wal_path, size - 3));
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(db_dir, FastOptions(), TestInfo()));
    EXPECT_TRUE(store->stats().recovered_torn_tail);
    EXPECT_EQ(store->note_count(), 4u);
    Note late = StampedDoc("late", 100, 100);
    ASSERT_OK(store->Put(&late));
  }
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(db_dir, FastOptions(), TestInfo()));
  EXPECT_FALSE(store->stats().recovered_torn_tail);
  EXPECT_EQ(store->note_count(), 5u);
  ASSERT_OK_AND_ASSIGN(Note late, store->GetByUnid(Unid{0x11, 100}));
  EXPECT_EQ(late.GetText("Subject"), "late");
}

// The kNone contract: Put returns once the commit has reached the OS, so
// a process crash loses no acknowledged commit (a power loss may). A copy
// of a still-open, never-checkpointed store is what such a crash leaves.
TEST(NoteStoreTest, CrashOfProcessKeepsAcknowledgedCommits) {
  ScratchDir dir;
  ASSERT_EQ(FastOptions().sync_mode, wal::SyncMode::kNone);
  constexpr int kNotes = 100;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), FastOptions(),
                                       TestInfo()));
  for (int i = 0; i < kNotes; ++i) {
    Note note = StampedDoc("ack" + std::to_string(i),
                           static_cast<uint64_t>(i + 1), i);
    ASSERT_OK(store->Put(&note));
  }
  std::error_code ec;
  std::filesystem::copy(dir.Sub("db"), dir.Sub("crashed"),
                        std::filesystem::copy_options::recursive, ec);
  ASSERT_FALSE(ec) << ec.message();
  ASSERT_OK_AND_ASSIGN(auto recovered,
                       NoteStore::Open(dir.Sub("crashed"), FastOptions(),
                                       TestInfo()));
  EXPECT_EQ(recovered->note_count(), static_cast<size_t>(kNotes));
  for (int i = 0; i < kNotes; ++i) {
    ASSERT_OK_AND_ASSIGN(
        Note note,
        recovered->GetByUnid(Unid{0x11, static_cast<uint64_t>(i + 1)}));
    EXPECT_EQ(note.GetText("Subject"), "ack" + std::to_string(i));
  }
}

TEST(NoteStoreTest, StubsAndPurge) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), FastOptions(),
                                       TestInfo()));
  Note note = StampedDoc("to delete", 1, 1000);
  ASSERT_OK(store->Put(&note));
  note.MakeStub(2000);
  note.set_modified_in_file(2000);
  ASSERT_OK(store->Put(&note));
  EXPECT_EQ(store->note_count(), 0u);
  EXPECT_EQ(store->stub_count(), 1u);
  const Micros interval = store->info().purge_interval;
  const Micros seen_by_all = std::numeric_limits<Micros>::max();
  // An age cutoff within the purge interval: the stub is not eligible.
  ASSERT_OK_AND_ASSIGN(std::vector<NoteId> young,
                       store->PurgeableStubs(3000 - interval, seen_by_all));
  EXPECT_TRUE(young.empty());
  // Old enough, but a peer has not seen its stamp yet: still kept.
  Micros later = 2000 + interval + 1'000'000;
  ASSERT_OK_AND_ASSIGN(std::vector<NoteId> unseen,
                       store->PurgeableStubs(later - interval, 1999));
  EXPECT_TRUE(unseen.empty());
  // Old enough and seen by every peer: the stub goes.
  ASSERT_OK_AND_ASSIGN(std::vector<NoteId> victims,
                       store->PurgeableStubs(later - interval, seen_by_all));
  ASSERT_EQ(victims, std::vector<NoteId>{note.id()});
  ASSERT_OK(store->Erase(victims[0]));
  EXPECT_EQ(store->stub_count(), 0u);
  EXPECT_FALSE(store->GetByUnid(Unid{0x11, 1}).ok());
}

TEST(NoteStoreTest, EraseRemovesPhysically) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), FastOptions(),
                                       TestInfo()));
  Note note = StampedDoc("bye", 3, 10);
  ASSERT_OK(store->Put(&note));
  ASSERT_OK(store->Erase(note.id()));
  EXPECT_EQ(store->total_count(), 0u);
  EXPECT_FALSE(store->Erase(note.id()).ok());
}

// FindMany is Find over a list: same handles, in input order, whatever
// the order, duplicates, absent ids, stubs, erased ids and
// kInvalidNoteId. 512-byte pages hold 12 id-table entries each, so the
// 60 notes span 5 id-table pages.
TEST(NoteStoreTest, FindManyEqualsFindPerId) {
  ScratchDir dir;
  StoreOptions options = FastOptions();
  options.page_size = 512;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, TestInfo()));
  std::vector<NoteId> ids;
  for (int i = 0; i < 60; ++i) {
    Note note = StampedDoc(StrPrintf("n%d", i), 100 + i, 1000 + i);
    ASSERT_OK(store->Put(&note));
    ids.push_back(note.id());
    if (i % 7 == 3) {  // a deletion stub: Find returns the stub
      note.MakeStub(5000 + i);
      ASSERT_OK(store->Put(&note));
    }
  }
  ASSERT_OK(store->Erase(ids[10]));
  ASSERT_OK(store->Erase(ids[41]));
  ASSERT_GE(ids.back(), 3 * ((512 - pager::kPageHeaderSize) / 40));

  Rng rng(7);
  std::vector<NoteId> query;
  for (int i = 0; i < 200; ++i) {
    switch (rng.Uniform(5)) {
      case 0:
        query.push_back(kInvalidNoteId);
        break;
      case 1:
        query.push_back(ids.back() + 1 + rng.Uniform(100));  // never used
        break;
      default:
        query.push_back(ids[rng.Uniform(ids.size())]);
        break;
    }
  }
  query.push_back(ids[10]);  // erased
  query.push_back(ids[3]);   // a stub

  // Twice: the first pass decodes, the second finds the note cache warm.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<NoteHandle> many = store->FindMany(query);
    ASSERT_EQ(many.size(), query.size());
    for (size_t i = 0; i < query.size(); ++i) {
      NoteHandle one = store->Find(query[i]);
      ASSERT_EQ(many[i] == nullptr, one == nullptr) << "id " << query[i];
      if (one == nullptr) continue;
      EXPECT_EQ(many[i]->id(), query[i]);
      EXPECT_EQ(many[i]->EncodeToString(), one->EncodeToString());
      // Warm, both hand out the cached note itself.
      if (pass == 1) {
        EXPECT_EQ(many[i], one) << "id " << query[i];
      }
    }
  }
  EXPECT_TRUE(store->FindMany(query).back()->deleted());
  EXPECT_EQ(store->FindMany({ids[10], kInvalidNoteId, ids[41]}),
            (std::vector<NoteHandle>{nullptr, nullptr, nullptr}));
  EXPECT_TRUE(store->FindMany({}).empty());
}

TEST(NoteStoreTest, CorruptBucketPageIsAReadErrorNotAnAbsentNote) {
  ScratchDir dir;
  const std::string db_dir = dir.Sub("db");
  StoreOptions options = FastOptions();
  options.page_size = 512;
  NoteId id = kInvalidNoteId;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(db_dir, options, TestInfo()));
    Note note = StampedDoc("fragile", 1, 100);
    ASSERT_OK(store->Put(&note));
    id = note.id();
    ASSERT_OK(store->Checkpoint());
  }
  // Tear the bucket page on disk: its second half reads back as zeros,
  // so the page fails its CRC when the reopened store first reads it.
  const std::string pages_path = db_dir + "/notes.pages";
  ASSERT_OK_AND_ASSIGN(std::string pages, ReadFileToString(pages_path));
  uint64_t bucket = pages.size();
  for (uint64_t off = 0; off < pages.size(); off += options.page_size) {
    if (pages[off + pager::kPageTypeOffset] == pager::kPageBucket) {
      bucket = off;
      break;
    }
  }
  ASSERT_LT(bucket, pages.size()) << "no bucket page";
  {
    ASSERT_OK_AND_ASSIGN(auto file, RandomAccessFile::Open(pages_path));
    ASSERT_OK(file->Write(bucket + options.page_size / 2,
                          std::string(options.page_size / 2, '\0')));
  }

  stats::StatRegistry stats;
  options.stats = &stats;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(db_dir, options, TestInfo()));
  const stats::Counter& errors = stats.GetCounter("Database.ReadErrors");
  // An id beyond the table is absent, not an error.
  EXPECT_EQ(store->Find(id + 1000), nullptr);
  EXPECT_EQ(errors.value(), 0u);

  EXPECT_EQ(store->Find(id), nullptr);
  EXPECT_EQ(errors.value(), 1u);
  EXPECT_EQ(store->FindMany({id}), std::vector<NoteHandle>{nullptr});
  EXPECT_EQ(errors.value(), 2u);
  Result<Note> got = store->Get(id);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();

  size_t warnings = 0;
  for (const stats::Event& event : stats.events().Events()) {
    if (event.severity != stats::Severity::kWarning) continue;
    ++warnings;
    EXPECT_EQ(event.source, "Store");
    EXPECT_NE(event.message.find("note id " + std::to_string(id)),
              std::string::npos)
        << event.message;
    EXPECT_NE(event.message.find("CRC mismatch"), std::string::npos)
        << event.message;
  }
  EXPECT_EQ(warnings, 2u);
}

TEST(NoteStoreTest, UpdateInfoPersists) {
  ScratchDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(dir.Sub("db"), FastOptions(),
                                         TestInfo()));
    DatabaseInfo info = store->info();
    info.title = "renamed";
    info.purge_interval = 12345;
    ASSERT_OK(store->UpdateInfo(info));
  }
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), FastOptions(),
                                       TestInfo()));
  EXPECT_EQ(store->info().title, "renamed");
  EXPECT_EQ(store->info().purge_interval, 12345);
}

TEST(NoteStoreTest, MaybeCheckpointHonorsThreshold) {
  ScratchDir dir;
  StoreOptions options = FastOptions();
  options.checkpoint_threshold_bytes = 4096;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, TestInfo()));
  // Commits never checkpoint inline — a Put cannot stall on a snapshot.
  for (int i = 0; i < 200; ++i) {
    Note note = StampedDoc(std::string(100, 'x'),
                           static_cast<uint64_t>(i + 1), i);
    ASSERT_OK(store->Put(&note));
  }
  EXPECT_EQ(store->stats().checkpoints, 0u);
  EXPECT_GT(store->wal_size_bytes(), options.checkpoint_threshold_bytes);
  // The explicit maintenance hook snapshots once over threshold, and is a
  // no-op right after.
  ASSERT_OK(store->MaybeCheckpoint());
  EXPECT_EQ(store->stats().checkpoints, 1u);
  ASSERT_OK(store->MaybeCheckpoint());
  EXPECT_EQ(store->stats().checkpoints, 1u);
  EXPECT_EQ(store->note_count(), 200u);
}

TEST(NoteStoreTest, RandomizedWorkloadMatchesModel) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), FastOptions(),
                                       TestInfo()));
  Rng rng(99);
  std::map<NoteId, std::string> model;  // id → subject
  Micros t = 1;
  for (int op = 0; op < 800; ++op) {
    double dice = rng.NextDouble();
    if (dice < 0.6 || model.empty()) {
      Note note = StampedDoc(rng.Word(3, 12), rng.Next(), t++);
      ASSERT_OK(store->Put(&note));
      model[note.id()] = note.GetText("Subject");
    } else if (dice < 0.85) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_OK_AND_ASSIGN(Note note, store->Get(it->first));
      note.SetText("Subject", rng.Word(3, 12));
      note.BumpSequence(t++);
      ASSERT_OK(store->Put(&note));
      it->second = note.GetText("Subject");
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_OK(store->Erase(it->first));
      model.erase(it);
    }
  }
  EXPECT_EQ(store->total_count(), model.size());
  for (const auto& [id, subject] : model) {
    ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
    EXPECT_EQ(note.GetText("Subject"), subject);
  }
}

}  // namespace
}  // namespace dominodb
