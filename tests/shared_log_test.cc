#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/env.h"
#include "core/database.h"
#include "server/server.h"
#include "stats/stats.h"
#include "storage/note_store.h"
#include "tests/test_util.h"
#include "wal/shared_log.h"

namespace dominodb {
namespace {

using testing_util::CopyDirTree;
using testing_util::FoundNote;
using testing_util::MakeDoc;
using testing_util::ScratchDir;

wal::SharedLogOptions BufferedLog(stats::StatRegistry* stats = nullptr) {
  wal::SharedLogOptions options;
  options.sync_mode = wal::SyncMode::kNone;
  options.stats = stats;
  return options;
}

// ------------------------------------------------------------ SharedLog --

TEST(SharedLogTest, MultiplexedStreamsReplayIndependently) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
  ASSERT_OK_AND_ASSIGN(uint32_t a, log->RegisterStream("a.nsf"));
  ASSERT_OK_AND_ASSIGN(uint32_t b, log->RegisterStream("b.nsf"));
  ASSERT_NE(a, b);
  // Interleave commits from the two streams.
  for (int i = 0; i < 6; ++i) {
    uint32_t stream = i % 2 == 0 ? a : b;
    std::string payload = (stream == a ? "a" : "b") + std::to_string(i);
    ASSERT_OK(log->Commit(stream, wal::RecordType::kData, payload));
  }
  std::vector<std::string> got_a, got_b;
  bool torn = true;
  ASSERT_OK(log->ReplayStream(
      a,
      [&](wal::RecordType type, std::string_view payload) {
        EXPECT_EQ(type, wal::RecordType::kData);
        got_a.emplace_back(payload);
        return Status::Ok();
      },
      &torn));
  EXPECT_FALSE(torn);
  ASSERT_OK(log->ReplayStream(
      b,
      [&](wal::RecordType, std::string_view payload) {
        got_b.emplace_back(payload);
        return Status::Ok();
      },
      nullptr));
  EXPECT_EQ(got_a, (std::vector<std::string>{"a0", "a2", "a4"}));
  EXPECT_EQ(got_b, (std::vector<std::string>{"b1", "b3", "b5"}));
  // Unregistered streams are rejected.
  EXPECT_FALSE(log->Commit(99, wal::RecordType::kData, "x").ok());
}

TEST(SharedLogTest, ReopenKeepsStreamIdsAndRecords) {
  ScratchDir dir;
  uint32_t a = 0, b = 0;
  {
    ASSERT_OK_AND_ASSIGN(
        auto log, wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
    ASSERT_OK_AND_ASSIGN(a, log->RegisterStream("a.nsf"));
    ASSERT_OK_AND_ASSIGN(b, log->RegisterStream("b.nsf"));
    ASSERT_OK(log->Commit(a, wal::RecordType::kData, "one"));
    ASSERT_OK(log->Commit(b, wal::RecordType::kData, "two"));
  }
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
  // Re-registration returns the persisted ids.
  ASSERT_OK_AND_ASSIGN(uint32_t a2, log->RegisterStream("a.nsf"));
  ASSERT_OK_AND_ASSIGN(uint32_t b2, log->RegisterStream("b.nsf"));
  EXPECT_EQ(a2, a);
  EXPECT_EQ(b2, b);
  int seen = 0;
  ASSERT_OK(log->ReplayStream(
      a,
      [&](wal::RecordType, std::string_view payload) {
        EXPECT_EQ(payload, "one");
        ++seen;
        return Status::Ok();
      },
      nullptr));
  EXPECT_EQ(seen, 1);
}

TEST(SharedLogTest, SerializedModeSyncsPerCommit) {
  // Group commit with one committer: each commit is its own group.
  ScratchDir dir;
  stats::StatRegistry stats;
  wal::SharedLogOptions options;
  options.sync_mode = wal::SyncMode::kGroupCommit;
  options.stats = &stats;
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), options));
  ASSERT_OK_AND_ASSIGN(uint32_t a, log->RegisterStream("a.nsf"));
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(log->Commit(a, wal::RecordType::kData, "r"));
  }
  // One fsync per commit: nothing to amortize without company.
  EXPECT_EQ(stats.GetCounter("Server.WAL.Syncs").value(), 5u);
  EXPECT_EQ(stats.GetCounter("Server.WAL.SyncsSaved").value(), 0u);
}

TEST(SharedLogTest, CheckpointLowWaterMarksGateTruncation) {
  ScratchDir dir;
  wal::SharedLogOptions options = BufferedLog();
  options.segment_bytes = 256;  // roll aggressively
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), options));
  ASSERT_OK_AND_ASSIGN(uint32_t a, log->RegisterStream("a.nsf"));
  ASSERT_OK_AND_ASSIGN(uint32_t b, log->RegisterStream("b.nsf"));
  std::string blob(128, 'x');
  for (int i = 0; i < 12; ++i) {
    ASSERT_OK(log->Commit(i % 2 == 0 ? a : b, wal::RecordType::kData, blob));
  }
  ASSERT_GT(log->current_segment(), 2u);
  EXPECT_EQ(log->first_segment(), 1u);
  // One stream checkpointing alone truncates nothing: the other stream
  // still needs the old segments.
  ASSERT_OK(log->AdvanceCheckpoint(a));
  EXPECT_EQ(log->first_segment(), 1u);
  EXPECT_TRUE(FileExists(log->SegmentPath(1)));
  // Once every stream's mark passes a segment it is physically deleted.
  ASSERT_OK(log->AdvanceCheckpoint(b));
  EXPECT_EQ(log->first_segment(), log->current_segment());
  EXPECT_FALSE(FileExists(log->SegmentPath(1)));
  // The log still works after truncation, including across a reopen.
  ASSERT_OK(log->Commit(a, wal::RecordType::kData, "post"));
  log.reset();
  ASSERT_OK_AND_ASSIGN(log, wal::SharedLog::Open(dir.Sub("txnlog"), options));
  int seen = 0;
  ASSERT_OK(log->ReplayStream(
      a,
      [&](wal::RecordType type, std::string_view payload) {
        if (type == wal::RecordType::kData && payload == "post") ++seen;
        return Status::Ok();
      },
      nullptr));
  EXPECT_EQ(seen, 1);
}

// Torn tail of the multiplexed log: cut bytes off the final segment and
// verify committed-prefix semantics PER STREAM — a torn frame only costs
// the records at or after the cut, never an earlier record of any stream.
class SharedLogTornTailSweep : public ::testing::TestWithParam<int> {};

TEST_P(SharedLogTornTailSweep, CommittedPrefixPerStream) {
  ScratchDir dir;
  const int kRecords = 8;  // alternating a0 b1 a2 b3 ...
  std::string seg_path;
  uint32_t a = 0, b = 0;
  {
    ASSERT_OK_AND_ASSIGN(
        auto log, wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
    ASSERT_OK_AND_ASSIGN(a, log->RegisterStream("a.nsf"));
    ASSERT_OK_AND_ASSIGN(b, log->RegisterStream("b.nsf"));
    for (int i = 0; i < kRecords; ++i) {
      uint32_t stream = i % 2 == 0 ? a : b;
      ASSERT_OK(log->Commit(stream, wal::RecordType::kData,
                            "payload-" + std::to_string(i)));
    }
    seg_path = log->SegmentPath(log->current_segment());
  }
  ASSERT_OK_AND_ASSIGN(uint64_t full_size, FileSize(seg_path));
  const uint64_t cut = static_cast<uint64_t>(GetParam());
  ASSERT_LE(cut, full_size);
  ASSERT_OK(TruncateFile(seg_path, full_size - cut));

  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
  bool torn_a = false, torn_b = false;
  std::vector<int> got_a, got_b;
  auto collect = [](std::vector<int>* out) {
    return [out](wal::RecordType, std::string_view payload) {
      std::string s(payload);
      out->push_back(std::stoi(s.substr(strlen("payload-"))));
      return Status::Ok();
    };
  };
  ASSERT_OK(log->ReplayStream(a, collect(&got_a), &torn_a));
  ASSERT_OK(log->ReplayStream(b, collect(&got_b), &torn_b));
  EXPECT_EQ(torn_a, torn_b);  // same physical tail
  if (cut == 0) {
    EXPECT_FALSE(torn_a);
  }
  // Each stream recovered a prefix of ITS commits, in order, intact.
  for (size_t i = 0; i < got_a.size(); ++i) {
    EXPECT_EQ(got_a[i], static_cast<int>(2 * i));
  }
  for (size_t i = 0; i < got_b.size(); ++i) {
    EXPECT_EQ(got_b[i], static_cast<int>(2 * i + 1));
  }
  // The global committed prefix: the total survivors are the first k
  // records for some k, so the streams' counts differ by at most one.
  const int total = static_cast<int>(got_a.size() + got_b.size());
  if (cut == 0) {
    EXPECT_EQ(total, kRecords);
  } else {
    EXPECT_LT(total, kRecords);
  }
  EXPECT_LE(got_b.size(), got_a.size());
  EXPECT_LE(got_a.size() - got_b.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(CutPoints, SharedLogTornTailSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 17, 21, 40));

void FlipByteMidFile(const std::string& path) {
  ASSERT_OK_AND_ASSIGN(std::string contents, ReadFileToString(path));
  ASSERT_GT(contents.size(), 2u);
  contents[contents.size() / 2] ^= 0x5a;
  ASSERT_OK(WriteFileAtomic(path, contents));
}

// A sealed segment was fsynced before the log moved past it, so a bad
// frame there is corruption, not a crash artifact: replay must stop with
// an error rather than apply the records that follow the hole.
TEST(SharedLogTest, CorruptSealedSegmentFailsReplay) {
  ScratchDir dir;
  wal::SharedLogOptions options = BufferedLog();
  options.segment_bytes = 256;
  uint32_t a = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto log,
                         wal::SharedLog::Open(dir.Sub("txnlog"), options));
    ASSERT_OK_AND_ASSIGN(a, log->RegisterStream("a.nsf"));
    for (int i = 0; log->current_segment() < 3; ++i) {
      ASSERT_OK(log->Commit(a, wal::RecordType::kData,
                            "record-" + std::to_string(i) +
                                std::string(60, 'x')));
    }
    FlipByteMidFile(log->SegmentPath(1));
  }
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), options));
  Status status = log->ReplayStream(
      a, [](wal::RecordType, std::string_view) { return Status::Ok(); },
      nullptr);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find(log->SegmentPath(1)), std::string::npos)
      << status.ToString();
}

// ----------------------------------------------- Append / SyncThrough --

/// The record indices `ReplayStream` recovers from streams `a` and `b` of
/// the log in `dir` (payloads are "r<index>").
std::vector<int> RecoveredIndices(const std::string& dir, uint32_t a,
                                  uint32_t b) {
  std::vector<int> got;
  auto log = wal::SharedLog::Open(dir, BufferedLog());
  EXPECT_OK(log.status());
  if (!log.ok()) return got;
  for (uint32_t stream : {a, b}) {
    EXPECT_OK((*log)->ReplayStream(
        stream,
        [&](wal::RecordType, std::string_view payload) {
          got.push_back(std::stoi(std::string(payload.substr(1))));
          return Status::Ok();
        },
        nullptr));
  }
  std::sort(got.begin(), got.end());
  return got;
}

class SharedLogAppendTest : public ::testing::TestWithParam<wal::SyncMode> {};

// N appends across two streams, then one SyncThrough. A copy of the
// directory taken before the sync recovers a prefix of the append order
// (nothing in kGroupCommit, where unsynced records are still in memory;
// everything in kNone, which writes through); after the sync every record
// is there, and the N appends cost exactly one sync.
TEST_P(SharedLogAppendTest, SyncThroughMakesEveryEarlierAppendDurable) {
  const wal::SyncMode mode = GetParam();
  ScratchDir dir;
  stats::StatRegistry stats;
  wal::SharedLogOptions options;
  options.sync_mode = mode;
  options.stats = &stats;
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), options));
  ASSERT_OK_AND_ASSIGN(uint32_t a, log->RegisterStream("a.nsf"));
  ASSERT_OK_AND_ASSIGN(uint32_t b, log->RegisterStream("b.nsf"));
  constexpr int kRecords = 10;
  const uint64_t syncs_before = stats.GetCounter("Server.WAL.Syncs").value();
  uint64_t last = 0;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_OK_AND_ASSIGN(
        uint64_t seq, log->Append(i % 2 == 0 ? a : b, wal::RecordType::kData,
                                  "r" + std::to_string(i)));
    EXPECT_GT(seq, last);
    last = seq;
  }
  EXPECT_EQ(stats.GetCounter("Server.WAL.Syncs").value(), syncs_before);

  CopyDirTree(dir.Sub("txnlog"), dir.Sub("before_sync"));
  const std::vector<int> before =
      RecoveredIndices(dir.Sub("before_sync"), a, b);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], static_cast<int>(i)) << "not a prefix";
  }
  if (mode == wal::SyncMode::kGroupCommit) {
    EXPECT_TRUE(before.empty());
  }
  if (mode == wal::SyncMode::kNone) {
    EXPECT_EQ(before.size(), size_t{kRecords});
  }

  ASSERT_OK(log->SyncThrough(last));
  EXPECT_EQ(stats.GetCounter("Server.WAL.Syncs").value(),
            syncs_before + (mode == wal::SyncMode::kNone ? 0 : 1));
  // Already durable: a second SyncThrough costs nothing.
  ASSERT_OK(log->SyncThrough(last));
  EXPECT_EQ(stats.GetCounter("Server.WAL.Syncs").value(),
            syncs_before + (mode == wal::SyncMode::kNone ? 0 : 1));

  CopyDirTree(dir.Sub("txnlog"), dir.Sub("after_sync"));
  const std::vector<int> after = RecoveredIndices(dir.Sub("after_sync"), a, b);
  ASSERT_EQ(after.size(), size_t{kRecords});
  for (int i = 0; i < kRecords; ++i) EXPECT_EQ(after[i], i);
}

// Destroying the log is a clean shutdown, not a crash: records appended
// but never synced are flushed and synced, not dropped.
TEST_P(SharedLogAppendTest, DestructionSyncsAppendedRecords) {
  ScratchDir dir;
  wal::SharedLogOptions options;
  options.sync_mode = GetParam();
  uint32_t a = 0, b = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto log,
                         wal::SharedLog::Open(dir.Sub("txnlog"), options));
    ASSERT_OK_AND_ASSIGN(a, log->RegisterStream("a.nsf"));
    ASSERT_OK_AND_ASSIGN(b, log->RegisterStream("b.nsf"));
    for (int i = 0; i < 6; ++i) {
      ASSERT_OK(log->Append(i % 2 == 0 ? a : b, wal::RecordType::kData,
                            StrPrintf("r%d", i))
                    .status());
    }
  }
  EXPECT_EQ(RecoveredIndices(dir.Sub("txnlog"), a, b),
            (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// Stream A holds appended, unsynced records while stream B checkpoints
// and the log rolls segments under B's commits: A must replay in full
// after reopen, its pending records neither stranded nor dropped.
TEST_P(SharedLogAppendTest, PendingAppendsSurviveOtherStreamsCheckpoint) {
  ScratchDir dir;
  wal::SharedLogOptions options;
  options.sync_mode = GetParam();
  options.segment_bytes = 256;  // B's commits roll segments
  uint32_t a = 0, b = 0;
  std::vector<std::string> expected_a;
  {
    ASSERT_OK_AND_ASSIGN(auto log,
                         wal::SharedLog::Open(dir.Sub("txnlog"), options));
    ASSERT_OK_AND_ASSIGN(a, log->RegisterStream("a.nsf"));
    ASSERT_OK_AND_ASSIGN(b, log->RegisterStream("b.nsf"));
    // A checkpointed once already, so only its appends keep it "needed".
    ASSERT_OK(log->AdvanceCheckpoint(a));
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 3; ++i) {
        expected_a.push_back("a" + std::to_string(round) + "-" +
                             std::to_string(i) + std::string(40, 'x'));
        ASSERT_OK(
            log->Append(a, wal::RecordType::kData, expected_a.back()).status());
      }
      ASSERT_OK(log->Commit(b, wal::RecordType::kData, std::string(200, 'b')));
      ASSERT_OK(log->Commit(b, wal::RecordType::kCheckpoint, ""));
      ASSERT_OK(log->AdvanceCheckpoint(b));
    }
    expected_a.push_back("a-tail");
    ASSERT_OK(log->Append(a, wal::RecordType::kData, "a-tail").status());
    ASSERT_OK(log->AdvanceCheckpoint(b));
    EXPECT_GT(log->current_segment(), 1u);
  }
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), options));
  std::vector<std::string> got_a;
  ASSERT_OK(log->ReplayStream(
      a,
      [&](wal::RecordType, std::string_view payload) {
        got_a.emplace_back(payload);
        return Status::Ok();
      },
      nullptr));
  EXPECT_EQ(got_a, expected_a);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SharedLogAppendTest,
    ::testing::Values(wal::SyncMode::kNone, wal::SyncMode::kGroupCommit),
    [](const ::testing::TestParamInfo<wal::SyncMode>& info) {
      switch (info.param) {
        case wal::SyncMode::kNone:
          return "None";
        case wal::SyncMode::kGroupCommit:
          return "GroupCommit";
      }
      return "Unknown";
    });

// ---------------------------------------------- NoteStore on a SharedLog --

StoreOptions SharedStoreOptions(wal::SharedLog* log, uint32_t stream) {
  StoreOptions options;
  options.checkpoint_threshold_bytes = 0;
  options.shared_log = log;
  options.shared_stream = stream;
  return options;
}

DatabaseInfo StoreInfo(uint64_t lo) {
  DatabaseInfo info;
  info.replica_id = Unid{0xabc, lo};
  info.title = "shared store";
  return info;
}

Note StampedDoc(const std::string& subject, uint64_t unid_lo, Micros t) {
  Note note = MakeDoc("Memo", subject);
  note.StampCreated(Unid{0x11, unid_lo}, t);
  return note;
}

TEST(NoteStoreSharedLogTest, TwoStoresRecoverFromOneLog) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
  ASSERT_OK_AND_ASSIGN(uint32_t sa, log->RegisterStream("a.nsf"));
  ASSERT_OK_AND_ASSIGN(uint32_t sb, log->RegisterStream("b.nsf"));
  {
    ASSERT_OK_AND_ASSIGN(auto store_a,
                         NoteStore::Open(dir.Sub("a"),
                                         SharedStoreOptions(log.get(), sa),
                                         StoreInfo(1)));
    ASSERT_OK_AND_ASSIGN(auto store_b,
                         NoteStore::Open(dir.Sub("b"),
                                         SharedStoreOptions(log.get(), sb),
                                         StoreInfo(2)));
    for (int i = 0; i < 10; ++i) {
      Note doc = StampedDoc("a" + std::to_string(i),
                            static_cast<uint64_t>(i + 1), i + 1);
      ASSERT_OK(store_a->Put(&doc));
      Note other = StampedDoc("b" + std::to_string(i),
                              static_cast<uint64_t>(100 + i), i + 1);
      ASSERT_OK(store_b->Put(&other));
    }
  }
  // Reopen everything: each store replays only its own stream.
  log.reset();
  ASSERT_OK_AND_ASSIGN(log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
  ASSERT_OK_AND_ASSIGN(sa, log->RegisterStream("a.nsf"));
  ASSERT_OK_AND_ASSIGN(sb, log->RegisterStream("b.nsf"));
  ASSERT_OK_AND_ASSIGN(auto store_a,
                       NoteStore::Open(dir.Sub("a"),
                                       SharedStoreOptions(log.get(), sa),
                                       StoreInfo(1)));
  ASSERT_OK_AND_ASSIGN(auto store_b,
                       NoteStore::Open(dir.Sub("b"),
                                       SharedStoreOptions(log.get(), sb),
                                       StoreInfo(2)));
  EXPECT_EQ(store_a->note_count(), 10u);
  EXPECT_EQ(store_b->note_count(), 10u);
  // +1: the persisted seed-metadata record of the fresh open.
  EXPECT_EQ(store_a->stats().recovered_records, 11u);
  for (int i = 0; i < 10; ++i) {
    const Unid unid{0x11, static_cast<uint64_t>(i + 1)};
    ASSERT_OK_AND_ASSIGN(Note doc, FoundNote(store_a->FindByUnid(unid)));
    EXPECT_EQ(doc.GetText("Subject"), "a" + std::to_string(i));
  }
}

TEST(NoteStoreSharedLogTest, CheckpointSkipsReplayedRecords) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
  ASSERT_OK_AND_ASSIGN(uint32_t sa, log->RegisterStream("a.nsf"));
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(dir.Sub("a"),
                                         SharedStoreOptions(log.get(), sa),
                                         StoreInfo(1)));
    for (int i = 0; i < 10; ++i) {
      Note doc = StampedDoc("pre", static_cast<uint64_t>(i + 1), i + 1);
      ASSERT_OK(store->Put(&doc));
    }
    ASSERT_OK(store->Checkpoint());
    for (int i = 0; i < 5; ++i) {
      Note doc = StampedDoc("post", static_cast<uint64_t>(50 + i), 20 + i);
      ASSERT_OK(store->Put(&doc));
    }
  }
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("a"),
                                       SharedStoreOptions(log.get(), sa),
                                       StoreInfo(1)));
  // Only the post-checkpoint suffix replays; the snapshot carries the rest.
  EXPECT_EQ(store->stats().recovered_records, 5u);
  EXPECT_EQ(store->note_count(), 15u);
}

TEST(NoteStoreSharedLogTest, TornTailRecoversCommittedPrefixPerStore) {
  ScratchDir dir;
  uint32_t sa = 0, sb = 0;
  std::string seg_path;
  {
    ASSERT_OK_AND_ASSIGN(
        auto log, wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
    ASSERT_OK_AND_ASSIGN(sa, log->RegisterStream("a.nsf"));
    ASSERT_OK_AND_ASSIGN(sb, log->RegisterStream("b.nsf"));
    ASSERT_OK_AND_ASSIGN(auto store_a,
                         NoteStore::Open(dir.Sub("a"),
                                         SharedStoreOptions(log.get(), sa),
                                         StoreInfo(1)));
    ASSERT_OK_AND_ASSIGN(auto store_b,
                         NoteStore::Open(dir.Sub("b"),
                                         SharedStoreOptions(log.get(), sb),
                                         StoreInfo(2)));
    for (int i = 0; i < 8; ++i) {
      Note doc = StampedDoc("a" + std::to_string(i),
                            static_cast<uint64_t>(i + 1), i + 1);
      ASSERT_OK(store_a->Put(&doc));
      Note other = StampedDoc("b" + std::to_string(i),
                              static_cast<uint64_t>(100 + i), i + 1);
      ASSERT_OK(store_b->Put(&other));
    }
    seg_path = log->SegmentPath(log->current_segment());
  }
  // Kill mid-batch: rip 200 bytes off the shared tail (lands inside the
  // interleaved records of both streams).
  ASSERT_OK_AND_ASSIGN(uint64_t size, FileSize(seg_path));
  ASSERT_OK(TruncateFile(seg_path, size - 200));

  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
  ASSERT_OK_AND_ASSIGN(sa, log->RegisterStream("a.nsf"));
  ASSERT_OK_AND_ASSIGN(sb, log->RegisterStream("b.nsf"));
  ASSERT_OK_AND_ASSIGN(auto store_a,
                       NoteStore::Open(dir.Sub("a"),
                                       SharedStoreOptions(log.get(), sa),
                                       StoreInfo(1)));
  ASSERT_OK_AND_ASSIGN(auto store_b,
                       NoteStore::Open(dir.Sub("b"),
                                       SharedStoreOptions(log.get(), sb),
                                       StoreInfo(2)));
  EXPECT_TRUE(store_a->stats().recovered_torn_tail);
  EXPECT_TRUE(store_b->stats().recovered_torn_tail);
  EXPECT_LT(store_a->note_count() + store_b->note_count(), 16u);
  // Every surviving note is intact and is a prefix of its store's writes.
  for (size_t store_idx = 0; store_idx < 2; ++store_idx) {
    NoteStore* store = store_idx == 0 ? store_a.get() : store_b.get();
    const uint64_t base = store_idx == 0 ? 1 : 100;
    const char* prefix = store_idx == 0 ? "a" : "b";
    const size_t count = store->note_count();
    for (size_t i = 0; i < count; ++i) {
      ASSERT_OK_AND_ASSIGN(
          Note doc, FoundNote(store->FindByUnid(Unid{0x11, base + i})));
      EXPECT_EQ(doc.GetText("Subject"), prefix + std::to_string(i));
    }
    EXPECT_FALSE(store->ContainsUnid(Unid{0x11, base + count}));
  }
}

// The same rule seen from a store: a flipped byte in sealed segment 1
// fails the open, while a cut on the final segment is a torn tail and
// still recovers the committed prefix.
class NoteStoreSharedLogDamage : public ::testing::TestWithParam<bool> {};

TEST_P(NoteStoreSharedLogDamage, SealedCorruptionFailsTornTailRecovers) {
  const bool corrupt_sealed = GetParam();
  ScratchDir dir;
  wal::SharedLogOptions options = BufferedLog();
  options.segment_bytes = 256;
  uint32_t sa = 0;
  int written = 0;
  std::string final_segment;
  {
    ASSERT_OK_AND_ASSIGN(auto log,
                         wal::SharedLog::Open(dir.Sub("txnlog"), options));
    ASSERT_OK_AND_ASSIGN(sa, log->RegisterStream("a.nsf"));
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(dir.Sub("a"),
                                         SharedStoreOptions(log.get(), sa),
                                         StoreInfo(1)));
    for (; log->current_segment() < 3; ++written) {
      Note doc = StampedDoc(StrPrintf("d%d", written),
                            static_cast<uint64_t>(written + 1), written + 1);
      ASSERT_OK(store->Put(&doc));
    }
    // Leave the final segment non-empty so there is a tail to tear.
    Note doc = StampedDoc(StrPrintf("d%d", written),
                          static_cast<uint64_t>(written + 1), written + 1);
    ASSERT_OK(store->Put(&doc));
    ++written;
    ASSERT_EQ(log->current_segment(), 3u);
    if (corrupt_sealed) {
      FlipByteMidFile(log->SegmentPath(1));
    } else {
      final_segment = log->SegmentPath(3);
    }
  }
  if (!corrupt_sealed) {
    ASSERT_OK_AND_ASSIGN(uint64_t size, FileSize(final_segment));
    ASSERT_OK(TruncateFile(final_segment, size - 5));
  }
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), options));
  auto reopened = NoteStore::Open(
      dir.Sub("a"), SharedStoreOptions(log.get(), sa), StoreInfo(1));
  if (corrupt_sealed) {
    EXPECT_TRUE(reopened.status().IsCorruption())
        << reopened.status().ToString();
    return;
  }
  ASSERT_OK(reopened.status());
  NoteStore* store = reopened->get();
  EXPECT_TRUE(store->stats().recovered_torn_tail);
  const size_t count = store->note_count();
  EXPECT_LT(count, static_cast<size_t>(written));
  for (size_t i = 0; i < count; ++i) {
    ASSERT_OK_AND_ASSIGN(Note doc,
                         FoundNote(store->FindByUnid(Unid{0x11, i + 1})));
    EXPECT_EQ(doc.GetText("Subject"), "d" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Damage, NoteStoreSharedLogDamage,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "FlipInSealedSegment"
                                             : "CutFinalSegment";
                         });

// ------------------------------------------- checkpoint truncation rule --

// A standalone store runs on a one-stream log of its own. Once its only
// stream checkpoints, nothing in the log is needed: the segment holding
// the 200 puts is dropped and reopen replays nothing.
TEST(NoteStoreSharedLogTest, OneStreamCheckpointDropsWholeLog) {
  ScratchDir dir;
  StoreOptions options;
  options.checkpoint_threshold_bytes = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(dir.Sub("db"), options,
                                         StoreInfo(1)));
    for (int i = 0; i < 200; ++i) {
      Note doc = StampedDoc(StrPrintf("n%d", i),
                            static_cast<uint64_t>(i + 1), i + 1);
      ASSERT_OK(store->Put(&doc));
    }
    ASSERT_OK(store->Checkpoint());
  }
  std::vector<std::string> segments;
  bool have_manifest = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.Sub("db/log"))) {
    const std::string name = entry.path().filename().string();
    if (name == "streams.manifest") {
      have_manifest = true;
    } else {
      segments.push_back(entry.path().string());
    }
  }
  EXPECT_TRUE(have_manifest);
  ASSERT_EQ(segments.size(), 1u);
  ASSERT_OK_AND_ASSIGN(uint64_t segment_size, FileSize(segments[0]));
  EXPECT_EQ(segment_size, 0u);

  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, StoreInfo(1)));
  EXPECT_EQ(store->stats().recovered_records, 0u);
  EXPECT_EQ(store->note_count(), 200u);
}

// Stream B appends after its own checkpoint; A's checkpoint must then keep
// every segment, because B's suffix lives there.
TEST(NoteStoreSharedLogTest, CheckpointKeepsOtherStreamsSuffix) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
  ASSERT_OK_AND_ASSIGN(uint32_t sa, log->RegisterStream("a.nsf"));
  ASSERT_OK_AND_ASSIGN(uint32_t sb, log->RegisterStream("b.nsf"));
  constexpr int kPostCheckpoint = 7;
  {
    ASSERT_OK_AND_ASSIGN(auto store_a,
                         NoteStore::Open(dir.Sub("a"),
                                         SharedStoreOptions(log.get(), sa),
                                         StoreInfo(1)));
    ASSERT_OK_AND_ASSIGN(auto store_b,
                         NoteStore::Open(dir.Sub("b"),
                                         SharedStoreOptions(log.get(), sb),
                                         StoreInfo(2)));
    for (int i = 0; i < 10; ++i) {
      Note doc = StampedDoc("a" + std::to_string(i),
                            static_cast<uint64_t>(i + 1), i + 1);
      ASSERT_OK(store_a->Put(&doc));
      Note other = StampedDoc("b" + std::to_string(i),
                              static_cast<uint64_t>(100 + i), i + 1);
      ASSERT_OK(store_b->Put(&other));
    }
    ASSERT_OK(store_b->Checkpoint());
    for (int i = 0; i < kPostCheckpoint; ++i) {
      Note other = StampedDoc("b-post" + std::to_string(i),
                              static_cast<uint64_t>(200 + i), 50 + i);
      ASSERT_OK(store_b->Put(&other));
    }
    const uint64_t first = log->first_segment();
    const uint64_t current = log->current_segment();
    ASSERT_OK(store_a->Checkpoint());
    EXPECT_EQ(log->first_segment(), first);
    EXPECT_EQ(log->current_segment(), current);
    for (uint64_t seg = first; seg <= current; ++seg) {
      EXPECT_TRUE(FileExists(log->SegmentPath(seg))) << "segment " << seg;
    }
  }
  log.reset();
  ASSERT_OK_AND_ASSIGN(log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), BufferedLog()));
  ASSERT_OK_AND_ASSIGN(auto store_b,
                       NoteStore::Open(dir.Sub("b"),
                                       SharedStoreOptions(log.get(), sb),
                                       StoreInfo(2)));
  EXPECT_EQ(store_b->stats().recovered_records,
            static_cast<uint64_t>(kPostCheckpoint));
  EXPECT_EQ(store_b->note_count(), 10u + kPostCheckpoint);
  for (int i = 0; i < kPostCheckpoint; ++i) {
    const Unid unid{0x11, static_cast<uint64_t>(200 + i)};
    ASSERT_OK_AND_ASSIGN(Note doc, FoundNote(store_b->FindByUnid(unid)));
    EXPECT_EQ(doc.GetText("Subject"), "b-post" + std::to_string(i));
  }
}

// ------------------------------------- group commit, concurrent writers --

// 4 writer threads × 2 databases on one kGroupCommit shared log (TSan
// covers the leader/follower protocol). Afterwards the shared log's
// contents must replay to stores identical to the live ones.
TEST(SharedLogGroupCommitTest, FourWritersTwoDatabasesEquivalence) {
  ScratchDir dir;
  stats::StatRegistry stats;
  wal::SharedLogOptions log_options;
  log_options.sync_mode = wal::SyncMode::kGroupCommit;
  log_options.stats = &stats;
  ASSERT_OK_AND_ASSIGN(auto log,
                       wal::SharedLog::Open(dir.Sub("txnlog"), log_options));
  ASSERT_OK_AND_ASSIGN(uint32_t sa, log->RegisterStream("a.nsf"));
  ASSERT_OK_AND_ASSIGN(uint32_t sb, log->RegisterStream("b.nsf"));

  SimClock clock;
  auto open_db = [&](const std::string& sub, uint32_t stream,
                     uint64_t seed) -> Result<std::unique_ptr<Database>> {
    DatabaseOptions options;
    options.title = sub;
    options.unid_seed = seed;
    options.stats = &stats;
    options.store = SharedStoreOptions(log.get(), stream);
    return Database::Open(dir.Sub(sub), options, &clock);
  };
  ASSERT_OK_AND_ASSIGN(auto db_a, open_db("a", sa, 101));
  ASSERT_OK_AND_ASSIGN(auto db_b, open_db("b", sb, 202));

  constexpr int kWriters = 4;
  constexpr int kDocsPerWriter = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Database* db = w % 2 == 0 ? db_a.get() : db_b.get();
      for (int i = 0; i < kDocsPerWriter; ++i) {
        Note doc = MakeDoc("Memo", StrPrintf("w%d-%d", w, i));
        if (!db->CreateNote(std::move(doc)).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(db_a->note_count() + db_b->note_count(),
            static_cast<size_t>(kWriters * kDocsPerWriter));

  // Snapshot the live contents, then replay the shared log into fresh
  // stores and compare byte-for-byte.
  auto contents_of = [](const std::function<
      void(const std::function<void(const Note&)>&)>& for_each) {
    std::map<std::string, std::string> notes;  // unid → encoded
    for_each([&](const Note& note) {
      notes[note.unid().ToString()] = note.EncodeToString();
    });
    return notes;
  };
  auto live_a = contents_of(
      [&](const std::function<void(const Note&)>& fn) {
        db_a->ForEachNote(fn);
      });
  auto live_b = contents_of(
      [&](const std::function<void(const Note&)>& fn) {
        db_b->ForEachNote(fn);
      });

  for (int side = 0; side < 2; ++side) {
    const uint32_t stream = side == 0 ? sa : sb;
    const auto& live = side == 0 ? live_a : live_b;
    ASSERT_OK_AND_ASSIGN(
        auto replayed,
        NoteStore::Open(dir.Sub(side == 0 ? "replay_a" : "replay_b"),
                        SharedStoreOptions(log.get(), stream),
                        StoreInfo(static_cast<uint64_t>(side))));
    auto got = contents_of(
        [&](const std::function<void(const Note&)>& fn) {
          replayed->ForEach(fn);
        });
    EXPECT_EQ(got.size(), live.size());
    EXPECT_EQ(got, live) << "stream " << stream
                         << " replay diverged from the live store";
  }

  // Group commit really grouped: every commit durable, syncs sub-linear
  // accounting consistent.
  const uint64_t commits = stats.GetCounter("Server.WAL.Commits").value();
  const uint64_t syncs = stats.GetCounter("Server.WAL.Syncs").value();
  const uint64_t saved = stats.GetCounter("Server.WAL.SyncsSaved").value();
  const uint64_t leaders = stats.GetCounter("Server.WAL.Leaders").value();
  const uint64_t followers = stats.GetCounter("Server.WAL.Followers").value();
  EXPECT_EQ(leaders + followers, commits);
  EXPECT_GE(commits, static_cast<uint64_t>(kWriters * kDocsPerWriter));
  EXPECT_LE(syncs, commits);
  EXPECT_EQ(saved, commits - syncs);
}

// ------------------------------------------------------- Server wiring --

TEST(ServerSharedLogTest, DatabasesShareOneLogAndSurviveRestart) {
  ScratchDir dir;
  SimClock clock;
  Unid replica_a, replica_b;
  {
    stats::StatRegistry stats;
    Server server("HUB/Acme", dir.Sub("hub"), &clock, nullptr, nullptr,
                  &stats);
    wal::SharedLogOptions options = BufferedLog(&stats);
    ASSERT_OK(server.EnableSharedLog(options));
    ASSERT_OK_AND_ASSIGN(Database * db_a,
                         server.OpenDatabase("sales.nsf", DatabaseOptions()));
    ASSERT_OK_AND_ASSIGN(Database * db_b,
                         server.OpenDatabase("crm.nsf", DatabaseOptions()));
    replica_a = db_a->replica_id();
    replica_b = db_b->replica_id();
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(db_a->CreateNote(MakeDoc("Memo", "sales " + std::to_string(i))));
      ASSERT_OK(db_b->CreateNote(MakeDoc("Memo", "crm " + std::to_string(i))));
    }
    // Both databases log into the same shared stream set.
    EXPECT_GE(stats.GetCounter("Server.WAL.Commits").value(), 40u);
    EXPECT_EQ(stats.GetCounter("Database.WAL.Records").value(),
              stats.GetCounter("Server.WAL.Commits").value());
  }
  // "Server restart": fresh Server over the same directory recovers both
  // databases from the one shared log.
  stats::StatRegistry stats;
  Server server("HUB/Acme", dir.Sub("hub"), &clock, nullptr, nullptr, &stats);
  ASSERT_OK(server.EnableSharedLog(BufferedLog(&stats)));
  ASSERT_OK_AND_ASSIGN(Database * db_a,
                       server.OpenDatabase("sales.nsf", DatabaseOptions()));
  ASSERT_OK_AND_ASSIGN(Database * db_b,
                       server.OpenDatabase("crm.nsf", DatabaseOptions()));
  EXPECT_EQ(db_a->note_count(), 20u);
  EXPECT_EQ(db_b->note_count(), 20u);
  EXPECT_EQ(db_a->replica_id(), replica_a);
  EXPECT_EQ(db_b->replica_id(), replica_b);
}

}  // namespace
}  // namespace dominodb
