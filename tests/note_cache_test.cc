// The store's decoded-note cache: every id-table change drops the cached
// note (Put, Erase, stub purge, compaction relocation, crash recovery),
// handles outlive updates, and the cache stays within its budget
// (cache_pages × page_size) under a working set far larger.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <new>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "storage/note_cache.h"
#include "storage/note_store.h"
#include "tests/test_util.h"

// Every allocation in this binary carries a header holding its size, so
// a test can read how many heap bytes are live.
namespace {
std::atomic<int64_t> g_live_heap_bytes{0};
constexpr size_t kAllocHeader = alignof(std::max_align_t);
}  // namespace

void* operator new(std::size_t size) {
  void* block = std::malloc(size + kAllocHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  g_live_heap_bytes.fetch_add(static_cast<int64_t>(size),
                              std::memory_order_relaxed);
  return static_cast<char*>(block) + kAllocHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kAllocHeader;
  g_live_heap_bytes.fetch_sub(
      static_cast<int64_t>(*static_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace dominodb {
namespace {

using testing_util::ScratchDir;

DatabaseInfo Info() {
  DatabaseInfo info;
  info.replica_id = Unid{0xcace, 1};
  info.title = "note cache test";
  return info;
}

Note Doc(uint64_t unid_lo, const std::string& subject, size_t body = 0) {
  Note note = testing_util::MakeDoc("Memo", subject);
  if (body > 0) note.SetText("Body", std::string(body, 'b'));
  note.StampCreated(Unid{0x22, unid_lo}, static_cast<Micros>(unid_lo));
  return note;
}

class NoteCacheTest : public ::testing::Test {
 protected:
  StoreOptions Options() {
    StoreOptions options;
    options.checkpoint_threshold_bytes = 0;
    options.compact_threshold_bytes = 0;
    options.stats = &stats_;
    return options;
  }
  void Open(const StoreOptions& options) {
    store_.reset();
    auto store = NoteStore::Open(dir_.Sub("db"), options, Info());
    ASSERT_OK(store);
    store_ = std::move(*store);
  }
  uint64_t Counter(const char* name) {
    return stats_.GetCounter(std::string("Store.NoteCache.") + name).value();
  }
  int64_t Bytes() { return stats_.GetGauge("Store.NoteCache.Bytes").value(); }
  std::string Subject(NoteId id) {
    NoteHandle note = store_->Find(id);
    return note == nullptr ? "<absent>" : note->GetText("Subject");
  }

  ScratchDir dir_;
  stats::StatRegistry stats_;
  std::unique_ptr<NoteStore> store_;
};

TEST_F(NoteCacheTest, HitIsTheSameDecodedNote) {
  Open(Options());
  Note note = Doc(1, "v1");
  ASSERT_OK(store_->Put(&note));
  NoteHandle first = store_->Find(note.id());
  NoteHandle second = store_->Find(note.id());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(Counter("Misses"), 1u);
  EXPECT_EQ(Counter("Hits"), 1u);
  EXPECT_EQ(Bytes(), static_cast<int64_t>(NoteCache::Charge(*first)));
  // Get and FindByUnid resolve through the same cache.
  ASSERT_OK_AND_ASSIGN(Note copy, store_->Get(note.id()));
  EXPECT_EQ(copy.GetText("Subject"), "v1");
  EXPECT_EQ(store_->FindByUnid(note.unid()).get(), first.get());
  EXPECT_EQ(Counter("Hits"), 3u);
  // Absent ids are answered by the id table alone.
  EXPECT_EQ(store_->Find(9999), nullptr);
  EXPECT_EQ(Counter("Misses"), 1u);
}

TEST_F(NoteCacheTest, WritesRefreshTheCachedNote) {
  Open(Options());
  Note a = Doc(1, "a1");
  Note b = Doc(2, "b1");
  ASSERT_OK(store_->Put(&a));
  ASSERT_OK(store_->Put(&b));
  EXPECT_EQ(Subject(a.id()), "a1");
  EXPECT_EQ(Subject(b.id()), "b1");

  a.SetText("Subject", "a2");
  a.BumpSequence(10);
  ASSERT_OK(store_->Put(&a));
  EXPECT_EQ(Subject(a.id()), "a2");

  ASSERT_OK(store_->Erase(b.id()));
  EXPECT_EQ(Subject(b.id()), "<absent>");
  EXPECT_FALSE(store_->Get(b.id()).ok());

  // A stub keeps its id-table entry; purging it must drop the cached stub.
  Note stub = a;
  stub.MakeStub(20);
  ASSERT_OK(store_->Put(&stub));
  ASSERT_NE(store_->Find(a.id()), nullptr);
  EXPECT_TRUE(store_->Find(a.id())->deleted());
  ASSERT_OK_AND_ASSIGN(
      std::vector<NoteId> victims,
      store_->PurgeableStubs(100'000'000'000'000,
                             std::numeric_limits<Micros>::max()));
  ASSERT_EQ(victims, std::vector<NoteId>{a.id()});
  ASSERT_OK(store_->Erase(a.id()));
  EXPECT_EQ(store_->Find(a.id()), nullptr);
  EXPECT_EQ(Bytes(), 0);
}

TEST_F(NoteCacheTest, HandleHeldAcrossUpdateKeepsOldVersion) {
  Open(Options());
  Note note = Doc(1, "old");
  ASSERT_OK(store_->Put(&note));
  NoteHandle held = store_->Find(note.id());
  note.SetText("Subject", "new");
  note.BumpSequence(10);
  ASSERT_OK(store_->Put(&note));
  EXPECT_EQ(held->GetText("Subject"), "old");
  EXPECT_EQ(held->sequence(), 1u);
  EXPECT_EQ(Subject(note.id()), "new");
  ASSERT_OK(store_->Erase(note.id()));
  EXPECT_EQ(held->GetText("Subject"), "old");
}

TEST_F(NoteCacheTest, CompactionRelocationDropsMovedNotes) {
  StoreOptions options = Options();
  options.page_size = 512;
  Open(options);
  std::vector<Note> notes;
  for (uint64_t i = 1; i <= 40; ++i) {
    notes.push_back(Doc(i, "n" + std::to_string(i), 60));
    ASSERT_OK(store_->Put(&notes.back()));
  }
  // Rewrite every other note so most bucket pages carry dead bytes.
  for (size_t i = 0; i < notes.size(); i += 2) {
    notes[i].SetText("Subject", "r" + std::to_string(i));
    notes[i].BumpSequence(1000 + static_cast<Micros>(i));
    ASSERT_OK(store_->Put(&notes[i]));
  }
  for (const Note& n : notes) ASSERT_NE(store_->Find(n.id()), nullptr);
  const uint64_t misses = Counter("Misses");
  ASSERT_OK_AND_ASSIGN(size_t reclaimed, store_->CompactStep(100));
  ASSERT_GT(reclaimed, 0u);
  const uint64_t moved =
      stats_.GetCounter("Store.Compact.NotesMoved").value();
  ASSERT_GT(moved, 0u);
  for (const Note& n : notes) {
    EXPECT_EQ(Subject(n.id()), n.GetText("Subject"));
  }
  // Each relocated note was dropped, so re-reading it decoded it afresh
  // from its new slot.
  EXPECT_EQ(Counter("Misses") - misses, moved);
  // The refreshed entries track later writes too.
  notes[1].SetText("Subject", "after compaction");
  notes[1].BumpSequence(5000);
  ASSERT_OK(store_->Put(&notes[1]));
  EXPECT_EQ(Subject(notes[1].id()), "after compaction");
}

// A checkpoint that crashed after logging its page images: recovery
// adopts the images (discarding the pool and the note cache), then
// replays the writes after them.
TEST_F(NoteCacheTest, CrashRecoveryReplaysPastCachedVersions) {
  StoreOptions options = Options();
  options.checkpoint_fault = [](std::string_view point) {
    return point == "pager:after_log" ? Status::IOError("injected crash")
                                      : Status::Ok();
  };
  Open(options);
  Note a = Doc(1, "a1");
  Note b = Doc(2, "b1");
  ASSERT_OK(store_->Put(&a));
  ASSERT_OK(store_->Put(&b));
  EXPECT_EQ(Subject(a.id()), "a1");
  EXPECT_FALSE(store_->Checkpoint().ok());
  a.SetText("Subject", "a2");
  a.BumpSequence(10);
  ASSERT_OK(store_->Put(&a));
  ASSERT_OK(store_->Erase(b.id()));
  EXPECT_EQ(Subject(a.id()), "a2");

  std::error_code ec;
  std::filesystem::copy(dir_.Sub("db"), dir_.Sub("crashed"),
                        std::filesystem::copy_options::recursive, ec);
  ASSERT_FALSE(ec) << ec.message();
  store_.reset();
  stats::StatRegistry recovered_stats;
  StoreOptions clean = Options();
  clean.stats = &recovered_stats;
  ASSERT_OK_AND_ASSIGN(auto recovered,
                       NoteStore::Open(dir_.Sub("crashed"), clean, Info()));
  EXPECT_GT(recovered->stats().recovered_records, 0u);
  ASSERT_NE(recovered->Find(a.id()), nullptr);
  EXPECT_EQ(recovered->Find(a.id())->GetText("Subject"), "a2");
  EXPECT_EQ(recovered->Find(b.id()), nullptr);
  EXPECT_EQ(recovered_stats.GetCounter("Store.NoteCache.Hits").value(), 1u);
}

TEST_F(NoteCacheTest, BytesStayWithinTheBudget) {
  StoreOptions options = Options();
  options.page_size = 1024;
  options.cache_pages = 32;  // 32 KiB budget
  const int64_t budget = 32 * 1024;
  Open(options);
  // A working set of ten times the budget.
  std::vector<NoteId> ids;
  int64_t total = 0;
  for (uint64_t i = 1; total < 10 * budget; ++i) {
    Note note = Doc(i, "w" + std::to_string(i), 300);
    total += static_cast<int64_t>(NoteCache::Charge(note));
    ASSERT_OK(store_->Put(&note));
    ids.push_back(note.id());
  }
  Rng rng(7);
  int64_t peak = 0;
  for (int i = 0; i < 5000; ++i) {
    NoteId id = ids[rng.Uniform(ids.size())];
    ASSERT_NE(store_->Find(id), nullptr);
    peak = std::max(peak, Bytes());
  }
  EXPECT_GT(peak, budget / 2);
  EXPECT_LE(peak, budget);
  EXPECT_GT(Counter("Evictions"), 0u);
  EXPECT_GT(Counter("Hits"), 0u);
}

// The charge covers the heap a decoded note holds, also for a note of
// many small items, where the per-item overhead dwarfs the encoded size
// that Note::ByteSize() reports.
TEST(NoteCacheChargeTest, CoversTheHeapOfANoteWithManySmallItems) {
  Note source = Doc(1, "many items");
  for (int i = 0; i < 200; ++i) source.SetNumber(StrPrintf("n%d", i), i);
  for (int i = 0; i < 100; ++i) source.SetText(StrPrintf("t%d", i), "x");
  const std::string encoded = source.EncodeToString();
  const int64_t before = g_live_heap_bytes.load();
  NoteHandle cached;
  {
    Note note;
    ASSERT_OK(Note::DecodeFromString(encoded, &note));
    cached = NoteHandle(new Note(std::move(note)));  // as the store does
  }
  const int64_t held = g_live_heap_bytes.load() - before;
  const auto charge = static_cast<int64_t>(NoteCache::Charge(*cached));
  EXPECT_LT(static_cast<int64_t>(cached->ByteSize()), held / 4);
  EXPECT_GE(charge, held);
  EXPECT_LE(charge, 2 * held);
}

// Four readers and one writer: a reader never sees a version older than
// one it already saw, and every note it sees is internally consistent
// (Body spells out Version). Run under TSan by scripts/check.sh.
TEST_F(NoteCacheTest, ConcurrentReadersSeeMonotonicVersions) {
  StoreOptions options = Options();
  options.cache_pages = 8;  // force evictions and re-decodes as well
  Open(options);
  constexpr int kNotes = 64;
  std::vector<Note> notes;
  for (int i = 0; i < kNotes; ++i) {
    notes.push_back(Doc(static_cast<uint64_t>(i + 1), "s", 0));
    notes.back().SetNumber("Version", 0);
    notes.back().SetText("Body", "v0");
    ASSERT_OK(store_->Put(&notes.back()));
  }
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      std::vector<double> seen(kNotes, 0);
      while (!done.load(std::memory_order_acquire)) {
        const size_t i = rng.Uniform(kNotes);
        NoteHandle note = store_->Find(notes[i].id());
        if (note == nullptr) {
          ++failures;
          continue;
        }
        const double version = note->GetNumber("Version");
        if (version < seen[i] ||
            note->GetText("Body") != "v" + std::to_string(
                                              static_cast<int>(version))) {
          ++failures;
        }
        seen[i] = version;
        Note copy = *note;  // a result copy, mutated privately
        copy.SetText("Body", "scratch");
      }
    });
  }
  Rng rng(1);
  for (int w = 1; w <= 2000; ++w) {
    Note& note = notes[rng.Uniform(kNotes)];
    const int version = static_cast<int>(note.GetNumber("Version")) + 1;
    note.SetNumber("Version", version);
    note.SetText("Body", "v" + std::to_string(version));
    note.BumpSequence(static_cast<Micros>(10'000 + w));
    ASSERT_OK(store_->Put(&note));
    if (w % 500 == 0) ASSERT_OK(store_->CompactStep(4).status());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (const Note& note : notes) {
    ASSERT_NE(store_->Find(note.id()), nullptr);
    EXPECT_EQ(store_->Find(note.id())->GetNumber("Version"),
              note.GetNumber("Version"));
  }
}

}  // namespace
}  // namespace dominodb
