#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/env.h"
#include "base/rng.h"
#include "core/database.h"
#include "pager/buffer_pool.h"
#include "pager/pager.h"
#include "storage/note_store.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

using testing_util::FirstLogSegment;
using testing_util::MakeDoc;
using testing_util::ScratchDir;

// ------------------------------------------------------------------ Pager --

TEST(PagerTest, AllocateFreeReuse) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto pager,
                       pager::Pager::Open(dir.Sub("p.pages"), 512));
  EXPECT_EQ(pager->Allocate(), 0u);
  EXPECT_EQ(pager->Allocate(), 1u);
  EXPECT_EQ(pager->Allocate(), 2u);
  pager->Free(1);
  EXPECT_EQ(pager->free_count(), 1u);
  EXPECT_EQ(pager->Allocate(), 1u);  // lowest free page first
  EXPECT_EQ(pager->Allocate(), 3u);  // then the watermark
  EXPECT_EQ(pager->page_count(), 4u);
}

TEST(PagerTest, RejectsBadPageSizes) {
  ScratchDir dir;
  EXPECT_FALSE(pager::Pager::Open(dir.Sub("a"), 0).ok());
  EXPECT_FALSE(pager::Pager::Open(dir.Sub("b"), 100).ok());  // not a power of 2
  EXPECT_FALSE(pager::Pager::Open(dir.Sub("c"), 32).ok());   // too small
}

TEST(PagerTest, WriteReadRoundTripAndCrcDetection) {
  ScratchDir dir;
  std::string path = dir.Sub("p.pages");
  constexpr uint32_t kPageSize = 512;
  ASSERT_OK_AND_ASSIGN(auto pager, pager::Pager::Open(path, kPageSize));
  uint32_t pgno = pager->Allocate();
  std::vector<char> page(kPageSize, 'q');  // non-zero so a torn tail shows
  page[pager::kPageTypeOffset] = pager::kPageBucket;
  std::memcpy(page.data() + pager::kPageHeaderSize, "payload", 7);
  ASSERT_OK(pager->WritePage(pgno, page.data()));
  ASSERT_OK(pager->Sync());

  std::vector<char> read(kPageSize, 0);
  ASSERT_OK(pager->ReadPage(pgno, read.data()));
  EXPECT_EQ(std::memcmp(read.data() + pager::kPageHeaderSize, "payload", 7),
            0);

  // A torn in-place write (zeroed tail) must fail the CRC.
  ASSERT_OK(SimulateTornWrite(path, kPageSize / 2));
  Status s = pager->ReadPage(pgno, read.data());
  EXPECT_FALSE(s.ok());
}

// ------------------------------------------------------------ BufferPool --

class PoolFixture : public ::testing::Test {
 protected:
  void Open(uint32_t page_size, size_t capacity) {
    auto pager = pager::Pager::Open(dir_.Sub("p.pages"), page_size);
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(*pager);
    pool_ = std::make_unique<pager::BufferPool>(pager_.get(), capacity,
                                                &registry_);
  }

  // Allocates a page, stamps a recognizable byte, and checkpoints it to
  // disk so later Pins can miss-and-read it.
  uint32_t MakePage(char tag) {
    uint32_t pgno = pager_->Allocate();
    {
      pager::PageRef ref = pool_->PinNew(pgno, pager::kPageBucket);
      ref.data()[pager::kPageHeaderSize] = tag;
      ref.MarkDirty();
    }
    return pgno;
  }

  void FlushAll() {
    ASSERT_OK(pool_->ForEachDirty([&](uint32_t pgno, char* data) {
      return pager_->WritePage(pgno, data);
    }));
    pool_->MarkAllClean();
  }

  ScratchDir dir_;
  stats::StatRegistry registry_;
  std::unique_ptr<pager::Pager> pager_;
  std::unique_ptr<pager::BufferPool> pool_;
};

TEST_F(PoolFixture, HitMissAndLruEviction) {
  Open(512, 4);
  std::vector<uint32_t> pages;
  for (int i = 0; i < 8; ++i) pages.push_back(MakePage('a' + i));
  FlushAll();
  // 8 clean frames with capacity 4: eviction trims to capacity as soon
  // as frames become evictable.
  for (uint32_t pgno : pages) {
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pgno));
    (void)ref;
  }
  EXPECT_LE(pool_->frame_count(), 4u);
  uint64_t misses_before = pool_->misses();
  {
    // The most recently used page is still resident.
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pages.back()));
    EXPECT_EQ(ref.data()[pager::kPageHeaderSize], 'a' + 7);
  }
  EXPECT_EQ(pool_->misses(), misses_before);
  EXPECT_GT(pool_->hits(), 0u);
  {
    // The least recently used one was evicted: a miss re-reads it.
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pages.front()));
    EXPECT_EQ(ref.data()[pager::kPageHeaderSize], 'a');
  }
  EXPECT_EQ(pool_->misses(), misses_before + 1);
}

// Hits share the pool lock and never reorder the list; the referenced
// bit they set is what keeps a hot frame at the tail from eviction.
TEST_F(PoolFixture, HitGivesTailFrameASecondChance) {
  Open(512, 3);
  std::vector<uint32_t> pages;
  for (int i = 0; i < 4; ++i) pages.push_back(MakePage('a' + i));
  FlushAll();  // trims to 3 frames: pages 1..3 resident, 1 at the tail
  { ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pages[1])); }
  const uint64_t misses = pool_->misses();
  // Reading page 0 back evicts one frame: not the hit tail frame (page
  // 1) but the next unreferenced one (page 2).
  { ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pages[0])); }
  EXPECT_EQ(pool_->misses(), misses + 1);
  EXPECT_EQ(pool_->frame_count(), 3u);
  { ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pages[1])); }
  EXPECT_EQ(pool_->misses(), misses + 1);
  {
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pages[2]));
    EXPECT_EQ(ref.data()[pager::kPageHeaderSize], 'c');
  }
  EXPECT_EQ(pool_->misses(), misses + 2);
}

TEST_F(PoolFixture, PinnedFramesSurviveOverCapacity) {
  Open(512, 2);
  std::vector<uint32_t> pages;
  for (int i = 0; i < 6; ++i) pages.push_back(MakePage('A' + i));
  FlushAll();
  // Hold pins on 6 pages at once with capacity 2: the pool must grow
  // (counting overruns) rather than evict a pinned frame.
  std::vector<pager::PageRef> refs;
  for (uint32_t pgno : pages) {
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pgno));
    refs.push_back(std::move(ref));
  }
  EXPECT_EQ(pool_->frame_count(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(refs[i].data()[pager::kPageHeaderSize], 'A' + i);
  }
  EXPECT_GT(registry_.GetCounter("Store.Cache.CapacityOverruns").value(), 0u);
  refs.clear();
  // Once the pins drop, the next pin round lets eviction trim back down.
  for (uint32_t pgno : pages) {
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pgno));
    (void)ref;
  }
  EXPECT_LE(pool_->frame_count(), 2u);
}

TEST_F(PoolFixture, DirtyFramesAreNeverEvicted) {
  Open(512, 2);
  // 5 dirty frames, capacity 2: all must stay resident (the page file
  // knows nothing about them yet).
  for (int i = 0; i < 5; ++i) MakePage('x');
  EXPECT_EQ(pool_->frame_count(), 5u);
  EXPECT_EQ(pool_->dirty_count(), 5u);
  FlushAll();
  // Clean now; fresh pins push the old frames out.
  for (int i = 0; i < 3; ++i) MakePage('y');
  FlushAll();
  for (uint32_t pgno = 5; pgno < 8; ++pgno) {
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pgno));
    (void)ref;
  }
  EXPECT_LE(pool_->frame_count(), 3u);  // 2 + possibly one in transit
}

TEST_F(PoolFixture, UnpinSkipsTheLockOnceDiscardRefitsThePool) {
  Open(512, 2);
  // Three dirty frames over a capacity of 2: an overrun, so unpins take
  // the pool lock to evict.
  std::vector<uint32_t> pages;
  for (int i = 0; i < 3; ++i) pages.push_back(MakePage('d' + i));
  EXPECT_EQ(pool_->frame_count(), 3u);
  // Compaction frees pages: the pool fits again without an eviction pass.
  pool_->Discard(pages[2]);
  pool_->Discard(pages[1]);
  EXPECT_EQ(pool_->frame_count(), 1u);
  ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pages[0]));
  // ForEachDirty holds the pool lock across its callback. An unpin from
  // another thread must finish meanwhile: a fitting pool never locks.
  std::atomic<bool> done{false};
  bool unpinned_under_lock = false;
  std::thread unpin;
  ASSERT_OK(pool_->ForEachDirty([&](uint32_t, char*) {
    if (unpin.joinable()) return Status::Ok();
    unpin = std::thread([&] {
      ref.Release();
      done.store(true);
    });
    for (int i = 0; i < 500 && !done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    unpinned_under_lock = done.load();
    return Status::Ok();
  }));
  unpin.join();  // a locking unpin finishes once ForEachDirty returns
  EXPECT_TRUE(unpinned_under_lock);
}

TEST_F(PoolFixture, EvictionUnderPinStress) {
  Open(512, 8);
  constexpr int kPages = 32;
  std::vector<uint32_t> pages;
  for (int i = 0; i < kPages; ++i) {
    pages.push_back(MakePage(static_cast<char>(i)));
  }
  FlushAll();
  // Concurrent readers pin random pages while holding a few refs each —
  // constant eviction pressure with interleaved pins (TSan-checked).
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<pager::PageRef> held;
      for (int iter = 0; iter < 400; ++iter) {
        uint32_t idx = static_cast<uint32_t>(rng.Uniform(kPages));
        auto ref = pool_->Pin(pages[idx]);
        if (!ref.ok()) {
          failed = true;
          return;
        }
        if (ref->data()[pager::kPageHeaderSize] !=
            static_cast<char>(idx)) {
          failed = true;
          return;
        }
        held.push_back(std::move(*ref));
        if (held.size() > 3) held.erase(held.begin());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed);
  EXPECT_GT(registry_.GetCounter("Store.Cache.Evictions").value(), 0u);
}

// Every pool on a registry shares the Store.Cache gauges: each adds its
// own changes, so the gauges read the sum, and a destroyed pool takes
// its share back off.
TEST(PoolGaugeTest, TwoPoolsOnOneRegistrySum) {
  ScratchDir dir;
  stats::StatRegistry registry;
  ASSERT_OK_AND_ASSIGN(auto pager_a,
                       pager::Pager::Open(dir.Sub("a.pages"), 512));
  ASSERT_OK_AND_ASSIGN(auto pager_b,
                       pager::Pager::Open(dir.Sub("b.pages"), 512));
  auto pool_a =
      std::make_unique<pager::BufferPool>(pager_a.get(), 16, &registry);
  auto pool_b =
      std::make_unique<pager::BufferPool>(pager_b.get(), 16, &registry);
  auto pages = [&] { return registry.GetGauge("Store.Cache.Pages").value(); };
  auto dirty = [&] {
    return registry.GetGauge("Store.Cache.DirtyPages").value();
  };
  for (int i = 0; i < 3; ++i) {
    pool_a->PinNew(pager_a->Allocate(), pager::kPageBucket);
  }
  std::vector<uint32_t> b_pages;
  for (int i = 0; i < 5; ++i) {
    b_pages.push_back(pager_b->Allocate());
    pool_b->PinNew(b_pages.back(), pager::kPageBucket);
  }
  EXPECT_EQ(pages(), 8);
  EXPECT_EQ(dirty(), 8);

  ASSERT_OK(pool_a->ForEachDirty([&](uint32_t pgno, char* data) {
    return pager_a->WritePage(pgno, data);
  }));
  pool_a->MarkAllClean();
  EXPECT_EQ(pages(), 8);
  EXPECT_EQ(dirty(), 5);

  pool_b->Discard(b_pages[0]);
  EXPECT_EQ(pages(), 7);
  EXPECT_EQ(dirty(), 4);

  pool_b.reset();
  EXPECT_EQ(pages(), 3);
  EXPECT_EQ(dirty(), 0);
  pool_a->DiscardAll();
  EXPECT_EQ(pages(), 0);
  pool_a.reset();
  EXPECT_EQ(pages(), 0);
  EXPECT_EQ(dirty(), 0);
}

// --------------------------------------------------- Paged store behavior --

StoreOptions TinyPagedOptions() {
  StoreOptions options;
  options.sync_mode = wal::SyncMode::kNone;
  options.checkpoint_threshold_bytes = 0;
  options.page_size = 512;
  options.cache_pages = 8;
  options.compact_threshold_bytes = 0;
  return options;
}

DatabaseInfo PagedInfo() {
  DatabaseInfo info;
  info.replica_id = Unid{0x7a6e, 0x1};
  info.title = "paged";
  return info;
}

Note SizedDoc(uint64_t unid_lo, Micros t, size_t body_len) {
  Note note = MakeDoc("Memo", "s" + std::to_string(unid_lo));
  note.SetText("Body", std::string(body_len, 'b'));
  note.StampCreated(Unid{0x22, unid_lo}, t);
  return note;
}

TEST(PagedStoreTest, OverflowNotesRoundTrip) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(dir.Sub("db"),
                                                   TinyPagedOptions(),
                                                   PagedInfo()));
  // Far larger than one 512-byte page → overflow chain.
  Note big = SizedDoc(1, 10, 5000);
  ASSERT_OK(store->Put(&big));
  Note small = SizedDoc(2, 11, 10);
  ASSERT_OK(store->Put(&small));
  ASSERT_OK_AND_ASSIGN(Note read_big, store->Get(big.id()));
  EXPECT_EQ(read_big.GetText("Body"), std::string(5000, 'b'));
  ASSERT_OK(store->Checkpoint());

  // Reopen: the chain survives a restart.
  ASSERT_OK_AND_ASSIGN(auto reopened, NoteStore::Open(dir.Sub("db"),
                                                      TinyPagedOptions(),
                                                      PagedInfo()));
  ASSERT_OK_AND_ASSIGN(Note again, reopened->Get(big.id()));
  EXPECT_EQ(again.GetText("Body"), std::string(5000, 'b'));
  // Erasing the big note frees its chain pages for reuse.
  size_t free_before = 0;  // fresh pool after reopen
  (void)free_before;
  ASSERT_OK(reopened->Erase(big.id()));
  ASSERT_OK_AND_ASSIGN(Note still, reopened->Get(small.id()));
  EXPECT_EQ(still.GetText("Subject"), "s2");
}

TEST(PagedStoreTest, BeyondRamReopenEquivalence) {
  ScratchDir dir;
  std::map<NoteId, std::pair<std::string, size_t>> model;  // id → subj, len
  {
    ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(dir.Sub("db"),
                                                     TinyPagedOptions(),
                                                     PagedInfo()));
    Rng rng(42);
    Micros t = 1;
    for (int op = 0; op < 600; ++op) {
      double dice = rng.NextDouble();
      if (dice < 0.65 || model.empty()) {
        size_t len = rng.Uniform(3) == 0 ? 900 + rng.Uniform(1200)
                                         : rng.Uniform(200);
        Note note = SizedDoc(rng.Next(), t++, len);
        ASSERT_OK(store->Put(&note));
        model[note.id()] = {note.GetText("Subject"), len};
      } else if (dice < 0.85) {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        ASSERT_OK_AND_ASSIGN(Note note, store->Get(it->first));
        size_t len = rng.Uniform(400);
        note.SetText("Body", std::string(len, 'b'));
        note.BumpSequence(t++);
        ASSERT_OK(store->Put(&note));
        it->second.second = len;
      } else {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        ASSERT_OK(store->Erase(it->first));
        model.erase(it);
      }
      if (op % 211 == 210) ASSERT_OK(store->Checkpoint());
    }
    // The data dwarfs the 8-page pool: the store must have gone to disk.
    EXPECT_GT(store->pages_size_bytes(), 8u * 512u * 4u);
    ASSERT_OK(store->Checkpoint());
  }
  // Reopen with the same tiny pool and compare against the model.
  stats::StatRegistry registry;
  StoreOptions options = TinyPagedOptions();
  options.stats = &registry;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  EXPECT_EQ(store->total_count(), model.size());
  for (const auto& [id, expected] : model) {
    ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
    EXPECT_EQ(note.GetText("Subject"), expected.first);
    EXPECT_EQ(note.GetText("Body").size(), expected.second);
  }
  // Serving a working set larger than the pool produces misses and
  // evictions; the hit-rate stats are the E16 observables.
  EXPECT_GT(registry.GetCounter("Store.Cache.Misses").value(), 0u);
  EXPECT_GT(registry.GetCounter("Store.Cache.Hits").value(), 0u);
  // ForEach (id order) sweeps the whole file through the bounded pool.
  size_t seen = 0;
  store->ForEach([&](const Note& note) {
    auto it = model.find(note.id());
    ASSERT_NE(it, model.end());
    ++seen;
  });
  EXPECT_EQ(seen, model.size());
}

TEST(PagedStoreTest, FindHandlesSurviveEvictionAndWrites) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(dir.Sub("db"),
                                                   TinyPagedOptions(),
                                                   PagedInfo()));
  Note first = SizedDoc(1, 10, 100);
  ASSERT_OK(store->Put(&first));
  NoteHandle handle = store->Find(first.id());
  ASSERT_NE(handle, nullptr);
  // Churn enough pages to cycle the 8-frame pool several times, then
  // overwrite the note itself: the handle must still read "s1".
  for (int i = 0; i < 200; ++i) {
    Note filler = SizedDoc(100 + static_cast<uint64_t>(i), 20 + i, 300);
    ASSERT_OK(store->Put(&filler));
  }
  Note updated = *handle;
  updated.SetText("Subject", "rewritten");
  updated.BumpSequence(999);
  ASSERT_OK(store->Put(&updated));
  EXPECT_EQ(handle->GetText("Subject"), "s1");
  NoteHandle fresh = store->Find(first.id());
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->GetText("Subject"), "rewritten");
}

// ------------------------------------------------------------- Compaction --

TEST(CompactTest, ReclaimsPurgedStubVolume) {
  ScratchDir dir;
  StoreOptions options = TinyPagedOptions();
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  std::vector<NoteId> victims;
  std::map<NoteId, std::string> survivors;
  Micros t = 1;
  for (int i = 0; i < 200; ++i) {
    Note note = SizedDoc(static_cast<uint64_t>(i + 1), t++, 150);
    ASSERT_OK(store->Put(&note));
    if (i % 2 == 0) {
      victims.push_back(note.id());
    } else {
      survivors[note.id()] = note.GetText("Subject");
    }
  }
  ASSERT_OK(store->Checkpoint());
  const uint64_t size_before = store->pages_size_bytes();
  // Delete half the documents and purge the stubs — the husk bytes are
  // now dead in place.
  for (NoteId id : victims) {
    ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
    note.MakeStub(t++);
    ASSERT_OK(store->Put(&note));
  }
  ASSERT_OK_AND_ASSIGN(
      std::vector<NoteId> purgeable,
      store->PurgeableStubs(t + 1'000'000, std::numeric_limits<Micros>::max()));
  EXPECT_EQ(purgeable, victims);
  for (NoteId id : purgeable) ASSERT_OK(store->Erase(id));
  const uint64_t dead = store->dead_bytes();
  EXPECT_GT(dead, 0u);
  // COMPACT in slices until dry.
  for (;;) {
    ASSERT_OK_AND_ASSIGN(size_t reclaimed, store->CompactStep(4));
    if (reclaimed == 0) break;
  }
  // Acceptance: the reclaimed byte volume covers the dead bytes the
  // purge left behind, and the page file shrinks at the checkpoint.
  EXPECT_GE(store->compact_stats().bytes_reclaimed, dead);
  EXPECT_EQ(store->dead_bytes(), 0u);
  ASSERT_OK(store->Checkpoint());
  EXPECT_LT(store->pages_size_bytes(), size_before);
  // Survivors all moved intact.
  for (const auto& [id, subject] : survivors) {
    ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
    EXPECT_EQ(note.GetText("Subject"), subject);
  }
  // And stay intact across a reopen.
  ASSERT_OK_AND_ASSIGN(auto reopened,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  EXPECT_EQ(reopened->total_count(), survivors.size());
  for (const auto& [id, subject] : survivors) {
    ASSERT_OK_AND_ASSIGN(Note note, reopened->Get(id));
    EXPECT_EQ(note.GetText("Subject"), subject);
  }
}

TEST(CompactTest, CrashBeforeCheckpointLosesNothing) {
  ScratchDir dir;
  StoreOptions options = TinyPagedOptions();
  std::map<NoteId, std::string> survivors;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
    Micros t = 1;
    std::vector<NoteId> victims;
    for (int i = 0; i < 120; ++i) {
      Note note = SizedDoc(static_cast<uint64_t>(i + 1), t++, 120);
      ASSERT_OK(store->Put(&note));
      if (i % 2 == 0) {
        victims.push_back(note.id());
      } else {
        survivors[note.id()] = note.GetText("Subject");
      }
    }
    ASSERT_OK(store->Checkpoint());
    for (NoteId id : victims) ASSERT_OK(store->Erase(id));
    for (;;) {
      ASSERT_OK_AND_ASSIGN(size_t reclaimed, store->CompactStep(4));
      if (reclaimed == 0) break;
    }
    EXPECT_GT(store->compact_stats().pages_reclaimed, 0u);
    // "Crash": drop the store without checkpointing. Compaction only
    // rearranged in-memory pages; recovery must replay the logical WAL
    // onto the last checkpointed page state.
  }
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  EXPECT_EQ(store->total_count(), survivors.size());
  for (const auto& [id, subject] : survivors) {
    ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
    EXPECT_EQ(note.GetText("Subject"), subject);
  }
}

TEST(CompactTest, OnlineCompactWithConcurrentReaders) {
  ScratchDir dir;
  DatabaseOptions options;
  options.store.sync_mode = wal::SyncMode::kNone;
  options.store.checkpoint_threshold_bytes = 0;
  options.store.page_size = 512;
  options.store.cache_pages = 16;
  options.title = "compact-online";
  SimClock clock(1'000'000);
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(dir.Sub("db"), options,
                                               &clock));
  std::vector<NoteId> live_ids;
  std::vector<NoteId> victims;
  for (int i = 0; i < 300; ++i) {
    Note note = MakeDoc("Memo", "doc" + std::to_string(i));
    note.SetText("Body", std::string(100, 'c'));
    ASSERT_OK_AND_ASSIGN(NoteId id, db->CreateNote(std::move(note)));
    if (i % 2 == 0) {
      victims.push_back(id);
    } else {
      live_ids.push_back(id);
    }
    clock.Advance(1'000'000);
  }
  for (NoteId id : victims) ASSERT_OK(db->DeleteNote(id));
  clock.Advance(db->info().purge_interval + 3'600'000'000ll);
  ASSERT_OK_AND_ASSIGN(size_t purged, db->PurgeStubs());
  EXPECT_EQ(purged, victims.size());
  const uint64_t dead = db->store()->dead_bytes();
  EXPECT_GT(dead, 0u);

  // Readers hammer random live documents while COMPACT runs online; the
  // writer lock is only held per slice, so reads interleave with the
  // copy and must always see intact notes.
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 7);
      while (!stop.load(std::memory_order_relaxed)) {
        NoteId id = live_ids[rng.Uniform(live_ids.size())];
        auto note = db->ReadNote(id);
        if (!note.ok() || note->GetText("Body") != std::string(100, 'c')) {
          failed = true;
          return;
        }
      }
    });
  }
  ASSERT_OK(db->RunCompact());
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed);
  EXPECT_GE(db->store()->compact_stats().bytes_reclaimed, dead);
  EXPECT_EQ(db->store()->dead_bytes(), 0u);
  for (NoteId id : live_ids) {
    ASSERT_OK_AND_ASSIGN(Note note, db->ReadNote(id));
    EXPECT_EQ(note.GetText("Body"), std::string(100, 'c'));
  }
}

// ------------------------------------------------------ Crash-recovery matrix --

// Full sweep (every fault point × every tearable page, every WAL cut
// offset) when DOMINO_CRASH_MATRIX=1; a sampled stride otherwise so the
// default suite stays fast.
bool FullCrashMatrix() {
  const char* env = std::getenv("DOMINO_CRASH_MATRIX");
  return env != nullptr && env[0] == '1';
}

struct CrashPoint {
  const char* name;
};

class CheckpointFaultMatrix
    : public ::testing::TestWithParam<const char*> {};

// Populates a store, then attempts a checkpoint that dies at the
// parameterized fault point. Afterwards tears pages of the page file one
// at a time and proves recovery rebuilds the exact pre-crash state from
// the WAL's page-image snapshot record.
TEST_P(CheckpointFaultMatrix, TornPagesRecoverFromLoggedImages) {
  const std::string fault_point = GetParam();
  ScratchDir dir;
  std::string db_dir = dir.Sub("db");
  std::map<NoteId, std::string> model;
  // Modified-in-file stamps run against note-id order, so the recovered
  // change index must be rebuilt from the entries, not from the ids.
  std::map<NoteId, Micros> modified;

  StoreOptions options = TinyPagedOptions();
  bool armed = false;
  options.checkpoint_fault = [&](std::string_view point) {
    if (armed && point == fault_point) {
      return Status::IOError("injected crash at " + std::string(point));
    }
    return Status::Ok();
  };
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(db_dir, options, PagedInfo()));
    Micros t = 1;
    for (int i = 0; i < 60; ++i) {
      Note note = SizedDoc(static_cast<uint64_t>(i + 1), t++,
                           i % 7 == 0 ? 800 : 100);
      note.set_modified_in_file(1000 - i);
      ASSERT_OK(store->Put(&note));
      model[note.id()] = note.GetText("Subject");
      modified[note.id()] = note.modified_in_file();
    }
    // Erase a few so the state isn't a pure insert log.
    for (NoteId id : {NoteId{3}, NoteId{9}, NoteId{27}}) {
      ASSERT_OK(store->Erase(id));
      model.erase(id);
      modified.erase(id);
    }
    armed = true;
    Status s = store->Checkpoint();
    EXPECT_FALSE(s.ok()) << "fault " << fault_point << " did not fire";
    // The store dies here with the checkpoint torn at `fault_point`.
  }

  // Capture the exact post-crash disk state; every tear iteration below
  // starts from this state, not from the previous iteration's recovery.
  auto snapshot_file = [&](const char* name) {
    auto contents = ReadFileToString(db_dir + "/" + name);
    return contents.ok() ? *contents : std::string();
  };
  auto restore_file = [&](const char* name, const std::string& contents) {
    std::string path = db_dir + "/" + name;
    if (contents.empty()) {
      RemoveFileIfExists(path).ok();
    } else {
      ASSERT_OK(WriteFileAtomic(path, contents));
    }
  };
  const std::string crashed_pages = snapshot_file("notes.pages");
  const std::string crashed_wal = snapshot_file("log/seg-00000001.wal");
  const std::string crashed_meta = snapshot_file("notes.meta");

  const uint32_t page_size = options.page_size;
  const uint32_t npages =
      static_cast<uint32_t>(crashed_pages.size() / page_size);
  const uint32_t stride = FullCrashMatrix() ? 1 : std::max(1u, npages / 6);
  const Micros cutoff = 1000 - 30;
  std::vector<NoteId> changed_since;  // ids past `cutoff`, oldest first
  for (auto it = modified.rbegin(); it != modified.rend(); ++it) {
    if (it->second > cutoff) changed_since.push_back(it->first);
  }
  StoreOptions clean = TinyPagedOptions();
  for (uint32_t pg = 0; pg < npages; pg += stride) {
    restore_file("notes.pages", crashed_pages);
    restore_file("log/seg-00000001.wal", crashed_wal);
    restore_file("notes.meta", crashed_meta);
    {
      // Tear exactly page `pg`: its second half reads back as zeros, the
      // footprint of a power cut mid-way through that page's pwrite.
      ASSERT_OK_AND_ASSIGN(auto file,
                           RandomAccessFile::Open(db_dir + "/notes.pages"));
      ASSERT_OK(file->Write(
          static_cast<uint64_t>(pg) * page_size + page_size / 2,
          std::string(page_size / 2, '\0')));
      ASSERT_OK(file->Sync());
    }
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(db_dir, clean, PagedInfo()));
    ASSERT_EQ(store->total_count(), model.size())
        << "fault " << fault_point << " torn page " << pg;
    for (const auto& [id, subject] : model) {
      ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
      ASSERT_EQ(note.GetText("Subject"), subject)
          << "fault " << fault_point << " torn page " << pg;
    }
    ASSERT_EQ(store->IdsModifiedSince(cutoff), changed_since)
        << "fault " << fault_point << " torn page " << pg;
    ASSERT_EQ(store->IdsModifiedSince(0).size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(FaultPoints, CheckpointFaultMatrix,
                         ::testing::Values("pager:after_log",
                                           "pager:mid_pages",
                                           "pager:after_pages",
                                           "pager:after_meta"));

TEST(CrashMatrixTest, WalCutSweepRecoversCommittedPrefix) {
  ScratchDir dir;
  std::string db_dir = dir.Sub("db");
  std::vector<std::string> subjects;
  {
    ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(db_dir,
                                                     TinyPagedOptions(),
                                                     PagedInfo()));
    Micros t = 1;
    for (int i = 0; i < 25; ++i) {
      Note note = SizedDoc(static_cast<uint64_t>(i + 1), t++, 60);
      ASSERT_OK(store->Put(&note));
      subjects.push_back(note.GetText("Subject"));
    }
  }
  std::string wal_path = FirstLogSegment(db_dir);
  ASSERT_OK_AND_ASSIGN(std::string full_wal, ReadFileToString(wal_path));
  const uint64_t stride = FullCrashMatrix()
                              ? 1
                              : std::max<uint64_t>(1, full_wal.size() / 64);
  size_t prev_count = subjects.size() + 1;
  for (uint64_t cut = full_wal.size(); cut > 0;
       cut = cut > stride ? cut - stride : 0) {
    ASSERT_OK(WriteFileAtomic(wal_path, full_wal.substr(0, cut)));
    ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(db_dir,
                                                     TinyPagedOptions(),
                                                     PagedInfo()));
    // A shorter log can never recover more, and every recovered note is
    // intact (the committed prefix property).
    size_t count = store->total_count();
    ASSERT_LE(count, prev_count) << "cut " << cut;
    prev_count = count;
    store->ForEach([&](const Note& note) {
      ASSERT_LE(note.id(), subjects.size());
      ASSERT_EQ(note.GetText("Subject"), subjects[note.id() - 1]);
    });
    if (cut == 0) break;
  }
}

}  // namespace
}  // namespace dominodb
