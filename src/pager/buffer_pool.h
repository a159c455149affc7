#ifndef DOMINODB_PAGER_BUFFER_POOL_H_
#define DOMINODB_PAGER_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "pager/pager.h"
#include "stats/stats.h"

namespace dominodb::pager {

class BufferPool;

/// RAII pin on a buffer-pool frame. While a PageRef is alive the frame
/// cannot be evicted, so the data pointer stays valid. Mutating the page
/// (data() writes, MarkDirty) is only legal under the owning store's
/// writer lock; concurrent readers may hold pins and read freely.
class PageRef {
 public:
  PageRef() = default;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  ~PageRef();

  explicit operator bool() const { return frame_ != nullptr; }
  uint32_t pgno() const;
  char* data();
  const char* data() const;
  /// Flags the frame for write-back at the next checkpoint. Dirty frames
  /// are never evicted — the WAL holds the logical ops that produced
  /// them, so losing them in a crash is safe, but writing them to the
  /// page file outside the checkpoint protocol would not be.
  void MarkDirty();
  void Release();

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, void* frame) : pool_(pool), frame_(frame) {}

  BufferPool* pool_ = nullptr;
  void* frame_ = nullptr;
};

/// Page cache between the store and the pager: bounded set of in-memory
/// frames with second-chance (CLOCK) eviction over a recency list. Only
/// clean, unpinned frames are evictable; when every frame is dirty or
/// pinned the pool grows past capacity (and counts the overrun) rather
/// than violating the write-back protocol. Bookkeeping is guarded by an
/// internal reader/writer lock: hits take it shared (they only bump the
/// pin count and set the frame's referenced bit), misses and eviction
/// exclusive, and unpinning takes it only when the pool is over capacity
/// — so shared-lock readers pin and unpin concurrently.
class BufferPool {
 public:
  BufferPool(Pager* pager, size_t capacity, stats::StatRegistry* registry);
  /// Takes this pool's pages off the shared gauges.
  ~BufferPool();

  /// Pins page `pgno`, reading (and CRC-checking) it on a miss.
  Result<PageRef> Pin(uint32_t pgno);

  /// Pins a brand-new frame for `pgno` — zeroed, typed, dirty — without
  /// touching disk. For pages just allocated by the pager.
  PageRef PinNew(uint32_t pgno, uint8_t type);

  /// Drops the frame for a freed page (must be unpinned).
  void Discard(uint32_t pgno);
  /// Drops every frame, dirty or not (recovery adopts a page-image
  /// snapshot that supersedes all in-memory state). No pins may be live.
  void DiscardAll();

  /// Invokes `fn(pgno, data)` for every dirty frame in ascending page
  /// order (checkpoint write-back). `fn` may mutate the buffer (CRC
  /// stamping). Stops on the first error.
  Status ForEachDirty(const std::function<Status(uint32_t, char*)>& fn);
  void MarkAllClean();

  size_t frame_count() const;
  size_t dirty_count() const;
  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hits_->value(); }
  uint64_t misses() const { return misses_->value(); }

  /// Public only so the implementation can cast PageRef's opaque frame
  /// pointer; not part of the API.
  struct Frame {
    uint32_t pgno = kInvalidPage;
    std::unique_ptr<char[]> data;
    /// Taken under mu_; released without it (see Unpin).
    std::atomic<int> pins{0};
    /// Hit since eviction last passed this frame (the second chance).
    std::atomic<bool> referenced{false};
    bool dirty = false;
  };

 private:
  friend class PageRef;

  using FrameList = std::list<Frame>;

  PageRef PinResident(Frame* frame);
  void Unpin(void* frame);
  void MarkDirtyFrame(void* frame);
  /// Evicts clean unpinned frames from the list tail, second chance
  /// first, until the pool fits its capacity or nothing more is
  /// evictable. Caller holds mu_ exclusive.
  void EvictLocked();
  /// Adds the change in this pool's frame and dirty counts since the last
  /// call to the `Store.Cache.{Pages,DirtyPages}` gauges, which every
  /// pool on a registry shares. Caller holds mu_ exclusive.
  void PublishLocked();

  Pager* const pager_;
  const size_t capacity_;

  mutable std::shared_mutex mu_;
  FrameList lru_;  // front = newest, or last given a second chance
  std::unordered_map<uint32_t, FrameList::iterator> frames_;
  size_t dirty_ = 0;
  /// More frames than capacity after the last eviction pass: unpins then
  /// take mu_ to evict. Written under mu_.
  std::atomic<bool> over_capacity_{false};

  stats::Counter* hits_;
  stats::Counter* misses_;
  stats::Counter* evictions_;
  stats::Counter* overruns_;
  stats::Gauge* gauge_pages_;
  stats::Gauge* gauge_dirty_;
  int64_t published_pages_ = 0;  // this pool's share of gauge_pages_
  int64_t published_dirty_ = 0;  // this pool's share of gauge_dirty_
};

}  // namespace dominodb::pager

#endif  // DOMINODB_PAGER_BUFFER_POOL_H_
