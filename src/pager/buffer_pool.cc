#include "pager/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace dominodb::pager {

namespace {
BufferPool::Frame* AsFrame(void* p) {
  return static_cast<BufferPool::Frame*>(p);
}
}  // namespace

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

PageRef::~PageRef() { Release(); }

void PageRef::Release() {
  if (frame_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = nullptr;
  }
}

uint32_t PageRef::pgno() const { return AsFrame(frame_)->pgno; }
char* PageRef::data() { return AsFrame(frame_)->data.get(); }
const char* PageRef::data() const { return AsFrame(frame_)->data.get(); }
void PageRef::MarkDirty() { pool_->MarkDirtyFrame(frame_); }

BufferPool::BufferPool(Pager* pager, size_t capacity,
                       stats::StatRegistry* registry)
    : pager_(pager),
      capacity_(std::max<size_t>(1, capacity)),
      hits_(&registry->GetCounter("Store.Cache.Hits")),
      misses_(&registry->GetCounter("Store.Cache.Misses")),
      evictions_(&registry->GetCounter("Store.Cache.Evictions")),
      overruns_(&registry->GetCounter("Store.Cache.CapacityOverruns")),
      gauge_pages_(&registry->GetGauge("Store.Cache.Pages")),
      gauge_dirty_(&registry->GetGauge("Store.Cache.DirtyPages")) {}

BufferPool::~BufferPool() {
  gauge_pages_->Add(-published_pages_);
  gauge_dirty_->Add(-published_dirty_);
}

void BufferPool::PublishLocked() {
  const auto pages = static_cast<int64_t>(lru_.size());
  const auto dirty = static_cast<int64_t>(dirty_);
  if (pages != published_pages_) {
    gauge_pages_->Add(pages - published_pages_);
    published_pages_ = pages;
  }
  if (dirty != published_dirty_) {
    gauge_dirty_->Add(dirty - published_dirty_);
    published_dirty_ = dirty;
  }
}

PageRef BufferPool::PinResident(Frame* frame) {
  hits_->Add();
  frame->pins.fetch_add(1, std::memory_order_relaxed);
  if (!frame->referenced.load(std::memory_order_relaxed)) {
    frame->referenced.store(true, std::memory_order_relaxed);
  }
  return PageRef(this, frame);
}

Result<PageRef> BufferPool::Pin(uint32_t pgno) {
  {
    // A hit only bumps the pin count and sets the frame's second-chance
    // bit, so concurrent hits share the lock.
    std::shared_lock<std::shared_mutex> shared(mu_);
    auto it = frames_.find(pgno);
    if (it != frames_.end()) return PinResident(&*it->second);
  }
  std::lock_guard<std::shared_mutex> lock(mu_);
  auto it = frames_.find(pgno);  // another miss may have loaded it
  if (it != frames_.end()) return PinResident(&*it->second);
  misses_->Add();
  lru_.emplace_front();
  Frame& frame = lru_.front();
  frame.pgno = pgno;
  frame.data = std::make_unique<char[]>(pager_->page_size());
  Status s = pager_->ReadPage(pgno, frame.data.get());
  if (!s.ok()) {
    lru_.pop_front();
    return s;
  }
  frame.pins.store(1, std::memory_order_relaxed);
  frames_[pgno] = lru_.begin();
  PublishLocked();
  EvictLocked();
  return PageRef(this, &frame);
}

PageRef BufferPool::PinNew(uint32_t pgno, uint8_t type) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  assert(frames_.find(pgno) == frames_.end());
  lru_.emplace_front();
  Frame& frame = lru_.front();
  frame.pgno = pgno;
  frame.data = std::make_unique<char[]>(pager_->page_size());
  std::memset(frame.data.get(), 0, pager_->page_size());
  frame.data[kPageTypeOffset] = static_cast<char>(type);
  StoreU32(frame.data.get() + kPageNextOffset, kInvalidPage);
  frame.pins.store(1, std::memory_order_relaxed);
  frame.dirty = true;
  ++dirty_;
  frames_[pgno] = lru_.begin();
  PublishLocked();
  EvictLocked();
  return PageRef(this, &frame);
}

void BufferPool::Discard(uint32_t pgno) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  auto it = frames_.find(pgno);
  if (it == frames_.end()) return;
  assert(it->second->pins.load(std::memory_order_acquire) == 0);
  if (it->second->dirty) --dirty_;
  lru_.erase(it->second);
  frames_.erase(it);
  // Compaction discards emptied pages: a pool it brings back under
  // capacity stops taking mu_ on unpin.
  over_capacity_.store(lru_.size() > capacity_, std::memory_order_relaxed);
  PublishLocked();
}

void BufferPool::DiscardAll() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  lru_.clear();
  frames_.clear();
  dirty_ = 0;
  over_capacity_.store(false, std::memory_order_relaxed);
  PublishLocked();
}

Status BufferPool::ForEachDirty(
    const std::function<Status(uint32_t, char*)>& fn) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  std::vector<Frame*> dirty;
  dirty.reserve(dirty_);
  for (Frame& frame : lru_) {
    if (frame.dirty) dirty.push_back(&frame);
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const Frame* a, const Frame* b) { return a->pgno < b->pgno; });
  for (Frame* frame : dirty) {
    DOMINO_RETURN_IF_ERROR(fn(frame->pgno, frame->data.get()));
  }
  return Status::Ok();
}

void BufferPool::MarkAllClean() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  for (Frame& frame : lru_) frame.dirty = false;
  dirty_ = 0;
  PublishLocked();
  EvictLocked();
}

size_t BufferPool::frame_count() const {
  std::lock_guard<std::shared_mutex> lock(mu_);
  return lru_.size();
}

size_t BufferPool::dirty_count() const {
  std::lock_guard<std::shared_mutex> lock(mu_);
  return dirty_;
}

void BufferPool::Unpin(void* frame) {
  Frame* f = AsFrame(frame);
  // No lock while the pool fits: eviction reads the count under mu_ with
  // acquire, which orders this pin's page reads before any reuse. Only an
  // over-capacity pool, which wants the frame evicted now, takes mu_.
  if (!over_capacity_.load(std::memory_order_relaxed)) {
    [[maybe_unused]] const int before =
        f->pins.fetch_sub(1, std::memory_order_release);
    assert(before > 0);
    return;
  }
  std::lock_guard<std::shared_mutex> lock(mu_);
  const int before = f->pins.fetch_sub(1, std::memory_order_release);
  assert(before > 0);
  if (before == 1 && !f->dirty && lru_.size() > capacity_) EvictLocked();
}

void BufferPool::MarkDirtyFrame(void* frame) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  Frame* f = AsFrame(frame);
  if (!f->dirty) {
    f->dirty = true;
    ++dirty_;
    PublishLocked();
  }
}

void BufferPool::EvictLocked() {
  if (lru_.size() <= capacity_) {
    over_capacity_.store(false, std::memory_order_relaxed);
    return;
  }
  // Second chance from the tail: a frame hit since it was last passed
  // moves to the front with its bit cleared (hits cannot set it again
  // while mu_ is held exclusive, so each frame moves at most once);
  // otherwise the frame goes if it is clean and unpinned.
  auto boundary = lru_.end();  // frames from here on were kept
  while (lru_.size() > capacity_ && boundary != lru_.begin()) {
    auto it = std::prev(boundary);
    if (it->referenced.exchange(false, std::memory_order_relaxed)) {
      lru_.splice(lru_.begin(), lru_, it);
    } else if (it->pins.load(std::memory_order_acquire) == 0 && !it->dirty) {
      frames_.erase(it->pgno);
      lru_.erase(it);
      evictions_->Add();
    } else {
      boundary = it;
    }
  }
  PublishLocked();
  over_capacity_.store(lru_.size() > capacity_, std::memory_order_relaxed);
  if (lru_.size() > capacity_) overruns_->Add();
}

}  // namespace dominodb::pager
