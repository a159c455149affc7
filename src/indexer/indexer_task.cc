#include "indexer/indexer_task.h"

#include <utility>

namespace dominodb::indexer {

IndexerTask::IndexerTask(ThreadPool* pool,
                         std::function<void(IndexerTask*)> drain,
                         stats::StatRegistry* stats)
    : drain_(std::move(drain)), pool_(pool) {
  stats::StatRegistry& reg =
      stats != nullptr ? *stats : stats::StatRegistry::Global();
  ctr_enqueued_ = &reg.GetCounter("Indexer.Queue.Enqueued");
  ctr_drained_ = &reg.GetCounter("Indexer.Queue.Drained");
  ctr_drains_ = &reg.GetCounter("Indexer.Queue.Drains");
  gauge_depth_ = &reg.GetGauge("Indexer.Queue.Depth");
}

IndexerTask::~IndexerTask() { Close(); }

void IndexerTask::SetPool(ThreadPool* pool) {
  std::lock_guard<std::mutex> lock(mu_);
  pool_ = pool;
}

void IndexerTask::Enqueue(NoteChange change) {
  ThreadPool* pool = nullptr;
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    queue_.push_back(std::move(change));
    gauge_depth_->Set(static_cast<int64_t>(queue_.size()));
    pool = pool_;
    if (pool != nullptr && !drain_scheduled_) {
      drain_scheduled_ = true;
      ++inflight_;
      schedule = true;
    }
  }
  ctr_enqueued_->Add();
  if (pool == nullptr) {
    drain_(this);  // no pool: the writer drains its own event
    return;
  }
  if (!schedule) return;
  bool queued = pool->Submit([this] {
    bool run;
    {
      std::lock_guard<std::mutex> lock(mu_);
      run = !closed_;
    }
    if (run) drain_(this);
    std::lock_guard<std::mutex> lock(mu_);
    if (--inflight_ == 0) closed_cv_.notify_all();
  });
  if (!queued) {  // pool refused (shutting down); undo the bookkeeping
    std::lock_guard<std::mutex> lock(mu_);
    drain_scheduled_ = false;
    if (--inflight_ == 0) closed_cv_.notify_all();
  }
}

void IndexerTask::CatchUp(
    Epoch max_epoch, const std::function<void(const NoteChange&)>& apply) {
  if (drain_owner_.load(std::memory_order_relaxed) ==
      std::this_thread::get_id()) {
    return;  // reentrant catch-up; the outer drain finishes
  }
  size_t applied = 0;
  for (;;) {
    {
      // Wait out any in-flight application we depend on (an event stops
      // being queued the moment an applier peels it — a reader returning
      // before it lands would see the index torn mid-event), then check
      // for queued work. The queue is in commit order, so everything at
      // or below max_epoch is a contiguous front prefix.
      std::unique_lock<std::mutex> lock(mu_);
      in_flight_cv_.wait(lock, [&] {
        return in_flight_epoch_ == kEpochNone ||
               in_flight_epoch_ > max_epoch;
      });
      if (queue_.empty() || queue_.front().epoch > max_epoch) {
        if (queue_.empty()) drain_scheduled_ = false;
        break;
      }
    }
    // Applicable work exists: serialize on the applier lock and apply one
    // event. Per-event granularity keeps a catching-up reader's wait
    // bounded by a single application, not a whole backlog.
    std::lock_guard<std::mutex> apply_lock(apply_mu_);
    NoteChange change;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty() || queue_.front().epoch > max_epoch) {
        continue;  // another applier got there first; re-check exit
      }
      change = std::move(queue_.front());
      queue_.pop_front();
      in_flight_epoch_ = change.epoch;
      gauge_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    drain_owner_.store(std::this_thread::get_id(),
                       std::memory_order_relaxed);
    apply(change);
    drain_owner_.store(std::thread::id(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_epoch_ = kEpochNone;
    }
    in_flight_cv_.notify_all();
    ++applied;
  }
  if (applied > 0) {
    ctr_drained_->Add(applied);
    ctr_drains_->Add();
  }
}

bool IndexerTask::HasPending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !queue_.empty();
}

void IndexerTask::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  closed_ = true;
  closed_cv_.wait(lock, [this] { return inflight_ == 0; });
  queue_.clear();
  gauge_depth_->Set(0);
}

}  // namespace dominodb::indexer
