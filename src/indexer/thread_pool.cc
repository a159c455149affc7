#include "indexer/thread_pool.h"

#include <chrono>

namespace dominodb::indexer {

ThreadPool::ThreadPool(size_t threads, stats::StatRegistry* stats,
                       size_t queue_capacity)
    : capacity_(queue_capacity > 0 ? queue_capacity : 1) {
  stats::StatRegistry& reg =
      stats != nullptr ? *stats : stats::StatRegistry::Global();
  ctr_queued_ = &reg.GetCounter("Indexer.Threads.TasksQueued");
  ctr_run_ = &reg.GetCounter("Indexer.Threads.TasksRun");
  gauge_depth_ = &reg.GetGauge("Indexer.Threads.QueueDepth");
  hist_task_micros_ = &reg.GetHistogram("Indexer.Threads.TaskMicros");
  reg.AddThreshold("Indexer.Threads.QueueDepth", capacity_,
                   stats::Severity::kWarning,
                   "indexer task queue saturated");
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return queue_.size() < capacity_ || stopping_; });
    if (stopping_) return false;  // shutting down: drop late submissions
    queue_.push_back(std::move(task));
    gauge_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  ctr_queued_->Add();
  not_empty_.notify_one();
  return true;
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
      gauge_depth_->Set(static_cast<int64_t>(queue_.size()));
      ++active_;
    }
    not_full_.notify_one();
    auto start = std::chrono::steady_clock::now();
    task();
    hist_task_micros_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    ctr_run_->Add();
    bool now_idle;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      now_idle = queue_.empty() && active_ == 0;
    }
    if (now_idle) idle_.notify_all();
  }
}

}  // namespace dominodb::indexer
