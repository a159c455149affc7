#ifndef DOMINODB_INDEXER_THREAD_POOL_H_
#define DOMINODB_INDEXER_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "stats/stats.h"

namespace dominodb::indexer {

/// A fixed-size worker pool with a bounded MPMC task queue — the
/// substrate for the background UPDATE indexer task (IndexerTask). Full
/// view/full-text rebuilds do not use it: they run on the caller's thread
/// (EXPERIMENTS E12 measured a sharded rebuild slower than serial on
/// four hardware threads). Submitting blocks while the
/// queue is at capacity (backpressure instead of unbounded growth, like
/// the Domino indexer's work-queue depth limit).
///
/// Stats (per-registry, Domino dotted names):
///   Indexer.Threads.TasksQueued   tasks ever submitted
///   Indexer.Threads.TasksRun      tasks completed
///   Indexer.Threads.QueueDepth    current queue depth (gauge)
///   Indexer.Threads.TaskMicros    task run-time histogram
/// The constructor arms an `Indexer.Threads.QueueDepth >= capacity`
/// warning threshold so a saturated queue shows up in the event log.
class ThreadPool {
 public:
  /// `threads` is clamped to at least 1. `stats` nullable → the global
  /// registry.
  explicit ThreadPool(size_t threads, stats::StatRegistry* stats = nullptr,
                      size_t queue_capacity = 1024);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; blocks while the queue is full. Tasks may themselves
  /// call Submit (the queue capacity must then exceed the fan-out).
  /// Returns false when the pool is shutting down and the task was dropped.
  bool Submit(std::function<void()> task);

  /// Returns once the queue is empty and every worker is idle. Tasks
  /// submitted after WaitIdle returns are not waited for.
  void WaitIdle();

  /// Stops accepting work, runs every already-queued task, and joins the
  /// workers. Called by the destructor; idempotent.
  void Shutdown();

  size_t queue_capacity() const { return capacity_; }

 private:
  void WorkerLoop();

  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;       // tasks currently executing
  bool stopping_ = false;   // no new submissions; drain & exit
  std::vector<std::thread> workers_;

  stats::Counter* ctr_queued_;
  stats::Counter* ctr_run_;
  stats::Gauge* gauge_depth_;
  stats::Histogram* hist_task_micros_;
};

}  // namespace dominodb::indexer

#endif  // DOMINODB_INDEXER_THREAD_POOL_H_
