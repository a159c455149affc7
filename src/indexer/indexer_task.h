#ifndef DOMINODB_INDEXER_INDEXER_TASK_H_
#define DOMINODB_INDEXER_INDEXER_TASK_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "base/epoch.h"
#include "base/thread_annotations.h"
#include "indexer/thread_pool.h"
#include "model/note.h"
#include "stats/stats.h"

namespace dominodb::indexer {

/// What happened to a note, from the index-maintenance point of view.
enum class ChangeKind {
  kChanged,  // created, updated, or replaced by a deletion stub
  kErased,   // physically purged; no note body remains
};

struct NoteChange {
  NoteId id = kInvalidNoteId;
  ChangeKind kind = ChangeKind::kChanged;
  /// Commit epoch of the mutation that produced this event. The queue is
  /// in commit order, so CatchUp can peel the prefix at or below a pinned
  /// epoch.
  Epoch epoch = kEpochNone;
  /// Post-state of the note, captured at enqueue time so appliers index
  /// the state this commit produced instead of re-reading the store (and
  /// possibly seeing a later commit). Null for kErased.
  NoteHandle note;
};

/// A database's UPDATE queue: writers enqueue note-change events in
/// commit order and appliers work them off in that order. Who drains is
/// a scheduling choice, not a second algorithm. With a pool, a single
/// drain task (at most one outstanding) runs on a pool worker and the
/// writer returns before its views are touched, as Domino's background
/// UPDATE task does. With no pool, the writer runs the drain itself
/// inside Enqueue.
///
/// Threading contract: appliers serialize on an internal apply mutex held
/// across pop+apply, so events are applied exactly once and in commit
/// order without any database-wide lock. CatchUp(P) drains the events at
/// or below P: a snapshot reader bringing the indexes up to its pin, or,
/// with kEpochMax, a full drain. It is reentrancy-safe on the same thread
/// (a formula that re-enters a read mid-apply finds the drain owned and
/// returns; the outer drain finishes the queue).
/// `Close()` must be called before the owner is destroyed — it stops new
/// drain scheduling and waits for any in-flight pool callback to finish.
class IndexerTask {
 public:
  /// `drain` runs whenever events are pending: on a pool worker, or on
  /// the enqueuing thread when there is no pool. It receives this task
  /// and must apply every queued event (CatchUp with kEpochMax). `pool`
  /// nullable → writers drain. `stats` nullable → the global registry.
  IndexerTask(ThreadPool* pool, std::function<void(IndexerTask*)> drain,
              stats::StatRegistry* stats = nullptr);
  ~IndexerTask();

  IndexerTask(const IndexerTask&) = delete;
  IndexerTask& operator=(const IndexerTask&) = delete;

  /// Changes who drains: later Enqueues schedule on `pool`, or drain on
  /// the caller when null. A drain already queued on the previous pool
  /// still runs there and works the whole queue.
  void SetPool(ThreadPool* pool);

  /// Records a change event, then either schedules a drain on the pool
  /// (if none is already outstanding) or, with no pool, runs it here.
  void Enqueue(NoteChange change);

  /// Applies the pending prefix of events with epoch <= max_epoch, in
  /// order, on the calling thread via `apply` — what a reader pinned at
  /// `max_epoch` needs before the indexes reflect its snapshot; kEpochMax
  /// drains everything. Later events stay queued for the next drain.
  /// Serializes on the internal apply mutex; reentrant calls (e.g.
  /// @DbLookup during a view update triggering a catch-up) are no-ops —
  /// the outer drain finishes the queue.
  void CatchUp(Epoch max_epoch,
               const std::function<void(const NoteChange&)>& apply);

  bool HasPending() const;

  /// Stops scheduling and waits for in-flight pool callbacks. Remaining
  /// events are dropped (the owner's indexes are going away with it).
  void Close();

 private:
  std::function<void(IndexerTask*)> drain_;

  /// Serializes appliers (held across pop+apply). Taken without mu_;
  /// never take mu_ first.
  std::mutex apply_mu_;
  /// Thread currently inside CatchUp, for same-thread reentrancy.
  std::atomic<std::thread::id> drain_owner_{};

  mutable std::mutex mu_;
  std::condition_variable closed_cv_;
  /// Signalled when in_flight_epoch_ clears; CatchUp waiters depend on it.
  std::condition_variable in_flight_cv_;
  /// Epoch of the event currently being applied (kEpochNone when none).
  /// An event stops being "pending" the moment it is peeled off the
  /// queue, so CatchUp must consider this too: a reader pinned at P has
  /// caught up only when the queue holds nothing <= P AND no such event
  /// is mid-application.
  Epoch in_flight_epoch_ = kEpochNone;
  std::deque<NoteChange> queue_;
  ThreadPool* pool_;  // null: Enqueue drains on the caller
  bool drain_scheduled_ = false;  // a pool callback is queued or running
  bool closed_ = false;
  size_t inflight_ = 0;  // pool callbacks not yet finished

  stats::Counter* ctr_enqueued_;
  stats::Counter* ctr_drained_;
  stats::Counter* ctr_drains_;
  stats::Gauge* gauge_depth_;
};

}  // namespace dominodb::indexer

#endif  // DOMINODB_INDEXER_INDEXER_TASK_H_
