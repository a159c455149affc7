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

/// The background UPDATE/UPDALL queue: writers enqueue note-change events
/// and return immediately; a single drain task (scheduled on the pool, at
/// most one outstanding) applies them in order. This reproduces Domino's
/// indexer discipline — one background UPDATE task per server works the
/// queue, so index maintenance is serialized and writers never pay it
/// inline.
///
/// Threading contract: appliers serialize on an internal apply mutex held
/// across pop+apply, so events are applied exactly once and in commit
/// order without any database-wide lock. DrainInline drains everything
/// (the background path); CatchUp(P) drains only events at or below a
/// pinned epoch (a snapshot reader bringing the indexes up to its pin).
/// Both are reentrancy-safe on the same thread (a formula that re-enters
/// a read mid-apply finds the drain owned and returns; the outer drain
/// finishes the queue). `Close()` must be called before the owner is
/// destroyed — it stops new drain scheduling and waits for any in-flight
/// pool callback to finish.
class IndexerTask {
 public:
  /// `drain` is invoked from a pool worker when events are pending, with
  /// this task as argument (so an owner that detaches tasks can tell a
  /// stale callback from the current one); it must end up calling
  /// DrainInline (typically via the owning database's flush entry point).
  /// `stats` nullable → the global registry.
  IndexerTask(ThreadPool* pool, std::function<void(IndexerTask*)> drain,
              stats::StatRegistry* stats = nullptr);
  ~IndexerTask();

  IndexerTask(const IndexerTask&) = delete;
  IndexerTask& operator=(const IndexerTask&) = delete;

  /// Records a change event; schedules a drain on the pool if none is
  /// already outstanding. Cheap: one small-mutex push.
  void Enqueue(NoteChange change);

  /// Applies every pending event in order on the calling thread via
  /// `apply`. Serializes on the internal apply mutex; reentrant calls
  /// (e.g. @DbLookup during a view update triggering a catch-up) are
  /// no-ops — the outer drain finishes the queue.
  void DrainInline(const std::function<void(const NoteChange&)>& apply);

  /// Applies the pending prefix of events with epoch <= max_epoch — what
  /// a reader pinned at `max_epoch` needs before the indexes reflect its
  /// snapshot. Later events stay queued for the background drain.
  void CatchUp(Epoch max_epoch,
               const std::function<void(const NoteChange&)>& apply);

  bool HasPending() const;
  size_t pending() const;

  /// Stops scheduling and waits for in-flight pool callbacks. Remaining
  /// events are dropped (the owner's indexes are going away with it).
  void Close();

 private:
  void DrainUpTo(Epoch max_epoch,
                 const std::function<void(const NoteChange&)>& apply);

  ThreadPool* pool_;
  std::function<void(IndexerTask*)> drain_;

  /// Serializes appliers (held across pop+apply). Taken without mu_;
  /// never take mu_ first.
  std::mutex apply_mu_;
  /// Thread currently inside DrainUpTo, for same-thread reentrancy.
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
