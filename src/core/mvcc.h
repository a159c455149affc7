#ifndef DOMINODB_CORE_MVCC_H_
#define DOMINODB_CORE_MVCC_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/epoch.h"
#include "base/shared_mutex.h"
#include "base/thread_annotations.h"
#include "model/note.h"
#include "stats/stats.h"

namespace dominodb {

/// Epoch-based MVCC bookkeeping for one database: the committed-epoch
/// counter, the registry of pinned reader epochs, and the short-lived
/// pre-image overlay for notes mutated since the oldest pin.
///
/// Protocol (writers are serialized externally by the Database's write
/// lock; readers call Pin/Lookup/Unpin from any thread):
///
///   writer:  E = BeginCommit();            // committed + 1
///            for each note it will touch:  Record(id, E, pre_image)
///            ... apply to store / enqueue index events ...
///            Publish(E);                   // readers may now pin E
///
///   reader:  P = Pin();                    // latest published epoch
///            resolve ids: read store first, then Lookup(id, P):
///              kUseStore → the store value IS the value at P (no commit
///                          with epoch > P touched this id: pre-images
///                          are recorded before the store is modified,
///                          and commits ≤ P finished before P published)
///              kVersion  → use the returned pre-image handle
///              kAbsent   → the note did not exist at P
///            Unpin(P);
///
/// Reclamation: a pre-image recorded by commit E is needed by a reader
/// pinned at P iff P < E. Versions with E ≤ min(pinned epochs) — or all
/// versions when nothing is pinned — are dropped at Publish/Unpin.
class MvccSnapshots {
 public:
  enum class Verdict : uint8_t {
    kUseStore,  // store's current value is correct at this epoch
    kVersion,   // use the returned pre-image
    kAbsent,    // note did not exist at this epoch
  };

  struct Resolution {
    Verdict verdict = Verdict::kUseStore;
    NoteHandle note;  // set iff verdict == kVersion
  };

  explicit MvccSnapshots(stats::StatRegistry* registry);

  /// Pins the latest published epoch and returns it. The epoch is read
  /// under the same mutex Publish/reclaim hold, so a pin can never race
  /// with the reclamation of versions it needs.
  Epoch Pin();
  void Unpin(Epoch epoch);

  /// Latest published epoch (lock-free; for stats and fast paths).
  Epoch committed() const {
    return committed_.load(std::memory_order_acquire);
  }

  /// Starts a commit: returns committed() + 1. Caller must hold the
  /// database write lock (one commit in flight at a time).
  Epoch BeginCommit() const { return committed() + 1; }

  /// Records the pre-image of note `id` as of just before commit `epoch`.
  /// `pre` is null when the note did not exist. Must be called BEFORE the
  /// store is modified. The first record per (id, epoch) wins — later
  /// mutations of the same note inside one commit see an already-dirty
  /// note whose true pre-image was captured by the first call.
  void Record(NoteId id, Epoch epoch, NoteHandle pre);

  /// Publishes commit `epoch` (readers may now pin it) and reclaims
  /// versions no pinned reader can need.
  void Publish(Epoch epoch);

  /// Resolves note `id` at snapshot `at`. See class comment for the
  /// required read ordering (store first, then Lookup).
  Resolution Lookup(NoteId id, Epoch at) const;

  /// Id a purged note's UNID mapped to, for snapshot reads after the
  /// store forgot the mapping. Only consulted when the store's own UNID
  /// index misses; nullopt when the overlay has no trace either.
  std::optional<NoteId> LookupUnid(const Unid& unid) const;

  /// Ids that currently have overlay versions (purged-but-pinned scan
  /// support: callers re-resolve each via Lookup at their epoch).
  std::vector<NoteId> OverlayIds() const;

  /// Epoch below-or-at which versions are reclaimable: min pinned epoch,
  /// or committed() when nothing is pinned. View indexes use the same
  /// floor for their versioned side entries.
  Epoch ReclaimFloor() const;

  uint64_t live_versions() const {
    return static_cast<uint64_t>(gauge_live_versions_->value());
  }
  uint64_t pinned_count() const {
    return static_cast<uint64_t>(gauge_pinned_->value());
  }

 private:
  struct Version {
    Epoch epoch = kEpochNone;  // commit this is the pre-image of
    NoteHandle pre;            // null = absent before the commit
  };
  struct PinInfo {
    uint64_t count = 0;
    int64_t earliest_us = 0;  // steady-clock stamp of the oldest holder
  };

  void ReclaimLocked() REQUIRES(mu_);
  void RefreshPinAgeLocked() REQUIRES(mu_);

  mutable Mutex mu_;
  std::atomic<Epoch> committed_{kEpochNone};
  std::map<Epoch, PinInfo> pins_ GUARDED_BY(mu_);
  // Per note, pre-image versions in ascending commit-epoch order.
  std::unordered_map<NoteId, std::vector<Version>> overlay_ GUARDED_BY(mu_);
  // UNID → id for every recorded pre-image (survives store purges).
  std::unordered_map<Unid, NoteId> unid_overlay_ GUARDED_BY(mu_);
  /// Written under mu_; Lookup reads it lock-free for its fast path.
  std::atomic<uint64_t> version_count_{0};

  stats::Gauge* gauge_pinned_;
  stats::Gauge* gauge_live_versions_;
  stats::Counter* ctr_reclaimed_;
  stats::Gauge* gauge_oldest_pin_age_us_;
};

}  // namespace dominodb

#endif  // DOMINODB_CORE_MVCC_H_
