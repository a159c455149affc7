#ifndef DOMINODB_CORE_REPLICATION_HISTORY_H_
#define DOMINODB_CORE_REPLICATION_HISTORY_H_

#include <map>
#include <string>

#include "base/clock.h"
#include "base/shared_mutex.h"

namespace dominodb {

/// Per-database replication history: two cutoffs per peer.
///  - Received through (`CutoffFor`, in the peer's stamps): this database
///    has pulled every change of the peer stamped at or below it. The
///    incremental-replication claim of the paper hangs on this: only
///    notes modified after the cutoff are summarized and shipped.
///  - Sent through (in this database's stamps): the peer has pulled every
///    change of this database stamped at or below it. PurgeStubs keeps
///    any stub above MinSentCutoff(), or a peer's live copy replicates
///    back and silently undoes the delete (the resurrection anomaly).
///
/// Thread-safe: the replicator records cutoffs while the purge task (or a
/// concurrent session with another peer) reads them.
class ReplicationHistory {
 public:
  /// Received through; 0 when this database never pulled from `peer`.
  Micros CutoffFor(const std::string& peer) const;
  /// Each recorder keeps the maximum per peer, so a stale report never
  /// rewinds progress.
  void Record(const std::string& peer, Micros cutoff);
  void RecordSent(const std::string& peer, Micros cutoff);

  /// The least-caught-up peer's sent-through cutoff (0 for a peer this
  /// database only pulled from). With no peer — the database never
  /// replicated — nothing needs protecting: the maximum stamp.
  Micros MinSentCutoff() const;

 private:
  struct Cutoffs {
    Micros received = 0;
    Micros sent = 0;
  };
  mutable Mutex mu_;
  std::map<std::string, Cutoffs> peers_ GUARDED_BY(mu_);
};

}  // namespace dominodb

#endif  // DOMINODB_CORE_REPLICATION_HISTORY_H_
