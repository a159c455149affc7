#ifndef DOMINODB_REPL_REPLICATOR_H_
#define DOMINODB_REPL_REPLICATOR_H_

#include <map>
#include <optional>
#include <string>

#include "base/result.h"
#include "core/database.h"
#include "core/replication_history.h"
#include "formula/formula.h"
#include "net/sim_net.h"
#include "stats/stats.h"

namespace dominodb {

struct ReplicationOptions {
  /// After pulling remote changes into the local replica, let the remote
  /// pull local changes (the Notes pull-pull session).
  bool push = true;
  /// Selective replication: only notes matching this formula are pulled
  /// (deletion stubs always propagate). Empty string = everything.
  std::string selective_formula;
  /// Field-level conflict merging (the Notes "merge replication
  /// conflicts" form option): concurrent edits that touched disjoint
  /// items are merged into one version instead of producing a conflict
  /// document. Overlapping edits still conflict.
  bool merge_conflicts = false;
  /// Notes are installed in stamp order in batches of this size; after
  /// each complete batch the receiving side's history cutoff advances to
  /// the batch boundary, so a session that dies on a lossy link resumes
  /// from the last committed batch instead of from scratch.
  size_t batch_size = 32;
};

struct ReplicationReport {
  size_t summarized = 0;          // OIDs exchanged in the change summary
  size_t pulled = 0;              // notes installed locally
  size_t pushed = 0;              // notes installed remotely
  size_t deletions_applied = 0;   // stubs that removed live notes
  size_t conflicts = 0;           // conflict documents generated
  size_t merges = 0;              // conflicts resolved by field merge
  size_t skipped_unchanged = 0;   // dominated or equal versions
  size_t skipped_by_formula = 0;  // filtered by selective replication
  size_t apply_failures = 0;      // peers that rejected a pushed change
  uint64_t bytes_transferred = 0;
  uint64_t messages = 0;

  void MergeFrom(const ReplicationReport& other);
};

/// One side of a replication session: the database, the server name it is
/// addressed by on the SimNet, and that side's replication history
/// (required). A fresh history has no cutoffs, so a session given fresh
/// histories summarizes every note: the full-replication baseline of
/// experiment E3.
struct ReplicaEndpoint {
  Database* db = nullptr;
  std::string name;
  ReplicationHistory& history;
};

/// Installs `remote_note` (a note image from another replica of the same
/// database) into `db`, performing the Notes version resolution:
/// sequence-number dominance refined by the $Revisions ancestry check;
/// concurrent edits demote the loser to a conflict document (a response of
/// the winner flagged "$Conflict"); deletion stubs win over edits.
/// Shared by the scheduled replicator and the cluster (event-driven)
/// replicator. Returns true if anything changed locally.
Result<bool> ApplyRemoteChange(Database* db, const Note& remote_note,
                               ReplicationReport* report,
                               bool merge_fields = false);

/// Attempts the field-level merge of two conflicting versions of the same
/// note: succeeds when the items each side changed since their latest
/// common revision are disjoint (or changed identically). The result is
/// deterministic given the two inputs, so every replica converges on the
/// same merged version. `stamp` becomes the merged OID's sequence time.
std::optional<Note> TryMergeNotes(const Note& local, const Note& remote,
                                  Micros stamp);

/// The scheduled replicator task: one call = one replication session
/// between two replicas, in the Notes pull-pull style (the callee pulls,
/// then the caller pulls). `net` may be null (no latency/byte simulation).
class Replicator {
 public:
  /// `stats` (nullable → the global registry) receives the server-wide
  /// `Replica.*` counters; every completed session folds its
  /// ReplicationReport into them, and failed sessions log a Failure event.
  explicit Replicator(SimNet* net = nullptr,
                      stats::StatRegistry* stats = nullptr);

  /// One pull-pull session between two replicas. Fails if the replica
  /// ids differ (not replicas of the same database). Sessions are
  /// resumable: each side's history advances batch-by-batch as notes
  /// install, so a session killed by a link failure preserves its partial
  /// progress and the retry ships only the remainder. No cutoff ever
  /// covers a note written to either side during the session before that
  /// note has shipped.
  Result<ReplicationReport> Replicate(const ReplicaEndpoint& local,
                                      const ReplicaEndpoint& remote,
                                      const ReplicationOptions& options = {});

 private:
  /// The session body; Replicate wraps it with session/event accounting.
  Result<ReplicationReport> RunSession(const ReplicaEndpoint& local,
                                       const ReplicaEndpoint& remote,
                                       const ReplicationOptions& options);

  /// One direction: dst pulls changes from src.
  Status Pull(const ReplicaEndpoint& dst, const ReplicaEndpoint& src,
              const ReplicationOptions& options, bool count_as_pull,
              ReplicationReport* report);

  Status Charge(const std::string& from, const std::string& to,
                uint64_t bytes, ReplicationReport* report);

  /// Folds a finished session's report into the Replica.* counters.
  void RecordSession(const ReplicationReport& report);

  SimNet* net_;
  stats::StatRegistry* registry_;
  stats::Counter* ctr_sessions_completed_;
  stats::Counter* ctr_sessions_failed_;
  stats::Counter* ctr_docs_summarized_;
  stats::Counter* ctr_docs_received_;
  stats::Counter* ctr_docs_sent_;
  stats::Counter* ctr_docs_deleted_;
  stats::Counter* ctr_docs_conflicts_;
  stats::Counter* ctr_docs_merged_;
  stats::Counter* ctr_docs_skipped_;
  stats::Counter* ctr_docs_filtered_;
  stats::Counter* ctr_bytes_;
  stats::Counter* ctr_messages_;
};

/// Cluster replication: event-driven push among replicas on the same
/// cluster, as introduced for Domino clustering. Attach one per source
/// database; on every source commit it pushes the notes past its stamp
/// cursor (`NotesModifiedSince`) to the peers. One push runs at a time:
/// a commit that finds one running (on any thread) marks more work for
/// it and returns, so no thread waits for another's push and a mutual
/// pair cannot deadlock.
class ClusterReplicator : public DatabaseObserver {
 public:
  ClusterReplicator(Database* source, std::vector<Database*> peers,
                    stats::StatRegistry* stats = nullptr)
      : source_(source),
        peers_(std::move(peers)),
        registry_(stats != nullptr ? stats : &stats::StatRegistry::Global()),
        cursor_(source->last_write_stamp()) {
    ctr_cluster_pushes_ = &registry_->GetCounter("Replica.Cluster.Pushes");
    ctr_cluster_failures_ =
        &registry_->GetCounter("Replica.Cluster.Failures");
    // A peer that rejects pushes is a degraded cluster — worth an event.
    registry_->AddThreshold("Replica.Cluster.Failures", 1,
                            stats::Severity::kWarning,
                            "cluster replication push failures");
    source_->AddObserver(this);
  }
  ~ClusterReplicator() override { source_->RemoveObserver(this); }

  void OnCommit() override;

  /// Written by the pusher; read it once the source's writers returned.
  const ReplicationReport& report() const { return report_; }

 private:
  /// Pushes every note past the cursor to every peer, advancing it.
  void PushPending();
  void RecordClusterFailure(Database* peer, const Status& status);

  Database* source_;
  std::vector<Database*> peers_;
  stats::StatRegistry* registry_;
  stats::Counter* ctr_cluster_pushes_;
  stats::Counter* ctr_cluster_failures_;
  Mutex mu_;  // never held while calling into a database
  bool pushing_ GUARDED_BY(mu_) = false;
  bool more_ GUARDED_BY(mu_) = false;
  // Owned by the running pusher (the pushing_ hand-off orders them).
  Micros cursor_;
  ReplicationReport report_;
};

}  // namespace dominodb

#endif  // DOMINODB_REPL_REPLICATOR_H_
