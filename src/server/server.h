#ifndef DOMINODB_SERVER_SERVER_H_
#define DOMINODB_SERVER_SERVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "core/database.h"
#include "indexer/thread_pool.h"
#include "mail/router.h"
#include "net/sim_net.h"
#include "repl/replicator.h"
#include "repl/replicator_task.h"
#include "stats/stats.h"
#include "wal/shared_log.h"

namespace dominodb {

/// A Domino server: a named host holding databases and running the
/// classic server tasks — the replicator and the mail router. Servers in
/// one process communicate over the SimNet substitute.
class Server {
 public:
  /// `directory` (the shared Domino Directory) and `net` may be null for
  /// single-server use. `stats` is this server's stat registry; null uses
  /// the process-wide StatRegistry::Global() (all servers aggregate), while
  /// a private registry gives per-server `show stat` output.
  Server(std::string name, std::string base_dir, const Clock* clock,
         SimNet* net, MailDirectory* directory,
         stats::StatRegistry* stats = nullptr);
  ~Server() = default;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& name() const { return name_; }
  const Clock* clock() const { return clock_; }

  // -- Databases ----------------------------------------------------------
  /// Creates (or opens, if present on disk) a database stored under
  /// `<base_dir>/<file>`.
  Result<Database*> OpenDatabase(const std::string& file,
                                 DatabaseOptions options);
  Database* FindDatabase(const std::string& file);
  std::vector<std::string> DatabaseFiles() const;

  /// Creates a new replica of `source` on this server (same replica id,
  /// initially empty; the first replication populates it).
  Result<Database*> CreateReplicaOf(const Database& source,
                                    const std::string& file);

  // -- Replication ----------------------------------------------------------
  /// One replication session of database `file` with the same-named
  /// database on `peer` (pull-pull). Each database keeps its replication
  /// history with `peer` itself.
  Result<ReplicationReport> ReplicateWith(Server& peer,
                                          const std::string& file,
                                          const ReplicationOptions& options =
                                              ReplicationOptions());

  // -- Replicator task (connection documents + resilient scheduling) -------
  /// Sets the retry policy of this server's replicator task, which runs
  /// from construction next to the indexer and router: connection documents
  /// registered via AddConnection are polled by RunReplicatorDue, with
  /// exponential backoff + jitter on transient failure, a per-pair circuit
  /// breaker, and permanent-failure quarantine. `seed` feeds the jitter PRNG.
  Status StartReplicator(repl::RetryPolicy policy = repl::RetryPolicy(),
                         uint64_t seed = 0);

  /// Registers a connection document replicating `file` with `peer` every
  /// `interval` microseconds (0 = every poll), or updates the pair's
  /// document. Returns its index. `peer` must outlive this server.
  Result<size_t> AddConnection(Server& peer, const std::string& file,
                               Micros interval = 0,
                               const ReplicationOptions& options =
                                   ReplicationOptions());

  /// One poll of the replicator task at the server clock's current time.
  Result<repl::SchedulerRunReport> RunReplicatorDue();

  repl::ReplicatorTask* replicator() { return &replicator_; }

  // -- Mail ------------------------------------------------------------------
  /// Creates mail.box and the router task.
  Status EnsureMailInfrastructure();
  Router* router() { return router_.get(); }

  /// Creates `mail/<user>.nsf`, attaches it to the router, and registers
  /// the user's home server in the directory.
  Result<Database*> CreateMailFile(const std::string& user);
  Database* MailFileOf(const std::string& user);

  /// Convenience client API: submit a memo from a user on this server.
  Status SendMail(const std::string& from,
                  const std::vector<std::string>& to,
                  const std::string& subject, const std::string& body);

  /// Runs this server's router once against the given fleet.
  Result<size_t> RunRouterOnce(const std::map<std::string, Router*>& peers);

  /// Builds the peers map RunRouterOnce expects from a fleet of servers
  /// (mail infrastructure is ensured on each).
  static Result<std::map<std::string, Router*>> RouterPeers(
      const std::vector<Server*>& fleet);

  /// Runs every server's router in passes until all mail.boxes drain or
  /// `max_passes` is reached; returns the passes executed. Messages
  /// retained for transient-transfer retry keep the loop polling, so on
  /// a flapping network callers advance the sim clock between calls and
  /// invoke this again.
  static Result<size_t> DrainRouters(const std::vector<Server*>& fleet,
                                     size_t max_passes = 10);

  // -- Shared transaction log (Domino R5 transaction logging) --------------
  /// Switches this server to ONE shared, sequentially-written transaction
  /// log (under `<base_dir>/txnlog`) that every database opened AFTERWARDS
  /// appends to, with leader/follower group commit amortizing the fsync
  /// across concurrent committers (`Server.WAL.*` stats: batch size
  /// histogram, syncs saved, leader/follower counts). Databases already
  /// open keep their own one-stream logs. Idempotent; options are fixed
  /// by the first call.
  Status EnableSharedLog(wal::SharedLogOptions options = {});
  wal::SharedLog* shared_log() { return shared_log_.get(); }

  // -- Background indexer (the UPDATE task) --------------------------------
  /// Starts the server's indexer pool with `threads` workers and attaches
  /// it to every open database (and to databases opened later). Document
  /// writes then defer view/full-text maintenance to the pool. Idempotent.
  Status StartIndexer(size_t threads);
  indexer::ThreadPool* indexer_pool() { return indexer_pool_.get(); }

  // -- Statistics & events (the Domino console surface) --------------------
  stats::StatRegistry& stats() { return *stats_; }
  const stats::StatRegistry& stats() const { return *stats_; }

  /// The `show stat` console command for this server.
  std::string ShowStat(const std::string& pattern = "") const {
    return stats_->ShowStat(pattern);
  }
  std::string ShowStatJson(const std::string& pattern = "") const {
    return stats_->ShowStatJson(pattern);
  }
  stats::StatSnapshot StatSnapshot() const { return stats_->Snapshot(); }

  /// Evaluates the server's threshold event rules (the Collector poll).
  size_t CheckThresholds() {
    return stats_->CheckThresholds(clock_ != nullptr ? clock_->Now() : 0);
  }

 private:
  std::string DirFor(const std::string& file) const;

  std::string name_;
  std::string base_dir_;
  const Clock* clock_;
  SimNet* net_;
  MailDirectory* directory_;
  stats::StatRegistry* stats_;
  stats::Gauge* gauge_databases_;
  /// Declared before databases_ so it outlives them: each ~Database waits
  /// for its in-flight drain callbacks, which run on this pool.
  std::unique_ptr<indexer::ThreadPool> indexer_pool_;
  /// Likewise declared before databases_: stores flush through the shared
  /// log until destruction.
  std::unique_ptr<wal::SharedLog> shared_log_;
  std::map<std::string, std::unique_ptr<Database>> databases_;
  repl::ReplicatorTask replicator_;
  std::map<std::string, Server*> known_peers_;  // name → peer (connections)
  std::unique_ptr<Router> router_;
  std::map<std::string, std::string> mail_file_of_user_;  // lower(user) → file
  uint64_t unid_seed_counter_ = 1;
};

}  // namespace dominodb

#endif  // DOMINODB_SERVER_SERVER_H_
