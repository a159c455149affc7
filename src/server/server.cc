#include "server/server.h"

#include "base/hash.h"
#include "base/string_util.h"

namespace dominodb {

Server::Server(std::string name, std::string base_dir, const Clock* clock,
               SimNet* net, MailDirectory* directory,
               stats::StatRegistry* stats)
    : name_(std::move(name)),
      base_dir_(std::move(base_dir)),
      clock_(clock),
      net_(net),
      directory_(directory),
      stats_(stats != nullptr ? stats : &stats::StatRegistry::Global()),
      replicator_(
          [this](const repl::ConnectionDoc& doc) -> Result<ReplicationReport> {
            auto it = known_peers_.find(doc.remote);
            if (it == known_peers_.end()) {
              return Status::NotFound("unknown peer server: " + doc.remote);
            }
            return ReplicateWith(*it->second, doc.file, doc.options);
          },
          repl::RetryPolicy(), Fnv1a64(name_), stats_) {
  gauge_databases_ = &stats_->GetGauge("Server.Databases");
  // Default event generators, after Domino's statistic events: dead mail
  // and failed replication sessions are worth an operator's attention.
  stats_->AddThreshold("Mail.Dead", 1, stats::Severity::kWarning,
                       "dead mail on " + name_);
  stats_->AddThreshold("Replica.Sessions.Failed", 1,
                       stats::Severity::kFailure,
                       "replication failures on " + name_);
}

std::string Server::DirFor(const std::string& file) const {
  return base_dir_ + "/" + ReplaceAll(file, "/", "_");
}

Result<Database*> Server::OpenDatabase(const std::string& file,
                                       DatabaseOptions options) {
  auto it = databases_.find(file);
  if (it != databases_.end()) return it->second.get();
  if (options.unid_seed == 0) {
    options.unid_seed =
        Fnv1a64(name_ + "/" + file) ^ Mix64(unid_seed_counter_++);
  }
  if (options.stats == nullptr) options.stats = stats_;
  if (shared_log_ != nullptr && options.store.shared_log == nullptr) {
    DOMINO_ASSIGN_OR_RETURN(uint32_t stream,
                            shared_log_->RegisterStream(file));
    options.store.shared_log = shared_log_.get();
    options.store.shared_stream = stream;
  }
  DOMINO_ASSIGN_OR_RETURN(auto db,
                          Database::Open(DirFor(file), options, clock_));
  Database* ptr = db.get();
  if (indexer_pool_ != nullptr) ptr->AttachIndexer(indexer_pool_.get());
  databases_[file] = std::move(db);
  gauge_databases_->Set(static_cast<int64_t>(databases_.size()));
  return ptr;
}

Database* Server::FindDatabase(const std::string& file) {
  auto it = databases_.find(file);
  return it == databases_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Server::DatabaseFiles() const {
  std::vector<std::string> files;
  for (const auto& [file, db] : databases_) files.push_back(file);
  return files;
}

Result<Database*> Server::CreateReplicaOf(const Database& source,
                                          const std::string& file) {
  DatabaseOptions options;
  options.title = source.title();
  options.replica_id = source.replica_id();
  options.purge_interval = source.info().purge_interval;
  return OpenDatabase(file, options);
}

Result<ReplicationReport> Server::ReplicateWith(
    Server& peer, const std::string& file,
    const ReplicationOptions& options) {
  Database* local = FindDatabase(file);
  Database* remote = peer.FindDatabase(file);
  if (local == nullptr || remote == nullptr) {
    return Status::NotFound("database " + file + " missing on a side");
  }
  Replicator replicator(net_, stats_);
  return replicator.Replicate(ReplicaEndpoint{local, name_},
                              ReplicaEndpoint{remote, peer.name()}, options);
}

Status Server::StartReplicator(repl::RetryPolicy policy, uint64_t seed) {
  replicator_.SetPolicy(policy, seed != 0 ? seed : Fnv1a64(name_));
  return Status::Ok();
}

Result<size_t> Server::AddConnection(Server& peer, const std::string& file,
                                     Micros interval,
                                     const ReplicationOptions& options) {
  known_peers_[peer.name()] = &peer;
  return replicator_.AddConnection(
      repl::ConnectionDoc{name_, peer.name(), file, interval, options});
}

Result<repl::SchedulerRunReport> Server::RunReplicatorDue() {
  return replicator_.RunDue(clock_ != nullptr ? clock_->Now() : 0);
}

Status Server::EnsureMailInfrastructure() {
  if (router_ != nullptr) return Status::Ok();
  DatabaseOptions options;
  options.title = name_ + " mail.box";
  DOMINO_ASSIGN_OR_RETURN(Database * mailbox,
                          OpenDatabase("mail.box", options));
  if (directory_ == nullptr) {
    return Status::FailedPrecondition("server has no mail directory");
  }
  router_ = std::make_unique<Router>(name_, mailbox, directory_, net_,
                                     stats_);
  return Status::Ok();
}

Result<Database*> Server::CreateMailFile(const std::string& user) {
  DOMINO_RETURN_IF_ERROR(EnsureMailInfrastructure());
  std::string file = "mail/" + ToLower(user) + ".nsf";
  DatabaseOptions options;
  options.title = user + "'s mail";
  DOMINO_ASSIGN_OR_RETURN(Database * db, OpenDatabase(file, options));
  router_->AttachMailFile(user, db);
  directory_->RegisterUser(user, name_);
  mail_file_of_user_[ToLower(user)] = file;
  return db;
}

Database* Server::MailFileOf(const std::string& user) {
  auto it = mail_file_of_user_.find(ToLower(user));
  return it == mail_file_of_user_.end() ? nullptr
                                        : FindDatabase(it->second);
}

Status Server::SendMail(const std::string& from,
                        const std::vector<std::string>& to,
                        const std::string& subject, const std::string& body) {
  DOMINO_RETURN_IF_ERROR(EnsureMailInfrastructure());
  return router_->Submit(MakeMailMessage(from, to, subject, body));
}

Result<size_t> Server::RunRouterOnce(
    const std::map<std::string, Router*>& peers) {
  DOMINO_RETURN_IF_ERROR(EnsureMailInfrastructure());
  return router_->RunOnce(peers);
}

Result<std::map<std::string, Router*>> Server::RouterPeers(
    const std::vector<Server*>& fleet) {
  std::map<std::string, Router*> peers;
  for (Server* server : fleet) {
    DOMINO_RETURN_IF_ERROR(server->EnsureMailInfrastructure());
    peers[server->name()] = server->router();
  }
  return peers;
}

Result<size_t> Server::DrainRouters(const std::vector<Server*>& fleet,
                                    size_t max_passes) {
  DOMINO_ASSIGN_OR_RETURN(auto peers, RouterPeers(fleet));
  size_t passes = 0;
  while (passes < max_passes) {
    ++passes;
    size_t processed = 0;
    for (Server* server : fleet) {
      DOMINO_ASSIGN_OR_RETURN(size_t n, server->RunRouterOnce(peers));
      processed += n;
    }
    if (processed == 0) break;
  }
  return passes;
}

Status Server::EnableSharedLog(wal::SharedLogOptions options) {
  if (shared_log_ != nullptr) return Status::Ok();
  if (options.stats == nullptr) options.stats = stats_;
  DOMINO_RETURN_IF_ERROR(CreateDirIfMissing(base_dir_));
  DOMINO_ASSIGN_OR_RETURN(shared_log_,
                          wal::SharedLog::Open(base_dir_ + "/txnlog",
                                               options));
  return Status::Ok();
}

Status Server::StartIndexer(size_t threads) {
  if (indexer_pool_ != nullptr) return Status::Ok();
  indexer_pool_ = std::make_unique<indexer::ThreadPool>(threads, stats_);
  for (auto& [file, db] : databases_) db->AttachIndexer(indexer_pool_.get());
  return Status::Ok();
}

}  // namespace dominodb
