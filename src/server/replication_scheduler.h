#ifndef DOMINODB_SERVER_REPLICATION_SCHEDULER_H_
#define DOMINODB_SERVER_REPLICATION_SCHEDULER_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "server/server.h"

namespace dominodb {

/// One scheduled connection: the pair of servers that replicate.
struct TopologyLink {
  std::string a;
  std::string b;
};

/// Builders for the classic replication topologies the paper discusses
/// for Domino deployments. `names[0]` is the hub for HubSpoke.
std::vector<TopologyLink> HubSpokeTopology(
    const std::vector<std::string>& names);
std::vector<TopologyLink> RingTopology(const std::vector<std::string>& names);
std::vector<TopologyLink> MeshTopology(const std::vector<std::string>& names);

/// True if all replicas hold exactly the same set of notes (UNID, OID and
/// content, stubs included). False when a replica cannot be scanned: an
/// unreadable note is not known to match.
bool DatabasesConverged(const std::vector<Database*>& replicas);

/// Topology front end for one database file: installs the links as
/// connection documents on the servers' replicator tasks and polls them.
/// It runs no session itself.
class ReplicationScheduler {
 public:
  ReplicationScheduler(std::vector<Server*> servers, std::string file)
      : servers_(std::move(servers)), file_(std::move(file)) {}

  void SetTopology(std::vector<TopologyLink> links) {
    links_ = std::move(links);
  }

  /// Registers each link as a connection document on its first server's
  /// replicator task and gives that task `policy`.
  Status InstallConnections(Micros interval = 0,
                            const ReplicationOptions& options =
                                ReplicationOptions(),
                            repl::RetryPolicy policy = repl::RetryPolicy(),
                            uint64_t seed = 0);

  /// Polls every server's replicator task once at time `now` (fleet order)
  /// and merges the reports. A failing pair only backs itself off.
  repl::SchedulerRunReport RunAllDue(Micros now);

  /// RunAllDue until the replicas converge; returns the polls run. Installs
  /// default connection documents (not policies) unless InstallConnections
  /// ran. A poll runs when the first live connection is due, if that is
  /// past the clock, so backoff and cool-offs hold without moving the
  /// clock. Fails with the error of a connection the tasks disabled, or
  /// after `max_rounds`.
  Result<int> RunUntilConverged(int max_rounds);

  bool Converged() const;
  std::vector<Database*> Replicas() const;

 private:
  Server* FindServer(const std::string& name) const;
  Status AddConnections(Micros interval, const ReplicationOptions& options);
  std::vector<const repl::ConnectionState*> ConnectionStates() const;

  std::vector<Server*> servers_;
  std::string file_;
  std::vector<TopologyLink> links_;
  bool installed_ = false;
};

}  // namespace dominodb

#endif  // DOMINODB_SERVER_REPLICATION_SCHEDULER_H_
