#include "server/replication_scheduler.h"

#include <algorithm>
#include <map>
#include <optional>

#include "base/hash.h"

namespace dominodb {

std::vector<TopologyLink> HubSpokeTopology(
    const std::vector<std::string>& names) {
  std::vector<TopologyLink> links;
  for (size_t i = 1; i < names.size(); ++i) {
    links.push_back(TopologyLink{names[0], names[i]});
  }
  return links;
}

std::vector<TopologyLink> RingTopology(
    const std::vector<std::string>& names) {
  std::vector<TopologyLink> links;
  for (size_t i = 0; i + 1 < names.size(); ++i) {
    links.push_back(TopologyLink{names[i], names[i + 1]});
  }
  if (names.size() > 2) {
    links.push_back(TopologyLink{names.back(), names.front()});
  }
  return links;
}

std::vector<TopologyLink> MeshTopology(
    const std::vector<std::string>& names) {
  std::vector<TopologyLink> links;
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      links.push_back(TopologyLink{names[i], names[j]});
    }
  }
  return links;
}

namespace {

/// Fingerprint of a note's replicated state.
uint64_t NoteFingerprint(const Note& note) {
  // Exclude per-file bookkeeping (local note id, modified-in-file stamp):
  // only replicated state counts toward convergence.
  Note copy = note;
  copy.set_id(0);
  copy.set_modified_in_file(0);
  std::string encoded = copy.EncodeToString();
  return Fnv1a64(encoded);
}

}  // namespace

bool DatabasesConverged(const std::vector<Database*>& replicas) {
  if (replicas.size() < 2) return true;
  std::map<Unid, uint64_t> reference;
  replicas[0]->ForEachNote([&](const Note& note) {
    reference[note.unid()] = NoteFingerprint(note);
  });
  for (size_t i = 1; i < replicas.size(); ++i) {
    std::map<Unid, uint64_t> other;
    replicas[i]->ForEachNote([&](const Note& note) {
      other[note.unid()] = NoteFingerprint(note);
    });
    if (other != reference) return false;
  }
  return true;
}

Server* ReplicationScheduler::FindServer(const std::string& name) const {
  for (Server* server : servers_) {
    if (server->name() == name) return server;
  }
  return nullptr;
}

Status ReplicationScheduler::AddConnections(
    Micros interval, const ReplicationOptions& options) {
  for (const TopologyLink& link : links_) {
    Server* a = FindServer(link.a);
    Server* b = FindServer(link.b);
    if (a == nullptr || b == nullptr) {
      return Status::NotFound("unknown server in topology: " + link.a +
                              " / " + link.b);
    }
    DOMINO_RETURN_IF_ERROR(
        a->AddConnection(*b, file_, interval, options).status());
  }
  installed_ = true;
  return Status::Ok();
}

Status ReplicationScheduler::InstallConnections(
    Micros interval, const ReplicationOptions& options,
    repl::RetryPolicy policy, uint64_t seed) {
  for (const TopologyLink& link : links_) {
    if (Server* a = FindServer(link.a)) {
      DOMINO_RETURN_IF_ERROR(a->StartReplicator(policy, seed));
    }
  }
  return AddConnections(interval, options);
}

repl::SchedulerRunReport ReplicationScheduler::RunAllDue(Micros now) {
  repl::SchedulerRunReport merged;
  for (Server* server : servers_) {
    repl::SchedulerRunReport report = server->replicator()->RunDue(now);
    merged.attempted += report.attempted;
    merged.succeeded += report.succeeded;
    merged.transient_failures += report.transient_failures;
    merged.permanent_failures += report.permanent_failures;
    merged.skipped_waiting += report.skipped_waiting;
    merged.skipped_open += report.skipped_open;
    merged.skipped_dead += report.skipped_dead;
    merged.merged.MergeFrom(report.merged);
  }
  return merged;
}

std::vector<const repl::ConnectionState*>
ReplicationScheduler::ConnectionStates() const {
  std::vector<const repl::ConnectionState*> states;
  for (Server* server : servers_) {
    const repl::ReplicatorTask& task = *server->replicator();
    for (size_t i = 0; i < task.connection_count(); ++i) {
      if (task.state(i).doc.file == file_) states.push_back(&task.state(i));
    }
  }
  return states;
}

Result<int> ReplicationScheduler::RunUntilConverged(int max_rounds) {
  if (!installed_) DOMINO_RETURN_IF_ERROR(AddConnections(0, {}));
  Micros now = 0;
  for (int round = 1; round <= max_rounds; ++round) {
    for (Server* server : servers_) {
      const Clock* clock = server->clock();
      if (clock != nullptr) now = std::max(now, clock->Now());
    }
    std::optional<Micros> due;  // earliest time a live connection is due
    for (const repl::ConnectionState* state : ConnectionStates()) {
      if (state->dead) continue;
      due = std::min(due.value_or(state->next_due), state->next_due);
    }
    now = std::max(now, due.value_or(now));
    RunAllDue(now);
    // Before Converged(): Replicas() skips a server that lacks the file,
    // so a quarantined pair could otherwise pass for a converged fleet.
    for (const repl::ConnectionState* state : ConnectionStates()) {
      if (state->dead) return state->last_error;
    }
    if (Converged()) return round;
  }
  return Status::FailedPrecondition("not converged after " +
                                    std::to_string(max_rounds) + " rounds");
}

bool ReplicationScheduler::Converged() const { return DatabasesConverged(Replicas()); }

std::vector<Database*> ReplicationScheduler::Replicas() const {
  std::vector<Database*> replicas;
  for (Server* server : servers_) {
    Database* db = server->FindDatabase(file_);
    if (db != nullptr) replicas.push_back(db);
  }
  return replicas;
}

}  // namespace dominodb
