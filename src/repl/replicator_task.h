#ifndef DOMINODB_REPL_REPLICATOR_TASK_H_
#define DOMINODB_REPL_REPLICATOR_TASK_H_

#include <functional>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/result.h"
#include "base/rng.h"
#include "repl/replicator.h"
#include "stats/stats.h"

namespace dominodb::repl {

/// How a failed session should be treated by the replicator task.
enum class FailureKind {
  /// Worth retrying: the network was partitioned, flapping or lossy.
  kTransient,
  /// Retrying cannot help: replica-id mismatch, missing database, bad
  /// configuration. The connection is disabled instead of hammered.
  kPermanent,
};

/// Unavailable is the SimNet's word for "the link ate it"; everything
/// else (InvalidArgument, NotFound, ...) means the configuration itself
/// is broken.
FailureKind ClassifyFailure(const Status& status);

/// Per-connection retry behaviour: exponential backoff with optional
/// jitter, and a circuit breaker that stops hammering a dead peer.
struct RetryPolicy {
  /// First retry delay after a transient failure; doubles per consecutive
  /// failure up to `max_backoff`.
  Micros base_backoff = 1'000'000;    // 1 s
  Micros max_backoff = 64'000'000;    // 64 s
  /// Each backoff is stretched by a uniform factor in
  /// [1, 1 + jitter_fraction] drawn from the task's seeded PRNG, so
  /// a fleet of retrying pairs does not thundering-herd the hub.
  double jitter_fraction = 0.0;
  /// Consecutive transient failures before the circuit opens.
  int circuit_open_after = 5;
  /// How long an open circuit blocks attempts before one half-open probe
  /// is allowed through.
  Micros circuit_cooloff = 120'000'000;  // 2 min
  /// Total retry budget per connection (attempts after the first failure
  /// of a streak). 0 = unbounded. Exhausting it disables the connection.
  uint64_t max_retries = 0;
};

enum class CircuitState { kClosed, kOpen, kHalfOpen };
const char* CircuitStateName(CircuitState state);

/// One Domino connection document: which pair replicates which file, how
/// often, and with what options.
struct ConnectionDoc {
  std::string local;
  std::string remote;
  std::string file;
  /// Minimum gap between successful sessions. 0 = replicate on every
  /// RunDue poll.
  Micros interval = 0;
  ReplicationOptions options;
};

/// Live scheduling state of one connection, exposed for tests, consoles
/// and experiments.
struct ConnectionState {
  ConnectionDoc doc;
  CircuitState circuit = CircuitState::kClosed;
  /// Permanently disabled (permanent failure or retry budget exhausted).
  bool dead = false;
  int consecutive_failures = 0;
  /// Next time an attempt is allowed (interval gap, backoff delay, or
  /// circuit cool-off expiry).
  Micros next_due = 0;
  /// Current backoff delay (0 when healthy).
  Micros backoff = 0;
  uint64_t attempts = 0;
  uint64_t successes = 0;
  /// Attempts made while recovering from a failure streak.
  uint64_t retries = 0;
  Status last_error;
};

/// What one RunDue pass did.
struct SchedulerRunReport {
  size_t attempted = 0;
  size_t succeeded = 0;
  size_t transient_failures = 0;
  size_t permanent_failures = 0;
  size_t skipped_waiting = 0;  // backoff/interval gap not yet elapsed
  size_t skipped_open = 0;     // circuit open, cool-off not yet elapsed
  size_t skipped_dead = 0;     // permanently disabled connections
  ReplicationReport merged;    // folded reports of the successful sessions
};

/// The Domino replicator task: walks its connection documents on every
/// poll, runs the sessions that are due, and keeps the fleet converging
/// under partitions and lossy links — transient failures back off
/// exponentially (with jitter) and eventually trip a per-pair circuit
/// breaker, permanent failures disable only their own pair, and healthy
/// pairs keep replicating regardless. Combined with resumable sessions
/// (Replicator batch cutoffs) this is the paper's epsilon-consistency
/// story made operational: replicas drift while disrupted and converge
/// once connectivity returns, with bounded retry traffic.
class ReplicatorTask {
 public:
  /// Runs one replication session for a connection (typically
  /// Server::ReplicateWith on the owning server).
  using SessionRunner =
      std::function<Result<ReplicationReport>(const ConnectionDoc&)>;

  /// `seed` feeds the jitter PRNG; `stats` (nullable → global registry)
  /// receives the `Replica.Retry.*` counters and threshold events.
  explicit ReplicatorTask(SessionRunner runner,
                          RetryPolicy policy = RetryPolicy(),
                          uint64_t seed = 0,
                          stats::StatRegistry* stats = nullptr);

  /// Replaces the retry policy and reseeds the jitter PRNG.
  void SetPolicy(RetryPolicy policy, uint64_t seed);

  /// Registers a connection document, or replaces the one with the same
  /// (remote, file); returns its index.
  size_t AddConnection(ConnectionDoc doc);
  size_t connection_count() const { return connections_.size(); }
  const ConnectionState& state(size_t index) const {
    return connections_[index];
  }

  /// Re-enables a dead connection and closes its circuit (the operator's
  /// "tell replicator to retry now").
  void Revive(size_t index);

  /// One poll of the replicator task at simulated time `now`.
  SchedulerRunReport RunDue(Micros now);

  /// True when every live connection is idle (no pending backoff or open
  /// circuit) — i.e. the schedule has drained its failure recovery.
  bool Quiescent() const;

 private:
  void OnSuccess(ConnectionState* state, Micros now);
  void OnTransientFailure(ConnectionState* state, Micros now,
                          const Status& status);
  void OnPermanentFailure(ConnectionState* state, Micros now,
                          const Status& status);

  SessionRunner runner_;
  RetryPolicy policy_;
  Rng jitter_rng_;
  stats::StatRegistry* registry_;
  std::vector<ConnectionState> connections_;

  stats::Counter* ctr_attempts_;
  stats::Counter* ctr_retries_;
  stats::Counter* ctr_transient_;
  stats::Counter* ctr_permanent_;
  stats::Counter* ctr_backoffs_;
  stats::Counter* ctr_circuit_opens_;
  stats::Counter* ctr_circuit_closes_;
  stats::Counter* ctr_half_open_probes_;
  stats::Counter* ctr_exhausted_;
};

}  // namespace dominodb::repl

#endif  // DOMINODB_REPL_REPLICATOR_TASK_H_
