#include "repl/replicator_task.h"

#include <algorithm>

namespace dominodb::repl {

FailureKind ClassifyFailure(const Status& status) {
  return status.code() == StatusCode::kUnavailable ? FailureKind::kTransient
                                                   : FailureKind::kPermanent;
}

const char* CircuitStateName(CircuitState state) {
  switch (state) {
    case CircuitState::kClosed:
      return "closed";
    case CircuitState::kOpen:
      return "open";
    case CircuitState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

ReplicatorTask::ReplicatorTask(SessionRunner runner, RetryPolicy policy,
                               uint64_t seed, stats::StatRegistry* stats)
    : runner_(std::move(runner)),
      policy_(policy),
      jitter_rng_(seed),
      registry_(stats != nullptr ? stats : &stats::StatRegistry::Global()) {
  stats::StatRegistry& reg = *registry_;
  ctr_attempts_ = &reg.GetCounter("Replica.Retry.Attempts");
  ctr_retries_ = &reg.GetCounter("Replica.Retry.Retries");
  ctr_transient_ = &reg.GetCounter("Replica.Retry.TransientFailures");
  ctr_permanent_ = &reg.GetCounter("Replica.Retry.PermanentFailures");
  ctr_backoffs_ = &reg.GetCounter("Replica.Retry.Backoffs");
  ctr_circuit_opens_ = &reg.GetCounter("Replica.Retry.CircuitOpens");
  ctr_circuit_closes_ = &reg.GetCounter("Replica.Retry.CircuitCloses");
  ctr_half_open_probes_ = &reg.GetCounter("Replica.Retry.HalfOpenProbes");
  ctr_exhausted_ = &reg.GetCounter("Replica.Retry.Exhausted");
  // Operator-visible degradation, after Domino's statistic events.
  reg.AddThreshold("Replica.Retry.CircuitOpens", 1,
                   stats::Severity::kWarning,
                   "replication circuit breaker opened");
  reg.AddThreshold("Replica.Retry.Exhausted", 1, stats::Severity::kFailure,
                   "replication retry budget exhausted");
}

void ReplicatorTask::SetPolicy(RetryPolicy policy, uint64_t seed) {
  policy_ = policy;
  jitter_rng_ = Rng(seed);
}

size_t ReplicatorTask::AddConnection(ConnectionDoc doc) {
  for (size_t i = 0; i < connections_.size(); ++i) {
    ConnectionDoc& existing = connections_[i].doc;
    if (existing.remote != doc.remote || existing.file != doc.file) continue;
    existing = std::move(doc);
    return i;
  }
  ConnectionState state;
  state.doc = std::move(doc);
  connections_.push_back(std::move(state));
  return connections_.size() - 1;
}

void ReplicatorTask::Revive(size_t index) {
  ConnectionState& state = connections_[index];
  state.dead = false;
  state.circuit = CircuitState::kClosed;
  state.consecutive_failures = 0;
  state.backoff = 0;
  state.next_due = 0;
  state.retries = 0;
  state.last_error = Status::Ok();
}

bool ReplicatorTask::Quiescent() const {
  return std::all_of(connections_.begin(), connections_.end(),
                     [](const ConnectionState& state) {
                       return state.dead ||
                              (state.circuit == CircuitState::kClosed &&
                               state.consecutive_failures == 0);
                     });
}

void ReplicatorTask::OnSuccess(ConnectionState* state, Micros now) {
  state->successes += 1;
  if (state->circuit != CircuitState::kClosed) {
    ctr_circuit_closes_->Add();
    registry_->events().Log(
        stats::Severity::kNormal, "Replica",
        "connection " + state->doc.local + " <-> " + state->doc.remote +
            " recovered (circuit closed)",
        now);
  }
  state->circuit = CircuitState::kClosed;
  state->consecutive_failures = 0;
  state->backoff = 0;
  state->retries = 0;
  state->last_error = Status::Ok();
  state->next_due = now + state->doc.interval;
}

void ReplicatorTask::OnTransientFailure(ConnectionState* state, Micros now,
                                        const Status& status) {
  state->consecutive_failures += 1;
  state->last_error = status;
  ctr_transient_->Add();
  if (policy_.max_retries > 0 && state->retries >= policy_.max_retries) {
    // Retry budget exhausted: stop burning the link, leave recovery to an
    // operator Revive.
    state->dead = true;
    ctr_exhausted_->Add();
    registry_->events().Log(
        stats::Severity::kFailure, "Replica",
        "connection " + state->doc.local + " <-> " + state->doc.remote +
            " disabled: retry budget exhausted (" + status.message() + ")",
        now);
    return;
  }
  if (state->circuit == CircuitState::kHalfOpen) {
    // The probe failed: straight back to open, full cool-off.
    state->circuit = CircuitState::kOpen;
    state->next_due = now + policy_.circuit_cooloff;
    ctr_circuit_opens_->Add();
    return;
  }
  if (state->consecutive_failures >= policy_.circuit_open_after) {
    state->circuit = CircuitState::kOpen;
    state->next_due = now + policy_.circuit_cooloff;
    ctr_circuit_opens_->Add();
    registry_->events().Log(
        stats::Severity::kWarning, "Replica",
        "connection " + state->doc.local + " <-> " + state->doc.remote +
            " circuit opened after " +
            std::to_string(state->consecutive_failures) +
            " consecutive failures",
        now);
    return;
  }
  // Exponential backoff with jitter.
  state->backoff = state->backoff == 0
                       ? policy_.base_backoff
                       : std::min(state->backoff * 2, policy_.max_backoff);
  Micros delay = state->backoff;
  if (policy_.jitter_fraction > 0) {
    delay += static_cast<Micros>(static_cast<double>(delay) *
                                 policy_.jitter_fraction *
                                 jitter_rng_.NextDouble());
  }
  state->next_due = now + delay;
  ctr_backoffs_->Add();
}

void ReplicatorTask::OnPermanentFailure(ConnectionState* state, Micros now,
                                        const Status& status) {
  state->dead = true;
  state->last_error = status;
  ctr_permanent_->Add();
  registry_->events().Log(
      stats::Severity::kFailure, "Replica",
      "connection " + state->doc.local + " <-> " + state->doc.remote +
          " disabled (permanent failure): " + status.message(),
      now);
}

SchedulerRunReport ReplicatorTask::RunDue(Micros now) {
  SchedulerRunReport report;
  for (ConnectionState& state : connections_) {
    if (state.dead) {
      report.skipped_dead += 1;
      continue;
    }
    if (now < state.next_due) {
      if (state.circuit == CircuitState::kOpen) {
        report.skipped_open += 1;
      } else {
        report.skipped_waiting += 1;
      }
      continue;
    }
    if (state.circuit == CircuitState::kOpen) {
      // Cool-off elapsed: let exactly one probe through.
      state.circuit = CircuitState::kHalfOpen;
      ctr_half_open_probes_->Add();
    }
    state.attempts += 1;
    ctr_attempts_->Add();
    if (state.consecutive_failures > 0) {
      state.retries += 1;
      ctr_retries_->Add();
    }
    report.attempted += 1;
    Result<ReplicationReport> result = runner_(state.doc);
    if (result.ok()) {
      report.succeeded += 1;
      report.merged.MergeFrom(*result);
      OnSuccess(&state, now);
    } else if (ClassifyFailure(result.status()) == FailureKind::kTransient) {
      report.transient_failures += 1;
      OnTransientFailure(&state, now, result.status());
    } else {
      report.permanent_failures += 1;
      OnPermanentFailure(&state, now, result.status());
    }
  }
  return report;
}

}  // namespace dominodb::repl
