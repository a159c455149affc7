#include "core/replication_history.h"

#include <algorithm>
#include <limits>

namespace dominodb {

Micros ReplicationHistory::CutoffFor(const std::string& peer) const {
  MutexLock lock(&mu_);
  auto it = peers_.find(peer);
  return it == peers_.end() ? 0 : it->second.received;
}

void ReplicationHistory::Record(const std::string& peer, Micros cutoff) {
  MutexLock lock(&mu_);
  Micros& slot = peers_[peer].received;
  slot = std::max(slot, cutoff);
}

void ReplicationHistory::RecordSent(const std::string& peer, Micros cutoff) {
  MutexLock lock(&mu_);
  Micros& slot = peers_[peer].sent;
  slot = std::max(slot, cutoff);
}

Micros ReplicationHistory::MinSentCutoff() const {
  MutexLock lock(&mu_);
  Micros min = std::numeric_limits<Micros>::max();
  for (const auto& [peer, cutoffs] : peers_) min = std::min(min, cutoffs.sent);
  return min;
}

}  // namespace dominodb
