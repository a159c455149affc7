#include "core/mvcc.h"

#include <algorithm>
#include <chrono>

namespace dominodb {

namespace {
int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

MvccSnapshots::MvccSnapshots(stats::StatRegistry* registry) {
  stats::StatRegistry& reg =
      registry ? *registry : stats::StatRegistry::Global();
  gauge_pinned_ = &reg.GetGauge("Db.Mvcc.PinnedEpochs");
  gauge_live_versions_ = &reg.GetGauge("Db.Mvcc.LiveVersions");
  ctr_reclaimed_ = &reg.GetCounter("Db.Mvcc.ReclaimedVersions");
  gauge_oldest_pin_age_us_ = &reg.GetGauge("Db.Mvcc.OldestPinAgeMicros");
}

Epoch MvccSnapshots::Pin() {
  MutexLock lock(&mu_);
  Epoch e = committed_.load(std::memory_order_relaxed);
  PinInfo& info = pins_[e];
  if (info.count++ == 0) info.earliest_us = SteadyNowMicros();
  gauge_pinned_->Add(1);
  RefreshPinAgeLocked();
  return e;
}

void MvccSnapshots::Unpin(Epoch epoch) {
  MutexLock lock(&mu_);
  auto it = pins_.find(epoch);
  if (it == pins_.end()) return;  // defensive: unmatched unpin
  gauge_pinned_->Add(-1);
  if (--it->second.count == 0) {
    pins_.erase(it);
    ReclaimLocked();
  }
  RefreshPinAgeLocked();
}

void MvccSnapshots::Record(NoteId id, Epoch epoch, NoteHandle pre) {
  MutexLock lock(&mu_);
  std::vector<Version>& versions = overlay_[id];
  if (!versions.empty() && versions.back().epoch == epoch) {
    return;  // first record per (id, epoch) wins
  }
  if (pre) unid_overlay_[pre->unid()] = id;
  versions.push_back(Version{epoch, std::move(pre)});
  ++version_count_;
  gauge_live_versions_->Set(static_cast<int64_t>(version_count_));
}

void MvccSnapshots::Publish(Epoch epoch) {
  MutexLock lock(&mu_);
  committed_.store(epoch, std::memory_order_release);
  ReclaimLocked();
  RefreshPinAgeLocked();
}

MvccSnapshots::Resolution MvccSnapshots::Lookup(NoteId id, Epoch at) const {
  // An empty overlay answers without the mutex. A commit the caller's
  // store read observed recorded its version (count > 0) before touching
  // the store, and the caller's pin keeps that version from reclamation.
  if (version_count_.load(std::memory_order_acquire) == 0) return Resolution{};
  MutexLock lock(&mu_);
  auto it = overlay_.find(id);
  if (it == overlay_.end()) return Resolution{};
  // Smallest commit epoch > at: its pre-image is the state at `at`.
  for (const Version& v : it->second) {
    if (v.epoch > at) {
      if (v.pre) return Resolution{Verdict::kVersion, v.pre};
      return Resolution{Verdict::kAbsent, nullptr};
    }
  }
  return Resolution{};  // every recorded commit is visible: use the store
}

std::optional<NoteId> MvccSnapshots::LookupUnid(const Unid& unid) const {
  MutexLock lock(&mu_);
  auto it = unid_overlay_.find(unid);
  if (it == unid_overlay_.end()) return std::nullopt;
  return it->second;
}

std::vector<NoteId> MvccSnapshots::OverlayIds() const {
  MutexLock lock(&mu_);
  std::vector<NoteId> ids;
  ids.reserve(overlay_.size());
  for (const auto& [id, versions] : overlay_) ids.push_back(id);
  return ids;
}

Epoch MvccSnapshots::ReclaimFloor() const {
  MutexLock lock(&mu_);
  if (!pins_.empty()) return pins_.begin()->first;
  return committed_.load(std::memory_order_relaxed);
}

void MvccSnapshots::ReclaimLocked() {
  // A version {E, pre} is needed by a reader pinned at P iff P < E.
  const Epoch floor = pins_.empty()
                          ? committed_.load(std::memory_order_relaxed)
                          : pins_.begin()->first;
  uint64_t reclaimed = 0;
  for (auto it = overlay_.begin(); it != overlay_.end();) {
    std::vector<Version>& versions = it->second;
    size_t keep = 0;
    while (keep < versions.size() && versions[keep].epoch <= floor) ++keep;
    if (keep > 0) {
      reclaimed += keep;
      versions.erase(versions.begin(),
                     versions.begin() + static_cast<ptrdiff_t>(keep));
    }
    if (versions.empty()) {
      it = overlay_.erase(it);
    } else {
      ++it;
    }
  }
  if (reclaimed > 0) {
    version_count_ -= reclaimed;
    ctr_reclaimed_->Add(reclaimed);
    gauge_live_versions_->Set(static_cast<int64_t>(version_count_));
  }
  if (overlay_.empty()) unid_overlay_.clear();
}

void MvccSnapshots::RefreshPinAgeLocked() {
  if (pins_.empty()) {
    gauge_oldest_pin_age_us_->Set(0);
    return;
  }
  int64_t earliest = pins_.begin()->second.earliest_us;
  for (const auto& [epoch, info] : pins_) {
    earliest = std::min(earliest, info.earliest_us);
  }
  gauge_oldest_pin_age_us_->Set(SteadyNowMicros() - earliest);
}

}  // namespace dominodb
