#include "wal/shared_log.h"

#include <algorithm>
#include <chrono>

#include "base/coding.h"
#include "wal/log_reader.h"

namespace dominodb::wal {

namespace {

constexpr char kManifestMagic[] = "DSLM1";

}  // namespace

SharedLog::SharedLog(std::string dir, const SharedLogOptions& options)
    : dir_(std::move(dir)), options_(options) {
  registry_ = options_.stats != nullptr ? options_.stats
                                        : &stats::StatRegistry::Global();
  ctr_commits_ = &registry_->GetCounter("Server.WAL.Commits");
  ctr_bytes_ = &registry_->GetCounter("Server.WAL.CommittedBytes");
  ctr_batches_ = &registry_->GetCounter("Server.WAL.GroupCommit.Batches");
  ctr_syncs_ = &registry_->GetCounter("Server.WAL.Syncs");
  ctr_syncs_saved_ = &registry_->GetCounter("Server.WAL.SyncsSaved");
  ctr_leaders_ = &registry_->GetCounter("Server.WAL.Leaders");
  ctr_followers_ = &registry_->GetCounter("Server.WAL.Followers");
  ctr_segments_deleted_ =
      &registry_->GetCounter("Server.WAL.SegmentsDeleted");
  gauge_segments_ = &registry_->GetGauge("Server.WAL.Segments");
  hist_batch_records_ =
      &registry_->GetHistogram("Server.WAL.GroupCommit.BatchRecords");
  hist_batch_bytes_ =
      &registry_->GetHistogram("Server.WAL.GroupCommit.BatchBytes");
  hist_sync_micros_ = &registry_->GetHistogram("WAL.SyncMicros");
}

Result<std::unique_ptr<SharedLog>> SharedLog::Open(
    const std::string& dir, const SharedLogOptions& options) {
  DOMINO_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  std::unique_ptr<SharedLog> log(new SharedLog(dir, options));
  DOMINO_RETURN_IF_ERROR(log->LoadManifest());
  std::lock_guard<std::mutex> lock(log->mu_);
  // Segments are created contiguously, so the newest is the last one that
  // exists; stale files below the manifest's floor (a crash between
  // truncation steps) are swept here.
  log->current_segment_ = log->first_segment_;
  while (FileExists(log->SegmentPath(log->current_segment_ + 1))) {
    ++log->current_segment_;
  }
  for (uint64_t seg = log->first_segment_; seg-- > 0;) {
    if (!FileExists(log->SegmentPath(seg))) break;
    DOMINO_RETURN_IF_ERROR(RemoveFileIfExists(log->SegmentPath(seg)));
  }
  DOMINO_RETURN_IF_ERROR(log->TrimTornTailLocked());
  DOMINO_RETURN_IF_ERROR(log->OpenCurrentSegmentLocked());
  return log;
}

SharedLog::~SharedLog() {
  uint64_t last = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (file_ == nullptr || durable_seq_ >= next_seq_) return;
    last = next_seq_;
  }
  // Best effort: a failed sync leaves the same state a crash would.
  SyncThrough(last).ok();
}

std::string SharedLog::SegmentPath(uint64_t index) const {
  char name[32];
  snprintf(name, sizeof(name), "seg-%08llu.wal",
           static_cast<unsigned long long>(index));
  return dir_ + "/" + name;
}

Status SharedLog::LoadManifest() {
  auto contents = ReadFileToString(ManifestPath());
  if (contents.status().IsNotFound()) return Status::Ok();  // fresh log
  DOMINO_RETURN_IF_ERROR(contents.status());
  std::string_view input = *contents;
  if (input.size() < sizeof(kManifestMagic) - 1 ||
      input.substr(0, sizeof(kManifestMagic) - 1) != kManifestMagic) {
    return Status::Corruption("shared log manifest: bad magic");
  }
  input.remove_prefix(sizeof(kManifestMagic) - 1);
  uint64_t first = 0;
  uint64_t count = 0;
  if (!GetVarint64(&input, &first) || !GetVarint64(&input, &count)) {
    return Status::Corruption("shared log manifest: truncated header");
  }
  first_segment_ = first;
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view name;
    uint32_t id = 0;
    uint64_t low = 0;
    if (!GetLengthPrefixed(&input, &name) || !GetVarint32(&input, &id) ||
        !GetVarint64(&input, &low)) {
      return Status::Corruption("shared log manifest: truncated stream");
    }
    streams_[id] = StreamInfo{std::string(name), low, /*appended=*/true};
    stream_ids_[std::string(name)] = id;
    next_stream_id_ = std::max(next_stream_id_, id + 1);
  }
  return Status::Ok();
}

Status SharedLog::PersistManifestLocked() {
  std::string out(kManifestMagic);
  PutVarint64(&out, first_segment_);
  PutVarint64(&out, streams_.size());
  for (const auto& [id, info] : streams_) {
    PutLengthPrefixed(&out, info.name);
    PutVarint32(&out, id);
    PutVarint64(&out, info.low_segment);
  }
  return WriteFileAtomic(ManifestPath(), out);
}

Status SharedLog::OpenCurrentSegmentLocked() {
  auto size = FileSize(SegmentPath(current_segment_));
  segment_base_bytes_ = size.ok() ? *size : 0;
  DOMINO_ASSIGN_OR_RETURN(file_, WritableFile::Open(SegmentPath(current_segment_)));
  gauge_segments_->Set(
      static_cast<int64_t>(current_segment_ - first_segment_ + 1));
  return Status::Ok();
}

Status SharedLog::TrimTornTailLocked() {
  const std::string path = SegmentPath(current_segment_);
  auto contents = ReadFileToString(path);
  if (contents.status().IsNotFound()) return Status::Ok();
  DOMINO_RETURN_IF_ERROR(contents.status());
  LogReader reader(std::move(*contents));
  RecordType type;
  std::string_view payload;
  while (reader.ReadRecord(&type, &payload)) {
  }
  if (!reader.tail_corrupted()) return Status::Ok();
  torn_at_open_ = true;
  registry_->events().Log(
      stats::Severity::kWarning, "SharedLog",
      "torn tail cut from segment " + std::to_string(current_segment_) +
          " at offset " + std::to_string(reader.offset()));
  return TruncateFile(path, reader.offset());
}

Status SharedLog::RollSegmentLocked() {
  // Completed segments are immutable from here on; seal with a sync so
  // truncation decisions never outrun the device. Frames still queued
  // for a group flush go to the next segment, which every stream's
  // low-water mark covers.
  DOMINO_RETURN_IF_ERROR(file_->Sync());
  file_.reset();
  ++current_segment_;
  return OpenCurrentSegmentLocked();
}

Status SharedLog::MaybeRollSegmentLocked() {
  if (segment_base_bytes_ + file_->bytes_written() < options_.segment_bytes) {
    return Status::Ok();
  }
  return RollSegmentLocked();
}

Result<uint32_t> SharedLog::RegisterStream(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stream_ids_.find(name);
  if (it != stream_ids_.end()) return it->second;
  const uint32_t id = next_stream_id_++;
  streams_[id] = StreamInfo{name, current_segment_};
  stream_ids_[name] = id;
  DOMINO_RETURN_IF_ERROR(PersistManifestLocked());
  return id;
}

Status SharedLog::TimedSync() {
  auto start = std::chrono::steady_clock::now();
  Status status = file_->Sync();
  ctr_syncs_->Add();
  hist_sync_micros_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return status;
}

Result<uint64_t> SharedLog::Append(uint32_t stream, RecordType type,
                                   std::string_view payload) {
  if (payload.size() > kMaxRecordPayload - 8) {
    return Status::InvalidArgument("shared log record too large");
  }
  std::string mux;
  mux.reserve(payload.size() + 5);
  PutVarint32(&mux, stream);
  mux.append(payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (!io_error_.ok()) return io_error_;
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::InvalidArgument("shared log: unregistered stream " +
                                   std::to_string(stream));
  }
  it->second.appended = true;
  ctr_commits_->Add();
  ctr_bytes_->Add(mux.size());
  if (options_.sync_mode == SyncMode::kGroupCommit) {
    AppendFrameTo(&pending_, type, mux);
    ++pending_records_;
    return ++next_seq_;
  }
  // kNone writes straight through and flushes to the OS, which is all the
  // durability it promises.
  std::string frame;
  AppendFrameTo(&frame, type, mux);
  Status status = file_->Append(frame);
  if (status.ok()) status = file_->Flush();
  if (!status.ok()) {
    io_error_ = status;
    return status;
  }
  const uint64_t seq = ++next_seq_;
  durable_seq_ = seq;
  status = MaybeRollSegmentLocked();
  if (!status.ok()) {
    io_error_ = status;
    return status;
  }
  return seq;
}

Status SharedLog::Commit(uint32_t stream, RecordType type,
                         std::string_view payload) {
  DOMINO_ASSIGN_OR_RETURN(uint64_t seq, Append(stream, type, payload));
  return SyncThrough(seq);
}

Status SharedLog::SyncThrough(uint64_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  if (options_.sync_mode == SyncMode::kGroupCommit) {
    return SyncGrouped(&lock, seq);
  }
  // kNone: Append already took every record as far as this mode goes.
  return io_error_;
}

Status SharedLog::SyncGrouped(std::unique_lock<std::mutex>* lock,
                              uint64_t seq) {
  bool led = false;
  while (durable_seq_ < seq) {
    if (!io_error_.ok()) return io_error_;
    if (!writing_) {
      // Become the leader: everything pending — our frame plus any
      // followers that queued behind the previous flush — goes out as one
      // append + one sync.
      led = true;
      writing_ = true;
      std::string batch;
      batch.swap(pending_);
      const uint64_t batch_records = pending_records_;
      pending_records_ = 0;
      const uint64_t batch_last = next_seq_;
      lock->unlock();
      Status status = file_->Append(batch);
      if (status.ok()) status = TimedSync();
      lock->lock();
      writing_ = false;
      if (!status.ok()) {
        io_error_ = status;
        cv_.notify_all();
        return status;
      }
      durable_seq_ = batch_last;
      ctr_batches_->Add();
      ctr_syncs_saved_->Add(batch_records - 1);
      hist_batch_records_->Record(batch_records);
      hist_batch_bytes_->Record(batch.size());
      Status rolled = MaybeRollSegmentLocked();
      cv_.notify_all();
      if (!rolled.ok()) {
        io_error_ = rolled;
        return rolled;
      }
    } else {
      cv_.wait(*lock);
    }
  }
  if (led) {
    ctr_leaders_->Add();
  } else {
    ctr_followers_->Add();
  }
  return Status::Ok();
}

Status SharedLog::ReplayStream(
    uint32_t stream,
    const std::function<Status(RecordType, std::string_view)>& fn,
    bool* torn_tail) const {
  uint64_t lo = 0;
  uint64_t hi = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(stream);
    if (it == streams_.end()) {
      return Status::InvalidArgument("shared log: unregistered stream " +
                                     std::to_string(stream));
    }
    lo = std::max(first_segment_, it->second.low_segment);
    hi = current_segment_;
    // Surface records still sitting in the user-space write buffer (kNone
    // mode) to the file before reading it back.
    if (file_ != nullptr && !writing_) {
      DOMINO_RETURN_IF_ERROR(file_->Flush());
    }
  }
  bool torn = torn_at_open_;
  for (uint64_t seg = lo; seg <= hi; ++seg) {
    auto contents = ReadFileToString(SegmentPath(seg));
    if (contents.status().IsNotFound()) continue;  // truncated underneath us
    DOMINO_RETURN_IF_ERROR(contents.status());
    LogReader reader(std::move(*contents));
    RecordType type;
    std::string_view payload;
    while (reader.ReadRecord(&type, &payload)) {
      std::string_view input = payload;
      uint32_t record_stream = 0;
      if (!GetVarint32(&input, &record_stream)) {
        return Status::Corruption("shared log: record missing stream tag");
      }
      if (record_stream != stream) continue;
      DOMINO_RETURN_IF_ERROR(fn(type, input));
    }
    if (reader.tail_corrupted()) {
      if (seg != hi) {
        return Status::Corruption("shared log: bad frame in sealed segment " +
                                  SegmentPath(seg) + " at offset " +
                                  std::to_string(reader.offset()));
      }
      torn = true;
    }
  }
  if (torn_tail != nullptr) *torn_tail = torn;
  return Status::Ok();
}

Status SharedLog::AdvanceCheckpoint(uint32_t stream) {
  std::unique_lock<std::mutex> lock(mu_);
  // A roll swaps file_, so no group-commit leader may be writing to it.
  cv_.wait(lock, [&] { return !writing_ || !io_error_.ok(); });
  if (!io_error_.ok()) return io_error_;
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::InvalidArgument("shared log: unregistered stream " +
                                   std::to_string(stream));
  }
  it->second.low_segment = current_segment_;
  it->second.appended = false;
  const bool all_checkpointed =
      std::none_of(streams_.begin(), streams_.end(),
                   [](const auto& entry) { return entry.second.appended; });
  if (all_checkpointed) {
    // Nothing logged so far is needed by anyone: drop it all, the current
    // segment included, rather than re-reading it at the next open.
    DOMINO_RETURN_IF_ERROR(RollSegmentLocked());
    for (auto& [id, info] : streams_) info.low_segment = current_segment_;
  }
  uint64_t min_low = current_segment_;
  for (const auto& [id, info] : streams_) {
    min_low = std::min(min_low, info.low_segment);
  }
  const uint64_t old_first = first_segment_;
  first_segment_ = std::max(first_segment_, min_low);
  // Manifest first, files second: a crash in between leaves orphan
  // segments below the floor, which Open sweeps.
  DOMINO_RETURN_IF_ERROR(PersistManifestLocked());
  for (uint64_t seg = old_first; seg < first_segment_; ++seg) {
    DOMINO_RETURN_IF_ERROR(RemoveFileIfExists(SegmentPath(seg)));
    ctr_segments_deleted_->Add();
  }
  gauge_segments_->Set(
      static_cast<int64_t>(current_segment_ - first_segment_ + 1));
  return Status::Ok();
}

Status SharedLog::SyncAll() {
  uint64_t last = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last = next_seq_;
  }
  DOMINO_RETURN_IF_ERROR(SyncThrough(last));
  if (options_.sync_mode != SyncMode::kNone) return Status::Ok();
  std::lock_guard<std::mutex> lock(mu_);
  return file_->Sync();
}

uint64_t SharedLog::first_segment() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_segment_;
}

uint64_t SharedLog::current_segment() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_segment_;
}

}  // namespace dominodb::wal
