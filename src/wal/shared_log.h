#ifndef DOMINODB_WAL_SHARED_LOG_H_
#define DOMINODB_WAL_SHARED_LOG_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "base/env.h"
#include "base/result.h"
#include "base/status.h"
#include "stats/stats.h"
#include "wal/log_format.h"

namespace dominodb::wal {

/// Durability policy for commits. E7 benchmarks the cost of each.
enum class SyncMode {
  kNone,        // written to the OS, never fsynced: survives a process
                // crash, not a power loss
  kGroupCommit  // leader/follower: concurrent committers share one fsync;
                // a lone committer pays one fsync per commit
};

struct SharedLogOptions {
  SyncMode sync_mode = SyncMode::kGroupCommit;
  /// Roll to a fresh segment file once the current one exceeds this.
  /// Segments are the unit of physical truncation: a segment is deleted
  /// once every registered stream's checkpoint low-water mark has moved
  /// past it.
  uint64_t segment_bytes = 64ull << 20;
  /// Registry receiving the `Server.WAL.*` stats; null → the process-wide
  /// StatRegistry::Global().
  stats::StatRegistry* stats = nullptr;
};

/// The Domino R5 server-wide transaction log: ONE sequentially-written,
/// CRC-framed log shared by every database on the server. Each record is
/// tagged with the log-stream id of the database that committed it, so one
/// physical append stream multiplexes many logical logs.
///
/// Durability is leader/follower **group commit**: concurrent committers
/// enqueue their frames under the log mutex; whichever committer finds no
/// flush in progress becomes the leader, writes the whole pending batch
/// with one Append and one Sync, then wakes the followers whose sequence
/// numbers the sync covered. A leader never waits for company: it flushes
/// whatever queued behind the previous leader's fsync. N concurrent
/// commits therefore cost one device flush, not N (E14 measures the
/// amortization).
///
/// The log is a sequence of numbered segment files plus a manifest
/// recording the stream table and per-stream checkpoint low-water marks.
/// A database checkpoint advances only its own mark; segments below every
/// stream's mark are physically deleted. A standalone database (no server)
/// runs the same code on a one-stream log of its own. Thread-safe
/// throughout.
class SharedLog {
 public:
  /// Opens (or creates) the log in `dir`, cutting a torn tail (a crash
  /// mid-append) off the final segment so later commits stay readable.
  static Result<std::unique_ptr<SharedLog>> Open(
      const std::string& dir, const SharedLogOptions& options);

  /// Syncs any record appended but not yet durable: a clean shutdown is
  /// not a crash.
  ~SharedLog();
  SharedLog(const SharedLog&) = delete;
  SharedLog& operator=(const SharedLog&) = delete;

  /// Returns the stable stream id for `name` (assigning and persisting a
  /// fresh one on first registration). A new stream's low-water mark
  /// starts at the current segment, so it never pins history it was not
  /// there to write.
  Result<uint32_t> RegisterStream(const std::string& name);

  /// Appends one record for `stream` and returns its sequence number,
  /// without waiting for durability: kGroupCommit queues the frame for
  /// the next group flush, kNone writes and flushes it to the OS. Records
  /// of every stream share one order, so a record is durable once any
  /// later one is.
  Result<uint64_t> Append(uint32_t stream, RecordType type,
                          std::string_view payload);

  /// Returns once every record up to `seq` is durable under the sync mode
  /// (kGroupCommit: the leader/follower group sync; kNone: at once, the
  /// write was all it needed). Safe to call from any thread.
  Status SyncThrough(uint64_t seq);

  /// Append, then SyncThrough the new record.
  Status Commit(uint32_t stream, RecordType type, std::string_view payload);

  /// Replays the committed records of `stream`, in commit order, across
  /// all retained segments. A torn tail on the final segment (or one cut
  /// off at Open) ends the replay (committed-prefix semantics) and sets
  /// `*torn_tail`. A bad frame in an earlier, already-fsynced segment is
  /// not a crash artifact: it fails the replay with Corruption.
  Status ReplayStream(
      uint32_t stream,
      const std::function<Status(RecordType type, std::string_view payload)>&
          fn,
      bool* torn_tail = nullptr) const;

  /// Records that `stream` needs nothing logged before now (its state is
  /// captured in a snapshot), then deletes every segment all streams have
  /// moved past. When no stream has appended since its own checkpoint,
  /// the log also seals and rolls past the current segment, dropping it.
  Status AdvanceCheckpoint(uint32_t stream);

  /// SyncThrough the last appended record, then (kNone) fsync the file
  /// as well: checkpoints call it before writing pages in place.
  Status SyncAll();

  std::string SegmentPath(uint64_t index) const;

  /// Ok, or the sticky error of a failed flush: the log is then
  /// fail-stop, and no record appended since that flush's batch began
  /// will ever be durable.
  Status io_error() const;

  // Introspection (tests, `show stat`).
  uint64_t first_segment() const;
  uint64_t current_segment() const;

 private:
  struct StreamInfo {
    std::string name;
    uint64_t low_segment = 1;  // needs nothing below this segment
    // Appended since its last checkpoint; assumed for streams loaded at
    // Open, whose history is unknown.
    bool appended = false;
  };

  SharedLog(std::string dir, const SharedLogOptions& options);

  std::string ManifestPath() const { return dir_ + "/streams.manifest"; }
  Status LoadManifest();
  Status PersistManifestLocked();
  Status OpenCurrentSegmentLocked();
  /// Cuts a torn tail off the final segment (see Open).
  Status TrimTornTailLocked();
  /// Seals the current segment with a sync and opens the next one. Called
  /// with mu_ held and no flush in progress.
  Status RollSegmentLocked();
  /// RollSegmentLocked once the current segment is over budget.
  Status MaybeRollSegmentLocked();
  /// Leader/follower protocol for kGroupCommit.
  Status SyncGrouped(std::unique_lock<std::mutex>* lock, uint64_t seq);
  /// fsync with WAL.SyncMicros accounting; the group-commit leader calls
  /// it with mu_ released.
  Status TimedSync();

  const std::string dir_;
  const SharedLogOptions options_;
  stats::StatRegistry* registry_;
  stats::Counter* ctr_commits_;
  stats::Counter* ctr_bytes_;
  stats::Counter* ctr_batches_;
  stats::Counter* ctr_syncs_;
  stats::Counter* ctr_syncs_saved_;
  stats::Counter* ctr_leaders_;
  stats::Counter* ctr_followers_;
  stats::Counter* ctr_segments_deleted_;
  stats::Gauge* gauge_segments_;
  stats::Histogram* hist_batch_records_;
  stats::Histogram* hist_batch_bytes_;
  stats::Histogram* hist_sync_micros_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint32_t, StreamInfo> streams_;
  std::map<std::string, uint32_t> stream_ids_;
  uint32_t next_stream_id_ = 1;

  std::unique_ptr<WritableFile> file_;  // current segment, append-only
  uint64_t first_segment_ = 1;          // lowest retained segment
  uint64_t current_segment_ = 1;
  uint64_t segment_base_bytes_ = 0;  // size of current segment at open
  bool torn_at_open_ = false;        // Open cut a torn tail off

  uint64_t next_seq_ = 0;     // last assigned record sequence number
  uint64_t durable_seq_ = 0;  // every seq <= this is durable
  bool writing_ = false;      // a leader is appending/syncing
  std::string pending_;       // framed records awaiting the next batch
  uint64_t pending_records_ = 0;
  Status io_error_;  // sticky: after a failed flush the log is fail-stop
};

}  // namespace dominodb::wal

#endif  // DOMINODB_WAL_SHARED_LOG_H_
