#ifndef DOMINODB_STORAGE_NOTE_STORE_H_
#define DOMINODB_STORAGE_NOTE_STORE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/clock.h"
#include "base/result.h"
#include "base/shared_mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "model/note.h"
#include "model/unid.h"
#include "pager/buffer_pool.h"
#include "pager/pager.h"
#include "stats/stats.h"
#include "storage/note_cache.h"
#include "wal/shared_log.h"

namespace dominodb {

/// One peer's entry in a database's replication history.
struct PeerCutoffs {
  /// This database has pulled every change of the peer stamped (in the
  /// peer's stamps) at or below it: a pull summarizes only later ones.
  Micros received = 0;
  /// The peer has pulled every change of this database stamped at or
  /// below it. PurgeStubs keeps any stub above the least of these, or a
  /// peer's live copy replicates back (the resurrection anomaly).
  Micros sent = 0;
};

/// Database-wide metadata persisted with the store. The replica id is the
/// key fact: two databases replicate iff their replica ids match (the NSF
/// "replica ID" of Notes).
struct DatabaseInfo {
  Unid replica_id;
  std::string title;
  /// Deletion stubs older than this are eligible for purge. Notes default
  /// is 90 days; experiments shrink it to provoke the resurrection anomaly.
  Micros purge_interval = 90ll * 24 * 3600 * 1'000'000;
  /// The replication history, by peer server name. Kept in the database,
  /// as Domino keeps it in the NSF, so it outlives a restart.
  std::map<std::string, PeerCutoffs> history;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(std::string_view* input, DatabaseInfo* out);
};

struct StoreOptions {
  /// Durability policy of the store's own log (a `shared_log` has its
  /// own). kNone: an acknowledged Put has reached the OS, so it survives a
  /// process crash but not a power loss; kGroupCommit survives both.
  wal::SyncMode sync_mode = wal::SyncMode::kNone;
  /// MaybeCheckpoint() snapshots once the WAL obligation exceeds this
  /// size (0 disables). The store never checkpoints inside Put or Erase;
  /// the owning Database calls MaybeCheckpoint at the end of each commit,
  /// after the commit has published and while it still holds its write
  /// lock.
  uint64_t checkpoint_threshold_bytes = 16ull << 20;
  /// When set, this store logs through the server-wide shared transaction
  /// log: commits are tagged with `shared_stream` (obtained from
  /// SharedLog::RegisterStream) and ride the group-commit protocol. The
  /// SharedLog must outlive the store. When null, the store opens a
  /// one-stream SharedLog of its own under `<dir>/log`.
  wal::SharedLog* shared_log = nullptr;
  uint32_t shared_stream = 0;
  /// Registry receiving the `Database.*` stats (and its own log's
  /// `Server.WAL.*`); null → the process-wide StatRegistry::Global().
  stats::StatRegistry* stats = nullptr;

  // -- Paged storage ------------------------------------------------------
  /// Size of one page in `notes.pages` (power of two ≥ 64). Fixed at
  /// creation; an existing store's meta file is authoritative.
  uint32_t page_size = 4096;
  /// Buffer-pool capacity in pages. The working set this many pages can
  /// hold is the only part of the database that must fit in RAM.
  size_t cache_pages = 4096;
  /// MaybeCompact() runs an incremental COMPACT slice once the dead
  /// bytes left behind by updates, erases and purges exceed this volume
  /// (0 disables background compaction).
  uint64_t compact_threshold_bytes = 8ull << 20;
  /// Test-only crash injection: when set, invoked at named points inside
  /// Checkpoint() ("pager:after_log", "pager:mid_pages",
  /// "pager:after_pages", "pager:after_meta"); a non-OK return aborts the
  /// checkpoint there, leaving the partially-written on-disk state for
  /// recovery tests to chew on.
  std::function<Status(std::string_view)> checkpoint_fault;
};

/// Lets the calling thread append many commits and sync once. While a
/// scope is open on a thread, every store write that thread makes (on any
/// database, on any log) appends its log record without waiting for it
/// to become durable, and the scope remembers the highest record per log.
/// Finish() syncs every log touched since the scope opened (or since the
/// last Finish), all at the same time: the calling thread syncs the first
/// log and a short-lived thread each of the others, as servers with a
/// disk each would flush in parallel. It returns once every one of them
/// is durable (or has failed), with the first error in the order the logs
/// were first touched. The syncs follow no order among the logs, so no
/// caller may rely on one log becoming durable before another. The scope
/// stays open for further writes. A scope that ends without a final
/// Finish() (an error path) still syncs in its destructor.
///
/// Durability contract: a write inside a scope is applied and visible to
/// readers before it is durable. That is safe because every later commit
/// on the same log is ordered after it, so nothing durable can depend on
/// it being lost — but the write counts as acknowledged only once a
/// Finish() covering it returns OK. Checkpoint records are never
/// deferred: Checkpoint() commits and syncs its own records, which also
/// makes every earlier scoped record of that log durable.
///
/// Scopes do not nest; one lives on the stack of the thread that opened
/// it and is not shared with other threads.
class WriteScope {
 public:
  WriteScope();
  ~WriteScope();
  WriteScope(const WriteScope&) = delete;
  WriteScope& operator=(const WriteScope&) = delete;

  /// Syncs every log written since the last Finish (or since the scope
  /// opened), all at once; returns the first error. A log whose helper
  /// thread cannot start syncs on the calling thread instead.
  Status Finish();

  /// The scope open on this thread, or null.
  static WriteScope* Current();

  /// Records that `log` must be synced through `seq` before Finish
  /// returns.
  void Defer(wal::SharedLog* log, uint64_t seq);

 private:
  std::vector<std::pair<wal::SharedLog*, uint64_t>> unsynced_;
};

struct StoreStats {
  uint64_t checkpoints = 0;
  uint64_t recovered_records = 0;
  bool recovered_torn_tail = false;
};

/// Space reclaimed by COMPACT (cumulative since open).
struct CompactStats {
  uint64_t runs = 0;
  uint64_t pages_reclaimed = 0;
  uint64_t bytes_reclaimed = 0;
  uint64_t notes_moved = 0;
};

/// The NSF-equivalent: the authoritative per-database note container.
///
/// Layout (PR 6): notes live in fixed-size pages in `notes.pages` —
/// slotted bucket pages for encoded notes (with overflow chains for
/// oversized ones) plus a paged note-ID table mapping note id →
/// {UNID, page, slot, flags, sequence time, modified-in-file time} —
/// accessed through a
/// Pager + BufferPool, so databases larger than RAM serve from a bounded
/// working set. Durable geometry (page count, free list, id-table pages)
/// lives in `notes.meta`, written atomically at checkpoint.
///
/// Durability: logical ops commit to a SharedLog stream (the server's or
/// the store's own); page mutations stay in the buffer pool until
/// Checkpoint(), which first logs one atomic kPagerSnapshot record
/// containing every dirty page image, then writes the pages in place —
/// so a torn in-place write is always repaired from the logged images.
/// Crash recovery = adopt meta + demultiplex the stream, skip to its last
/// checkpoint marker and replay the suffix (images first if a snapshot
/// record is present, then the logical ops).
///
/// Compaction: updates and erases leave dead slot bytes behind;
/// CompactStep() copies the live slots of the deadest pages into fresh
/// pages and frees the husks. The owning Database slices it under brief
/// writer locks so readers interleave (the online Domino COMPACT).
///
/// Reads: one core answers every lookup. It reads the note's id-table
/// entry through the pool (the id table is the authority on existence),
/// then takes the decoded note from a NoteCache budgeted like the pool,
/// decoding the bucket slot only on a miss. A lookup answers present,
/// absent or unreadable; an unreadable note is an error, never a missing
/// note. Scans and open-time rebuilds walk the id table through one
/// page walk, which checks each page's type. WriteEntry — the one place
/// an entry changes — drops the id from the cache.
///
/// Inside a WriteScope a write's log record is appended but not yet
/// synced when Put returns; the write is applied and visible at once and
/// acknowledged at the scope's Finish() (see WriteScope).
///
/// Threading: the store carries its own reader/writer lock. Public reads
/// take it shared; the apply step of every write, Checkpoint and
/// CompactStep take it exclusive — so MVCC readers can resolve notes
/// without any database-level lock while a writer commits. The WAL
/// append + fsync of a commit happens OUTSIDE the exclusive section
/// (writers are serialized by the owning Database, so commits cannot
/// race each other, and readers never touch the log). Checkpoint is the
/// one operation that holds the exclusive lock across disk syncs; it is
/// rare and threshold-driven.
class NoteStore {
 public:
  /// Opens (or creates) a store in directory `dir`. `default_info` seeds
  /// the metadata when creating; an existing store keeps its own.
  static Result<std::unique_ptr<NoteStore>> Open(
      const std::string& dir, const StoreOptions& options,
      const DatabaseInfo& default_info);

  ~NoteStore() = default;
  NoteStore(const NoteStore&) = delete;
  NoteStore& operator=(const NoteStore&) = delete;

  // -- Reads ------------------------------------------------------------
  /// The note with local id `id`. The id table decides the answer:
  ///  - a handle: the note is present (deletion stubs count as present);
  ///  - null: the id is unused, or lies beyond the table;
  ///  - an error: the table says the note exists but it cannot be read (a
  ///    page failing its CRC, say). The error names the note id, counts in
  ///    `Database.ReadErrors` and logs a Warning event.
  /// A handle is an immutable decoded copy (shared with the decoded-note
  /// cache), so it stays valid across evictions, compaction and later
  /// writes.
  Result<NoteHandle> Find(NoteId id) const;
  /// Find by UNID; null when the UNID index does not know `unid`.
  Result<NoteHandle> FindByUnid(const Unid& unid) const;
  /// Find over many ids under one shared hold: handles come back in the
  /// order of `ids`, but the ids are resolved in ascending order, so each
  /// id-table page is pinned once. Fails on the first unreadable id.
  Result<std::vector<NoteHandle>> FindMany(
      const std::vector<NoteId>& ids) const;
  /// Whether the UNID index knows `unid` (stubs included); reads no note.
  bool ContainsUnid(const Unid& unid) const;

  /// Which entries a scan visits. kLiveOnly skips deletion stubs at the
  /// id table, without decoding them.
  enum class Visit : uint8_t { kAll, kLiveOnly };

  /// Visits every note (including deletion stubs unless kLiveOnly) in
  /// note-id order, and stops at the first id-table page it cannot read
  /// or note it cannot read (counted and logged as Find's are), returning
  /// that error. The internal lock is held shared per id-table page, NOT
  /// across `fn` callbacks, so callbacks may freely re-enter store reads;
  /// notes committed concurrently with the scan may or may not be
  /// visited.
  Status ForEach(const std::function<void(const Note&)>& fn,
                 Visit visit = Visit::kAll) const;

  /// Ids of the notes (stubs included) whose modified-in-file stamp is
  /// greater than `cutoff`, in ascending stamp order. Answered from an
  /// in-memory index, so the cost tracks the result, not the store.
  std::vector<NoteId> IdsModifiedSince(Micros cutoff) const;
  /// The largest modified-in-file stamp in the store (0 when empty).
  Micros LatestModifiedStamp() const;

  size_t note_count() const {
    return live_count_.load(std::memory_order_relaxed);
  }
  size_t stub_count() const {
    return stub_count_.load(std::memory_order_relaxed);
  }
  size_t total_count() const { return note_count() + stub_count(); }

  // -- Writes -----------------------------------------------------------
  /// Inserts or replaces `note` (keyed by note id; assigns the next id if
  /// the note has none). The caller is responsible for OID stamping.
  /// Updates the UNID index and stub accounting, and commits to the WAL.
  Status Put(Note* note);

  /// Physically removes a note or stub (used by stub purging only —
  /// logical deletion goes through Note::MakeStub + Put).
  Status Erase(NoteId id);

  /// Ids of the deletion stubs whose sequence time is older than
  /// `age_cutoff` and whose modified-in-file stamp is at or below
  /// `seen_cutoff`. Selected from the id table alone: no bucket page is
  /// read and no note decoded.
  Result<std::vector<NoteId>> PurgeableStubs(Micros age_cutoff,
                                             Micros seen_cutoff) const;

  /// Allocates a fresh local note id without writing anything.
  NoteId AllocateId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // -- Metadata / maintenance -------------------------------------------
  DatabaseInfo info() const;
  /// Logs `info` and makes it the store's metadata. With `sync` it
  /// commits as a Put does; without, it is only appended, and becomes
  /// durable with the log's next sync (a crash may lose it).
  Status UpdateInfo(const DatabaseInfo& info, bool sync = true);

  /// Makes all in-memory page state durable and truncates this store's
  /// WAL obligation. Protocol: (1) append one atomic kPagerSnapshot
  /// record — meta + every dirty page image — to the log and sync it;
  /// (2) write the dirty pages in place and sync the page file; (3)
  /// atomically replace `notes.meta`; (4) commit a checkpoint marker and
  /// advance the stream's low-water mark, which lets the log drop what no
  /// stream needs. A crash anywhere in between recovers: the logged images
  /// repair any torn in-place write.
  Status Checkpoint();

  /// Checkpoints iff the WAL obligation exceeds
  /// `checkpoint_threshold_bytes`. Never called from inside Put or Erase:
  /// the owning Database calls it once per commit, after the commit has
  /// published, so the commit that crosses the threshold pays for the
  /// snapshot (its write is already durable if the snapshot fails).
  Status MaybeCheckpoint();

  // -- COMPACT ----------------------------------------------------------
  /// One bounded compaction slice: rewrites up to `max_pages` of the
  /// bucket pages carrying dead bytes, moving their live notes into the
  /// current fill page and freeing the husks. Returns the number of
  /// pages reclaimed (0 = nothing left to do). Requires the writer lock;
  /// crash-safe because nothing touches disk until the next checkpoint.
  Result<size_t> CompactStep(size_t max_pages);

  /// Runs one CompactStep slice when accumulated dead bytes exceed
  /// `compact_threshold_bytes`. The owning Database calls it at the end
  /// of each commit, just before MaybeCheckpoint.
  Status MaybeCompact();

  /// Dead bytes currently reclaimable by COMPACT.
  uint64_t dead_bytes() const;

  StoreStats stats() const;
  CompactStats compact_stats() const;
  /// Payload bytes committed since the last checkpoint.
  uint64_t wal_size_bytes() const;
  /// The sticky error of the log this store commits to (Ok while it
  /// works): once set, changes applied in memory may never be durable.
  Status log_status() const { return log_->io_error(); }
  /// Size of the page file in bytes.
  uint64_t pages_size_bytes() const;
  uint32_t page_size() const { return pager_->page_size(); }

 private:
  NoteStore(std::string dir, StoreOptions options);

  struct IdEntry {
    Unid unid;
    uint32_t page = pager::kInvalidPage;
    uint16_t slot = 0;
    uint8_t flags = 0;
    Micros seq_time = 0;
    /// The note's modified-in-file stamp (the modified_index_ key).
    Micros modified = 0;
  };

  std::string MetaPath() const { return dir_ + "/notes.meta"; }
  std::string PagesPath() const { return dir_ + "/notes.pages"; }

  /// Adopts the meta geometry, then demultiplexes this store's stream and
  /// replays the suffix after its last checkpoint marker.
  Status Recover(const DatabaseInfo& default_info, std::string_view meta_blob,
                 bool have_meta) REQUIRES(mu_);
  Status ApplyBatchPayload(std::string_view payload) REQUIRES(mu_);
  /// Appends one kData record. With `sync` also syncs it, unless a
  /// WriteScope is open on this thread, which then owns the sync.
  Status CommitPayload(const std::string& payload, bool sync = true);

  // -- Meta / snapshot encoding -----------------------------------------
  std::string EncodeMetaBlob() const REQUIRES(mu_);
  Status DecodeMetaBlob(std::string_view input) REQUIRES(mu_);
  std::string EncodePagerSnapshot() REQUIRES(mu_);
  Status AdoptPagerSnapshot(std::string_view payload) REQUIRES(mu_);
  /// Rebuilds unid_index_, modified_index_, live/stub counts and next_id_
  /// by scanning the id-table pages (never touches bucket pages, so
  /// opening a database far larger than the buffer pool stays cheap).
  Status RebuildIndexFromIdTable() REQUIRES(mu_);

  /// The id-table page a run of entry reads last pinned. Reads in id
  /// order through one cursor pin each page once.
  struct IdPageCursor {
    size_t table_index = SIZE_MAX;
    pager::PageRef page;
  };

  // -- Lock-free read cores (caller holds mu_ at least shared) ----------
  /// The read core of every lookup: sets out[i] to the note with id
  /// ids[i] (null when absent) for every i in [0, n), and returns the
  /// first read error (through ReportReadError).
  /// `order` lists the positions of `ids` by ascending id; the id table
  /// is read in that order, so each of its pages is pinned once, and the
  /// note cache is searched for all ids with one lock per shard.
  Status FindCore(const NoteId* ids, const uint32_t* order, size_t n,
                  NoteHandle* out) const REQUIRES_SHARED(mu_);
  /// Decodes a used entry's note from its bucket page and caches it.
  Result<NoteHandle> LoadNote(NoteId id, const IdEntry& entry) const
      REQUIRES_SHARED(mu_);
  /// Counts and logs a read that failed on a note the store should hold;
  /// returns the failure, naming the note id.
  Status ReportReadError(NoteId id, const Status& status) const;

  // -- Id-table access ---------------------------------------------------
  size_t EntriesPerPage() const;
  /// Pins the id-table page holding `id` (NotFound beyond the table).
  Result<pager::PageRef> IdTablePageFor(NoteId id, size_t* slot_in_page) const
      REQUIRES_SHARED(mu_);
  /// Grows the id table until it covers `id`.
  Status EnsureIdCapacity(NoteId id) REQUIRES(mu_);
  /// Absent ids decode as an all-zero entry (flags == 0, i.e. unused).
  /// Reuses the cursor's page when `id` lies on it.
  Result<IdEntry> ReadEntry(NoteId id, IdPageCursor* cursor) const
      REQUIRES_SHARED(mu_);
  Result<IdEntry> ReadEntry(NoteId id) const REQUIRES_SHARED(mu_) {
    IdPageCursor cursor;
    return ReadEntry(id, &cursor);
  }
  /// Decodes the serialized entry at `p` (a pinned id-table page).
  static IdEntry DecodeEntry(const char* p);
  /// The id-table walk: replaces `out` with the used entries of id-table
  /// page `table_index`, in id order. Pins the page once and refuses one
  /// whose type is not the id table's.
  Status UsedEntries(size_t table_index,
                     std::vector<std::pair<NoteId, IdEntry>>* out) const
      REQUIRES_SHARED(mu_);
  /// The one place an id's entry changes, so also the one place its
  /// cached note is dropped.
  Status WriteEntry(NoteId id, const IdEntry& entry) REQUIRES(mu_);

  // -- Note placement ----------------------------------------------------
  /// Appends `encoded` into the current fill page (allocating one when
  /// needed), or spills to an overflow chain; fills in entry location.
  Status PlaceNote(std::string_view encoded, IdEntry* entry) REQUIRES(mu_);
  Status PlaceSlot(std::string_view encoded, uint32_t* page, uint16_t* slot)
      REQUIRES(mu_);
  /// Releases the bytes behind an entry's location (slot kill or
  /// overflow-chain free) and updates dead-byte accounting; frees the
  /// page outright when its last live slot dies.
  Status KillLocation(const IdEntry& entry) REQUIRES(mu_);
  Result<Note> ReadNoteAt(const IdEntry& entry) const REQUIRES_SHARED(mu_);
  /// Installs one note version; returns {existed, was_live} for stats.
  Result<std::pair<bool, bool>> ApplyNote(Note&& note) REQUIRES(mu_);
  /// Removes an entry that is known to be in use.
  Status ApplyErase(NoteId id, const IdEntry& entry) REQUIRES(mu_);

  /// Registry accounting for one committed Put.
  void CountPut(bool existed, bool was_live, bool now_deleted);
  Status Fault(std::string_view point);

  std::string dir_;
  StoreOptions options_;

  /// The store's reader/writer lock (see the class comment). Also
  /// serializes BufferPool::Discard against reader pins: readers only
  /// hold pins while holding mu_ shared, and every Discard runs under
  /// mu_ exclusive.
  mutable SharedMutex mu_;

  DatabaseInfo info_ GUARDED_BY(mu_);
  /// The store's own one-stream log; null when it runs on a server's.
  std::unique_ptr<wal::SharedLog> own_log_;
  /// The log and stream this store commits to: `own_log_` or
  /// StoreOptions::shared_log. Not guarded by mu_: commits append outside
  /// the exclusive section, relying on the owning Database serializing
  /// all writers (readers never touch it).
  wal::SharedLog* log_ = nullptr;
  uint32_t stream_ = 0;
  /// Payload bytes committed since the last checkpoint (the store's WAL
  /// obligation, driving MaybeCheckpoint).
  std::atomic<uint64_t> bytes_since_checkpoint_{0};

  std::unique_ptr<pager::Pager> pager_;
  std::unique_ptr<pager::BufferPool> pool_;
  /// Decoded notes by id, budgeted like the pool (cache_pages ×
  /// page_size). Internally locked; inserts happen under mu_ shared and
  /// erasures under mu_ exclusive (WriteEntry, AdoptPagerSnapshot).
  std::unique_ptr<NoteCache> note_cache_;
  /// Id-table page numbers, in table order (entry index → page).
  std::vector<uint32_t> id_table_pages_ GUARDED_BY(mu_);
  /// Bucket page currently accepting new slots.
  uint32_t fill_page_ GUARDED_BY(mu_) = pager::kInvalidPage;
  /// Dead (reclaimable) payload bytes per bucket page — COMPACT's work
  /// queue. Ordered so compaction scans low pages first.
  std::map<uint32_t, uint64_t> dead_bytes_ GUARDED_BY(mu_);
  uint64_t dead_total_ GUARDED_BY(mu_) = 0;

  std::unordered_map<Unid, NoteId> unid_index_ GUARDED_BY(mu_);
  /// (modified-in-file stamp, id) of every used entry, stubs included:
  /// the "what changed since t" index. Maintained wherever unid_index_ is.
  std::set<std::pair<Micros, NoteId>> modified_index_ GUARDED_BY(mu_);
  std::atomic<NoteId> next_id_{1};
  std::atomic<size_t> live_count_{0};
  std::atomic<size_t> stub_count_{0};
  /// Guards the StoreStats struct (plain fields read by stats() while a
  /// writer commits).
  mutable Mutex stats_mu_;
  StoreStats stats_ GUARDED_BY(stats_mu_);
  CompactStats compact_stats_ GUARDED_BY(mu_);

  // Server-wide stat hooks (see StoreOptions::stats).
  stats::StatRegistry* registry_;
  stats::Counter* ctr_docs_added_;
  stats::Counter* ctr_docs_updated_;
  stats::Counter* ctr_docs_deleted_;
  stats::Counter* ctr_docs_erased_;
  stats::Counter* ctr_checkpoints_;
  stats::Counter* ctr_wal_records_;
  stats::Counter* ctr_wal_bytes_;
  stats::Counter* ctr_compact_runs_;
  stats::Counter* ctr_compact_pages_;
  stats::Counter* ctr_compact_bytes_;
  stats::Counter* ctr_compact_moved_;
  stats::Counter* ctr_pages_freed_inline_;
  stats::Counter* ctr_read_errors_;
  stats::Gauge* gauge_notes_;
  stats::Gauge* gauge_dead_bytes_;
  stats::Histogram* hist_commit_micros_;
};

}  // namespace dominodb

#endif  // DOMINODB_STORAGE_NOTE_STORE_H_
