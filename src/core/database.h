#ifndef DOMINODB_CORE_DATABASE_H_
#define DOMINODB_CORE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/clock.h"
#include "base/epoch.h"
#include "base/result.h"
#include "base/rng.h"
#include "base/shared_mutex.h"
#include "base/thread_annotations.h"
#include "core/mvcc.h"
#include "formula/formula.h"
#include "fulltext/fulltext_index.h"
#include "indexer/indexer_task.h"
#include "model/note.h"
#include "security/acl.h"
#include "stats/stats.h"
#include "storage/note_store.h"
#include "view/view_index.h"

namespace dominodb {

/// A payload-free commit signal. What changed is read from the
/// modified-in-file index (`NotesModifiedSince`) with a stamp cursor, the
/// one change feed every replication consumer uses. Used by the cluster
/// (event-driven) replicator and by tests.
class DatabaseObserver {
 public:
  virtual ~DatabaseObserver() = default;
  /// Fired once per mutating call, on the committing thread, after
  /// the write lock is released — so it may write to this or any other
  /// database. May fire for a commit that changed nothing.
  virtual void OnCommit() = 0;
};

struct DatabaseOptions {
  StoreOptions store;
  std::string title = "Untitled";
  /// Shared across replicas; null generates a fresh one (new database).
  Unid replica_id;
  Micros purge_interval = 90ll * 24 * 3600 * 1'000'000;
  /// Seed for UNID generation (distinct per server instance).
  uint64_t unid_seed = 0;
  /// Stat registry for this database's store, views and full-text index
  /// (nullable → the global registry). Overrides `store.stats` when set.
  stats::StatRegistry* stats = nullptr;
};

/// The Notes database: the unit of storage, access control and
/// replication. Ties together the note store, view indexes, the full-text
/// index and the ACL, and maintains the response-hierarchy index.
///
/// Two API surfaces:
///  - unchecked CRUD (`CreateNote`, ...) for server-internal tasks, and
///  - principal-checked CRUD (`CreateNoteAs`, ...) enforcing the ACL and
///    reader/author fields on every path, as Domino does.
///
/// Threading — MVCC read snapshots; writers never block readers:
///
/// Writers (CRUD, replication apply, purge, compaction slices) serialize
/// on `mu_`, a plain mutex each public mutator takes exactly once and
/// holds for the whole mutation. Mutators that build on each other (the
/// checked variants, responses, folders) call the private `*Locked`
/// cores, which require the lock instead of taking it.
///
/// Readers do NOT take `mu_` at all. A read pins a snapshot epoch
/// (Database::ReadTxn): every commit advances the epoch counter and
/// records pre-images of the notes it overwrites in a short-lived overlay
/// (core/mvcc.h), so a pinned reader resolves each note to its state at
/// the pinned epoch — the store's current value when no later commit
/// touched it, the overlay pre-image otherwise. View and full-text reads
/// run at the same pinned epoch: the view and full-text indexes both keep
/// superseded versions as epoch-stamped zombies until no pin needs them
/// (one visibility rule, one reclaim floor). The component locks actually
/// taken by a read (store, view, full-text internal reader/writer locks;
/// the tiny mvcc mutex) are held only across short structural sections —
/// never across WAL fsyncs or formula evaluation — which is what makes
/// reader latency independent of writer activity.
///
/// Index maintenance has one path: every document change and purge erase
/// goes through the database's update queue (an IndexerTask) as an event
/// carrying its commit epoch. AttachIndexer only decides who drains it —
/// a pool worker, or with no pool the writer itself before its commit
/// publishes. Deferral stays invisible to readers: ReadTxn catches up the
/// indexes to its pinned epoch before the first view/full-text read
/// (appliers serialize on the indexer's apply mutex, not on `mu_`). Store
/// threshold maintenance (compaction slice, checkpoint) runs at the end
/// of every commit, under the write lock, whoever drains.
///
/// A mutator that must see the latest state (a folder mutator finding
/// its folder note) reads the store directly under the write lock; every
/// ReadTxn pins, on any thread.
class Database : public NoteResolver {
 public:
  static Result<std::unique_ptr<Database>> Open(const std::string& dir,
                                                const DatabaseOptions& options,
                                                const Clock* clock);
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Pins a snapshot epoch for the lifetime of the guard: every read made
  /// through the database (directly or via formula services) on this
  /// thread resolves at that epoch, so a multi-step read — traverse a
  /// view, then open each note; search, then @DbLookup — is repeatable
  /// even while writers commit concurrently.
  ///
  /// Nested ReadTxns on the same thread reuse the outer pin (that is what
  /// makes @DbLookup inside FormulaSearch repeatable). `catch_up` brings
  /// the view / full-text indexes up to the pinned epoch first — pass
  /// false for store-only reads that should not wait on index appliers.
  class ReadTxn {
   public:
    explicit ReadTxn(const Database* db, bool catch_up = true);
    ~ReadTxn();
    ReadTxn(const ReadTxn&) = delete;
    ReadTxn& operator=(const ReadTxn&) = delete;
    /// The pinned epoch.
    Epoch epoch() const { return epoch_; }

   private:
    const Database* db_;
    Epoch epoch_ = kEpochNone;
    bool pinned_ = false;  // this txn owns the thread's pin
  };

  // -- Identity ---------------------------------------------------------
  // Fixed at creation, so copied at open: no lock and no copy of the
  // store's info (with its replication history) per call.
  const Unid& replica_id() const { return replica_id_; }
  const std::string& title() const { return title_; }
  DatabaseInfo info() const { return store_->info(); }
  const Clock* clock() const { return clock_; }

  /// MVCC bookkeeping (pinned epochs, overlay versions) — for stats and
  /// tests.
  const MvccSnapshots& mvcc() const { return mvcc_; }

  /// The last modified-in-file stamp issued by this database. Everything
  /// written so far carries a stamp ≤ this value; a cluster replicator
  /// starts its cursor here.
  Micros last_write_stamp() const {
    return last_stamp_.load(std::memory_order_acquire);
  }

  // -- Security ---------------------------------------------------------
  /// Snapshot of the live ACL (by value: SetAcl replaces the referent
  /// concurrently).
  Acl acl() const;
  /// Replaces the ACL (persisted as the ACL note, so it replicates).
  Status SetAcl(const Acl& acl);
  /// Checked variant: `who` must hold Manager access.
  Status SetAclAs(const Principal& who, const Acl& acl);

  // -- Unchecked CRUD (server-internal) ----------------------------------
  /// Stamps a fresh UNID/OID and stores the note. Returns the note id.
  Result<NoteId> CreateNote(Note note);
  /// Creates `note` under the caller's `unid`, unless this database
  /// already knows that UNID — as a live note or as a deletion stub, so a
  /// repeated hand-off cannot bring back a copy that was deleted. Returns
  /// whether it created the note. The idempotent hand-off of the mail
  /// router, whose copies carry UNIDs derived from the memo. A known
  /// UNID on a store whose log is fail-stop returns the log's error: the
  /// copy may never become durable, so it is no delivery.
  Result<bool> CreateNoteIfAbsent(const Unid& unid, Note note);
  /// Bumps the sequence number and stores. The note must carry the OID of
  /// the version being updated (read-modify-write).
  Status UpdateNote(Note note);
  /// Replaces the note with a deletion stub.
  Status DeleteNote(NoteId id);
  /// Live notes only (NotFound for stubs). A note the store cannot read
  /// is an error (Corruption, say), never NotFound.
  Result<Note> ReadNote(NoteId id) const;
  Result<Note> ReadNoteByUnid(const Unid& unid) const;

  // -- Checked CRUD -------------------------------------------------------
  Result<NoteId> CreateNoteAs(const Principal& who, Note note);
  Status UpdateNoteAs(const Principal& who, Note note);
  Status DeleteNoteAs(const Principal& who, NoteId id);
  Result<Note> ReadNoteAs(const Principal& who, NoteId id) const;

  /// Creates a response document under `parent`.
  Result<NoteId> CreateResponse(const Unid& parent, Note note);

  // -- Views --------------------------------------------------------------
  /// Persists the design note and builds the index.
  Result<ViewIndex*> CreateView(ViewDesign design);
  /// nullptr if absent. The returned index is internally synchronized
  /// (reads may run concurrently with writers); the pointer stays valid
  /// until the view's design is replaced or deleted.
  ViewIndex* FindView(std::string_view name);
  const ViewIndex* FindView(std::string_view name) const;
  std::vector<std::string> ViewNames() const;
  /// Traverses a view at a pinned snapshot, filtering rows the principal
  /// may not read (document-level security applies to every access path).
  Status TraverseViewAs(const Principal& who, std::string_view view_name,
                        const std::function<void(const ViewRow&)>& visit) const;

  // -- Folders ----------------------------------------------------------
  // Notes R4 folders: manual document collections. Stored as design notes
  // ($Folder), so membership replicates like any other note.
  /// Creates an empty folder (error if the name is taken).
  Result<NoteId> CreateFolder(const std::string& name);
  Status AddToFolder(const std::string& name, const Unid& unid);
  Status RemoveFromFolder(const std::string& name, const Unid& unid);
  /// Live documents currently in the folder (dangling refs are skipped).
  Result<std::vector<Note>> FolderContents(const std::string& name) const;
  Result<std::vector<std::string>> FolderNames() const;

  // -- Background indexer -----------------------------------------------
  /// Hands the update queue to the server's indexer pool (the UPDATE
  /// task): document writes then return before view / full-text
  /// maintenance runs, and a drain scheduled on the pool applies their
  /// events. Passing nullptr hands it back to the writers, which drain
  /// their own events before they return. Full view / full-text builds
  /// (CreateView, EnsureFullTextIndex) never use the pool: they run on
  /// the calling thread under the write lock. Read paths catch up to
  /// their pinned epoch first, so deferral is semantically invisible:
  /// indexes reflect every commit a reader can observe by the time it
  /// looks.
  void AttachIndexer(indexer::ThreadPool* pool);
  /// Deterministic barrier: applies every pending index event inline.
  /// Afterwards views and the full-text index are identical to what a
  /// pool-less database would hold.
  Status FlushIndexes();
  bool HasPendingIndexWork() const;

  // -- Full-text ------------------------------------------------------------
  /// Builds the index if needed; it is maintained incrementally afterward.
  /// The build is visible at every epoch: creation is a design change and,
  /// as for views, not snapshot-isolated.
  Status EnsureFullTextIndex();
  const FullTextIndex* fulltext() const;
  /// Scored search returning readable notes only, evaluated at a pinned
  /// snapshot: the index's versions visible at the pin, in its score
  /// order, each resolved at the pin.
  Result<std::vector<Note>> SearchAs(const Principal& who,
                                     std::string_view query) const;

  // -- Formula search (db.Search) ------------------------------------------
  /// Full-scan selection by formula; live documents only.
  Result<std::vector<Note>> FormulaSearch(std::string_view selection) const;

  /// Fills the formula context with this database's services: title,
  /// replica id, clock, and the @DbLookup/@DbColumn hook over this
  /// database's views. The hook opens its own ReadTxn per call (or joins
  /// the caller's pinned snapshot), so bound contexts may be evaluated
  /// from any thread.
  void BindFormulaServices(formula::EvalContext* ctx) const;

  // -- Unread marks -----------------------------------------------------------
  void MarkRead(const Principal& who, const Unid& unid);
  bool IsUnread(const Principal& who, const Unid& unid) const;
  Result<size_t> UnreadCount(const Principal& who) const;

  // -- Replication support ------------------------------------------------
  /// One change-summary entry: the OID plus the modified-in-this-file
  /// stamp that made it part of the summary.
  struct Change {
    Oid oid;
    Micros stamp = 0;
  };
  /// Every note (stubs included) modified in this file after `cutoff` —
  /// the change summary exchanged by the replicator — ordered by
  /// ascending stamp (ties broken by UNID). A replication session that
  /// processes entries in this order can record any prefix boundary as a
  /// resumable low-water cutoff: everything stamped at or below it has
  /// been seen. Fails on the first note the store cannot read.
  Result<std::vector<Change>> ChangeSummarySince(Micros cutoff) const;
  /// The notes behind ChangeSummarySince, in the same order, resolved at
  /// one pinned snapshot. Costs O(changes): candidates come from the
  /// store's modified-in-file index, not from a scan, and are read in one
  /// batch.
  Result<std::vector<NoteHandle>> NotesModifiedSince(Micros cutoff) const;
  /// Includes stubs.
  Result<Note> GetAnyByUnid(const Unid& unid) const;
  /// Stores a note received from a remote replica verbatim (no local
  /// re-stamping); reuses the local note id when the UNID exists. Fails,
  /// allocating nothing, when the local note cannot be read.
  Status InstallRemoteNote(Note note);

  /// `peer`'s cutoffs in the replication history (DatabaseInfo::history);
  /// both 0 for a peer not in it.
  PeerCutoffs ReplicationCutoffs(const std::string& peer) const;
  /// Raises `peer`'s cutoffs to at least `cutoffs` and logs the change,
  /// if any. The record that adds a peer commits as a note does (an open
  /// WriteScope owns its sync); a later one becomes durable with the
  /// log's next sync, so a crash before that loses it, never what it
  /// follows.
  Status RecordReplication(const std::string& peer, PeerCutoffs cutoffs);
  /// The administrator's "clear replication history": both of `peer`'s
  /// cutoffs go to 0, so the next pull from it summarizes every note. The
  /// peer stays, so purge stays clamped. Durable when it returns.
  Status ClearReplicationHistory(const std::string& peer);

  /// Purges expired deletion stubs: stubs older than `purge_interval`
  /// AND already pulled by every peer in the replication history (with
  /// no peer, the database never replicated: age alone decides).
  /// Selected from the store's id table; no note is decoded. Returns the
  /// number removed. Readers pinned before the purge keep seeing the
  /// stubs through the overlay until they unpin.
  Result<size_t> PurgeStubs();

  // -- Observation / iteration ----------------------------------------------
  void AddObserver(DatabaseObserver* observer);
  void RemoveObserver(DatabaseObserver* observer);
  /// The `Note&` passed to `fn` is only valid for the duration of the
  /// callback — copy it (or re-Find a NoteHandle) to keep it. Both scans
  /// run at a pinned snapshot (join the caller's pin when nested) and stop
  /// at the first note the store cannot read, returning that error.
  Status ForEachLiveNote(const std::function<void(const Note&)>& fn) const;
  Status ForEachNote(const std::function<void(const Note&)>& fn) const;

  size_t note_count() const;
  size_t stub_count() const;
  StoreStats store_stats() const;
  NoteStore* store() { return store_.get(); }

  /// Writes a checkpoint snapshot (fast restart).
  Status Checkpoint();

  /// Online COMPACT: copies live notes out of fragmented pages until no
  /// reclaimable space remains, then checkpoints so the reclaim is
  /// durable. Runs in bounded slices, releasing the write lock between
  /// them so other writers interleave; readers are never blocked.
  Status RunCompact();

  // -- NoteResolver (for view indexes) ---------------------------------------
  // Reads backed by the store's / catalog's own locks: the latest state,
  // except FindByIdAt, which resolves at a commit epoch like a reader. The
  // resolver has no error channel: an unreadable note resolves to null
  // (the store still counts and logs the read error).
  NoteHandle FindByUnid(const Unid& unid) const override;
  NoteHandle FindById(NoteId id) const override;
  NoteHandle FindByIdAt(NoteId id, Epoch at) const override;
  std::vector<NoteId> ChildrenOf(const Unid& parent) const override;

 private:
  Database(const Clock* clock, uint64_t unid_seed,
           stats::StatRegistry* registry)
      : clock_(clock),
        rng_(unid_seed),
        stamp_salt_(static_cast<Micros>(Mix64(unid_seed) % 1000)),
        mvcc_(registry),
        indexer_(
            nullptr,
            [this](indexer::IndexerTask*) {
              Status status = FlushIndexes();
              if (!status.ok()) {
                registry_->events().Log(stats::Severity::kWarning, "Indexer",
                                        "drain: " + status.message());
              }
            },
            registry),
        registry_(registry),
        ctr_stubs_purged_(&registry->GetCounter("Database.Stubs.Purged")) {}

  /// Exclusive hold for public mutators: opens the commit epoch, and on
  /// exit publishes it, runs store maintenance, releases `mu_` and fires
  /// OnCommit. Non-commit exclusive work takes a plain MutexLock.
  class MutationGuard;

  // Mutation cores: the public mutators' bodies, run under a held lock so
  // the mutators that build on one another take `mu_` once.
  Result<NoteId> CreateLocked(Note note) REQUIRES(mu_);
  Result<NoteId> CreateWithUnidLocked(Note note, const Unid& unid)
      REQUIRES(mu_);
  Status UpdateLocked(Note note) REQUIRES(mu_);
  Status DeleteLocked(NoteId id) REQUIRES(mu_);
  Status SetAclLocked(const Acl& acl) REQUIRES(mu_);
  /// Saves a design note (ACL, view): updates the live note `existing`
  /// in place — carrying its OID forward — or creates a new one when
  /// there is none.
  Status SaveDesignNote(Note note, NoteId existing) REQUIRES(mu_);
  /// The commit step every stored note goes through: stamps
  /// modified-in-file, records the pre-image, stores, runs AfterChange.
  Status CommitNote(Note* note) REQUIRES(mu_);
  /// The live design note of folder `name`, read from the store.
  Result<Note> FindFolderLocked(const std::string& name) REQUIRES(mu_);

  Unid GenerateUnid() REQUIRES(mu_);
  /// Monotonic, replica-distinct sequence/modified-in-file stamp.
  Micros StampTime() REQUIRES(mu_);
  /// Captures the current state of note `id` (live, stub, or absent) as
  /// the pre-image for the in-flight commit. Must run before the store
  /// mutation it protects, which must not run if this fails (the note is
  /// unreadable).
  Status RecordPreImage(NoteId id) REQUIRES(mu_);
  /// Post-commit bookkeeping: children index, design state, the update
  /// queue.
  Status AfterChange(const Note& note) REQUIRES(mu_);
  /// Store threshold maintenance (compaction slice, then checkpoint), run
  /// once per commit. The commit is already logged (and, outside a
  /// WriteScope, durable), so a failure is logged as a `Store` warning,
  /// never returned to the writer.
  void MaintainStore() REQUIRES(mu_);
  /// Fails when its scan of the store fails.
  Status LoadDesignState() REQUIRES(mu_);
  /// Installs an ACL or view design note. A view note installs
  /// `built_view_` when CreateView built it, else builds its index.
  Status ApplyDesignNote(const Note& note) REQUIRES(mu_);
  /// The index of `design` over the store's notes; nothing on a failed
  /// scan.
  Result<std::shared_ptr<ViewIndex>> BuildView(ViewDesign design) const;
  /// Applies one queued note-change event to views and full-text, using
  /// the note state captured at enqueue time. Runs under the indexer's
  /// apply mutex, never needing mu_ (a pool-less writer holds it anyway).
  Status ApplyIndexEvent(const indexer::NoteChange& change) const;
  /// Applies the pending event prefix a reader pinned at `max_epoch`
  /// needs; kEpochLatest is above every queued epoch, so it drains all.
  Status CatchUpIndexes(Epoch max_epoch) const;

  // Catalog snapshots (shared_ptr copies under catalog_mu_, so callers
  // use the indexes without holding any database-wide lock).
  std::shared_ptr<ViewIndex> FindViewShared(std::string_view name) const;
  std::vector<std::shared_ptr<ViewIndex>> SnapshotViews() const;
  std::shared_ptr<FullTextIndex> SnapshotFulltext() const;

  /// Physically drops view and full-text zombie versions no pinned reader
  /// can need.
  void ReclaimIndexVersions() const;

  // Snapshot resolution (see core/mvcc.h for the protocol). Null means
  // absent at `at`; an error, that the store could not read the note and
  // no pre-image at `at` stands in for it.
  Result<NoteHandle> ResolveAt(NoteId id, Epoch at) const;
  /// The version of note `id` at `at`, given `current`, the store's
  /// answer for it read BEFORE this call.
  Result<NoteHandle> VersionAt(NoteId id, Epoch at,
                               Result<NoteHandle> current) const;
  Result<NoteHandle> ResolveUnidAt(const Unid& unid, Epoch at) const;
  /// Visits every note (stubs included) visible at `at`, including notes
  /// the store has since purged but the overlay still carries. kLiveOnly
  /// skips the store's current stubs undecoded; overlay versions (stubs
  /// among them) are still visited, so callers filter deleted() anyway.
  /// Returns the store scan's error.
  Status ScanAt(Epoch at, const std::function<void(const Note&)>& fn,
                NoteStore::Visit visit = NoteStore::Visit::kAll) const;

  /// Calls every observer's OnCommit (outside all locks).
  void NotifyCommit();

  /// Writer serialization lock (taken once per mutator; readers never
  /// touch it — see the class comment).
  Mutex mu_;

  const Clock* clock_;
  /// Identity, copied from the store's info at open.
  Unid replica_id_;
  std::string title_;
  Rng rng_ GUARDED_BY(mu_);
  /// Last issued sequence-time stamp; keeps OID times strictly monotonic
  /// even under a frozen SimClock. Written under the write lock; atomic
  /// so last_write_stamp() stays lock-free for the replicator.
  std::atomic<Micros> last_stamp_{0};
  /// Per-instance sub-millisecond residue (see StampTime).
  Micros stamp_salt_ = 0;
  /// Set once in Open (before any concurrency); internally synchronized —
  /// reads take its lock shared, mutators (serialized by mu_) exclusive.
  std::unique_ptr<NoteStore> store_;
  /// Snapshot epochs + pre-image overlay. Mutable: const read paths pin.
  mutable MvccSnapshots mvcc_;
  /// The update queue, for the database's lifetime; internally
  /// synchronized. Mutable: const read paths catch up through it.
  mutable indexer::IndexerTask indexer_;

  /// ACL state (replaced by SetAcl / replicated design notes).
  mutable Mutex acl_mu_;
  Acl acl_ GUARDED_BY(acl_mu_);
  NoteId acl_note_id_ GUARDED_BY(acl_mu_) = kInvalidNoteId;

  /// Index catalog + response-children index. A leaf lock: held only to
  /// copy out shared_ptrs / id sets, never while calling into an index
  /// or the store.
  mutable Mutex catalog_mu_;
  std::map<std::string, std::shared_ptr<ViewIndex>> views_
      GUARDED_BY(catalog_mu_);  // lower name
  std::unordered_map<std::string, NoteId> view_note_ids_
      GUARDED_BY(catalog_mu_);  // lower name
  std::shared_ptr<FullTextIndex> fulltext_ GUARDED_BY(catalog_mu_);
  std::unordered_map<Unid, std::set<NoteId>> children_
      GUARDED_BY(catalog_mu_);

  /// Unread marks.
  mutable Mutex marks_mu_;
  std::map<std::string, std::set<Unid>> read_marks_
      GUARDED_BY(marks_mu_);  // user → read unids

  /// Commit observers. A leaf lock: held only to copy the list.
  mutable Mutex observers_mu_;
  std::vector<DatabaseObserver*> observers_ GUARDED_BY(observers_mu_);

  /// Epoch of the in-flight commit (set by its MutationGuard).
  Epoch commit_epoch_ GUARDED_BY(mu_) = kEpochNone;
  /// The index CreateView built before committing its design note.
  std::shared_ptr<ViewIndex> built_view_ GUARDED_BY(mu_);

  /// Registry handed down to the store, views and full-text index.
  stats::StatRegistry* registry_;
  stats::Counter* ctr_stubs_purged_;
};

}  // namespace dominodb

#endif  // DOMINODB_CORE_DATABASE_H_
