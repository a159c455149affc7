#include "core/database.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <optional>
#include <unordered_set>
#include <utility>

#include "base/string_util.h"
#include "core/replication_history.h"
#include "formula/formula.h"

namespace dominodb {

namespace {

std::atomic<uint64_t> g_open_counter{1};

/// Thread-local pin token: the snapshot epoch this thread's outermost
/// ReadTxn pinned on a database. Nested ReadTxns join it, which is what
/// makes @DbLookup inside FormulaSearch (and any other re-entrant read)
/// repeatable — every step of the enclosing read resolves at one epoch.
struct PinToken {
  const void* db;
  Epoch epoch;
  int depth;
};

thread_local std::vector<PinToken> t_pin_tokens;

PinToken* FindPin(const void* db) {
  for (PinToken& pin : t_pin_tokens) {
    if (pin.db == db) return &pin;
  }
  return nullptr;
}

void PopPin(const void* db) {
  for (auto it = t_pin_tokens.begin(); it != t_pin_tokens.end(); ++it) {
    if (it->db == db) {
      t_pin_tokens.erase(it);
      return;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot pinning (Database::ReadTxn)
// ---------------------------------------------------------------------------

Database::ReadTxn::ReadTxn(const Database* db, bool catch_up) : db_(db) {
  if (PinToken* pin = FindPin(db_)) {
    ++pin->depth;
    epoch_ = pin->epoch;
  } else {
    epoch_ = db_->mvcc_.Pin();
    t_pin_tokens.push_back({db_, epoch_, 1});
    pinned_ = true;
  }
  if (!catch_up) return;
  // Bring views / full-text up to the pin (an outer txn may have pinned
  // with catch_up=false before this nested view read).
  Status status = db_->CatchUpIndexes(epoch_);
  if (!status.ok()) {
    db_->registry_->events().Log(stats::Severity::kWarning, "Indexer",
                                 "read catch-up: " + status.message());
  }
}

Database::ReadTxn::~ReadTxn() {
  PinToken* pin = FindPin(db_);
  --pin->depth;
  if (!pinned_) return;  // nested: the outer txn owns the pin
  PopPin(db_);
  db_->mvcc_.Unpin(epoch_);
  if (db_->mvcc_.pinned_count() == 0) {
    // Last reader out sweeps the index zombies its pin kept alive, so a
    // quiescent database carries no versioned residue.
    db_->ReclaimIndexVersions();
  }
}

// ---------------------------------------------------------------------------
// Mutation guard
// ---------------------------------------------------------------------------

/// Scope guard for public mutators: holds the write lock and brackets
/// the commit — it opens the commit epoch on entry and publishes it on
/// exit, after the mutation has applied and recorded its pre-images, then
/// runs the store's threshold maintenance before the lock is released.
/// OnCommit fires after release, so an observer may lock a peer database
/// without creating a lock order between the two.
class SCOPED_CAPABILITY Database::MutationGuard {
 public:
  explicit MutationGuard(Database* db) ACQUIRE(db->mu_) : db_(db) {
    db_->mu_.Lock();
    db_->commit_epoch_ = db_->mvcc_.BeginCommit();
  }
  ~MutationGuard() RELEASE() {
    db_->mvcc_.Publish(db_->commit_epoch_);
    db_->commit_epoch_ = kEpochNone;
    // Piggyback index-zombie reclamation on the commit: drops whatever
    // versions the (possibly advanced) reclaim floor no longer protects.
    db_->ReclaimIndexVersions();
    db_->MaintainStore();
    db_->mu_.Unlock();
    db_->NotifyCommit();
  }
  MutationGuard(const MutationGuard&) = delete;
  MutationGuard& operator=(const MutationGuard&) = delete;

 private:
  Database* db_;
};

void Database::NotifyCommit() {
  std::vector<DatabaseObserver*> observers;
  {
    MutexLock lock(&observers_mu_);
    if (observers_.empty()) return;
    observers = observers_;
  }
  for (DatabaseObserver* obs : observers) obs->OnCommit();
}

Database::~Database() {
  // Stop the background drain before any member is torn down: Close waits
  // for in-flight pool callbacks, which may still touch views/full-text
  // until it returns.
  indexer_.Close();
}

void Database::MaintainStore() {
  Status comp = store_->MaybeCompact();
  if (!comp.ok()) {
    registry_->events().Log(stats::Severity::kWarning, "Store",
                            "compact: " + comp.message());
  }
  Status ckpt = store_->MaybeCheckpoint();
  if (!ckpt.ok()) {
    registry_->events().Log(stats::Severity::kWarning, "Store",
                            "checkpoint: " + ckpt.message());
  }
}

// ---------------------------------------------------------------------------
// Catalog snapshots
// ---------------------------------------------------------------------------

std::shared_ptr<ViewIndex> Database::FindViewShared(
    std::string_view name) const {
  MutexLock lock(&catalog_mu_);
  auto it = views_.find(ToLower(name));
  return it == views_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<ViewIndex>> Database::SnapshotViews() const {
  MutexLock lock(&catalog_mu_);
  std::vector<std::shared_ptr<ViewIndex>> out;
  out.reserve(views_.size());
  for (const auto& [key, view] : views_) out.push_back(view);
  return out;
}

std::shared_ptr<FullTextIndex> Database::SnapshotFulltext() const {
  MutexLock lock(&catalog_mu_);
  return fulltext_;
}

// ---------------------------------------------------------------------------
// Background indexer
// ---------------------------------------------------------------------------

void Database::AttachIndexer(indexer::ThreadPool* pool) {
  indexer_.SetPool(pool);
}

Status Database::FlushIndexes() { return CatchUpIndexes(kEpochLatest); }

Status Database::CatchUpIndexes(Epoch max_epoch) const {
  Status status = Status::Ok();
  indexer_.CatchUp(max_epoch,
                   [this, &status](const indexer::NoteChange& change) {
                     Status s = ApplyIndexEvent(change);
                     if (status.ok() && !s.ok()) status = s;
                   });
  return status;
}

bool Database::HasPendingIndexWork() const { return indexer_.HasPending(); }

Status Database::ApplyIndexEvent(const indexer::NoteChange& change) const {
  std::vector<std::shared_ptr<ViewIndex>> views = SnapshotViews();
  std::shared_ptr<FullTextIndex> ft = SnapshotFulltext();
  if (change.kind == indexer::ChangeKind::kErased || change.note == nullptr) {
    for (const auto& view : views) view->Remove(change.id, change.epoch);
    if (ft != nullptr) ft->RemoveNote(change.id, change.epoch);
    return Status::Ok();
  }
  for (const auto& view : views) {
    DOMINO_RETURN_IF_ERROR(view->Update(*change.note, this, change.epoch));
  }
  if (ft != nullptr) ft->IndexNote(*change.note, change.epoch);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Open / design state
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& dir, const DatabaseOptions& options,
    const Clock* clock) {
  uint64_t seed = options.unid_seed != 0
                      ? options.unid_seed
                      : Fnv1a64(dir) ^
                            Mix64(g_open_counter.fetch_add(1));
  stats::StatRegistry* registry = options.stats != nullptr
                                      ? options.stats
                                      : &stats::StatRegistry::Global();
  std::unique_ptr<Database> db(new Database(clock, seed, registry));
  // Still single-threaded; the lock exists for the static analysis and
  // costs one uncontended acquire.
  MutexLock setup(&db->mu_);
  DatabaseInfo default_info;
  default_info.title = options.title;
  default_info.purge_interval = options.purge_interval;
  if (options.replica_id.IsNull()) {
    default_info.replica_id = Unid{db->rng_.Next(), db->rng_.Next()};
  } else {
    default_info.replica_id = options.replica_id;
  }
  StoreOptions store_options = options.store;
  if (store_options.stats == nullptr) store_options.stats = registry;
  DOMINO_ASSIGN_OR_RETURN(db->store_,
                          NoteStore::Open(dir, store_options, default_info));
  // Stamps stay monotonic across a reopen: a note written now must never
  // sort below a cutoff a peer or agent recorded before the close.
  db->last_stamp_.store(db->store_->LatestModifiedStamp(),
                        std::memory_order_release);
  db->LoadDesignState();
  return db;
}

void Database::LoadDesignState() {
  // Children index + design notes (ACL, views) from the store's live
  // notes; stubs are skipped undecoded.
  store_->ForEach([&](const Note& note) {
    if (!note.parent_unid().IsNull()) {
      MutexLock lock(&catalog_mu_);
      children_[note.parent_unid()].insert(note.id());
    }
    if (note.note_class() == NoteClass::kAcl) {
      auto acl = Acl::FromNote(note);
      if (acl.ok()) {
        MutexLock lock(&acl_mu_);
        acl_ = std::move(*acl);
        acl_note_id_ = note.id();
      }
    }
  }, NoteStore::Visit::kLiveOnly);
  // Views need a second pass so the children index is complete before
  // the rebuild walks response hierarchies.
  store_->ForEach([&](const Note& note) {
    if (note.note_class() == NoteClass::kView) ApplyDesignNote(note).ok();
  }, NoteStore::Visit::kLiveOnly);
}

Unid Database::GenerateUnid() {
  for (;;) {
    Unid unid{rng_.Next(), rng_.Next()};
    if (!unid.IsNull() && !store_->ContainsUnid(unid)) return unid;
  }
}

Micros Database::StampTime() {
  // Sequence times double as version identifiers during replication, so
  // two replicas must never stamp the same microsecond. Real deployments
  // rely on clock skew; under a shared SimClock we reproduce the skew by
  // giving each database instance a distinct sub-millisecond residue.
  Micros t = clock_ != nullptr ? clock_->Now() : 0;
  t = t - (t % 1000) + stamp_salt_;
  const Micros last = last_stamp_.load(std::memory_order_relaxed);
  if (t <= last) {
    t = last + 1000;  // next millisecond tick, same residue
  }
  last_stamp_.store(t, std::memory_order_release);
  return t;
}

// ---------------------------------------------------------------------------
// Snapshot resolution
// ---------------------------------------------------------------------------

void Database::RecordPreImage(NoteId id) {
  mvcc_.Record(id, commit_epoch_, store_->Find(id));
}

NoteHandle Database::ResolveAt(NoteId id, Epoch at) const {
  return VersionAt(id, at, store_->Find(id));
}

NoteHandle Database::VersionAt(NoteId id, Epoch at,
                               NoteHandle current) const {
  // The store state is fetched BEFORE consulting the overlay: a racing
  // commit records its pre-image before it touches the store, so
  // whichever interleaving the store read observed, one of the two
  // sources carries the state at `at` — and Lookup tells us which.
  MvccSnapshots::Resolution r = mvcc_.Lookup(id, at);
  switch (r.verdict) {
    case MvccSnapshots::Verdict::kUseStore:
      return current;
    case MvccSnapshots::Verdict::kVersion:
      return r.note;
    case MvccSnapshots::Verdict::kAbsent:
      return nullptr;
  }
  return nullptr;
}

NoteHandle Database::ResolveUnidAt(const Unid& unid, Epoch at) const {
  NoteHandle current = store_->FindByUnid(unid);
  if (current != nullptr) return ResolveAt(current->id(), at);
  // Not in the store — never existed, or purged after the pin; the
  // overlay remembers the UNID binding of every recorded pre-image.
  std::optional<NoteId> id = mvcc_.LookupUnid(unid);
  if (!id.has_value()) return nullptr;
  return ResolveAt(*id, at);
}

void Database::ScanAt(Epoch at, const std::function<void(const Note&)>& fn,
                      NoteStore::Visit visit) const {
  // Pass 1: every note the store still holds, resolved through the
  // overlay. Pass 2: overlay versions whose note the store purged after
  // the pin. OverlayIds is taken AFTER the scan so a purge that raced
  // pass 1 (pre-image recorded before the erase) is guaranteed visible
  // to pass 2; `seen` keeps the two passes disjoint. A kLiveOnly scan
  // never sees the stubs it skips, so a note deleted after the pin still
  // reaches pass 2 and resolves to its live pre-image there.
  std::unordered_set<NoteId> seen;
  store_->ForEach([&](const Note& note) {
    seen.insert(note.id());
    MvccSnapshots::Resolution r = mvcc_.Lookup(note.id(), at);
    switch (r.verdict) {
      case MvccSnapshots::Verdict::kUseStore:
        fn(note);
        break;
      case MvccSnapshots::Verdict::kVersion:
        if (r.note != nullptr) fn(*r.note);
        break;
      case MvccSnapshots::Verdict::kAbsent:
        break;
    }
  }, visit);
  for (NoteId id : mvcc_.OverlayIds()) {
    if (seen.count(id) != 0) continue;
    MvccSnapshots::Resolution r = mvcc_.Lookup(id, at);
    if (r.verdict == MvccSnapshots::Verdict::kVersion && r.note != nullptr) {
      fn(*r.note);
    }
  }
}

void Database::ReclaimIndexVersions() const {
  const Epoch floor = mvcc_.ReclaimFloor();
  for (const auto& view : SnapshotViews()) view->ReclaimVersions(floor);
  if (auto ft = SnapshotFulltext()) ft->ReclaimVersions(floor);
}

// ---------------------------------------------------------------------------
// Security
// ---------------------------------------------------------------------------

Acl Database::acl() const {
  MutexLock lock(&acl_mu_);
  return acl_;
}

Status Database::SetAcl(const Acl& acl) {
  MutationGuard guard(this);
  return SetAclLocked(acl);
}

Status Database::SetAclAs(const Principal& who, const Acl& acl) {
  MutationGuard guard(this);
  if (!CanChangeAcl(this->acl(), who)) {
    return Status::PermissionDenied(who.name + " lacks Manager access");
  }
  return SetAclLocked(acl);
}

Status Database::SetAclLocked(const Acl& acl) {
  NoteId acl_id;
  {
    MutexLock lock(&acl_mu_);
    acl_id = acl_note_id_;
  }
  // ApplyDesignNote records the ACL note id of a newly created note.
  return SaveDesignNote(acl.ToNote(), acl_id);
}

Status Database::SaveDesignNote(Note note, NoteId existing) {
  NoteHandle current =
      existing != kInvalidNoteId ? store_->Find(existing) : nullptr;
  if (current == nullptr || current->deleted()) {
    return CreateLocked(std::move(note)).status();
  }
  note.set_id(existing);
  note.SetReplicationState(current->oid(), current->revisions(),
                           current->created(), false);
  return UpdateLocked(std::move(note));
}

// ---------------------------------------------------------------------------
// CRUD
// ---------------------------------------------------------------------------

Result<NoteId> Database::CreateNote(Note note) {
  MutationGuard guard(this);
  return CreateLocked(std::move(note));
}

Status Database::UpdateNote(Note note) {
  MutationGuard guard(this);
  return UpdateLocked(std::move(note));
}

Status Database::DeleteNote(NoteId id) {
  MutationGuard guard(this);
  return DeleteLocked(id);
}

Result<bool> Database::CreateNoteIfAbsent(const Unid& unid, Note note) {
  if (unid.IsNull()) return Status::InvalidArgument("null UNID");
  MutationGuard guard(this);
  if (store_->ContainsUnid(unid)) return false;
  DOMINO_RETURN_IF_ERROR(
      CreateWithUnidLocked(std::move(note), unid).status());
  return true;
}

Result<NoteId> Database::CreateLocked(Note note) {
  return CreateWithUnidLocked(std::move(note), GenerateUnid());
}

Result<NoteId> Database::CreateWithUnidLocked(Note note, const Unid& unid) {
  // Pre-assign the id so the absent pre-image is on record before the
  // store sees the note (readers pinned before this commit then resolve
  // the id to "did not exist").
  note.set_id(store_->AllocateId());
  note.StampCreated(unid, StampTime());
  note.StampItemModifications(nullptr, note.sequence_time());
  DOMINO_RETURN_IF_ERROR(CommitNote(&note));
  return note.id();
}

Status Database::UpdateLocked(Note note) {
  NoteHandle existing = store_->Find(note.id());
  if (existing == nullptr || existing->deleted()) {
    return Status::NotFound(StrPrintf("note %u", note.id()));
  }
  if (existing->unid() != note.unid()) {
    return Status::InvalidArgument("note UNID mismatch on update");
  }
  if (existing->sequence() != note.sequence()) {
    // The caller's copy is stale: a local "save conflict" in Notes terms.
    return Status::Conflict(
        StrPrintf("note %u was updated concurrently (seq %u vs %u)",
                  note.id(), existing->sequence(), note.sequence()));
  }
  note.BumpSequence(StampTime());
  note.StampItemModifications(existing.get(), note.sequence_time());
  return CommitNote(&note);
}

Status Database::DeleteLocked(NoteId id) {
  NoteHandle existing = store_->Find(id);
  if (existing == nullptr || existing->deleted()) {
    return Status::NotFound(StrPrintf("note %u", id));
  }
  Note stub = *existing;
  stub.MakeStub(StampTime());
  return CommitNote(&stub);
}

Status Database::CommitNote(Note* note) {
  note->set_modified_in_file(StampTime());
  RecordPreImage(note->id());
  DOMINO_RETURN_IF_ERROR(store_->Put(note));
  return AfterChange(*note);
}

Result<Note> Database::ReadNote(NoteId id) const {
  ReadTxn txn(this, /*catch_up=*/false);
  NoteHandle note = ResolveAt(id, txn.epoch());
  if (note == nullptr || note->deleted()) {
    return Status::NotFound(StrPrintf("note %u", id));
  }
  return *note;
}

Result<Note> Database::ReadNoteByUnid(const Unid& unid) const {
  ReadTxn txn(this, /*catch_up=*/false);
  NoteHandle note = ResolveUnidAt(unid, txn.epoch());
  if (note == nullptr || note->deleted()) {
    return Status::NotFound("unid " + unid.ToString());
  }
  return *note;
}

Result<NoteId> Database::CreateNoteAs(const Principal& who, Note note) {
  MutationGuard guard(this);
  const Acl acl_snapshot = acl();
  if (note.note_class() == NoteClass::kDocument) {
    if (!CanCreateDocuments(acl_snapshot, who)) {
      return Status::PermissionDenied(who.name + " may not create documents");
    }
  } else if (!CanChangeDesign(acl_snapshot, who)) {
    return Status::PermissionDenied(who.name + " may not change design");
  }
  note.SetText("$UpdatedBy", who.name);
  return CreateLocked(std::move(note));
}

Status Database::UpdateNoteAs(const Principal& who, Note note) {
  MutationGuard guard(this);
  NoteHandle existing = store_->Find(note.id());
  if (existing == nullptr || existing->deleted()) {
    return Status::NotFound(StrPrintf("note %u", note.id()));
  }
  const Acl acl_snapshot = acl();
  if (existing->note_class() == NoteClass::kDocument) {
    if (!CanEditDocument(acl_snapshot, who, *existing)) {
      return Status::PermissionDenied(who.name + " may not edit this note");
    }
  } else if (!CanChangeDesign(acl_snapshot, who)) {
    return Status::PermissionDenied(who.name + " may not change design");
  }
  note.SetText("$UpdatedBy", who.name);
  return UpdateLocked(std::move(note));
}

Status Database::DeleteNoteAs(const Principal& who, NoteId id) {
  MutationGuard guard(this);
  NoteHandle existing = store_->Find(id);
  if (existing == nullptr || existing->deleted()) {
    return Status::NotFound(StrPrintf("note %u", id));
  }
  const Acl acl_snapshot = acl();
  if (existing->note_class() == NoteClass::kDocument) {
    if (!CanEditDocument(acl_snapshot, who, *existing)) {
      return Status::PermissionDenied(who.name + " may not delete this note");
    }
  } else if (!CanChangeDesign(acl_snapshot, who)) {
    return Status::PermissionDenied(who.name + " may not change design");
  }
  return DeleteLocked(id);
}

Result<Note> Database::ReadNoteAs(const Principal& who, NoteId id) const {
  ReadTxn txn(this, /*catch_up=*/false);
  DOMINO_ASSIGN_OR_RETURN(Note note, ReadNote(id));
  if (!CanReadDocument(acl(), who, note)) {
    return Status::PermissionDenied(who.name + " may not read this note");
  }
  return note;
}

Result<NoteId> Database::CreateResponse(const Unid& parent, Note note) {
  MutationGuard guard(this);
  NoteHandle parent_note = store_->FindByUnid(parent);
  if (parent_note == nullptr || parent_note->deleted()) {
    return Status::NotFound("parent " + parent.ToString());
  }
  note.set_parent_unid(parent);
  return CreateLocked(std::move(note));
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

Result<ViewIndex*> Database::CreateView(ViewDesign design) {
  MutationGuard guard(this);
  std::string key = ToLower(design.name());
  NoteId existing = kInvalidNoteId;
  {
    MutexLock lock(&catalog_mu_);
    auto it = view_note_ids_.find(key);
    if (it != view_note_ids_.end()) existing = it->second;
  }
  DOMINO_RETURN_IF_ERROR(SaveDesignNote(design.ToNote(), existing));
  return FindViewShared(key).get();
}

ViewIndex* Database::FindView(std::string_view name) {
  // ReadTxn catches up on deferred index events, so the view callers get
  // reflects every committed write.
  ReadTxn txn(this);
  return FindViewShared(name).get();
}

const ViewIndex* Database::FindView(std::string_view name) const {
  ReadTxn txn(this);
  return FindViewShared(name).get();
}

std::vector<std::string> Database::ViewNames() const {
  std::vector<std::string> names;
  for (const auto& view : SnapshotViews()) {
    names.push_back(view->design().name());
  }
  return names;
}

Status Database::TraverseViewAs(
    const Principal& who, std::string_view view_name,
    const std::function<void(const ViewRow&)>& visit) const {
  ReadTxn txn(this);  // pins a snapshot; catches up deferred index events
  // Resolve the principal's level and roles once for the whole pass;
  // re-resolving per row is pure overhead (the E8 hot path).
  const AccessContext access = ResolveAccess(acl(), who);
  if (access.level < AccessLevel::kReader) {
    return Status::PermissionDenied(who.name + " lacks Reader access");
  }
  std::shared_ptr<ViewIndex> view = FindViewShared(view_name);
  if (view == nullptr) {
    return Status::NotFound("view " + std::string(view_name));
  }
  // Collect the rows a reader may see, pruning as they stream past: a
  // document row is dropped when unreadable, and a category row is held
  // on a stack of pending headers until a readable document below it
  // keeps it, or a header at its depth or shallower (or the end of the
  // walk) discards it. Each entry carries its document's reader names as
  // of the entry's version, so the check never opens a note, and an entry
  // visible at the pin is a live note at the pin. The verdict is memoized
  // per interned reader set: a pass costs one name match per distinct
  // set, and unrestricted rows cost none.
  //
  // `visit` runs only after TraverseAt returns: the walk holds the view's
  // lock shared, and a visitor may wait on a writer that needs it.
  std::vector<ViewRow> rows;
  rows.reserve(view->size());  // documents; category rows may grow it once
  std::vector<ViewRow> pending;
  std::vector<int8_t> verdicts;  // by set id: 0 unknown, 1 read, -1 not
  view->TraverseAt(txn.epoch(), [&](const ViewRow& row) {
    if (row.kind == ViewRow::Kind::kCategory) {
      while (!pending.empty() && pending.back().indent >= row.indent) {
        pending.pop_back();
      }
      pending.push_back(row);
      return;
    }
    if (row.reader_names != nullptr) {
      const ReaderSetId id = row.entry->reader_set;
      if (id >= verdicts.size()) verdicts.resize(id + 1, 0);
      if (verdicts[id] == 0) {
        verdicts[id] = CanReadWithNames(access, who, *row.reader_names) ? 1
                                                                        : -1;
      }
      if (verdicts[id] < 0) return;
    }
    for (ViewRow& header : pending) rows.push_back(std::move(header));
    pending.clear();
    rows.push_back(row);
  });
  for (const ViewRow& row : rows) visit(row);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Folders
// ---------------------------------------------------------------------------

namespace {

constexpr char kFolderForm[] = "$Folder";

bool IsFolder(const Note& note) {
  return note.note_class() == NoteClass::kDesign &&
         EqualsIgnoreCase(note.GetText("Form"), kFolderForm);
}

bool IsFolderNamed(const Note& note, const std::string& name) {
  return IsFolder(note) && EqualsIgnoreCase(note.GetText("$Title"), name);
}

std::vector<std::string> FolderRefs(const Note& folder) {
  const Value* refs = folder.FindValue("$FolderRefs");
  return refs != nullptr ? refs->texts() : std::vector<std::string>();
}

}  // namespace

Result<Note> Database::FindFolderLocked(const std::string& name) {
  std::optional<Note> found;
  store_->ForEach([&](const Note& note) {
    if (IsFolderNamed(note, name)) found = note;
  }, NoteStore::Visit::kLiveOnly);
  if (!found.has_value()) return Status::NotFound("folder " + name);
  return std::move(*found);
}

Result<NoteId> Database::CreateFolder(const std::string& name) {
  MutationGuard guard(this);
  if (FindFolderLocked(name).ok()) {
    return Status::AlreadyExists("folder " + name);
  }
  Note folder(NoteClass::kDesign);
  folder.SetText("Form", kFolderForm);
  folder.SetText("$Title", name);
  folder.SetTextList("$FolderRefs", {});
  return CreateLocked(std::move(folder));
}

Status Database::AddToFolder(const std::string& name, const Unid& unid) {
  MutationGuard guard(this);
  if (FindByUnid(unid) == nullptr) {
    return Status::NotFound("document " + unid.ToString());
  }
  DOMINO_ASSIGN_OR_RETURN(Note folder, FindFolderLocked(name));
  std::vector<std::string> list = FolderRefs(folder);
  std::string key = unid.ToString();
  for (const std::string& ref : list) {
    if (ref == key) return Status::Ok();  // already a member
  }
  list.push_back(key);
  folder.SetTextList("$FolderRefs", std::move(list));
  return UpdateLocked(std::move(folder));
}

Status Database::RemoveFromFolder(const std::string& name,
                                  const Unid& unid) {
  MutationGuard guard(this);
  DOMINO_ASSIGN_OR_RETURN(Note folder, FindFolderLocked(name));
  std::vector<std::string> list = FolderRefs(folder);
  auto it = std::find(list.begin(), list.end(), unid.ToString());
  if (it == list.end()) {
    return Status::NotFound("document not in folder " + name);
  }
  list.erase(it);
  folder.SetTextList("$FolderRefs", std::move(list));
  return UpdateLocked(std::move(folder));
}

Result<std::vector<Note>> Database::FolderContents(
    const std::string& name) const {
  ReadTxn txn(this, /*catch_up=*/false);
  std::optional<Note> folder;
  ForEachLiveNote([&](const Note& note) {
    if (IsFolderNamed(note, name)) folder = note;
  });
  if (!folder.has_value()) return Status::NotFound("folder " + name);
  std::vector<Note> out;
  for (const std::string& ref : FolderRefs(*folder)) {
    NoteHandle note = ResolveUnidAt(Unid::FromString(ref), txn.epoch());
    if (note != nullptr && !note->deleted()) out.push_back(*note);
  }
  return out;
}

std::vector<std::string> Database::FolderNames() const {
  std::vector<std::string> names;
  ForEachLiveNote([&](const Note& note) {
    if (IsFolder(note)) names.push_back(note.GetText("$Title"));
  });
  return names;
}

// ---------------------------------------------------------------------------
// Full-text
// ---------------------------------------------------------------------------

Status Database::EnsureFullTextIndex() {
  MutexLock lock(&mu_);  // exclude writers so the build misses nothing
  {
    MutexLock cat(&catalog_mu_);
    if (fulltext_ != nullptr) return Status::Ok();
  }
  auto ft = std::make_shared<FullTextIndex>(registry_);
  ft->BuildFrom([this](const std::function<void(const Note&)>& fn) {
    store_->ForEach(fn);
  });
  MutexLock cat(&catalog_mu_);
  fulltext_ = std::move(ft);
  return Status::Ok();
}

const FullTextIndex* Database::fulltext() const {
  return SnapshotFulltext().get();
}

Result<std::vector<Note>> Database::SearchAs(const Principal& who,
                                             std::string_view query) const {
  ReadTxn txn(this);  // pins a snapshot; catches up deferred index events
  std::shared_ptr<FullTextIndex> ft = SnapshotFulltext();
  if (ft == nullptr) {
    return Status::FailedPrecondition(
        "no full-text index; call EnsureFullTextIndex first");
  }
  const AccessContext access = ResolveAccess(acl(), who);
  // The index keeps every version a pinned reader can see, so its hits at
  // the pin are the answer, and each resolves to the version that was
  // scored (an index built after the pin is the exception: see
  // EnsureFullTextIndex).
  DOMINO_ASSIGN_OR_RETURN(auto hits, ft->Search(query, txn.epoch()));
  // Every hit's store state is read in one batch, then resolved through
  // the overlay: the store-before-overlay order of ResolveAt, per id.
  std::vector<NoteId> ids;
  ids.reserve(hits.size());
  for (const FtHit& hit : hits) ids.push_back(hit.note_id);
  std::vector<NoteHandle> current = store_->FindMany(ids);
  std::vector<Note> out;
  out.reserve(hits.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    NoteHandle note = VersionAt(ids[i], txn.epoch(), std::move(current[i]));
    if (note != nullptr && !note->deleted() &&
        CanReadDocument(access, who, *note)) {
      out.push_back(*note);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Formula search / services
// ---------------------------------------------------------------------------

Result<std::vector<Note>> Database::FormulaSearch(
    std::string_view selection) const {
  ReadTxn txn(this);  // the selection may @DbLookup into views
  DOMINO_ASSIGN_OR_RETURN(auto f, formula::Formula::Compile(selection));
  std::vector<Note> out;
  formula::EvalContext ctx;
  BindFormulaServices(&ctx);
  // One compiled program, one VM register file, every note visible at
  // the pinned snapshot.
  formula::BatchEvaluator eval(f);
  ScanAt(txn.epoch(), [&](const Note& note) {
    if (note.deleted() || note.note_class() != NoteClass::kDocument) return;
    ctx.note = &note;
    auto matched = eval.Matches(ctx);
    if (matched.ok() && *matched) out.push_back(note);
  });
  return out;
}

namespace {

/// Concatenates one column across view entries into a single list value,
/// preserving the column type when uniform and falling back to text.
Value ConcatColumn(const std::vector<const ViewEntry*>& entries,
                   size_t column_1based) {
  if (column_1based == 0) return Value::TextList({});
  size_t col = column_1based - 1;
  bool all_numbers = true;
  bool all_times = true;
  for (const ViewEntry* entry : entries) {
    if (col >= entry->column_values.size()) continue;
    const Value& v = entry->column_values[col];
    all_numbers = all_numbers && v.is_number();
    all_times = all_times && v.is_datetime();
  }
  if (all_numbers) {
    std::vector<double> out;
    for (const ViewEntry* entry : entries) {
      if (col >= entry->column_values.size()) continue;
      const auto& nums = entry->column_values[col].numbers();
      out.insert(out.end(), nums.begin(), nums.end());
    }
    return Value::NumberList(std::move(out));
  }
  if (all_times) {
    std::vector<Micros> out;
    for (const ViewEntry* entry : entries) {
      if (col >= entry->column_values.size()) continue;
      const auto& times = entry->column_values[col].times();
      out.insert(out.end(), times.begin(), times.end());
    }
    return Value::DateTimeList(std::move(out));
  }
  std::vector<std::string> out;
  for (const ViewEntry* entry : entries) {
    if (col >= entry->column_values.size()) continue;
    const Value& v = entry->column_values[col];
    for (size_t i = 0; i < v.size(); ++i) {
      out.push_back(v.is_text() ? v.texts()[i] : v.ToDisplayString());
    }
  }
  return Value::TextList(std::move(out));
}

}  // namespace

void Database::BindFormulaServices(formula::EvalContext* ctx) const {
  // Title, replica id and clock are immutable after Open — no lock. The
  // lookup hook pins per call: a fresh snapshot from pool or agent
  // threads, the caller's own pin when re-entered under FormulaSearch.
  ctx->clock = clock_;
  ctx->db_title = title();
  ctx->replica_id = replica_id().ToString();
  ctx->db_lookup = [this](const std::string& view_name,
                          const std::optional<Value>& key,
                          size_t column) -> Result<Value> {
    ReadTxn txn(this);
    std::shared_ptr<ViewIndex> view = FindViewShared(view_name);
    if (view == nullptr) {
      return Status::NotFound("@DbLookup/@DbColumn: no view " + view_name);
    }
    std::vector<const ViewEntry*> entries =
        key.has_value() ? view->FindByKeyAt(*key, txn.epoch())
                        : view->EntriesAt(txn.epoch());
    if (column == 0 || column > view->design().columns().size()) {
      return Status::InvalidArgument(
          "@DbLookup/@DbColumn: bad column index");
    }
    return ConcatColumn(entries, column);
  };
}

// ---------------------------------------------------------------------------
// Unread marks
// ---------------------------------------------------------------------------

void Database::MarkRead(const Principal& who, const Unid& unid) {
  MutexLock lock(&marks_mu_);
  read_marks_[ToLower(who.name)].insert(unid);
}

bool Database::IsUnread(const Principal& who, const Unid& unid) const {
  MutexLock lock(&marks_mu_);
  auto it = read_marks_.find(ToLower(who.name));
  if (it == read_marks_.end()) return true;
  return it->second.count(unid) == 0;
}

size_t Database::UnreadCount(const Principal& who) const {
  ReadTxn txn(this, /*catch_up=*/false);
  std::set<Unid> read;
  {
    MutexLock lock(&marks_mu_);
    auto it = read_marks_.find(ToLower(who.name));
    if (it != read_marks_.end()) read = it->second;
  }
  size_t unread = 0;
  ScanAt(txn.epoch(), [&](const Note& note) {
    if (!note.deleted() && note.note_class() == NoteClass::kDocument &&
        read.count(note.unid()) == 0) {
      ++unread;
    }
  });
  return unread;
}

// ---------------------------------------------------------------------------
// Replication support
// ---------------------------------------------------------------------------

std::vector<NoteHandle> Database::NotesModifiedSince(Micros cutoff) const {
  ReadTxn txn(this, /*catch_up=*/false);
  // Candidates: the store's modified-in-file index, then the overlay ids
  // (taken AFTER the index read, as in ScanAt). A note rewritten or purged
  // after the pin recorded its pre-image before touching the store, so it
  // is in one source or the other whatever its stamps are; resolving each
  // candidate at the pin and re-checking the stamp gives exactly the notes
  // a full scan at the pin would keep.
  std::vector<NoteId> ids = store_->IdsModifiedSince(cutoff);
  std::vector<NoteId> overlay = mvcc_.OverlayIds();
  ids.insert(ids.end(), overlay.begin(), overlay.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<NoteHandle> notes;
  notes.reserve(ids.size());
  for (NoteId id : ids) {
    NoteHandle note = ResolveAt(id, txn.epoch());
    if (note != nullptr && note->modified_in_file() > cutoff) {
      notes.push_back(std::move(note));
    }
  }
  std::sort(notes.begin(), notes.end(),
            [](const NoteHandle& a, const NoteHandle& b) {
              if (a->modified_in_file() != b->modified_in_file()) {
                return a->modified_in_file() < b->modified_in_file();
              }
              return a->unid() < b->unid();
            });
  return notes;
}

std::vector<Database::Change> Database::ChangeSummarySince(
    Micros cutoff) const {
  std::vector<Change> changes;
  for (const NoteHandle& note : NotesModifiedSince(cutoff)) {
    changes.push_back(Change{note->oid(), note->modified_in_file()});
  }
  return changes;
}

Result<Note> Database::GetAnyByUnid(const Unid& unid) const {
  ReadTxn txn(this, /*catch_up=*/false);
  NoteHandle note = ResolveUnidAt(unid, txn.epoch());
  if (note == nullptr) return Status::NotFound("unid " + unid.ToString());
  return *note;
}

Status Database::InstallRemoteNote(Note note) {
  MutationGuard guard(this);
  NoteHandle local = store_->FindByUnid(note.unid());
  note.set_id(local != nullptr ? local->id() : store_->AllocateId());
  return CommitNote(&note);
}

void Database::AttachReplicationHistory(const ReplicationHistory* history) {
  MutexLock lock(&catalog_mu_);
  repl_history_ = history;
}

Result<size_t> Database::PurgeStubs() {
  MutationGuard guard(this);
  // Logical "now": the clock when present. A clockless database ages
  // stubs against the newest stamp it has issued (never a negative
  // cutoff that silently purges nothing).
  const Micros now = clock_ != nullptr
                         ? clock_->Now()
                         : last_stamp_.load(std::memory_order_relaxed);
  // Deletion-resurrection guard: a stub some replication peer has not
  // yet pulled must survive the age cutoff — otherwise that peer's live
  // copy replicates back and the delete silently undoes. Databases with
  // no attached history (never replicate) purge by age alone.
  const ReplicationHistory* history;
  {
    MutexLock lock(&catalog_mu_);
    history = repl_history_;
  }
  const Micros seen_by_all_peers = history != nullptr
                                       ? history->MinSentCutoff()
                                       : std::numeric_limits<Micros>::max();
  DOMINO_ASSIGN_OR_RETURN(
      std::vector<NoteId> purged,
      store_->PurgeableStubs(now - store_->info().purge_interval,
                             seen_by_all_peers));
  for (NoteId id : purged) {
    // Pre-image first: readers pinned before this commit keep resolving
    // the stub (and its UNID) through the overlay until they unpin.
    RecordPreImage(id);
    DOMINO_RETURN_IF_ERROR(store_->Erase(id));
    {
      MutexLock lock(&catalog_mu_);
      for (auto& [parent, kids] : children_) kids.erase(id);
    }
    // The erase queues behind any still-pending kChanged for the same
    // note; removing from the indexes directly would let such a queued
    // update resurrect the purged note there.
    indexer_.Enqueue(indexer::NoteChange{id, indexer::ChangeKind::kErased,
                                         commit_epoch_, nullptr});
  }
  ctr_stubs_purged_->Add(purged.size());
  return purged.size();
}

// ---------------------------------------------------------------------------
// Observation / iteration
// ---------------------------------------------------------------------------

void Database::AddObserver(DatabaseObserver* observer) {
  MutexLock lock(&observers_mu_);
  observers_.push_back(observer);
}

void Database::RemoveObserver(DatabaseObserver* observer) {
  MutexLock lock(&observers_mu_);
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (*it == observer) {
      observers_.erase(it);
      return;
    }
  }
}

void Database::ForEachLiveNote(
    const std::function<void(const Note&)>& fn) const {
  ReadTxn txn(this, /*catch_up=*/false);
  ScanAt(
      txn.epoch(),
      [&](const Note& note) {
        if (!note.deleted()) fn(note);
      },
      NoteStore::Visit::kLiveOnly);
}

void Database::ForEachNote(const std::function<void(const Note&)>& fn) const {
  ReadTxn txn(this, /*catch_up=*/false);
  ScanAt(txn.epoch(), fn);
}

size_t Database::note_count() const { return store_->note_count(); }

size_t Database::stub_count() const { return store_->stub_count(); }

StoreStats Database::store_stats() const { return store_->stats(); }

Status Database::Checkpoint() {
  MutexLock lock(&mu_);
  return store_->Checkpoint();
}

Status Database::RunCompact() {
  // Each slice holds the write lock only while it copies a handful of
  // pages; other writers interleave between slices, and readers never
  // block at all (they resolve through the store's own page locks and
  // the overlay). This is the online COMPACT of the paper (§ compaction)
  // rather than the offline copy-style one.
  for (;;) {
    MutexLock lock(&mu_);
    DOMINO_ASSIGN_OR_RETURN(size_t reclaimed, store_->CompactStep(8));
    if (reclaimed == 0) break;
  }
  MutexLock lock(&mu_);
  return store_->Checkpoint();
}

// ---------------------------------------------------------------------------
// NoteResolver (latest-state reads for index maintenance)
// ---------------------------------------------------------------------------

NoteHandle Database::FindByUnid(const Unid& unid) const {
  NoteHandle note = store_->FindByUnid(unid);
  return (note != nullptr && !note->deleted()) ? note : nullptr;
}

NoteHandle Database::FindById(NoteId id) const {
  NoteHandle note = store_->Find(id);
  return (note != nullptr && !note->deleted()) ? note : nullptr;
}

NoteHandle Database::FindByIdAt(NoteId id, Epoch at) const {
  if (at == kEpochNone) return FindById(id);
  NoteHandle note = ResolveAt(id, at);
  return (note != nullptr && !note->deleted()) ? note : nullptr;
}

std::vector<NoteId> Database::ChildrenOf(const Unid& parent) const {
  MutexLock lock(&catalog_mu_);
  auto it = children_.find(parent);
  if (it == children_.end()) return {};
  return std::vector<NoteId>(it->second.begin(), it->second.end());
}

// ---------------------------------------------------------------------------
// Design application / post-commit bookkeeping
// ---------------------------------------------------------------------------

Status Database::ApplyDesignNote(const Note& note) {
  if (note.note_class() == NoteClass::kAcl) {
    DOMINO_ASSIGN_OR_RETURN(Acl acl, Acl::FromNote(note));
    MutexLock lock(&acl_mu_);
    acl_ = std::move(acl);
    acl_note_id_ = note.id();
    return Status::Ok();
  }
  if (note.note_class() == NoteClass::kView) {
    DOMINO_ASSIGN_OR_RETURN(ViewDesign design, ViewDesign::FromNote(note));
    std::string key = ToLower(design.name());
    auto index =
        std::make_shared<ViewIndex>(std::move(design), clock_, registry_);
    DOMINO_RETURN_IF_ERROR(index->Rebuild(
        [this](const std::function<void(const Note&)>& fn) {
          store_->ForEach(fn);
        },
        this));
    // Swap in only after the rebuild: readers holding the old index via
    // its shared_ptr keep traversing it; new readers get the new one. A
    // design change is not snapshot-isolated (matching Domino, where a
    // view refresh is immediately visible), but it is never torn.
    MutexLock lock(&catalog_mu_);
    views_[key] = std::move(index);
    view_note_ids_[key] = note.id();
    return Status::Ok();
  }
  return Status::Ok();
}

Status Database::AfterChange(const Note& note) {
  // Response-children index.
  if (!note.parent_unid().IsNull()) {
    MutexLock lock(&catalog_mu_);
    if (note.deleted()) {
      children_[note.parent_unid()].erase(note.id());
    } else {
      children_[note.parent_unid()].insert(note.id());
    }
  }
  // Design changes take effect immediately — including ones that arrive
  // via replication (a central point of the Notes architecture).
  if (note.note_class() == NoteClass::kAcl ||
      note.note_class() == NoteClass::kView) {
    if (note.deleted()) {
      if (note.note_class() == NoteClass::kView) {
        MutexLock lock(&catalog_mu_);
        for (auto it = view_note_ids_.begin(); it != view_note_ids_.end();
             ++it) {
          if (it->second == note.id()) {
            views_.erase(it->first);
            view_note_ids_.erase(it);
            break;
          }
        }
      }
    } else {
      DOMINO_RETURN_IF_ERROR(ApplyDesignNote(note));
    }
  }
  // Documents go through the update queue as an event carrying the
  // commit epoch and the note state it produced. With a pool the writer
  // returns once it is queued and a worker (or a reader catching up to
  // its pin) applies it; with none, Enqueue applies it here. Design notes
  // were handled above.
  if (note.note_class() == NoteClass::kDocument) {
    indexer_.Enqueue(indexer::NoteChange{note.id(),
                                         indexer::ChangeKind::kChanged,
                                         commit_epoch_,
                                         std::make_shared<Note>(note)});
  }
  return Status::Ok();
}

}  // namespace dominodb
