#ifndef DOMINODB_VIEW_VIEW_INDEX_H_
#define DOMINODB_VIEW_VIEW_INDEX_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "base/clock.h"
#include "base/epoch.h"
#include "base/result.h"
#include "base/shared_mutex.h"
#include "base/thread_annotations.h"
#include "model/collation.h"
#include "model/note.h"
#include "stats/stats.h"
#include "view/view_design.h"

namespace dominodb {

/// Lookup services a view index needs from its database. The Database
/// facade implements this over the note store plus a response-children
/// index.
///
/// Rebuild calls it only from the rebuilding thread, once `for_each_note`
/// has returned; every caller that mutates notes must be excluded for the
/// duration of the rebuild (the Database facade guarantees this by
/// holding its write lock across Rebuild).
class NoteResolver {
 public:
  virtual ~NoteResolver() = default;
  /// Live note by UNID (null when absent or a deletion stub). Handles
  /// own their note — the paged store evicts and compacts pages under
  /// the shared lock, so borrowed pointers into storage would dangle.
  virtual NoteHandle FindByUnid(const Unid& unid) const = 0;
  /// Live note by id (null when absent or a deletion stub).
  virtual NoteHandle FindById(NoteId id) const = 0;
  /// Live note by id as of commit `at` (kEpochNone: latest). A deferred
  /// index event re-evaluates the changed note's responses through this,
  /// so they are indexed as they were at the event's epoch even when the
  /// store already holds a later commit.
  virtual NoteHandle FindByIdAt(NoteId id, Epoch at) const {
    (void)at;
    return FindById(id);
  }
  /// Note ids of direct responses of `parent`.
  virtual std::vector<NoteId> ChildrenOf(const Unid& parent) const = 0;
};

/// Id of a reader/author name set interned by a ViewIndex (see
/// ReaderNamesOf in security/acl.h). Ids are small and dense within one
/// index; kUnrestricted marks a document without reader names.
using ReaderSetId = uint32_t;
constexpr ReaderSetId kUnrestricted = 0;

/// One indexed document in a view. An entry is one *version* of a note's
/// row: visible to snapshot readers pinned in [added_epoch, removed_epoch)
/// (see EpochVisible). Unversioned standalone use leaves the defaults —
/// added kEpochNone (always visible), removed kEpochMax (never removed).
struct ViewEntry {
  NoteId note_id = kInvalidNoteId;
  Unid unid;
  Unid parent_unid;
  bool is_response = false;
  Micros created = 0;
  Epoch added_epoch = kEpochNone;
  Epoch removed_epoch = kEpochMax;
  /// The document's reader names as of this version, interned by the
  /// owning index, so an ACL-checked read never opens the note.
  ReaderSetId reader_set = kUnrestricted;
  std::vector<Value> column_values;

  /// Display text of column `i` ("" when out of range).
  std::string ColumnText(size_t i) const {
    return i < column_values.size() ? column_values[i].ToDisplayString()
                                    : std::string();
  }

  /// Allocation-free ColumnText for hot paths: returns a view into the
  /// stored value when column `i` is a single text item (the common
  /// case), otherwise formats into `*scratch` and returns a view of it.
  /// The view is invalidated by the next call sharing `scratch` or by
  /// mutating the entry.
  std::string_view ColumnTextView(size_t i, std::string* scratch) const {
    if (i >= column_values.size()) return std::string_view();
    const Value& v = column_values[i];
    if (v.is_text() && v.texts().size() == 1) return v.texts()[0];
    *scratch = v.ToDisplayString();
    return *scratch;
  }
};

/// A row produced by Traverse(): either a category header or a document.
struct ViewRow {
  enum class Kind { kCategory, kDocument };
  Kind kind = Kind::kDocument;
  int indent = 0;                  // category depth + response depth
  std::string category;            // kCategory only
  size_t descendant_count = 0;     // kCategory only: documents beneath
  const ViewEntry* entry = nullptr;  // kDocument only
  /// kDocument only: the names of entry->reader_set, null when
  /// unrestricted. Valid as long as `entry` is.
  const std::vector<std::string>* reader_names = nullptr;
};

struct ViewStats {
  uint64_t selection_evals = 0;
  uint64_t column_evals = 0;
  uint64_t formula_errors = 0;
  uint64_t inserts = 0;
  uint64_t removes = 0;
  uint64_t rebuilds = 0;
};

/// The incrementally-maintained view collection: an ordered container of
/// entries keyed by collation keys built from the sorted columns. This is
/// the reproduction of the Notes view index; the paper's claim that views
/// update incrementally (only touched documents are re-evaluated) is
/// exactly ViewIndex::Update.
///
/// Response hierarchy: when the design shows responses, response documents
/// nest under their parent entry ordered by creation time; orphans appear
/// at top level. `SELECT ... | @AllChildren/@AllDescendants` includes
/// responses whose (an)cestor matches the selection.
///
/// MVCC: mutators carry the commit epoch of the change. Instead of
/// physically erasing the superseded row, Update/Remove stamp its
/// removed_epoch and keep it as a "zombie" so snapshot readers pinned
/// before the commit still traverse it; the replacement row carries the
/// commit epoch as its added_epoch. Read paths take an `at` epoch (the
/// plain overloads read the latest state) and filter by EpochVisible.
/// ReclaimVersions(floor) physically drops zombies no pinned reader can
/// need. Passing kEpochNone (the default) to a mutator keeps the old
/// unversioned behavior — immediate physical removal.
///
/// Threading: an internal reader/writer lock guards the containers.
/// Mutators hold it exclusive only around structural steps — formula
/// evaluation runs unlocked (the owning Database serializes writers, and
/// a formula that re-enters a view read, e.g. @DbLookup in a column
/// formula, must not deadlock against our own exclusive hold). Read
/// paths hold it shared for the whole call, including visit callbacks;
/// callbacks must not mutate this view. Returned ViewEntry pointers stay
/// valid while the caller's epoch is pinned: node-based maps never move
/// surviving entries, and reclamation only drops versions below the
/// oldest pin. Standalone single-threaded use needs no external locking.
///
/// Reader sets: evaluation also collects each document's reader names
/// (ReaderNamesOf) and the index interns them, one copy per distinct set,
/// referenced by ViewEntry::reader_set. A set lives while any physical
/// entry, zombies included, carries it.
class ViewIndex {
 public:
  /// `stats` (nullable → the global registry) receives the server-wide
  /// `Database.View.*` counters alongside the per-index ViewStats.
  ViewIndex(ViewDesign design, const Clock* clock,
            stats::StatRegistry* stats = nullptr);
  ~ViewIndex();

  const ViewDesign& design() const { return design_; }

  /// Re-evaluates a single changed note (and, when response semantics are
  /// in play, its known descendants). Deletion stubs remove the entry.
  /// `epoch`: commit epoch of the change (kEpochNone = unversioned).
  Status Update(const Note& note, const NoteResolver* resolver,
                Epoch epoch = kEpochNone);

  /// Removes a note by id (physical purge path).
  /// `epoch`: commit epoch of the purge (kEpochNone = unversioned).
  void Remove(NoteId id, Epoch epoch = kEpochNone);

  /// Physically erases every zombie version with removed_epoch <= floor
  /// (min over pinned reader epochs, else the committed epoch); takes no
  /// lock when there is none.
  void ReclaimVersions(Epoch floor);

  /// Zombie versions currently retained for pinned readers.
  size_t zombie_count() const {
    return zombie_total_.load(std::memory_order_acquire);
  }

  /// Distinct reader sets currently interned (zombies' sets included).
  size_t reader_set_count() const;

  /// Drops everything and re-indexes the whole database (the UPDALL
  /// rebuild). `for_each_note` must invoke its callback once per note.
  /// Used on view creation and by the E2 rebuild-vs-incremental
  /// experiment. Notes are evaluated on the calling thread, parents
  /// before their responses (ordered by response depth, then arrival), so
  /// the result is the one incremental Update would reach.
  ///
  /// Rebuild resets ALL versions — a rebuild is a design change, and
  /// design changes are not snapshot-isolated (the Database swaps in a
  /// freshly built index instead; pinned readers keep the old one via
  /// shared ownership). Rebuilt entries are visible at every epoch.
  Status Rebuild(
      const std::function<void(const std::function<void(const Note&)>&)>&
          for_each_note,
      const NoteResolver* resolver);

  void Clear();

  /// Latest live entry count (zombie versions excluded).
  size_t size() const;

  /// Top-level entries in collation order (responses excluded when the
  /// hierarchy is shown), as visible at snapshot `at`.
  std::vector<const ViewEntry*> EntriesAt(Epoch at) const;
  std::vector<const ViewEntry*> Entries() const {
    return EntriesAt(kEpochLatest);
  }

  /// Full traversal with category rows and response indenting, as
  /// visible at snapshot `at`.
  void TraverseAt(Epoch at,
                  const std::function<void(const ViewRow&)>& visit) const;
  void Traverse(const std::function<void(const ViewRow&)>& visit) const {
    TraverseAt(kEpochLatest, visit);
  }

  /// Entries whose first sorted column equals `key`, visible at `at`.
  std::vector<const ViewEntry*> FindByKeyAt(const Value& key,
                                            Epoch at) const;
  std::vector<const ViewEntry*> FindByKey(const Value& key) const {
    return FindByKeyAt(key, kEpochLatest);
  }

  ViewStats stats() const;

 private:
  struct RowKey {
    std::string collation_key;
    NoteId id = kInvalidNoteId;
    // Version tie-break: two versions of one note may share the same
    // collation key (an update that left sorted columns untouched), so
    // the added epoch keeps them as distinct rows.
    Epoch added = kEpochNone;

    bool operator<(const RowKey& other) const {
      if (int c = collation_key.compare(other.collation_key); c != 0) {
        return c < 0;
      }
      if (id != other.id) return id < other.id;
      return added < other.added;
    }
  };

  // Responses sort by (created, id) under their parent; the added epoch
  // again disambiguates coexisting versions.
  using ResponseKey = std::tuple<Micros, NoteId, Epoch>;

  struct Location {
    bool is_response_row = false;
    RowKey main_key;       // when !is_response_row
    Unid parent;           // when is_response_row
    ResponseKey resp_key;  // when is_response_row
  };

  /// A version stamped out by commit `removed`, retained until no pinned
  /// reader can need it. The deque is in non-decreasing `removed` order
  /// (commits are serialized), so reclamation pops from the front.
  struct Zombie {
    Epoch removed = kEpochNone;
    Location loc;
  };

  /// An evaluated row before placement: placement interns
  /// `reader_names` into entry.reader_set.
  struct EvaluatedEntry {
    ViewEntry entry;
    std::vector<std::string> reader_names;  // ReaderNamesOf(note)
  };

  /// One interned reader set; its names are the map key.
  using ReaderSetMap = std::map<std::vector<std::string>, ReaderSetId>;
  struct ReaderSet {
    ReaderSetMap::iterator it;
    size_t refs = 0;  // physical entries (zombies included) carrying it
  };

  /// Evaluates selection and columns; nullopt = not selected. Adds the
  /// evaluation counts to the per-index stats and server-wide mirrors.
  /// Runs with no lock held (see class comment).
  std::optional<EvaluatedEntry> EvaluateNote(const Note& note,
                                             const NoteResolver* resolver);
  /// The selection formula, or (SELECT ... | @AllChildren/@AllDescendants)
  /// a matching ancestor, selects `note`; tallies evaluations into `tally`.
  bool Selects(const Note& note, const NoteResolver* resolver,
               ViewStats* tally);
  RowKey BuildKey(const ViewEntry& entry) const;
  /// Inserts an evaluated entry (response placement or main row) and
  /// records its location. Parents must already be placed for response
  /// nesting to engage.
  void PlaceEntryLocked(EvaluatedEntry eval, const NoteResolver* resolver)
      REQUIRES(mu_);
  /// Returns the id of `names` (kUnrestricted when empty), interning it on
  /// first use, and counts one more entry carrying it.
  ReaderSetId AcquireReaderSetLocked(std::vector<std::string> names)
      REQUIRES(mu_);
  /// Counts one entry fewer carrying `id`; frees the set with the last.
  void ReleaseReaderSetLocked(ReaderSetId id) REQUIRES(mu_);
  const std::vector<std::string>* ReaderNamesLocked(ReaderSetId id) const
      REQUIRES_SHARED(mu_);
  /// Versioned (epoch != kEpochNone): stamps the current row's
  /// removed_epoch and queues it as a zombie. Unversioned, or a row added
  /// in `epoch` itself (visible to no snapshot): erases it.
  void RemoveLocationLocked(NoteId id, Epoch epoch) REQUIRES(mu_);
  /// Physically erases the entry at `loc` from rows_/responses_ and
  /// releases its reader set.
  void ErasePhysicalLocked(const Location& loc) REQUIRES(mu_);
  ViewEntry* EntryAtLocked(const Location& loc) REQUIRES(mu_);
  void ClearLocked() REQUIRES(mu_);
  std::vector<const ViewEntry*> EntriesLocked(Epoch at) const
      REQUIRES_SHARED(mu_);
  /// Documents under `entry` (itself included) visible at `at`.
  size_t CountOfLocked(const ViewEntry& entry, Epoch at) const
      REQUIRES_SHARED(mu_);
  Status UpdateOne(const Note& note, const NoteResolver* resolver,
                   int depth, Epoch epoch);
  void EmitEntryAndResponses(const ViewEntry& entry, int indent, Epoch at,
                             const std::function<void(const ViewRow&)>& visit)
      const REQUIRES_SHARED(mu_);

  ViewDesign design_;
  const Clock* clock_;
  std::vector<bool> descending_;  // per sorted column, aligned to key build
  std::vector<size_t> category_columns_;  // categorized columns, in order
  bool needs_response_walk_ = false;
  // The selection and each column formula paired with a
  // formula::BatchEvaluator, so the VM's register file is reused across
  // every note instead of being set up per note. NOT guarded by mu_:
  // evaluation runs unlocked, relying on the owning Database serializing
  // all mutators (standalone use is single-threaded).
  formula::BatchEvaluator select_eval_;
  // Aligned with design_.columns(); nullopt for formula-less columns.
  std::vector<std::optional<formula::BatchEvaluator>> column_evals_;

  /// Guards the index containers (see class comment for the discipline).
  mutable SharedMutex mu_;

  std::map<RowKey, ViewEntry> rows_ GUARDED_BY(mu_);
  std::map<Unid, std::map<ResponseKey, ViewEntry>> responses_
      GUARDED_BY(mu_);
  std::unordered_map<NoteId, Location> row_of_note_ GUARDED_BY(mu_);
  std::deque<Zombie> zombies_ GUARDED_BY(mu_);
  std::atomic<size_t> zombie_total_{0};  // zombies_.size(), read unlocked
  ReaderSetMap reader_set_ids_ GUARDED_BY(mu_);
  // Slot id - 1 holds set `id`; freed ids are reused so ids stay dense.
  std::vector<ReaderSet> reader_sets_ GUARDED_BY(mu_);
  std::vector<ReaderSetId> free_reader_set_ids_ GUARDED_BY(mu_);
  /// Guards the ViewStats tallies (bumped from unlocked eval phases).
  mutable Mutex stats_mu_;
  ViewStats stats_ GUARDED_BY(stats_mu_);

  // Server-wide mirrors of ViewStats (dotted Domino stat names).
  stats::Counter* ctr_selection_evals_;
  stats::Counter* ctr_column_evals_;
  stats::Counter* ctr_formula_errors_;
  stats::Counter* ctr_inserts_;
  stats::Counter* ctr_removes_;
  stats::Counter* ctr_updates_;
  stats::Counter* ctr_rebuilds_;
  stats::Histogram* hist_rebuild_micros_;
  stats::Gauge* gauge_reader_sets_;
};

}  // namespace dominodb

#endif  // DOMINODB_VIEW_VIEW_INDEX_H_
