#ifndef DOMINODB_FULLTEXT_FULLTEXT_INDEX_H_
#define DOMINODB_FULLTEXT_FULLTEXT_INDEX_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/epoch.h"
#include "base/result.h"
#include "base/shared_mutex.h"
#include "base/thread_annotations.h"
#include "fulltext/postings.h"
#include "model/note.h"
#include "stats/stats.h"

namespace dominodb {

/// A scored full-text hit.
struct FtHit {
  NoteId note_id = kInvalidNoteId;
  double score = 0;
};

/// Per-database inverted index over text and rich-text items, maintained
/// incrementally as documents change (the GTR-engine substitute). The
/// query language supports terms, "phrases", AND/OR/NOT, parentheses and
/// `FIELD name CONTAINS term`.
///
/// MVCC, by the ViewIndex rule: each indexed version of a note is its own
/// document under its own posting key, visible in [added, removed) (see
/// EpochVisible). A mutator carrying a commit epoch keeps the version it
/// replaces as a "zombie" for readers pinned before the commit, until
/// ReclaimVersions drops it. It goes at once, and its key is reused, when
/// no reader can see it: under kEpochNone (standalone use), when added in
/// the same epoch, or when the epoch is at or below the reclaim floor.
/// Zombies count in idf, so scores may drift while they live; single-term
/// rankings cannot (every hit shares the idf).
///
/// Threading: an internal reader/writer lock is taken at the public entry
/// points — maintenance (IndexNote/RemoveNote/Clear/BuildFrom) exclusive,
/// Search shared for its whole run. The evaluator-internals section below
/// (FindTerm, MaterializeFieldTerm, all_docs, IdfOf) is deliberately
/// lock-free: those are called from inside Search's query evaluation,
/// which already holds the shared lock, and re-acquiring a shared lock on
/// the same thread is undefined. External callers of the internals must
/// not race them with mutators. Standalone use needs no extra locking.
class FullTextIndex {
 public:
  /// `stats` (nullable → the global registry) receives the server-wide
  /// `Database.FullText.*` counters.
  explicit FullTextIndex(stats::StatRegistry* stats = nullptr);

  /// Adds or re-indexes a note (deletion stubs are removed). Only
  /// kDocument notes are indexed. `epoch`: the change's commit epoch.
  void IndexNote(const Note& note, Epoch epoch = kEpochNone);
  void RemoveNote(NoteId id, Epoch epoch = kEpochNone);
  void Clear();

  /// Drops every zombie removed at or below `floor` (min pinned epoch,
  /// else the committed epoch); takes no lock when there is none.
  void ReclaimVersions(Epoch floor);
  size_t zombie_count() const { return zombie_total_.load(); }

  /// Full rebuild (UPDALL-style): drops everything, then indexes every
  /// note `for_each_note` passes to its callback, as IndexNote would, all
  /// under one exclusive hold. Notes are consumed as they stream past, so
  /// the caller can feed them straight from its store. The build is
  /// visible at every epoch.
  void BuildFrom(
      const std::function<void(const std::function<void(const Note&)>&)>&
          for_each_note);

  /// Runs a query over the versions visible at `at`; results are sorted
  /// by descending TF-IDF score, then note id.
  Result<std::vector<FtHit>> Search(std::string_view query,
                                    Epoch at = kEpochLatest) const;

  size_t doc_count() const;  // live notes; zombies excluded
  size_t term_count() const;

  /// Actual posting storage footprint in bytes (delta+varint blocks plus
  /// skip entries), and what the pre-compression representation (a map
  /// node + positions vector per doc per term) would cost. The ratio is
  /// the several-fold reduction E5 reports; `Ft.Index.BytesPerDoc`
  /// publishes ByteUsage()/doc_count as a gauge.
  size_t ByteUsage() const;
  size_t UncompressedModelBytes() const;

  // -- Internals shared with the query evaluator ------------------------
  using DocKey = uint32_t;  // posting key of one indexed version
  /// One indexed version and the keys it contributed to, each once: its
  /// plain terms (keys of the term postings) and its "field\x1fterm" keys
  /// (keys of the field postings). Both point at the index's own key
  /// strings, which stay put while any version refers to them.
  /// A free slot has no note and is visible at no epoch.
  struct Doc {
    NoteId note_id = kInvalidNoteId;
    Epoch added = kEpochNone;
    Epoch removed = kEpochMax;
    std::vector<const std::string*> terms;
    std::vector<const std::string*> field_keys;
  };
  using DocTable = std::vector<Doc>;  // indexed by DocKey

  struct Posting {
    // Positions of the term in the document (token offsets; fields are
    // separated by position gaps so phrases never span fields).
    std::vector<uint32_t> positions;
  };
  using PostingMap = std::map<DocKey, Posting>;

  /// Field-scoped occurrences are stored as index ranges into the
  /// unscoped posting's positions vector instead of duplicating the
  /// positions: a term's occurrences within one field are contiguous in
  /// the (sorted, append-only) positions vector, so [begin, end) slices
  /// recover them exactly.
  struct FieldSlice {
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  /// One field key's postings: (doc, slice) pairs sorted by doc. Multiple
  /// same-named items yield one pair per item, adjacent and in item order.
  using FieldPostings = std::vector<std::pair<DocKey, FieldSlice>>;

  /// The term's compressed posting list; null when the term is unknown.
  /// Query evaluation iterates it with PostingList::Cursor.
  const PostingList* FindTerm(const std::string& term) const;
  /// Reconstitutes a `FIELD name CONTAINS term` posting map from the
  /// slices; empty when the (field, term) pair never occurs.
  PostingMap MaterializeFieldTerm(const std::string& field,
                                  const std::string& term) const;
  /// Every version, zombies and free slots included.
  const DocTable& all_docs() const { return docs_; }
  double IdfOf(const std::string& term) const;

 private:
  void IndexNoteLocked(const Note& note, Epoch epoch) REQUIRES(mu_);
  void RemoveNoteLocked(NoteId id, Epoch epoch) REQUIRES(mu_);
  void ErasePhysicalLocked(DocKey key) REQUIRES(mu_);
  void ClearLocked() REQUIRES(mu_);
  void RefreshByteStats() REQUIRES(mu_);

  /// Guards the containers below. The fields themselves stay unannotated
  /// so the lock-free evaluator internals (see class comment) compile;
  /// the REQUIRES on the Locked helpers still pins the write discipline.
  mutable SharedMutex mu_;

  // term → compressed postings. Field-scoped slices live under
  // "field\x1f" + term in field_postings_ and reference positions stored
  // here exactly once.
  std::unordered_map<std::string, PostingList> postings_;
  std::unordered_map<std::string, FieldPostings> field_postings_;
  DocTable docs_;
  std::unordered_map<NoteId, DocKey> live_;  // each note's latest version
  std::vector<DocKey> free_keys_;
  std::deque<DocKey> zombies_;  // in commit order of their removal
  std::atomic<size_t> zombie_total_{0};  // zombies_.size(), read unlocked
  // Highest floor ReclaimVersions was given: no pin is, or will be, below.
  std::atomic<Epoch> reclaimed_floor_{kEpochNone};
  size_t posting_bytes_ = 0;  // sum of PostingList::byte_size()
  size_t model_bytes_ = 0;    // sum of UncompressedModelBytes()

  // Server-wide counters (dotted Domino stat names).
  stats::Counter* ctr_docs_indexed_;
  stats::Counter* ctr_docs_removed_;
  stats::Counter* ctr_merges_;
  stats::Counter* ctr_tokens_;
  stats::Counter* ctr_queries_;
  stats::Counter* ctr_ooo_inserts_;
  stats::Gauge* gauge_bytes_per_doc_;
};

}  // namespace dominodb

#endif  // DOMINODB_FULLTEXT_FULLTEXT_INDEX_H_
