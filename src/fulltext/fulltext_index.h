#ifndef DOMINODB_FULLTEXT_FULLTEXT_INDEX_H_
#define DOMINODB_FULLTEXT_FULLTEXT_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

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

struct FtStats {
  /// All fields are relaxed atomics: maintenance mutates them under the
  /// index's exclusive lock, but stats readers peek without locking, and
  /// concurrent Search calls bump `queries` under the shared lock.
  std::atomic<uint64_t> notes_indexed{0};
  std::atomic<uint64_t> notes_removed{0};
  std::atomic<uint64_t> tokens_indexed{0};
  std::atomic<uint64_t> queries{0};
};

/// Per-database inverted index over text and rich-text items, maintained
/// incrementally as documents change (the GTR-engine substitute). The
/// query language supports terms, "phrases", AND/OR/NOT, parentheses and
/// `FIELD name CONTAINS term`.
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
  /// `Database.FullText.*` counters alongside the per-index FtStats.
  explicit FullTextIndex(stats::StatRegistry* stats = nullptr);

  /// Adds or re-indexes a note (deletion stubs are removed). Only
  /// kDocument notes are indexed.
  void IndexNote(const Note& note);
  void RemoveNote(NoteId id);
  void Clear();

  /// Full rebuild (UPDALL-style): drops everything, then indexes every
  /// note `for_each_note` passes to its callback, as IndexNote would, all
  /// under one exclusive hold. Notes are consumed as they stream past, so
  /// the caller can feed them straight from its store.
  void BuildFrom(
      const std::function<void(const std::function<void(const Note&)>&)>&
          for_each_note);

  /// Runs a query; results are sorted by descending TF-IDF score.
  Result<std::vector<FtHit>> Search(std::string_view query) const;

  size_t doc_count() const;
  size_t term_count() const;
  const FtStats& stats() const { return stats_; }

  /// Actual posting storage footprint in bytes (delta+varint blocks plus
  /// skip entries), and what the pre-compression representation (a map
  /// node + positions vector per doc per term) would cost. The ratio is
  /// the several-fold reduction E5 reports; `Ft.Index.BytesPerDoc`
  /// publishes ByteUsage()/doc_count as a gauge.
  size_t ByteUsage() const;
  size_t UncompressedModelBytes() const;

  // -- Internals shared with the query evaluator ------------------------
  struct Posting {
    // Positions of the term in the document (token offsets; fields are
    // separated by position gaps so phrases never span fields).
    std::vector<uint32_t> positions;
  };
  using PostingMap = std::map<NoteId, Posting>;

  /// Field-scoped occurrences are stored as index ranges into the
  /// unscoped posting's positions vector instead of duplicating the
  /// positions: a term's occurrences within one field are contiguous in
  /// the (sorted, append-only) positions vector, so [begin, end) slices
  /// recover them exactly. Multiple same-named items yield multiple
  /// slices.
  struct FieldSlice {
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  using FieldPostingMap = std::map<NoteId, std::vector<FieldSlice>>;

  /// The term's compressed posting list; null when the term is unknown.
  /// Query evaluation iterates it with PostingList::Cursor.
  const PostingList* FindTerm(const std::string& term) const;
  /// Reconstitutes a `FIELD name CONTAINS term` posting map from the
  /// slices; empty when the (field, term) pair never occurs.
  PostingMap MaterializeFieldTerm(const std::string& field,
                                  const std::string& term) const;
  const std::set<NoteId>& all_docs() const { return docs_; }
  double IdfOf(const std::string& term) const;

 private:
  void IndexNoteLocked(const Note& note) REQUIRES(mu_);
  void RemoveNoteLocked(NoteId id) REQUIRES(mu_);
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
  std::unordered_map<std::string, FieldPostingMap> field_postings_;
  // Keys this doc contributed to: plain terms and "field\x1fterm" keys
  // (the latter marked by the embedded '\x1f').
  std::unordered_map<NoteId, std::vector<std::string>> terms_of_doc_;
  std::unordered_map<NoteId, uint32_t> doc_lengths_;
  std::set<NoteId> docs_;
  mutable FtStats stats_;
  size_t posting_bytes_ = 0;  // sum of PostingList::byte_size()
  size_t model_bytes_ = 0;    // sum of UncompressedModelBytes()

  // Server-wide mirrors of FtStats (dotted Domino stat names).
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
