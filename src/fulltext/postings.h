#ifndef DOMINODB_FULLTEXT_POSTINGS_H_
#define DOMINODB_FULLTEXT_POSTINGS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/note.h"

namespace dominodb {

/// Delta+varint-compressed posting list: the docs (and per-doc term
/// positions) for one term, stored as a sequence of small encoded blocks
/// with skip entries. Replaces the uncompressed `std::map<NoteId,
/// vector<uint32_t>>` representation — several-fold smaller, so
/// per-database FT indexes survive beyond-RAM note stores (PR 6), and
/// block skip entries let AND/NOT merges jump instead of scanning.
///
/// Block layout (`Block::bytes`, `count` entries; docs strictly
/// ascending):
///   entry := varint32 doc_delta    (first entry: doc - first_doc == 0)
///            varint32 freq         (number of positions)
///            varint32 pos_bytes    (length of the encoded positions)
///            positions             (varint32 first, then varint32 deltas)
/// `freq` and `pos_bytes` are stored separately so iteration reads
/// frequencies (term scoring) in O(1) per entry without decoding
/// positions; positions decode lazily for phrase queries only.
///
/// Delta encoding requires sorted doc ids. Appends in ascending order hit
/// the fast path; inserts below the current tail (compaction relocated
/// notes, so a rebuild sees them in physical — not id — order; the full-
/// text index reuses the keys of dropped versions) splice the entry into
/// the one block whose range covers it, re-encoding only the delta of
/// the entry after it. Erase splices the same way. Callers never need to
/// pre-sort.
class PostingList {
 public:
  /// Append-path block capacity. Out-of-order inserts may grow a block to
  /// 2x before it splits.
  static constexpr uint32_t kBlockDocs = 64;

  /// Cursor sentinel past every possible doc. NoteId is 32-bit and the
  /// full range — including 0xFFFFFFFF — is valid, so "end" lives at 2^32.
  static constexpr uint64_t kEndDoc = 1ull << 32;

  /// Inserts (or replaces) the posting for `doc`. Returns true when the
  /// insert was out of order (not an append past the current tail) —
  /// callers count these as Ft.Index.OutOfOrderInserts.
  bool Insert(NoteId doc, std::span<const uint32_t> positions);

  /// Removes `doc`; returns true if it was present.
  bool Erase(NoteId doc);

  /// Decodes the positions for `doc` into `out`; false when absent.
  bool GetPositions(NoteId doc, std::vector<uint32_t>* out) const;

  size_t doc_count() const { return doc_count_; }
  bool empty() const { return doc_count_ == 0; }
  size_t block_count() const { return blocks_.size(); }

  /// Actual footprint: encoded bytes plus per-block skip-entry overhead.
  size_t byte_size() const {
    return encoded_bytes_ + blocks_.size() * sizeof(Block);
  }

  /// What the pre-compression representation (one map node plus a
  /// positions vector per doc) would cost — the honest baseline for the
  /// Ft.Index.BytesPerDoc comparison.
  size_t UncompressedModelBytes() const;

  /// Forward iterator with block-skipping SkipTo. Invalidated by any
  /// mutation of the list.
  class Cursor {
   public:
    /// A null list yields an exhausted cursor.
    explicit Cursor(const PostingList* list);

    uint64_t doc() const { return doc_; }
    uint32_t freq() const { return freq_; }
    bool at_end() const { return doc_ == kEndDoc; }

    /// The current doc's positions, decoded on first use per doc.
    const std::vector<uint32_t>& positions() const;

    void Next();
    /// Advances to the first doc >= target (binary search over block skip
    /// entries, then a bounded in-block scan). No-op if already there.
    void SkipTo(uint64_t target);

   private:
    void EnterBlock(size_t index);
    void DecodeEntry();

    const PostingList* list_ = nullptr;
    size_t block_ = 0;
    std::string_view rest_;       // undecoded tail of the current block
    uint32_t remaining_ = 0;      // entries left in block, incl. current
    uint64_t doc_ = kEndDoc;
    uint32_t freq_ = 0;
    std::string_view pos_bytes_;  // current entry's encoded positions
    mutable std::vector<uint32_t> pos_buf_;
    mutable bool pos_valid_ = false;
  };

  Cursor NewCursor() const { return Cursor(this); }

 private:
  friend class Cursor;

  struct Block {
    NoteId first_doc = 0;
    NoteId last_doc = 0;   // the skip entry: SkipTo binary-searches these
    uint32_t count = 0;
    std::string bytes;
  };

  struct DecodedEntry {
    NoteId doc;
    uint32_t freq;
    std::string_view pos_bytes;
  };

  /// Index of the only block that could contain `doc` (first block whose
  /// last_doc >= doc), or blocks_.size().
  size_t FindBlock(NoteId doc) const;

  static void AppendEntry(std::string* dst, uint32_t doc_delta,
                          uint32_t freq, std::string_view pos_bytes);
  static std::string EncodePositions(std::span<const uint32_t> positions);
  /// Splices a new entry for `doc` into `block` ahead of its first entry
  /// with a larger doc; false (block untouched) when `doc` is present.
  bool SpliceEntry(Block* block, NoteId doc, uint32_t freq,
                   std::string_view pos_bytes);
  static std::vector<DecodedEntry> DecodeBlock(const Block& block);
  static Block BuildBlock(const std::vector<DecodedEntry>& entries,
                          size_t begin, size_t end);

  std::vector<Block> blocks_;
  size_t doc_count_ = 0;
  size_t encoded_bytes_ = 0;
  uint64_t total_positions_ = 0;
};

}  // namespace dominodb

#endif  // DOMINODB_FULLTEXT_POSTINGS_H_
