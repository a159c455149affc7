#include "fulltext/postings.h"

#include <algorithm>
#include <cassert>

#include "base/coding.h"

namespace dominodb {

namespace {

/// One entry header read in place: the entry spans [start, end) of its
/// block's bytes, and its delta varint takes `delta_len` bytes.
struct EntryHeader {
  size_t start = 0;
  size_t delta_len = 0;
  size_t end = 0;
  uint32_t delta = 0;
  uint32_t freq = 0;
};

bool ReadHeader(std::string_view bytes, size_t start, EntryHeader* h) {
  std::string_view in = bytes.substr(start);
  h->start = start;
  if (!GetVarint32(&in, &h->delta)) return false;
  h->delta_len = bytes.size() - start - in.size();
  uint32_t pos_len = 0;
  if (!GetVarint32(&in, &h->freq) || !GetVarint32(&in, &pos_len) ||
      pos_len > in.size()) {
    return false;
  }
  h->end = bytes.size() - in.size() + pos_len;
  return true;
}

}  // namespace

// -- Encoding helpers -----------------------------------------------------

std::string PostingList::EncodePositions(std::span<const uint32_t> positions) {
  std::string out;
  uint32_t prev = 0;
  for (size_t i = 0; i < positions.size(); ++i) {
    PutVarint32(&out, i == 0 ? positions[0] : positions[i] - prev);
    prev = positions[i];
  }
  return out;
}

void PostingList::AppendEntry(std::string* dst, uint32_t doc_delta,
                              uint32_t freq, std::string_view pos_bytes) {
  PutVarint32(dst, doc_delta);
  PutVarint32(dst, freq);
  PutVarint32(dst, static_cast<uint32_t>(pos_bytes.size()));
  dst->append(pos_bytes);
}

std::vector<PostingList::DecodedEntry> PostingList::DecodeBlock(
    const Block& block) {
  std::vector<DecodedEntry> entries;
  entries.reserve(block.count);
  std::string_view in(block.bytes);
  NoteId prev = block.first_doc;
  for (uint32_t i = 0; i < block.count; ++i) {
    uint32_t delta = 0, freq = 0, pos_len = 0;
    bool ok = GetVarint32(&in, &delta) && GetVarint32(&in, &freq) &&
              GetVarint32(&in, &pos_len) && pos_len <= in.size();
    assert(ok);
    if (!ok) break;
    NoteId doc = prev + delta;
    entries.push_back(DecodedEntry{doc, freq, in.substr(0, pos_len)});
    in.remove_prefix(pos_len);
    prev = doc;
  }
  return entries;
}

PostingList::Block PostingList::BuildBlock(
    const std::vector<DecodedEntry>& entries, size_t begin, size_t end) {
  Block block;
  block.first_doc = entries[begin].doc;
  block.last_doc = entries[end - 1].doc;
  block.count = static_cast<uint32_t>(end - begin);
  NoteId prev = block.first_doc;
  for (size_t i = begin; i < end; ++i) {
    AppendEntry(&block.bytes, entries[i].doc - prev, entries[i].freq,
                entries[i].pos_bytes);
    prev = entries[i].doc;
  }
  return block;
}

size_t PostingList::FindBlock(NoteId doc) const {
  // First block whose last_doc >= doc — the only one that may hold it.
  size_t lo = 0, hi = blocks_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (blocks_[mid].last_doc < doc) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// -- Mutation -------------------------------------------------------------

bool PostingList::Insert(NoteId doc, std::span<const uint32_t> positions) {
  std::string pos_bytes = EncodePositions(positions);
  const uint32_t freq = static_cast<uint32_t>(positions.size());

  // Fast path: strictly ascending append (the common case — id-ordered
  // rebuilds and freshly created notes).
  if (blocks_.empty() || doc > blocks_.back().last_doc) {
    if (blocks_.empty() || blocks_.back().count >= kBlockDocs) {
      blocks_.push_back(Block{doc, doc, 0, {}});
    }
    Block& block = blocks_.back();
    encoded_bytes_ -= block.bytes.size();
    AppendEntry(&block.bytes, doc - block.last_doc, freq, pos_bytes);
    encoded_bytes_ += block.bytes.size();
    block.last_doc = doc;
    ++block.count;
    ++doc_count_;
    total_positions_ += freq;
    return false;
  }

  // Out-of-order insert: splice into the one block whose range covers
  // `doc`. Compaction relocating notes makes rebuild order physical rather
  // than id order; delta coding requires sorted ids, so the sort happens
  // here, at insert.
  size_t bi = FindBlock(doc);
  assert(bi < blocks_.size());
  Block& block = blocks_[bi];
  if (block.count < 2 * kBlockDocs &&
      SpliceEntry(&block, doc, freq, pos_bytes)) {
    ++doc_count_;
    total_positions_ += freq;
    return true;
  }

  // A replacing insert, or a block about to outgrow 2x: decode → insert
  // sorted → re-encode (and split).
  std::vector<DecodedEntry> entries = DecodeBlock(block);
  auto it = std::lower_bound(
      entries.begin(), entries.end(), doc,
      [](const DecodedEntry& e, NoteId d) { return e.doc < d; });
  if (it != entries.end() && it->doc == doc) {
    total_positions_ -= it->freq;
    it->freq = freq;
    it->pos_bytes = pos_bytes;
  } else {
    it = entries.insert(it, DecodedEntry{doc, freq, pos_bytes});
    ++doc_count_;
  }
  total_positions_ += freq;

  encoded_bytes_ -= block.bytes.size();
  if (entries.size() > 2 * kBlockDocs) {
    // Keep repeated mid-range inserts from growing one block unboundedly.
    size_t mid = entries.size() / 2;
    Block low = BuildBlock(entries, 0, mid);
    Block high = BuildBlock(entries, mid, entries.size());
    encoded_bytes_ += low.bytes.size() + high.bytes.size();
    blocks_[bi] = std::move(low);
    blocks_.insert(blocks_.begin() + bi + 1, std::move(high));
  } else {
    Block rebuilt = BuildBlock(entries, 0, entries.size());
    encoded_bytes_ += rebuilt.bytes.size();
    blocks_[bi] = std::move(rebuilt);
  }
  return true;
}

bool PostingList::SpliceEntry(Block* block, NoteId doc, uint32_t freq,
                              std::string_view pos_bytes) {
  NoteId prev = block->first_doc;
  EntryHeader h;
  for (uint32_t i = 0; i < block->count; ++i) {
    bool ok = ReadHeader(block->bytes, h.end, &h);
    assert(ok);
    if (!ok) return false;
    const NoteId cur = prev + h.delta;
    if (cur == doc) return false;
    if (cur > doc) {
      // The new entry takes entry i's place; entry i keeps its bytes but
      // for its delta, now counted from `doc`. A new first entry has
      // delta 0 and becomes the block's first_doc.
      std::string head;
      AppendEntry(&head, i == 0 ? 0 : doc - prev, freq, pos_bytes);
      PutVarint32(&head, cur - doc);
      encoded_bytes_ -= block->bytes.size();
      block->bytes.replace(h.start, h.delta_len, head);
      encoded_bytes_ += block->bytes.size();
      if (i == 0) block->first_doc = doc;
      ++block->count;
      return true;
    }
    prev = cur;
  }
  assert(false);  // FindBlock picked a block whose last_doc >= doc
  return false;
}

bool PostingList::Erase(NoteId doc) {
  size_t bi = FindBlock(doc);
  if (bi >= blocks_.size() || doc < blocks_[bi].first_doc) return false;
  Block& block = blocks_[bi];
  NoteId prev = block.first_doc;
  EntryHeader h;
  uint32_t i = 0;
  for (;; ++i) {
    if (i == block.count) return false;
    bool ok = ReadHeader(block.bytes, h.end, &h);
    assert(ok);
    if (!ok) return false;
    const NoteId cur = prev + h.delta;
    if (cur == doc) break;
    if (cur > doc) return false;
    prev = cur;
  }
  total_positions_ -= h.freq;
  --doc_count_;
  encoded_bytes_ -= block.bytes.size();
  if (block.count == 1) {
    blocks_.erase(blocks_.begin() + bi);
    return true;
  }
  if (i + 1 < block.count) {
    // The next entry absorbs the erased entry's delta; a new first entry
    // gets delta 0 and becomes the block's first_doc.
    EntryHeader next;
    bool ok = ReadHeader(block.bytes, h.end, &next);
    assert(ok);
    (void)ok;
    std::string delta;
    PutVarint32(&delta, i == 0 ? 0 : h.delta + next.delta);
    if (i == 0) block.first_doc = doc + next.delta;
    block.bytes.replace(h.start, h.end + next.delta_len - h.start, delta);
  } else {
    block.bytes.erase(h.start);
    block.last_doc = prev;
  }
  --block.count;
  encoded_bytes_ += block.bytes.size();
  return true;
}

// -- Lookup ---------------------------------------------------------------

bool PostingList::GetPositions(NoteId doc,
                               std::vector<uint32_t>* out) const {
  Cursor cursor(this);
  cursor.SkipTo(doc);
  if (cursor.doc() != doc) return false;
  *out = cursor.positions();
  return true;
}

size_t PostingList::UncompressedModelBytes() const {
  // The replaced representation: std::map<NoteId, Posting> — one
  // red-black node (3 pointers + color + padding ≈ 32 bytes) holding a
  // 4-byte key padded to 8, plus a Posting (vector header, 24 bytes) and
  // the position payload itself.
  constexpr size_t kMapNode = 32 + 8 + 24;
  return doc_count_ * kMapNode + total_positions_ * sizeof(uint32_t);
}

// -- Cursor ---------------------------------------------------------------

PostingList::Cursor::Cursor(const PostingList* list) : list_(list) {
  if (list_ != nullptr && !list_->blocks_.empty()) {
    EnterBlock(0);
    DecodeEntry();
  }
}

void PostingList::Cursor::EnterBlock(size_t index) {
  block_ = index;
  const Block& block = list_->blocks_[index];
  rest_ = block.bytes;
  remaining_ = block.count;
  doc_ = block.first_doc;  // first entry's delta is 0; base for decode
}

void PostingList::Cursor::DecodeEntry() {
  // Precondition: remaining_ > 0 and doc_ holds the previous doc (or the
  // block's first_doc before the first entry).
  uint32_t delta = 0, pos_len = 0;
  bool ok = GetVarint32(&rest_, &delta) && GetVarint32(&rest_, &freq_) &&
            GetVarint32(&rest_, &pos_len) && pos_len <= rest_.size();
  assert(ok);
  if (!ok) {
    doc_ = kEndDoc;
    return;
  }
  doc_ += delta;
  pos_bytes_ = rest_.substr(0, pos_len);
  rest_.remove_prefix(pos_len);
  --remaining_;
  pos_valid_ = false;
}

void PostingList::Cursor::Next() {
  if (doc_ == kEndDoc) return;
  if (remaining_ == 0) {
    if (block_ + 1 >= list_->blocks_.size()) {
      doc_ = kEndDoc;
      return;
    }
    EnterBlock(block_ + 1);
  }
  DecodeEntry();
}

void PostingList::Cursor::SkipTo(uint64_t target) {
  if (doc_ >= target) return;
  // Jump over whole blocks via the skip entries when the target is past
  // the current block.
  if (list_->blocks_[block_].last_doc < target) {
    size_t lo = block_ + 1, hi = list_->blocks_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (list_->blocks_[mid].last_doc < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo >= list_->blocks_.size()) {
      doc_ = kEndDoc;
      return;
    }
    EnterBlock(lo);
    DecodeEntry();
  }
  // In-block scan, bounded by the block size; last_doc >= target
  // guarantees termination before the block runs out.
  while (doc_ < target) Next();
}

const std::vector<uint32_t>& PostingList::Cursor::positions() const {
  if (!pos_valid_) {
    pos_buf_.clear();
    pos_buf_.reserve(freq_);
    std::string_view in = pos_bytes_;
    uint32_t prev = 0;
    for (uint32_t i = 0; i < freq_; ++i) {
      uint32_t delta = 0;
      if (!GetVarint32(&in, &delta)) break;
      prev = i == 0 ? delta : prev + delta;
      pos_buf_.push_back(prev);
    }
    pos_valid_ = true;
  }
  return pos_buf_;
}

}  // namespace dominodb
