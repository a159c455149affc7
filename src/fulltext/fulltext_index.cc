#include "fulltext/fulltext_index.h"

#include <algorithm>
#include <cmath>

#include "base/string_util.h"
#include "fulltext/tokenizer.h"

namespace dominodb {

namespace {

// Separator making field-scoped keys collision-free with plain terms.
std::string FieldTermKey(std::string_view field, std::string_view term) {
  std::string key = ToLower(field);
  key.push_back('\x1f');
  key.append(term);
  return key;
}

constexpr uint32_t kFieldPositionGap = 1000;

}  // namespace

FullTextIndex::FullTextIndex(stats::StatRegistry* stats) {
  stats::StatRegistry& reg =
      stats != nullptr ? *stats : stats::StatRegistry::Global();
  ctr_docs_indexed_ = &reg.GetCounter("Database.FullText.Docs.Indexed");
  ctr_docs_removed_ = &reg.GetCounter("Database.FullText.Docs.Removed");
  ctr_merges_ = &reg.GetCounter("Database.FullText.Merges");
  ctr_tokens_ = &reg.GetCounter("Database.FullText.Tokens");
  ctr_queries_ = &reg.GetCounter("Database.FullText.Queries");
  ctr_ooo_inserts_ = &reg.GetCounter("Ft.Index.OutOfOrderInserts");
  gauge_bytes_per_doc_ = &reg.GetGauge("Ft.Index.BytesPerDoc");
}

void FullTextIndex::RefreshByteStats() {
  gauge_bytes_per_doc_->Set(
      live_.empty() ? 0
                    : static_cast<int64_t>(posting_bytes_ / live_.size()));
}

void FullTextIndex::IndexNote(const Note& note, Epoch epoch) {
  WriterLock lock(&mu_);
  IndexNoteLocked(note, epoch);
}

void FullTextIndex::IndexNoteLocked(const Note& note, Epoch epoch) {
  // Re-indexing a known document is an incremental merge into the
  // postings (the GTR-style "index merge").
  const bool merge = live_.count(note.id()) != 0;
  RemoveNoteLocked(note.id(), epoch);
  if (note.deleted() || note.note_class() != NoteClass::kDocument) return;
  if (merge) ctr_merges_->Add();

  DocKey key = static_cast<DocKey>(docs_.size());
  if (free_keys_.empty()) {
    docs_.emplace_back();
  } else {
    key = free_keys_.back();
    free_keys_.pop_back();
  }
  Doc& doc = docs_[key] = Doc{note.id(), epoch, kEpochMax, {}, {}};
  // The note's positions per term stay uncompressed while tokenization
  // appends to them; each term's list is compressed once, below.
  std::unordered_map<std::string, std::vector<uint32_t>> positions_of;
  uint32_t position = 0;
  uint32_t length = 0;
  for (const Item& item : note.items()) {
    // Occurrences of a term within one item are appended contiguously to
    // the term's positions vector, so a [begin, end) slice per term is
    // enough to recover the field-scoped posting later.
    std::unordered_map<std::string, FieldSlice> field_ranges;
    auto index_text = [&](const std::string& text) {
      for (const std::string& token : TokenizeText(text)) {
        std::vector<uint32_t>& positions = positions_of[token];
        auto [rit, fresh] = field_ranges.try_emplace(
            token, FieldSlice{static_cast<uint32_t>(positions.size()), 0});
        (void)fresh;
        positions.push_back(position++);
        rit->second.end = static_cast<uint32_t>(positions.size());
        ++length;
      }
    };
    if (item.value.is_text()) {
      for (const std::string& s : item.value.texts()) index_text(s);
    } else if (item.value.is_richtext()) {
      for (const RichTextRun& run : item.value.runs()) {
        index_text(run.text);
        if (!run.attachment_name.empty()) index_text(run.attachment_name);
      }
    }
    if (!field_ranges.empty()) {
      position += kFieldPositionGap;  // phrases never span fields
      for (const auto& [term, slice] : field_ranges) {
        auto fit =
            field_postings_.try_emplace(FieldTermKey(item.name, term)).first;
        FieldPostings& list = fit->second;
        // Keyed by doc; a recycled key lands below the tail. A second
        // same-named item appends after the first item's pair.
        auto at = list.end();
        if (!list.empty() && list.back().first > key) {
          at = std::upper_bound(
              list.begin(), list.end(), key,
              [](DocKey k, const auto& entry) { return k < entry.first; });
        }
        if (at == list.begin() || std::prev(at)->first != key) {
          doc.field_keys.push_back(&fit->first);
        }
        list.emplace(at, key, slice);
      }
    }
  }
  doc.field_keys.shrink_to_fit();
  // PostingList::Insert turns the positions into delta+varint blocks and
  // splices a recycled (below the tail) key back into sorted order.
  doc.terms.reserve(positions_of.size());
  for (const auto& [term, positions] : positions_of) {
    auto pit = postings_.try_emplace(term).first;
    doc.terms.push_back(&pit->first);
    PostingList& list = pit->second;
    posting_bytes_ -= list.byte_size();
    model_bytes_ -= list.UncompressedModelBytes();
    if (list.Insert(key, positions)) ctr_ooo_inserts_->Add();
    posting_bytes_ += list.byte_size();
    model_bytes_ += list.UncompressedModelBytes();
  }
  live_[note.id()] = key;
  ctr_docs_indexed_->Add();
  ctr_tokens_->Add(length);
  RefreshByteStats();
}

void FullTextIndex::BuildFrom(
    const std::function<void(const std::function<void(const Note&)>&)>&
        for_each_note) {
  WriterLock lock(&mu_);
  ClearLocked();
  // The callback runs on this thread, inside the exclusive hold above.
  // Keys restart at 0 and ascend, so every posting insert appends.
  for_each_note([this](const Note& note) NO_THREAD_SAFETY_ANALYSIS {
    IndexNoteLocked(note, kEpochNone);
  });
}

void FullTextIndex::RemoveNote(NoteId id, Epoch epoch) {
  WriterLock lock(&mu_);
  RemoveNoteLocked(id, epoch);
}

void FullTextIndex::RemoveNoteLocked(NoteId id, Epoch epoch) {
  auto it = live_.find(id);
  if (it == live_.end()) return;
  const DocKey key = it->second;
  live_.erase(it);
  Doc& doc = docs_[key];
  // Counted before the floor is read: a racing ReclaimVersions either
  // raised the floor first (the version goes now) or sees this zombie.
  zombie_total_.fetch_add(1);
  if (epoch == kEpochNone || doc.added == epoch ||
      epoch <= reclaimed_floor_.load()) {
    zombie_total_.fetch_sub(1);
    ErasePhysicalLocked(key);
  } else {
    // Kept for readers pinned before `epoch`; ReclaimVersions drops it.
    doc.removed = epoch;
    zombies_.push_back(key);
  }
  ctr_docs_removed_->Add();
  RefreshByteStats();
}

void FullTextIndex::ErasePhysicalLocked(DocKey key) {
  // Each key string is looked up before its entry can go, and a version
  // lists it once, so no pointer is followed after its entry is erased.
  const Doc& doc = docs_[key];
  for (const std::string* field_key : doc.field_keys) {
    auto fit = field_postings_.find(*field_key);
    if (fit == field_postings_.end()) continue;
    FieldPostings& list = fit->second;
    auto [lo, hi] = std::equal_range(
        list.begin(), list.end(), std::make_pair(key, FieldSlice{}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    list.erase(lo, hi);
    if (list.empty()) field_postings_.erase(fit);
  }
  for (const std::string* term : doc.terms) {
    auto pit = postings_.find(*term);
    if (pit == postings_.end()) continue;
    PostingList& list = pit->second;
    posting_bytes_ -= list.byte_size();
    model_bytes_ -= list.UncompressedModelBytes();
    list.Erase(key);
    if (list.empty()) {
      postings_.erase(pit);
    } else {
      posting_bytes_ += list.byte_size();
      model_bytes_ += list.UncompressedModelBytes();
    }
  }
  docs_[key] = Doc{kInvalidNoteId, kEpochNone, kEpochNone, {}, {}};
  free_keys_.push_back(key);
}

void FullTextIndex::ReclaimVersions(Epoch floor) {
  Epoch seen = reclaimed_floor_.load();
  while (seen < floor &&
         !reclaimed_floor_.compare_exchange_weak(seen, floor)) {
  }
  if (zombie_total_.load() == 0) return;
  WriterLock lock(&mu_);
  // Zombies are queued in commit order, so the reclaimable prefix is
  // contiguous. A zombie removed at epoch R is only needed by pins < R.
  while (!zombies_.empty() && docs_[zombies_.front()].removed <= floor) {
    ErasePhysicalLocked(zombies_.front());
    zombies_.pop_front();
  }
  zombie_total_.store(zombies_.size());
  RefreshByteStats();
}

void FullTextIndex::Clear() {
  WriterLock lock(&mu_);
  ClearLocked();
}

void FullTextIndex::ClearLocked() {
  postings_.clear();
  field_postings_.clear();
  docs_.clear();
  live_.clear();
  free_keys_.clear();
  zombies_.clear();
  zombie_total_.store(0);
  posting_bytes_ = 0;
  model_bytes_ = 0;
  RefreshByteStats();
}

size_t FullTextIndex::doc_count() const {
  ReaderLock lock(&mu_);
  return live_.size();
}

size_t FullTextIndex::term_count() const {
  ReaderLock lock(&mu_);
  return postings_.size();
}

size_t FullTextIndex::ByteUsage() const {
  ReaderLock lock(&mu_);
  return posting_bytes_;
}

size_t FullTextIndex::UncompressedModelBytes() const {
  ReaderLock lock(&mu_);
  return model_bytes_;
}

const PostingList* FullTextIndex::FindTerm(const std::string& term) const {
  auto it = postings_.find(ToLower(term));
  return it == postings_.end() ? nullptr : &it->second;
}

FullTextIndex::PostingMap FullTextIndex::MaterializeFieldTerm(
    const std::string& field, const std::string& term) const {
  PostingMap out;
  const std::string lowered = ToLower(term);
  auto fit = field_postings_.find(FieldTermKey(field, lowered));
  if (fit == field_postings_.end()) return out;
  auto pit = postings_.find(lowered);
  if (pit == postings_.end()) return out;
  // The field postings are sorted by doc, so one forward cursor pass
  // decodes each needed posting exactly once.
  PostingList::Cursor cursor = pit->second.NewCursor();
  for (const auto& [doc, slice] : fit->second) {
    cursor.SkipTo(doc);
    if (cursor.doc() != doc) continue;
    const std::vector<uint32_t>& all = cursor.positions();
    std::vector<uint32_t>& positions = out[doc].positions;
    if (slice.end > all.size() || slice.begin > slice.end) continue;
    positions.insert(positions.end(), all.begin() + slice.begin,
                     all.begin() + slice.end);
  }
  return out;
}

double FullTextIndex::IdfOf(const std::string& term) const {
  const PostingList* list = FindTerm(term);
  size_t df = list != nullptr ? list->doc_count() : 0;
  const size_t docs = docs_.size() - free_keys_.size();
  return std::log(1.0 + static_cast<double>(docs) /
                            static_cast<double>(df + 1));
}

}  // namespace dominodb
