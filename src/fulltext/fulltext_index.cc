#include "fulltext/fulltext_index.h"

#include <algorithm>
#include <cmath>

#include "base/string_util.h"
#include "fulltext/tokenizer.h"

namespace dominodb {

namespace {

constexpr uint32_t kFieldPositionGap = 1000;
constexpr size_t kMinTermSlots = 16;

uint32_t HashTerm(std::string_view text) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(text));
}

}  // namespace

FullTextIndex::FullTextIndex(stats::StatRegistry* stats)
    : term_slots_(kMinTermSlots, 0) {
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
  const DocKey replaced = RemoveNoteLocked(note.id(), epoch);
  if (note.deleted() || note.note_class() != NoteClass::kDocument) return;
  if (merge) ctr_merges_->Add();

  // Lower every token of the note into one buffer, then sort the tokens
  // by term and position: each term's run then yields its positions and,
  // split where the item changes, its per-item field slices.
  token_text_.clear();
  tokens_.clear();
  item_fields_.clear();
  uint32_t position = 0;
  for (const Item& item : note.items()) {
    const uint32_t ordinal = static_cast<uint32_t>(item_fields_.size());
    if (TokenizeItem(item, ordinal, &position)) {
      item_fields_.push_back(InternField(item.name));
      position += kFieldPositionGap;  // phrases never span fields
    }
  }
  auto text_of = [this](const Token& token) {
    return std::string_view(token_text_).substr(token.offset, token.length);
  };
  std::sort(tokens_.begin(), tokens_.end(),
            [&text_of](const Token& a, const Token& b) {
              const int c = text_of(a).compare(text_of(b));
              return c != 0 ? c < 0 : a.position < b.position;
            });
  size_t runs = 0;
  for (size_t i = 0; i < tokens_.size(); ++i) {
    if (i == 0 || text_of(tokens_[i]) != text_of(tokens_[i - 1])) ++runs;
  }

  DocKey key = static_cast<DocKey>(docs_.size());
  if (free_keys_.empty()) {
    docs_.emplace_back();
  } else {
    key = free_keys_.back();
    free_keys_.pop_back();
  }
  Doc& doc = docs_[key] = Doc{note.id(), epoch, kEpochMax, {}};
  doc.terms.reserve(runs);
  // Runs come in text order, as the replaced version's (zombie) terms
  // do: a merge join finds the terms the edit kept without hashing them.
  static const std::vector<TermId> kNoTerms;
  const std::vector<TermId>& kept =
      replaced == kNoKey ? kNoTerms : docs_[replaced].terms;
  size_t next_kept = 0;
  for (size_t begin = 0, end = 0; begin < tokens_.size(); begin = end) {
    const std::string_view text = text_of(tokens_[begin]);
    positions_.clear();
    slices_.clear();
    for (end = begin; end < tokens_.size() && text_of(tokens_[end]) == text;
         ++end) {
      const Token& token = tokens_[end];
      const auto at = static_cast<uint32_t>(positions_.size());
      positions_.push_back(token.position);
      if (end == begin || token.item != tokens_[end - 1].item) {
        slices_.push_back(
            FieldPosting{key, item_fields_[token.item], FieldSlice{at, at}});
      }
      slices_.back().slice.end = at + 1;
    }
    while (next_kept < kept.size() && TermAt(kept[next_kept]).text < text) {
      ++next_kept;
    }
    const TermId id =
        next_kept < kept.size() && TermAt(kept[next_kept]).text == text
            ? kept[next_kept]
            : InternTerm(text);
    doc.terms.push_back(id);
    Term& term = TermAt(id);
    // PostingList::Insert turns the positions into delta+varint entries
    // and splices a recycled (below the tail) key into sorted order.
    posting_bytes_ -= term.postings.byte_size();
    model_bytes_ -= term.postings.UncompressedModelBytes();
    if (term.postings.Insert(key, positions_)) ctr_ooo_inserts_->Add();
    posting_bytes_ += term.postings.byte_size();
    model_bytes_ += term.postings.UncompressedModelBytes();
    // Field postings are sorted by doc too; a recycled key lands below
    // the tail.
    auto at = term.fields.end();
    if (!term.fields.empty() && term.fields.back().doc > key) {
      at = std::upper_bound(
          term.fields.begin(), term.fields.end(), key,
          [](DocKey k, const FieldPosting& p) { return k < p.doc; });
    }
    term.fields.insert(at, slices_.begin(), slices_.end());
  }
  live_[note.id()] = key;
  ctr_docs_indexed_->Add();
  ctr_tokens_->Add(tokens_.size());
  RefreshByteStats();
}

bool FullTextIndex::TokenizeItem(const Item& item, uint32_t ordinal,
                                 uint32_t* position) {
  const size_t first = tokens_.size();
  auto add = [&](std::string_view text) {
    ForEachToken(text, [&](std::string_view token) {
      tokens_.push_back(Token{static_cast<uint32_t>(token_text_.size()),
                              static_cast<uint32_t>(token.size()),
                              (*position)++, ordinal});
      for (char c : token) token_text_.push_back(AsciiToLower(c));
    });
  };
  if (item.value.is_text()) {
    for (const std::string& s : item.value.texts()) add(s);
  } else if (item.value.is_richtext()) {
    for (const RichTextRun& run : item.value.runs()) {
      add(run.text);
      if (!run.attachment_name.empty()) add(run.attachment_name);
    }
  }
  return tokens_.size() > first;
}

size_t FullTextIndex::FindSlot(std::string_view text, uint32_t hash) const {
  const size_t mask = term_slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const TermId slot = term_slots_[i];
    if (slot == 0) return i;
    const Term& term = TermAt(slot - 1);
    if (term.hash == hash && term.text == text) return i;
  }
}

FullTextIndex::TermId FullTextIndex::InternTerm(std::string_view text) {
  const uint32_t hash = HashTerm(text);
  const size_t slot = FindSlot(text, hash);
  if (term_slots_[slot] != 0) return term_slots_[slot] - 1;
  TermId id;
  if (free_terms_.empty()) {
    id = term_end_++;
    if (id % kTermsPerChunk == 0) {
      term_chunks_.push_back(std::make_unique<Term[]>(kTermsPerChunk));
    }
  } else {
    id = free_terms_.back();
    free_terms_.pop_back();
  }
  Term& term = TermAt(id);
  term.text = text;
  term.hash = hash;
  term_slots_[slot] = id + 1;
  if (++term_total_ * 2 > term_slots_.size()) GrowTermSlots();
  return id;
}

void FullTextIndex::GrowTermSlots() {
  std::vector<TermId> old(term_slots_.size() * 2, 0);
  old.swap(term_slots_);
  const size_t mask = term_slots_.size() - 1;
  for (TermId slot : old) {
    if (slot == 0) continue;
    size_t i = TermAt(slot - 1).hash & mask;
    while (term_slots_[i] != 0) i = (i + 1) & mask;
    term_slots_[i] = slot;
  }
}

FullTextIndex::FieldId FullTextIndex::InternField(std::string_view name) {
  std::string lowered = ToLower(name);
  auto it = field_ids_.find(lowered);
  if (it != field_ids_.end()) return it->second;
  const auto id = static_cast<FieldId>(field_ids_.size());
  field_ids_.emplace(std::move(lowered), id);
  return id;
}

void FullTextIndex::ReleaseTerm(TermId id) {
  // Find the term's slot by its stored hash, then close the gap: each
  // later entry of the probe run moves back into the hole unless its
  // home slot lies after the hole.
  const size_t mask = term_slots_.size() - 1;
  size_t hole = TermAt(id).hash & mask;
  while (term_slots_[hole] != id + 1) hole = (hole + 1) & mask;
  for (size_t i = (hole + 1) & mask; term_slots_[i] != 0; i = (i + 1) & mask) {
    const size_t home = TermAt(term_slots_[i] - 1).hash & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      term_slots_[hole] = term_slots_[i];
      hole = i;
    }
  }
  term_slots_[hole] = 0;
  TermAt(id) = Term{};
  free_terms_.push_back(id);
  --term_total_;
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

FullTextIndex::DocKey FullTextIndex::RemoveNoteLocked(NoteId id, Epoch epoch) {
  auto it = live_.find(id);
  if (it == live_.end()) return kNoKey;
  const DocKey key = it->second;
  DocKey kept = key;
  live_.erase(it);
  Doc& doc = docs_[key];
  // Counted before the floor is read: a racing ReclaimVersions either
  // raised the floor first (the version goes now) or sees this zombie.
  zombie_total_.fetch_add(1);
  if (epoch == kEpochNone || doc.added == epoch ||
      epoch <= reclaimed_floor_.load()) {
    zombie_total_.fetch_sub(1);
    ErasePhysicalLocked(key);
    kept = kNoKey;
  } else {
    // Kept for readers pinned before `epoch`; ReclaimVersions drops it.
    doc.removed = epoch;
    zombies_.push_back(key);
  }
  ctr_docs_removed_->Add();
  RefreshByteStats();
  return kept;
}

void FullTextIndex::ErasePhysicalLocked(DocKey key) {
  // Only the version's own terms are visited, by id.
  Doc& doc = docs_[key];
  for (TermId id : doc.terms) {
    Term& term = TermAt(id);
    posting_bytes_ -= term.postings.byte_size();
    model_bytes_ -= term.postings.UncompressedModelBytes();
    term.postings.Erase(key);
    if (term.postings.empty()) {
      ReleaseTerm(id);
      continue;
    }
    posting_bytes_ += term.postings.byte_size();
    model_bytes_ += term.postings.UncompressedModelBytes();
    auto [lo, hi] = std::equal_range(
        term.fields.begin(), term.fields.end(), FieldPosting{key, 0, {}},
        [](const FieldPosting& a, const FieldPosting& b) {
          return a.doc < b.doc;
        });
    term.fields.erase(lo, hi);
  }
  doc = Doc{kInvalidNoteId, kEpochNone, kEpochNone, {}};
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
  term_slots_ = std::vector<TermId>(kMinTermSlots, 0);
  term_chunks_.clear();
  term_end_ = 0;
  free_terms_.clear();
  term_total_ = 0;
  field_ids_.clear();
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
  return term_total_;
}

size_t FullTextIndex::ByteUsage() const {
  ReaderLock lock(&mu_);
  return posting_bytes_;
}

size_t FullTextIndex::UncompressedModelBytes() const {
  ReaderLock lock(&mu_);
  return model_bytes_;
}

const FullTextIndex::Term* FullTextIndex::LookupTerm(
    const std::string& term) const {
  const std::string lowered = ToLower(term);
  const TermId slot = term_slots_[FindSlot(lowered, HashTerm(lowered))];
  return slot == 0 ? nullptr : &TermAt(slot - 1);
}

const PostingList* FullTextIndex::FindTerm(const std::string& term) const {
  const Term* found = LookupTerm(term);
  return found == nullptr ? nullptr : &found->postings;
}

FullTextIndex::PostingMap FullTextIndex::MaterializeFieldTerm(
    const std::string& field, const std::string& term) const {
  PostingMap out;
  const Term* found = LookupTerm(term);
  if (found == nullptr) return out;
  auto fit = field_ids_.find(ToLower(field));
  if (fit == field_ids_.end()) return out;
  // The field postings are sorted by doc, so one forward cursor pass
  // decodes each needed posting exactly once.
  PostingList::Cursor cursor = found->postings.NewCursor();
  for (const FieldPosting& posting : found->fields) {
    if (posting.field != fit->second) continue;
    cursor.SkipTo(posting.doc);
    if (cursor.doc() != posting.doc) continue;
    const std::vector<uint32_t>& all = cursor.positions();
    const FieldSlice& slice = posting.slice;
    if (slice.end > all.size() || slice.begin > slice.end) continue;
    std::vector<uint32_t>& positions = out[posting.doc].positions;
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
