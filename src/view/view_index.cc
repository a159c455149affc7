#include "view/view_index.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/string_util.h"
#include "security/acl.h"

namespace dominodb {

namespace {

constexpr int kMaxResponseDepth = 32;

}  // namespace

ViewIndex::ViewIndex(ViewDesign design, const Clock* clock,
                     stats::StatRegistry* stats)
    : design_(std::move(design)),
      clock_(clock),
      select_eval_(design_.selection()) {
  stats::StatRegistry& reg =
      stats != nullptr ? *stats : stats::StatRegistry::Global();
  ctr_selection_evals_ = &reg.GetCounter("Database.View.SelectionEvals");
  ctr_column_evals_ = &reg.GetCounter("Database.View.ColumnEvals");
  ctr_formula_errors_ = &reg.GetCounter("Database.View.FormulaErrors");
  ctr_inserts_ = &reg.GetCounter("Database.View.Inserts");
  ctr_removes_ = &reg.GetCounter("Database.View.Removes");
  ctr_updates_ = &reg.GetCounter("Database.View.Updates");
  ctr_rebuilds_ = &reg.GetCounter("Database.View.Rebuilds");
  hist_rebuild_micros_ = &reg.GetHistogram("Database.View.RebuildMicros");
  gauge_reader_sets_ = &reg.GetGauge("Database.View.ReaderSets");
  for (size_t i = 0; i < design_.columns().size(); ++i) {
    const ViewColumn& col = design_.columns()[i];
    if (col.sort != ColumnSort::kNone) {
      descending_.push_back(col.sort == ColumnSort::kDescending);
    }
    if (col.categorized) category_columns_.push_back(i);
  }
  needs_response_walk_ = design_.show_response_hierarchy() ||
                         design_.selection().selects_all_children() ||
                         design_.selection().selects_all_descendants();
  column_evals_.reserve(design_.columns().size());
  for (const ViewColumn& col : design_.columns()) {
    if (col.formula.valid()) {
      column_evals_.emplace_back(formula::BatchEvaluator(col.formula));
    } else {
      column_evals_.emplace_back(std::nullopt);
    }
  }
}

ViewIndex::~ViewIndex() {
  WriterLock lock(&mu_);
  ClearLocked();  // takes this index's sets off the shared gauge
}

bool ViewIndex::Selects(const Note& note, const NoteResolver* resolver,
                        ViewStats* tally) {
  formula::EvalContext ctx;
  ctx.note = &note;
  ctx.clock = clock_;
  ++tally->selection_evals;
  auto matched = select_eval_.Matches(ctx);
  if (!matched.ok()) {
    ++tally->formula_errors;
    return false;
  }
  if (*matched) return true;
  // SELECT ... | @AllChildren / @AllDescendants: responses ride along with
  // a matching parent (one level) or any matching ancestor.
  const bool children = design_.selection().selects_all_children();
  const bool descendants = design_.selection().selects_all_descendants();
  if (!note.IsResponse() || resolver == nullptr ||
      !(children || descendants)) {
    return false;
  }
  NoteHandle ancestor = resolver->FindByUnid(note.parent_unid());
  for (int depth = 0; ancestor != nullptr && depth < kMaxResponseDepth;
       ++depth) {
    formula::EvalContext actx;
    actx.note = ancestor.get();
    actx.clock = clock_;
    ++tally->selection_evals;
    auto m = select_eval_.Matches(actx);
    if (m.ok() && *m) return true;
    if (!descendants) break;  // @AllChildren: direct parent only
    if (!ancestor->IsResponse()) break;
    ancestor = resolver->FindByUnid(ancestor->parent_unid());
  }
  return false;
}

std::optional<ViewIndex::EvaluatedEntry> ViewIndex::EvaluateNote(
    const Note& note, const NoteResolver* resolver) {
  if (note.deleted() || note.note_class() != NoteClass::kDocument) {
    return std::nullopt;
  }
  // Counts are tallied locally and published once per note.
  ViewStats tally;
  std::optional<EvaluatedEntry> eval;
  if (Selects(note, resolver, &tally)) {
    eval.emplace();
    eval->reader_names = ReaderNamesOf(note);
    ViewEntry& entry = eval->entry;
    entry.note_id = note.id();
    entry.unid = note.unid();
    entry.parent_unid = note.parent_unid();
    entry.is_response = note.IsResponse();
    entry.created = note.created();
    entry.column_values.reserve(column_evals_.size());
    for (std::optional<formula::BatchEvaluator>& f : column_evals_) {
      if (!f.has_value()) {
        entry.column_values.push_back(Value::Text(""));
        continue;
      }
      formula::EvalContext ctx;
      ctx.note = &note;
      ctx.clock = clock_;
      ++tally.column_evals;
      auto v = f->Evaluate(ctx);
      if (!v.ok()) {
        ++tally.formula_errors;
        entry.column_values.push_back(Value::Text(""));
      } else {
        entry.column_values.push_back(std::move(*v));
      }
    }
  }
  {
    MutexLock lock(&stats_mu_);
    stats_.selection_evals += tally.selection_evals;
    stats_.column_evals += tally.column_evals;
    stats_.formula_errors += tally.formula_errors;
  }
  if (tally.selection_evals > 0) ctr_selection_evals_->Add(tally.selection_evals);
  if (tally.column_evals > 0) ctr_column_evals_->Add(tally.column_evals);
  if (tally.formula_errors > 0) ctr_formula_errors_->Add(tally.formula_errors);
  return eval;
}

ViewIndex::RowKey ViewIndex::BuildKey(const ViewEntry& entry) const {
  RowKey key;
  key.id = entry.note_id;
  key.added = entry.added_epoch;
  size_t sorted_idx = 0;
  for (size_t i = 0; i < design_.columns().size(); ++i) {
    if (design_.columns()[i].sort == ColumnSort::kNone) continue;
    bool desc = sorted_idx < descending_.size() && descending_[sorted_idx];
    EncodeCollationElement(entry.column_values[i], desc, &key.collation_key);
    ++sorted_idx;
  }
  return key;
}

ReaderSetId ViewIndex::AcquireReaderSetLocked(
    std::vector<std::string> names) {
  if (names.empty()) return kUnrestricted;
  auto [it, inserted] =
      reader_set_ids_.try_emplace(std::move(names), kUnrestricted);
  if (inserted) {
    if (free_reader_set_ids_.empty()) {
      reader_sets_.emplace_back();
      it->second = static_cast<ReaderSetId>(reader_sets_.size());
    } else {
      it->second = free_reader_set_ids_.back();
      free_reader_set_ids_.pop_back();
    }
    reader_sets_[it->second - 1].it = it;
    gauge_reader_sets_->Add(1);
  }
  ++reader_sets_[it->second - 1].refs;
  return it->second;
}

void ViewIndex::ReleaseReaderSetLocked(ReaderSetId id) {
  if (id == kUnrestricted) return;
  ReaderSet& set = reader_sets_[id - 1];
  if (--set.refs > 0) return;
  reader_set_ids_.erase(set.it);
  free_reader_set_ids_.push_back(id);
  gauge_reader_sets_->Add(-1);
}

const std::vector<std::string>* ViewIndex::ReaderNamesLocked(
    ReaderSetId id) const {
  if (id == kUnrestricted) return nullptr;
  return &reader_sets_[id - 1].it->first;
}

void ViewIndex::PlaceEntryLocked(EvaluatedEntry eval,
                                 const NoteResolver* resolver) {
  ViewEntry& entry = eval.entry;
  entry.reader_set = AcquireReaderSetLocked(std::move(eval.reader_names));
  const NoteId id = entry.note_id;
  Location loc;
  bool placed_as_response = false;
  if (design_.show_response_hierarchy() && entry.is_response &&
      resolver != nullptr) {
    NoteHandle parent = resolver->FindByUnid(entry.parent_unid);
    if (parent != nullptr && row_of_note_.count(parent->id()) != 0) {
      loc.is_response_row = true;
      loc.parent = entry.parent_unid;
      loc.resp_key =
          ResponseKey{entry.created, entry.note_id, entry.added_epoch};
      auto [slot, fresh] =
          responses_[entry.parent_unid].try_emplace(loc.resp_key);
      if (!fresh) ReleaseReaderSetLocked(slot->second.reader_set);
      slot->second = std::move(entry);
      placed_as_response = true;
    }
  }
  if (!placed_as_response) {
    loc.is_response_row = false;
    loc.main_key = BuildKey(entry);
    auto [slot, fresh] = rows_.try_emplace(loc.main_key);
    if (!fresh) ReleaseReaderSetLocked(slot->second.reader_set);
    slot->second = std::move(entry);
  }
  row_of_note_[id] = loc;
  {
    MutexLock lock(&stats_mu_);
    ++stats_.inserts;
  }
  ctr_inserts_->Add();
}

ViewEntry* ViewIndex::EntryAtLocked(const Location& loc) {
  if (loc.is_response_row) {
    auto parent_it = responses_.find(loc.parent);
    if (parent_it == responses_.end()) return nullptr;
    auto it = parent_it->second.find(loc.resp_key);
    return it == parent_it->second.end() ? nullptr : &it->second;
  }
  auto it = rows_.find(loc.main_key);
  return it == rows_.end() ? nullptr : &it->second;
}

void ViewIndex::ErasePhysicalLocked(const Location& loc) {
  const ViewEntry* entry = EntryAtLocked(loc);
  if (entry == nullptr) return;
  ReleaseReaderSetLocked(entry->reader_set);
  if (loc.is_response_row) {
    auto parent_it = responses_.find(loc.parent);
    parent_it->second.erase(loc.resp_key);
    if (parent_it->second.empty()) responses_.erase(parent_it);
  } else {
    rows_.erase(loc.main_key);
  }
}

void ViewIndex::RemoveLocationLocked(NoteId id, Epoch epoch) {
  auto it = row_of_note_.find(id);
  if (it == row_of_note_.end()) return;
  Location loc = it->second;
  row_of_note_.erase(it);
  ViewEntry* entry = EntryAtLocked(loc);
  if (epoch == kEpochNone ||
      (entry != nullptr && entry->added_epoch == epoch)) {
    // Unversioned, or a row added in this same epoch: no snapshot can see
    // it, and a zombie would share its key with the row that replaces it.
    ErasePhysicalLocked(loc);
  } else if (entry != nullptr) {
    // Versioned removal: the row stays put as a zombie so readers pinned
    // before `epoch` still see it; ReclaimVersions drops it later.
    entry->removed_epoch = epoch;
    zombies_.push_back(Zombie{epoch, std::move(loc)});
    zombie_total_.store(zombies_.size(), std::memory_order_release);
  }
  {
    MutexLock lock(&stats_mu_);
    ++stats_.removes;
  }
  ctr_removes_->Add();
}

Status ViewIndex::Update(const Note& note, const NoteResolver* resolver,
                         Epoch epoch) {
  ctr_updates_->Add();
  return UpdateOne(note, resolver, 0, epoch);
}

Status ViewIndex::UpdateOne(const Note& note, const NoteResolver* resolver,
                            int depth, Epoch epoch) {
  {
    WriterLock lock(&mu_);
    RemoveLocationLocked(note.id(), epoch);
  }
  // Evaluation runs unlocked: a column formula may re-enter a view read
  // (@DbLookup), which must not deadlock against our own exclusive hold.
  // Mutators are serialized by the owning Database, so the gap between
  // the removal above and the placement below is invisible to snapshot
  // readers (they see the zombie); only a read at kEpochLatest could
  // observe it.
  std::optional<EvaluatedEntry> eval = EvaluateNote(note, resolver);
  if (eval.has_value()) {
    eval->entry.added_epoch = epoch;
    WriterLock lock(&mu_);
    PlaceEntryLocked(std::move(*eval), resolver);
  }
  // Membership/placement of responses depends on this note; re-evaluate
  // the known children (recursively through UpdateOne's own walk).
  if (needs_response_walk_ && resolver != nullptr &&
      depth < kMaxResponseDepth) {
    for (NoteId child_id : resolver->ChildrenOf(note.unid())) {
      NoteHandle child = resolver->FindByIdAt(child_id, epoch);
      if (child != nullptr) {
        DOMINO_RETURN_IF_ERROR(UpdateOne(*child, resolver, depth + 1, epoch));
      }
    }
  }
  return Status::Ok();
}

void ViewIndex::Remove(NoteId id, Epoch epoch) {
  WriterLock lock(&mu_);
  RemoveLocationLocked(id, epoch);
}

void ViewIndex::ReclaimVersions(Epoch floor) {
  if (zombie_count() == 0) return;  // no exclusive hold for readers to meet
  WriterLock lock(&mu_);
  // Zombies are queued in commit order, so the reclaimable prefix is
  // contiguous. A zombie removed at epoch R is only needed by pins < R.
  while (!zombies_.empty() && zombies_.front().removed <= floor) {
    ErasePhysicalLocked(zombies_.front().loc);
    zombies_.pop_front();
  }
  zombie_total_.store(zombies_.size(), std::memory_order_release);
}

size_t ViewIndex::reader_set_count() const {
  ReaderLock lock(&mu_);
  return reader_set_ids_.size();
}

void ViewIndex::ClearLocked() {
  rows_.clear();
  responses_.clear();
  row_of_note_.clear();
  zombies_.clear();
  zombie_total_.store(0, std::memory_order_release);
  gauge_reader_sets_->Add(-static_cast<int64_t>(reader_set_ids_.size()));
  reader_set_ids_.clear();
  reader_sets_.clear();
  free_reader_set_ids_.clear();
}

void ViewIndex::Clear() {
  WriterLock lock(&mu_);
  ClearLocked();
}

size_t ViewIndex::size() const {
  ReaderLock lock(&mu_);
  return row_of_note_.size();
}

Status ViewIndex::Rebuild(
    const std::function<void(const std::function<void(const Note&)>&)>&
        for_each_note,
    const NoteResolver* resolver) {
  auto start = std::chrono::steady_clock::now();
  Clear();
  {
    MutexLock lock(&stats_mu_);
    ++stats_.rebuilds;
  }
  ctr_rebuilds_->Add();
  // Parents must be indexed before their responses so placement works:
  // resolve each note's response depth once, then order by (depth,
  // arrival).
  auto depth_of = [resolver](const Note& n) {
    int depth = 0;
    const Note* cursor = &n;
    NoteHandle holder;  // keeps the current ancestor alive for the walk
    while (cursor->IsResponse() && resolver != nullptr &&
           depth < kMaxResponseDepth) {
      holder = resolver->FindByUnid(cursor->parent_unid());
      if (holder == nullptr) break;
      cursor = holder.get();
      ++depth;
    }
    return depth;
  };
  std::vector<Note> notes;
  for_each_note([&notes](const Note& n) { notes.push_back(n); });
  std::vector<std::pair<int, size_t>> order;  // (depth, index into notes)
  order.reserve(notes.size());
  for (size_t i = 0; i < notes.size(); ++i) {
    order.emplace_back(depth_of(notes[i]), i);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [depth, i] : order) {
    // Depth 32 suppresses the response re-walk; ordering already
    // guarantees parents were indexed first. Rebuilt entries are
    // unversioned — visible at every epoch (see header).
    DOMINO_RETURN_IF_ERROR(
        UpdateOne(notes[i], resolver, kMaxResponseDepth, kEpochNone));
  }
  hist_rebuild_micros_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return Status::Ok();
}

std::vector<const ViewEntry*> ViewIndex::EntriesLocked(Epoch at) const {
  std::vector<const ViewEntry*> out;
  out.reserve(rows_.size());
  for (const auto& [key, entry] : rows_) {
    if (EpochVisible(entry.added_epoch, entry.removed_epoch, at)) {
      out.push_back(&entry);
    }
  }
  return out;
}

std::vector<const ViewEntry*> ViewIndex::EntriesAt(Epoch at) const {
  ReaderLock lock(&mu_);
  return EntriesLocked(at);
}

void ViewIndex::EmitEntryAndResponses(
    const ViewEntry& entry, int indent, Epoch at,
    const std::function<void(const ViewRow&)>& visit) const {
  ViewRow row;
  row.kind = ViewRow::Kind::kDocument;
  row.indent = indent;
  row.entry = &entry;
  row.reader_names = ReaderNamesLocked(entry.reader_set);
  visit(row);
  auto it = responses_.find(entry.unid);
  if (it == responses_.end()) return;
  for (const auto& [key, resp] : it->second) {
    if (!EpochVisible(resp.added_epoch, resp.removed_epoch, at)) continue;
    EmitEntryAndResponses(resp, indent + 1, at, visit);
  }
}

size_t ViewIndex::CountOfLocked(const ViewEntry& entry, Epoch at) const {
  size_t n = 1;
  auto it = responses_.find(entry.unid);
  if (it != responses_.end()) {
    for (const auto& [key, resp] : it->second) {
      if (!EpochVisible(resp.added_epoch, resp.removed_epoch, at)) continue;
      n += CountOfLocked(resp, at);
    }
  }
  return n;
}

void ViewIndex::TraverseAt(
    Epoch at, const std::function<void(const ViewRow&)>& visit) const {
  ReaderLock lock(&mu_);
  std::vector<const ViewEntry*> list = EntriesLocked(at);
  const size_t levels = category_columns_.size();
  if (levels == 0) {
    for (const ViewEntry* entry : list) {
      EmitEntryAndResponses(*entry, 0, at, visit);
    }
    return;
  }
  const size_t n = list.size();

  // One flat table of category text, `levels` cells per entry. A
  // single-text value is viewed in place in the entry; any other value is
  // rendered once, into `rendered`, which never moves what it holds.
  std::vector<std::string_view> cat_text(n * levels);
  std::deque<std::string> rendered;
  std::string scratch;
  for (size_t i = 0; i < n; ++i) {
    for (size_t l = 0; l < levels; ++l) {
      std::string_view text =
          list[i]->ColumnTextView(category_columns_[l], &scratch);
      if (text.data() == scratch.data()) text = rendered.emplace_back(text);
      cat_text[i * levels + l] = text;
    }
  }

  // docs_before[i]: documents (responses included) under entries [0, i),
  // so a run's count is one subtraction.
  std::vector<size_t> docs_before(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    docs_before[i + 1] = docs_before[i] + (responses_.empty()
                                               ? 1
                                               : CountOfLocked(*list[i], at));
  }

  // run_end[l]: one past the last entry of the open level-l category. A
  // run is scanned once, when it opens, and only within its parent run.
  std::vector<size_t> run_end(levels, 0);
  ViewRow category;
  category.kind = ViewRow::Kind::kCategory;
  for (size_t i = 0; i < n; ++i) {
    const std::string_view* cats = &cat_text[i * levels];
    size_t changed = 0;  // outermost level whose run ended before entry i
    while (changed < levels && i < run_end[changed]) ++changed;
    for (size_t l = changed; l < levels; ++l) {
      const size_t bound = l == 0 ? n : run_end[l - 1];
      size_t end = i + 1;
      while (end < bound && cat_text[end * levels + l] == cats[l]) ++end;
      run_end[l] = end;
      category.indent = static_cast<int>(l);
      category.category.assign(cats[l]);
      category.descendant_count = docs_before[end] - docs_before[i];
      visit(category);
    }
    EmitEntryAndResponses(*list[i], static_cast<int>(levels), at, visit);
  }
}

std::vector<const ViewEntry*> ViewIndex::FindByKeyAt(const Value& key,
                                                     Epoch at) const {
  ReaderLock lock(&mu_);
  std::vector<const ViewEntry*> out;
  if (descending_.empty()) {
    // No sorted column: fall back to comparing the first column's value.
    for (const auto& [rk, entry] : rows_) {
      if (!EpochVisible(entry.added_epoch, entry.removed_epoch, at)) continue;
      if (!entry.column_values.empty() &&
          CompareValues(entry.column_values[0], key) == 0) {
        out.push_back(&entry);
      }
    }
    return out;
  }
  std::string prefix;
  EncodeCollationElement(key, descending_[0], &prefix);
  RowKey probe;
  probe.collation_key = prefix;
  probe.id = 0;
  for (auto it = rows_.lower_bound(probe); it != rows_.end(); ++it) {
    if (!StartsWith(it->first.collation_key, prefix)) break;
    if (!EpochVisible(it->second.added_epoch, it->second.removed_epoch, at)) {
      continue;
    }
    out.push_back(&it->second);
  }
  return out;
}

ViewStats ViewIndex::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

}  // namespace dominodb
