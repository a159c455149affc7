#include "model/note.h"

#include <algorithm>

#include "base/coding.h"
#include "base/string_util.h"

namespace dominodb {

std::string_view NoteClassName(NoteClass c) {
  switch (c) {
    case NoteClass::kDocument:
      return "Document";
    case NoteClass::kView:
      return "View";
    case NoteClass::kForm:
      return "Form";
    case NoteClass::kAcl:
      return "ACL";
    case NoteClass::kAgent:
      return "Agent";
    case NoteClass::kDesign:
      return "Design";
  }
  return "Unknown";
}

bool Note::HasRevision(Micros t) const {
  if (t == oid_.sequence_time) return true;
  return std::find(revisions_.begin(), revisions_.end(), t) !=
         revisions_.end();
}

void Note::StampCreated(const Unid& unid, Micros now) {
  oid_.unid = unid;
  oid_.sequence = 1;
  oid_.sequence_time = now;
  created_ = now;
  deleted_ = false;
  revisions_.clear();
}

void Note::BumpSequence(Micros now) {
  revisions_.push_back(oid_.sequence_time);
  if (revisions_.size() > kMaxRevisions) {
    revisions_.erase(revisions_.begin(),
                     revisions_.begin() + (revisions_.size() - kMaxRevisions));
  }
  oid_.sequence += 1;
  oid_.sequence_time = now;
}

const std::vector<Item>& Note::CowItems::get() const {
  static const std::vector<Item> kNone;
  return block_ != nullptr ? block_->items : kNone;
}

std::vector<Item>& Note::CowItems::Mutable() {
  if (block_ == nullptr) {
    block_ = new Block;
  } else if (block_->refs.load(std::memory_order_acquire) != 1) {
    // Shared: the other owners keep the old block untouched.
    auto copy = std::make_unique<Block>();
    copy->items = block_->items;
    Release();
    block_ = copy.release();
  }
  return block_->items;
}

void Note::CowItems::Release() noexcept {
  if (block_ != nullptr &&
      block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete block_;
  }
  block_ = nullptr;
}

void Note::MakeStub(Micros now) {
  items_ = CowItems();
  deleted_ = true;
  BumpSequence(now);
}

void Note::SetReplicationState(const Oid& oid, std::vector<Micros> revisions,
                               Micros created, bool deleted) {
  oid_ = oid;
  revisions_ = std::move(revisions);
  created_ = created;
  deleted_ = deleted;
}

void Note::SetItem(std::string_view name, Value value, uint8_t flags) {
  std::vector<Item>& items = items_.Mutable();
  for (Item& item : items) {
    if (EqualsIgnoreCase(item.name, name)) {
      item.value = std::move(value);
      item.flags = flags;
      return;
    }
  }
  items.push_back(Item{std::string(name), std::move(value), flags});
}

void Note::SetText(std::string_view name, std::string text) {
  SetItem(name, Value::Text(std::move(text)));
}

void Note::SetTextList(std::string_view name, std::vector<std::string> list) {
  SetItem(name, Value::TextList(std::move(list)));
}

void Note::SetNumber(std::string_view name, double number) {
  SetItem(name, Value::Number(number));
}

void Note::SetTime(std::string_view name, Micros t) {
  SetItem(name, Value::DateTime(t));
}

bool Note::HasItem(std::string_view name) const {
  return FindItem(name) != nullptr;
}

const Item* Note::FindItem(std::string_view name) const {
  for (const Item& item : items()) {
    if (EqualsIgnoreCase(item.name, name)) return &item;
  }
  return nullptr;
}

const Value* Note::FindValue(std::string_view name) const {
  const Item* item = FindItem(name);
  return item ? &item->value : nullptr;
}

std::string Note::GetText(std::string_view name,
                          std::string_view fallback) const {
  const Value* v = FindValue(name);
  return v ? v->AsText() : std::string(fallback);
}

double Note::GetNumber(std::string_view name, double fallback) const {
  const Value* v = FindValue(name);
  return v ? v->AsNumber() : fallback;
}

Micros Note::GetTime(std::string_view name, Micros fallback) const {
  const Value* v = FindValue(name);
  return v ? v->AsTime() : fallback;
}

bool Note::RemoveItem(std::string_view name) {
  const Item* found = FindItem(name);
  if (found == nullptr) return false;  // no clone for a no-op
  const size_t index = static_cast<size_t>(found - items().data());
  std::vector<Item>& items = items_.Mutable();
  items.erase(items.begin() + static_cast<std::ptrdiff_t>(index));
  return true;
}

size_t Note::ByteSize() const {
  size_t n = 64;  // metadata
  for (const Item& item : items()) {
    n += item.name.size() + 2 + item.value.ByteSize();
  }
  return n;
}

bool Note::EqualsContent(const Note& other) const {
  if (deleted_ != other.deleted_ || class_ != other.class_ ||
      parent_ != other.parent_ || items().size() != other.items().size()) {
    return false;
  }
  // Order-insensitive item comparison (item order is not semantic).
  for (const Item& item : items()) {
    const Item* o = other.FindItem(item.name);
    if (o == nullptr || !(o->value == item.value) || o->flags != item.flags) {
      return false;
    }
  }
  return true;
}

void Note::EncodeTo(std::string* dst) const {
  PutFixed32(dst, id_);
  PutFixed64(dst, oid_.unid.hi);
  PutFixed64(dst, oid_.unid.lo);
  PutFixed32(dst, oid_.sequence);
  PutVarSigned64(dst, oid_.sequence_time);
  PutVarSigned64(dst, modified_in_file_);
  dst->push_back(static_cast<char>(class_));
  PutVarSigned64(dst, created_);
  dst->push_back(deleted_ ? 1 : 0);
  PutFixed64(dst, parent_.hi);
  PutFixed64(dst, parent_.lo);
  PutVarint64(dst, revisions_.size());
  for (Micros t : revisions_) PutVarSigned64(dst, t);
  PutVarint64(dst, items().size());
  for (const Item& item : items()) {
    PutLengthPrefixed(dst, item.name);
    dst->push_back(static_cast<char>(item.flags));
    PutVarSigned64(dst, item.modified);
    item.value.EncodeTo(dst);
  }
}

Status Note::DecodeFrom(std::string_view* input, Note* out) {
  Note n;
  uint32_t id = 0;
  uint64_t hi = 0, lo = 0;
  uint32_t seq = 0;
  int64_t seq_time = 0, created = 0, modified_in_file = 0;
  if (!GetFixed32(input, &id) || !GetFixed64(input, &hi) ||
      !GetFixed64(input, &lo) || !GetFixed32(input, &seq) ||
      !GetVarSigned64(input, &seq_time) ||
      !GetVarSigned64(input, &modified_in_file)) {
    return Status::Corruption("note: bad header");
  }
  if (input->empty()) return Status::Corruption("note: truncated class");
  auto cls = static_cast<NoteClass>(input->front());
  input->remove_prefix(1);
  if (cls > NoteClass::kDesign) return Status::Corruption("note: bad class");
  if (!GetVarSigned64(input, &created)) {
    return Status::Corruption("note: bad created");
  }
  if (input->empty()) return Status::Corruption("note: truncated deleted");
  bool deleted = input->front() != 0;
  input->remove_prefix(1);
  uint64_t phi = 0, plo = 0;
  if (!GetFixed64(input, &phi) || !GetFixed64(input, &plo)) {
    return Status::Corruption("note: bad parent unid");
  }
  uint64_t nrev = 0;
  if (!GetVarint64(input, &nrev) || nrev > kMaxRevisions) {
    return Status::Corruption("note: bad revision count");
  }
  n.revisions_.reserve(nrev);
  for (uint64_t i = 0; i < nrev; ++i) {
    int64_t t = 0;
    if (!GetVarSigned64(input, &t)) {
      return Status::Corruption("note: bad revision");
    }
    n.revisions_.push_back(t);
  }
  uint64_t nitems = 0;
  if (!GetVarint64(input, &nitems)) {
    return Status::Corruption("note: bad item count");
  }
  // Each item consumes several input bytes; bound before reserving.
  if (nitems > input->size()) {
    return Status::Corruption("note: item count exceeds input");
  }
  std::vector<Item>& items = n.items_.Mutable();
  items.reserve(nitems);
  for (uint64_t i = 0; i < nitems; ++i) {
    Item item;
    std::string_view name;
    if (!GetLengthPrefixed(input, &name)) {
      return Status::Corruption("note: bad item name");
    }
    item.name = std::string(name);
    if (input->empty()) return Status::Corruption("note: bad item flags");
    item.flags = static_cast<uint8_t>(input->front());
    input->remove_prefix(1);
    if (!GetVarSigned64(input, &item.modified)) {
      return Status::Corruption("note: bad item modified stamp");
    }
    DOMINO_RETURN_IF_ERROR(Value::DecodeFrom(input, &item.value));
    items.push_back(std::move(item));
  }
  n.id_ = id;
  n.oid_ = Oid{Unid{hi, lo}, seq, seq_time};
  n.modified_in_file_ = modified_in_file;
  n.class_ = cls;
  n.created_ = created;
  n.deleted_ = deleted;
  n.parent_ = Unid{phi, plo};
  *out = std::move(n);
  return Status::Ok();
}

void Note::StampItemModifications(const Note* previous, Micros t) {
  for (Item& item : items_.Mutable()) {
    const Item* old = previous != nullptr ? previous->FindItem(item.name)
                                          : nullptr;
    if (old == nullptr || !(old->value == item.value) ||
        old->flags != item.flags) {
      item.modified = t;
    } else {
      item.modified = old->modified;
    }
  }
}

Micros Note::LatestCommonRevision(const Note& a, const Note& b) {
  auto times_of = [](const Note& n) {
    std::vector<Micros> times = n.revisions();
    times.push_back(n.sequence_time());
    return times;
  };
  Micros best = 0;
  std::vector<Micros> b_times = times_of(b);
  for (Micros t : times_of(a)) {
    if (t > best &&
        std::find(b_times.begin(), b_times.end(), t) != b_times.end()) {
      best = t;
    }
  }
  return best;
}

std::string Note::EncodeToString() const {
  std::string out;
  EncodeTo(&out);
  return out;
}

Status Note::DecodeFromString(std::string_view data, Note* out) {
  std::string_view input = data;
  DOMINO_RETURN_IF_ERROR(DecodeFrom(&input, out));
  if (!input.empty()) {
    return Status::Corruption("note: trailing bytes");
  }
  return Status::Ok();
}

}  // namespace dominodb
