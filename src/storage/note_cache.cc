#include "storage/note_cache.h"

#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace dominodb {

namespace {

/// Chunk header and rounding malloc adds to every allocation.
constexpr size_t kMallocOverhead = 16;

size_t Alloc(size_t bytes) { return bytes == 0 ? 0 : bytes + kMallocOverhead; }

size_t HeapBytes(const std::string& s) {
  // A string within the small-string buffer owns no heap.
  static const size_t inline_capacity = std::string().capacity();
  return s.capacity() > inline_capacity ? Alloc(s.capacity() + 1) : 0;
}

template <typename T>
size_t HeapBytes(const std::vector<T>& v) {
  return Alloc(v.capacity() * sizeof(T));
}

size_t HeapBytes(const Value& value) {
  size_t n = HeapBytes(value.texts()) + HeapBytes(value.numbers()) +
             HeapBytes(value.times()) + HeapBytes(value.runs());
  for (const std::string& s : value.texts()) n += HeapBytes(s);
  for (const RichTextRun& run : value.runs()) {
    n += HeapBytes(run.text) + HeapBytes(run.attachment_name);
  }
  return n;
}

}  // namespace

size_t NoteCache::Charge(const Note& note) {
  // The note, and apart from it the handle's control block (a vtable
  // pointer, two counts and the note pointer); the list node holds an
  // Entry behind two links; the index node holds a link, the key and a
  // list iterator, plus one bucket pointer; the shared item block holds
  // the item vector and its count.
  size_t n = Alloc(sizeof(Note)) + Alloc(2 * sizeof(void*) + 8) +
             Alloc(2 * sizeof(void*) + sizeof(Entry)) +
             Alloc(2 * sizeof(void*) + sizeof(NoteId)) + sizeof(void*) +
             Alloc(Note::kItemBlockBytes);
  n += HeapBytes(note.revisions()) + HeapBytes(note.items());
  for (const Item& item : note.items()) {
    n += HeapBytes(item.name) + HeapBytes(item.value);
  }
  return n;
}

NoteCache::NoteCache(size_t budget_bytes, stats::StatRegistry* registry)
    : shard_budget_(budget_bytes / kShards),
      hits_(&registry->GetCounter("Store.NoteCache.Hits")),
      misses_(&registry->GetCounter("Store.NoteCache.Misses")),
      evictions_(&registry->GetCounter("Store.NoteCache.Evictions")),
      gauge_bytes_(&registry->GetGauge("Store.NoteCache.Bytes")) {}

NoteCache::~NoteCache() { Clear(); }

NoteHandle NoteCache::Lookup(NoteId id) {
  NoteHandle note;
  LookupMany(&id, 1, &note);
  CountLookups(note != nullptr ? 1 : 0, note != nullptr ? 0 : 1);
  return note;
}

void NoteCache::LookupMany(const NoteId* ids, size_t n, NoteHandle* out) {
  static_assert(kShards <= 32, "shard set must fit a uint32_t");
  uint32_t shards_used = 0;
  for (size_t i = 0; i < n; ++i) shards_used |= 1u << (ids[i] % kShards);
  for (size_t s = 0; s < kShards; ++s) {
    if ((shards_used & (1u << s)) == 0) continue;
    Shard& shard = shards_[s];
    MutexLock lock(&shard.mu);
    for (size_t i = 0; i < n; ++i) {
      if (ids[i] % kShards != s) continue;
      auto it = shard.index.find(ids[i]);
      if (it == shard.index.end()) continue;
      // A hit leaves the list order alone and writes the entry only when
      // its bit is clear, so threads reading the same notes do not keep
      // moving each other's list nodes.
      Entry& entry = *it->second;
      if (!entry.referenced) entry.referenced = true;
      out[i] = entry.note;
    }
  }
}

void NoteCache::CountLookups(uint64_t hits, uint64_t misses) {
  if (hits > 0) hits_->Add(hits);
  if (misses > 0) misses_->Add(misses);
}

void NoteCache::Insert(NoteId id, NoteHandle note) {
  const size_t charge = Charge(*note);
  if (charge > shard_budget_) return;
  Shard& shard = ShardFor(id);
  // Handles of evicted entries are dropped after the shard lock: the last
  // reference frees a whole note.
  std::list<Entry> evicted;
  {
    MutexLock lock(&shard.mu);
    if (shard.index.count(id) != 0) return;
    while (shard.bytes + charge > shard_budget_) {
      auto victim = std::prev(shard.lru.end());
      if (victim->referenced) {  // hit since last passed: a second chance
        victim->referenced = false;
        shard.lru.splice(shard.lru.begin(), shard.lru, victim);
        continue;
      }
      shard.bytes -= victim->charge;
      shard.index.erase(victim->id);
      evicted.splice(evicted.end(), shard.lru, victim);
    }
    shard.lru.push_front(Entry{id, std::move(note), charge});
    shard.index.emplace(id, shard.lru.begin());
    shard.bytes += charge;
  }
  size_t freed = 0;
  for (const Entry& e : evicted) freed += e.charge;
  evictions_->Add(evicted.size());
  gauge_bytes_->Add(static_cast<int64_t>(charge) -
                    static_cast<int64_t>(freed));
}

void NoteCache::EraseLocked(Shard* shard, std::list<Entry>::iterator it) {
  shard->bytes -= it->charge;
  gauge_bytes_->Add(-static_cast<int64_t>(it->charge));
  shard->index.erase(it->id);
  shard->lru.erase(it);
}

void NoteCache::Erase(NoteId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu);
  auto it = shard.index.find(id);
  if (it != shard.index.end()) EraseLocked(&shard, it->second);
}

void NoteCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    while (!shard.lru.empty()) EraseLocked(&shard, shard.lru.begin());
  }
}

}  // namespace dominodb
