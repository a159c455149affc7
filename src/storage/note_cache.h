#ifndef DOMINODB_STORAGE_NOTE_CACHE_H_
#define DOMINODB_STORAGE_NOTE_CACHE_H_

#include <array>
#include <cstddef>
#include <list>
#include <unordered_map>

#include "base/shared_mutex.h"
#include "base/thread_annotations.h"
#include "model/note.h"
#include "stats/stats.h"

namespace dominodb {

/// Byte-bounded cache of decoded notes, keyed by note id, so resolving a
/// hot note is a refcount instead of a page pin plus a decode. Split into
/// shards, each with its own mutex, second-chance (CLOCK) list and an
/// equal share of the budget; an entry is charged `Charge(note)`, an
/// estimate of the heap the cached note holds, so the budget bounds
/// memory rather than the note's encoded size.
///
/// The cache knows nothing about versions: its owner (NoteStore) erases
/// an id whenever the id's table entry changes, and inserts only while
/// holding its own lock shared, so no insert can race an erase.
///
/// Stats: `Store.NoteCache.{Hits,Misses,Evictions}` counters and the
/// `Store.NoteCache.Bytes` gauge (added to, not set, so stores sharing a
/// registry sum up).
class NoteCache {
 public:
  NoteCache(size_t budget_bytes, stats::StatRegistry* registry);
  ~NoteCache();
  NoteCache(const NoteCache&) = delete;
  NoteCache& operator=(const NoteCache&) = delete;

  /// Null on a miss (counted as one).
  NoteHandle Lookup(NoteId id);
  /// Lookup for `n` ids at once, taking each shard's lock once: sets
  /// out[i] to the cached note of ids[i] and leaves it alone on a miss.
  /// Counts nothing; the caller reports the outcome with CountLookups.
  void LookupMany(const NoteId* ids, size_t n, NoteHandle* out);
  void CountLookups(uint64_t hits, uint64_t misses);
  /// Caches `note` under `id`, evicting from the tail of the shard's list
  /// until it fits; an entry hit since eviction last passed it moves to
  /// the front instead, once. A note larger than a shard's share is not
  /// cached; an id already present keeps its entry.
  void Insert(NoteId id, NoteHandle note);
  void Erase(NoteId id);
  void Clear();

  /// Heap bytes a cached `note` holds: the note with its `shared_ptr`
  /// control block, the item block, every item's strings and value
  /// lists, the cache's own list and index nodes, plus a per-allocation
  /// malloc overhead. Counts capacities, not sizes.
  static size_t Charge(const Note& note);

 private:
  static constexpr size_t kShards = 16;

  struct Entry {
    NoteId id;
    NoteHandle note;
    size_t charge;
    bool referenced = false;  // hit since eviction last passed it
  };
  struct Shard {
    Mutex mu;
    /// Front = most recently inserted or given a second chance.
    std::list<Entry> lru GUARDED_BY(mu);
    std::unordered_map<NoteId, std::list<Entry>::iterator> index
        GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(NoteId id) { return shards_[id % kShards]; }
  void EraseLocked(Shard* shard, std::list<Entry>::iterator it)
      REQUIRES(shard->mu);

  const size_t shard_budget_;
  std::array<Shard, kShards> shards_;
  stats::Counter* hits_;
  stats::Counter* misses_;
  stats::Counter* evictions_;
  stats::Gauge* gauge_bytes_;
};

}  // namespace dominodb

#endif  // DOMINODB_STORAGE_NOTE_CACHE_H_
