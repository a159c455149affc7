#include "storage/note_store.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <limits>
#include <system_error>
#include <thread>

#include "base/coding.h"
#include "base/crc32c.h"
#include "base/env.h"

namespace dominodb {

namespace {

// Batch entry opcodes inside a kData WAL record.
constexpr uint8_t kOpPut = 1;
constexpr uint8_t kOpErase = 2;
constexpr uint8_t kOpInfo = 3;

constexpr char kMetaMagic[] = "DMET1";
// Version 2: 40-byte id-table entries carrying the modified-in-file stamp.
constexpr uint8_t kMetaVersion = 2;
constexpr uint8_t kPagerSnapshotVersion = 1;

// Id-table entry: unid(16) + page(4) + slot(2) + flags(1) + pad(1) +
// sequence time(8) + modified-in-file time(8).
constexpr size_t kIdEntrySize = 40;
constexpr uint8_t kEntryUsed = 1;
constexpr uint8_t kEntryDeleted = 2;
constexpr uint8_t kEntryOverflow = 4;

// A bucket slot costs its length prefix (2) plus its directory word (2)
// on top of the payload bytes.
constexpr size_t kSlotOverhead = 4;
constexpr uint16_t kDeadSlot = 0xFFFF;

using pager::kInvalidPage;
using pager::kPageHeaderSize;
using pager::LoadU16;
using pager::LoadU32;
using pager::LoadU64;
using pager::StoreU16;
using pager::StoreU32;
using pager::StoreU64;

uint16_t PageNSlots(const char* page) {
  return LoadU16(page + pager::kPageNSlotsOffset);
}
uint16_t PageFreeOff(const char* page) {
  return LoadU16(page + pager::kPageFreeOffOffset);
}
uint32_t PageNext(const char* page) {
  return LoadU32(page + pager::kPageNextOffset);
}
uint8_t PageTypeOf(const char* page) {
  return static_cast<uint8_t>(page[pager::kPageTypeOffset]);
}
// Directory word of slot `i` sits at the page tail, growing downward.
size_t DirOffset(uint32_t page_size, size_t i) {
  return page_size - 2 * (i + 1);
}

// Stores written with another id-table layout are refused, not converted.
Status UnsupportedMetaVersion(std::string_view where, uint8_t version) {
  return Status::NotSupported(
      std::string(where) + ": store format version " +
      std::to_string(version) + " is not supported (this build reads only " +
      "version " + std::to_string(kMetaVersion) +
      "); re-create the database and replicate it back in");
}

/// The WriteScope open on this thread, if any.
thread_local WriteScope* t_write_scope = nullptr;

}  // namespace

// -- WriteScope ------------------------------------------------------------

WriteScope::WriteScope() {
  assert(t_write_scope == nullptr && "WriteScopes do not nest");
  t_write_scope = this;
}

WriteScope::~WriteScope() {
  // An error path that skipped Finish: still sync what was appended (a
  // failure here leaves the state a crash would).
  Finish().ok();
  t_write_scope = nullptr;
}

WriteScope* WriteScope::Current() { return t_write_scope; }

void WriteScope::Defer(wal::SharedLog* log, uint64_t seq) {
  for (auto& [known, through] : unsynced_) {
    if (known == log) {
      through = std::max(through, seq);
      return;
    }
  }
  unsynced_.emplace_back(log, seq);
}

Status WriteScope::Finish() {
  if (unsynced_.empty()) return Status::Ok();
  // The flushes overlap, as they would on servers with a disk each: the
  // calling thread syncs the first log, a short-lived thread each of the
  // others. SharedLog is thread-safe, and the helpers touch nothing else.
  std::vector<Status> others(unsynced_.size() - 1);
  std::vector<std::thread> helpers;
  helpers.reserve(others.size());  // no reallocation once threads run
  for (size_t i = 1; i < unsynced_.size(); ++i) {
    auto sync = [this, &others, i] {
      others[i - 1] = unsynced_[i].first->SyncThrough(unsynced_[i].second);
    };
    try {
      helpers.emplace_back(sync);
    } catch (const std::system_error&) {
      sync();  // no thread to be had: this log waits its turn
    }
  }
  Status first = unsynced_[0].first->SyncThrough(unsynced_[0].second);
  for (std::thread& helper : helpers) helper.join();
  for (const Status& status : others) {
    if (first.ok()) first = status;
  }
  unsynced_.clear();
  return first;
}

void DatabaseInfo::EncodeTo(std::string* dst) const {
  PutFixed64(dst, replica_id.hi);
  PutFixed64(dst, replica_id.lo);
  PutLengthPrefixed(dst, title);
  PutVarSigned64(dst, purge_interval);
}

Status DatabaseInfo::DecodeFrom(std::string_view* input, DatabaseInfo* out) {
  DatabaseInfo info;
  std::string_view title;
  if (!GetFixed64(input, &info.replica_id.hi) ||
      !GetFixed64(input, &info.replica_id.lo) ||
      !GetLengthPrefixed(input, &title) ||
      !GetVarSigned64(input, &info.purge_interval)) {
    return Status::Corruption("database info: truncated");
  }
  info.title = std::string(title);
  *out = std::move(info);
  return Status::Ok();
}

NoteStore::NoteStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  registry_ = options_.stats != nullptr ? options_.stats
                                        : &stats::StatRegistry::Global();
  ctr_docs_added_ = &registry_->GetCounter("Database.Docs.Added");
  ctr_docs_updated_ = &registry_->GetCounter("Database.Docs.Updated");
  ctr_docs_deleted_ = &registry_->GetCounter("Database.Docs.Deleted");
  ctr_docs_erased_ = &registry_->GetCounter("Database.Docs.Erased");
  ctr_checkpoints_ = &registry_->GetCounter("Database.Checkpoints");
  ctr_wal_records_ = &registry_->GetCounter("Database.WAL.Records");
  ctr_wal_bytes_ = &registry_->GetCounter("Database.WAL.Bytes");
  ctr_compact_runs_ = &registry_->GetCounter("Store.Compact.Runs");
  ctr_compact_pages_ = &registry_->GetCounter("Store.Compact.PagesReclaimed");
  ctr_compact_bytes_ = &registry_->GetCounter("Store.Compact.BytesReclaimed");
  ctr_compact_moved_ = &registry_->GetCounter("Store.Compact.NotesMoved");
  ctr_pages_freed_inline_ = &registry_->GetCounter("Store.Pages.FreedInline");
  ctr_read_errors_ = &registry_->GetCounter("Database.ReadErrors");
  gauge_notes_ = &registry_->GetGauge("Database.Docs.Current");
  gauge_dead_bytes_ = &registry_->GetGauge("Store.DeadBytes");
  hist_commit_micros_ =
      &registry_->GetHistogram("Database.WAL.CommitMicros");
}

Result<std::unique_ptr<NoteStore>> NoteStore::Open(
    const std::string& dir, const StoreOptions& options,
    const DatabaseInfo& default_info) {
  DOMINO_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  std::unique_ptr<NoteStore> store(new NoteStore(dir, options));

  // An existing meta file is authoritative for the page size; the pager
  // must be opened with it before anything else touches pages.
  std::string meta_blob;
  bool have_meta = false;
  uint32_t page_size = options.page_size;
  auto meta_bytes = ReadFileToString(store->MetaPath());
  if (meta_bytes.ok()) {
    std::string_view raw = *meta_bytes;
    constexpr size_t kMagicLen = sizeof(kMetaMagic) - 1;
    if (raw.size() < kMagicLen + 4 + 5 ||
        raw.substr(0, kMagicLen) != kMetaMagic) {
      return Status::Corruption("notes.meta: bad magic");
    }
    std::string_view body = raw.substr(kMagicLen, raw.size() - kMagicLen - 4);
    std::string_view crc_bytes = raw.substr(raw.size() - 4);
    uint32_t stored = 0;
    GetFixed32(&crc_bytes, &stored);
    if (crc32c::Unmask(stored) != crc32c::Value(body)) {
      return Status::Corruption("notes.meta: CRC mismatch");
    }
    if (static_cast<uint8_t>(body[0]) != kMetaVersion) {
      return UnsupportedMetaVersion("notes.meta",
                                    static_cast<uint8_t>(body[0]));
    }
    std::string_view peek = body.substr(1);
    if (!GetFixed32(&peek, &page_size)) {
      return Status::Corruption("notes.meta: truncated");
    }
    meta_blob = std::string(body);
    have_meta = true;
  } else if (!meta_bytes.status().IsNotFound()) {
    return meta_bytes.status();
  }
  if (page_size > 32768) {
    // Slot directories and chunk lengths are 16-bit offsets.
    return Status::InvalidArgument("page size must be <= 32768");
  }

  if (options.shared_log != nullptr) {
    store->log_ = options.shared_log;
    store->stream_ = options.shared_stream;
  } else {
    wal::SharedLogOptions log_options;
    log_options.sync_mode = options.sync_mode;
    log_options.stats = store->registry_;
    DOMINO_ASSIGN_OR_RETURN(store->own_log_,
                            wal::SharedLog::Open(dir + "/log", log_options));
    store->log_ = store->own_log_.get();
    DOMINO_ASSIGN_OR_RETURN(store->stream_,
                            store->own_log_->RegisterStream("notes"));
  }

  DOMINO_ASSIGN_OR_RETURN(store->pager_,
                          pager::Pager::Open(store->PagesPath(), page_size));
  store->pool_ = std::make_unique<pager::BufferPool>(
      store->pager_.get(), options.cache_pages, store->registry_);
  store->note_cache_ = std::make_unique<NoteCache>(
      options.cache_pages * page_size, store->registry_);

  {
    // Recovery runs before the store is published, but the helpers it
    // calls are annotated against the store lock — hold it for real.
    WriterLock lock(&store->mu_);
    DOMINO_RETURN_IF_ERROR(store->Recover(default_info, meta_blob, have_meta));
  }
  // Fresh = no meta and nothing replayed from the log; the seed metadata
  // is then persisted below so the replica id survives.
  const bool fresh = !have_meta && store->stats().recovered_records == 0;
  store->registry_->GetCounter("Database.Opens").Add();
  store->gauge_notes_->Add(static_cast<int64_t>(store->note_count()));
  if (fresh) {
    // Persist the seed metadata so the replica id survives reopen.
    DOMINO_RETURN_IF_ERROR(store->UpdateInfo(store->info()));
  }
  return store;
}

Status NoteStore::Recover(const DatabaseInfo& default_info,
                          std::string_view meta_blob, bool have_meta) {
  info_ = default_info;
  if (have_meta) {
    // Geometry only — no page reads yet. The index rebuild (which walks
    // id-table pages) waits until after WAL replay: a crash mid-checkpoint
    // can leave an id-table page torn, and the snapshot record in the log
    // must repair it before anything reads it.
    DOMINO_RETURN_IF_ERROR(DecodeMetaBlob(meta_blob));
  }
  // Demultiplex this stream, keeping only what follows its last
  // checkpoint marker or page-image snapshot. Everything before a marker
  // is already captured in the meta/page state loaded above. A snapshot
  // supersedes everything before it, and its images must go down first:
  // they repair any page torn by a crashed in-place checkpoint write
  // (replaying logical ops through a torn page would fail its CRC check).
  std::vector<std::pair<wal::RecordType, std::string>> records;
  bool torn = false;
  DOMINO_RETURN_IF_ERROR(log_->ReplayStream(
      stream_,
      [&records](wal::RecordType type, std::string_view payload) {
        if (type != wal::RecordType::kData) records.clear();
        if (type != wal::RecordType::kCheckpoint) {
          records.emplace_back(type, std::string(payload));
        }
        return Status::Ok();
      },
      &torn));
  {
    MutexLock stats_lock(&stats_mu_);
    stats_.recovered_torn_tail = torn;
  }
  for (const auto& [type, payload] : records) {
    if (type == wal::RecordType::kPagerSnapshot) {
      DOMINO_RETURN_IF_ERROR(AdoptPagerSnapshot(payload));
      continue;
    }
    DOMINO_RETURN_IF_ERROR(ApplyBatchPayload(payload));
    MutexLock stats_lock(&stats_mu_);
    stats_.recovered_records++;
  }
  // Authoritative index state from the (now repaired) id-table pages.
  // Replay above maintained counts incrementally; this scan replaces them
  // with ground truth and is idempotent after a snapshot adoption.
  DOMINO_RETURN_IF_ERROR(RebuildIndexFromIdTable());
  uint64_t recovered_records = 0;
  bool torn_tail = false;
  {
    MutexLock stats_lock(&stats_mu_);
    recovered_records = stats_.recovered_records;
    torn_tail = stats_.recovered_torn_tail;
  }
  if (recovered_records > 0 || torn_tail) {
    registry_->GetCounter("Database.WAL.Recovery.Runs").Add();
    registry_->GetCounter("Database.WAL.Recovery.Records")
        .Add(recovered_records);
    if (torn_tail) {
      registry_->GetCounter("Database.WAL.Recovery.TornTails").Add();
    }
    registry_->events().Log(
        torn_tail ? stats::Severity::kWarning : stats::Severity::kNormal,
        "Store",
        "WAL recovery ran: replayed " + std::to_string(recovered_records) +
            " record(s)" + (torn_tail ? ", torn tail discarded" : ""));
  }
  return Status::Ok();
}

// -- Meta / snapshot encoding ---------------------------------------------

std::string NoteStore::EncodeMetaBlob() const {
  std::string out;
  out.push_back(static_cast<char>(kMetaVersion));
  PutFixed32(&out, pager_->page_size());
  PutFixed32(&out, pager_->page_count());
  PutFixed32(&out, next_id_);
  PutFixed32(&out, fill_page_);
  std::string info;
  info_.EncodeTo(&info);
  PutLengthPrefixed(&out, info);
  std::vector<uint32_t> free_pages = pager_->FreePages();
  PutVarint64(&out, free_pages.size());
  for (uint32_t pg : free_pages) PutFixed32(&out, pg);
  PutVarint64(&out, id_table_pages_.size());
  for (uint32_t pg : id_table_pages_) PutFixed32(&out, pg);
  PutVarint64(&out, dead_bytes_.size());
  for (const auto& [pg, bytes] : dead_bytes_) {
    PutFixed32(&out, pg);
    PutVarint64(&out, bytes);
  }
  return out;
}

Status NoteStore::DecodeMetaBlob(std::string_view input) {
  if (input.empty()) return Status::Corruption("pager meta: empty");
  if (static_cast<uint8_t>(input[0]) != kMetaVersion) {
    return UnsupportedMetaVersion("pager meta",
                                  static_cast<uint8_t>(input[0]));
  }
  input.remove_prefix(1);
  uint32_t page_size = 0;
  uint32_t page_count = 0;
  uint32_t next_id = 0;
  uint32_t fill_page = 0;
  std::string_view info_bytes;
  if (!GetFixed32(&input, &page_size) || !GetFixed32(&input, &page_count) ||
      !GetFixed32(&input, &next_id) || !GetFixed32(&input, &fill_page) ||
      !GetLengthPrefixed(&input, &info_bytes)) {
    return Status::Corruption("pager meta: truncated header");
  }
  if (page_size != pager_->page_size()) {
    return Status::Corruption("pager meta: page size mismatch");
  }
  std::string_view info_cursor = info_bytes;
  DOMINO_RETURN_IF_ERROR(DatabaseInfo::DecodeFrom(&info_cursor, &info_));
  uint64_t n = 0;
  if (!GetVarint64(&input, &n)) return Status::Corruption("pager meta: free");
  std::vector<uint32_t> free_pages(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!GetFixed32(&input, &free_pages[i])) {
      return Status::Corruption("pager meta: free list truncated");
    }
  }
  if (!GetVarint64(&input, &n)) {
    return Status::Corruption("pager meta: id table");
  }
  std::vector<uint32_t> table(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!GetFixed32(&input, &table[i])) {
      return Status::Corruption("pager meta: id table truncated");
    }
  }
  if (!GetVarint64(&input, &n)) {
    return Status::Corruption("pager meta: dead bytes");
  }
  std::map<uint32_t, uint64_t> dead;
  uint64_t dead_total = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t pg = 0;
    uint64_t bytes = 0;
    if (!GetFixed32(&input, &pg) || !GetVarint64(&input, &bytes)) {
      return Status::Corruption("pager meta: dead bytes truncated");
    }
    dead[pg] = bytes;
    dead_total += bytes;
  }
  pager_->SetState(page_count, free_pages);
  next_id_ = next_id;
  fill_page_ = fill_page;
  id_table_pages_ = std::move(table);
  dead_bytes_ = std::move(dead);
  dead_total_ = dead_total;
  gauge_dead_bytes_->Set(static_cast<int64_t>(dead_total_));
  return Status::Ok();
}

std::string NoteStore::EncodePagerSnapshot() {
  std::string out;
  out.push_back(static_cast<char>(kPagerSnapshotVersion));
  PutLengthPrefixed(&out, EncodeMetaBlob());
  std::vector<std::pair<uint32_t, std::string>> images;
  pool_->ForEachDirty([&](uint32_t pgno, char* data) {
    images.emplace_back(pgno, std::string(data, pager_->page_size()));
    return Status::Ok();
  }).ok();
  PutVarint64(&out, images.size());
  for (auto& [pgno, image] : images) {
    PutFixed32(&out, pgno);
    PutLengthPrefixed(&out, image);
  }
  return out;
}

Status NoteStore::AdoptPagerSnapshot(std::string_view payload) {
  if (payload.empty() ||
      static_cast<uint8_t>(payload[0]) != kPagerSnapshotVersion) {
    return Status::Corruption("pager snapshot: unknown version");
  }
  payload.remove_prefix(1);
  std::string_view meta_blob;
  uint64_t image_count = 0;
  if (!GetLengthPrefixed(&payload, &meta_blob) ||
      !GetVarint64(&payload, &image_count)) {
    return Status::Corruption("pager snapshot: truncated");
  }
  // Everything buffered so far (including logical ops replayed before
  // this record) is superseded by the images + meta.
  pool_->DiscardAll();
  note_cache_->Clear();
  std::string scratch;
  for (uint64_t i = 0; i < image_count; ++i) {
    uint32_t pgno = 0;
    std::string_view image;
    if (!GetFixed32(&payload, &pgno) || !GetLengthPrefixed(&payload, &image) ||
        image.size() != pager_->page_size()) {
      return Status::Corruption("pager snapshot: truncated image");
    }
    scratch.assign(image);
    DOMINO_RETURN_IF_ERROR(pager_->WritePage(pgno, scratch.data()));
  }
  DOMINO_RETURN_IF_ERROR(pager_->Sync());
  DOMINO_RETURN_IF_ERROR(DecodeMetaBlob(meta_blob));
  return RebuildIndexFromIdTable();
}

Status NoteStore::RebuildIndexFromIdTable() {
  unid_index_.clear();
  modified_index_.clear();
  live_count_ = 0;
  stub_count_ = 0;
  const size_t per_page = EntriesPerPage();
  for (size_t ti = 0; ti < id_table_pages_.size(); ++ti) {
    DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref,
                            pool_->Pin(id_table_pages_[ti]));
    if (PageTypeOf(ref.data()) != pager::kPageIdTable) {
      return Status::Corruption("id-table page has wrong type");
    }
    for (size_t i = 0; i < per_page; ++i) {
      const char* p = ref.data() + kPageHeaderSize + i * kIdEntrySize;
      uint8_t flags = static_cast<uint8_t>(p[22]);
      if ((flags & kEntryUsed) == 0) continue;
      NoteId id = static_cast<NoteId>(ti * per_page + i + 1);
      Unid unid;
      unid.hi = LoadU64(p);
      unid.lo = LoadU64(p + 8);
      unid_index_[unid] = id;
      modified_index_.emplace(static_cast<Micros>(LoadU64(p + 32)), id);
      if (flags & kEntryDeleted) {
        ++stub_count_;
      } else {
        ++live_count_;
      }
      if (id >= next_id_) next_id_ = id + 1;
    }
  }
  return Status::Ok();
}

// -- Id-table access -------------------------------------------------------

size_t NoteStore::EntriesPerPage() const {
  return (pager_->page_size() - kPageHeaderSize) / kIdEntrySize;
}

Result<pager::PageRef> NoteStore::IdTablePageFor(NoteId id,
                                                 size_t* slot_in_page) const {
  const size_t per_page = EntriesPerPage();
  const size_t index = static_cast<size_t>(id - 1);
  const size_t ti = index / per_page;
  *slot_in_page = index % per_page;
  if (ti >= id_table_pages_.size()) {
    return Status::NotFound("note id beyond id table");
  }
  return pool_->Pin(id_table_pages_[ti]);
}

Status NoteStore::EnsureIdCapacity(NoteId id) {
  const size_t per_page = EntriesPerPage();
  const size_t ti = static_cast<size_t>(id - 1) / per_page;
  while (id_table_pages_.size() <= ti) {
    uint32_t pgno = pager_->Allocate();
    pool_->PinNew(pgno, pager::kPageIdTable);
    id_table_pages_.push_back(pgno);
  }
  return Status::Ok();
}

Result<NoteStore::IdEntry> NoteStore::ReadEntry(NoteId id,
                                                IdPageCursor* cursor) const {
  if (id == kInvalidNoteId) return IdEntry{};
  const size_t per_page = EntriesPerPage();
  const size_t index = static_cast<size_t>(id - 1);
  const size_t ti = index / per_page;
  if (ti >= id_table_pages_.size()) return IdEntry{};
  if (ti != cursor->table_index || !cursor->page) {
    DOMINO_ASSIGN_OR_RETURN(cursor->page, pool_->Pin(id_table_pages_[ti]));
    cursor->table_index = ti;
  }
  return DecodeEntry(cursor->page.data() + kPageHeaderSize +
                     (index % per_page) * kIdEntrySize);
}

NoteStore::IdEntry NoteStore::DecodeEntry(const char* p) {
  IdEntry entry;
  entry.unid.hi = LoadU64(p);
  entry.unid.lo = LoadU64(p + 8);
  entry.page = LoadU32(p + 16);
  entry.slot = LoadU16(p + 20);
  entry.flags = static_cast<uint8_t>(p[22]);
  entry.seq_time = static_cast<Micros>(LoadU64(p + 24));
  entry.modified = static_cast<Micros>(LoadU64(p + 32));
  return entry;
}

Status NoteStore::WriteEntry(NoteId id, const IdEntry& entry) {
  DOMINO_RETURN_IF_ERROR(EnsureIdCapacity(id));
  size_t slot = 0;
  DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, IdTablePageFor(id, &slot));
  char* p = ref.data() + kPageHeaderSize + slot * kIdEntrySize;
  StoreU64(p, entry.unid.hi);
  StoreU64(p + 8, entry.unid.lo);
  StoreU32(p + 16, entry.page);
  StoreU16(p + 20, entry.slot);
  p[22] = static_cast<char>(entry.flags);
  p[23] = 0;
  StoreU64(p + 24, static_cast<uint64_t>(entry.seq_time));
  StoreU64(p + 32, static_cast<uint64_t>(entry.modified));
  ref.MarkDirty();
  note_cache_->Erase(id);
  return Status::Ok();
}

// -- Note placement --------------------------------------------------------

Status NoteStore::PlaceSlot(std::string_view encoded, uint32_t* page,
                            uint16_t* slot) {
  const uint32_t page_size = pager_->page_size();
  pager::PageRef ref;
  if (fill_page_ != kInvalidPage) {
    DOMINO_ASSIGN_OR_RETURN(ref, pool_->Pin(fill_page_));
    const uint16_t nslots = PageNSlots(ref.data());
    const uint16_t free_off = PageFreeOff(ref.data());
    const size_t needed = encoded.size() + kSlotOverhead;
    if (free_off + needed > DirOffset(page_size, nslots)) {
      ref.Release();  // full — start a fresh fill page
      fill_page_ = kInvalidPage;
    }
  }
  if (fill_page_ == kInvalidPage) {
    uint32_t pgno = pager_->Allocate();
    ref = pool_->PinNew(pgno, pager::kPageBucket);
    StoreU16(ref.data() + pager::kPageFreeOffOffset,
             static_cast<uint16_t>(kPageHeaderSize));
    fill_page_ = pgno;
  }
  char* data = ref.data();
  const uint16_t nslots = PageNSlots(data);
  const uint16_t free_off = PageFreeOff(data);
  StoreU16(data + free_off, static_cast<uint16_t>(encoded.size()));
  std::memcpy(data + free_off + 2, encoded.data(), encoded.size());
  StoreU16(data + DirOffset(page_size, nslots), free_off);
  StoreU16(data + pager::kPageNSlotsOffset, static_cast<uint16_t>(nslots + 1));
  StoreU16(data + pager::kPageFreeOffOffset,
           static_cast<uint16_t>(free_off + 2 + encoded.size()));
  ref.MarkDirty();
  *page = fill_page_;
  *slot = nslots;
  return Status::Ok();
}

Status NoteStore::PlaceNote(std::string_view encoded, IdEntry* entry) {
  const uint32_t page_size = pager_->page_size();
  const size_t inline_max = page_size - kPageHeaderSize - kSlotOverhead;
  if (encoded.size() <= inline_max) {
    entry->flags &= static_cast<uint8_t>(~kEntryOverflow);
    return PlaceSlot(encoded, &entry->page, &entry->slot);
  }
  // Oversized note: spill into an overflow chain, one chunk per page.
  const size_t chunk_max = page_size - kPageHeaderSize;
  uint32_t first = kInvalidPage;
  pager::PageRef prev;
  size_t off = 0;
  while (off < encoded.size()) {
    const size_t chunk = std::min(chunk_max, encoded.size() - off);
    uint32_t pgno = pager_->Allocate();
    pager::PageRef ref = pool_->PinNew(pgno, pager::kPageOverflow);
    StoreU16(ref.data() + pager::kPageFreeOffOffset,
             static_cast<uint16_t>(chunk));
    std::memcpy(ref.data() + kPageHeaderSize, encoded.data() + off, chunk);
    ref.MarkDirty();
    if (first == kInvalidPage) {
      first = pgno;
    } else {
      StoreU32(prev.data() + pager::kPageNextOffset, pgno);
      prev.MarkDirty();
    }
    prev = std::move(ref);
    off += chunk;
  }
  entry->page = first;
  entry->slot = 0;
  entry->flags |= kEntryOverflow;
  return Status::Ok();
}

Status NoteStore::KillLocation(const IdEntry& entry) {
  if (entry.flags & kEntryOverflow) {
    uint32_t pgno = entry.page;
    while (pgno != kInvalidPage) {
      uint32_t next = kInvalidPage;
      {
        DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(pgno));
        if (PageTypeOf(ref.data()) != pager::kPageOverflow) {
          return Status::Corruption("overflow chain hits non-overflow page");
        }
        next = PageNext(ref.data());
      }
      pool_->Discard(pgno);
      pager_->Free(pgno);
      ctr_pages_freed_inline_->Add();
      pgno = next;
    }
    return Status::Ok();
  }
  bool whole_dead = true;
  {
    DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(entry.page));
    char* data = ref.data();
    const uint32_t page_size = pager_->page_size();
    const uint16_t nslots = PageNSlots(data);
    if (PageTypeOf(data) != pager::kPageBucket || entry.slot >= nslots) {
      return Status::Corruption("bad slot reference in id table");
    }
    const size_t dir = DirOffset(page_size, entry.slot);
    const uint16_t off = LoadU16(data + dir);
    if (off == kDeadSlot) {
      return Status::Corruption("double kill of bucket slot");
    }
    const uint16_t len = LoadU16(data + off);
    StoreU16(data + dir, kDeadSlot);
    ref.MarkDirty();
    dead_bytes_[entry.page] += len + kSlotOverhead;
    dead_total_ += len + kSlotOverhead;
    for (uint16_t i = 0; i < nslots && whole_dead; ++i) {
      if (LoadU16(data + DirOffset(page_size, i)) != kDeadSlot) {
        whole_dead = false;
      }
    }
  }
  if (whole_dead) {
    // Last live slot died: reclaim the page without waiting for COMPACT.
    dead_total_ -= dead_bytes_[entry.page];
    dead_bytes_.erase(entry.page);
    pool_->Discard(entry.page);
    pager_->Free(entry.page);
    if (fill_page_ == entry.page) fill_page_ = kInvalidPage;
    ctr_pages_freed_inline_->Add();
  }
  gauge_dead_bytes_->Set(static_cast<int64_t>(dead_total_));
  return Status::Ok();
}

Result<Note> NoteStore::ReadNoteAt(const IdEntry& entry) const {
  const uint32_t page_size = pager_->page_size();
  std::string buffer;
  std::string_view encoded;
  if (entry.flags & kEntryOverflow) {
    uint32_t pgno = entry.page;
    while (pgno != kInvalidPage) {
      DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(pgno));
      if (PageTypeOf(ref.data()) != pager::kPageOverflow) {
        return Status::Corruption("overflow chain hits non-overflow page");
      }
      const uint16_t chunk = PageFreeOff(ref.data());
      if (chunk > page_size - kPageHeaderSize ||
          buffer.size() + chunk > (1ull << 30)) {
        return Status::Corruption("overflow chunk out of bounds");
      }
      buffer.append(ref.data() + kPageHeaderSize, chunk);
      pgno = PageNext(ref.data());
    }
    encoded = buffer;
    Note note;
    DOMINO_RETURN_IF_ERROR(Note::DecodeFromString(encoded, &note));
    return note;
  }
  DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(entry.page));
  const char* data = ref.data();
  const uint16_t nslots = PageNSlots(data);
  if (PageTypeOf(data) != pager::kPageBucket || entry.slot >= nslots) {
    return Status::Corruption("bad slot reference in id table");
  }
  // Widened to page_size's type so the bounds sums compare unsigned.
  const uint32_t off = LoadU16(data + DirOffset(page_size, entry.slot));
  if (off == kDeadSlot || off < kPageHeaderSize || off + 2 > page_size) {
    return Status::Corruption("dead or out-of-bounds slot");
  }
  const uint32_t len = LoadU16(data + off);
  if (off + 2 + len > page_size) {
    return Status::Corruption("slot overruns page");
  }
  Note note;
  DOMINO_RETURN_IF_ERROR(
      Note::DecodeFromString(std::string_view(data + off + 2, len), &note));
  return note;
}

// -- Reads -----------------------------------------------------------------

Result<NoteHandle> NoteStore::ResolveEntry(NoteId id,
                                           const IdEntry& entry) const {
  if (NoteHandle cached = note_cache_->Lookup(id)) return cached;
  return LoadNote(id, entry);
}

Result<NoteHandle> NoteStore::LoadNote(NoteId id, const IdEntry& entry) const {
  // A miss decodes and inserts under mu_ shared, so no writer can change
  // the entry (and erase the id from the cache) in between.
  DOMINO_ASSIGN_OR_RETURN(Note note, ReadNoteAt(entry));
  // Not make_shared: the handle's counts, bumped by every reader that
  // copies the handle, stay off the note's own cache lines.
  auto handle = NoteHandle(new Note(std::move(note)));
  note_cache_->Insert(id, handle);
  return handle;
}

Result<Note> NoteStore::GetCore(NoteId id) const {
  // The id table, read through the pool, stays the authority on whether
  // a note exists; the cache only saves the bucket-page pin and decode.
  DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
  if ((entry.flags & kEntryUsed) == 0) {
    return Status::NotFound("note id " + std::to_string(id));
  }
  DOMINO_ASSIGN_OR_RETURN(NoteHandle note, ResolveEntry(id, entry));
  return *note;
}

void NoteStore::FindCore(const NoteId* ids, const uint32_t* order, size_t n,
                         NoteHandle* out) const {
  // The cache is searched first: under mu_ shared no writer can change
  // an entry or drop its cached note, so a cached note is the entry's.
  // The id table still decides existence.
  note_cache_->LookupMany(ids, n, out);
  uint64_t hits = 0;
  uint64_t misses = 0;
  IdPageCursor cursor;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = order[k];
    // ReadEntry answers an id beyond the table with an unused entry, so
    // any error it returns is a real one.
    auto entry = ReadEntry(ids[i], &cursor);
    if (!entry.ok()) {
      out[i] = nullptr;
      ReportReadError(ids[i], entry.status());
    } else if ((entry->flags & kEntryUsed) == 0) {
      out[i] = nullptr;
    } else if (out[i] != nullptr) {
      ++hits;
    } else {
      ++misses;
      auto note = LoadNote(ids[i], *entry);
      if (note.ok()) {
        out[i] = std::move(*note);
      } else {
        ReportReadError(ids[i], note.status());
      }
    }
  }
  note_cache_->CountLookups(hits, misses);
}

void NoteStore::ReportReadError(NoteId id, const Status& status) const {
  ctr_read_errors_->Add();
  registry_->events().Log(stats::Severity::kWarning, "Store",
                          "read of note id " + std::to_string(id) +
                              " failed: " + status.ToString());
}

Result<Note> NoteStore::Get(NoteId id) const {
  ReaderLock lock(&mu_);
  return GetCore(id);
}

Result<Note> NoteStore::GetByUnid(const Unid& unid) const {
  ReaderLock lock(&mu_);
  auto it = unid_index_.find(unid);
  if (it == unid_index_.end()) {
    return Status::NotFound("unid " + unid.ToString());
  }
  return GetCore(it->second);
}

std::vector<NoteId> NoteStore::IdsModifiedSince(Micros cutoff) const {
  ReaderLock lock(&mu_);
  std::vector<NoteId> ids;
  for (auto it = modified_index_.upper_bound(
           {cutoff, std::numeric_limits<NoteId>::max()});
       it != modified_index_.end(); ++it) {
    ids.push_back(it->second);
  }
  return ids;
}

Micros NoteStore::LatestModifiedStamp() const {
  ReaderLock lock(&mu_);
  return modified_index_.empty() ? 0 : modified_index_.rbegin()->first;
}

bool NoteStore::Contains(NoteId id) const {
  ReaderLock lock(&mu_);
  auto entry = ReadEntry(id);
  return entry.ok() && (entry->flags & kEntryUsed) != 0;
}

bool NoteStore::ContainsUnid(const Unid& unid) const {
  ReaderLock lock(&mu_);
  return unid_index_.count(unid) != 0;
}

NoteHandle NoteStore::Find(NoteId id) const {
  const uint32_t order = 0;
  NoteHandle out;
  ReaderLock lock(&mu_);
  FindCore(&id, &order, 1, &out);
  return out;
}

NoteHandle NoteStore::FindByUnid(const Unid& unid) const {
  const uint32_t order = 0;
  NoteHandle out;
  ReaderLock lock(&mu_);
  auto it = unid_index_.find(unid);
  if (it != unid_index_.end()) FindCore(&it->second, &order, 1, &out);
  return out;
}

std::vector<NoteHandle> NoteStore::FindMany(
    const std::vector<NoteId>& ids) const {
  std::vector<uint32_t> order(ids.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&ids](uint32_t a, uint32_t b) { return ids[a] < ids[b]; });
  std::vector<NoteHandle> out(ids.size());
  ReaderLock lock(&mu_);
  FindCore(ids.data(), order.data(), ids.size(), out.data());
  return out;
}

void NoteStore::ForEach(const std::function<void(const Note&)>& fn,
                        Visit visit) const {
  const uint8_t skip =
      visit == Visit::kLiveOnly ? kEntryDeleted : uint8_t{0};
  const size_t per_page = EntriesPerPage();
  size_t table_pages = 0;
  {
    ReaderLock lock(&mu_);
    table_pages = id_table_pages_.size();
  }
  for (size_t ti = 0; ti < table_pages; ++ti) {
    // Entry decode AND note reads happen under one shared hold (an entry
    // read without its note would go stale if a writer moved the note in
    // between); `fn` then runs with no lock held, so callbacks may
    // re-enter store reads without self-deadlocking on the shared lock.
    std::vector<Note> batch;
    {
      ReaderLock lock(&mu_);
      if (ti >= id_table_pages_.size()) break;
      std::vector<IdEntry> used;
      {
        auto ref_or = pool_->Pin(id_table_pages_[ti]);
        if (!ref_or.ok()) continue;
        for (size_t i = 0; i < per_page; ++i) {
          const char* p = ref_or->data() + kPageHeaderSize + i * kIdEntrySize;
          const uint8_t flags = static_cast<uint8_t>(p[22]);
          if ((flags & kEntryUsed) == 0 || (flags & skip) != 0) continue;
          used.push_back(DecodeEntry(p));
        }
      }
      batch.reserve(used.size());
      for (const IdEntry& entry : used) {
        auto note = ReadNoteAt(entry);
        if (note.ok()) batch.push_back(std::move(*note));
      }
    }
    for (const Note& note : batch) fn(note);
  }
}

// -- Apply (shared by live commits and recovery replay) --------------------

Result<std::pair<bool, bool>> NoteStore::ApplyNote(Note&& note) {
  const NoteId id = note.id();
  DOMINO_ASSIGN_OR_RETURN(IdEntry old_entry, ReadEntry(id));
  const bool existed = (old_entry.flags & kEntryUsed) != 0;
  const bool was_live = existed && (old_entry.flags & kEntryDeleted) == 0;
  if (existed) {
    DOMINO_RETURN_IF_ERROR(KillLocation(old_entry));
    if (!(old_entry.unid == note.unid())) {
      unid_index_.erase(old_entry.unid);
    }
    modified_index_.erase({old_entry.modified, id});
    if (old_entry.flags & kEntryDeleted) {
      --stub_count_;
    } else {
      --live_count_;
    }
  }
  std::string encoded = note.EncodeToString();
  IdEntry entry;
  entry.unid = note.unid();
  entry.flags = kEntryUsed;
  if (note.deleted()) entry.flags |= kEntryDeleted;
  entry.seq_time = note.sequence_time();
  entry.modified = note.modified_in_file();
  DOMINO_RETURN_IF_ERROR(PlaceNote(encoded, &entry));
  DOMINO_RETURN_IF_ERROR(WriteEntry(id, entry));
  unid_index_[note.unid()] = id;
  modified_index_.emplace(entry.modified, id);
  if (note.deleted()) {
    ++stub_count_;
  } else {
    ++live_count_;
  }
  if (id >= next_id_) next_id_ = id + 1;
  return std::make_pair(existed, was_live);
}

Status NoteStore::ApplyErase(NoteId id, const IdEntry& entry) {
  DOMINO_RETURN_IF_ERROR(KillLocation(entry));
  DOMINO_RETURN_IF_ERROR(WriteEntry(id, IdEntry{}));
  unid_index_.erase(entry.unid);
  modified_index_.erase({entry.modified, id});
  if (entry.flags & kEntryDeleted) {
    --stub_count_;
  } else {
    --live_count_;
  }
  return Status::Ok();
}

Status NoteStore::ApplyBatchPayload(std::string_view payload) {
  std::string_view input = payload;
  uint64_t count = 0;
  if (!GetVarint64(&input, &count)) {
    return Status::Corruption("batch: bad count");
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (input.empty()) return Status::Corruption("batch: truncated op");
    uint8_t op = static_cast<uint8_t>(input.front());
    input.remove_prefix(1);
    switch (op) {
      case kOpPut: {
        std::string_view encoded;
        if (!GetLengthPrefixed(&input, &encoded)) {
          return Status::Corruption("batch: truncated put");
        }
        Note note;
        DOMINO_RETURN_IF_ERROR(Note::DecodeFromString(encoded, &note));
        DOMINO_RETURN_IF_ERROR(ApplyNote(std::move(note)).status());
        break;
      }
      case kOpErase: {
        uint32_t id = 0;
        if (!GetFixed32(&input, &id)) {
          return Status::Corruption("batch: truncated erase");
        }
        DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
        if (entry.flags & kEntryUsed) {
          DOMINO_RETURN_IF_ERROR(ApplyErase(id, entry));
        }
        break;
      }
      case kOpInfo: {
        std::string_view encoded;
        if (!GetLengthPrefixed(&input, &encoded)) {
          return Status::Corruption("batch: truncated info");
        }
        std::string_view cursor = encoded;
        DOMINO_RETURN_IF_ERROR(DatabaseInfo::DecodeFrom(&cursor, &info_));
        break;
      }
      default:
        return Status::Corruption("batch: unknown op");
    }
  }
  return Status::Ok();
}

Status NoteStore::CommitPayload(const std::string& payload) {
  // Deliberately NOT under mu_: the append (and its fsync, under strict
  // sync modes) must not block concurrent shared-lock readers. Writers
  // are serialized by the owning Database, so two commits never race.
  auto start = std::chrono::steady_clock::now();
  DOMINO_ASSIGN_OR_RETURN(
      uint64_t seq, log_->Append(stream_, wal::RecordType::kData, payload));
  if (WriteScope* scope = WriteScope::Current(); scope != nullptr) {
    scope->Defer(log_, seq);
  } else {
    DOMINO_RETURN_IF_ERROR(log_->SyncThrough(seq));
  }
  bytes_since_checkpoint_.fetch_add(payload.size(),
                                    std::memory_order_relaxed);
  hist_commit_micros_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  ctr_wal_records_->Add();
  ctr_wal_bytes_->Add(payload.size());
  return Status::Ok();
}

Status NoteStore::MaybeCheckpoint() {
  if (options_.checkpoint_threshold_bytes == 0) return Status::Ok();
  if (wal_size_bytes() <= options_.checkpoint_threshold_bytes) {
    return Status::Ok();
  }
  return Checkpoint();
}

// -- Writes ----------------------------------------------------------------

Status NoteStore::Put(Note* note) {
  if (note->id() == kInvalidNoteId) note->set_id(AllocateId());
  if (note->unid().IsNull()) {
    return Status::InvalidArgument("note has null UNID; stamp it first");
  }
  std::string payload;
  PutVarint64(&payload, 1);
  payload.push_back(static_cast<char>(kOpPut));
  std::string encoded = note->EncodeToString();
  PutLengthPrefixed(&payload, encoded);
  DOMINO_RETURN_IF_ERROR(CommitPayload(payload));
  bool existed = false;
  bool was_live = false;
  {
    WriterLock lock(&mu_);
    DOMINO_ASSIGN_OR_RETURN(auto outcome, ApplyNote(Note(*note)));
    existed = outcome.first;
    was_live = outcome.second;
  }
  CountPut(existed, was_live, note->deleted());
  return Status::Ok();
}

void NoteStore::CountPut(bool existed, bool was_live, bool now_deleted) {
  if (now_deleted) {
    ctr_docs_deleted_->Add();
    if (was_live) gauge_notes_->Add(-1);
  } else if (!existed) {
    ctr_docs_added_->Add();
    gauge_notes_->Add(1);
  } else {
    ctr_docs_updated_->Add();
    // A live note replacing a stub (replication resurrect) re-enters the
    // live population.
    if (!was_live) gauge_notes_->Add(1);
  }
}

Status NoteStore::Erase(NoteId id) {
  {
    ReaderLock lock(&mu_);
    DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
    if ((entry.flags & kEntryUsed) == 0) {
      return Status::NotFound("note id " + std::to_string(id));
    }
  }
  std::string payload;
  PutVarint64(&payload, 1);
  payload.push_back(static_cast<char>(kOpErase));
  PutFixed32(&payload, id);
  DOMINO_RETURN_IF_ERROR(CommitPayload(payload));
  WriterLock lock(&mu_);
  // Re-read under the exclusive hold; writers are serialized externally,
  // so the entry cannot have changed between the check and here.
  DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
  if ((entry.flags & kEntryUsed) == 0) return Status::Ok();
  ctr_docs_erased_->Add();
  if ((entry.flags & kEntryDeleted) == 0) gauge_notes_->Add(-1);
  return ApplyErase(id, entry);
}

Result<std::vector<NoteId>> NoteStore::PurgeableStubs(
    Micros age_cutoff, Micros seen_cutoff) const {
  ReaderLock lock(&mu_);
  std::vector<NoteId> victims;
  const size_t per_page = EntriesPerPage();
  for (size_t ti = 0; ti < id_table_pages_.size(); ++ti) {
    DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref,
                            pool_->Pin(id_table_pages_[ti]));
    for (size_t i = 0; i < per_page; ++i) {
      const IdEntry entry =
          DecodeEntry(ref.data() + kPageHeaderSize + i * kIdEntrySize);
      if ((entry.flags & kEntryUsed) != 0 &&
          (entry.flags & kEntryDeleted) != 0 &&
          entry.seq_time < age_cutoff && entry.modified <= seen_cutoff) {
        victims.push_back(static_cast<NoteId>(ti * per_page + i + 1));
      }
    }
  }
  return victims;
}

Status NoteStore::UpdateInfo(const DatabaseInfo& info) {
  std::string payload;
  PutVarint64(&payload, 1);
  payload.push_back(static_cast<char>(kOpInfo));
  std::string encoded;
  info.EncodeTo(&encoded);
  PutLengthPrefixed(&payload, encoded);
  DOMINO_RETURN_IF_ERROR(CommitPayload(payload));
  WriterLock lock(&mu_);
  info_ = info;
  return Status::Ok();
}

DatabaseInfo NoteStore::info() const {
  ReaderLock lock(&mu_);
  return info_;
}

StoreStats NoteStore::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

CompactStats NoteStore::compact_stats() const {
  ReaderLock lock(&mu_);
  return compact_stats_;
}

// -- Checkpoint ------------------------------------------------------------

Status NoteStore::Fault(std::string_view point) {
  if (options_.checkpoint_fault) return options_.checkpoint_fault(point);
  return Status::Ok();
}

Status NoteStore::Checkpoint() {
  // Exclusive for the whole protocol, fsyncs included: the page images,
  // meta blob and WAL reset must describe one consistent state. Rare and
  // threshold-driven, so readers stalling behind it is acceptable.
  WriterLock lock(&mu_);
  // Drop free pages at the tail of the address space from the geometry
  // now (so the meta we log is already trimmed); the file itself is only
  // truncated after the checkpoint commits — those pages are free in the
  // new state and the old state is gone, so the truncation harms nothing.
  pager_->TrimFreeTail();
  std::string snapshot = EncodePagerSnapshot();

  // 1. One atomic record carrying meta + every dirty page image. Once it
  //    is durable, any torn in-place write below is repairable.
  DOMINO_RETURN_IF_ERROR(
      log_->Commit(stream_, wal::RecordType::kPagerSnapshot, snapshot));
  DOMINO_RETURN_IF_ERROR(log_->SyncAll());
  DOMINO_RETURN_IF_ERROR(Fault("pager:after_log"));

  // 2. Write the dirty pages in place.
  const size_t total_dirty = pool_->dirty_count();
  size_t written = 0;
  DOMINO_RETURN_IF_ERROR(
      pool_->ForEachDirty([&](uint32_t pgno, char* data) -> Status {
        DOMINO_RETURN_IF_ERROR(pager_->WritePage(pgno, data));
        ++written;
        if (written == (total_dirty + 1) / 2) {
          DOMINO_RETURN_IF_ERROR(Fault("pager:mid_pages"));
        }
        return Status::Ok();
      }));
  DOMINO_RETURN_IF_ERROR(pager_->Sync());
  DOMINO_RETURN_IF_ERROR(Fault("pager:after_pages"));

  // 3. Atomically publish the new geometry. Layout: magic + blob +
  //    masked CRC over the blob.
  std::string blob = EncodeMetaBlob();
  std::string meta(kMetaMagic);
  meta.append(blob);
  PutFixed32(&meta, crc32c::Mask(crc32c::Value(blob)));
  DOMINO_RETURN_IF_ERROR(WriteFileAtomic(MetaPath(), meta));
  DOMINO_RETURN_IF_ERROR(Fault("pager:after_meta"));

  // 4. Truncate the WAL obligation: marker first (recovery skips
  //    everything at or before it), then advance this stream's low-water
  //    mark so segments every stream has checkpointed past are dropped.
  DOMINO_RETURN_IF_ERROR(
      log_->Commit(stream_, wal::RecordType::kCheckpoint, ""));
  DOMINO_RETURN_IF_ERROR(log_->AdvanceCheckpoint(stream_));
  bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
  pool_->MarkAllClean();
  DOMINO_RETURN_IF_ERROR(pager_->TruncateToWatermark());
  {
    MutexLock stats_lock(&stats_mu_);
    stats_.checkpoints++;
  }
  ctr_checkpoints_->Add();
  return Status::Ok();
}

// -- COMPACT ---------------------------------------------------------------

Result<size_t> NoteStore::CompactStep(size_t max_pages) {
  WriterLock lock(&mu_);
  std::vector<uint32_t> candidates;
  for (const auto& [pg, bytes] : dead_bytes_) {
    if (pg == fill_page_) continue;
    candidates.push_back(pg);
    if (candidates.size() >= max_pages) break;
  }
  size_t reclaimed = 0;
  uint64_t bytes_reclaimed = 0;
  uint64_t moved = 0;
  for (uint32_t pg : candidates) {
    const uint64_t dead = dead_bytes_[pg];
    // Copy out the live slots, then free the husk before re-placing so
    // the allocator may immediately reuse the page. In-memory only —
    // durability comes from the next checkpoint, and a crash before it
    // simply replays the WAL onto the pre-compaction page state.
    std::vector<std::string> live;
    {
      DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(pg));
      const char* data = ref.data();
      if (PageTypeOf(data) != pager::kPageBucket) {
        return Status::Corruption("compact candidate is not a bucket page");
      }
      const uint32_t page_size = pager_->page_size();
      const uint16_t nslots = PageNSlots(data);
      for (uint16_t i = 0; i < nslots; ++i) {
        const uint16_t off = LoadU16(data + DirOffset(page_size, i));
        if (off == kDeadSlot) continue;
        const uint16_t len = LoadU16(data + off);
        live.emplace_back(data + off + 2, len);
      }
    }
    dead_total_ -= dead;
    dead_bytes_.erase(pg);
    pool_->Discard(pg);
    pager_->Free(pg);
    for (const std::string& encoded : live) {
      // An encoded note starts with its fixed32 id.
      const NoteId id = LoadU32(encoded.data());
      DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
      if ((entry.flags & kEntryUsed) == 0 || entry.page != pg) {
        return Status::Corruption("compact: id table disagrees with slot");
      }
      DOMINO_RETURN_IF_ERROR(PlaceSlot(encoded, &entry.page, &entry.slot));
      DOMINO_RETURN_IF_ERROR(WriteEntry(id, entry));
      ++moved;
    }
    ++reclaimed;
    bytes_reclaimed += dead;
  }
  if (reclaimed > 0) {
    compact_stats_.runs++;
    compact_stats_.pages_reclaimed += reclaimed;
    compact_stats_.bytes_reclaimed += bytes_reclaimed;
    compact_stats_.notes_moved += moved;
    ctr_compact_runs_->Add();
    ctr_compact_pages_->Add(reclaimed);
    ctr_compact_bytes_->Add(bytes_reclaimed);
    ctr_compact_moved_->Add(moved);
    gauge_dead_bytes_->Set(static_cast<int64_t>(dead_total_));
  }
  return reclaimed;
}

Status NoteStore::MaybeCompact() {
  if (options_.compact_threshold_bytes == 0) return Status::Ok();
  if (dead_bytes() <= options_.compact_threshold_bytes) return Status::Ok();
  return CompactStep(16).status();
}

uint64_t NoteStore::dead_bytes() const {
  ReaderLock lock(&mu_);
  return dead_total_;
}

uint64_t NoteStore::wal_size_bytes() const {
  return bytes_since_checkpoint_.load(std::memory_order_relaxed);
}

uint64_t NoteStore::pages_size_bytes() const {
  auto size = pager_->FileSize();
  return size.ok() ? *size : 0;
}

}  // namespace dominodb
