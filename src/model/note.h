#ifndef DOMINODB_MODEL_NOTE_H_
#define DOMINODB_MODEL_NOTE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/clock.h"
#include "base/status.h"
#include "model/unid.h"
#include "model/value.h"

namespace dominodb {

/// Everything in a Notes database is a note; the class says what kind.
/// Design elements (views, forms, agents, the ACL) are notes too and
/// replicate like any document — a core point of the paper.
enum class NoteClass : uint8_t {
  kDocument = 0,
  kView = 1,
  kForm = 2,
  kAcl = 3,
  kAgent = 4,
  kDesign = 5,
};

std::string_view NoteClassName(NoteClass c);

/// Item flags (a subset of the Notes item flags).
enum ItemFlags : uint8_t {
  kItemSummary = 1 << 0,    // value visible to views/selective replication
  kItemReaders = 1 << 1,    // names allowed to read the document
  kItemAuthors = 1 << 2,    // names allowed to edit with Author access
  kItemNames = 1 << 3,      // value holds user/group names
  kItemProtected = 1 << 4,  // requires Editor+ to modify
};

/// A named, typed, flagged value on a note.
struct Item {
  std::string name;
  Value value;
  uint8_t flags = kItemSummary;
  /// Sequence time of the note version that last changed this item
  /// (Notes keeps per-item sequence numbers for the same purpose). Used
  /// by field-level conflict merging.
  Micros modified = 0;

  bool operator==(const Item& other) const {
    return name == other.name && value == other.value &&
           flags == other.flags;
  }
};

/// Database-local note identifier. Not replicated (each replica assigns
/// its own); cross-replica identity is the UNID.
using NoteId = uint32_t;

constexpr NoteId kInvalidNoteId = 0;

/// The universal storage unit: a bag of items plus replication metadata.
///
/// Copying a note is cheap: copies share one immutable item block (a
/// refcount), and the first item mutation through a shared copy clones
/// the block. A single Note object is still not safe to mutate while
/// another thread reads it; sharing across threads goes through
/// `NoteHandle` (a const note).
///
/// Replication metadata:
///  - `oid()`        UNID + sequence number + sequence time
///  - `revisions()`  capped list of past sequence times ($Revisions);
///                   used for the ancestry check during conflict detection
///  - `deleted()`    true for deletion stubs (items stripped, identity kept)
class Note {
 public:
  /// Caps the $Revisions history like Notes does.
  static constexpr size_t kMaxRevisions = 32;

  Note() = default;
  explicit Note(NoteClass note_class) : class_(note_class) {}

  // -- Identity & metadata --------------------------------------------
  NoteId id() const { return id_; }
  void set_id(NoteId id) { id_ = id; }

  const Oid& oid() const { return oid_; }
  const Unid& unid() const { return oid_.unid; }
  uint32_t sequence() const { return oid_.sequence; }
  Micros sequence_time() const { return oid_.sequence_time; }

  NoteClass note_class() const { return class_; }
  void set_note_class(NoteClass c) { class_ = c; }

  Micros created() const { return created_; }
  Micros modified() const { return oid_.sequence_time; }

  /// When this note image was last written into *this* database file
  /// (local bookkeeping, not replicated state). Change summaries use this
  /// — not the sequence time — so a relay replica re-announces notes it
  /// received via replication (hub-spoke forwarding depends on it).
  Micros modified_in_file() const { return modified_in_file_; }
  void set_modified_in_file(Micros t) { modified_in_file_ = t; }

  bool deleted() const { return deleted_; }

  /// Parent document UNID for response documents ($REF); null if top-level.
  const Unid& parent_unid() const { return parent_; }
  void set_parent_unid(const Unid& u) { parent_ = u; }
  bool IsResponse() const { return !parent_.IsNull(); }

  const std::vector<Micros>& revisions() const { return revisions_; }

  /// True if `t` appears in this note's revision history or equals the
  /// current sequence time — i.e. this note descends from that version.
  bool HasRevision(Micros t) const;

  // -- Lifecycle (called by Database / Replicator) ---------------------
  /// Stamps a fresh note: assigns `unid`, sequence 1, creation time `now`.
  void StampCreated(const Unid& unid, Micros now);

  /// Records an update: pushes the old sequence time into the revision
  /// history, bumps the sequence number and stamps `now`.
  void BumpSequence(Micros now);

  /// Turns this note into a deletion stub: drops all items, marks deleted,
  /// bumps the sequence so the deletion replicates like an update.
  void MakeStub(Micros now);

  /// Overwrites replication metadata wholesale (used when a replicator
  /// installs a remote version verbatim).
  void SetReplicationState(const Oid& oid, std::vector<Micros> revisions,
                           Micros created, bool deleted);

  // -- Items -----------------------------------------------------------
  /// Sets (replacing any same-named item, case-insensitively).
  void SetItem(std::string_view name, Value value,
               uint8_t flags = kItemSummary);
  void SetText(std::string_view name, std::string text);
  void SetTextList(std::string_view name, std::vector<std::string> list);
  void SetNumber(std::string_view name, double number);
  void SetTime(std::string_view name, Micros t);

  bool HasItem(std::string_view name) const;
  /// nullptr when absent.
  const Item* FindItem(std::string_view name) const;
  const Value* FindValue(std::string_view name) const;

  std::string GetText(std::string_view name,
                      std::string_view fallback = "") const;
  double GetNumber(std::string_view name, double fallback = 0.0) const;
  Micros GetTime(std::string_view name, Micros fallback = 0) const;

  bool RemoveItem(std::string_view name);

  const std::vector<Item>& items() const { return items_.get(); }
  /// Clones the item block first when another note shares it. The
  /// reference is valid until this note is next copied or mutated.
  std::vector<Item>& mutable_items() { return items_.Mutable(); }

  /// Name of the form that created this document (the "Form" item).
  std::string FormName() const { return GetText("Form"); }

  /// Approximate byte footprint (items + metadata); feeds the store and
  /// replication byte counters.
  size_t ByteSize() const;

  /// Item-level equality ignoring local id (used by convergence checks).
  bool EqualsContent(const Note& other) const;

  /// Stamps `t` onto every item whose value differs from (or is absent
  /// in) `previous`; unchanged items inherit their previous stamp.
  /// Called by the database on every create/update so field-level merge
  /// can tell which side touched which item.
  void StampItemModifications(const Note* previous, Micros t);

  /// Latest sequence time present in both notes' version histories
  /// (revisions + current), i.e. the common ancestor version; 0 if none.
  static Micros LatestCommonRevision(const Note& a, const Note& b);

  // -- Serialization ----------------------------------------------------
  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(std::string_view* input, Note* out);
  std::string EncodeToString() const;
  static Status DecodeFromString(std::string_view data, Note* out);

 private:
  NoteId id_ = kInvalidNoteId;
  Oid oid_;
  Micros modified_in_file_ = 0;
  NoteClass class_ = NoteClass::kDocument;
  Micros created_ = 0;
  bool deleted_ = false;
  Unid parent_;
  std::vector<Micros> revisions_;

  /// Copy-on-write handle to an item vector. Copies bump a refcount;
  /// Mutable() clones the block unless this handle is its only owner.
  class CowItems {
   public:
    CowItems() = default;
    CowItems(const CowItems& other) noexcept : block_(other.block_) {
      if (block_ != nullptr) {
        block_->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    CowItems(CowItems&& other) noexcept : block_(other.block_) {
      other.block_ = nullptr;
    }
    CowItems& operator=(CowItems other) noexcept {
      std::swap(block_, other.block_);
      return *this;
    }
    ~CowItems() { Release(); }

    const std::vector<Item>& get() const;
    std::vector<Item>& Mutable();

    /// The count sits on a cache line of its own: threads copying a
    /// shared note would otherwise stall every reader of its items.
    struct Block {
      std::vector<Item> items;
      alignas(64) std::atomic<uint32_t> refs{1};
    };

   private:
    void Release() noexcept;

    Block* block_ = nullptr;  // null == no items
  };
  CowItems items_;

 public:
  /// Heap bytes of the item block a note shares with its copies.
  static constexpr size_t kItemBlockBytes = sizeof(CowItems::Block);
};

/// Owning read handle to a stored note. The paged store decodes notes
/// out of pinned buffer-pool pages, so borrowed pointers into the store
/// would dangle across eviction — lookups hand out shared ownership of
/// the decoded copy instead. Null means "not found".
using NoteHandle = std::shared_ptr<const Note>;

}  // namespace dominodb

#endif  // DOMINODB_MODEL_NOTE_H_
