#ifndef DOMINODB_SECURITY_ACL_H_
#define DOMINODB_SECURITY_ACL_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "model/note.h"

namespace dominodb {

/// The seven Notes database access levels, weakest to strongest.
enum class AccessLevel : uint8_t {
  kNoAccess = 0,
  kDepositor = 1,  // may create documents, may read none
  kReader = 2,     // may read (subject to reader fields)
  kAuthor = 3,     // may create; may edit docs naming them in Authors items
  kEditor = 4,     // may edit all documents
  kDesigner = 5,   // may additionally change design notes
  kManager = 6,    // may additionally change the ACL
};

std::string_view AccessLevelName(AccessLevel level);

/// Whoever is asking: a user name plus group memberships (the paper's
/// simplification of the hierarchical Notes names/ID infrastructure).
struct Principal {
  std::string name;
  std::vector<std::string> groups;

  static Principal User(std::string name) { return Principal{std::move(name), {}}; }
};

/// One ACL slot: a user or group name, its level, and role grants.
/// Roles are written "[RoleName]" wherever names appear (reader fields,
/// author fields), exactly like Notes.
struct AclEntry {
  std::string name;
  AccessLevel level = AccessLevel::kNoAccess;
  std::vector<std::string> roles;
};

/// The database access control list. Stored as an ACL note so it
/// replicates with the database (replicating ACL changes is how Notes
/// administers distributed access control — a point the paper makes).
///
/// Not internally synchronized: the owning Database keeps its Acl behind
/// a mutex of its own and hands out copies (Database::acl()), which
/// callers check without any lock. The const surface (LevelFor,
/// RolesFor, CanReadDocument, ...) is safe to call from any number of
/// threads at once.
class Acl {
 public:
  Acl() = default;

  /// Adds or replaces the entry for `name`.
  void SetEntry(std::string name, AccessLevel level,
                std::vector<std::string> roles = {});
  bool RemoveEntry(std::string_view name);
  const AclEntry* FindEntry(std::string_view name) const;
  const std::vector<AclEntry>& entries() const { return entries_; }

  AccessLevel default_level() const { return default_level_; }
  void set_default_level(AccessLevel level) { default_level_ = level; }

  /// Effective level: the strongest level among entries matching the
  /// principal's name or groups; the default entry otherwise.
  AccessLevel LevelFor(const Principal& who) const;

  /// Roles granted through any matching entry, in "[Role]" form.
  std::vector<std::string> RolesFor(const Principal& who) const;

  // Persist as / load from an ACL note.
  Note ToNote() const;
  static Result<Acl> FromNote(const Note& note);

 private:
  std::vector<AclEntry> entries_;
  AccessLevel default_level_ = AccessLevel::kReader;
};

/// A principal's access resolved against one ACL: effective level plus
/// expanded role grants. Resolving walks every ACL entry against the
/// principal's name and groups, which is pure overhead to repeat per
/// document — secured view traversals and searches resolve once per pass
/// and then run the per-document reader/author checks against the memo.
struct AccessContext {
  AccessLevel level = AccessLevel::kNoAccess;
  std::vector<std::string> roles;
};

/// Resolves `who` once (level + roles) for repeated document checks.
AccessContext ResolveAccess(const Acl& acl, const Principal& who);

/// Document-level checks combining the ACL with reader/author items.
/// Reader items (kItemReaders) restrict reading to the named principals,
/// roles, or authors; author items (kItemAuthors) grant editing to
/// Author-level principals.
bool CanReadDocument(const Acl& acl, const Principal& who, const Note& note);
bool CanEditDocument(const Acl& acl, const Principal& who, const Note& note);

/// Memoized variants: same result as the Acl overloads, without the
/// per-document level/role re-resolution.
bool CanReadDocument(const AccessContext& access, const Principal& who,
                     const Note& note);
bool CanEditDocument(const AccessContext& access, const Principal& who,
                     const Note& note);
bool CanCreateDocuments(const Acl& acl, const Principal& who);
bool CanChangeDesign(const Acl& acl, const Principal& who);
bool CanChangeAcl(const Acl& acl, const Principal& who);

/// True if the principal (name, groups, or roles) appears in `names`.
bool NameListMatches(const std::vector<std::string>& names,
                     const Principal& who,
                     const std::vector<std::string>& roles);

/// The names that gate reading `note`: the non-empty texts of its reader
/// items and, only when there is at least one, of its author items too
/// (authors named on a document can always read it). Sorted and
/// deduplicated; empty means the document has no reader restriction.
/// View indexes keep this set per entry so secured traversals never open
/// the note.
std::vector<std::string> ReaderNamesOf(const Note& note);

/// CanReadDocument over a pre-collected ReaderNamesOf list: Reader level or
/// above, and either no restriction or a name matching the principal.
bool CanReadWithNames(const AccessContext& access, const Principal& who,
                      const std::vector<std::string>& reader_names);

}  // namespace dominodb

#endif  // DOMINODB_SECURITY_ACL_H_
