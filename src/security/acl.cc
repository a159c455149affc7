#include "security/acl.h"

#include <algorithm>

#include "base/string_util.h"

namespace dominodb {

namespace {

constexpr char kDefaultEntryName[] = "-Default-";

bool MatchesPrincipal(const AclEntry& entry, const Principal& who) {
  if (EqualsIgnoreCase(entry.name, who.name)) return true;
  for (const std::string& group : who.groups) {
    if (EqualsIgnoreCase(entry.name, group)) return true;
  }
  return false;
}

}  // namespace

std::string_view AccessLevelName(AccessLevel level) {
  switch (level) {
    case AccessLevel::kNoAccess:
      return "No Access";
    case AccessLevel::kDepositor:
      return "Depositor";
    case AccessLevel::kReader:
      return "Reader";
    case AccessLevel::kAuthor:
      return "Author";
    case AccessLevel::kEditor:
      return "Editor";
    case AccessLevel::kDesigner:
      return "Designer";
    case AccessLevel::kManager:
      return "Manager";
  }
  return "?";
}

void Acl::SetEntry(std::string name, AccessLevel level,
                   std::vector<std::string> roles) {
  if (EqualsIgnoreCase(name, kDefaultEntryName)) {
    default_level_ = level;
    return;
  }
  for (AclEntry& entry : entries_) {
    if (EqualsIgnoreCase(entry.name, name)) {
      entry.level = level;
      entry.roles = std::move(roles);
      return;
    }
  }
  entries_.push_back(AclEntry{std::move(name), level, std::move(roles)});
}

bool Acl::RemoveEntry(std::string_view name) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (EqualsIgnoreCase(it->name, name)) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

const AclEntry* Acl::FindEntry(std::string_view name) const {
  for (const AclEntry& entry : entries_) {
    if (EqualsIgnoreCase(entry.name, name)) return &entry;
  }
  return nullptr;
}

AccessLevel Acl::LevelFor(const Principal& who) const {
  bool matched = false;
  AccessLevel best = AccessLevel::kNoAccess;
  for (const AclEntry& entry : entries_) {
    if (MatchesPrincipal(entry, who)) {
      matched = true;
      best = std::max(best, entry.level);
    }
  }
  return matched ? best : default_level_;
}

std::vector<std::string> Acl::RolesFor(const Principal& who) const {
  std::vector<std::string> roles;
  for (const AclEntry& entry : entries_) {
    if (!MatchesPrincipal(entry, who)) continue;
    for (const std::string& role : entry.roles) {
      bool seen = false;
      for (const std::string& r : roles) {
        if (EqualsIgnoreCase(r, role)) {
          seen = true;
          break;
        }
      }
      if (!seen) roles.push_back(role);
    }
  }
  return roles;
}

Note Acl::ToNote() const {
  Note note(NoteClass::kAcl);
  note.SetText("$Title", "$ACL");
  note.SetNumber("$DefaultLevel", static_cast<double>(default_level_));
  std::vector<std::string> names, levels, roles;
  for (const AclEntry& entry : entries_) {
    names.push_back(entry.name);
    levels.push_back(FormatNumber(static_cast<double>(entry.level)));
    roles.push_back(Join(entry.roles, ","));
  }
  note.SetTextList("$EntryNames", std::move(names));
  note.SetTextList("$EntryLevels", std::move(levels));
  note.SetTextList("$EntryRoles", std::move(roles));
  return note;
}

Result<Acl> Acl::FromNote(const Note& note) {
  if (note.note_class() != NoteClass::kAcl) {
    return Status::InvalidArgument("not an ACL note");
  }
  Acl acl;
  double level = note.GetNumber("$DefaultLevel",
                                static_cast<double>(AccessLevel::kReader));
  if (level < 0 || level > static_cast<double>(AccessLevel::kManager)) {
    return Status::Corruption("ACL note: bad default level");
  }
  acl.default_level_ = static_cast<AccessLevel>(level);
  const Value* names = note.FindValue("$EntryNames");
  const Value* levels = note.FindValue("$EntryLevels");
  const Value* roles = note.FindValue("$EntryRoles");
  size_t n = names != nullptr ? names->texts().size() : 0;
  for (size_t i = 0; i < n; ++i) {
    AclEntry entry;
    entry.name = names->texts()[i];
    double lv = (levels != nullptr && i < levels->texts().size())
                    ? Value::Text(levels->texts()[i]).AsNumber()
                    : 0;
    if (lv < 0 || lv > static_cast<double>(AccessLevel::kManager)) {
      return Status::Corruption("ACL note: bad entry level");
    }
    entry.level = static_cast<AccessLevel>(lv);
    if (roles != nullptr && i < roles->texts().size() &&
        !roles->texts()[i].empty()) {
      entry.roles = Split(roles->texts()[i], ",");
    }
    acl.entries_.push_back(std::move(entry));
  }
  return acl;
}

namespace {

bool NameMatches(std::string_view name, const Principal& who,
                 const std::vector<std::string>& roles) {
  if (EqualsIgnoreCase(name, who.name)) return true;
  for (const std::string& group : who.groups) {
    if (EqualsIgnoreCase(name, group)) return true;
  }
  if (name.size() >= 2 && name.front() == '[' && name.back() == ']') {
    for (const std::string& role : roles) {
      if (EqualsIgnoreCase(name, role)) return true;
    }
  }
  return false;
}

/// Scans the non-empty texts of every item with `flag` set, in place.
/// Sets `*any` (when given) if there is at least one; true as soon as one
/// names the principal.
bool FlaggedNameMatches(const Note& note, uint8_t flag, const Principal& who,
                        const std::vector<std::string>& roles,
                        bool* any = nullptr) {
  for (const Item& item : note.items()) {
    if ((item.flags & flag) == 0) continue;
    for (const std::string& s : item.value.texts()) {
      if (s.empty()) continue;
      if (any != nullptr) *any = true;
      if (NameMatches(s, who, roles)) return true;
    }
  }
  return false;
}

/// Appends the non-empty texts of every item with `flag` set.
void AppendNamesWithFlag(const Note& note, uint8_t flag,
                         std::vector<std::string>* out) {
  for (const Item& item : note.items()) {
    if ((item.flags & flag) == 0) continue;
    for (const std::string& s : item.value.texts()) {
      if (!s.empty()) out->push_back(s);
    }
  }
}

}  // namespace

bool NameListMatches(const std::vector<std::string>& names,
                     const Principal& who,
                     const std::vector<std::string>& roles) {
  for (const std::string& name : names) {
    if (NameMatches(name, who, roles)) return true;
  }
  return false;
}

std::vector<std::string> ReaderNamesOf(const Note& note) {
  std::vector<std::string> names;
  AppendNamesWithFlag(note, kItemReaders, &names);
  if (names.empty()) return names;  // no reader restriction
  // Authors named on the document can always read it.
  AppendNamesWithFlag(note, kItemAuthors, &names);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

AccessContext ResolveAccess(const Acl& acl, const Principal& who) {
  return AccessContext{acl.LevelFor(who), acl.RolesFor(who)};
}

bool CanReadWithNames(const AccessContext& access, const Principal& who,
                      const std::vector<std::string>& reader_names) {
  if (access.level < AccessLevel::kReader) return false;
  return reader_names.empty() ||
         NameListMatches(reader_names, who, access.roles);
}

bool CanReadDocument(const AccessContext& access, const Principal& who,
                     const Note& note) {
  // The CanReadWithNames rule over ReaderNamesOf(note), evaluated in place
  // so the per-document check allocates nothing.
  if (access.level < AccessLevel::kReader) return false;
  bool restricted = false;
  if (FlaggedNameMatches(note, kItemReaders, who, access.roles,
                         &restricted)) {
    return true;
  }
  if (!restricted) return true;
  return FlaggedNameMatches(note, kItemAuthors, who, access.roles);
}

bool CanEditDocument(const AccessContext& access, const Principal& who,
                     const Note& note) {
  if (access.level >= AccessLevel::kEditor) {
    // Editors must still be able to *see* the document.
    return CanReadDocument(access, who, note);
  }
  if (access.level == AccessLevel::kAuthor) {
    if (!CanReadDocument(access, who, note)) return false;
    return FlaggedNameMatches(note, kItemAuthors, who, access.roles);
  }
  return false;
}

bool CanReadDocument(const Acl& acl, const Principal& who, const Note& note) {
  return CanReadDocument(ResolveAccess(acl, who), who, note);
}

bool CanEditDocument(const Acl& acl, const Principal& who, const Note& note) {
  return CanEditDocument(ResolveAccess(acl, who), who, note);
}

bool CanCreateDocuments(const Acl& acl, const Principal& who) {
  return acl.LevelFor(who) >= AccessLevel::kDepositor &&
         acl.LevelFor(who) != AccessLevel::kReader;
}

bool CanChangeDesign(const Acl& acl, const Principal& who) {
  return acl.LevelFor(who) >= AccessLevel::kDesigner;
}

bool CanChangeAcl(const Acl& acl, const Principal& who) {
  return acl.LevelFor(who) >= AccessLevel::kManager;
}

}  // namespace dominodb
