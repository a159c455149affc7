#ifndef DOMINODB_TESTS_RANDOM_ACL_H_
#define DOMINODB_TESTS_RANDOM_ACL_H_

// Seeded random principals, reader/author fields and ACLs shared by the
// secured-read differential tests (view_acl_test, search_acl_test).

#include <iterator>
#include <string>
#include <vector>

#include "base/rng.h"
#include "model/note.h"
#include "security/acl.h"

namespace dominodb::testing_util {

// Names written into reader/author items: case variants, groups, roles,
// unknown names and an empty string (which never names anyone).
inline constexpr const char* kNamePool[] = {
    "Alice", "alice",     "BOB",       "Carol",   "sales team", "Sales Team",
    "[Ops]", "[ops]",     "[AUDIT]",   "Nobody",  "Ops Crew",   ""};

inline const Principal& PrincipalAt(size_t i) {
  static const std::vector<Principal> kPrincipals = {
      Principal{"Alice", {"Sales Team"}}, Principal::User("bob"),
      Principal{"carol", {"ops crew"}}, Principal::User("Dave"),
      Principal{"Mallory", {"Outsiders"}}};
  return kPrincipals[i % kPrincipals.size()];
}
inline constexpr size_t kPrincipalCount = 5;

/// Rewrites the document's reader and author items at random, including
/// author-only documents and items split across two reader fields.
inline void RandomizeSecurity(Rng* rng, Note* note) {
  for (const char* item : {"DocReaders", "MoreReaders", "DocAuthors"}) {
    note->RemoveItem(item);
  }
  auto pick = [&](size_t max) {
    std::vector<std::string> names;
    const size_t n = 1 + rng->Uniform(max);
    for (size_t i = 0; i < n; ++i) {
      names.push_back(kNamePool[rng->Uniform(std::size(kNamePool))]);
    }
    return names;
  };
  if (rng->Bernoulli(0.45)) {
    note->SetItem("DocReaders", Value::TextList(pick(3)),
                  kItemReaders | kItemNames);
    if (rng->Bernoulli(0.2)) {
      note->SetItem("MoreReaders", Value::TextList(pick(2)),
                    kItemReaders | kItemNames);
    }
  }
  if (rng->Bernoulli(0.4)) {
    note->SetItem("DocAuthors", Value::TextList(pick(2)),
                  kItemAuthors | kItemNames);
  }
}

inline Acl RandomAcl(Rng* rng) {
  static const AccessLevel kLevels[] = {
      AccessLevel::kNoAccess, AccessLevel::kDepositor, AccessLevel::kReader,
      AccessLevel::kAuthor,   AccessLevel::kEditor,    AccessLevel::kManager};
  Acl acl;
  acl.set_default_level(rng->Bernoulli(0.7) ? AccessLevel::kReader
                                            : AccessLevel::kNoAccess);
  for (const char* name : {"alice", "Bob", "Carol", "Dave", "Sales Team",
                           "Ops Crew"}) {
    if (rng->Bernoulli(0.25)) continue;  // falls through to the default
    std::vector<std::string> roles;
    if (rng->Bernoulli(0.4)) roles.push_back("[ops]");
    if (rng->Bernoulli(0.3)) roles.push_back("[Audit]");
    const AccessLevel level =
        rng->Bernoulli(0.8) ? kLevels[2 + rng->Uniform(4)]
                            : kLevels[rng->Uniform(std::size(kLevels))];
    acl.SetEntry(name, level, std::move(roles));
  }
  return acl;
}

}  // namespace dominodb::testing_util

#endif  // DOMINODB_TESTS_RANDOM_ACL_H_
