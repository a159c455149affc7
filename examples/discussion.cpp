// Discussion-database example: the workload Notes was built for.
// Threaded topics and responses, a categorized view with a response
// hierarchy, document-level security with reader fields, and unread marks.
//
//   ./discussion [workdir]

#include <cstdio>

#include "base/env.h"
#include "core/database.h"
#include "view/view_design.h"

using namespace dominodb;

namespace {

Result<NoteId> PostTopic(Database* db, const Principal& who,
                         const std::string& category,
                         const std::string& subject,
                         const std::string& body,
                         std::vector<std::string> readers = {}) {
  Note topic(NoteClass::kDocument);
  topic.SetText("Form", "Topic");
  topic.SetText("Category", category);
  topic.SetText("Subject", subject);
  topic.SetItem("Body", Value::RichText({RichTextRun{body, 0, ""}}));
  if (!readers.empty()) {
    topic.SetItem("DocReaders", Value::TextList(std::move(readers)),
                  kItemReaders | kItemNames);
  }
  return db->CreateNoteAs(who, std::move(topic));
}

Result<NoteId> Reply(Database* db, const Principal& who, const Unid& parent,
                     const std::string& subject, const std::string& body) {
  Note response(NoteClass::kDocument);
  response.SetText("Form", "Response");
  response.SetText("Subject", subject);
  response.SetItem("Body", Value::RichText({RichTextRun{body, 0, ""}}));
  response.SetText("$UpdatedBy", who.name);
  return db->CreateResponse(parent, std::move(response));
}

void ShowViewFor(Database* db, const Principal& who) {
  printf("\n=== View as seen by %s ===\n", who.name.c_str());
  db->TraverseViewAs(who, "Discussion Threads", [&](const ViewRow& row) {
      if (row.kind == ViewRow::Kind::kCategory) {
        printf("%*s▼ %s (%zu)\n", row.indent * 2, "", row.category.c_str(),
               row.descendant_count);
      } else {
        NoteHandle note = db->FindById(row.entry->note_id);
        bool unread = note != nullptr && db->IsUnread(who, note->unid());
        printf("%*s%s %s  — %s\n", (row.indent + 1) * 2, "",
               unread ? "●" : " ", row.entry->ColumnText(1).c_str(),
               row.entry->ColumnText(2).c_str());
      }
    }).ok();
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp/dominodb_discussion";
  RemoveDirRecursively(dir).ok();

  SystemClock clock;
  DatabaseOptions options;
  options.title = "Engineering Discussion";
  auto db_result = Database::Open(dir, options, &clock);
  if (!db_result.ok()) return 1;
  std::unique_ptr<Database> db = std::move(*db_result);

  // ACL: everyone may write, managers may moderate, and there is a
  // leadership role used by reader fields.
  Acl acl;
  acl.set_default_level(AccessLevel::kAuthor);
  acl.SetEntry("Mia Moderator", AccessLevel::kEditor);
  acl.SetEntry("Lena Lead", AccessLevel::kAuthor, {"[Leads]"});
  db->SetAcl(acl).ok();

  // The classic discussion view: categorized, threaded.
  std::vector<ViewColumn> columns;
  ViewColumn category;
  category.title = "Category";
  category.formula_source = "Category";
  category.categorized = true;
  columns.push_back(std::move(category));
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  ViewColumn by;
  by.title = "By";
  by.formula_source = "@If(@IsAvailable($UpdatedBy); $UpdatedBy; \"?\")";
  columns.push_back(std::move(by));
  auto design = ViewDesign::Create(
      "Discussion Threads", "SELECT Form = \"Topic\" | @AllDescendants",
      std::move(columns), /*show_response_hierarchy=*/true);
  if (!design.ok() || !db->CreateView(*design).ok()) return 1;

  Principal ada = Principal::User("Ada");
  Principal grace = Principal::User("Grace");
  Principal lena{"Lena Lead", {}};
  Principal intern = Principal::User("Ivy Intern");

  // Public threads.
  auto perf = PostTopic(db.get(), ada, "Performance",
                        "View rebuild is slow on huge DBs",
                        "Rebuilding a 100k-doc view takes minutes.");
  auto crash = PostTopic(db.get(), grace, "Bugs", "Router crash on restart",
                         "Stack trace attached.");
  if (!perf.ok() || !crash.ok()) return 1;

  auto perf_note = db->ReadNote(*perf);
  Reply(db.get(), grace, perf_note->unid(), "Use incremental updates",
        "The view index only re-evaluates changed notes.")
      .ok();
  auto reply_note = db->FormulaSearch("SELECT Subject = \"Use incremental updates\"");
  if (reply_note.ok() && !reply_note->empty()) {
    Reply(db.get(), ada, (*reply_note)[0].unid(), "Confirmed, 100x faster",
          "Benchmarks in bench/view_index.")
        .ok();
  }

  // A leadership-only thread, protected by a reader field.
  PostTopic(db.get(), lena, "Planning", "Reorg proposal (leads only)",
            "Confidential until announced.", {"[Leads]", "Mia Moderator"})
      .ok();

  // Ada reads one thread.
  db->MarkRead(ada, perf_note->unid());

  ShowViewFor(db.get(), ada);     // sees public threads, not the reorg one
  ShowViewFor(db.get(), lena);    // sees everything incl. leads-only
  ShowViewFor(db.get(), intern);  // same as Ada, all unread

  printf("\nUnread for Ada: %zu, for Ivy: %zu\n", *db->UnreadCount(ada),
         *db->UnreadCount(intern));

  // Full-text search respects reader fields too.
  db->EnsureFullTextIndex().ok();
  for (const Principal& who : {ada, lena}) {
    auto hits = db->SearchAs(who, "reorg OR crash");
    printf("Search 'reorg OR crash' as %-12s → %zu hit(s)\n",
           who.name.c_str(), hits.ok() ? hits->size() : 0);
  }
  return 0;
}
