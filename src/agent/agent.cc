#include "agent/agent.h"

#include "base/string_util.h"

namespace dominodb {

Result<AgentDesign> AgentDesign::Create(std::string name,
                                        AgentTrigger trigger,
                                        Micros interval,
                                        std::string selection_source,
                                        std::string action_source) {
  AgentDesign design;
  design.name_ = std::move(name);
  design.trigger_ = trigger;
  design.interval_ = interval;
  design.selection_source_ = std::move(selection_source);
  design.action_source_ = std::move(action_source);
  auto selection = formula::Formula::Compile(design.selection_source_);
  if (!selection.ok()) {
    return Status::SyntaxError("agent '" + design.name_ + "' selection: " +
                               selection.status().message());
  }
  design.selection_ = std::move(*selection);
  auto action = formula::Formula::Compile(design.action_source_);
  if (!action.ok()) {
    return Status::SyntaxError("agent '" + design.name_ + "' action: " +
                               action.status().message());
  }
  design.action_ = std::move(*action);
  return design;
}

Note AgentDesign::ToNote() const {
  Note note(NoteClass::kAgent);
  note.SetText("$Title", name_);
  note.SetNumber("$Trigger", static_cast<double>(trigger_));
  note.SetNumber("$Interval", static_cast<double>(interval_));
  note.SetText("$Selection", selection_source_);
  note.SetText("$Action", action_source_);
  return note;
}

Result<AgentDesign> AgentDesign::FromNote(const Note& note) {
  if (note.note_class() != NoteClass::kAgent) {
    return Status::InvalidArgument("not an agent note");
  }
  double trigger = note.GetNumber("$Trigger");
  if (trigger < 0 ||
      trigger > static_cast<double>(AgentTrigger::kOnNewAndChanged)) {
    return Status::Corruption("agent note: bad trigger");
  }
  return Create(note.GetText("$Title"), static_cast<AgentTrigger>(trigger),
                static_cast<Micros>(note.GetNumber("$Interval")),
                note.GetText("$Selection"), note.GetText("$Action"));
}

AgentRunner::AgentRunner(Database* db) : db_(db) { Reload(); }

void AgentRunner::Reload() {
  std::map<std::string, AgentState> fresh;
  db_->ForEachLiveNote([&](const Note& note) {
    if (note.note_class() != NoteClass::kAgent) return;
    auto design = AgentDesign::FromNote(note);
    if (!design.ok()) return;
    std::string key = ToLower(design->name());
    AgentState state;
    state.design = std::move(*design);
    // Preserve run bookkeeping across reloads.
    auto it = agents_.find(key);
    if (it != agents_.end()) {
      state.last_run = it->second.last_run;
      state.last_seen_stamp = it->second.last_seen_stamp;
      state.own_writes = std::move(it->second.own_writes);
    }
    fresh[key] = std::move(state);
  });
  agents_ = std::move(fresh);
}

Status AgentRunner::AddAgent(const AgentDesign& design) {
  // Replace an existing same-named agent note, otherwise create.
  NoteId existing_id = kInvalidNoteId;
  db_->ForEachLiveNote([&](const Note& note) {
    if (note.note_class() == NoteClass::kAgent &&
        EqualsIgnoreCase(note.GetText("$Title"), design.name())) {
      existing_id = note.id();
    }
  });
  Note note = design.ToNote();
  if (existing_id != kInvalidNoteId) {
    auto current = db_->ReadNote(existing_id);
    if (current.ok()) {
      note.set_id(existing_id);
      note.SetReplicationState(current->oid(), current->revisions(),
                               current->created(), false);
      DOMINO_RETURN_IF_ERROR(db_->UpdateNote(std::move(note)));
      Reload();
      return Status::Ok();
    }
  }
  DOMINO_RETURN_IF_ERROR(db_->CreateNote(std::move(note)).status());
  Reload();
  return Status::Ok();
}

std::vector<std::string> AgentRunner::AgentNames() const {
  std::vector<std::string> names;
  for (const auto& [key, state] : agents_) {
    names.push_back(state.design.name());
  }
  return names;
}

Result<AgentRunReport> AgentRunner::RunAgent(std::string_view name) {
  auto it = agents_.find(ToLower(name));
  if (it == agents_.end()) {
    return Status::NotFound("agent " + std::string(name));
  }
  return Execute(&it->second);
}

Result<std::vector<AgentRunReport>> AgentRunner::RunDue(Micros now) {
  std::vector<AgentRunReport> reports;
  for (auto& [key, state] : agents_) {
    bool due = false;
    switch (state.design.trigger()) {
      case AgentTrigger::kManual:
        break;
      case AgentTrigger::kScheduled:
      case AgentTrigger::kOnNewAndChanged:
        due = now - state.last_run >= state.design.interval();
        break;
    }
    if (!due) continue;
    DOMINO_ASSIGN_OR_RETURN(AgentRunReport report, Execute(&state));
    state.last_run = now;
    reports.push_back(std::move(report));
  }
  return reports;
}

Result<AgentRunReport> AgentRunner::Execute(AgentState* state) {
  AgentRunReport report;
  report.agent = state->design.name();

  // Snapshot candidate documents first: the action mutates the database.
  // A new-and-changed agent asks the modified-in-file index for what
  // changed since its last run instead of scanning every note.
  std::vector<Note> candidates;
  auto collect = [&](const Note& note) {
    if (!note.deleted() && note.note_class() == NoteClass::kDocument) {
      candidates.push_back(note);
    }
  };
  // The next cursor is the newest stamp in the snapshot read here, never
  // the database's latest: a write another thread commits during the run
  // stamps past it and is seen next time.
  Micros read_stamp = state->last_seen_stamp;
  if (state->design.trigger() == AgentTrigger::kOnNewAndChanged) {
    for (const NoteHandle& note :
         db_->NotesModifiedSince(state->last_seen_stamp)) {
      read_stamp = std::max(read_stamp, note->modified_in_file());
      if (state->own_writes.count({note->unid(), note->sequence()}) == 0) {
        collect(*note);
      }
    }
  } else {
    db_->ForEachLiveNote(collect);
  }

  std::set<std::pair<Unid, uint32_t>> own_writes;
  for (Note& doc : candidates) {
    ++report.docs_scanned;
    formula::EvalContext ctx;
    db_->BindFormulaServices(&ctx);
    ctx.note = &doc;
    auto selected = state->design.selection().Matches(ctx);
    if (!selected.ok() || !*selected) {
      if (!selected.ok()) ++report.errors;
      continue;
    }
    ++report.docs_selected;

    Note mutated = doc;
    formula::EvalContext action_ctx;
    db_->BindFormulaServices(&action_ctx);
    action_ctx.note = &mutated;
    action_ctx.mutable_note = &mutated;
    auto result = state->design.action().Evaluate(action_ctx);
    if (!result.ok()) {
      ++report.errors;
      continue;
    }
    if (!mutated.EqualsContent(doc)) {
      Status st = db_->UpdateNote(std::move(mutated));
      if (st.ok()) {
        ++report.docs_modified;
        // UpdateNote bumps the sequence by one.
        own_writes.insert({doc.unid(), doc.sequence() + 1});
      } else {
        ++report.errors;
      }
    }
  }
  state->last_seen_stamp = read_stamp;
  state->own_writes = std::move(own_writes);
  return report;
}

}  // namespace dominodb
