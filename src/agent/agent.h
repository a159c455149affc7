#ifndef DOMINODB_AGENT_AGENT_H_
#define DOMINODB_AGENT_AGENT_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "core/database.h"
#include "formula/formula.h"

namespace dominodb {

/// When an agent runs.
enum class AgentTrigger : uint8_t {
  kManual = 0,            // only via RunAgent
  kScheduled = 1,         // every `interval` of simulated/wall time
  kOnNewAndChanged = 2,   // against documents changed since the last run
};

/// A Notes agent: a stored piece of automation. The selection formula
/// picks documents; the action formula runs against each with write
/// access (FIELD assignments / @SetField mutate the document). Agents are
/// design notes (NoteClass::kAgent) and replicate with the database —
/// ship an agent to a replica and it runs there too.
class AgentDesign {
 public:
  /// Compiles both formulas.
  static Result<AgentDesign> Create(std::string name, AgentTrigger trigger,
                                    Micros interval,
                                    std::string selection_source,
                                    std::string action_source);

  AgentDesign() = default;

  const std::string& name() const { return name_; }
  AgentTrigger trigger() const { return trigger_; }
  Micros interval() const { return interval_; }
  const formula::Formula& selection() const { return selection_; }
  const formula::Formula& action() const { return action_; }

  Note ToNote() const;
  static Result<AgentDesign> FromNote(const Note& note);

 private:
  std::string name_;
  AgentTrigger trigger_ = AgentTrigger::kManual;
  Micros interval_ = 0;
  std::string selection_source_;
  std::string action_source_;
  formula::Formula selection_;
  formula::Formula action_;
};

struct AgentRunReport {
  std::string agent;
  size_t docs_scanned = 0;
  size_t docs_selected = 0;
  size_t docs_modified = 0;
  size_t errors = 0;
};

/// The agent manager task of one database: loads agent design notes,
/// runs them manually or on schedule, and implements the Notes
/// "new & changed documents" incremental trigger via the per-file
/// modified-in-file stamps.
class AgentRunner {
 public:
  explicit AgentRunner(Database* db);

  /// Persists the agent design note (replacing a same-named agent) and
  /// registers it.
  Status AddAgent(const AgentDesign& design);

  /// Reloads agent designs from the database (picks up agents that
  /// arrived via replication). On a failed scan the agents stay as they
  /// were.
  Status Reload();

  std::vector<std::string> AgentNames() const;

  /// Runs one agent against its selected documents now.
  Result<AgentRunReport> RunAgent(std::string_view name);

  /// Runs every scheduled / new-&-changed agent that is due at `now`.
  /// Returns the reports of the agents that ran.
  Result<std::vector<AgentRunReport>> RunDue(Micros now);

 private:
  struct AgentState {
    AgentDesign design;
    Micros last_run = 0;          // wall/sim time of last run
    Micros last_seen_stamp = 0;   // modified-in-file cutoff for kOnNewAndChanged
    /// The versions (UNID, sequence) the last run's updates produced. They
    /// are stamped past the cutoff, so the next run skips them by name; a
    /// later edit by anyone else bumps the sequence and is processed.
    std::set<std::pair<Unid, uint32_t>> own_writes;
  };

  Result<AgentRunReport> Execute(AgentState* state);

  Database* db_;
  std::map<std::string, AgentState> agents_;  // lower-cased name
};

}  // namespace dominodb

#endif  // DOMINODB_AGENT_AGENT_H_
