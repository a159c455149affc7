#ifndef DOMINODB_FORMULA_FORMULA_H_
#define DOMINODB_FORMULA_FORMULA_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/clock.h"
#include "base/result.h"
#include "model/note.h"
#include "model/value.h"

namespace dominodb::formula {

struct Program;
class CompiledFormula;

/// Engine selection. The default engine is the register-bytecode VM
/// (bytecode.h/vm.h); the tree-walking interpreter remains available as
/// the differential-testing oracle and as the fallback for formulas the
/// compiler declines (register overflow — practically unreachable).
/// Callers that pass no options get the VM; differential tests and
/// benches pick the tree-walker with `use_vm = false`.
struct FormulaOptions {
  bool use_vm = true;
};

/// Everything a formula evaluation may touch. All pointers are borrowed
/// and may be null (the corresponding @functions then see defaults).
struct EvalContext {
  /// Document the formula runs against (field reads, @Created, ...).
  const Note* note = nullptr;
  /// Target of FIELD assignments / @SetField; null makes those no-ops
  /// recorded as errors.
  Note* mutable_note = nullptr;
  /// Time source for @Now/@Today; null falls back to 0.
  const Clock* clock = nullptr;
  /// @UserName.
  std::string username;
  /// @DbTitle / @ReplicaID.
  std::string db_title;
  std::string replica_id;
  /// Hook for @DbColumn / @DbLookup, bound by the database
  /// (Database::BindFormulaServices). `key == nullopt` means @DbColumn
  /// (the whole column); `column` is 1-based. Null → those functions fail.
  ///
  /// Threading: evaluation may run on many threads at once, so the hook
  /// must tolerate concurrent invocation. It is also re-entered from
  /// inside database read transactions (a FormulaSearch selection that
  /// calls @DbLookup). Database::BindFormulaServices satisfies both by
  /// opening a ReadTxn per call, which joins the thread's enclosing pin
  /// when there is one; it takes no database lock.
  std::function<Result<Value>(const std::string& view_name,
                              const std::optional<Value>& key,
                              size_t column)>
      db_lookup;
};

/// A compiled, immutable, shareable formula. Compile once, evaluate on
/// many documents — view indexing depends on this being cheap.
///
/// Evaluate/Matches are const and keep all per-run state in a private
/// Evaluator, so one Formula may be evaluated concurrently from many
/// threads. Concurrent snapshot readers (Database::FormulaSearch) rely on
/// this.
class Formula {
 public:
  /// Compiles `source`; returns a SyntaxError status on bad input.
  static Result<Formula> Compile(std::string_view source);

  Formula() = default;

  /// Runs the statement list, returning the final value. FIELD
  /// assignments mutate ctx.mutable_note if provided.
  Result<Value> Evaluate(const EvalContext& ctx,
                         const FormulaOptions& opts = FormulaOptions()) const;

  /// Selection semantics: the value of the SELECT statement if present,
  /// otherwise the truthiness of the final value. Used by view selection
  /// and selective replication.
  Result<bool> Matches(const EvalContext& ctx,
                       const FormulaOptions& opts = FormulaOptions()) const;

  /// True if the formula source was compiled (non-default object).
  bool valid() const { return compiled_ != nullptr; }

  /// The shared compiled artifact (bytecode + AST); null on a
  /// default-constructed Formula.
  const std::shared_ptr<const CompiledFormula>& compiled() const {
    return compiled_;
  }

  const std::string& source() const { return source_; }
  bool has_select() const;
  /// Lower-cased field names the formula references.
  const std::vector<std::string>& referenced_fields() const;

  /// SELECT ... | @AllChildren / @AllDescendants: the view engine includes
  /// response documents of selected parents (one level / all levels).
  bool selects_all_children() const;
  bool selects_all_descendants() const;

 private:
  std::shared_ptr<const CompiledFormula> compiled_;
  std::string source_;
};

/// Evaluates one compiled formula over many documents, reusing the VM's
/// register file (and the Evaluator's allocations the VM feeds) across
/// notes. UPDALL, view selection and FormulaSearch iterate millions of
/// notes against the same selection formula — per-note setup is the
/// dominant cost the bytecode engine removes, so batch paths should hold
/// one of these instead of calling Formula::Evaluate per note.
///
/// Not thread-safe: one BatchEvaluator per worker thread (the underlying
/// Formula/CompiledFormula is shared and immutable).
class BatchEvaluator {
 public:
  explicit BatchEvaluator(const Formula& formula,
                          const FormulaOptions& opts = FormulaOptions());
  ~BatchEvaluator();
  BatchEvaluator(BatchEvaluator&&) noexcept;
  BatchEvaluator& operator=(BatchEvaluator&&) noexcept;

  /// Same semantics as Formula::Evaluate / Formula::Matches.
  Result<Value> Evaluate(const EvalContext& ctx);
  Result<bool> Matches(const EvalContext& ctx);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: compile + evaluate in one call (examples, tests).
Result<Value> EvaluateFormula(std::string_view source,
                              const EvalContext& ctx);

/// Drops every cached compiled formula (benchmarks measuring cold-compile
/// cost; tests asserting cache behavior).
void ClearCompileCache();

}  // namespace dominodb::formula

#endif  // DOMINODB_FORMULA_FORMULA_H_
