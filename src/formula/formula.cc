#include "formula/formula.h"

#include <mutex>
#include <unordered_map>

#include "base/string_util.h"
#include "formula/bytecode.h"
#include "formula/eval.h"
#include "formula/parser.h"
#include "formula/vm.h"
#include "stats/stats.h"

namespace dominodb::formula {

namespace {

/// Formula evaluations happen inside whatever registry-owning component
/// invoked them (views, replication filters, searches), so the engine
/// itself reports process-wide totals only.
struct FormulaCounters {
  stats::Counter* evals;
  stats::Counter* errors;
  stats::Counter* cache_hits;
  stats::Counter* cache_misses;
  stats::Counter* vm_evals;
  stats::Counter* tree_evals;
  FormulaCounters() {
    stats::StatRegistry& reg = stats::StatRegistry::Global();
    evals = &reg.GetCounter("Formula.Evals");
    errors = &reg.GetCounter("Formula.Errors");
    cache_hits = &reg.GetCounter("Formula.CacheHits");
    cache_misses = &reg.GetCounter("Formula.CacheMisses");
    vm_evals = &reg.GetCounter("Formula.VmEvals");
    tree_evals = &reg.GetCounter("Formula.TreeEvals");
  }
};

FormulaCounters& Counters() {
  static FormulaCounters counters;
  return counters;
}

/// Compiled formulas are immutable and evaluation is const, so one
/// CompiledFormula (AST + bytecode) can back any number of Formula objects
/// across any number of threads. View rebuilds, background index
/// maintenance and agents recompile the same selection/column sources over
/// and over; the cache turns every repeat into a shared_ptr copy.
class CompileCache {
 public:
  static constexpr size_t kMaxEntries = 4096;

  std::shared_ptr<const CompiledFormula> Find(std::string_view source) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(std::string(source));
    if (it == entries_.end()) return nullptr;
    return it->second;
  }

  void Insert(std::string_view source,
              std::shared_ptr<const CompiledFormula> compiled) {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.size() >= kMaxEntries) entries_.clear();  // crude but bounded
    entries_.emplace(std::string(source), std::move(compiled));
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

  static CompileCache& Instance() {
    static CompileCache cache;
    return cache;
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledFormula>>
      entries_;
};

void ScanForResponseSelectors(const Expr& e, bool* children,
                              bool* descendants) {
  if (e.kind == ExprKind::kCall) {
    if (EqualsIgnoreCase(e.name, "AllChildren")) *children = true;
    if (EqualsIgnoreCase(e.name, "AllDescendants")) *descendants = true;
  }
  for (const ExprPtr& child : e.children) {
    ScanForResponseSelectors(*child, children, descendants);
  }
}

}  // namespace

Result<Formula> Formula::Compile(std::string_view source) {
  Formula f;
  f.source_ = std::string(source);
  if (auto cached = CompileCache::Instance().Find(source)) {
    Counters().cache_hits->Add();
    f.compiled_ = std::move(cached);
    return f;
  }
  Counters().cache_misses->Add();
  DOMINO_ASSIGN_OR_RETURN(auto program, Parse(source));
  bool children = false, descendants = false;
  for (const ExprPtr& stmt : program->statements) {
    ScanForResponseSelectors(*stmt, &children, &descendants);
  }
  f.compiled_ = CompiledFormula::Build(std::move(program), children,
                                       descendants);
  CompileCache::Instance().Insert(source, f.compiled_);
  return f;
}

Result<Value> Formula::Evaluate(const EvalContext& ctx,
                                const FormulaOptions& opts) const {
  if (compiled_ == nullptr) {
    return Status::FailedPrecondition("formula not compiled");
  }
  Counters().evals->Add();
  Evaluator ev(ctx);
  Result<Value> result = [&] {
    if (opts.use_vm && compiled_->has_chunk()) {
      Counters().vm_evals->Add();
      Vm vm;
      return vm.Run(compiled_->chunk(), ev);
    }
    Counters().tree_evals->Add();
    return ev.Run(compiled_->program());
  }();
  if (!result.ok()) Counters().errors->Add();
  return result;
}

Result<bool> Formula::Matches(const EvalContext& ctx,
                              const FormulaOptions& opts) const {
  if (compiled_ == nullptr) {
    return Status::FailedPrecondition("formula not compiled");
  }
  Counters().evals->Add();
  Evaluator ev(ctx);
  Result<Value> last = [&] {
    if (opts.use_vm && compiled_->has_chunk()) {
      Counters().vm_evals->Add();
      Vm vm;
      return vm.Run(compiled_->chunk(), ev);
    }
    Counters().tree_evals->Add();
    return ev.Run(compiled_->program());
  }();
  if (!last.ok()) {
    Counters().errors->Add();
    return last.status();
  }
  if (ev.select_value().has_value()) return *ev.select_value();
  return last->AsBool();
}

bool Formula::has_select() const {
  return compiled_ != nullptr && compiled_->program().has_select;
}

const std::vector<std::string>& Formula::referenced_fields() const {
  static const std::vector<std::string> kEmpty;
  return compiled_ != nullptr ? compiled_->program().referenced_fields
                              : kEmpty;
}

bool Formula::selects_all_children() const {
  return compiled_ != nullptr && compiled_->selects_all_children();
}

bool Formula::selects_all_descendants() const {
  return compiled_ != nullptr && compiled_->selects_all_descendants();
}

// -- BatchEvaluator -------------------------------------------------------

struct BatchEvaluator::Impl {
  std::shared_ptr<const CompiledFormula> compiled;  // keeps chunk alive
  bool use_vm = false;
  Vm vm;  // register file reused across notes

  // Per-eval counters are tallied locally and flushed in batches: two
  // atomic RMWs per note are measurable against a sub-100ns VM eval.
  uint64_t pending_evals = 0;
  uint64_t pending_errors = 0;

  void Flush() {
    if (pending_evals == 0) return;
    FormulaCounters& c = Counters();
    c.evals->Add(pending_evals);
    (use_vm ? c.vm_evals : c.tree_evals)->Add(pending_evals);
    if (pending_errors != 0) c.errors->Add(pending_errors);
    pending_evals = 0;
    pending_errors = 0;
  }

  void Count(bool error) {
    ++pending_evals;
    if (error) ++pending_errors;
    if (pending_evals >= 256) Flush();
  }
};

BatchEvaluator::BatchEvaluator(const Formula& formula,
                               const FormulaOptions& opts)
    : impl_(new Impl) {
  impl_->compiled = formula.compiled();
  impl_->use_vm = opts.use_vm && impl_->compiled != nullptr &&
                  impl_->compiled->has_chunk();
}

BatchEvaluator::~BatchEvaluator() {
  if (impl_ != nullptr) impl_->Flush();
}
BatchEvaluator::BatchEvaluator(BatchEvaluator&&) noexcept = default;
BatchEvaluator& BatchEvaluator::operator=(BatchEvaluator&&) noexcept =
    default;

Result<Value> BatchEvaluator::Evaluate(const EvalContext& ctx) {
  if (impl_->compiled == nullptr) {
    return Status::FailedPrecondition("formula not compiled");
  }
  Evaluator ev(ctx);
  Result<Value> result = impl_->use_vm
                             ? impl_->vm.Run(impl_->compiled->chunk(), ev)
                             : ev.Run(impl_->compiled->program());
  impl_->Count(!result.ok());
  return result;
}

Result<bool> BatchEvaluator::Matches(const EvalContext& ctx) {
  if (impl_->compiled == nullptr) {
    return Status::FailedPrecondition("formula not compiled");
  }
  Evaluator ev(ctx);
  if (impl_->use_vm) {
    // RunInPlace leaves the result value in the VM's register file, so a
    // selection batch over N notes does no per-note result allocation.
    Result<Value*> last = impl_->vm.RunInPlace(impl_->compiled->chunk(), ev);
    impl_->Count(!last.ok());
    if (!last.ok()) return last.status();
    if (ev.select_value().has_value()) return *ev.select_value();
    return (*last)->AsBool();
  }
  Result<Value> last = ev.Run(impl_->compiled->program());
  impl_->Count(!last.ok());
  if (!last.ok()) return last.status();
  if (ev.select_value().has_value()) return *ev.select_value();
  return last->AsBool();
}

Result<Value> EvaluateFormula(std::string_view source,
                              const EvalContext& ctx) {
  DOMINO_ASSIGN_OR_RETURN(Formula f, Formula::Compile(source));
  return f.Evaluate(ctx);
}

void ClearCompileCache() { CompileCache::Instance().Clear(); }

}  // namespace dominodb::formula
