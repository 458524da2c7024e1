//===- serve/QueryEngine.cpp - Queries over a warm solver -----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "serve/QueryEngine.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstring>

using namespace poce;
using namespace poce::serve;

namespace {

/// Time spent materializing a query view (cache miss or stale rebuild).
Histogram &viewBuildHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_query_view_build_us",
      "Microseconds to build an ls/pts view (cache misses and rebuilds)");
  return H;
}

} // namespace

QueryEngine::QueryEngine(SolverBundle InBundle, size_t CacheCapacity)
    : Bundle(std::move(InBundle)), Cache(CacheCapacity) {
  if (!Bundle.Solver) {
    InitError = "empty solver bundle";
    return;
  }
  Status Adopt = System.adoptDeclarations(*Bundle.Solver);
  if (!Adopt) {
    InitError = Adopt.message();
    return;
  }
  Valid = true;
  // The base capture drains the worklist (serialize() solves first), so a
  // bundle handed over mid-solve settles here before the first query.
  Status Base = GraphSnapshot::serialize(*Bundle.Solver, BaseBytes);
  RollbackArmed = Base.ok();
  if (!RollbackArmed)
    BaseBytes.clear();
}

uint32_t QueryEngine::varOf(const std::string &Name) const {
  uint32_t Index = System.varIndex(Name);
  if (Index == ConstraintSystemFile::NotFound ||
      Index >= Bundle.Solver->numCreations())
    return NotFound;
  return Bundle.Solver->varOfCreation(Index);
}

std::string render::locationTag(const ConstraintSolver &Solver,
                                ExprId Term) {
  const TermTable &Terms = Solver.terms();
  if (Terms.kind(Term) == ExprKind::Cons) {
    const ConstructorTable &Cons = Terms.constructors();
    ConsId C = Terms.consOf(Term);
    if (Cons.signature(C).arity() == 0)
      return Cons.signature(C).Name;
    // ref(l, get, set)-shaped terms: the first argument is the location
    // name constructor.
    ExprId First = Terms.argsOf(Term)[0];
    if (Terms.kind(First) == ExprKind::Cons &&
        Cons.signature(Terms.consOf(First)).arity() == 0)
      return Cons.signature(Terms.consOf(First)).Name;
  }
  return Solver.exprStr(Term);
}

std::vector<std::string>
render::lsItems(const ConstraintSolver &Solver,
                const std::vector<ExprId> &Terms) {
  std::vector<std::string> Items;
  Items.reserve(Terms.size());
  for (ExprId Term : Terms)
    Items.push_back(Solver.exprStr(Term));
  return Items;
}

std::vector<std::string>
render::ptsItems(const ConstraintSolver &Solver,
                 const std::vector<ExprId> &Terms) {
  // Projection to tags can fold several terms onto one location; keep
  // the output sorted and deduplicated so responses are canonical.
  std::vector<std::string> Items;
  Items.reserve(Terms.size());
  for (ExprId Term : Terms)
    Items.push_back(locationTag(Solver, Term));
  std::sort(Items.begin(), Items.end());
  Items.erase(std::unique(Items.begin(), Items.end()), Items.end());
  return Items;
}

std::string render::renderSet(const std::vector<std::string> &Items) {
  std::string Out = "{";
  for (size_t I = 0; I != Items.size(); ++I)
    Out += (I ? ", " : " ") + Items[I];
  Out += Items.empty() ? "}" : " }";
  return Out;
}

const std::vector<std::string> &QueryEngine::view(ViewKind Kind, VarId Var) {
  ConstraintSolver &Solver = *Bundle.Solver;
  // Settle the graph before resolving the representative (a pending wave
  // closure may collapse Var into a class), and force the lazy finalize
  // before sampling the epoch — the inductive form's epoch bumps land at
  // finalize time, when recomputed solutions are diffed against their
  // previous values.
  Solver.ensureClosed();
  VarId Rep = Solver.rep(Var);
  (void)Solver.leastSolutionBits(Rep);
  uint64_t Epoch = Solver.mutationEpoch(Rep);
  uint64_t Key =
      (static_cast<uint64_t>(static_cast<uint8_t>(Kind)) << 32) | Rep;
  if (View *Cached = Cache.get(Key)) {
    if (Cached->Epoch == Epoch) {
      ++Stats.CacheHits;
      return Cached->Items;
    }
    ++Stats.StaleRebuilds;
  } else {
    ++Stats.CacheMisses;
  }

  const bool Timed = MetricsRegistry::timingEnabled() || trace::enabled();
  const uint64_t StartUs = Timed ? trace::nowMicros() : 0;
  View Fresh;
  Fresh.Epoch = Epoch;
  Fresh.Items = Kind == ViewKind::Ls
                    ? render::lsItems(Solver, Solver.leastSolution(Rep))
                    : render::ptsItems(Solver, Solver.leastSolution(Rep));
  Cache.put(Key, std::move(Fresh));
  if (Timed) {
    viewBuildHistogram().record(trace::nowMicros() - StartUs);
    trace::complete("query.view_build", StartUs);
  }
  return Cache.get(Key)->Items;
}

const std::vector<std::string> &QueryEngine::ls(VarId Var) {
  return view(ViewKind::Ls, Var);
}

const std::vector<std::string> &QueryEngine::pts(VarId Var) {
  return view(ViewKind::Pts, Var);
}

bool QueryEngine::alias(VarId X, VarId Y) {
  ConstraintSolver &Solver = *Bundle.Solver;
  if (Solver.rep(X) == Solver.rep(Y))
    return true;
  return Solver.leastSolutionBits(X).intersects(Solver.leastSolutionBits(Y));
}

Status QueryEngine::check(WalRecord &Rec) const {
  if (!Valid)
    return Status::error(ErrorCode::FailedPrecondition,
                         "engine is invalid: " + InitError);
  const ConstraintSolver &Solver = *Bundle.Solver;
  if (!Rec.isRetract())
    return System.checkLine(Rec.Line, Solver);
  std::string Canon;
  Status St = System.canonicalizeConstraint(Rec.Line, Solver, Canon);
  if (!St)
    return St;
  if (!Solver.hasRootTag(Canon))
    return Status::error(ErrorCode::NotFound,
                         "no live constraint '" + Canon + "' to retract");
  Rec.Line = std::move(Canon);
  return Status();
}

Status QueryEngine::checkConstraint(const std::string &Line) const {
  WalRecord Rec = WalRecord::add(Line);
  return check(Rec);
}

Status QueryEngine::checkRetract(const std::string &Line,
                                 std::string *Canon) const {
  WalRecord Rec = WalRecord::retract(Line);
  Status St = check(Rec);
  if (St.ok() && Canon)
    *Canon = std::move(Rec.Line);
  return St;
}

Status QueryEngine::mutate(ConstraintSystemFile &System,
                           ConstraintSolver &Solver, WalRecord &Rec) {
  if (Rec.isRetract()) {
    std::string Canon;
    Status St = System.canonicalizeConstraint(Rec.Line, Solver, Canon);
    if (!St)
      return St;
    if (!Solver.retract(Canon))
      return Status::error(ErrorCode::NotFound,
                           "no live constraint '" + Canon + "' to retract");
    // The system records only constraints added through an engine —
    // adoptDeclarations() cleared the pre-existing ones, for which the
    // solver's base-root provenance is authoritative — so removal here is
    // best-effort.
    (void)System.removeConstraint(Canon);
    Rec.Line = std::move(Canon);
  } else {
    Status St = System.addLine(Rec.Line, Solver);
    if (!St)
      return St;
  }
  // Wave closure defers consequences until a solution is needed; force
  // them now so a budget breach surfaces at the record that caused it,
  // exactly as in worklist mode. A retraction's cone replay runs under
  // the same budgets. No-op for worklist closure.
  Solver.ensureClosed();
  return Status();
}

Status QueryEngine::apply(WalRecord Rec) {
  if (!Valid)
    return Status::error(ErrorCode::FailedPrecondition,
                         "engine is invalid: " + InitError);
  Status St = mutate(System, *Bundle.Solver, Rec);
  if (!St)
    return St;
  if (Bundle.Solver->stats().Aborted) {
    ++Stats.BudgetAborts;
    SolverStats::AbortReason Why = Bundle.Solver->stats().Abort;
    Status Restored = rollback();
    if (!Restored)
      return Status::error(
          ErrorCode::Internal,
          std::string("budget breach (") + SolverStats::abortReasonName(Why) +
              ") could not be rolled back: " + Restored.message());
    ++Stats.Rollbacks;
    return Status::error(ErrorCode::BudgetExceeded,
                         std::string(SolverStats::abortReasonName(Why)) +
                             " budget exceeded; batch rolled back");
  }
  ++(Rec.isRetract() ? Stats.Retractions : Stats.Additions);
  AcceptedLines.push_back(Rec.encode());
  return Status();
}

Status QueryEngine::rollback() {
  if (!RollbackArmed)
    return Status::error(ErrorCode::FailedPrecondition,
                         "no rollback base (solver was not serializable)");

  // The live solver's budgets win over whatever the base snapshot
  // recorded (callers may have re-armed them since the base was taken).
  const SolverOptions Live = Bundle.Solver->options();

  SolverBundle Rebuilt;
  Status Load =
      GraphSnapshot::deserialize(BaseBytes.data(), BaseBytes.size(), Rebuilt);
  if (!Load)
    return Load.withContext("rebuilding pre-batch solver");

  // The journal was accepted under budgets; replaying it is not a new
  // batch, so budgets are off for the duration. The schedule is the live
  // one (snapshots do not record it, so the rebuilt solver starts on the
  // default), and each record closes before the next, as it did when it
  // was accepted: the replay retraces the live history, and no deferred
  // closure is left to run under the budgets re-armed below.
  ConstraintSolver &Fresh = *Rebuilt.Solver;
  Fresh.setBudgets(0, 0, 0);
  Fresh.setClosure(Live.Closure);

  ConstraintSystemFile Replayed;
  Status Adopt = Replayed.adoptDeclarations(Fresh);
  if (!Adopt)
    return Adopt.withContext("re-adopting declarations during rollback");
  for (const std::string &Line : AcceptedLines) {
    WalRecord Rec = WalRecord::decode(Line);
    Status St = mutate(Replayed, Fresh, Rec);
    if (!St)
      return St.withContext("replaying journal line '" + Line + "'");
    if (Fresh.stats().Aborted)
      return Status::error(ErrorCode::Internal,
                           "journal replay aborted with budgets disabled");
  }
  Fresh.setBudgets(Live.DeadlineMs, Live.MaxEdgeBudget, Live.MaxMemBytes);
  Fresh.setPreprocess(Live.Preprocess);

  Bundle = std::move(Rebuilt);
  System = std::move(Replayed);
  Cache.clear();
  return Status();
}

Status QueryEngine::resetFromSnapshot(const uint8_t *Data, size_t Size) {
  SolverBundle Rebuilt;
  Status Load = GraphSnapshot::deserialize(Data, Size, Rebuilt);
  if (!Load)
    return Load.withContext("rebuilding from replacement snapshot");
  ConstraintSystemFile Adopted;
  Status Adopt = Adopted.adoptDeclarations(*Rebuilt.Solver);
  if (!Adopt)
    return Adopt.withContext("adopting replacement snapshot declarations");
  // Snapshots do not record the closure schedule; keep the live one, as
  // a rollback does, instead of falling back to the default.
  if (Bundle.Solver)
    Rebuilt.Solver->setClosure(Bundle.Solver->options().Closure);
  Bundle = std::move(Rebuilt);
  System = std::move(Adopted);
  Cache.clear();
  AcceptedLines.clear();
  BaseBytes.assign(Data, Data + Size);
  RollbackArmed = true;
  Valid = true;
  InitError.clear();
  return Status();
}

Status QueryEngine::checkpointBase() {
  if (!Valid)
    return Status::error(ErrorCode::FailedPrecondition,
                         "engine is invalid: " + InitError);
  std::vector<uint8_t> Fresh;
  Status St = GraphSnapshot::serialize(*Bundle.Solver, Fresh);
  if (!St)
    return St.withContext("checkpointing rollback base");
  checkpointBase(std::move(Fresh));
  return Status();
}

void QueryEngine::checkpointBase(std::vector<uint8_t> Bytes) {
  BaseBytes = std::move(Bytes);
  AcceptedLines.clear();
  RollbackArmed = true;
}
