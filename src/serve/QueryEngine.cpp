//===- serve/QueryEngine.cpp - Queries over a warm solver -----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "serve/QueryEngine.h"

#include "support/Trace.h"

using namespace poce;
using namespace poce::serve;

QueryEngine::QueryEngine(SolverBundle InBundle)
    : Bundle(std::move(InBundle)) {
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

std::shared_ptr<const ReadView> QueryEngine::view() {
  if (Current && !ViewStale)
    return Current;
  trace::Span Span("query.view_build");
  Bundle.Solver->finalize();
  Current = ReadView::build(*Bundle.Solver, System, Current.get(),
                            ViewsBuilt++);
  ViewStale = false;
  Stats.RowsBuilt += Current->rowsBuilt();
  Stats.RowsReused += Current->rowsReused();
  return Current;
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
  ViewStale = true;
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
  Current.reset();
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
  Current.reset();
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
