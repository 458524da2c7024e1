//===- setcon/ConstraintSolver.cpp - Inclusion constraint solver ----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "setcon/ConstraintSolver.h"

#include "graph/TarjanSCC.h"
#include "setcon/Oracle.h"
#include "setcon/Preprocess.h"
#include "support/CacheAligned.h"
#include "support/Debug.h"
#include "support/ErrorHandling.h"
#include "support/FailPoint.h"
#include "support/MemUsage.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>

#define POCE_DEBUG_TYPE "setcon"

using namespace poce;

namespace {

// Per-phase timing is off unless a trace is armed or a server enabled
// MetricsRegistry timing: the closure loop runs once per addConstraint, so
// the untimed path must stay at a single relaxed load + branch (the <2%
// micro_solver regression budget).
inline bool phaseTimingOn() {
  return MetricsRegistry::timingEnabled() || trace::enabled();
}

Histogram &closureHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_solver_closure_us", "Closure drain (one budget batch) wall time");
  return H;
}

Histogram &cycleSearchHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_solver_cycle_search_us",
      "Partial online cycle detection per variable-variable insertion");
  return H;
}

Histogram &leastSolutionHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_solver_ls_us", "Least-solution computation wall time");
  return H;
}

Histogram &wavePassHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_solver_wave_pass_us",
      "One topologically ordered wave-propagation sweep");
  return H;
}

Histogram &preprocessHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_solver_preprocess_us",
      "Offline preprocessing (HVN labeling + Tarjan SCC condensation)");
  return H;
}

Histogram &waveOrderHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_solver_wave_order_us",
      "Wave-order rebuild (Tarjan on resolved rows + level + CSR "
      "edge layout)");
  return H;
}

} // namespace

ConstraintSolver::ConstraintSolver(TermTable &Terms, SolverOptions Options,
                                   const Oracle *WitnessOracle)
    : Terms(Terms), Options(Options), WitnessOracle(WitnessOracle),
      OrderRng(Options.Seed) {
  if (Options.Elim == CycleElim::Oracle && !WitnessOracle)
    reportFatalError("oracle cycle elimination requires an Oracle instance");
  if (Options.Elim == CycleElim::Periodic && Options.PeriodicInterval == 0)
    reportFatalError("periodic cycle elimination requires a nonzero interval");
  NextPeriodicWork = Options.PeriodicInterval;
  PreprocessDone = Options.Preprocess != PreprocessMode::Offline;
}

//===----------------------------------------------------------------------===//
// Variable creation
//===----------------------------------------------------------------------===//

VarId ConstraintSolver::freshVar(std::string_view Name) {
  invalidateSolutions();
  uint32_t CreationIndex = numCreations();

  if (WitnessOracle && Options.Elim == CycleElim::Oracle) {
    uint32_t Witness = WitnessOracle->witness(CreationIndex);
    if (Witness != CreationIndex) {
      assert(Witness < CreationIndex &&
             "oracle witness must be created before its members!");
      VarId Existing = VarOfCreation[Witness];
      VarOfCreation.push_back(Existing);
      ++Stats.OracleSubstitutions;
      return Existing;
    }
  }

  VarId Var = static_cast<VarId>(Vars.size());
  invalidateWaveOrder();
  Vars.emplace_back();
  VarNode &Node = Vars.back();
  Node.Name = std::string(Name);
  Node.CreationIndex = CreationIndex;
  switch (Options.Order) {
  case OrderKind::Random:
    Node.Order = (static_cast<uint64_t>(OrderRng.nextU32()) << 32) | Var;
    break;
  case OrderKind::Creation:
    Node.Order = Var;
    break;
  case OrderKind::ReverseCreation:
    Node.Order = ~static_cast<uint64_t>(Var);
    break;
  }
  uint32_t ForwardingId = Forwarding.makeSet();
  assert(ForwardingId == Var && "forwarding table out of sync!");
  (void)ForwardingId;
  VarOfCreation.push_back(Var);
  ++Stats.VarsCreated;
  return Var;
}

uint32_t ConstraintSolver::numLiveVars() const {
  uint32_t Count = 0;
  for (VarId Var = 0; Var != numVars(); ++Var)
    if (Forwarding.isRepresentative(Var))
      ++Count;
  return Count;
}

//===----------------------------------------------------------------------===//
// Worklist and resolution rules
//===----------------------------------------------------------------------===//

void ConstraintSolver::addConstraint(ExprId Lhs, ExprId Rhs,
                                     std::string Tag) {
  invalidateSolutions();
  // Aborted batches are rolled back by the caller, so an aborted solve
  // neither records nor queues anything.
  if (Stats.Aborted)
    return;
  // BaseRoots lists every accepted top-level input, in input order.
  BaseRoots.push_back({Lhs, Rhs, std::move(Tag)});
  RootQueue.push_back({Lhs, Rhs});
  // Worklist closes each add eagerly, the paper's online discipline; wave
  // waits for ensureClosed(). An armed offline pass holds the whole bulk
  // load for its analysis either way.
  if (!waveMode() && !offlinePending())
    drain();
}

void ConstraintSolver::ensureClosed() {
  if (offlinePending())
    runOfflinePass();
  drain();
}

void ConstraintSolver::runOfflinePass() {
  assert(!Draining && "offline pass requested mid-drain");
  PreprocessDone = true;
  if (RootQueue.empty())
    return;
  const bool Timed = phaseTimingOn();
  const uint64_t StartUs = Timed ? trace::nowMicros() : 0;

  OfflineEquivalence Equiv = offlinePreprocess(
      Terms, RootQueue, numVars(),
      [this](VarId Var) { return Vars[Var].Order; });
  Stats.OfflineCollapsedVars = Equiv.SCCCollapsedVars;
  Stats.OfflineSCCs = Equiv.NontrivialSCCs;
  Stats.HVNLabels = Equiv.Labels;
  if (!Equiv.Merges.empty()) {
    invalidateWaveOrder();
    invalidateChainSummaries();
    for (auto [Var, Witness] : Equiv.Merges) {
      bool United = Forwarding.unite(Var, Witness);
      assert(United && "offline merge of a non-representative!");
      (void)United;
    }
  }
  if (Timed) {
    preprocessHistogram().record(trace::nowMicros() - StartUs);
    trace::complete("solver.preprocess", StartUs);
  }
  // The bulk load stays queued for the drain that follows, through the
  // untouched online path. The merged classes make every root resolve
  // against its class witness, exactly as if the online search had
  // collapsed the cycle (or the copy chain had one name) from the start.
}

void ConstraintSolver::invalidateSolutions() {
  if (!Finalized)
    return;
  Finalized = false;
  LSBits.clear();
  LSOwner.clear();
}

void ConstraintSolver::enqueue(ExprId Lhs, ExprId Rhs) {
  if (!Stats.Aborted)
    Worklist.push_back({Lhs, Rhs, /*FlushDelta=*/false});
}

void ConstraintSolver::scheduleFlush(VarId Var) {
  if (Stats.Aborted)
    return;
  if (waveMode()) {
    // Deltas accumulate until the next sweep instead of racing down the
    // worklist. A delivery at or before the sweep cursor went around a
    // cycle the order leveled as one component (SF-Online collapses those
    // at build); the variable simply re-enters the heap (and is counted).
    PendingWave.push_back(Var);
    if (InWavePass && WaveIndex[Var] <= WaveCursor)
      ++Stats.WaveFallbacks;
    return;
  }
  Worklist.push_back({Var, 0, /*FlushDelta=*/true});
}

void ConstraintSolver::drain() {
  if (Draining)
    return;
  if (RootQueue.empty() && Worklist.empty() && PendingWave.empty())
    return;
  const bool Timed = phaseTimingOn();
  const uint64_t StartUs = Timed ? trace::nowMicros() : 0;
  Draining = true;
  beginBatchBudgets();
  size_t RootHead = 0;
  while (!Stats.Aborted) {
    // Structural phase: derived items LIFO, the next queued root only
    // when the worklist is empty. Both schedules resolve the same items
    // in the same order; they differ only in where source deltas wait.
    if (!Worklist.empty()) {
      WorkItem Item = Worklist.back();
      Worklist.pop_back();
      if (Item.FlushDelta) {
        flushDelta(Item.Lhs);
      } else {
        ++Stats.ConstraintsProcessed;
        resolve(Item.Lhs, Item.Rhs, /*Derived=*/true);
      }
    } else if (RootHead != RootQueue.size()) {
      auto [Lhs, Rhs] = RootQueue[RootHead++];
      ++Stats.ConstraintsProcessed;
      resolve(Lhs, Rhs, /*Derived=*/false);
    } else if (!PendingWave.empty()) {
      // Propagation phase (wave only). Sweeps can enqueue sink
      // resolutions (constructor decomposition happens element-wise),
      // which return to the structural phase; the drain alternates until
      // both phases run dry.
      runWavePass();
      continue;
    } else {
      break;
    }
    // Offline passes run at a safe point, between worklist items.
    if (Options.Elim == CycleElim::Periodic && Stats.Work >= NextPeriodicWork) {
      runPeriodicPass();
      NextPeriodicWork = Stats.Work + Options.PeriodicInterval;
    }
    checkBatchBudgets();
  }
  RootQueue.clear();
  Draining = false;
  if (Timed) {
    closureHistogram().record(trace::nowMicros() - StartUs);
    trace::complete("solver.closure", StartUs);
  }
}

//===----------------------------------------------------------------------===//
// Wave closure
//===----------------------------------------------------------------------===//

void ConstraintSolver::runWavePass() {
  const bool Timed = phaseTimingOn();
  const uint64_t StartUs = Timed ? trace::nowMicros() : 0;
  if (!WaveOrderValid) {
    buildWaveOrder();
    if (Timed) {
      waveOrderHistogram().record(trace::nowMicros() - StartUs);
      trace::complete("solver.wave_order", StartUs);
    }
    // The build collapsed cycles: their re-adds wait on the worklist, and
    // the next pass levels the graph they leave.
    if (!WaveOrderValid)
      return;
  }
  ++Stats.WavePasses;

  // Min-heap on topological position: a variable is flushed only once
  // every delta reachable from earlier positions has landed, so acyclic
  // regions flush exactly once per sweep no matter how deltas interleave.
  auto ByPosition = [this](VarId A, VarId B) {
    return WaveIndex[A] > WaveIndex[B];
  };
  WaveHeap.clear();
  WaveHeap.swap(PendingWave);
  std::make_heap(WaveHeap.begin(), WaveHeap.end(), ByPosition);
  InWavePass = true;
  uint32_t LastLevel = UINT32_MAX;
  while (!WaveHeap.empty() && !Stats.Aborted) {
    std::pop_heap(WaveHeap.begin(), WaveHeap.end(), ByPosition);
    VarId Var = WaveHeap.back();
    WaveHeap.pop_back();
    // Collapsed away between scheduling and the sweep, or already covered
    // because an earlier pop flushed the refilled delta.
    if (!Forwarding.isRepresentative(Var) || Vars[Var].SrcDelta.empty())
      continue;
    WaveCursor = WaveIndex[Var];
    if (WaveLevel[Var] != LastLevel) {
      LastLevel = WaveLevel[Var];
      ++Stats.LevelsPropagated;
    }
    flushDelta(Var);
    checkBatchBudgets();
    // Deliveries during the flush park their targets in PendingWave; fold
    // them into the heap (fallbacks included — they pop next).
    for (VarId Scheduled : PendingWave) {
      WaveHeap.push_back(Scheduled);
      std::push_heap(WaveHeap.begin(), WaveHeap.end(), ByPosition);
    }
    PendingWave.clear();
  }
  InWavePass = false;
  if (Stats.Aborted)
    WaveHeap.clear();
  if (Timed) {
    wavePassHistogram().record(trace::nowMicros() - StartUs);
    trace::complete("solver.wave_pass", StartUs);
  }
}

GraphRows ConstraintSolver::liveVarRows() {
  // One row per VarId, targets resolved and self references dropped. Dead
  // variables keep empty rows: Tarjan numbers them as isolated singletons,
  // so the live components, and the member order within each, are those
  // of any other copy of the graph.
  const uint32_t NumNodes = numVars();
  if (Options.Form == GraphForm::Inductive) {
    // Inductive form files X <= Y as a predecessor entry of Y when
    // o(X) < o(Y): an edge into its owner, so the rows come from an edge
    // list whose counting sort keeps each row in emission order.
    std::vector<std::pair<uint32_t, uint32_t>> Edges;
    for (VarId Var = 0; Var != NumNodes; ++Var) {
      if (!Forwarding.isRepresentative(Var))
        continue;
      for (uint32_t Pred : Vars[Var].Preds) {
        if (isTermRef(Pred))
          continue;
        VarId PredRep = Forwarding.find(payloadOf(Pred));
        if (PredRep != Var)
          Edges.push_back({PredRep, Var});
      }
      for (uint32_t Succ : Vars[Var].Succs) {
        if (isTermRef(Succ))
          continue;
        VarId SuccRep = Forwarding.find(payloadOf(Succ));
        if (SuccRep != Var)
          Edges.push_back({Var, SuccRep});
      }
    }
    return rowsFromEdges(NumNodes, Edges);
  }
  // Standard form files every X <= Y as a successor of X and keeps only
  // source terms on the pred side, so the succ lists alone give the rows,
  // written in place without walking any points-to set. The arrays are
  // sized before they are filled: grown by doubling, their discarded
  // blocks stayed resident and raised the suite's peak RSS by about 2 MB.
  size_t MaxTargets = 0;
  for (VarId Var = 0; Var != NumNodes; ++Var)
    if (Forwarding.isRepresentative(Var))
      MaxTargets += Vars[Var].Succs.size();
  GraphRows G;
  G.RowStart.reserve(NumNodes + 1);
  G.Targets.reserve(MaxTargets);
  for (VarId Var = 0; Var != NumNodes; ++Var) {
    if (Forwarding.isRepresentative(Var))
      for (uint32_t Entry : Vars[Var].Succs) {
        if (isTermRef(Entry))
          continue;
        VarId Rep = Forwarding.find(payloadOf(Entry));
        if (Rep != Var)
          G.Targets.push_back(Rep);
      }
    G.endRow();
  }
  return G;
}

void ConstraintSolver::buildWaveOrder() {
  assert(Options.Form == GraphForm::Standard &&
         "only standard form parks deltas for a sweep");
  const uint32_t NumNodes = numVars();
  GraphRows G = liveVarRows();
  FlatSCCs SCCs = computeSCCs(G);
  // The paper's periodic strategy, run only where its Tarjan pass is
  // already paid for: SF-Online collapses every cycle found here, so the
  // order the next build completes is acyclic and its sweeps never fall
  // back. The online search's own counters are left alone.
  if (Options.Elim == CycleElim::Online &&
      collapseComponents(SCCs, Stats.WaveCollapsedVars) != 0)
    return;

  // Level the components Kahn-style from the rows. Tarjan numbers
  // components in reverse topological order — every edge between two
  // components goes from a higher id to a lower one — so a single
  // descending sweep sees each component after all of its predecessors.
  const uint32_t NumComps = SCCs.numComponents();
  std::vector<uint32_t> CompLevel(NumComps, 0);
  for (uint32_t Comp = NumComps; Comp-- > 0;)
    for (VarId Var : SCCs.component(Comp))
      for (VarId Succ : G.row(Var)) {
        uint32_t To = SCCs.ComponentOf[Succ];
        assert(To <= Comp && "edge against Tarjan numbering");
        if (To != Comp)
          CompLevel[To] = std::max(CompLevel[To], CompLevel[Comp] + 1);
      }

  // Positions sorted by (level, order index), a deterministic total order
  // because order indices are unique (Random packs the VarId into the low
  // bits): a stable counting sort on level over the variables in
  // order-index order.
  WaveLevel.assign(NumNodes, 0);
  std::vector<uint32_t> LevelStart(NumComps + 1, 0);
  uint32_t NumLive = 0;
  for (VarId Var = 0; Var != NumNodes; ++Var) {
    if (!Forwarding.isRepresentative(Var))
      continue;
    WaveLevel[Var] = CompLevel[SCCs.ComponentOf[Var]];
    ++LevelStart[WaveLevel[Var] + 1];
    ++NumLive;
  }
  std::partial_sum(LevelStart.begin(), LevelStart.end(), LevelStart.begin());
  std::vector<VarId> AtPosition(NumLive);
  WaveIndex.assign(NumNodes, UINT32_MAX);
  for (VarId Var : varsByOrder()) {
    if (!Forwarding.isRepresentative(Var))
      continue;
    uint32_t Pos = LevelStart[WaveLevel[Var]]++;
    WaveIndex[Var] = Pos;
    AtPosition[Pos] = Var;
  }

  // CSR edge rows: successor entries laid out contiguously in sweep order
  // with variable targets pre-resolved — the sweep then walks the pool
  // front to back instead of chasing per-node vectors and forwarding
  // chains. Entry order within a row matches the adjacency list, so
  // deliveries (and counters) are those of the adjacency-list walk.
  WaveArena.reset();
  WaveRowStart = WaveArena.allocateArray<uint32_t>(NumLive + 1);
  size_t Total = 0;
  for (uint32_t Pos = 0; Pos != NumLive; ++Pos) {
    WaveRowStart[Pos] = static_cast<uint32_t>(Total);
    Total += Vars[AtPosition[Pos]].Succs.size();
  }
  WaveRowStart[NumLive] = static_cast<uint32_t>(Total);
  WaveEdges = WaveArena.allocateArray<uint32_t>(Total);
  size_t Out = 0;
  for (VarId Var : AtPosition)
    for (uint32_t Entry : Vars[Var].Succs)
      WaveEdges[Out++] = isTermRef(Entry)
                             ? Entry
                             : varRef(Forwarding.find(payloadOf(Entry)));
  WaveOrderValid = true;
}

void ConstraintSolver::abortSolve(SolverStats::AbortReason Reason) {
  if (Stats.Aborted)
    return;
  Stats.Aborted = true;
  Stats.Abort = Reason;
  Worklist.clear();
  RootQueue.clear();
  PendingWave.clear();
}

void ConstraintSolver::beginBatchBudgets() {
  BatchTicks = 0;
  BatchStartWork = Stats.Work;
  BatchDeadlineNs = 0;
  if (Options.DeadlineMs) {
    auto Now = std::chrono::steady_clock::now().time_since_epoch();
    BatchDeadlineNs =
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Now)
                .count()) +
        Options.DeadlineMs * 1000000ULL;
  }
}

void ConstraintSolver::checkBatchBudgets() {
  if (Stats.Aborted)
    return;
  ++BatchTicks;

  if (FailPoint::hit("solver.step") != FailPoint::Mode::Off ||
      FailPoint::hit("solver.budget") != FailPoint::Mode::Off)
    return abortSolve(SolverStats::AbortReason::Injected);

  // The per-batch edge budget is a plain counter delta: check every item.
  if (Options.MaxEdgeBudget &&
      Stats.Work - BatchStartWork > Options.MaxEdgeBudget)
    return abortSolve(SolverStats::AbortReason::EdgeBudget);

  // The clock costs a vDSO call, /proc a real syscall: throttle both so
  // the closure loop stays hot. 64 items bounds the deadline overshoot
  // far below the acceptance criterion of 2x the deadline.
  if (Options.DeadlineMs && (BatchTicks & 63) == 0) {
    auto Now = std::chrono::steady_clock::now().time_since_epoch();
    uint64_t NowNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Now).count());
    if (NowNs > BatchDeadlineNs)
      return abortSolve(SolverStats::AbortReason::Deadline);
  }

  if (Options.MaxMemBytes && (BatchTicks & 4095) == 0) {
    uint64_t RSS = currentRSSBytes();
    if (RSS && RSS > Options.MaxMemBytes)
      return abortSolve(SolverStats::AbortReason::MemBudget);
  }
}

// Applies the resolution rules R (Figure 1) to Lhs <= Rhs until atomic
// constraints are reached, which become graph edges.
void ConstraintSolver::resolve(ExprId Lhs, ExprId Rhs, bool Derived) {
  if (Stats.Aborted)
    return;
  if (Lhs == Rhs)
    return; // Reflexive constraints are trivially satisfied.

  ExprKind LhsKind = Terms.kind(Lhs);
  ExprKind RhsKind = Terms.kind(Rhs);

  if (LhsKind == ExprKind::Zero || RhsKind == ExprKind::One)
    return; // 0 <= R and L <= 1 always hold.

  switch (LhsKind) {
  case ExprKind::Zero:
    poce_unreachable("handled above");
  case ExprKind::Var:
    if (RhsKind == ExprKind::Var)
      insertVarVar(Terms.varOf(Lhs), Terms.varOf(Rhs), Derived);
    else // Cons or Zero sink.
      insertVarSink(Terms.varOf(Lhs), Rhs, Derived);
    return;
  case ExprKind::One:
    if (RhsKind == ExprKind::Var)
      insertSourceVar(Lhs, Terms.varOf(Rhs), Derived);
    else // 1 <= c(...) and 1 <= 0 are unsatisfiable.
      handleMismatch(Lhs, Rhs);
    return;
  case ExprKind::Cons:
    if (RhsKind == ExprKind::Var) {
      insertSourceVar(Lhs, Terms.varOf(Rhs), Derived);
      return;
    }
    if (RhsKind == ExprKind::Zero || Terms.consOf(Lhs) != Terms.consOf(Rhs)) {
      handleMismatch(Lhs, Rhs);
      return;
    }
    // c(L1..Ln) <= c(R1..Rn): decompose by variance.
    {
      const ConstructorSignature &Sig =
          Terms.constructors().signature(Terms.consOf(Lhs));
      const ExprId *LhsArgs = Terms.argsOf(Lhs);
      const ExprId *RhsArgs = Terms.argsOf(Rhs);
      for (unsigned I = 0; I != Sig.arity(); ++I) {
        if (Sig.ArgVariance[I] == Variance::Covariant)
          resolve(LhsArgs[I], RhsArgs[I], Derived);
        else
          resolve(RhsArgs[I], LhsArgs[I], Derived);
      }
    }
    return;
  }
  poce_unreachable("invalid expression kind");
}

void ConstraintSolver::handleMismatch(ExprId Lhs, ExprId Rhs) {
  ++Stats.Mismatches;
  if (Options.Mismatch == MismatchPolicy::Collect)
    Inconsistencies.push_back(exprStr(Lhs) + " <= " + exprStr(Rhs));
}

//===----------------------------------------------------------------------===//
// Atomic edge insertion
//===----------------------------------------------------------------------===//

void ConstraintSolver::countWork() {
  ++Stats.Work;
  if (Options.MaxWork && Stats.Work > Options.MaxWork)
    abortSolve(SolverStats::AbortReason::MaxWork);
}

void ConstraintSolver::countWorkBatch(uint64_t N) {
  if (!N)
    return;
  Stats.Work += N;
  if (Options.MaxWork && Stats.Work > Options.MaxWork)
    abortSolve(SolverStats::AbortReason::MaxWork);
}

ExprId ConstraintSolver::exprOfRef(uint32_t Ref) {
  return isTermRef(Ref) ? payloadOf(Ref) : Terms.var(payloadOf(Ref));
}

bool ConstraintSolver::insertPred(VarId Owner, uint32_t Entry, bool Derived) {
  VarNode &Node = Vars[Owner];
  bool Inserted = isTermRef(Entry)
                      ? Node.PredTerms.testAndSet(payloadOf(Entry))
                      : Node.PredVarSet.insert(Entry);
  if (!Inserted) {
    ++Stats.RedundantAdds;
    return false;
  }
  Node.Preds.push_back(Entry);
  if (!isTermRef(Entry))
    invalidateWaveOrder();
  if (!Derived)
    ++Stats.InitialEdges;
  // Closure rule at Owner: the new predecessor pairs with every successor.
  ExprId Lhs = exprOfRef(Entry);
  for (uint32_t Succ : Node.Succs)
    enqueue(Lhs, exprOfRef(Succ));
  return true;
}

bool ConstraintSolver::insertSucc(VarId Owner, uint32_t Entry, bool Derived) {
  VarNode &Node = Vars[Owner];
  bool Inserted = isTermRef(Entry)
                      ? Node.SuccTerms.testAndSet(payloadOf(Entry))
                      : Node.SuccVarSet.insert(Entry);
  if (!Inserted) {
    ++Stats.RedundantAdds;
    return false;
  }
  Node.Succs.push_back(Entry);
  // Every successor insertion invalidates the wave cache: variable
  // targets change the topological order, and even sink targets extend a
  // CSR row the next sweep must not miss.
  invalidateWaveOrder();
  if (!Derived)
    ++Stats.InitialEdges;

  if (sfDiffProp()) {
    // Standard-form pred lists hold source terms only. Pair the new
    // successor with the sources that were already flushed; the pending
    // SrcDelta bits reach it through the scheduled flush, so each source
    // arrival meets each edge exactly once.
    const SparseBitVector *OldSrc = &Node.PredTerms;
    if (!Node.SrcDelta.empty()) {
      OldSrcScratch.assignDifference(Node.PredTerms, Node.SrcDelta);
      OldSrc = &OldSrcScratch;
    }
    if (isTermRef(Entry)) {
      ExprId Sink = payloadOf(Entry);
      OldSrc->forEach([&](uint32_t Src) { enqueue(Src, Sink); });
    } else {
      deliverSources(Forwarding.find(payloadOf(Entry)), *OldSrc);
    }
    return true;
  }

  // Closure rule at Owner: every predecessor pairs with the new successor.
  ExprId Rhs = exprOfRef(Entry);
  for (uint32_t Pred : Node.Preds)
    enqueue(exprOfRef(Pred), Rhs);
  return true;
}

void ConstraintSolver::insertVarVar(VarId Lhs, VarId Rhs, bool Derived) {
  Lhs = Forwarding.find(Lhs);
  Rhs = Forwarding.find(Rhs);
  countWork();
  if (Stats.Aborted)
    return;
  if (Lhs == Rhs) {
    ++Stats.SelfEdges;
    return;
  }
  if (Options.RecordVarVar)
    recordVarVar(Lhs, Rhs, Derived);

  if (Options.Elim == CycleElim::Online && detectAndCollapse(Lhs, Rhs))
    return; // The cycle was collapsed; the constraint holds by equality.

  bool AsSucc = Options.Form == GraphForm::Standard ||
                orderOf(Lhs) > orderOf(Rhs);
  if (AsSucc)
    insertSucc(Lhs, varRef(Rhs), Derived);
  else
    insertPred(Rhs, varRef(Lhs), Derived);
}

void ConstraintSolver::insertSourceVar(ExprId Source, VarId Var,
                                       bool Derived) {
  Var = Forwarding.find(Var);
  countWork();
  if (Stats.Aborted)
    return;
  if (!sfDiffProp()) {
    if (insertPred(Var, termRef(Source), Derived))
      if (SeenSources.testAndSet(Source))
        ++Stats.DistinctSources;
    return;
  }
  // Difference propagation: record the arrival in the source bitmap and
  // the pending delta; successor pairing happens when the delta flushes.
  VarNode &Node = Vars[Var];
  if (!Node.PredTerms.testAndSet(Source)) {
    ++Stats.RedundantAdds;
    return;
  }
  Node.Preds.push_back(termRef(Source));
  if (!Derived)
    ++Stats.InitialEdges;
  if (SeenSources.testAndSet(Source))
    ++Stats.DistinctSources;
  if (Node.SrcDelta.empty())
    scheduleFlush(Var);
  Node.SrcDelta.set(Source);
}

void ConstraintSolver::insertVarSink(VarId Var, ExprId Sink, bool Derived) {
  Var = Forwarding.find(Var);
  countWork();
  if (Stats.Aborted)
    return;
  if (insertSucc(Var, termRef(Sink), Derived))
    if (SeenSinks.testAndSet(Sink))
      ++Stats.DistinctSinks;
}

void ConstraintSolver::deliverSources(VarId Target,
                                      const SparseBitVector &Batch) {
  if (Batch.empty())
    return;
  // Work accounting matches element-wise insertion: one attempt per
  // source in the batch, redundant when the bit was already present.
  countWorkBatch(Batch.count());
  ++Stats.DeltaPropagations;
  VarNode &Node = Vars[Target];
  bool WasIdle = Node.SrcDelta.empty();
  // Every delivered bit left another variable's PredTerms, and every
  // source entered some PredTerms through insertSourceVar, which counted
  // it in SeenSources (verifyGraphInvariants checks PredTerms stay inside
  // it): a delivery never meets a new distinct source.
  auto OnNewSource = [&](uint32_t Src) {
    Node.Preds.push_back(termRef(Src));
    Node.SrcDelta.set(Src);
  };
  // A small batch landing in a large accumulated set is cheaper to probe
  // bit by bit (the cursor makes clustered probes O(1)) than to merge word
  // by word across all of the target's elements. Both paths visit new bits
  // in ascending order, so accounting and Preds order are identical.
  size_t Added = 0;
  if (Batch.count() * 8 < Node.PredTerms.numWords()) {
    Batch.forEach([&](uint32_t Src) {
      if (Node.PredTerms.testAndSet(Src)) {
        ++Added;
        OnNewSource(Src);
      }
    });
  } else {
    Added = Node.PredTerms.unionWithVisitor(Batch, OnNewSource);
  }
  Stats.RedundantAdds += Batch.count() - Added;
  if (!Added) {
    ++Stats.PropagationsPruned;
    return;
  }
  if (WasIdle)
    scheduleFlush(Target);
}

void ConstraintSolver::flushDelta(VarId Var) {
  if (Stats.Aborted)
    return;
  VarNode &Node = Vars[Var];
  if (Node.SrcDelta.empty())
    return; // Collapsed away, or already covered by an earlier flush.
  DeltaScratch.clear();
  std::swap(DeltaScratch, Node.SrcDelta);

  // Inside a sweep the CSR rows are fresh — the order (and layout) was
  // rebuilt after the last structural change and flushes never add
  // successor edges — so the row mirrors Node.Succs entry for entry with
  // targets already resolved.
  if (InWavePass && WaveIndex[Var] != UINT32_MAX) {
    uint32_t Pos = WaveIndex[Var];
    assert(WaveRowStart[Pos + 1] - WaveRowStart[Pos] == Node.Succs.size() &&
           "stale CSR row used during a wave sweep");
    for (uint32_t I = WaveRowStart[Pos], E = WaveRowStart[Pos + 1];
         I != E && !Stats.Aborted; ++I) {
      uint32_t Entry = WaveEdges[I];
      if (isTermRef(Entry)) {
        ExprId Sink = payloadOf(Entry);
        DeltaScratch.forEach([&](uint32_t Src) { enqueue(Src, Sink); });
      } else {
        deliverSources(payloadOf(Entry), DeltaScratch);
      }
    }
    return;
  }

  for (size_t I = 0; I != Node.Succs.size() && !Stats.Aborted; ++I) {
    uint32_t Entry = Node.Succs[I];
    if (isTermRef(Entry)) {
      // Sink successors resolve element-wise (constructor decomposition
      // may derive further constraints per source).
      ExprId Sink = payloadOf(Entry);
      DeltaScratch.forEach([&](uint32_t Src) { enqueue(Src, Sink); });
    } else {
      deliverSources(Forwarding.find(payloadOf(Entry)), DeltaScratch);
    }
  }
}

void ConstraintSolver::recordVarVar(VarId Lhs, VarId Rhs, bool Derived) {
  uint32_t LhsIndex = Vars[Lhs].CreationIndex;
  uint32_t RhsIndex = Vars[Rhs].CreationIndex;
  uint64_t Key = (static_cast<uint64_t>(LhsIndex) << 32) | RhsIndex;
  if (RecordedSet.insert(Key))
    RecordedVarVar.push_back({LhsIndex, RhsIndex});
  if (!Derived && RecordedInitialSet.insert(Key))
    RecordedInitialVarVar.push_back({LhsIndex, RhsIndex});
}

//===----------------------------------------------------------------------===//
// Partial online cycle detection (Figure 3)
//===----------------------------------------------------------------------===//

bool ConstraintSolver::detectAndCollapse(VarId Lhs, VarId Rhs) {
  // The new constraint is Lhs <= Rhs; a cycle exists iff a chain
  // Rhs <= ... <= Lhs is already present.
  const bool Timed = phaseTimingOn();
  const uint64_t StartUs = Timed ? trace::nowMicros() : 0;
  bool Found = false;
  if (Options.Form == GraphForm::Inductive) {
    if (orderOf(Lhs) > orderOf(Rhs)) {
      // New successor edge at Lhs: search predecessor chains from Lhs for
      // Rhs (each hop P in pred(V) means P <= V, so reaching Rhs proves
      // Rhs <= ... <= Lhs).
      Found = searchChain(Lhs, Rhs, ChainKind::Pred);
    } else {
      // New predecessor edge at Rhs: search successor chains from Rhs for
      // Lhs (each hop S in succ(V) means V <= S).
      Found = searchChain(Rhs, Lhs, ChainKind::Succ);
    }
  } else {
    // Standard form: all variable-variable edges are successors; search
    // from Rhs for Lhs, restricted to monotone chains to bound the cost.
    switch (Options.SFChains) {
    case SFChainMode::Decreasing:
      Found = searchChain(Rhs, Lhs, ChainKind::SuccDecreasing);
      break;
    case SFChainMode::Increasing:
      Found = searchChain(Rhs, Lhs, ChainKind::SuccIncreasing);
      break;
    case SFChainMode::Both:
      Found = searchChain(Rhs, Lhs, ChainKind::SuccDecreasing) ||
              searchChain(Rhs, Lhs, ChainKind::SuccIncreasing);
      break;
    }
  }
  if (!Found) {
    if (Timed)
      cycleSearchHistogram().record(trace::nowMicros() - StartUs);
    return false;
  }
  collapseCycle(ChainPath);
  ++Stats.CyclesCollapsed;
  Stats.VarsEliminated += ChainPath.size() - 1;
  if (Timed) {
    cycleSearchHistogram().record(trace::nowMicros() - StartUs);
    // Successful searches are rare enough to trace individually; the
    // misses would swamp the viewer and live in the histogram instead.
    trace::complete("solver.cycle_collapse", StartUs);
  }
  return true;
}

bool ConstraintSolver::searchChain(VarId Start, VarId Target,
                                   ChainKind Kind) {
  ++Stats.CycleSearches;
  ++CurrentEpoch;
  bool UsePreds = Kind == ChainKind::Pred;

  std::vector<ChainFrame> &Frames = ChainFrames;
  std::vector<VarId> &Path = ChainPath;
  Frames.clear();
  Path.clear();
  Path.push_back(Start);
  Frames.push_back({Start, 0, chainSummaryFor(Start, Kind), 0});
  Vars[Start].VisitEpoch = CurrentEpoch;

  while (!Frames.empty()) {
    ChainFrame &Top = Frames.back();
    VarId Next;
    if (Top.Summary != NoChainSummary) {
      // A hub: replay the entries its summary says pass the order test,
      // counting the steps the walk would count up to each of them, and
      // scan the list only past the summarized prefix.
      ChainSummary &Summary = ChainSummaries[Top.Summary];
      if (Top.NextIndex == Summary.Passing.size() &&
          !extendChainSummary(Summary, Top.Node, Kind)) {
        Stats.CycleSearchSteps += Summary.Counted - Top.StepsCounted;
        Frames.pop_back();
        Path.pop_back();
        continue;
      }
      const ChainSummary::Entry &Passing = Summary.Passing[Top.NextIndex++];
      Stats.CycleSearchSteps += Passing.CountedIndex + 1 - Top.StepsCounted;
      Top.StepsCounted = Passing.CountedIndex + 1;
      Next = Passing.Target;
    } else {
      const std::vector<uint32_t> &List =
          UsePreds ? Vars[Top.Node].Preds : Vars[Top.Node].Succs;
      if (Top.NextIndex >= List.size()) {
        Frames.pop_back();
        Path.pop_back();
        continue;
      }
      uint32_t Entry = List[Top.NextIndex++];
      if (isTermRef(Entry))
        continue;
      Next = Forwarding.find(payloadOf(Entry));
      if (Next == Top.Node)
        continue; // Stale self reference after a collapse.
      ++Stats.CycleSearchSteps;

      // Only monotone chains are explored; for inductive form the stored
      // representation already guarantees decreasing order.
      bool OrderOk = chainOrderOk(Kind, Next, Top.Node);
      if ((Kind == ChainKind::Pred || Kind == ChainKind::Succ) && !OrderOk)
        poce_unreachable("inductive form stores only decreasing chains");
      if (!OrderOk)
        continue;
    }

    if (Next == Target) {
      Path.push_back(Next);
      return true;
    }
    if (Vars[Next].VisitEpoch == CurrentEpoch)
      continue;
    Vars[Next].VisitEpoch = CurrentEpoch;
    Path.push_back(Next);
    Frames.push_back({Next, 0, chainSummaryFor(Next, Kind), 0});
  }
  Path.clear();
  return false;
}

uint32_t ConstraintSolver::hubChainSummary(VarId Hub, ChainKind Kind) {
  const size_t Key = 2 * static_cast<size_t>(Hub) +
                     (Kind == ChainKind::SuccIncreasing);
  if (Key >= ChainSummaryOf.size())
    ChainSummaryOf.resize(2 * static_cast<size_t>(numVars()), 0);
  uint32_t &Slot = ChainSummaryOf[Key];
  if (!Slot) {
    ChainSummaries.emplace_back();
    Slot = static_cast<uint32_t>(ChainSummaries.size());
  }
  ChainSummary &Summary = ChainSummaries[Slot - 1];
  if (Summary.Generation != ChainGeneration) {
    Summary.Generation = ChainGeneration;
    Summary.Scanned = 0;
    Summary.Counted = 0;
    Summary.Passing.clear();
  }
  return Slot - 1;
}

bool ConstraintSolver::extendChainSummary(ChainSummary &Summary, VarId Hub,
                                          ChainKind Kind) {
  const std::vector<uint32_t> &List = Vars[Hub].Succs;
  while (Summary.Scanned != List.size()) {
    uint32_t Entry = List[Summary.Scanned++];
    if (isTermRef(Entry))
      continue;
    VarId Next = Forwarding.find(payloadOf(Entry));
    if (Next == Hub)
      continue; // Stale self reference after a collapse: not counted.
    uint32_t CountedIndex = Summary.Counted++;
    if (chainOrderOk(Kind, Next, Hub)) {
      Summary.Passing.push_back({Next, CountedIndex});
      return true;
    }
  }
  return false;
}

void ConstraintSolver::collapseCycle(std::span<const VarId> Cycle) {
  assert(Cycle.size() >= 2 && "collapse of a trivial cycle!");
  VarId Witness = Cycle[0];
  for (VarId Var : Cycle)
    if (orderOf(Var) < orderOf(Witness))
      Witness = Var;

  POCE_DEBUG({
    std::string Msg = "collapse onto " + Vars[Witness].Name + ":";
    for (VarId Var : Cycle)
      Msg += " " + Vars[Var].Name;
    std::fprintf(stderr, "[setcon] %s\n", Msg.c_str());
  });

  invalidateWaveOrder();
  invalidateChainSummaries();
  // Unite first so representative lookups during re-adding see the final
  // classes.
  for (VarId Var : Cycle) {
    if (Var == Witness)
      continue;
    bool United = Forwarding.unite(Var, Witness);
    assert(United && "cycle contained duplicate representatives!");
    (void)United;
  }
  // Move the collapsed variables' constraints onto the witness. Clearing
  // SrcDelta turns any flush still queued for the dead variable into a
  // no-op; its pending sources re-arrive at the witness through the
  // re-enqueued constraints below.
  ExprId WitnessExpr = Terms.var(Witness);
  for (VarId Var : Cycle) {
    if (Var == Witness)
      continue;
    VarNode &Node = Vars[Var];
    std::vector<uint32_t> Preds = std::move(Node.Preds);
    std::vector<uint32_t> Succs = std::move(Node.Succs);
    Node.clearEdges();
    for (uint32_t Pred : Preds)
      enqueue(exprOfRef(Pred), WitnessExpr);
    for (uint32_t Succ : Succs)
      enqueue(WitnessExpr, exprOfRef(Succ));
  }
}

uint64_t ConstraintSolver::collapseComponents(const FlatSCCs &SCCs,
                                              uint64_t &Eliminated) {
  uint64_t Collapsed = 0;
  for (uint32_t Comp = 0; Comp != SCCs.numComponents(); ++Comp) {
    std::span<const VarId> Component = SCCs.component(Comp);
    if (Component.size() >= 2) {
      collapseCycle(Component);
      Eliminated += Component.size() - 1;
      ++Collapsed;
    }
  }
  return Collapsed;
}

void ConstraintSolver::runPeriodicPass() {
  ++Stats.PeriodicPasses;
  Stats.CyclesCollapsed +=
      collapseComponents(computeSCCs(liveVarRows()), Stats.VarsEliminated);
}

//===----------------------------------------------------------------------===//
// Constraint retraction
//===----------------------------------------------------------------------===//

void ConstraintSolver::collectExprVars(ExprId Expr,
                                       std::vector<VarId> &Out) const {
  switch (Terms.kind(Expr)) {
  case ExprKind::Var:
    Out.push_back(Terms.varOf(Expr));
    return;
  case ExprKind::Cons: {
    const ExprId *Args = Terms.argsOf(Expr);
    for (unsigned I = 0, E = Terms.numArgs(Expr); I != E; ++I)
      collectExprVars(Args[I], Out);
    return;
  }
  case ExprKind::Zero:
  case ExprKind::One:
    return;
  }
}

void ConstraintSolver::computeRetractionCone(
    ExprId RootL, ExprId RootR, std::vector<uint8_t> &ConeVar,
    std::vector<uint8_t> &MentionsCone) {
  // Representative-level flags during the fixpoint; class wholeness is
  // applied when the raw per-VarId flags are derived at the end.
  std::vector<uint8_t> ConeRep(numVars(), 0);
  std::vector<VarId> Frontier;
  auto AddVar = [&](VarId Var) {
    VarId Rep = Forwarding.find(Var);
    if (!ConeRep[Rep]) {
      ConeRep[Rep] = 1;
      Frontier.push_back(Rep);
    }
  };
  std::vector<VarId> Seeds;
  collectExprVars(RootL, Seeds);
  collectExprVars(RootR, Seeds);
  for (VarId Var : Seeds)
    AddVar(Var);

  // (b) forward flow: sources the retracted constraint injected can have
  // flowed to anything downstream along variable-variable edges, so the
  // cone is forward-closed over the current variable graph. Conversely,
  // a variable *not* downstream of any cone variable cannot hold a
  // source that depended on the retracted root.
  GraphRows G = liveVarRows();

  MentionsCone.assign(Terms.size(), 0);
  std::vector<VarId> TermVars;
  for (;;) {
    while (!Frontier.empty()) {
      VarId Rep = Frontier.back();
      Frontier.pop_back();
      for (VarId Succ : G.row(Rep))
        AddVar(Succ);
    }
    // Terms mentioning a cone variable, in one ascending pass (arguments
    // are interned before any term that uses them, so smaller ids are
    // final by the time a constructed term asks).
    for (ExprId Id = 0; Id != Terms.size(); ++Id) {
      switch (Terms.kind(Id)) {
      case ExprKind::Var:
        MentionsCone[Id] = ConeRep[Forwarding.find(Terms.varOf(Id))];
        break;
      case ExprKind::Cons: {
        uint8_t Mentions = 0;
        const ExprId *Args = Terms.argsOf(Id);
        for (unsigned I = 0, E = Terms.numArgs(Id); I != E && !Mentions;
             ++I)
          Mentions = MentionsCone[Args[I]];
        MentionsCone[Id] = Mentions;
        break;
      }
      default:
        MentionsCone[Id] = 0;
        break;
      }
    }
    // (c) variables occurring in terms a cone variable holds: rebuilding
    // the holder re-fires the decomposition that derived their edges, so
    // their state must be rebuilt in the same sweep. (d) variables
    // holding terms that mention a cone variable: their source x sink
    // pairings are what re-derive the cone's decomposition edges, and
    // pairings only fire on insertion — an untouched holder would never
    // re-deliver.
    bool Grew = false;
    for (VarId Var = 0; Var != numVars(); ++Var) {
      if (!Forwarding.isRepresentative(Var))
        continue;
      const VarNode &Node = Vars[Var];
      // SrcDelta is a subset of PredTerms, so scanning the two term
      // bitmaps covers everything the node holds.
      auto Scan = [&](const SparseBitVector &Bits) {
        Bits.forEach([&](uint32_t Term) {
          if (ConeRep[Forwarding.find(Var)]) {
            TermVars.clear();
            collectExprVars(Term, TermVars);
            for (VarId Mentioned : TermVars)
              if (!ConeRep[Forwarding.find(Mentioned)]) {
                AddVar(Mentioned);
                Grew = true;
              }
          } else if (MentionsCone[Term]) {
            AddVar(Var);
            Grew = true;
          }
        });
      };
      Scan(Node.PredTerms);
      Scan(Node.SuccTerms);
    }
    if (!Grew && Frontier.empty())
      break;
  }

  ConeVar.assign(numVars(), 0);
  for (VarId Var = 0; Var != numVars(); ++Var)
    ConeVar[Var] = ConeRep[Forwarding.find(Var)];
}

bool ConstraintSolver::hasRootTag(const std::string &Tag) const {
  for (const BaseRoot &Root : BaseRoots)
    if (Root.Tag == Tag)
      return true;
  return false;
}

bool ConstraintSolver::retract(const std::string &Tag) {
  ensureClosed();
  if (Stats.Aborted)
    return false;
  size_t RootIdx = BaseRoots.size();
  for (size_t I = 0; I != BaseRoots.size(); ++I)
    if (BaseRoots[I].Tag == Tag) {
      RootIdx = I;
      break;
    }
  if (RootIdx == BaseRoots.size())
    return false;
  const ExprId RootL = BaseRoots[RootIdx].L;
  const ExprId RootR = BaseRoots[RootIdx].R;
  // erase keeps the survivors in input order: the replay below and every
  // later retraction replay the same sequence a fresh solve would see.
  BaseRoots.erase(BaseRoots.begin() + RootIdx);
  ++Stats.Retractions;
  invalidateSolutions();

  std::vector<uint8_t> ConeVar, MentionsCone;
  computeRetractionCone(RootL, RootR, ConeVar, MentionsCone);

  // The class (representative) of every cone variable, captured before
  // any split changes the forwarding structure.
  std::vector<VarId> ClassOf(numVars());
  for (VarId Var = 0; Var != numVars(); ++Var)
    if (ConeVar[Var])
      ClassOf[Var] = Forwarding.find(Var);

  // Scrub: drop the untouched remainder's edges into the cone; the
  // replay re-derives exactly the surviving ones (insertion pairs a new
  // entry with every existing opposite-side entry, so re-derivation is
  // order-independent). Raw-id checks suffice because cone membership is
  // class-whole. Term entries stay: an outside variable's sources never
  // depended on the retracted root — rule (b) would have pulled it in.
  for (VarId Var = 0; Var != numVars(); ++Var) {
    if (ConeVar[Var] || !Forwarding.isRepresentative(Var))
      continue;
    VarNode &Node = Vars[Var];
    auto Scrub = [&](std::vector<uint32_t> &List, DenseU64Set &VarSet) {
      std::vector<uint32_t> Fresh;
      Fresh.reserve(List.size());
      for (uint32_t Entry : List) {
        if (!isTermRef(Entry) && ConeVar[payloadOf(Entry)])
          continue;
        Fresh.push_back(Entry);
      }
      List = std::move(Fresh);
      DenseU64Set FreshSet;
      for (uint32_t Entry : List)
        if (!isTermRef(Entry))
          FreshSet.insert(Entry);
      VarSet = std::move(FreshSet);
    };
    Scrub(Node.Preds, Node.PredVarSet);
    Scrub(Node.Succs, Node.SuccVarSet);
  }

  // Split check: a multi-member class stays collapsed only when the
  // surviving direct var <= var base constraints between its own members
  // still strongly connect them: one Tarjan pass over those edges, and a
  // class survives iff all its members land in one component. Derived
  // edges are not provenance (they may have depended on the retracted
  // root), and a path through a variable outside the class does not
  // count. A split class (including every offline HVN-merged class, which
  // has no online witness cycle) dissolves into singletons and the replay
  // lets online detection re-collapse whatever cycles remain — splitting
  // is always sound because the whole class is rebuilt.
  std::vector<std::pair<uint32_t, uint32_t>> Internal;
  for (const BaseRoot &Root : BaseRoots) {
    if (Terms.kind(Root.L) != ExprKind::Var ||
        Terms.kind(Root.R) != ExprKind::Var)
      continue;
    VarId L = Terms.varOf(Root.L), R = Terms.varOf(Root.R);
    if (ConeVar[L] && ConeVar[R] && ClassOf[L] == ClassOf[R])
      Internal.push_back({L, R});
  }
  FlatSCCs Parts = computeSCCs(rowsFromEdges(numVars(), Internal));
  std::vector<uint8_t> Split(numVars(), 0);
  for (VarId Var = 0; Var != numVars(); ++Var)
    if (ConeVar[Var] &&
        Parts.ComponentOf[Var] != Parts.ComponentOf[ClassOf[Var]])
      Split[ClassOf[Var]] = 1;
  for (VarId Var = 0; Var != numVars(); ++Var) {
    if (!ConeVar[Var] || !Split[ClassOf[Var]])
      continue;
    if (Var == ClassOf[Var])
      ++Stats.CollapsesSplit;
    Forwarding.reset(Var);
  }

  // Reset every cone variable to a fresh node; the replay rebuilds it from
  // surviving provenance.
  for (VarId Var = 0; Var != numVars(); ++Var) {
    if (!ConeVar[Var])
      continue;
    Vars[Var].clearEdges();
    ++Stats.ConeVarsRecomputed;
  }
  invalidateWaveOrder();
  invalidateChainSummaries();

  // Queue the surviving roots that mention the cone, in input order, and
  // close them in one drain: the whole replay is one budget batch on
  // either schedule, as one add is.
  for (const BaseRoot &Root : BaseRoots)
    if (MentionsCone[Root.L] || MentionsCone[Root.R])
      RootQueue.push_back({Root.L, Root.R});
  ensureClosed();
  return true;
}

//===----------------------------------------------------------------------===//
// Least solution
//===----------------------------------------------------------------------===//

void ConstraintSolver::finalize() {
  if (Finalized)
    return;
  ensureClosed();
  Finalized = true;
  // The IF level tasks and the readers sharing a settled solver look
  // representatives up with findConst, which compresses nothing: compress
  // every chain once here so each of those lookups is a single hop.
  for (VarId Var = 0; Var != numVars(); ++Var)
    Forwarding.find(Var);
  const bool Timed = phaseTimingOn();
  const uint64_t StartUs = Timed ? trace::nowMicros() : 0;
  if (Options.Form == GraphForm::Inductive) {
    // The level pass is the only work that runs on lanes, so the pool
    // starts here, after the closure; standard form never starts one.
    ThreadPool Pool(Options.Threads);
    computeLeastSolutionIF(Pool);
  } else {
    LSBits.clear(); // SF: the closed graph holds LS in PredTerms already.
  }
  if (Timed) {
    leastSolutionHistogram().record(trace::nowMicros() - StartUs);
    trace::complete("solver.least_solution", StartUs);
  }
}

const SparseBitVector &ConstraintSolver::leastSolution(VarId Var) {
  finalize();
  return leastSolutionBitsConst(Forwarding.find(Var));
}

const SparseBitVector &
ConstraintSolver::leastSolutionBitsConst(VarId Var) const {
  assert(readShareable() &&
         "const solution access on an unsettled solver; call finalize() "
         "first");
  VarId Rep = Forwarding.findConst(Var);
  return Options.Form == GraphForm::Standard ? Vars[Rep].PredTerms
                                             : LSBits[LSOwner[Rep]];
}

std::vector<ExprId>
ConstraintSolver::leastSolutionViewConst(VarId Var) const {
  return leastSolutionBitsConst(Var).toVector<ExprId>();
}

bool ConstraintSolver::aliasConst(VarId X, VarId Y) const {
  VarId RepX = Forwarding.findConst(X);
  VarId RepY = Forwarding.findConst(Y);
  if (RepX == RepY)
    return true;
  return leastSolutionBitsConst(RepX).intersects(leastSolutionBitsConst(RepY));
}

// In inductive form every variable predecessor has a smaller order index,
// so equation (1) of the paper,
//   LS(Y) = {c | c in pred(Y)} ∪ ⋃_{X in pred(Y)} LS(X),
// needs each variable only after its predecessors. One ascending sweep over
// varsByOrder() first finds which solutions are copies: a representative Y
// with no source of its own whose variable predecessors all resolve to one
// owner P has LS(Y) = LS(P) (pointer equivalence, read off the closed
// graph), so it shares P's bitmap instead of building its own. Every other
// representative owns its solution and gets a level = 1 + max(level of its
// predecessors' owners), so a level's owners depend only on strictly
// earlier levels and each level is an embarrassingly parallel batch of
// word-level bitmap unions. Each task writes only its own bitmap and reads
// bitmaps completed before the previous level's barrier; a one-lane pool
// runs the levels inline in order. Predecessor entries that resolve to the
// same owner (common after collapses and among copies) union once per
// variable thanks to a per-lane epoch mark, so the accumulation stays
// linear in bitmap words. Determinism: owners and levels come from the
// sequential sweep, the set of (owner, distinct predecessor owner) unions
// is schedule-independent, union is commutative, and unionWith's word
// count depends only on the source bitmap — so LSBits, LSOwner and
// LSUnionWords are bit-identical for any lane count.
void ConstraintSolver::computeLeastSolutionIF(ThreadPool &Pool) {
  LSBits.assign(numVars(), SparseBitVector());
  LSOwner.resize(numVars());
  std::iota(LSOwner.begin(), LSOwner.end(), 0);

  // Owners and their Kahn levels in one ascending pass (predecessors
  // precede their users). finalize() compressed every forwarding chain
  // before this pass, so the findConst calls below are single hops on
  // immutable data.
  constexpr VarId NoOwner = UINT32_MAX;
  std::vector<uint32_t> Depth(numVars(), 0);
  std::vector<std::vector<VarId>> Levels;
  for (VarId Var : varsByOrder()) {
    if (!Forwarding.isRepresentative(Var))
      continue;
    uint32_t Level = 0;
    VarId Shared = NoOwner;
    bool OwnsSolution = false;
    for (uint32_t Pred : Vars[Var].Preds) {
      if (isTermRef(Pred)) {
        OwnsSolution = true;
        continue;
      }
      VarId PredRep = Forwarding.findConst(payloadOf(Pred));
      if (PredRep == Var)
        continue; // Stale self reference after a collapse.
      VarId Owner = LSOwner[PredRep];
      Level = std::max(Level, Depth[Owner] + 1);
      if (Shared == NoOwner)
        Shared = Owner;
      else if (Shared != Owner)
        OwnsSolution = true;
    }
    if (!OwnsSolution && Shared != NoOwner) {
      LSOwner[Var] = Shared;
      continue;
    }
    Depth[Var] = Level;
    if (Level >= Levels.size())
      Levels.resize(Level + 1);
    Levels[Level].push_back(Var);
  }

  // Per-lane scratch: an epoch array replaces the shared VisitEpoch marks
  // (which two lanes would race on) for deduplicating predecessor entries
  // that resolve to the same owner, plus a SolverStats delta so counting
  // never touches the shared Stats. The deltas are sums, so merging them
  // after the waves is order-independent. Each lane's slot is padded to
  // whole cache lines (CacheAligned): the Epoch counter and the Delta
  // counters are bumped on every variable a lane processes, and unpadded
  // adjacent slots would false-share those lines across lanes.
  struct LaneScratch {
    std::vector<uint32_t> SeenEpoch;
    uint32_t Epoch = 0;
    SolverStats Delta;
  };
  static_assert(cacheAlignedLayoutOk<LaneScratch>,
                "per-lane scratch must occupy whole cache lines");
  std::vector<CacheAligned<LaneScratch>> Scratch(Pool.numLanes());
  for (CacheAligned<LaneScratch> &S : Scratch)
    S.Value.SeenEpoch.assign(numVars(), 0);

  Pool.parallelForLevels(Levels, [&](VarId Var, unsigned Lane) {
    LaneScratch &S = Scratch[Lane].Value;
    ++S.Epoch;
    SparseBitVector &Out = LSBits[Var];
    for (uint32_t Pred : Vars[Var].Preds) {
      if (isTermRef(Pred)) {
        Out.set(payloadOf(Pred));
        continue;
      }
      VarId PredRep = Forwarding.findConst(payloadOf(Pred));
      if (PredRep == Var)
        continue; // Stale self reference after a collapse.
      assert(Vars[PredRep].Order < Vars[Var].Order &&
             "inductive form violated: predecessor with larger order");
      VarId Owner = LSOwner[PredRep];
      if (S.SeenEpoch[Owner] == S.Epoch)
        continue; // Another entry whose solution this one already took.
      S.SeenEpoch[Owner] = S.Epoch;
      Out.unionWith(LSBits[Owner], &S.Delta.LSUnionWords);
    }
  });

  for (const CacheAligned<LaneScratch> &S : Scratch)
    Stats += S.Value.Delta;
}

const std::vector<VarId> &ConstraintSolver::varsByOrder() {
  const size_t Known = ByOrder.size();
  if (Known == numVars())
    return ByOrder;
  auto Before = [this](VarId A, VarId B) {
    return Vars[A].Order < Vars[B].Order;
  };
  ByOrder.resize(numVars());
  std::iota(ByOrder.begin() + Known, ByOrder.end(), Known);
  std::sort(ByOrder.begin() + Known, ByOrder.end(), Before);
  std::inplace_merge(ByOrder.begin(), ByOrder.begin() + Known, ByOrder.end(),
                     Before);
  return ByOrder;
}

std::vector<std::vector<ExprId>> ConstraintSolver::referenceLeastSolutions() {
  ensureClosed();
  std::vector<std::vector<ExprId>> Ref(numVars());
  if (Options.Form == GraphForm::Standard) {
    for (VarId Var = 0; Var != numVars(); ++Var) {
      if (!Forwarding.isRepresentative(Var))
        continue;
      std::vector<ExprId> &Out = Ref[Var];
      for (uint32_t Pred : Vars[Var].Preds)
        if (isTermRef(Pred))
          Out.push_back(payloadOf(Pred));
      std::sort(Out.begin(), Out.end());
      Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    }
    return Ref;
  }
  std::vector<VarId> Live;
  for (VarId Var = 0; Var != numVars(); ++Var)
    if (Forwarding.isRepresentative(Var))
      Live.push_back(Var);
  std::sort(Live.begin(), Live.end(), [&](VarId A, VarId B) {
    return Vars[A].Order < Vars[B].Order;
  });
  for (VarId Var : Live) {
    std::vector<ExprId> Acc;
    for (uint32_t Pred : Vars[Var].Preds) {
      if (isTermRef(Pred)) {
        Acc.push_back(payloadOf(Pred));
        continue;
      }
      VarId PredRep = Forwarding.find(payloadOf(Pred));
      if (PredRep == Var)
        continue;
      const std::vector<ExprId> &PredLS = Ref[PredRep];
      Acc.insert(Acc.end(), PredLS.begin(), PredLS.end());
    }
    std::sort(Acc.begin(), Acc.end());
    Acc.erase(std::unique(Acc.begin(), Acc.end()), Acc.end());
    Ref[Var] = std::move(Acc);
  }
  return Ref;
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

bool ConstraintSolver::verifyGraphInvariants() {
  ensureClosed();
  for (VarId Var = 0; Var != numVars(); ++Var) {
    if (!Forwarding.isRepresentative(Var))
      continue;
    // Every source entered through insertSourceVar, which records it in
    // SeenSources; source deliveries rely on that to skip the lookup.
    if (!Vars[Var].PredTerms.isSubsetOf(SeenSources))
      return false;
    for (uint32_t Pred : Vars[Var].Preds) {
      if (isTermRef(Pred))
        continue;
      // Standard form stores every variable-variable edge on the successor
      // side; a variable predecessor would corrupt the explicit LS.
      if (Options.Form == GraphForm::Standard)
        return false;
      VarId PredRep = Forwarding.find(payloadOf(Pred));
      if (PredRep == Var)
        continue;
      if (Vars[PredRep].Order >= Vars[Var].Order)
        return false;
    }
  }
  return true;
}

uint64_t ConstraintSolver::countFinalEdges() {
  ensureClosed();
  uint64_t Count = 0;
  DenseU64Set Resolved;
  for (VarId Var = 0; Var != numVars(); ++Var) {
    if (!Forwarding.isRepresentative(Var))
      continue;
    const VarNode &Node = Vars[Var];
    // Term entries are unique in the adjacency lists by construction, so
    // the bitmap population counts are exact.
    Count += Node.PredTerms.count() + Node.SuccTerms.count();
    Resolved.clear();
    for (uint32_t Pred : Node.Preds) {
      if (isTermRef(Pred))
        continue;
      VarId Rep = Forwarding.find(payloadOf(Pred));
      if (Rep == Var)
        continue;
      if (Resolved.insert(varRef(Rep)))
        ++Count;
    }
    for (uint32_t Succ : Node.Succs) {
      if (isTermRef(Succ))
        continue;
      VarId Rep = Forwarding.find(payloadOf(Succ));
      if (Rep == Var)
        continue;
      // Distinguish succ entries from pred entries of the same neighbor.
      if (Resolved.insert(static_cast<uint64_t>(varRef(Rep)) | (1ULL << 62)))
        ++Count;
    }
  }
  return Count;
}

GraphRows ConstraintSolver::varGraph() {
  ensureClosed();
  return liveVarRows();
}

uint64_t ConstraintSolver::countPredChainReachable(VarId Var) {
  ensureClosed();
  Var = Forwarding.find(Var);
  ++CurrentEpoch;
  Vars[Var].VisitEpoch = CurrentEpoch;
  std::vector<VarId> Stack = {Var};
  uint64_t Count = 0;
  while (!Stack.empty()) {
    VarId Node = Stack.back();
    Stack.pop_back();
    for (uint32_t Pred : Vars[Node].Preds) {
      if (isTermRef(Pred))
        continue;
      VarId Next = Forwarding.find(payloadOf(Pred));
      if (Vars[Next].VisitEpoch == CurrentEpoch)
        continue;
      Vars[Next].VisitEpoch = CurrentEpoch;
      ++Count;
      Stack.push_back(Next);
    }
  }
  return Count;
}

uint64_t ConstraintSolver::compact() {
  ensureClosed();
  invalidateWaveOrder(); // The CSR rows mirror the lists being rewritten.
  invalidateChainSummaries();
  uint64_t Removed = 0;
  DenseU64Set Seen;
  for (VarId Var = 0; Var != numVars(); ++Var) {
    VarNode &Node = Vars[Var];
    if (!Forwarding.isRepresentative(Var)) {
      // Dead variables were already drained during their collapse; make
      // sure nothing lingers.
      Removed += Node.Preds.size() + Node.Succs.size();
      Node.clearEdges();
      continue;
    }
    // Term entries are already unique and resolve to themselves, so only
    // the variable entries need resolution and deduplication; the term
    // bitmaps carry over unchanged.
    auto Rebuild = [&](std::vector<uint32_t> &List, DenseU64Set &VarSet) {
      Seen.clear();
      std::vector<uint32_t> Fresh;
      Fresh.reserve(List.size());
      for (uint32_t Entry : List) {
        if (isTermRef(Entry)) {
          Fresh.push_back(Entry);
          continue;
        }
        uint32_t Resolved = varRef(Forwarding.find(payloadOf(Entry)));
        if (payloadOf(Resolved) == Var) {
          ++Removed;
          continue; // Self reference left by a collapse.
        }
        if (!Seen.insert(Resolved)) {
          ++Removed;
          continue; // Duplicate after resolution.
        }
        Fresh.push_back(Resolved);
      }
      List = std::move(Fresh);
      DenseU64Set FreshSet;
      for (uint32_t Entry : List)
        if (!isTermRef(Entry))
          FreshSet.insert(Entry);
      VarSet = std::move(FreshSet);
    };
    Rebuild(Node.Preds, Node.PredVarSet);
    Rebuild(Node.Succs, Node.SuccVarSet);
  }
  return Removed;
}

std::string ConstraintSolver::dumpGraph() {
  ensureClosed();
  std::string Out;
  for (VarId Var = 0; Var != numVars(); ++Var) {
    if (!Forwarding.isRepresentative(Var))
      continue;
    const VarNode &Node = Vars[Var];
    Out += "var " + (Node.Name.empty() ? "X" + std::to_string(Var)
                                       : Node.Name);
    Out += " (order " + std::to_string(Node.Order) + ")\n";
    auto Dump = [&](const char *Label, const std::vector<uint32_t> &List) {
      if (List.empty())
        return;
      Out += std::string("  ") + Label + ":";
      for (uint32_t Entry : List) {
        Out += " ";
        if (isTermRef(Entry)) {
          Out += exprStr(payloadOf(Entry));
        } else {
          VarId Rep = Forwarding.find(payloadOf(Entry));
          Out += Vars[Rep].Name.empty() ? "X" + std::to_string(Rep)
                                        : Vars[Rep].Name;
        }
      }
      Out += "\n";
    };
    Dump("pred", Node.Preds);
    Dump("succ", Node.Succs);
  }
  return Out;
}

std::string ConstraintSolver::exprStr(ExprId Id) const {
  return Terms.str(Id, [this](VarId Var) {
    return Vars[Var].Name.empty() ? "X" + std::to_string(Var)
                                  : Vars[Var].Name;
  });
}

void SolverStats::exportTo(MetricsRegistry &Registry) const {
  for (const NamedCounter &C : allCounters())
    Registry.gauge(std::string("poce_solver_") + C.Key,
                   "Solver counter (see SolverStats)")
        .set(C.Value);
  Registry
      .gauge("poce_solver_aborted",
             "1 if the last exported solve hit a budget and stopped early")
      .set(Aborted ? 1 : 0);
}
