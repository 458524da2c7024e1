//===- setcon/ConstraintSolver.h - Inclusion constraint solver --*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online inclusion-constraint solver at the heart of the paper.
///
/// Constraints L <= R are rewritten to atomic form by the resolution rules
/// R of Figure 1 and stored as edges of a constraint graph whose nodes are
/// variables, sources (constructed terms left of an inclusion), and sinks
/// (constructed terms right of an inclusion). The graph is closed under the
/// local rule
///
///     L in pred(X),  R in succ(X)   ==>   L <= R
///
/// applied eagerly at every edge insertion. Variable-variable edges are
/// represented according to the configured GraphForm:
///
///  * Standard form (SF): X <= Y is always a successor edge of X; sources
///    propagate forward and pred lists hold sources only, so the closed
///    graph contains the least solution explicitly.
///  * Inductive form (IF): X <= Y is a predecessor edge of Y if
///    o(X) < o(Y) under a fixed (random) total order o(.), and a successor
///    edge of X otherwise. The least solution is computed afterwards by
///    LS(Y) = {c | c in pred(Y)} ∪ ⋃_{X in pred(Y)} LS(X).
///
/// With CycleElim::Online, every variable-variable insertion runs the
/// paper's partial cycle detection (Figure 3): a depth-first search along
/// predecessor chains (respectively successor chains restricted to
/// decreasing order for SF) for a chain closing a cycle with the new edge.
/// Detected cycles are collapsed onto the lowest-ordered witness through
/// forwarding pointers (union-find), re-adding the collapsed variables'
/// edges to the witness.
///
/// Set-heavy state — the source/sink term sets attached to each variable
/// and the least solutions — is held in SparseBitVector bitmaps:
/// membership is a word probe, and standard-form source flow uses batched
/// difference propagation (only the delta of newly arrived sources is
/// pushed along successor edges, with word-level unions whose changed flag
/// prunes fully redundant deliveries). See docs/INTERNALS.md, "Set
/// representation and difference propagation".
///
/// The least-solution post-pass runs as a level-by-level wavefront over the
/// collapsed representative graph on SolverOptions::Threads lanes (with
/// more than one, solution views are also materialized concurrently);
/// solutions and every counter are bit-identical for any lane count (see
/// docs/INTERNALS.md, "Parallel execution layer").
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SETCON_CONSTRAINTSOLVER_H
#define POCE_SETCON_CONSTRAINTSOLVER_H

#include "graph/Digraph.h"
#include "setcon/SolverOptions.h"
#include "setcon/SolverStats.h"
#include "setcon/Term.h"
#include "support/Arena.h"
#include "support/DenseU64Set.h"
#include "support/PRNG.h"
#include "support/SparseBitVector.h"
#include "support/UnionFind.h"

#include <string>
#include <string_view>
#include <vector>

namespace poce {

class Oracle;
class ThreadPool;

namespace serve {
class GraphSnapshot;
} // namespace serve

/// Online solver for one system of inclusion constraints.
class ConstraintSolver {
public:
  /// Creates a solver over \p Terms. If \p WitnessOracle is non-null and
  /// the configuration uses CycleElim::Oracle, fresh-variable requests are
  /// answered with SCC witnesses (perfect cycle elimination).
  ConstraintSolver(TermTable &Terms, SolverOptions Options,
                   const Oracle *WitnessOracle = nullptr);

  //===--------------------------------------------------------------------===
  // Constraint generation interface
  //===--------------------------------------------------------------------===

  /// Creates a fresh set variable (or returns its SCC witness under an
  /// oracle). \p Name is kept for diagnostics.
  VarId freshVar(std::string_view Name);

  /// Returns the expression denoting \p Var.
  ExprId varExpr(VarId Var) { return Terms.var(Var); }

  /// One top-level input constraint, kept as retraction provenance: the
  /// expressions as added plus the canonical text tag of the input line
  /// that produced it (empty for untagged API adds). BaseRoots is the
  /// exact replay set — a fresh solver fed every BaseRoot in order
  /// computes the same solutions — which is what retract() rebuilds the
  /// affected cone from.
  struct BaseRoot {
    ExprId L, R;
    std::string Tag;
  };

  /// Adds the constraint L <= R. Under ClosureMode::Worklist every
  /// consequence is processed eagerly before returning (the solver is
  /// fully online); under ClosureMode::Wave the constraint is deferred
  /// until a solution or graph observer forces ensureClosed().
  ///
  /// \p Tag names the input line this constraint came from (canonical
  /// rendered text); retract(Tag) removes it later. Internal replays
  /// (collapse re-adds, offline replays, retraction rebuilds) never pass
  /// through here, so each accepted input is recorded exactly once.
  void addConstraint(ExprId L, ExprId R, std::string Tag = "");

  /// Removes the first base constraint recorded with \p Tag and repairs
  /// the graph incrementally: the affected cone — every variable whose
  /// state may depend on the retracted constraint — is identified,
  /// reset, and rebuilt by replaying the surviving base constraints that
  /// mention it, while the untouched remainder of the graph stays in
  /// place. Collapsed-cycle classes inside the cone are split back into
  /// singletons unless their witness cycle provably survives among the
  /// direct surviving constraints (offline HVN-merged classes always
  /// split: they have no online witness cycle). Returns false if no base
  /// constraint carries \p Tag or the solver has already aborted.
  ///
  /// Afterwards, solutions are bit-identical to a fresh solve of the
  /// surviving constraints (the correctness oracle the retraction tests
  /// enforce). Per-batch budgets apply to the replay exactly as they do
  /// to addConstraint; on abort the graph is structurally valid but not
  /// a closure — callers roll back, as for an aborted add.
  bool retract(const std::string &Tag);

  /// True if some recorded base constraint carries \p Tag (the dry-run
  /// check servers use before WAL-logging a retraction).
  bool hasRootTag(const std::string &Tag) const;

  /// The recorded base constraints in input order.
  const std::vector<BaseRoot> &baseRoots() const { return BaseRoots; }

  /// Completes the closure of everything added so far. A no-op in
  /// worklist mode (addConstraint already closed eagerly); in wave mode
  /// (the default) this drains the deferred constraints and runs
  /// topologically ordered difference-propagation sweeps to the fixpoint.
  /// Every solution query and graph observer calls this, so callers only
  /// need it to bound *when* the wave work happens (e.g. for timing).
  void ensureClosed();

  TermTable &terms() { return Terms; }
  const TermTable &terms() const { return Terms; }

  //===--------------------------------------------------------------------===
  // Solutions
  //===--------------------------------------------------------------------===

  /// Computes least solutions for all variables on Options.Threads lanes.
  /// Idempotent; implied by leastSolution(). Adding constraints afterwards
  /// invalidates the cached solutions, which are recomputed on the next
  /// query.
  void finalize();

  /// The least solution of \p Var: the sorted set of constructed source
  /// terms (by ExprId) contained in every solution's value for Var. The
  /// solution is held as a bitvector; the sorted vector view is
  /// materialized lazily per representative and cached until the next
  /// constraint addition.
  const std::vector<ExprId> &leastSolution(VarId Var);

  /// The least solution of \p Var as a bitmap (no materialization).
  const SparseBitVector &leastSolutionBits(VarId Var);

  //===--------------------------------------------------------------------===
  // Concurrent read surface
  //===--------------------------------------------------------------------===
  //
  // The accessors below are genuinely const: no lazy closure, no lazy
  // finalize, no union-find path compression — so a solver that has been
  // fully settled with materializeAllViews() can be shared read-only
  // across threads with no synchronization at all. The serve layer's
  // ReadView (serve/ReadView.h) reads a finalized solver through them
  // when it builds its rows. Calling them on an unsettled solver is a
  // programming error (asserted).

  /// True once finalize() has settled the solutions (materializeAllViews()
  /// additionally builds every sorted view, which leastSolutionViewConst
  /// asserts per representative): the precondition of the *Const
  /// accessors below.
  bool readShareable() const {
    return Finalized && LSView.size() == numVars();
  }

  /// Representative lookup without path compression (single const hop on
  /// the pre-compressed forwarding chains finalize() leaves behind).
  VarId repConst(VarId Var) const { return Forwarding.findConst(Var); }

  /// leastSolutionBits() without the lazy finalize.
  const SparseBitVector &leastSolutionBitsConst(VarId Var) const;

  /// leastSolution() without the lazy finalize or view materialization;
  /// requires materializeAllViews() to have built every view.
  const std::vector<ExprId> &leastSolutionViewConst(VarId Var) const;

  /// alias query (same representative or intersecting solutions) on the
  /// const surface.
  bool aliasConst(VarId X, VarId Y) const;

  /// Recomputes all least solutions with the pre-bitvector algorithm
  /// (vector concatenation + sort + unique over the adjacency lists).
  /// Retained as an independent oracle for the equivalence tests; the
  /// result is indexed by VarId and filled for live representatives only.
  std::vector<std::vector<ExprId>> referenceLeastSolutions();

  //===--------------------------------------------------------------------===
  // Introspection (tests, benches, oracle construction)
  //===--------------------------------------------------------------------===

  const SolverOptions &options() const { return Options; }
  /// The counters so far. stats() does not close the graph: under Wave
  /// closure (the default) read them after finalize() or ensureClosed().
  const SolverStats &stats() const { return Stats; }

  /// Current representative of \p Var's equality class.
  VarId rep(VarId Var) { return Forwarding.find(Var); }

  /// True if \p Var has not been collapsed into another variable.
  bool isLive(VarId Var) const { return Forwarding.isRepresentative(Var); }

  /// Order index o(Var) used by the inductive form and chain searches.
  uint64_t orderOf(VarId Var) const { return Vars[Var].Order; }

  uint32_t numVars() const { return static_cast<uint32_t>(Vars.size()); }
  uint32_t numLiveVars() const;
  const std::string &varName(VarId Var) const { return Vars[Var].Name; }

  /// Total fresh-variable requests (creation indices are 0..N-1).
  uint32_t numCreations() const {
    return static_cast<uint32_t>(VarOfCreation.size());
  }
  /// The variable answering creation index \p CreationIndex.
  VarId varOfCreation(uint32_t CreationIndex) const {
    return VarOfCreation[CreationIndex];
  }
  /// Creation index of variable \p Var.
  uint32_t creationIndexOf(VarId Var) const {
    return Vars[Var].CreationIndex;
  }

  /// With SolverOptions::RecordVarVar, every distinct variable-variable
  /// constraint in creation-index space (used for ground-truth SCCs and
  /// oracle construction).
  const std::vector<std::pair<uint32_t, uint32_t>> &recordedVarVar() const {
    return RecordedVarVar;
  }

  /// The subset of recorded variable-variable constraints that stem
  /// directly from input constraints (the initial graph, pre-closure).
  const std::vector<std::pair<uint32_t, uint32_t>> &
  recordedInitialVarVar() const {
    return RecordedInitialVarVar;
  }

  /// Structural mismatches collected under MismatchPolicy::Collect.
  const std::vector<std::string> &inconsistencies() const {
    return Inconsistencies;
  }

  /// Counts distinct edges in the current graph (live variables only,
  /// entries resolved through forwarding) — the paper's "Edges" column.
  uint64_t countFinalEdges();

  /// Checks the representation invariants the least-solution pass relies
  /// on: in inductive form every live variable's predecessor entries
  /// resolve to strictly lower-ordered representatives; in standard form
  /// predecessor lists contain source terms only. Returns false on the
  /// first violation (the invariant the IF ascending pass asserts).
  bool verifyGraphInvariants();

  /// Projects the current variable-variable graph (edges between live
  /// representatives) for SCC analysis and visualization.
  Digraph varVarDigraph();

  /// Number of variables reachable from \p Var along predecessor chains
  /// (Theorem 5.2 measurement).
  uint64_t countPredChainReachable(VarId Var);

  /// Renders \p Id with variable names for diagnostics.
  std::string exprStr(ExprId Id) const;

  /// Rewrites every live variable's adjacency lists, resolving entries
  /// through forwarding pointers and dropping duplicates and self
  /// references that collapses left behind. Purely an internal
  /// maintenance operation: solutions and counters are unaffected (except
  /// that subsequent redundant-addition counts drop). Returns the number
  /// of entries removed.
  uint64_t compact();

  /// Serializes the current graph as human-readable text: one line per
  /// live variable with its order index and resolved predecessor and
  /// successor entries. Intended for debugging and golden tests.
  std::string dumpGraph();

  /// Finalizes (if needed) and builds every live representative's sorted
  /// solution view not built yet, on Options.Threads lanes. The serve
  /// layer calls this after loading a snapshot so that first queries do
  /// not pay materialization cost; results are identical for any lane
  /// count.
  void materializeAllViews();

  /// Overrides the thread-count option. Threads only affects wall-clock
  /// (solutions and counters are bit-identical for any value), so a
  /// snapshot loader may freely retarget it to the serving machine.
  void setThreads(unsigned Threads) { Options.Threads = Threads; }

  /// Overrides the closure-scheduling mode. Closes any deferred work
  /// first so no queued constraint is stranded by a Wave -> Worklist
  /// switch; the completed closure is the same under either mode, so
  /// snapshot loaders may retarget freely.
  void setClosure(ClosureMode Mode) {
    ensureClosed();
    Options.Closure = Mode;
  }

  /// Overrides the preprocessing mode. Closes any deferred work first, so
  /// on a warm solver (a snapshot loader re-arming options, or a mode
  /// switch after constraints were added) the option is recorded without
  /// re-running the pass: the offline analysis is only sound on a pristine
  /// solver, and incremental adds always take the online path. Arming
  /// Offline on a pristine solver defers the initial bulk load until the
  /// first ensureClosed().
  void setPreprocess(PreprocessMode Mode) {
    ensureClosed();
    Options.Preprocess = Mode;
    PreprocessDone = Mode != PreprocessMode::Offline || numVars() != 0 ||
                     Stats.ConstraintsProcessed != 0;
  }

  /// Overrides the per-batch resource budgets (0 = unlimited each). Like
  /// setThreads, budgets never change what a successful solve computes —
  /// only whether an in-flight batch is aborted — so servers and recovery
  /// paths may retarget them freely after loading a snapshot.
  void setBudgets(uint64_t DeadlineMs, uint64_t MaxEdgeBudget,
                  uint64_t MaxMemBytes) {
    Options.DeadlineMs = DeadlineMs;
    Options.MaxEdgeBudget = MaxEdgeBudget;
    Options.MaxMemBytes = MaxMemBytes;
  }

private:
  /// The snapshot serializer reads and reconstructs the private graph
  /// state (adjacency lists, bitmaps, forwarding pointers) word-for-word.
  friend class serve::GraphSnapshot;

  //===--------------------------------------------------------------------===
  // Graph node references
  //===--------------------------------------------------------------------===

  /// Adjacency entries are 32-bit tagged references: variables carry their
  /// VarId, constructed terms their ExprId with the top bit set.
  static constexpr uint32_t TermTag = 0x80000000U;
  static uint32_t varRef(VarId Var) { return Var; }
  static uint32_t termRef(ExprId Term) { return Term | TermTag; }
  static bool isTermRef(uint32_t Ref) { return Ref & TermTag; }
  static uint32_t payloadOf(uint32_t Ref) { return Ref & ~TermTag; }

  struct VarNode {
    std::string Name;
    uint64_t Order = 0;
    uint32_t CreationIndex = 0;
    /// Adjacency in insertion order (tagged refs). Drives pairing order,
    /// chain searches, collapse re-adding, and dumps.
    std::vector<uint32_t> Preds, Succs;
    /// Dedup sets for variable entries (raw refs as written, which may go
    /// stale after collapses — matching the list contents).
    DenseU64Set PredVarSet, SuccVarSet;
    /// Bitmaps of the term entries (source ExprIds on the pred side, sink
    /// ExprIds on the succ side). Membership, least solutions, and edge
    /// counting all read these instead of hashing.
    SparseBitVector PredTerms, SuccTerms;
    /// Standard-form difference propagation: sources that arrived since
    /// the last flush and still await delivery to the successor edges.
    /// Always a subset of PredTerms; empty outside SF diff-prop.
    SparseBitVector SrcDelta;
    uint32_t VisitEpoch = 0;
  };

  struct WorkItem {
    ExprId Lhs, Rhs;
    bool Derived;
    /// SF difference propagation: flush Vars[Lhs].SrcDelta along the
    /// successor edges instead of resolving Lhs <= Rhs.
    bool FlushDelta;
  };

  //===--------------------------------------------------------------------===
  // Resolution and closure
  //===--------------------------------------------------------------------===

  /// The closure entry point addConstraint delegates to after recording
  /// provenance: defers to PreRoots/RootQueue or drains eagerly. Internal
  /// replays (offline pass, retraction rebuild) call this directly so the
  /// provenance log records each accepted input exactly once.
  void processRoot(ExprId Lhs, ExprId Rhs);

  void drainWorklist();
  void resolve(ExprId Lhs, ExprId Rhs, bool Derived);
  void handleMismatch(ExprId Lhs, ExprId Rhs);

  //===--------------------------------------------------------------------===
  // Offline preprocessing (PreprocessMode::Offline)
  //===--------------------------------------------------------------------===

  /// True while the initial bulk load is still being deferred for the
  /// offline pass: addConstraint parks constraints in PreRoots instead of
  /// processing them.
  bool offlinePending() const {
    return Options.Preprocess == PreprocessMode::Offline && !PreprocessDone;
  }

  /// Runs the offline HVN + Tarjan SCC analysis over the deferred
  /// constraints, applies the resulting merges through the union-find,
  /// and replays the deferred constraints through the normal online path
  /// (per-root worklist drains, or the wave root queue — matching the
  /// schedule addConstraint would have produced). Runs at most once, at
  /// the first ensureClosed().
  void runOfflinePass();

  //===--------------------------------------------------------------------===
  // Wave closure (ClosureMode::Wave)
  //===--------------------------------------------------------------------===

  bool waveMode() const { return Options.Closure == ClosureMode::Wave; }

  /// Wave-mode drain: alternates a structural phase (deferred roots and
  /// derived items through the eager worklist discipline — derived items
  /// LIFO, the next root only when the worklist is empty, so the item
  /// schedule matches worklist mode exactly) with propagation sweeps that
  /// flush the accumulated source deltas in topological order.
  void drainWave();

  /// One topologically ordered sweep over the pending source deltas: a
  /// deterministic min-heap on the cached topological position pops each
  /// variable only after every delta reachable from earlier positions has
  /// landed, so acyclic regions flush exactly once per sweep. Deliveries
  /// that land at or before the cursor (a cycle formed after the order was
  /// cached) count as WaveFallbacks and simply re-enter the heap — the
  /// worklist-granularity fallback the paper's online discipline needs.
  void runWavePass();

  /// (Re)builds the cached topological order: Tarjan-condense the live
  /// variable graph, level the condensation Kahn-style, assign each live
  /// representative a unique position sorted by (level, order index), and
  /// lay the successor rows out as CSR arrays in position order with
  /// targets pre-resolved through forwarding.
  void buildWaveOrder();

  /// Drops the cached order/CSR. Called on any structural change the
  /// cache bakes in: variable creation, variable-variable edge insertion,
  /// collapses, and compact().
  void invalidateWaveOrder() { WaveOrderValid = false; }

  void insertVarVar(VarId Lhs, VarId Rhs, bool Derived);
  void insertSourceVar(ExprId Source, VarId Var, bool Derived);
  void insertVarSink(VarId Var, ExprId Sink, bool Derived);

  /// Inserts NodeRef \p Entry into the pred (or succ) side of live
  /// variable \p Owner, generating closure pairings; returns false if the
  /// edge was already present.
  bool insertPred(VarId Owner, uint32_t Entry, bool Derived);
  bool insertSucc(VarId Owner, uint32_t Entry, bool Derived);

  /// True if this solve batches standard-form source flow.
  bool sfDiffProp() const {
    return Options.Form == GraphForm::Standard && Options.DiffProp;
  }

  /// Schedules a SrcDelta flush for \p Var unless one is already pending.
  void scheduleFlush(VarId Var);

  /// Delivers the pending source delta of \p Var along its successor
  /// edges (batched for variable successors, element-wise resolution for
  /// sink successors).
  void flushDelta(VarId Var);

  /// Batched arrival of the source set \p Batch at live variable
  /// \p Target: word-level union into the target's source bitmap with
  /// work accounting identical to element-wise insertion.
  void deliverSources(VarId Target, const SparseBitVector &Batch);

  ExprId exprOfRef(uint32_t Ref);
  void enqueue(ExprId Lhs, ExprId Rhs, bool Derived);
  void countWork();
  /// Batched equivalent of \p N countWork() calls.
  void countWorkBatch(uint64_t N);

  /// Marks the solve aborted for \p Reason and clears the worklist; the
  /// partially closed graph stays structurally valid but is not a closure
  /// of the input — callers (QueryEngine) roll back to the pre-batch
  /// state.
  void abortSolve(SolverStats::AbortReason Reason);
  /// Captures the batch baselines (start time, start Work) at the top of
  /// a top-level drain.
  void beginBatchBudgets();
  /// Closure-loop budget check: deadline every ~64 items, memory every
  /// ~4096, edge budget every item. Also hosts the `solver.step` (crash)
  /// and `solver.budget` (forced-breach) failpoints.
  void checkBatchBudgets();

  //===--------------------------------------------------------------------===
  // Cycle detection and elimination
  //===--------------------------------------------------------------------===

  /// Chain-search direction/representation variants.
  enum class ChainKind {
    Pred,           ///< IF: predecessor chains.
    Succ,           ///< IF: successor chains.
    SuccDecreasing, ///< SF: successor edges toward lower order.
    SuccIncreasing, ///< SF: successor edges toward higher order.
  };

  /// Runs partial detection for the new constraint Lhs <= Rhs; on success
  /// collapses the cycle and returns true.
  bool detectAndCollapse(VarId Lhs, VarId Rhs);

  /// DFS from \p Start along \p Kind chains looking for \p Target; fills
  /// \p Path with the chain (Start first) when found.
  bool searchChain(VarId Start, VarId Target, ChainKind Kind,
                   std::vector<VarId> &Path);

  /// Collapses the distinct live variables in \p Cycle onto the
  /// lowest-ordered witness and re-enqueues their constraints.
  void collapseCycle(const std::vector<VarId> &Cycle);

  /// Offline pass for CycleElim::Periodic: Tarjan over the current
  /// variable graph, collapsing every non-trivial SCC.
  void runPeriodicPass();

  void recordVarVar(VarId Lhs, VarId Rhs, bool Derived);

  //===--------------------------------------------------------------------===
  // Constraint retraction
  //===--------------------------------------------------------------------===

  /// Appends every variable occurring in \p Expr's term tree to \p Out.
  void collectExprVars(ExprId Expr, std::vector<VarId> &Out) const;

  /// Computes the retraction cone for the removed root L <= R: the set of
  /// variables whose graph state may depend on it. Seeds with the root's
  /// mentioned variables, then closes under (a) class wholeness, (b)
  /// forward flow along variable-variable edges, (c) variables occurring
  /// in terms a cone variable holds, and (d) variables holding terms that
  /// mention a cone variable (their pairings re-derive the cone's edges).
  /// On return \p ConeVar flags every affected raw VarId and
  /// \p MentionsCone flags every ExprId whose tree mentions one.
  void computeRetractionCone(ExprId RootL, ExprId RootR,
                             std::vector<uint8_t> &ConeVar,
                             std::vector<uint8_t> &MentionsCone);

  /// True if the surviving direct variable-variable base constraints
  /// still strongly connect every member of the collapsed class listed
  /// in \p Members — the cheap certificate that the class's witness
  /// cycle survives the retraction and the collapse may stay.
  bool classCycleSurvives(const std::vector<VarId> &Members);

  //===--------------------------------------------------------------------===
  // Least solution
  //===--------------------------------------------------------------------===

  /// Closes, marks the solver finalized and computes the least solutions
  /// on \p Pool (the body of finalize() minus the view policy).
  void settleSolutions(ThreadPool &Pool);
  /// Inductive form's least solutions (equation 1 of the paper) as a
  /// wavefront: Kahn levels over the collapsed (acyclic) representative
  /// graph, then per-level word-level unions on \p Pool — each level's
  /// variables only read solutions completed by earlier levels and only
  /// write their own bitmap. LSBits and counters are bit-identical for any
  /// lane count.
  void computeLeastSolutionIF(ThreadPool &Pool);
  /// Builds every live representative's sorted solution view not built
  /// yet, concurrently on \p Pool.
  void materializeAllSolutions(ThreadPool &Pool);
  void invalidateSolutions();
  /// Builds (or returns) the cached sorted-vector view of \p Rep's least
  /// solution bitmap.
  const std::vector<ExprId> &materializeLS(VarId Rep);

  TermTable &Terms;
  SolverOptions Options;
  const Oracle *WitnessOracle;
  PRNG OrderRng;

  std::vector<VarNode> Vars;
  UnionFind Forwarding;
  std::vector<VarId> VarOfCreation;

  /// Retraction provenance: every top-level input constraint in input
  /// order (see BaseRoot). Not touched by internal replays.
  std::vector<BaseRoot> BaseRoots;
  std::vector<WorkItem> Worklist;
  bool Draining = false;
  /// Offline preprocessing: input constraints deferred by addConstraint
  /// until the first ensureClosed() runs the pass and replays them.
  std::vector<std::pair<ExprId, ExprId>> PreRoots;
  /// False only while an armed offline pass still awaits its first
  /// closure; set (and kept) true once the pass ran, so every later
  /// constraint takes the online path.
  bool PreprocessDone = true;
  uint64_t NextPeriodicWork = 0;
  uint32_t CurrentEpoch = 0;

  /// Wave mode: input constraints deferred by addConstraint, consumed
  /// FIFO (input order) by drainWave.
  std::vector<WorkItem> RootQueue;
  /// Wave mode: variables whose SrcDelta went empty -> nonempty and await
  /// a flush (the wave-mode stand-in for FlushDelta worklist items).
  std::vector<VarId> PendingWave;
  /// Heap scratch of runWavePass, keyed by WaveIndex.
  std::vector<VarId> WaveHeap;
  /// Cached topological order of the live variable graph. WaveLevel is the
  /// Kahn level of the variable's condensation component; WaveIndex a
  /// unique position sorted by (level, order index), UINT32_MAX for dead
  /// variables. Valid only while WaveOrderValid.
  bool WaveOrderValid = false;
  std::vector<uint32_t> WaveLevel;
  std::vector<uint32_t> WaveIndex;
  /// CSR successor rows in WaveIndex position order: row for position P
  /// is WaveEdges[WaveRowStart[P] .. WaveRowStart[P+1]) of tagged refs
  /// with variable targets pre-resolved to representatives.
  /// Arena-backed; rebuilt with the order, reset() reuses the slabs.
  Arena WaveArena{1 << 16};
  uint32_t *WaveRowStart = nullptr;
  uint32_t *WaveEdges = nullptr;
  /// Sweep state: position of the variable being flushed, so deliveries
  /// against the order can be counted as fallbacks.
  bool InWavePass = false;
  uint32_t WaveCursor = 0;

  /// Per-batch budget baselines, valid while Draining. BatchDeadlineNs is
  /// an absolute steady-clock deadline in nanoseconds (0 = none);
  /// BatchStartWork anchors the MaxEdgeBudget delta; BatchTicks throttles
  /// the clock and /proc reads.
  uint64_t BatchDeadlineNs = 0;
  uint64_t BatchStartWork = 0;
  uint64_t BatchTicks = 0;

  /// Scratch bitmaps reused by flushDelta/insertSucc to avoid per-flush
  /// allocations.
  SparseBitVector DeltaScratch, OldSrcScratch;

  SparseBitVector SeenSources, SeenSinks;
  DenseU64Set RecordedSet, RecordedInitialSet;
  std::vector<std::pair<uint32_t, uint32_t>> RecordedVarVar;
  std::vector<std::pair<uint32_t, uint32_t>> RecordedInitialVarVar;
  std::vector<std::string> Inconsistencies;

  bool Finalized = false;
  /// Inductive-form least solutions per VarId (unused entries empty).
  /// Standard form reads PredTerms directly instead.
  std::vector<SparseBitVector> LSBits;
  /// Lazily materialized sorted views of the solution bitmaps.
  std::vector<std::vector<ExprId>> LSView;
  std::vector<uint8_t> LSViewBuilt;

  SolverStats Stats;
};

} // namespace poce

#endif // POCE_SETCON_CONSTRAINTSOLVER_H
