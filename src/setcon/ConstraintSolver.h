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
/// collapsed representative graph on SolverOptions::Threads lanes;
/// solutions and every counter are bit-identical for any lane count (see
/// docs/INTERNALS.md, "Parallel execution layer").
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SETCON_CONSTRAINTSOLVER_H
#define POCE_SETCON_CONSTRAINTSOLVER_H

#include "graph/GraphRows.h"
#include "setcon/SolverOptions.h"
#include "setcon/SolverStats.h"
#include "setcon/Term.h"
#include "support/Arena.h"
#include "support/DenseU64Set.h"
#include "support/PRNG.h"
#include "support/SparseBitVector.h"
#include "support/UnionFind.h"

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace poce {

class Oracle;
class ThreadPool;
struct FlatSCCs;

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

  /// Adds the constraint L <= R to the root queue. Under
  /// ClosureMode::Worklist the queue drains before returning (the solver
  /// is fully online); under ClosureMode::Wave it waits until a solution
  /// or graph observer forces ensureClosed().
  ///
  /// \p Tag names the input line this constraint came from (canonical
  /// rendered text); retract(Tag) removes it later. Internal replays
  /// (collapse re-adds, retraction rebuilds) never pass through here, so
  /// each accepted input is recorded exactly once.
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
  /// enforce). The whole replay is one budget batch, as one addConstraint
  /// is; on abort the graph is structurally valid but not a closure —
  /// callers roll back, as for an aborted add.
  bool retract(const std::string &Tag);

  /// True if some recorded base constraint carries \p Tag (the dry-run
  /// check servers use before WAL-logging a retraction).
  bool hasRootTag(const std::string &Tag) const;

  /// The recorded base constraints in input order.
  const std::vector<BaseRoot> &baseRoots() const { return BaseRoots; }

  /// Completes the closure of everything added so far: runs a pending
  /// offline pass, then drains the root queue as one budget batch (in
  /// wave mode, the default, with topologically ordered sweeps). Every
  /// solution query and graph observer calls this, so callers only need
  /// it to bound *when* the wave work happens (e.g. for timing).
  void ensureClosed();

  TermTable &terms() { return Terms; }
  const TermTable &terms() const { return Terms; }

  //===--------------------------------------------------------------------===
  // Solutions
  //===--------------------------------------------------------------------===

  /// Closes the graph, compresses every forwarding chain (so repConst()
  /// and the const accessors take one hop) and computes the least
  /// solutions: inductive form's on Options.Threads lanes, while standard
  /// form's closed graph already holds them. Idempotent; implied by
  /// leastSolution(). Adding constraints afterwards invalidates the
  /// solutions, which are recomputed on the next query.
  void finalize();

  /// The least solution of \p Var: the set of constructed source terms
  /// (by ExprId) contained in every solution's value for Var, as the
  /// solver's bitmap for its representative (in inductive form, the one
  /// its solution owner shares; see LSOwner). Iterating it yields the
  /// ExprIds in ascending order. The reference stays valid until the next
  /// constraint addition.
  const SparseBitVector &leastSolution(VarId Var);

  //===--------------------------------------------------------------------===
  // Concurrent read surface
  //===--------------------------------------------------------------------===
  //
  // The accessors below are genuinely const: no lazy closure, no lazy
  // finalize, no union-find path compression — so a finalized solver can
  // be shared read-only across threads with no synchronization at all.
  // The serve layer's ReadView (serve/ReadView.h) reads a finalized
  // solver through them when it builds its rows. Calling them on an
  // unsettled solver is a programming error (asserted).

  /// True once finalize() has settled the solutions: the precondition of
  /// the *Const accessors below.
  bool readShareable() const { return Finalized; }

  /// Representative lookup without path compression: a single const hop,
  /// because finalize() compresses every forwarding chain.
  VarId repConst(VarId Var) const { return Forwarding.findConst(Var); }

  /// leastSolution() without the lazy finalize.
  const SparseBitVector &leastSolutionBitsConst(VarId Var) const;

  /// leastSolutionBitsConst() copied out as a sorted vector.
  std::vector<ExprId> leastSolutionViewConst(VarId Var) const;

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
  /// predecessor lists contain source terms only; in both, every source a
  /// live variable holds is in SeenSources. Returns false on the first
  /// violation (the invariant the IF ascending pass asserts).
  bool verifyGraphInvariants();

  /// Closes the graph and returns the live variable graph (liveVarRows())
  /// for SCC analysis and visualization.
  GraphRows varGraph();

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

  /// Same as finalize(); perfbench still calls it.
  void materializeAllViews() { finalize(); }

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

    /// Drops every edge and term bit; the lists keep their capacity.
    void clearEdges() {
      Preds.clear();
      Succs.clear();
      PredVarSet = DenseU64Set();
      SuccVarSet = DenseU64Set();
      PredTerms = SparseBitVector();
      SuccTerms = SparseBitVector();
      SrcDelta = SparseBitVector();
    }
  };

  /// A derived closure item; roots wait on RootQueue instead.
  struct WorkItem {
    ExprId Lhs, Rhs;
    /// SF difference propagation: flush Vars[Lhs].SrcDelta along the
    /// successor edges instead of resolving Lhs <= Rhs.
    bool FlushDelta;
  };

  //===--------------------------------------------------------------------===
  // Resolution and closure
  //===--------------------------------------------------------------------===

  /// The one closure loop, and one budget batch: a structural phase
  /// (derived items LIFO, the next queued root only when the worklist is
  /// empty — the eager schedule, on either ClosureMode) alternating, in
  /// wave mode, with sweeps that flush the parked source deltas in
  /// topological order. The schedule decides only when a drain runs and
  /// where a pending delta waits (a FlushDelta item, or PendingWave).
  void drain();
  void resolve(ExprId Lhs, ExprId Rhs, bool Derived);
  void handleMismatch(ExprId Lhs, ExprId Rhs);

  //===--------------------------------------------------------------------===
  // Offline preprocessing (PreprocessMode::Offline)
  //===--------------------------------------------------------------------===

  /// True while the initial bulk load is still being deferred for the
  /// offline pass: addConstraint leaves its roots queued, undrained.
  bool offlinePending() const {
    return Options.Preprocess == PreprocessMode::Offline && !PreprocessDone;
  }

  /// Runs the offline HVN + Tarjan SCC analysis over the queued roots and
  /// applies the resulting merges through the union-find; the roots stay
  /// queued for the drain that follows. Runs at most once, at the first
  /// ensureClosed().
  void runOfflinePass();

  //===--------------------------------------------------------------------===
  // Wave closure (ClosureMode::Wave)
  //===--------------------------------------------------------------------===

  bool waveMode() const { return Options.Closure == ClosureMode::Wave; }

  /// One topologically ordered sweep over the pending source deltas: a
  /// deterministic min-heap on the cached topological position pops each
  /// variable only after every delta reachable from earlier positions has
  /// landed, so acyclic regions flush exactly once per sweep. Deliveries
  /// that land at or before the cursor (inside an SCC the order levels as
  /// one component, which only SF-Plain and SF-Periodic leave in the
  /// graph) count as WaveFallbacks and simply re-enter the heap. If the
  /// order build collapsed cycles instead, no sweep runs: control returns
  /// to drain(), whose structural phase replays the collapse re-adds
  /// before the next pass rebuilds the order.
  void runWavePass();

  /// (Re)builds the cached topological order: take the live variable
  /// graph from liveVarRows() (written in place from the successor lists
  /// in standard form), run Tarjan over it, level the components
  /// Kahn-style from the same rows, assign each live representative a
  /// unique position sorted by (level, order index) — a stable counting
  /// sort on level over varsByOrder() — and lay the successor lists out as
  /// CSR arrays in position order with targets pre-resolved through
  /// forwarding. Under CycleElim::Online it first collapses every
  /// non-trivial SCC the Tarjan pass found (counted in
  /// WaveCollapsedVars); when anything collapsed it returns with the order
  /// still invalid, so each order it does complete is acyclic. All of its
  /// scratch is local: only the order and the CSR outlive the build.
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
  void enqueue(ExprId Lhs, ExprId Rhs);
  void countWork();
  /// Batched equivalent of \p N countWork() calls.
  void countWorkBatch(uint64_t N);

  /// Marks the solve aborted for \p Reason and clears every queue; the
  /// partially closed graph stays structurally valid but is not a closure
  /// of the input — callers (QueryEngine) roll back to the pre-batch
  /// state.
  void abortSolve(SolverStats::AbortReason Reason);
  /// Captures the batch baselines (start time, start Work) at the top of
  /// a drain.
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
  /// ChainPath with the chain (Start first) when found. Standard-form
  /// searches replay a hub's ChainSummary instead of rescanning its list.
  bool searchChain(VarId Start, VarId Target, ChainKind Kind);

  /// True if a \p Kind chain may step from \p From to \p Next.
  bool chainOrderOk(ChainKind Kind, VarId Next, VarId From) const {
    return Kind == ChainKind::SuccIncreasing ? orderOf(Next) > orderOf(From)
                                             : orderOf(Next) < orderOf(From);
  }

  /// The ChainSummaries index a \p Kind search replays for \p Var's list,
  /// or NoChainSummary for a plain walk. Only standard-form hubs (successor
  /// lists of at least ChainHubCutoff entries) get a summary: inductive
  /// lists hold only monotone entries, so a summary would skip nothing,
  /// and short lists are cheaper to walk than to look up.
  uint32_t chainSummaryFor(VarId Var, ChainKind Kind) {
    if (Kind == ChainKind::Pred || Kind == ChainKind::Succ ||
        Vars[Var].Succs.size() < ChainHubCutoff)
      return NoChainSummary;
    return hubChainSummary(Var, Kind);
  }
  /// Finds or creates \p Hub's summary for \p Kind, reset first if the
  /// generation moved on.
  uint32_t hubChainSummary(VarId Hub, ChainKind Kind);

  /// Scans \p Hub's successor list past \p Summary's prefix until one more
  /// entry passes the \p Kind order test; returns false at the list's end.
  struct ChainSummary;
  bool extendChainSummary(ChainSummary &Summary, VarId Hub, ChainKind Kind);

  /// Ends the validity of every chain summary. Called wherever the
  /// union-find changes or a list shrinks: a collapse, an offline merge,
  /// a retraction, compact(). List growth needs no call: a summary covers
  /// a prefix and scans what was appended since.
  void invalidateChainSummaries() { ++ChainGeneration; }

  /// Collapses the distinct live variables in \p Cycle onto the
  /// lowest-ordered witness and re-enqueues their constraints. Callers
  /// count the collapse.
  void collapseCycle(std::span<const VarId> Cycle);

  /// Collapses every non-trivial (size >= 2) component of \p SCCs, a
  /// Tarjan pass over the current variable graph, in component order.
  /// Adds the variables it eliminated to \p Eliminated and returns the
  /// number of components collapsed.
  uint64_t collapseComponents(const FlatSCCs &SCCs, uint64_t &Eliminated);

  /// Offline pass for CycleElim::Periodic: Tarjan over the current
  /// variable graph, collapsing every non-trivial SCC.
  void runPeriodicPass();

  void recordVarVar(VarId Lhs, VarId Rhs, bool Derived);

  /// The live variable graph as one row per VarId: an edge Rep -> Rep' for
  /// every variable-variable entry of a live representative (successor
  /// entries from it, inductive form's predecessor entries into it),
  /// targets resolved through forwarding and self loops dropped; dead
  /// variables have empty rows. Rows keep adjacency-list order and may
  /// repeat a target. The wave-order build, the periodic pass, the
  /// retraction cone and varGraph() all read the graph through it.
  GraphRows liveVarRows();

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

  //===--------------------------------------------------------------------===
  // Least solution
  //===--------------------------------------------------------------------===

  /// Inductive form's least solutions (equation 1 of the paper) as a
  /// wavefront. One ascending pass over varsByOrder() gives every live
  /// representative its solution's owner (LSOwner) and every owner a Kahn
  /// level; then each level's owners take word-level unions on \p Pool,
  /// reading only solutions completed by earlier levels and writing only
  /// their own bitmap. LSBits, LSOwner and counters are bit-identical for
  /// any lane count.
  void computeLeastSolutionIF(ThreadPool &Pool);
  void invalidateSolutions();

  /// Every VarId, live or dead, ascending by order index. Order indices
  /// are unique and fixed at creation, so the list only grows: the
  /// variables created since the last call are sorted on their own and
  /// merged in.
  const std::vector<VarId> &varsByOrder();

  TermTable &Terms;
  SolverOptions Options;
  const Oracle *WitnessOracle;
  PRNG OrderRng;

  std::vector<VarNode> Vars;
  UnionFind Forwarding;
  std::vector<VarId> VarOfCreation;
  /// varsByOrder()'s list, extended on use.
  std::vector<VarId> ByOrder;

  /// Retraction provenance: every top-level input constraint in input
  /// order (see BaseRoot). Not touched by internal replays.
  std::vector<BaseRoot> BaseRoots;
  std::vector<WorkItem> Worklist;
  /// Roots awaiting closure — input constraints and retraction replays —
  /// consumed FIFO (input order) by drain().
  std::vector<std::pair<ExprId, ExprId>> RootQueue;
  bool Draining = false;
  /// False only while an armed offline pass still awaits its first
  /// closure; set (and kept) true once the pass ran, so every later
  /// constraint takes the online path.
  bool PreprocessDone = true;
  uint64_t NextPeriodicWork = 0;
  uint32_t CurrentEpoch = 0;

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

  /// Chain-search scratch, reused by every search (one runs per
  /// variable-variable insertion under CycleElim::Online): the DFS stack
  /// and the chain it found. collapseCycle() only queues work, so no
  /// search starts while ChainPath is being collapsed.
  struct ChainFrame {
    VarId Node;
    /// The next list entry to walk, or with a summary the next passing
    /// entry to replay.
    uint32_t NextIndex;
    /// Index into ChainSummaries, or NoChainSummary for a plain walk.
    uint32_t Summary;
    /// With a summary: the hub's counted entries already added to
    /// CycleSearchSteps.
    uint32_t StepsCounted;
  };
  static constexpr uint32_t NoChainSummary = UINT32_MAX;
  std::vector<ChainFrame> ChainFrames;
  std::vector<VarId> ChainPath;

  /// A standard-form successor list at least this long is a hub and gets a
  /// ChainSummary. The list entries one search scans are bimodal on the
  /// paper's 27-program suite under SF-Online: of 420,880 searches,
  /// 266,181 scan under 10 entries, 133,950 scan 100-999, and only 18,495
  /// scan 10-99 (2,254 scan more). The long scans are hub lists that
  /// rarely change between searches. A cutoff between the modes replays
  /// the hubs and leaves the short lists on the plain walk, which costs
  /// less than a summary lookup.
  static constexpr size_t ChainHubCutoff = 64;

  /// What a walk of a hub's successor list yields under one order test,
  /// for the list prefix [0, Scanned). A counted entry is a variable entry
  /// that does not resolve to the hub itself (one CycleSearchSteps each);
  /// Passing keeps the counted entries that pass the order test, as their
  /// resolved target and index among the counted entries. Replaying it
  /// visits the same targets in the same order and counts the same steps
  /// as the walk. Valid while Generation == ChainGeneration.
  struct ChainSummary {
    uint64_t Generation = 0;
    uint32_t Scanned = 0;
    uint32_t Counted = 0;
    struct Entry {
      VarId Target;
      uint32_t CountedIndex;
    };
    std::vector<Entry> Passing;
  };
  std::vector<ChainSummary> ChainSummaries;
  /// Indexed by hub * 2 + increasing: the index into ChainSummaries plus
  /// one, or 0 for none. Grown on demand to two slots per variable.
  std::vector<uint32_t> ChainSummaryOf;
  uint64_t ChainGeneration = 1;

  SparseBitVector SeenSources, SeenSinks;
  DenseU64Set RecordedSet, RecordedInitialSet;
  std::vector<std::pair<uint32_t, uint32_t>> RecordedVarVar;
  std::vector<std::pair<uint32_t, uint32_t>> RecordedInitialVarVar;
  std::vector<std::string> Inconsistencies;

  bool Finalized = false;
  /// Inductive-form least solutions per VarId: a representative's solution
  /// is LSBits[LSOwner[Rep]]. A representative with no source of its own
  /// whose variable predecessors all resolve to one owner P has the
  /// solution LS(P) (pointer equivalence), so it shares P's bitmap; every
  /// other variable owns its entry (unused entries stay empty). Standard
  /// form reads PredTerms directly instead.
  std::vector<SparseBitVector> LSBits;
  std::vector<VarId> LSOwner;

  SolverStats Stats;
};

} // namespace poce

#endif // POCE_SETCON_CONSTRAINTSOLVER_H
