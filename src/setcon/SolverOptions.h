//===- setcon/SolverOptions.h - Solver configuration ------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of a ConstraintSolver: graph representation (standard or
/// inductive form), cycle-elimination strategy (none, partial online,
/// oracle), variable ordering, and policies. The six main configurations of
/// the paper's Table 4 are spelled SF-Plain, IF-Plain, SF-Oracle,
/// IF-Oracle, SF-Online, and IF-Online.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SETCON_SOLVEROPTIONS_H
#define POCE_SETCON_SOLVEROPTIONS_H

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>

namespace poce {

/// Graph representation of variable-variable constraints (Sections 2.3
/// and 2.4).
enum class GraphForm : uint8_t {
  /// Standard form: every X <= Y is a successor edge of X; the closed
  /// graph contains the least solution explicitly.
  Standard,
  /// Inductive form: X <= Y is a predecessor edge of Y when o(X) < o(Y)
  /// and a successor edge of X otherwise; the least solution is computed
  /// by a post-pass over predecessor chains.
  Inductive,
};

/// Cycle-elimination strategy (Section 2.5).
enum class CycleElim : uint8_t {
  /// No cycle elimination.
  None,
  /// Partial online detection: bounded chain search at every
  /// variable-variable edge insertion; found cycles collapse onto the
  /// lowest-ordered witness.
  Online,
  /// Perfect elimination: an Oracle predicts each fresh variable's final
  /// strongly connected component and substitutes the component witness at
  /// creation time, so graphs stay acyclic.
  Oracle,
  /// Periodic offline elimination, the strategy of prior work the paper
  /// argues against ([FA96, FF97, MW97]): every PeriodicInterval edge
  /// additions, compute all SCCs of the variable graph and collapse them.
  /// Effective, but the pass cost must be amortized by choosing a good
  /// frequency — the tuning problem online elimination removes.
  Periodic,
};

/// Direction restriction of the standard-form chain search. The paper's
/// default follows successor edges toward lower-ordered variables; it
/// reports that searching increasing chains detects more cycles (57%) at a
/// cost that outweighs the benefit. Exposed for the ablation bench.
enum class SFChainMode : uint8_t {
  Decreasing,
  Increasing,
  Both,
};

/// How variable order indices o(.) are assigned. The paper uses a random
/// order and reports it performs as well as or better than any other
/// order tried; the alternatives feed the order ablation.
enum class OrderKind : uint8_t {
  Random,
  Creation,
  ReverseCreation,
};

/// What to do with structurally mismatched constraints such as
/// c(...) <= d(...) or 1 <= c(...). Points-to analysis of C ignores them
/// (ill-typed flows); the solver can also collect them as errors.
enum class MismatchPolicy : uint8_t {
  Ignore,
  Collect,
};

/// How the closure fixpoint is scheduled.
enum class ClosureMode : uint8_t {
  /// Eager worklist at edge granularity: every addConstraint drains all
  /// consequences before returning (the paper's online discipline). Kept
  /// where that eagerness is the point: the paper benches and the tests
  /// that read per-add counters pin it, and scserved runs its adds on it,
  /// because a served standard-form add under Wave may pay a whole-graph
  /// order rebuild (on flex-2.4.7, p90 1.6 ms per add against ~45 us).
  Worklist,
  /// Deferred wave propagation: addConstraint only queues the constraint;
  /// closure runs when a solution or graph observer needs it. Structural
  /// consequences still drain through the same worklist discipline, but
  /// standard-form source deltas accumulate and flush in topological
  /// order over the condensed variable graph — one batched delivery per
  /// edge per wave instead of one per arrival. Solutions are identical to
  /// Worklist; so are the paper's counters on cycle-free closures (the
  /// multiset of (source, edge) delivery attempts is schedule-independent),
  /// while collapse interleaving can shift order-sensitive counters the
  /// same way DiffProp already does under SF-Online. See
  /// docs/INTERNALS.md, "Wave propagation and data layout".
  Wave,
};

/// Optional pre-solve preprocessing of the constraint system.
enum class PreprocessMode : uint8_t {
  /// No preprocessing: every constraint goes straight through the online
  /// closure discipline.
  None,
  /// Offline HVN variable substitution before the first closure: initial
  /// addConstraint calls are deferred; when the first solution query (or
  /// graph observer) forces ensureClosed(), the pre-closure variable
  /// graph is condensed with Tarjan's SCC algorithm and an HVN-style
  /// pointer-equivalence labeling merges provably-equivalent variables
  /// through the union-find, after which the deferred constraints replay
  /// through the unchanged online path. Solutions are bit-identical with
  /// the pass on or off for the bulk-loaded system; partial online
  /// elimination then only has to catch the cycles that *form during*
  /// closure.
  ///
  /// Contract: like CycleElim::Oracle, the pass assumes the deferred bulk
  /// load is the complete constraint system. SCC collapses stay exact
  /// however the system grows (mutual inclusion is permanent), but the
  /// HVN copy-chain and empty-class merges are justified only by the
  /// constraints visible at pass time. Constraints added after the first
  /// closure take the online path directly against the merged quotient
  /// (the pass runs at most once, on the initial bulk load); new flow
  /// into an HVN-merged class is shared by the whole class, so
  /// post-closure solutions are a sound over-approximation of the
  /// unmerged system — exact when the adds touch no HVN-merged variable.
  /// See docs/INTERNALS.md, "Offline preprocessing (HVN + Tarjan SCC)".
  Offline,
};

/// Full configuration of one solver instance.
struct SolverOptions {
  GraphForm Form = GraphForm::Inductive;
  CycleElim Elim = CycleElim::Online;
  SFChainMode SFChains = SFChainMode::Decreasing;
  OrderKind Order = OrderKind::Random;
  MismatchPolicy Mismatch = MismatchPolicy::Ignore;
  /// Seed for the random variable order.
  uint64_t Seed = 0x706f6365ULL;
  /// Abort the solve when total work exceeds this bound (0 = unlimited).
  uint64_t MaxWork = 0;
  /// Abort the in-flight batch when the closure loop has run longer than
  /// this many wall-clock milliseconds (0 = unlimited). The clock starts
  /// when the top-level worklist drain begins, so incremental serving can
  /// bound the latency of a single `add`. Checked every few worklist
  /// items, so the overshoot past the deadline is tiny compared to 2x.
  uint64_t DeadlineMs = 0;
  /// Abort the in-flight batch when it alone performs more than this many
  /// edge additions (0 = unlimited). Unlike MaxWork — a cumulative
  /// lifetime bound — this resets at every top-level drain, so a warm
  /// server can cap each request without counting the work that built the
  /// existing graph.
  uint64_t MaxEdgeBudget = 0;
  /// Abort the in-flight batch when the process resident set exceeds this
  /// many bytes (0 = unlimited; also inert on platforms without
  /// support::currentRSSBytes). Checked sparsely — every few thousand
  /// worklist items — because reading /proc costs a syscall.
  uint64_t MaxMemBytes = 0;
  /// Edge additions between offline passes under CycleElim::Periodic.
  uint64_t PeriodicInterval = 50000;
  /// When true, every variable-variable constraint is recorded (in
  /// creation-index space) for SCC ground truth and oracle construction.
  bool RecordVarVar = false;
  /// Standard form only: propagate sources with batched difference
  /// propagation (word-level delta flushes along successor edges) instead
  /// of one worklist item per (source, edge) pair. Least solutions are
  /// identical either way, and so are the paper's counters on cycle-free
  /// closures; with collapses the two schemes interleave edge re-adds
  /// differently, so order-sensitive counters (Work under SF-Online) can
  /// differ the same way they would under any worklist reordering. Turn
  /// off to reproduce the element-wise accounting exactly.
  bool DiffProp = true;
  /// Closure scheduling (see ClosureMode). Wave, the default, batches
  /// bulk closure into level-ordered delta sweeps (SF-Online on the
  /// paper's suite closes in about half the worklist time); Worklist
  /// preserves the fully online per-add behavior. Either way solutions
  /// are identical, but under Wave stats() only covers what has been
  /// closed: read counters after finalize() or ensureClosed().
  ClosureMode Closure = ClosureMode::Wave;
  /// Pre-solve preprocessing (see PreprocessMode). Orthogonal to the
  /// closure schedule: Offline shrinks the variable graph before the
  /// first closure, then either schedule closes the condensed system.
  PreprocessMode Preprocess = PreprocessMode::None;
  /// Execution lanes for the least-solution post-pass (0 = one per
  /// hardware thread). Purely a wall-clock knob: with any value the least
  /// solutions and every paper-defined counter are bit-identical — the
  /// online closure itself always runs single-threaded. The inductive-form
  /// recurrence runs as a level-by-level wavefront on this many lanes;
  /// values > 1 also materialize every solution view concurrently (see
  /// docs/INTERNALS.md, "Parallel execution layer").
  unsigned Threads = 1;

  /// Returns the paper's name for this configuration, e.g. "IF-Online".
  std::string configName() const {
    std::string Name = Form == GraphForm::Standard ? "SF" : "IF";
    switch (Elim) {
    case CycleElim::None:
      Name += "-Plain";
      break;
    case CycleElim::Online:
      Name += "-Online";
      break;
    case CycleElim::Oracle:
      Name += "-Oracle";
      break;
    case CycleElim::Periodic:
      Name += "-Periodic";
      break;
    }
    return Name;
  }
};

/// Parses a configuration name the way configName() prints it, in any
/// letter case ("IF-Online", or "if-online" on a command line), setting
/// \p Options' Form and Elim. Returns false, leaving \p Options
/// untouched, for any other name.
inline bool parseConfigName(const std::string &Name, SolverOptions &Options) {
  auto SameIgnoringCase = [](const std::string &A, const std::string &B) {
    return A.size() == B.size() &&
           std::equal(A.begin(), A.end(), B.begin(), [](char X, char Y) {
             return std::tolower(static_cast<unsigned char>(X)) ==
                    std::tolower(static_cast<unsigned char>(Y));
           });
  };
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive})
    for (CycleElim Elim : {CycleElim::None, CycleElim::Online,
                           CycleElim::Oracle, CycleElim::Periodic}) {
      SolverOptions Candidate = Options;
      Candidate.Form = Form;
      Candidate.Elim = Elim;
      if (SameIgnoringCase(Candidate.configName(), Name)) {
        Options = Candidate;
        return true;
      }
    }
  return false;
}

/// Parses a closure schedule name: "wave" or "worklist".
inline bool parseClosureName(const std::string &Name, ClosureMode &Mode) {
  if (Name == "wave")
    Mode = ClosureMode::Wave;
  else if (Name == "worklist")
    Mode = ClosureMode::Worklist;
  else
    return false;
  return true;
}

/// Parses a preprocess mode name: "none" or "offline".
inline bool parsePreprocessName(const std::string &Name,
                                PreprocessMode &Mode) {
  if (Name == "none")
    Mode = PreprocessMode::None;
  else if (Name == "offline")
    Mode = PreprocessMode::Offline;
  else
    return false;
  return true;
}

/// The six experiment configurations of the paper's Table 4, in its order.
inline SolverOptions makeConfig(GraphForm Form, CycleElim Elim,
                                uint64_t Seed = 0x706f6365ULL) {
  SolverOptions Options;
  Options.Form = Form;
  Options.Elim = Elim;
  Options.Seed = Seed;
  return Options;
}

} // namespace poce

#endif // POCE_SETCON_SOLVEROPTIONS_H
