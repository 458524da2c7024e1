//===- setcon/SolverStats.h - Per-solve measurements ------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters gathered during one constraint solve. These are the quantities
/// the paper's Tables 2 and 3 report: edges in the final graph, total work
/// (edge additions including redundant ones), and the number of variables
/// eliminated by cycle detection, plus supporting detail used by the
/// analysis benches.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SETCON_SOLVERSTATS_H
#define POCE_SETCON_SOLVERSTATS_H

#include <array>
#include <cstdint>

namespace poce {

class MetricsRegistry;

/// Measurements of a single solve.
struct SolverStats {
  /// Variables ever created (including ones later collapsed away).
  uint64_t VarsCreated = 0;
  /// Fresh-variable requests answered by the oracle with an existing
  /// witness instead of a new variable.
  uint64_t OracleSubstitutions = 0;

  /// Edge additions performed directly by input constraints (successful
  /// only): the size of the initial graph.
  uint64_t InitialEdges = 0;
  /// Distinct constructed source terms inserted.
  uint64_t DistinctSources = 0;
  /// Distinct constructed sink terms inserted.
  uint64_t DistinctSinks = 0;

  /// Total edge additions, including redundant re-additions along
  /// alternate paths — the paper's "Work" column.
  uint64_t Work = 0;
  /// Additions that found the edge already present.
  uint64_t RedundantAdds = 0;
  /// Additions that degenerated to X <= X after representative lookup.
  uint64_t SelfEdges = 0;

  /// Variables eliminated by collapsing detected cycles.
  uint64_t VarsEliminated = 0;
  /// Number of collapse events (cycles found).
  uint64_t CyclesCollapsed = 0;
  /// Nodes visited across all online chain searches.
  uint64_t CycleSearchSteps = 0;
  /// Number of chain searches started.
  uint64_t CycleSearches = 0;
  /// Offline SCC passes run under CycleElim::Periodic.
  uint64_t PeriodicPasses = 0;

  /// Offline preprocessing (SolverOptions::Preprocess == Offline):
  /// variables collapsed by the pre-closure SCC condensation — the
  /// "cycle variables caught offline" measure, directly comparable to
  /// VarsEliminated (caught online) and the Oracle's eliminable bound.
  /// Variables merged by the HVN labeling beyond these are *not* counted
  /// here (they are equivalent, not necessarily cyclic); the total merge
  /// count is visible as the drop in live variables.
  uint64_t OfflineCollapsedVars = 0;
  /// Distinct HVN pointer-equivalence labels over the condensed
  /// components (0 = the pass never ran).
  uint64_t HVNLabels = 0;
  /// Nontrivial (size >= 2) SCCs found by the offline condensation.
  uint64_t OfflineSCCs = 0;

  /// Structurally mismatched constraints skipped (or collected).
  uint64_t Mismatches = 0;
  /// Constraints processed from the worklist.
  uint64_t ConstraintsProcessed = 0;

  /// 64-bit words visited by word-level set unions in the least-solution
  /// pass (the bitvector backend's cost measure; 0 for standard form,
  /// whose closed graph needs no union pass). Only solution owners union:
  /// a representative that shares one predecessor owner's solution adds
  /// nothing.
  uint64_t LSUnionWords = 0;
  /// Standard-form difference propagation: batched source-set deliveries
  /// pushed along successor edges (one per (flush, variable-successor)
  /// pair). 0 in inductive form or with SolverOptions::DiffProp off.
  uint64_t DeltaPropagations = 0;
  /// Batched deliveries whose word-level union added no new source — the
  /// redundant work the unionWith changed-flag prunes down to a merge
  /// instead of per-element hash probes.
  uint64_t PropagationsPruned = 0;

  /// Wave closure (SolverOptions::Closure == ClosureMode::Wave): number of
  /// topologically ordered propagation sweeps run to reach the fixpoint.
  /// 0 in worklist mode and whenever no source deltas were pending.
  uint64_t WavePasses = 0;
  /// Topological levels walked across all wave sweeps (a level revisited
  /// after a fallback counts again) — the wavefront depth measure.
  uint64_t LevelsPropagated = 0;
  /// Deliveries that landed at or before the sweep cursor — sources pushed
  /// against the cached topological order inside an SCC the order levels
  /// as one component. Each one forces an extra flush of an
  /// already-visited variable within the sweep. SF-Plain and SF-Periodic
  /// keep their cycles in the graph and pay these; under SF-Online the
  /// order build collapses every SCC first (WaveCollapsedVars), so every
  /// sweep runs on an acyclic order and this stays 0.
  uint64_t WaveFallbacks = 0;
  /// Variables collapsed by the wave-order build under CycleElim::Online:
  /// members of the non-trivial SCCs its Tarjan pass found, merged onto
  /// their lowest-ordered member. Kept apart from VarsEliminated and
  /// CyclesCollapsed, which stay the online chain search's figures (as
  /// OfflineCollapsedVars does for the offline pass). 0 on the worklist
  /// schedule and under every other elimination strategy.
  uint64_t WaveCollapsedVars = 0;

  /// Constraint retractions performed (ConstraintSolver::retract calls
  /// that found and removed a base root).
  uint64_t Retractions = 0;
  /// Variables reset and rebuilt by retraction cone recomputes (class
  /// members counted individually) — the locality measure retraction is
  /// judged by against a full re-solve.
  uint64_t ConeVarsRecomputed = 0;
  /// Collapsed-cycle classes dissolved back into singletons because a
  /// retraction removed an edge their witness cycle needed (offline
  /// HVN-merged classes always split: they have no online witness cycle).
  uint64_t CollapsesSplit = 0;

  /// Why an aborted solve stopped. None while Aborted is false.
  enum class AbortReason : uint8_t {
    None = 0,
    MaxWork,    ///< Cumulative SolverOptions::MaxWork bound.
    Deadline,   ///< SolverOptions::DeadlineMs wall-clock budget.
    EdgeBudget, ///< SolverOptions::MaxEdgeBudget per-batch bound.
    MemBudget,  ///< SolverOptions::MaxMemBytes resident-set bound.
    Injected,   ///< Forced by the `solver.budget` failpoint.
  };

  static const char *abortReasonName(AbortReason Reason) {
    switch (Reason) {
    case AbortReason::None:
      return "none";
    case AbortReason::MaxWork:
      return "max_work";
    case AbortReason::Deadline:
      return "deadline_ms";
    case AbortReason::EdgeBudget:
      return "edge_budget";
    case AbortReason::MemBudget:
      return "mem_budget";
    case AbortReason::Injected:
      return "injected";
    }
    return "none";
  }

  /// True if the solve hit a work/time/memory budget and stopped early.
  bool Aborted = false;
  /// Which budget stopped it.
  AbortReason Abort = AbortReason::None;

  /// Work minus redundant and self additions: distinct edges ever added.
  uint64_t distinctAdds() const { return Work - RedundantAdds - SelfEdges; }

  /// Accumulates \p RHS into this struct: every counter is summed and
  /// Aborted is ORed. This is both the batch-suite aggregation and the
  /// primitive the parallel least-solution pass uses to merge per-thread
  /// deltas — all counters are sums, so the merged totals are independent
  /// of how work was partitioned across threads.
  SolverStats &operator+=(const SolverStats &RHS) {
    VarsCreated += RHS.VarsCreated;
    OracleSubstitutions += RHS.OracleSubstitutions;
    InitialEdges += RHS.InitialEdges;
    DistinctSources += RHS.DistinctSources;
    DistinctSinks += RHS.DistinctSinks;
    Work += RHS.Work;
    RedundantAdds += RHS.RedundantAdds;
    SelfEdges += RHS.SelfEdges;
    VarsEliminated += RHS.VarsEliminated;
    CyclesCollapsed += RHS.CyclesCollapsed;
    CycleSearchSteps += RHS.CycleSearchSteps;
    CycleSearches += RHS.CycleSearches;
    PeriodicPasses += RHS.PeriodicPasses;
    OfflineCollapsedVars += RHS.OfflineCollapsedVars;
    HVNLabels += RHS.HVNLabels;
    OfflineSCCs += RHS.OfflineSCCs;
    Mismatches += RHS.Mismatches;
    ConstraintsProcessed += RHS.ConstraintsProcessed;
    LSUnionWords += RHS.LSUnionWords;
    DeltaPropagations += RHS.DeltaPropagations;
    PropagationsPruned += RHS.PropagationsPruned;
    WavePasses += RHS.WavePasses;
    LevelsPropagated += RHS.LevelsPropagated;
    WaveFallbacks += RHS.WaveFallbacks;
    WaveCollapsedVars += RHS.WaveCollapsedVars;
    Retractions += RHS.Retractions;
    ConeVarsRecomputed += RHS.ConeVarsRecomputed;
    CollapsesSplit += RHS.CollapsesSplit;
    Aborted = Aborted || RHS.Aborted;
    if (Abort == AbortReason::None)
      Abort = RHS.Abort;
    return *this;
  }

  /// One labeled measurement of the bitvector hot paths.
  struct NamedCounter {
    const char *Label; ///< Short label ("DeltaProps").
    const char *Key;   ///< snake_case key for JSON emitters.
    uint64_t Value;
  };

  /// The bitvector hot-path counters in a fixed order — the single source
  /// for the bench tables (fig7-fig9) and the micro_solver JSON, which
  /// previously each spelled this list out by hand.
  std::array<NamedCounter, 3> hotPathCounters() const {
    return {{{"DeltaProps", "delta_propagations", DeltaPropagations},
             {"Pruned", "propagations_pruned", PropagationsPruned},
             {"LSwords", "ls_union_words", LSUnionWords}}};
  }

  /// Every counter with its snake_case key — the single naming source for
  /// the metrics-registry export and any full JSON emitter.
  std::array<NamedCounter, 28> allCounters() const {
    return {{{"VarsCreated", "vars_created", VarsCreated},
             {"OracleSubs", "oracle_substitutions", OracleSubstitutions},
             {"InitialEdges", "initial_edges", InitialEdges},
             {"Sources", "distinct_sources", DistinctSources},
             {"Sinks", "distinct_sinks", DistinctSinks},
             {"Work", "work", Work},
             {"Redundant", "redundant_adds", RedundantAdds},
             {"SelfEdges", "self_edges", SelfEdges},
             {"VarsElim", "vars_eliminated", VarsEliminated},
             {"Cycles", "cycles_collapsed", CyclesCollapsed},
             {"SearchSteps", "cycle_search_steps", CycleSearchSteps},
             {"Searches", "cycle_searches", CycleSearches},
             {"Periodic", "periodic_passes", PeriodicPasses},
             {"OfflineVars", "offline_collapsed_vars", OfflineCollapsedVars},
             {"HVNLabels", "hvn_labels", HVNLabels},
             {"OfflineSCCs", "offline_sccs", OfflineSCCs},
             {"Mismatches", "mismatches", Mismatches},
             {"Processed", "constraints_processed", ConstraintsProcessed},
             {"LSwords", "ls_union_words", LSUnionWords},
             {"DeltaProps", "delta_propagations", DeltaPropagations},
             {"Pruned", "propagations_pruned", PropagationsPruned},
             {"WavePasses", "wave_passes", WavePasses},
             {"Levels", "levels_propagated", LevelsPropagated},
             {"Fallbacks", "wave_fallbacks", WaveFallbacks},
             {"WaveCollapsed", "wave_collapsed_vars", WaveCollapsedVars},
             {"Retractions", "retractions", Retractions},
             {"ConeVars", "cone_vars_recomputed", ConeVarsRecomputed},
             {"Splits", "collapses_split", CollapsesSplit}}};
  }

  /// Mirrors every counter into \p Registry as a gauge named
  /// `poce_solver_<key>` (observe-only: the registry is written at export
  /// time, never read back, so counters stay bit-identical to a build
  /// without metrics). Defined in ConstraintSolver.cpp.
  void exportTo(MetricsRegistry &Registry) const;
};

} // namespace poce

#endif // POCE_SETCON_SOLVERSTATS_H
