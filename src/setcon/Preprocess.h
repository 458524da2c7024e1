//===- setcon/Preprocess.h - Offline HVN variable substitution -*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline pre-solve analysis of a pending constraint set
/// (SolverOptions::Preprocess == PreprocessMode::Offline): dry-resolve the
/// input constraints into the pre-closure inclusion graph, partition it
/// with Tarjan's SCC algorithm, then run an HVN-style pointer-equivalence
/// labeling over the components (Hardekopf & Lin, "Exploiting Pointer and
/// Location Equivalence to Optimize Pointer Analysis", SAS 2007, adapted to
/// the set-constraint language). Variables with equal labels provably have
/// equal least solutions under any closure schedule, so the solver can
/// merge them through its union-find before the first closure runs —
/// solutions stay bit-identical with the pass on or off, and partial online
/// elimination only has to catch cycles that form *during* closure.
///
/// Soundness of the labeling (why label equality implies equal least
/// solutions forever, not just over the initial graph): every variable that
/// occurs at any depth inside a constructed term is marked *indirect* and
/// its component receives a unique fresh label, because constructor
/// decomposition at closure time can attach new inflow only to such
/// variables. Direct components are value-numbered by their sorted set of
/// predecessor labels and source-term labels in topological order; an
/// empty set means a provably empty solution (label 0) and a singleton set
/// means the component is a pure copy of its one input. Closure-time
/// transitive edges add no new semantic flow, so two variables with equal
/// labels keep equal solutions through the entire solve.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SETCON_PREPROCESS_H
#define POCE_SETCON_PREPROCESS_H

#include "setcon/Term.h"

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace poce {

/// Result of the offline analysis: the equivalence classes to merge plus
/// the measurements the SolverStats counters report.
struct OfflineEquivalence {
  /// Merge directives (Var, Witness): unite Var into Witness. Witnesses
  /// are the order-minimal member of each class, matching the online
  /// collapse convention, and every listed Var is distinct from (and
  /// merges into) its class witness.
  std::vector<std::pair<VarId, VarId>> Merges;
  /// Variables collapsed by the SCC condensation alone: sum of
  /// (|SCC| - 1) over nontrivial components. These are true cycle
  /// variables — the offline share of the paper's "fraction of cycles
  /// caught" measure, directly comparable to the Oracle bound.
  uint64_t SCCCollapsedVars = 0;
  /// Variables merged by the HVN labeling beyond the SCC collapses
  /// (copy chains, shared-input equivalences, provably-empty variables).
  uint64_t HVNMergedVars = 0;
  /// Nontrivial (size >= 2) components of the pre-closure graph.
  uint64_t NontrivialSCCs = 0;
  /// Distinct pointer-equivalence labels over the components.
  uint64_t Labels = 0;
};

/// Analyzes \p Constraints (the pending L <= R pairs of a pristine solver
/// over \p NumVars variables) and returns the provably-sound variable
/// merges. \p OrderOf supplies the solver's order indices o(.) so class
/// witnesses follow the online lowest-order convention. Pure analysis: no
/// solver state is touched and \p Terms is only read.
OfflineEquivalence
offlinePreprocess(const TermTable &Terms,
                  const std::vector<std::pair<ExprId, ExprId>> &Constraints,
                  uint32_t NumVars,
                  const std::function<uint64_t(VarId)> &OrderOf);

} // namespace poce

#endif // POCE_SETCON_PREPROCESS_H
