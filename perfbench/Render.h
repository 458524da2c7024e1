//===- perfbench/Render.h - Constraint-file rendering of solves -*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the base constraints of a solver (ConstraintSolver::baseRoots)
/// as constraint-file text that ConstraintSystemFile parses back, so a
/// MiniC program's Andersen constraints can be served by scserved. Two
/// things keep the rendering parseable: every variable is named x<VarId>
/// (the Andersen generator reuses hint names such as `rd` and `ret`, which
/// the file format rejects as duplicates), and every constructor gets a
/// `cons` line carrying its variances with a name made of file-format word
/// characters (location names may contain `#`, the comment character).
///
//===----------------------------------------------------------------------===//

#ifndef POCE_PERFBENCH_RENDER_H
#define POCE_PERFBENCH_RENDER_H

#include "setcon/ConstraintSolver.h"

#include <string>
#include <vector>

namespace poce {
namespace perfbench {

/// A rendered constraint system.
struct RenderedSystem {
  /// The whole file: `cons` lines, `var` lines, then one line per base
  /// constraint in input order.
  std::string Text;
  /// The base constraint lines alone, in input order (edit candidates).
  std::vector<std::string> ConstraintLines;
};

/// The file-format name of variable \p Var.
std::string varName(VarId Var);

/// Renders every base constraint of \p Solver. Requires a solver built
/// without a witness oracle, so that VarId equals creation index.
RenderedSystem renderBaseSystem(const ConstraintSolver &Solver);

} // namespace perfbench
} // namespace poce

#endif // POCE_PERFBENCH_RENDER_H
