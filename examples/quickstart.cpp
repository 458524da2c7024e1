//===- examples/quickstart.cpp - Set-constraint solver in five minutes -----===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart for the core library: declare constructors, create set
/// variables, add inclusion constraints, and read least solutions — first
/// in standard form, then in inductive form with online cycle elimination.
///
/// Build & run:  ./build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "setcon/ConstraintSolver.h"

#include <cstdio>

using namespace poce;

int main() {
  //===------------------------------------------------------------------===//
  // 1. A constructor table defines the term language. Constructors have
  //    per-argument variance; here a covariant pairing constructor and two
  //    nullary constants.
  //===------------------------------------------------------------------===//
  ConstructorTable Constructors;
  ConsId Pair = Constructors.getOrCreate(
      "pair", {Variance::Covariant, Variance::Covariant});
  ConsId A = Constructors.getOrCreate("a", {});
  ConsId B = Constructors.getOrCreate("b", {});

  //===------------------------------------------------------------------===//
  // 2. Terms are hash-consed in a TermTable; a solver processes
  //    constraints online against it.
  //===------------------------------------------------------------------===//
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms,
                          makeConfig(GraphForm::Standard, CycleElim::None));

  VarId X = Solver.freshVar("X");
  VarId Y = Solver.freshVar("Y");
  VarId Z = Solver.freshVar("Z");

  ExprId TermA = Terms.cons(A, {});
  ExprId TermB = Terms.cons(B, {});

  // a <= X,  pair(X, b) <= Y is not atomic — but X <= Y and Y <= Z are:
  Solver.addConstraint(TermA, Terms.var(X));
  Solver.addConstraint(Terms.var(X), Terms.var(Y));
  Solver.addConstraint(Terms.var(Y), Terms.var(Z));
  Solver.addConstraint(TermB, Terms.var(Y));

  // Structural constraints decompose by variance:
  // pair(X, X) <= pair(Z, Z) adds X <= Z (twice; once redundantly).
  Solver.addConstraint(Terms.cons(Pair, {Terms.var(X), Terms.var(X)}),
                       Terms.cons(Pair, {Terms.var(Z), Terms.var(Z)}));

  std::printf("least solution of Z:");
  for (ExprId Source : Solver.leastSolution(Z))
    std::printf(" %s", Solver.exprStr(Source).c_str());
  std::printf("\n");

  //===------------------------------------------------------------------===//
  // 3. Cyclic constraints force all variables on the cycle to be equal.
  //    With inductive form + online elimination on the eager worklist
  //    schedule the cycle is collapsed the moment it appears. (The default
  //    wave schedule defers closure until a query and computes the same
  //    solutions.)
  //===------------------------------------------------------------------===//
  TermTable Terms2(Constructors);
  SolverOptions Eager = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Eager.Closure = ClosureMode::Worklist;
  ConstraintSolver Online(Terms2, Eager);
  VarId P = Online.freshVar("P");
  VarId Q = Online.freshVar("Q");
  VarId R = Online.freshVar("R");
  Online.addConstraint(Terms2.cons(A, {}), Terms2.var(P));
  Online.addConstraint(Terms2.var(P), Terms2.var(Q));
  Online.addConstraint(Terms2.var(Q), Terms2.var(R));
  Online.addConstraint(Terms2.var(R), Terms2.var(P)); // Closes the cycle.

  const SolverStats &Stats = Online.stats();
  std::printf("cycle demo: %llu of 2 collapsible variables eliminated in "
              "%llu collapse(s), %llu edge additions\n",
              (unsigned long long)Stats.VarsEliminated,
              (unsigned long long)Stats.CyclesCollapsed,
              (unsigned long long)Stats.Work);
  std::printf("(detection is *partial*: inductive form guarantees at least "
              "a two-cycle of every SCC is found;\n the rest is caught as "
              "later constraints arrive — solutions are identical either "
              "way)\n");
  std::printf("least solutions are equal: %s\n",
              Online.leastSolution(P) == Online.leastSolution(Q) &&
                      Online.leastSolution(Q) == Online.leastSolution(R)
                  ? "yes"
                  : "no");
  std::printf("least solution of R:");
  for (ExprId Source : Online.leastSolution(R))
    std::printf(" %s", Online.exprStr(Source).c_str());
  std::printf("\n");
  return 0;
}
