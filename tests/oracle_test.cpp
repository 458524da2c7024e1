//===- tests/oracle_test.cpp - Oracle construction unit tests --------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "graph/TarjanSCC.h"
#include "setcon/ConstraintSolver.h"
#include "setcon/Oracle.h"
#include "workload/RandomConstraints.h"

#include <gtest/gtest.h>

using namespace poce;

namespace {

/// A deterministic generator building a fixed cyclic system:
///   s <= A,  A <= B <= C <= A (3-cycle),  C <= D.
void fixedCyclicSystem(ConstraintSolver &Solver) {
  TermTable &Terms = Solver.terms();
  VarId A = Solver.freshVar("A");
  VarId B = Solver.freshVar("B");
  VarId C = Solver.freshVar("C");
  VarId D = Solver.freshVar("D");
  ExprId S = Terms.cons(Terms.mutableConstructors().getOrCreate("s", {}), {});
  Solver.addConstraint(S, Terms.var(A));
  Solver.addConstraint(Terms.var(A), Terms.var(B));
  Solver.addConstraint(Terms.var(B), Terms.var(C));
  Solver.addConstraint(Terms.var(C), Terms.var(A));
  Solver.addConstraint(Terms.var(C), Terms.var(D));
}

} // namespace

TEST(OracleTest, FixedSystemClassesAndWitnesses) {
  ConstructorTable Constructors;
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Oracle O = buildOracle(fixedCyclicSystem, Constructors, Options);
  // Creation indices: A=0, B=1, C=2, D=3; {A,B,C} is one class.
  EXPECT_EQ(O.witness(0), 0u);
  EXPECT_EQ(O.witness(1), 0u);
  EXPECT_EQ(O.witness(2), 0u);
  EXPECT_EQ(O.witness(3), 3u);
  EXPECT_EQ(O.numNontrivialClasses(), 1u);
  EXPECT_EQ(O.varsInNontrivialClasses(), 3u);
  EXPECT_EQ(O.maxClassSize(), 3u);
  EXPECT_EQ(O.eliminableVars(), 2u);
}

TEST(OracleTest, WitnessIsIdentityBeyondKnownCreations) {
  ConstructorTable Constructors;
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Oracle O = buildOracle(fixedCyclicSystem, Constructors, Options);
  EXPECT_EQ(O.witness(1000), 1000u);
}

TEST(OracleTest, OracleRunCollapsesNothingAndSubstitutes) {
  ConstructorTable Constructors;
  SolverOptions Base = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Oracle O = buildOracle(fixedCyclicSystem, Constructors, Base);

  SolverOptions OracleOptions =
      makeConfig(GraphForm::Inductive, CycleElim::Oracle);
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, OracleOptions, &O);
  fixedCyclicSystem(Solver);
  Solver.finalize();
  EXPECT_EQ(Solver.stats().VarsEliminated, 0u);
  EXPECT_EQ(Solver.stats().OracleSubstitutions, 2u); // B and C.
  EXPECT_EQ(Solver.stats().VarsCreated, 2u);         // A (witness) and D.
  EXPECT_EQ(computeSCCs(Solver.varGraph()).numNontrivialSCCs(), 0u);
}

class OracleRandomTest : public testing::TestWithParam<uint64_t> {};

TEST_P(OracleRandomTest, OracleGraphsAreAcyclic) {
  PRNG Rng(GetParam());
  RandomConstraintShape Shape =
      randomConstraintShape(60, 40, 2.0 / 60.0, Rng);
  ConstructorTable Constructors;
  SolverOptions Base =
      makeConfig(GraphForm::Inductive, CycleElim::Online, GetParam());
  Oracle O =
      buildOracle(workload::makeRandomGenerator(Shape), Constructors, Base);

  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
    SolverOptions Options = makeConfig(Form, CycleElim::Oracle, GetParam());
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms, Options, &O);
    workload::emitRandomConstraints(Shape, Solver);
    Solver.finalize();
    EXPECT_EQ(Solver.stats().VarsEliminated, 0u);
    EXPECT_EQ(computeSCCs(Solver.varGraph()).numNontrivialSCCs(), 0u)
        << "form " << (Form == GraphForm::Standard ? "SF" : "IF");
  }
}

TEST_P(OracleRandomTest, OnlineEliminationIsBoundedByOracleGroundTruth) {
  PRNG Rng(GetParam() * 91);
  RandomConstraintShape Shape =
      randomConstraintShape(80, 50, 2.0 / 80.0, Rng);
  ConstructorTable Constructors;
  SolverOptions Base =
      makeConfig(GraphForm::Inductive, CycleElim::Online, GetParam());
  Oracle O =
      buildOracle(workload::makeRandomGenerator(Shape), Constructors, Base);

  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
    SolverOptions Options = makeConfig(Form, CycleElim::Online, GetParam());
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms, Options);
    workload::emitRandomConstraints(Shape, Solver);
    Solver.finalize();
    // A partial eliminator can never remove more variables than a perfect
    // one.
    EXPECT_LE(Solver.stats().VarsEliminated, O.eliminableVars());
    // Collapsed groups must be subsets of true equality classes.
    for (uint32_t Var = 0; Var != Solver.numVars(); ++Var) {
      VarId Rep = Solver.rep(Var);
      if (Rep == Var)
        continue;
      EXPECT_EQ(O.witness(Solver.creationIndexOf(Var)),
                O.witness(Solver.creationIndexOf(Rep)))
          << "collapse merged variables outside a true SCC";
    }
  }
}

TEST_P(OracleRandomTest, OracleClassesMatchTarjanOnRecordedRelation) {
  PRNG Rng(GetParam() * 3 + 1);
  RandomConstraintShape Shape =
      randomConstraintShape(50, 30, 2.5 / 50.0, Rng);
  ConstructorTable Constructors;
  SolverOptions Base =
      makeConfig(GraphForm::Inductive, CycleElim::Online, GetParam());
  Oracle O =
      buildOracle(workload::makeRandomGenerator(Shape), Constructors, Base);

  // Independent ground truth: SCCs of the *initial* variable-variable
  // relation must be refinements of the oracle's classes (closure only
  // adds constraints).
  FlatSCCs SCCs = computeSCCs(rowsFromEdges(Shape.NumVars, Shape.VarVar));
  for (uint32_t Comp = 0; Comp != SCCs.numComponents(); ++Comp) {
    std::span<const uint32_t> Component = SCCs.component(Comp);
    for (size_t I = 1; I < Component.size(); ++I)
      EXPECT_EQ(O.witness(Component[I]), O.witness(Component[0]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleRandomTest,
                         testing::Range<uint64_t>(1, 13));
