//===- tests/bitvector_solver_test.cpp - Bitvector LS equivalence ----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks that the bitvector-backed least solutions and standard-form
/// difference propagation compute exactly what the seed's vector-backed
/// algorithms computed: every configuration is cross-checked against
/// ConstraintSolver::referenceLeastSolutions() (the pre-bitvector
/// concat+sort+unique pass, retained as an oracle) on random constraint
/// systems, difference propagation is compared against the element-wise
/// path, and the inductive-form order invariant the least-solution pass
/// relies on is verified as a real test instead of only an assert.
///
//===----------------------------------------------------------------------===//

#include "setcon/ConstraintSolver.h"
#include "support/PRNG.h"
#include "workload/RandomConstraints.h"

#include <gtest/gtest.h>

using namespace poce;

namespace {

struct Case {
  uint64_t Seed;
  uint32_t NumVars;
  uint32_t NumCons;
  double Density;
};

/// Names a case by its fields; gtest would otherwise print the struct's
/// raw bytes, padding included, which differ from build to build.
void PrintTo(const Case &C, std::ostream *OS) {
  *OS << "vars=" << C.NumVars << " cons=" << C.NumCons
      << " density=" << C.Density << " seed=" << C.Seed;
}

const Case Shapes[] = {
    {21, 12, 8, 1.0},  {22, 40, 26, 1.5}, {23, 40, 26, 3.0},
    {24, 80, 50, 1.0}, {25, 120, 80, 2.0}, {26, 200, 130, 1.2},
    {27, 60, 0, 2.5},  {28, 150, 100, 0.6},
};

std::vector<SolverOptions> variants(uint64_t Seed) {
  std::vector<SolverOptions> Out;
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive})
    for (CycleElim Elim : {CycleElim::None, CycleElim::Online})
      for (bool Diff : {true, false}) {
        SolverOptions Options = makeConfig(Form, Elim, Seed);
        Options.DiffProp = Diff;
        Out.push_back(Options);
      }
  return Out;
}

/// Runs one solve over \p Shape and asserts the bitvector-backed API
/// agrees with the reference algorithm on every variable.
void checkAgainstReference(const RandomConstraintShape &Shape,
                           const SolverOptions &Options) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, Options);
  workload::emitRandomConstraints(Shape, Solver);

  std::vector<std::vector<ExprId>> Reference =
      Solver.referenceLeastSolutions();
  Solver.finalize();
  for (VarId Var = 0; Var != Solver.numVars(); ++Var) {
    VarId Rep = Solver.rep(Var);
    std::vector<ExprId> LS = Solver.leastSolution(Var).toVector<ExprId>();
    ASSERT_EQ(LS, Reference[Rep])
        << Options.configName() << (Options.DiffProp ? "+diff" : "-diff")
        << " var " << Var;
    EXPECT_EQ(Solver.leastSolution(Var).count(), LS.size());
  }
  EXPECT_TRUE(Solver.verifyGraphInvariants()) << Options.configName();
}

} // namespace

class BitvectorLSTest : public testing::TestWithParam<Case> {};

TEST_P(BitvectorLSTest, MatchesReferenceAcrossConfigs) {
  const Case &C = GetParam();
  PRNG Rng(C.Seed);
  RandomConstraintShape Shape =
      randomConstraintShape(C.NumVars, C.NumCons, C.Density / C.NumVars, Rng);
  for (const SolverOptions &Options : variants(C.Seed))
    checkAgainstReference(Shape, Options);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BitvectorLSTest, testing::ValuesIn(Shapes),
                         [](const auto &Info) {
                           return "seed" + std::to_string(Info.param.Seed) +
                                  "_n" +
                                  std::to_string(Info.param.NumVars);
                         });

//===----------------------------------------------------------------------===//
// Difference propagation vs. element-wise propagation
//===----------------------------------------------------------------------===//

TEST(DiffPropTest, MatchesElementwiseCountersWithoutCollapses) {
  // Absent collapses, standard-form closure work is confluent: the batched
  // scheme must reproduce the element-wise counters bit for bit, not just
  // the solutions.
  for (const Case &C : Shapes) {
    PRNG Rng(C.Seed * 31);
    RandomConstraintShape Shape = randomConstraintShape(
        C.NumVars, C.NumCons, C.Density / C.NumVars, Rng);
    SolverStats Counters[2];
    for (bool Diff : {false, true}) {
      ConstructorTable Constructors;
      TermTable Terms(Constructors);
      SolverOptions Options =
          makeConfig(GraphForm::Standard, CycleElim::None, C.Seed);
      Options.DiffProp = Diff;
      Options.Closure = ClosureMode::Worklist;
      ConstraintSolver Solver(Terms, Options);
      workload::emitRandomConstraints(Shape, Solver);
      Solver.finalize();
      Counters[Diff] = Solver.stats();
    }
    EXPECT_EQ(Counters[0].Work, Counters[1].Work) << C.Seed;
    EXPECT_EQ(Counters[0].RedundantAdds, Counters[1].RedundantAdds) << C.Seed;
    EXPECT_EQ(Counters[0].InitialEdges, Counters[1].InitialEdges) << C.Seed;
    EXPECT_EQ(Counters[0].SelfEdges, Counters[1].SelfEdges) << C.Seed;
    EXPECT_EQ(Counters[0].DistinctSources, Counters[1].DistinctSources)
        << C.Seed;
    // Only the batched run reports delta-propagation activity.
    EXPECT_EQ(Counters[0].DeltaPropagations, 0u);
  }
}

TEST(DiffPropTest, PruningIsObservable) {
  // A diamond re-delivers the same source along parallel paths: the
  // redundant deliveries must show up as pruned propagations.
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  SolverOptions Options = makeConfig(GraphForm::Standard, CycleElim::None);
  ConstraintSolver Solver(Terms, Options);
  ExprId S = Terms.cons(Constructors.getOrCreate("s", {}), {});
  VarId A = Solver.freshVar("a");
  VarId B = Solver.freshVar("b");
  VarId C = Solver.freshVar("c");
  VarId D = Solver.freshVar("d");
  for (auto [X, Y] : {std::pair{A, B}, {A, C}, {B, D}, {C, D}})
    Solver.addConstraint(Terms.var(X), Terms.var(Y));
  Solver.addConstraint(S, Terms.var(A));
  Solver.finalize();
  EXPECT_GT(Solver.stats().DeltaPropagations, 0u);
  EXPECT_GT(Solver.stats().PropagationsPruned, 0u);
  EXPECT_EQ(Solver.stats().RedundantAdds, 1u); // Second arrival at D.
  EXPECT_EQ(Solver.leastSolution(D).count(), 1u);
}

//===----------------------------------------------------------------------===//
// Inductive-form order invariant (previously guarded only by an assert)
//===----------------------------------------------------------------------===//

TEST(GraphInvariantTest, InductiveOrderHoldsOnCollapseHeavyGraphs) {
  // Dense cyclic systems exercise collapses, stale entries, and re-added
  // edges — the cases where a broken representation would leave a
  // predecessor with a larger order than its owner.
  for (uint64_t Seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    PRNG Rng(Seed);
    RandomConstraintShape Shape =
        randomConstraintShape(100, 60, 4.0 / 100, Rng);
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConstraintSolver Solver(
        Terms, makeConfig(GraphForm::Inductive, CycleElim::Online, Seed));
    workload::emitRandomConstraints(Shape, Solver);
    EXPECT_TRUE(Solver.verifyGraphInvariants()) << Seed;
    EXPECT_GT(Solver.stats().CyclesCollapsed, 0u) << Seed;
    // The invariant also survives compaction.
    Solver.compact();
    EXPECT_TRUE(Solver.verifyGraphInvariants()) << Seed;
  }
}

TEST(GraphInvariantTest, StandardFormPredsHoldSourcesOnly) {
  for (bool Diff : {true, false}) {
    PRNG Rng(7);
    RandomConstraintShape Shape = randomConstraintShape(80, 50, 2.0 / 80, Rng);
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    SolverOptions Options =
        makeConfig(GraphForm::Standard, CycleElim::Online, 7);
    Options.DiffProp = Diff;
    ConstraintSolver Solver(Terms, Options);
    workload::emitRandomConstraints(Shape, Solver);
    EXPECT_TRUE(Solver.verifyGraphInvariants());
  }
}

//===----------------------------------------------------------------------===//
// Least-solution invalidation
//===----------------------------------------------------------------------===//

TEST(LazyViewTest, ViewIsCachedAndInvalidated) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, makeConfig(GraphForm::Inductive,
                                            CycleElim::Online));
  ExprId S1 = Terms.cons(Constructors.getOrCreate("s1", {}), {});
  ExprId S2 = Terms.cons(Constructors.getOrCreate("s2", {}), {});
  VarId X = Solver.freshVar("x");
  Solver.addConstraint(S1, Terms.var(X));

  EXPECT_EQ(Solver.leastSolution(X).count(), 1u);

  // A new constraint invalidates and the next query sees the new source.
  Solver.addConstraint(S2, Terms.var(X));
  EXPECT_EQ(Solver.leastSolution(X).count(), 2u);
}

//===----------------------------------------------------------------------===//
// Shared least solutions
//===----------------------------------------------------------------------===//

namespace {

/// A hand-built inductive-form system over variables v0..vN-1, created in
/// order under OrderKind::Creation, so o(vI) = I.
struct SharingCase {
  uint32_t NumVars;
  /// Each (S, V) adds the source sS <= vV, in order.
  std::vector<std::pair<uint32_t, uint32_t>> Sources;
  /// Each (X, Y) adds vX <= vY, in order, after the sources.
  std::vector<std::pair<uint32_t, uint32_t>> Copies;
  /// Pairs whose solutions must be one bitmap object.
  std::vector<std::pair<uint32_t, uint32_t>> Shared;
  /// Pairs whose solutions must be two bitmap objects.
  std::vector<std::pair<uint32_t, uint32_t>> Apart;
};

/// Solves \p Case at 1, 2 and 8 lanes. At each lane count every variable's
/// solution must equal referenceLeastSolutions(), and Shared and Apart
/// must hold; LSUnionWords must be the same at every lane count. Returns
/// that LSUnionWords.
uint64_t checkSharing(const SharingCase &Case, const char *What) {
  uint64_t UnionWords = 0;
  for (unsigned Lanes : {1U, 2U, 8U}) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    SolverOptions Options = makeConfig(GraphForm::Inductive,
                                       CycleElim::Online);
    Options.Order = OrderKind::Creation;
    Options.Threads = Lanes;
    ConstraintSolver Solver(Terms, Options);
    std::vector<VarId> V;
    for (uint32_t I = 0; I != Case.NumVars; ++I)
      V.push_back(Solver.freshVar("v" + std::to_string(I)));
    for (auto [S, Var] : Case.Sources) {
      ConsId Source =
          Constructors.getOrCreate("s" + std::to_string(S), {});
      Solver.addConstraint(Terms.cons(Source, {}), Terms.var(V[Var]));
    }
    for (auto [X, Y] : Case.Copies)
      Solver.addConstraint(Terms.var(V[X]), Terms.var(V[Y]));

    std::vector<std::vector<ExprId>> Reference =
        Solver.referenceLeastSolutions();
    Solver.finalize();
    for (VarId Var : V) {
      EXPECT_EQ(Solver.leastSolution(Var).toVector<ExprId>(),
                Reference[Solver.rep(Var)])
          << What << " at " << Lanes << " lanes, v" << Var;
    }
    for (auto [A, B] : Case.Shared) {
      EXPECT_EQ(&Solver.leastSolution(V[A]), &Solver.leastSolution(V[B]))
          << What << " at " << Lanes << " lanes: v" << A << " and v" << B
          << " should share one bitmap";
    }
    for (auto [A, B] : Case.Apart) {
      EXPECT_NE(&Solver.leastSolution(V[A]), &Solver.leastSolution(V[B]))
          << What << " at " << Lanes << " lanes: v" << A << " and v" << B
          << " should have a bitmap each";
    }
    if (Lanes == 1)
      UnionWords = Solver.stats().LSUnionWords;
    EXPECT_EQ(Solver.stats().LSUnionWords, UnionWords)
        << What << " at " << Lanes << " lanes";
  }
  return UnionWords;
}

} // namespace

TEST(SharedSolutionTest, CopyChainSharesTheSourceHoldersBitmap) {
  // v0 <= v1 <= v2 with a source only at v0: v1 takes v0's solution, and
  // v2, whose one predecessor v1 shares it, takes it too. Nothing unions.
  SharingCase Case{3, {{0, 0}}, {{0, 1}, {1, 2}}, {{1, 0}, {2, 0}}, {}};
  EXPECT_EQ(checkSharing(Case, "copy chain"), 0u);
}

TEST(SharedSolutionTest, TwoPredecessorsWithOneOwnerShare) {
  // v3 has two predecessors, v1 and v2, which both share v0's solution.
  SharingCase Case{4,
                   {{0, 0}},
                   {{0, 1}, {0, 2}, {1, 3}, {2, 3}},
                   {{1, 0}, {2, 0}, {3, 0}},
                   {}};
  EXPECT_EQ(checkSharing(Case, "two predecessors"), 0u);
}

TEST(SharedSolutionTest, OwnSourceKeepsOwnBitmap) {
  // v1 has one predecessor, but a source of its own as well: its solution
  // is a strict superset of v0's, so it owns a bitmap and unions v0's.
  // v2 copies v1 and shares v1's bitmap.
  SharingCase Case{3,
                   {{0, 0}, {1, 1}},
                   {{0, 1}, {1, 2}},
                   {{2, 1}},
                   {{1, 0}, {2, 0}}};
  EXPECT_GT(checkSharing(Case, "own source"), 0u);
}

TEST(SharedSolutionTest, TwoOwnersKeepOwnBitmap) {
  // v2's predecessors v0 and v1 own different solutions: v2 unions both.
  SharingCase Case{3,
                   {{0, 0}, {1, 1}},
                   {{0, 2}, {1, 2}},
                   {},
                   {{2, 0}, {2, 1}}};
  EXPECT_GT(checkSharing(Case, "two owners"), 0u);
}

TEST(SharedSolutionTest, EntriesNamingCollapsedMembersResolveToTheirClass) {
  // v2 <= v3 and v1 <= v3 are added while v1 and v2 are distinct; then
  // v2 <= v1 closes v1 <= v2 <= v1 and collapses v2 onto v1 (the lower
  // order index). v3's two predecessor entries now both resolve to v1,
  // which shares v0's solution, so v3 shares it too. Inductive form never
  // leaves an entry resolving to its own holder: every entry names a
  // lower-ordered variable and a class's representative is its
  // lowest-ordered member.
  SharingCase Case{4,
                   {{0, 0}},
                   {{0, 1}, {1, 2}, {2, 3}, {1, 3}, {2, 1}},
                   {{1, 0}, {2, 0}, {3, 0}},
                   {}};
  EXPECT_EQ(checkSharing(Case, "after a collapse"), 0u);
}
