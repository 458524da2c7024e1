//===- tests/retract_test.cpp - Constraint retraction ----------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
//
// The retraction correctness oracle: after any sequence of adds and
// retracts, the solver's rendered least solutions must be identical to a
// fresh solve of the surviving input lines — across graph form, cycle
// elimination, closure schedule, and preprocessing combos. Solutions are
// compared as rendered text because the incremental solver's TermTable
// still interns terms of retracted lines, so raw ExprIds differ from a
// fresh solver's.
//
//===----------------------------------------------------------------------===//

#include "setcon/ConstraintFile.h"
#include "setcon/ConstraintSolver.h"
#include "support/PRNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace poce;

namespace {

/// One solver + system pair fed from textual lines (the tagged path the
/// serve layer uses, so retraction by line text works).
struct FileHarness {
  ConstructorTable Constructors;
  TermTable Terms;
  ConstraintSolver Solver;
  ConstraintSystemFile System;

  explicit FileHarness(SolverOptions Options)
      : Terms(Constructors), Solver(Terms, Options) {}

  void add(const std::string &Line) {
    Status St = System.addLine(Line, Solver);
    ASSERT_TRUE(St.ok()) << "line '" << Line << "': " << St.toString();
  }

  bool retract(const std::string &Line) {
    std::string Canon;
    Status St = System.canonicalizeConstraint(Line, Solver, Canon);
    EXPECT_TRUE(St.ok()) << St.toString();
    return Solver.retract(Canon);
  }

  /// Rendered least solution of every declared variable, each sorted by
  /// text (ExprId spaces differ between incremental and fresh solvers).
  std::vector<std::vector<std::string>> solutions() {
    std::vector<std::vector<std::string>> Out;
    for (uint32_t I = 0; I != Solver.numCreations(); ++I) {
      VarId Var = Solver.varOfCreation(I);
      std::vector<std::string> Rendered;
      for (ExprId Term : Solver.leastSolution(Var))
        Rendered.push_back(Solver.exprStr(Term));
      std::sort(Rendered.begin(), Rendered.end());
      Out.push_back(std::move(Rendered));
    }
    return Out;
  }
};

std::vector<std::vector<std::string>>
freshSolutions(SolverOptions Options, const std::vector<std::string> &Decls,
               const std::vector<std::string> &Lines) {
  FileHarness Fresh(Options);
  for (const std::string &Line : Decls)
    Fresh.add(Line);
  for (const std::string &Line : Lines)
    Fresh.add(Line);
  return Fresh.solutions();
}

/// The configuration sweep the oracle runs over: SF/IF x None/Online x
/// Worklist/Wave x None/Offline preprocessing.
std::vector<SolverOptions> sweepConfigs(uint64_t Seed) {
  std::vector<SolverOptions> Configs;
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive})
    for (CycleElim Elim : {CycleElim::None, CycleElim::Online})
      for (ClosureMode Closure : {ClosureMode::Worklist, ClosureMode::Wave})
        for (PreprocessMode Pre :
             {PreprocessMode::None, PreprocessMode::Offline}) {
          SolverOptions Options = makeConfig(Form, Elim, Seed);
          Options.Closure = Closure;
          Options.Preprocess = Pre;
          Configs.push_back(Options);
        }
  return Configs;
}

} // namespace

//===----------------------------------------------------------------------===//
// Basic semantics
//===----------------------------------------------------------------------===//

TEST(RetractTest, ChainRetractionDropsDownstreamSources) {
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
    FileHarness H(makeConfig(Form, CycleElim::Online));
    H.add("var a b c d");
    H.add("cons s");
    H.add("s <= a");
    H.add("a <= b");
    H.add("b <= c");
    H.add("c <= d");
    EXPECT_EQ(H.solutions(),
              (std::vector<std::vector<std::string>>{
                  {"s"}, {"s"}, {"s"}, {"s"}}));

    ASSERT_TRUE(H.retract("b <= c"));
    EXPECT_EQ(H.solutions(),
              (std::vector<std::vector<std::string>>{
                  {"s"}, {"s"}, {}, {}}));
    EXPECT_TRUE(H.Solver.verifyGraphInvariants());

    // Re-adding the line restores the original solutions.
    H.add("b <= c");
    EXPECT_EQ(H.solutions(),
              (std::vector<std::vector<std::string>>{
                  {"s"}, {"s"}, {"s"}, {"s"}}));
  }
}

TEST(RetractTest, UnknownTagIsRejected) {
  FileHarness H(makeConfig(GraphForm::Inductive, CycleElim::Online));
  H.add("var a b");
  H.add("a <= b");
  EXPECT_FALSE(H.Solver.retract("b <= a"));
  EXPECT_TRUE(H.Solver.hasRootTag("a <= b"));
  EXPECT_FALSE(H.Solver.hasRootTag("b <= a"));
  EXPECT_EQ(H.Solver.stats().Retractions, 0u);
}

TEST(RetractTest, DuplicateLineRetractsOneInstance) {
  FileHarness H(makeConfig(GraphForm::Standard, CycleElim::Online));
  H.add("var a b");
  H.add("cons s");
  H.add("s <= a");
  H.add("a <= b");
  H.add("a <= b"); // Duplicate: one retraction must leave the edge alive.
  ASSERT_TRUE(H.retract("a <= b"));
  EXPECT_EQ(H.solutions(),
            (std::vector<std::vector<std::string>>{{"s"}, {"s"}}));
  ASSERT_TRUE(H.retract("a <= b"));
  EXPECT_EQ(H.solutions(),
            (std::vector<std::vector<std::string>>{{"s"}, {}}));
  EXPECT_FALSE(H.retract("a <= b"));
}

TEST(RetractTest, ConstructedTermRetraction) {
  // Retracting a source term feeding a decomposition must unwind the
  // derived edges the decomposition produced.
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
    FileHarness H(makeConfig(Form, CycleElim::Online));
    H.add("var p x y");
    H.add("cons s");
    H.add("cons ref + -");
    H.add("s <= x");
    H.add("ref(x, y) <= p");
    H.add("p <= ref(1, y)");  // Write through p: x's contents reach y...
    H.add("p <= ref(y, 0)");  // ...and read back out of p into y.
    auto Before = H.solutions();
    ASSERT_EQ(Before[2], std::vector<std::string>{"s"}); // y saw s.

    ASSERT_TRUE(H.retract("ref(x, y) <= p"));
    auto After = H.solutions();
    EXPECT_EQ(After[1], std::vector<std::string>{"s"}); // x keeps s.
    EXPECT_EQ(After[2], std::vector<std::string>{});    // y lost it.
    EXPECT_EQ(After,
              freshSolutions(H.Solver.options(),
                             {"var p x y", "cons s", "cons ref + -"},
                             {"s <= x", "p <= ref(1, y)", "p <= ref(y, 0)"}));
  }
}

//===----------------------------------------------------------------------===//
// Collapse maintenance
//===----------------------------------------------------------------------===//

TEST(RetractTest, BrokenCycleSplitsCollapse) {
  FileHarness H(makeConfig(GraphForm::Inductive, CycleElim::Online));
  H.add("var a b c");
  H.add("cons s");
  H.add("s <= a");
  H.add("a <= b");
  H.add("b <= c");
  H.add("c <= a");
  H.Solver.ensureClosed();
  ASSERT_EQ(H.Solver.stats().CyclesCollapsed, 1u);
  EXPECT_EQ(H.solutions(),
            (std::vector<std::vector<std::string>>{{"s"}, {"s"}, {"s"}}));

  ASSERT_TRUE(H.retract("b <= c"));
  EXPECT_EQ(H.Solver.stats().CollapsesSplit, 1u);
  EXPECT_EQ(H.Solver.stats().Retractions, 1u);
  EXPECT_EQ(H.Solver.stats().ConeVarsRecomputed, 3u);
  EXPECT_EQ(H.solutions(),
            (std::vector<std::vector<std::string>>{{"s"}, {"s"}, {}}));
  EXPECT_TRUE(H.Solver.verifyGraphInvariants());
}

TEST(RetractTest, SurvivingCycleStaysCollapsed) {
  // The class's witness cycle survives the retraction of an unrelated
  // constraint that still pulls the class into the cone.
  FileHarness H(makeConfig(GraphForm::Inductive, CycleElim::Online));
  H.add("var a b");
  H.add("cons s");
  H.add("cons t");
  H.add("a <= b");
  H.add("b <= a");
  H.add("s <= a");
  H.add("t <= a");
  H.Solver.ensureClosed();
  ASSERT_EQ(H.Solver.stats().CyclesCollapsed, 1u);

  ASSERT_TRUE(H.retract("t <= a"));
  EXPECT_EQ(H.Solver.stats().CollapsesSplit, 0u);
  // Still one class: both names resolve to the same representative.
  EXPECT_EQ(H.Solver.rep(0), H.Solver.rep(1));
  EXPECT_EQ(H.solutions(),
            (std::vector<std::vector<std::string>>{{"s"}, {"s"}}));
}

TEST(RetractTest, GoldenChainConeCounters) {
  // s <= a <= b <= c <= d; retracting a <= b seeds {a, b} and the
  // forward closure pulls in c and d: exactly four cone variables, no
  // collapse involved.
  FileHarness H(makeConfig(GraphForm::Standard, CycleElim::Online));
  H.add("var a b c d");
  H.add("cons s");
  H.add("s <= a");
  H.add("a <= b");
  H.add("b <= c");
  H.add("c <= d");
  H.Solver.ensureClosed();
  ASSERT_TRUE(H.retract("a <= b"));
  EXPECT_EQ(H.Solver.stats().Retractions, 1u);
  EXPECT_EQ(H.Solver.stats().ConeVarsRecomputed, 4u);
  EXPECT_EQ(H.Solver.stats().CollapsesSplit, 0u);
}

TEST(RetractTest, OfflineMergedClassFallsBackToConeRecompute) {
  // Under offline preprocessing an HVN copy chain is merged without any
  // witness cycle; retracting the line that feeds it must split the
  // merged class and still match a fresh offline solve of the survivors.
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Options.Preprocess = PreprocessMode::Offline;
  FileHarness H(Options);
  std::vector<std::string> Decls = {"var a b c", "cons s"};
  std::vector<std::string> Lines = {"s <= a", "a <= b", "b <= c"};
  for (const std::string &Line : Decls)
    H.add(Line);
  for (const std::string &Line : Lines)
    H.add(Line);
  (void)H.solutions(); // Forces the offline pass + closure.

  ASSERT_TRUE(H.retract("a <= b"));
  Lines.erase(std::find(Lines.begin(), Lines.end(), "a <= b"));
  EXPECT_EQ(H.solutions(), freshSolutions(Options, Decls, Lines));
  EXPECT_GE(H.Solver.stats().ConeVarsRecomputed, 1u);
}

//===----------------------------------------------------------------------===//
// Randomized oracle across the full configuration sweep
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic random corpus in canonical line text (the generator
/// writes tags exactly as exprToText renders them).
struct RandomSystem {
  std::vector<std::string> Decls;
  std::vector<std::string> Lines;
};

RandomSystem makeRandomSystem(uint64_t Seed, uint32_t NumVars,
                              uint32_t NumLines) {
  PRNG Rng(Seed * 7919 + 17);
  RandomSystem Out;
  std::string VarDecl = "var";
  for (uint32_t I = 0; I != NumVars; ++I)
    VarDecl += " v" + std::to_string(I);
  Out.Decls.push_back(VarDecl);
  for (int I = 0; I != 4; ++I)
    Out.Decls.push_back("cons s" + std::to_string(I));
  Out.Decls.push_back("cons ref + -");

  auto V = [&] { return "v" + std::to_string(Rng.nextBelow(NumVars)); };
  auto S = [&] { return "s" + std::to_string(Rng.nextBelow(4)); };
  for (uint32_t I = 0; I != NumLines; ++I) {
    switch (Rng.nextBelow(5)) {
    case 0:
      Out.Lines.push_back(V() + " <= " + V());
      break;
    case 1:
      Out.Lines.push_back(S() + " <= " + V());
      break;
    case 2:
      Out.Lines.push_back("ref(" + V() + ", " + V() + ") <= " + V());
      break;
    case 3: // Write through a pointer.
      Out.Lines.push_back(V() + " <= ref(1, " + V() + ")");
      break;
    case 4: // Read out of a pointer.
      Out.Lines.push_back(V() + " <= ref(" + V() + ", 0)");
      break;
    }
  }
  return Out;
}

} // namespace

class RetractSweepTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RetractSweepTest, RetractionMatchesFreshSolveOfSurvivors) {
  uint64_t Seed = GetParam();
  RandomSystem Sys = makeRandomSystem(Seed, /*NumVars=*/20, /*NumLines=*/50);

  for (const SolverOptions &Options : sweepConfigs(Seed)) {
    FileHarness H(Options);
    for (const std::string &Line : Sys.Decls)
      H.add(Line);
    for (const std::string &Line : Sys.Lines)
      H.add(Line);
    (void)H.solutions(); // Settle (and run any offline pass) before retracts.

    std::vector<std::string> Survivors = Sys.Lines;
    PRNG Rng(Seed * 31 + 7);
    for (int Round = 0; Round != 6 && !Survivors.empty(); ++Round) {
      size_t Victim = Rng.nextBelow(static_cast<uint32_t>(Survivors.size()));
      std::string Line = Survivors[Victim];
      Survivors.erase(Survivors.begin() + Victim);
      ASSERT_TRUE(H.retract(Line))
          << "config " << Options.configName() << " line '" << Line << "'";
      ASSERT_TRUE(H.Solver.verifyGraphInvariants());
      EXPECT_EQ(H.solutions(),
                freshSolutions(Options, Sys.Decls, Survivors))
          << "config " << Options.configName() << " closure "
          << (Options.Closure == ClosureMode::Wave ? "wave" : "worklist")
          << " preprocess "
          << (Options.Preprocess == PreprocessMode::Offline ? "offline"
                                                            : "none")
          << " after retracting '" << Line << "'";
    }
    EXPECT_EQ(H.Solver.stats().Retractions,
              std::min<uint64_t>(6, Sys.Lines.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetractSweepTest,
                         testing::Range<uint64_t>(1, 6));
