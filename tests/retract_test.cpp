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
#include <cctype>
#include <cstdio>
#include <iterator>
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

TEST(RetractTest, ClassJoinedOnlyThroughAnOutsideVariableSplits) {
  // With o(a) < o(b) < o(c), the partial search collapses a <= b <= a but
  // never looks at the longer cycle a <= c <= b <= a, so c stays outside
  // the class. After "a <= b" goes, a and b are still strongly connected,
  // but only through c: no surviving constraint between the members
  // themselves closes a cycle, so the class must split, and the replay
  // re-collapses whatever cycle the search finds again.
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Options.Order = OrderKind::Creation;
  FileHarness H(Options);
  std::vector<std::string> Decls = {"var a b c", "cons s"};
  std::vector<std::string> Lines = {"s <= a", "a <= c", "c <= b", "a <= b",
                                    "b <= a"};
  for (const std::string &Line : Decls)
    H.add(Line);
  for (const std::string &Line : Lines)
    H.add(Line);
  H.Solver.ensureClosed();
  ASSERT_EQ(H.Solver.stats().CyclesCollapsed, 1u);
  ASSERT_EQ(H.Solver.rep(0), H.Solver.rep(1));
  ASSERT_NE(H.Solver.rep(2), H.Solver.rep(0));

  ASSERT_TRUE(H.retract("a <= b"));
  EXPECT_EQ(H.Solver.stats().CollapsesSplit, 1u);
  EXPECT_EQ(H.Solver.stats().ConeVarsRecomputed, 3u);
  EXPECT_EQ(H.Solver.stats().CyclesCollapsed, 2u);
  Lines.erase(std::find(Lines.begin(), Lines.end(), "a <= b"));
  EXPECT_EQ(H.solutions(), freshSolutions(Options, Decls, Lines));
  EXPECT_TRUE(H.Solver.verifyGraphInvariants());
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
  /// Lines to retract, in this order; when empty, sweepRetractions()
  /// picks its victims at random.
  std::vector<std::string> Victims;
  /// The order index every sweep configuration uses.
  OrderKind Order = OrderKind::Random;
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

/// The sparse shape: more variables than lines, mostly copies and
/// sources, and few ref lines. Copies stay inside four groups of three
/// variables, which close short cycles (some joined only through a third
/// member), while sources and refs range over every variable; so a
/// retraction's cone stays local and collapsed classes meet split checks
/// that keep them as well as ones that split them.
RandomSystem makeSparseSystem(uint64_t Seed, uint32_t NumVars,
                              uint32_t NumLines) {
  PRNG Rng(Seed * 104729 + 3);
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
    uint32_t Kind = Rng.nextBelow(20);
    if (Kind < 11) {
      uint32_t Group = 3 * Rng.nextBelow(4);
      uint32_t From = Rng.nextBelow(3);
      uint32_t To = (From + 1 + Rng.nextBelow(2)) % 3;
      Out.Lines.push_back("v" + std::to_string(Group + From) + " <= v" +
                          std::to_string(Group + To));
    } else if (Kind < 18) {
      Out.Lines.push_back(S() + " <= " + V());
    } else if (Kind == 18) {
      Out.Lines.push_back(V() + " <= ref(1, " + V() + ")");
    } else {
      Out.Lines.push_back(V() + " <= ref(" + V() + ", 0)");
    }
  }
  return Out;
}

/// True if \p Line is a copy `v<A> <= v<B>`; sets \p A and \p B.
bool parseCopy(const std::string &Line, unsigned &A, unsigned &B) {
  int End = 0;
  return std::sscanf(Line.c_str(), "v%u <= v%u%n", &A, &B, &End) == 2 &&
         static_cast<size_t>(End) == Line.size();
}

/// makeSparseSystem()'s sources and ref lines, with its random copies
/// replaced by the motif a <= c, c <= b, a <= b, b <= a in each of its
/// four copy groups {a, b, c}, whose a <= b lines are the victims. Under
/// creation order (o(a) < o(b) < o(c)) inductive form's partial search
/// collapses a <= b <= a and never walks a <= c <= b, so c stays outside
/// the class (the random copies would pull it in: every later insertion
/// between c and the class closes a two-cycle the search finds). Once
/// a <= b goes, a and b are strongly connected only through c, and the
/// class must split.
RandomSystem makePlantedSystem(uint64_t Seed) {
  RandomSystem Out = makeSparseSystem(Seed, /*NumVars=*/40, /*NumLines=*/30);
  Out.Order = OrderKind::Creation;
  Out.Lines.erase(std::remove_if(Out.Lines.begin(), Out.Lines.end(),
                                 [](const std::string &Line) {
                                   unsigned From, To;
                                   return parseCopy(Line, From, To);
                                 }),
                  Out.Lines.end());
  std::vector<std::string> Motif;
  for (uint32_t Group = 0; Group != 12; Group += 3) {
    const std::string A = "v" + std::to_string(Group),
                      B = "v" + std::to_string(Group + 1),
                      C = "v" + std::to_string(Group + 2);
    for (const std::string &Line :
         {A + " <= " + C, C + " <= " + B, A + " <= " + B, B + " <= " + A})
      Motif.push_back(Line);
    Out.Victims.push_back(A + " <= " + B);
  }
  Out.Lines.insert(Out.Lines.begin(), Motif.begin(), Motif.end());
  return Out;
}

/// Creation indices of the variables \p Line names (`v<N>` is the N-th).
std::vector<uint32_t> namedVars(const std::string &Line) {
  std::vector<uint32_t> Out;
  for (size_t Pos = Line.find('v'); Pos != std::string::npos;
       Pos = Line.find('v', Pos + 1))
    if (Pos + 1 < Line.size() &&
        std::isdigit(static_cast<unsigned char>(Line[Pos + 1])))
      Out.push_back(static_cast<uint32_t>(std::stoul(Line.substr(Pos + 1))));
  return Out;
}

/// True if the `v<A> <= v<B>` lines among \p Lines whose ends are both in
/// \p Members strongly connect \p Members.
bool connectedByInternalCopies(const std::vector<uint32_t> &Members,
                               const std::vector<std::string> &Lines) {
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  for (const std::string &Line : Lines) {
    unsigned A, B;
    if (parseCopy(Line, A, B) &&
        std::count(Members.begin(), Members.end(), A) &&
        std::count(Members.begin(), Members.end(), B))
      Edges.push_back({A, B});
  }
  // Every member must reach, and be reached from, the first one.
  for (bool Forward : {true, false}) {
    std::vector<uint32_t> Reached = {Members[0]};
    for (size_t I = 0; I != Reached.size(); ++I)
      for (auto [A, B] : Edges) {
        uint32_t From = Forward ? A : B, To = Forward ? B : A;
        if (From == Reached[I] &&
            !std::count(Reached.begin(), Reached.end(), To))
          Reached.push_back(To);
      }
    if (Reached.size() != Members.size())
      return false;
  }
  return true;
}

/// What the retractions of sweepRetractions() reached.
struct SweepObservations {
  /// Retractions whose cone left out a variable some line names.
  uint64_t PartialCones = 0;
  /// Collapsed classes of a retracted line's variables that stayed
  /// collapsed through the split check.
  uint64_t ClassesKept = 0;
};

/// Retracts \p Rounds lines of \p Sys, its Victims or else lines chosen by
/// \p Seed, under every sweepConfigs() configuration, and checks each
/// retraction against a fresh solve of the surviving lines. A class that
/// survives its split check must still be strongly connected by surviving
/// copies between its own members.
void sweepRetractions(const RandomSystem &Sys, uint64_t Seed, int Rounds,
                      SweepObservations &Seen) {
  std::vector<uint32_t> Named;
  for (const std::string &Line : Sys.Lines)
    for (uint32_t Var : namedVars(Line))
      if (!std::count(Named.begin(), Named.end(), Var))
        Named.push_back(Var);

  for (SolverOptions Options : sweepConfigs(Seed)) {
    Options.Order = Sys.Order;
    FileHarness H(Options);
    for (const std::string &Line : Sys.Decls)
      H.add(Line);
    for (const std::string &Line : Sys.Lines)
      H.add(Line);
    (void)H.solutions(); // Settle (and run any offline pass) before retracts.
    const SolverStats &Stats = H.Solver.stats();

    std::vector<std::string> Survivors = Sys.Lines;
    PRNG Rng(Seed * 31 + 7);
    for (int Round = 0; Round != Rounds && !Survivors.empty(); ++Round) {
      auto Victim =
          Sys.Victims.empty()
              ? Survivors.begin() +
                    Rng.nextBelow(static_cast<uint32_t>(Survivors.size()))
              : std::find(Survivors.begin(), Survivors.end(),
                          Sys.Victims[Round]);
      ASSERT_NE(Victim, Survivors.end());
      std::string Line = *Victim;
      Survivors.erase(Victim);

      // The retracted line's variables seed the cone, so their classes
      // always meet the split check.
      std::vector<std::vector<uint32_t>> Classes;
      for (uint32_t Var : namedVars(Line)) {
        VarId Rep = H.Solver.rep(H.Solver.varOfCreation(Var));
        std::vector<uint32_t> Members;
        for (uint32_t I = 0; I != H.Solver.numCreations(); ++I)
          if (H.Solver.rep(H.Solver.varOfCreation(I)) == Rep)
            Members.push_back(I);
        if (Members.size() >= 2 &&
            std::find(Classes.begin(), Classes.end(), Members) ==
                Classes.end())
          Classes.push_back(std::move(Members));
      }
      const uint64_t SplitBefore = Stats.CollapsesSplit;
      const uint64_t CollapsedBefore =
          Stats.CyclesCollapsed + Stats.WaveCollapsedVars;
      const uint64_t ConeBefore = Stats.ConeVarsRecomputed;

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

      if (Stats.ConeVarsRecomputed - ConeBefore < Named.size())
        ++Seen.PartialCones;
      // A split resets every member and only a replay collapse reunites
      // them: a class still together after a retraction that split
      // nothing, or collapsed nothing, was kept by its split check.
      if (Stats.CollapsesSplit != SplitBefore &&
          Stats.CyclesCollapsed + Stats.WaveCollapsedVars != CollapsedBefore)
        continue;
      for (const std::vector<uint32_t> &Members : Classes) {
        VarId Rep = H.Solver.rep(H.Solver.varOfCreation(Members[0]));
        if (!std::all_of(Members.begin(), Members.end(), [&](uint32_t Var) {
              return H.Solver.rep(H.Solver.varOfCreation(Var)) == Rep;
            }))
          continue;
        ++Seen.ClassesKept;
        EXPECT_TRUE(connectedByInternalCopies(Members, Survivors))
            << "config " << Options.configName()
            << ": a class kept collapsed after retracting '" << Line
            << "' is not strongly connected by its own copies";
      }
    }
    EXPECT_EQ(Stats.Retractions,
              std::min<uint64_t>(Rounds, Sys.Lines.size()));
  }
}

} // namespace

class RetractSweepTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RetractSweepTest, RetractionMatchesFreshSolveOfSurvivors) {
  uint64_t Seed = GetParam();
  SweepObservations Seen;
  sweepRetractions(makeRandomSystem(Seed, /*NumVars=*/20, /*NumLines=*/50),
                   Seed, /*Rounds=*/6, Seen);
}

TEST(SparseRetractSweepTest, RetractionsReachPartialConesAndKeptClasses) {
  // The dense shape's cones reach nearly every variable, and every class
  // it checks splits; the sparse shape reaches small cones and classes
  // that survive their split check.
  SweepObservations Seen;
  for (uint64_t Seed = 1; Seed != 61; ++Seed) {
    sweepRetractions(makeSparseSystem(Seed, /*NumVars=*/40, /*NumLines=*/30),
                     Seed, /*Rounds=*/12, Seen);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << Seed;
  }
  EXPECT_GT(Seen.PartialCones, 0u);
  EXPECT_GT(Seen.ClassesKept, 0u);
}

TEST(SparseRetractSweepTest, ClassesJoinedThroughAPlantedOutsideVariable) {
  // Every seed plants four classes that only a path through a variable
  // outside them keeps strongly connected after their retraction, so a
  // split check that counted such paths would keep them on every seed.
  SweepObservations Seen;
  for (uint64_t Seed = 1; Seed != 61; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    RandomSystem Sys = makePlantedSystem(Seed);
    // The premise: inductive form collapses each group's a and b and
    // leaves its c outside.
    SolverOptions Options =
        makeConfig(GraphForm::Inductive, CycleElim::Online, Seed);
    Options.Order = Sys.Order;
    FileHarness H(Options);
    for (const std::string &Line : Sys.Decls)
      H.add(Line);
    for (const std::string &Line : Sys.Lines)
      H.add(Line);
    H.Solver.ensureClosed();
    for (uint32_t Group = 0; Group != 12; Group += 3) {
      VarId A = H.Solver.rep(H.Solver.varOfCreation(Group));
      EXPECT_EQ(H.Solver.rep(H.Solver.varOfCreation(Group + 1)), A);
      EXPECT_NE(H.Solver.rep(H.Solver.varOfCreation(Group + 2)), A);
    }
    sweepRetractions(Sys, Seed, static_cast<int>(Sys.Victims.size()), Seen);
    ASSERT_FALSE(HasFatalFailure());
  }
  EXPECT_GT(Seen.PartialCones, 0u);
}

namespace {

/// CollapsesSplit/ConeVarsRecomputed/CyclesCollapsed after each retraction
/// of RetractionMatchesFreshSolveOfSurvivors' sequence: one row per seed,
/// one entry per sweepConfigs() configuration in its order. Every cone in
/// these sequences spans the whole system (18 to 20 variables), so they
/// pin how many classes split and how many cycles the replays collapse
/// again; RetractTest's hand-built cases cover a class that survives.
const char *const SplitGoldens[5][16] = {
    // Seed 1.
    {
        // SF-None: worklist, + offline, wave, + offline.
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        // SF-Online: worklist, + offline, wave, + offline.
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        // IF-None: worklist, + offline, wave, + offline.
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        // IF-Online: worklist, + offline, wave, + offline.
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
    },
    // Seed 2.
    {
        // SF-None: worklist, + offline, wave, + offline.
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        // SF-Online: worklist, + offline, wave, + offline.
        "1/20/20 2/40/30 3/60/40 4/80/50 5/100/59 6/120/64",
        "1/20/20 2/40/30 3/60/40 4/80/50 5/100/59 6/120/64",
        "1/20/7 2/40/13 3/60/19 4/80/25 5/100/31 6/120/33",
        "1/20/7 2/40/13 3/60/19 4/80/25 5/100/31 6/120/33",
        // IF-None: worklist, + offline, wave, + offline.
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        // IF-Online: worklist, + offline, wave, + offline.
        "1/20/18 2/40/27 3/60/36 4/80/45 5/100/54 6/120/63",
        "1/20/18 2/40/27 3/60/36 4/80/45 5/100/54 6/120/63",
        "1/20/18 2/40/27 3/60/36 4/80/45 5/100/54 6/120/63",
        "1/20/18 2/40/27 3/60/36 4/80/45 5/100/54 6/120/63",
    },
    // Seed 3.
    {
        // SF-None: worklist, + offline, wave, + offline.
        "0/18/0 0/36/0 0/54/0 0/72/0 0/90/0 0/108/0",
        "1/18/0 1/36/0 1/54/0 1/72/0 1/90/0 1/108/0",
        "0/18/0 0/36/0 0/54/0 0/72/0 0/90/0 0/108/0",
        "1/18/0 1/36/0 1/54/0 1/72/0 1/90/0 1/108/0",
        // SF-Online: worklist, + offline, wave, + offline.
        "1/18/16 2/36/24 3/54/32 4/72/35 5/90/38 6/108/41",
        "1/18/15 2/36/23 3/54/31 4/72/34 5/90/37 6/108/40",
        "1/18/2 2/36/3 3/54/4 4/72/5 5/90/6 6/108/7",
        "1/18/2 2/36/3 3/54/4 4/72/5 5/90/6 6/108/7",
        // IF-None: worklist, + offline, wave, + offline.
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "2/20/0 2/39/0 2/58/0 2/77/0 2/96/0 2/115/0",
        "0/19/0 0/38/0 0/57/0 0/76/0 0/95/0 0/114/0",
        "2/20/0 2/39/0 2/58/0 2/77/0 2/96/0 2/115/0",
        // IF-Online: worklist, + offline, wave, + offline.
        "1/19/20 2/38/30 3/57/40 4/76/46 5/95/52 6/114/58",
        "2/20/19 3/39/29 4/58/39 5/77/45 6/96/51 7/115/57",
        "1/19/20 2/38/30 3/57/40 4/76/46 5/95/52 6/114/58",
        "2/20/19 3/39/29 4/58/39 5/77/45 6/96/51 7/115/57",
    },
    // Seed 4.
    {
        // SF-None: worklist, + offline, wave, + offline.
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "2/20/0 2/40/0 2/60/0 2/80/0 2/100/0 2/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "2/20/0 2/40/0 2/60/0 2/80/0 2/100/0 2/120/0",
        // SF-Online: worklist, + offline, wave, + offline.
        "1/20/18 2/40/26 3/60/33 4/80/40 5/100/47 6/120/55",
        "2/20/19 3/40/27 4/60/34 5/80/41 6/100/48 7/120/56",
        "1/20/2 2/40/3 3/60/9 4/80/15 5/100/21 6/120/27",
        "2/20/4 3/40/5 4/60/11 5/80/17 6/100/23 7/120/29",
        // IF-None: worklist, + offline, wave, + offline.
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "2/20/0 2/40/0 2/60/0 2/80/0 2/100/0 2/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "2/20/0 2/40/0 2/60/0 2/80/0 2/100/0 2/120/0",
        // IF-Online: worklist, + offline, wave, + offline.
        "1/20/19 2/40/27 3/60/35 4/80/43 5/100/51 6/120/60",
        "2/20/19 3/40/27 4/60/35 5/80/43 6/100/51 7/120/60",
        "1/20/19 2/40/27 3/60/35 4/80/43 5/100/51 6/120/60",
        "2/20/19 3/40/27 4/60/35 5/80/43 6/100/51 7/120/60",
    },
    // Seed 5.
    {
        // SF-None: worklist, + offline, wave, + offline.
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        // SF-Online: worklist, + offline, wave, + offline.
        "1/20/19 2/40/29 3/60/39 4/80/48 5/100/56 6/120/64",
        "1/20/19 2/40/29 3/60/39 4/80/48 5/100/56 6/120/64",
        "1/20/7 2/40/10 3/60/13 4/80/16 5/100/18 6/120/20",
        "1/20/7 2/40/10 3/60/13 4/80/16 5/100/18 6/120/20",
        // IF-None: worklist, + offline, wave, + offline.
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        "0/20/0 0/40/0 0/60/0 0/80/0 0/100/0 0/120/0",
        // IF-Online: worklist, + offline, wave, + offline.
        "1/20/21 2/40/30 3/60/39 4/80/48 5/100/57 6/120/66",
        "1/20/21 2/40/30 3/60/39 4/80/48 5/100/57 6/120/66",
        "1/20/21 2/40/30 3/60/39 4/80/48 5/100/57 6/120/66",
        "1/20/21 2/40/30 3/60/39 4/80/48 5/100/57 6/120/66",
    },
};

} // namespace

TEST_P(RetractSweepTest, SplitDecisionsMatchRecordedCounters) {
  uint64_t Seed = GetParam();
  RandomSystem Sys = makeRandomSystem(Seed, /*NumVars=*/20, /*NumLines=*/50);
  std::vector<SolverOptions> Configs = sweepConfigs(Seed);
  ASSERT_EQ(Configs.size(), std::size(SplitGoldens[0]));

  for (size_t Config = 0; Config != Configs.size(); ++Config) {
    FileHarness H(Configs[Config]);
    for (const std::string &Line : Sys.Decls)
      H.add(Line);
    for (const std::string &Line : Sys.Lines)
      H.add(Line);
    (void)H.solutions();

    std::vector<std::string> Survivors = Sys.Lines;
    PRNG Rng(Seed * 31 + 7);
    std::string Counters;
    for (int Round = 0; Round != 6 && !Survivors.empty(); ++Round) {
      size_t Victim = Rng.nextBelow(static_cast<uint32_t>(Survivors.size()));
      std::string Line = Survivors[Victim];
      Survivors.erase(Survivors.begin() + Victim);
      ASSERT_TRUE(H.retract(Line));
      const SolverStats &Stats = H.Solver.stats();
      Counters += (Round ? " " : "") + std::to_string(Stats.CollapsesSplit) +
                  "/" + std::to_string(Stats.ConeVarsRecomputed) + "/" +
                  std::to_string(Stats.CyclesCollapsed);
    }
    EXPECT_EQ(Counters, SplitGoldens[Seed - 1][Config])
        << "config " << Config << " (" << Configs[Config].configName()
        << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetractSweepTest,
                         testing::Range<uint64_t>(1, 6));
