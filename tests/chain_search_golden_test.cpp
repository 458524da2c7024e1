//===- tests/chain_search_golden_test.cpp - Chain-search goldens ----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what SF-Online's partial cycle detection does, search by search:
/// CycleSearches, CycleSearchSteps, CyclesCollapsed, VarsEliminated,
/// WaveCollapsedVars and Work, for every standard-form chain mode
/// (decreasing, increasing, both) on the examples/data corpus and two
/// suite programs. The search may find its way through a successor list
/// however it likes, but it must visit the same variables in the same
/// order and count the same steps as a walk of the list: the recorded
/// values were taken from the implementation that rescanned every list on
/// every search.
///
/// Two hand-built hubs (successor lists far longer than any short-list
/// cutoff) then check that what a search remembers about a hub's list
/// does not outlive the list: a collapse that turns one of the hub's
/// entries from an upward into a downward step, and a retraction that
/// rebuilds the hub's list with as many entries as before, in another
/// order. Both pin their counters the same way and compare solutions
/// with a fresh solve.
///
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"
#include "setcon/ConstraintFile.h"
#include "setcon/ConstraintSolver.h"
#include "workload/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace poce;
using namespace poce::andersen;

#ifndef POCE_SOURCE_DIR
#define POCE_SOURCE_DIR "."
#endif

namespace {

struct ChainPin {
  const char *Program;
  SFChainMode Mode;
  uint64_t Searches, Steps, Collapsed, Eliminated, WaveCollapsed, Work;
};

const char *modeName(SFChainMode Mode) {
  switch (Mode) {
  case SFChainMode::Decreasing:
    return "decreasing";
  case SFChainMode::Increasing:
    return "increasing";
  case SFChainMode::Both:
    return "both";
  }
  return "?";
}

/// Solves \p Unit under SF-Online (default schedule) with \p Pin's chain
/// mode and checks every pinned counter.
void expectPinned(const minic::TranslationUnit &Unit, const ChainPin &Pin) {
  SCOPED_TRACE(std::string(Pin.Program) + " " + modeName(Pin.Mode));
  ConstructorTable Constructors;
  SolverOptions Options = makeConfig(GraphForm::Standard, CycleElim::Online);
  Options.SFChains = Pin.Mode;
  AnalysisResult R = runAnalysis(Unit, Constructors, Options);
  EXPECT_EQ(R.Stats.CycleSearches, Pin.Searches);
  EXPECT_EQ(R.Stats.CycleSearchSteps, Pin.Steps);
  EXPECT_EQ(R.Stats.CyclesCollapsed, Pin.Collapsed);
  EXPECT_EQ(R.Stats.VarsEliminated, Pin.Eliminated);
  EXPECT_EQ(R.Stats.WaveCollapsedVars, Pin.WaveCollapsed);
  EXPECT_EQ(R.Stats.Work, Pin.Work);
}

TEST(ChainSearchGoldenTest, CorpusMatchesRecordedCounters) {
  const ChainPin Pins[] = {
      {"list.c", SFChainMode::Decreasing, 78, 125, 3, 3, 9, 295},
      {"list.c", SFChainMode::Increasing, 76, 174, 2, 2, 10, 297},
      {"list.c", SFChainMode::Both, 151, 266, 3, 3, 9, 293},
      {"events.c", SFChainMode::Decreasing, 104, 292, 9, 9, 2, 490},
      {"events.c", SFChainMode::Increasing, 94, 381, 1, 1, 10, 417},
      {"events.c", SFChainMode::Both, 183, 470, 8, 9, 2, 437},
      {"calc.c", SFChainMode::Decreasing, 74, 51, 0, 0, 6, 216},
      {"calc.c", SFChainMode::Increasing, 74, 71, 0, 0, 6, 216},
      {"calc.c", SFChainMode::Both, 148, 122, 0, 0, 6, 216},
      {"strings.c", SFChainMode::Decreasing, 33, 28, 2, 2, 4, 114},
      {"strings.c", SFChainMode::Increasing, 33, 28, 1, 1, 5, 118},
      {"strings.c", SFChainMode::Both, 64, 50, 3, 3, 3, 112},
  };
  for (const ChainPin &Pin : Pins) {
    std::ifstream In(std::string(POCE_SOURCE_DIR) + "/examples/data/" +
                     Pin.Program);
    ASSERT_TRUE(In.good()) << Pin.Program;
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    minic::TranslationUnit Unit;
    ASSERT_TRUE(parseSource(Buffer.str(), Unit, nullptr, Pin.Program));
    expectPinned(Unit, Pin);
  }
}

TEST(ChainSearchGoldenTest, SuiteMatchesRecordedCounters) {
  const ChainPin Pins[] = {
      {"gawk-3.0.3", SFChainMode::Decreasing, 1040, 5610, 108, 124, 191, 8402},
      {"gawk-3.0.3", SFChainMode::Increasing, 1166, 8847, 68, 80, 235, 11963},
      {"gawk-3.0.3", SFChainMode::Both, 1868, 9469, 132, 157, 158, 8470},
      {"povray-2.2", SFChainMode::Decreasing, 1192, 5735, 112, 134, 234, 10117},
      {"povray-2.2", SFChainMode::Increasing, 1352, 9104, 73, 94, 274, 14446},
      {"povray-2.2", SFChainMode::Both, 2218, 10127, 136, 172, 196, 10520},
  };
  const std::vector<workload::ProgramSpec> Specs = workload::paperSuite(0.05);
  for (const ChainPin &Pin : Pins) {
    auto Spec = std::find_if(Specs.begin(), Specs.end(),
                             [&](const workload::ProgramSpec &S) {
                               return S.Name == Pin.Program;
                             });
    ASSERT_NE(Spec, Specs.end()) << Pin.Program;
    std::unique_ptr<workload::PreparedProgram> Program =
        workload::prepareProgram(*Spec);
    ASSERT_TRUE(Program->Ok) << Pin.Program;
    expectPinned(Program->Unit, Pin);
  }
}

//===----------------------------------------------------------------------===//
// Hubs whose lists change under a search's feet
//===----------------------------------------------------------------------===//

/// Entries in each hub list below, well past any length at which a list
/// still counts as short.
constexpr int HubEntries = 200;

/// SF-Online on the eager schedule, so every add runs its search at once,
/// with creation order: a variable's order index is its declaration
/// position, and the tests below choose which steps go down.
SolverOptions hubConfig() {
  SolverOptions Options = makeConfig(GraphForm::Standard, CycleElim::Online);
  Options.Closure = ClosureMode::Worklist;
  Options.Order = OrderKind::Creation;
  return Options;
}

/// A solver fed from textual lines, so retraction by line text works.
struct Harness {
  ConstructorTable Constructors;
  TermTable Terms;
  ConstraintSolver Solver;
  ConstraintSystemFile System;

  explicit Harness(SolverOptions Options)
      : Terms(Constructors), Solver(Terms, Options) {}

  void add(const std::string &Line) {
    Status St = System.addLine(Line, Solver);
    ASSERT_TRUE(St.ok()) << "line '" << Line << "': " << St.toString();
  }
  void addAll(const std::vector<std::string> &Lines) {
    for (const std::string &Line : Lines)
      add(Line);
  }

  bool retract(const std::string &Line) {
    std::string Canon;
    Status St = System.canonicalizeConstraint(Line, Solver, Canon);
    EXPECT_TRUE(St.ok()) << St.toString();
    return Solver.retract(Canon);
  }

  /// Rendered least solution of every declared variable, in declaration
  /// order, each sorted by text.
  std::vector<std::vector<std::string>> solutions() {
    std::vector<std::vector<std::string>> Out;
    for (uint32_t I = 0; I != Solver.numCreations(); ++I) {
      std::vector<std::string> Rendered;
      for (ExprId Term : Solver.leastSolution(Solver.varOfCreation(I)))
        Rendered.push_back(Solver.exprStr(Term));
      std::sort(Rendered.begin(), Rendered.end());
      Out.push_back(std::move(Rendered));
    }
    return Out;
  }
};

struct SearchPin {
  uint64_t Searches, Steps, Collapsed, Eliminated, Work;
};

void expectSearchPin(const SolverStats &Stats, const SearchPin &Pin) {
  EXPECT_EQ(Stats.CycleSearches, Pin.Searches);
  EXPECT_EQ(Stats.CycleSearchSteps, Pin.Steps);
  EXPECT_EQ(Stats.CyclesCollapsed, Pin.Collapsed);
  EXPECT_EQ(Stats.VarsEliminated, Pin.Eliminated);
  EXPECT_EQ(Stats.Work, Pin.Work);
}

std::string hubDecls(const std::string &Before, const std::string &After) {
  std::string Line = "var " + Before;
  for (int J = 0; J != HubEntries; ++J)
    Line += " T" + std::to_string(J);
  return Line + " " + After;
}

TEST(ChainSearchGoldenTest, CollapseTurnsAHubEntryDownward) {
  // Orders: W < H < T0..T199 < A. Every entry of H's list steps up, so
  // the search from H for A finds nothing. Then T100 and W form a cycle
  // and collapse onto W: H's entry T100 now resolves to W and steps down,
  // and the search W <= H starts must find the cycle H <= T100 = W.
  std::vector<std::string> Lines = {hubDecls("W H", "A"), "cons s",
                                    "cons t"};
  for (int J = 0; J != HubEntries; ++J)
    Lines.push_back("H <= T" + std::to_string(J));
  Lines.insert(Lines.end(), {"s <= A", "A <= H", "t <= T7", "T100 <= W",
                             "W <= T100", "W <= H"});

  Harness H(hubConfig());
  H.addAll(Lines);
  expectSearchPin(H.Solver.stats(), {403, 302, 2, 2, 809});
  EXPECT_EQ(H.Solver.rep(H.Solver.varOfCreation(1)),
            H.Solver.varOfCreation(0))
      << "the search from H missed the cycle through the collapsed entry";

  SolverOptions Plain = hubConfig();
  Plain.Elim = CycleElim::None;
  Harness Fresh(Plain);
  Fresh.addAll(Lines);
  EXPECT_EQ(H.solutions(), Fresh.solutions());
}

TEST(ChainSearchGoldenTest, RetractionRebuildsAHubListInAnotherOrder) {
  // Orders: Z < L < H < T0..T199 < Y. H's list is first [L, T0..T199]:
  // L steps down (and on to Z), every T steps up. Retracting the first of
  // two copies of H <= L clears H's list, and the replay refills it with
  // as many entries, [T0..T199, L]. The search Z <= H starts afterwards
  // must meet L last: 200 upward entries, then L and Z.
  std::vector<std::string> Lines = {hubDecls("Z L H", "Y"), "cons s",
                                    "cons t", "H <= L", "L <= Z"};
  for (int J = 0; J != HubEntries; ++J)
    Lines.push_back("H <= T" + std::to_string(J));
  Lines.insert(Lines.end(), {"H <= L", "s <= Y", "Y <= H", "t <= T3"});

  Harness H(hubConfig());
  H.addAll(Lines);
  ASSERT_TRUE(H.retract("H <= L"));
  H.add("Z <= H");
  expectSearchPin(H.Solver.stats(), {608, 608, 1, 2, 1220});

  std::vector<std::string> Surviving = Lines;
  Surviving.erase(std::find(Surviving.begin(), Surviving.end(), "H <= L"));
  Surviving.push_back("Z <= H");
  Harness Fresh(hubConfig());
  Fresh.addAll(Surviving);
  EXPECT_EQ(H.solutions(), Fresh.solutions());
}

} // namespace
