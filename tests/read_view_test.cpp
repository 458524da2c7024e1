//===- tests/read_view_test.cpp - The read path against fresh solves ------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
//
// Differential test of the published view (serve/ReadView.h): seeded
// random add/retract sequences run through a QueryEngine, and after every
// step the engine's view must answer as a view of a fresh solve of the
// surviving lines does — every variable's ls and pts, and a sample of
// alias pairs. The sequences include collapses and class splits, a forced
// budget rollback, and a snapshot reset, the two events after which the
// engine must build its view anew; rows the engine reuses across
// steps are checked by the same comparison.
//
//===----------------------------------------------------------------------===//

#include "serve/GraphSnapshot.h"
#include "serve/QueryEngine.h"
#include "serve/ReadView.h"
#include "support/FailPoint.h"
#include "support/PRNG.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace poce;
using namespace poce::serve;

namespace {

/// Parses \p Text and solves it under \p Options; \p File keeps the
/// declarations that name the solver's variables.
SolverBundle solveText(const std::string &Text, const SolverOptions &Options,
                       ConstraintSystemFile &File) {
  Status Parsed = File.parse(Text);
  EXPECT_TRUE(Parsed.ok()) << Parsed.toString() << "\n" << Text;
  SolverBundle Bundle;
  Bundle.Constructors = std::make_unique<ConstructorTable>();
  Bundle.Terms = std::make_unique<TermTable>(*Bundle.Constructors);
  Bundle.Solver = std::make_unique<ConstraintSolver>(*Bundle.Terms, Options);
  File.emit(*Bundle.Solver);
  return Bundle;
}

/// A random edit script over a small Andersen-shaped system, with the
/// bookkeeping of which lines survive.
class EditScript {
public:
  explicit EditScript(uint64_t Seed) : Rng(Seed) {
    Decls.push_back("cons ref + + -");
    for (int I = 0; I != 4; ++I) {
      Decls.push_back("cons l" + std::to_string(I));
      Decls.push_back("cons s" + std::to_string(I));
      Locs.push_back("l" + std::to_string(I));
      Sources.push_back("s" + std::to_string(I));
    }
    std::string VarLine = "var";
    for (int I = 0; I != 12; ++I) {
      Vars.push_back("x" + std::to_string(I));
      VarLine += " " + Vars.back();
    }
    Decls.push_back(VarLine);
    for (int I = 0; I != 4; ++I)
      Live.push_back(Sources[I] + " <= " + Vars[I]);
    for (int I = 0; I != 20; ++I)
      Live.push_back(randomLine());
  }

  std::string text() const {
    std::string Text;
    for (const std::string &Line : Decls)
      Text += Line + "\n";
    for (const std::string &Line : Live)
      Text += Line + "\n";
    return Text;
  }

  std::string var() { return Vars[Rng.nextBelow(Vars.size())]; }

  /// A constraint over declared names: a source, a stored location, a
  /// load/store sink, or (most often) a copy.
  std::string randomLine() {
    switch (Rng.nextBelow(8)) {
    case 0:
    case 1:
      return Sources[Rng.nextBelow(Sources.size())] + " <= " + var();
    case 2: {
      std::string Content = var();
      return "ref(" + Locs[Rng.nextBelow(Locs.size())] + ", " + Content +
             ", " + Content + ") <= " + var();
    }
    case 3: {
      std::string Content = var();
      return var() + " <= ref(" + Locs[Rng.nextBelow(Locs.size())] + ", " +
             Content + ", " + Content + ")";
    }
    default:
      return var() + " <= " + var();
    }
  }

  /// Removes (the first instance of) \p Line from the surviving lines.
  void retire(const std::string &Line) {
    auto It = std::find(Live.begin(), Live.end(), Line);
    ASSERT_NE(It, Live.end()) << Line;
    Live.erase(It);
  }

  PRNG Rng;
  std::vector<std::string> Decls, Live, Vars, Sources, Locs;
};

std::vector<std::string> sorted(std::vector<std::string> Items) {
  std::sort(Items.begin(), Items.end());
  return Items;
}

/// Compares every declared variable's answers in \p Engine's view with a
/// view of a fresh solve of \p Script's surviving lines.
void expectMatchesFreshSolve(QueryEngine &Engine, const EditScript &Script,
                             const SolverOptions &Options, PRNG &Rng,
                             const std::string &Context) {
  ConstraintSystemFile File;
  SolverBundle Fresh = solveText(Script.text(), Options, File);
  Fresh.Solver->finalize();
  std::shared_ptr<const ReadView> Oracle =
      ReadView::build(*Fresh.Solver, File, nullptr, 0);
  std::shared_ptr<const ReadView> View = Engine.view();
  const std::vector<std::string> &Names = File.varNames();
  std::vector<size_t> NonEmpty;
  for (size_t I = 0; I != Names.size(); ++I) {
    uint32_t E = View->varOf(Names[I]), F = Oracle->varOf(Names[I]);
    ASSERT_NE(E, ReadView::NotFound) << Context << " " << Names[I];
    ASSERT_NE(F, ReadView::NotFound) << Context << " " << Names[I];
    // ls item order follows term ids, which differ between the two
    // solvers; pts items are sorted by text on both sides.
    std::vector<std::string> Ls = Oracle->items(ReadView::ItemKind::Ls, F);
    ASSERT_EQ(sorted(View->items(ReadView::ItemKind::Ls, E)), sorted(Ls))
        << Context << ": ls " << Names[I];
    ASSERT_EQ(View->pts(E), Oracle->pts(F)) << Context << ": pts " << Names[I];
    if (!Ls.empty())
      NonEmpty.push_back(I);
  }
  // alias does not depend on which cycles a configuration collapsed when
  // its first operand's solution is non-empty: two collapsed variables
  // then share a non-empty solution.
  for (int K = 0; K != 16 && !NonEmpty.empty(); ++K) {
    const std::string &X = Names[NonEmpty[Rng.nextBelow(NonEmpty.size())]];
    const std::string &Y = Names[Rng.nextBelow(Names.size())];
    ASSERT_EQ(View->alias(View->varOf(X), View->varOf(Y)),
              Oracle->alias(Oracle->varOf(X), Oracle->varOf(Y)))
        << Context << ": alias " << X << " " << Y;
  }
}

bool isDeclaration(const std::string &Line) {
  return Line.rfind("var ", 0) == 0 || Line.rfind("cons ", 0) == 0;
}

/// One seeded edit sequence under \p Options, checked after every step. A
/// step is a batch of one to three edits, as a writer batch is: a view
/// is built only when the step ends, so a row can change more than once
/// between two views.
void runEdits(SolverOptions Options, uint64_t Seed) {
  // Served adds run on the worklist schedule.
  Options.Closure = ClosureMode::Worklist;
  const std::string Config = Options.configName();
  EditScript Script(Seed);
  ConstraintSystemFile BaseFile;
  QueryEngine Engine(solveText(Script.text(), Options, BaseFile));
  ASSERT_TRUE(Engine.valid()) << Engine.initError();
  PRNG CheckRng(Seed * 31 + 7);
  std::vector<std::string> Retired;
  unsigned Step = 0;

  auto Check = [&](const std::string &What) {
    expectMatchesFreshSolve(Engine, Script, Options, CheckRng,
                            Config + " step " + std::to_string(Step) +
                                " (" + What + ")");
  };
  std::string Edits; // This step's edits, for failure messages.
  auto Add = [&](const std::string &Line) {
    Status St = Engine.addConstraint(Line);
    ASSERT_TRUE(St.ok()) << Config << ": add '" << Line << "': " << St;
    (isDeclaration(Line) ? Script.Decls : Script.Live).push_back(Line);
    Edits += "add " + Line + "; ";
  };
  auto Retract = [&](const std::string &Line) {
    Status St = Engine.retractConstraint(Line);
    ASSERT_TRUE(St.ok()) << Config << ": retract '" << Line << "': " << St;
    Script.retire(Line);
    Retired.push_back(Line);
    Edits += "retract " + Line + "; ";
  };
  auto EndStep = [&] {
    Check(Edits);
    Edits.clear();
  };

  // The same-popcount trap: {sa} -> {} -> {sb} within one step, so the
  // next view sees a solution of the same size with a different member.
  // A view that reused rows by size would keep serving "{ sa }".
  for (const char *Line : {"cons sa", "cons sb", "var w", "sa <= w"})
    Add(Line);
  EndStep();
  Retract("sa <= w");
  Add("sb <= w");
  EndStep();
  ASSERT_EQ(Engine.pts(Engine.varOf("w")), std::vector<std::string>{"sb"});

  uint64_t Collapses = 0, Splits = 0;
  for (Step = 1; Step != 100 && !testing::Test::HasFatalFailure(); ++Step) {
    if (Step == 20) {
      // A budget breach rolls the engine back onto a rebuilt solver; the
      // next view must carry no row over.
      std::string Source = "rb" + std::to_string(Seed);
      Add("cons " + Source);
      EndStep();
      ASSERT_TRUE(FailPoint::armSpec("solver.budget=error").ok());
      Status St = Engine.addConstraint(Source + " <= " + Script.var());
      FailPoint::disarmAll();
      ASSERT_EQ(St.code(), ErrorCode::BudgetExceeded) << Config << ": " << St;
      Check("budget rollback");
      EXPECT_EQ(Engine.view()->rowsReused(), 0u) << Config;
      continue;
    }
    if (Step == 40) {
      // A follower's re-bootstrap: new solver, so no row carries over.
      std::vector<uint8_t> Bytes;
      ASSERT_TRUE(GraphSnapshot::serialize(Engine.solver(), Bytes).ok());
      ASSERT_TRUE(Engine.resetFromSnapshot(Bytes.data(), Bytes.size()).ok());
      Check("snapshot reset");
      EXPECT_EQ(Engine.view()->rowsReused(), 0u) << Config;
      continue;
    }
    if (Step % 10 == 5) {
      // A two-cycle collapses under online elimination; retracting one of
      // its edges splits the class again.
      std::string A = Script.var(), B = Script.var();
      if (A == B)
        continue;
      uint64_t CollapsedBefore = Engine.solver().stats().CyclesCollapsed;
      Add(A + " <= " + B);
      Add(B + " <= " + A);
      EndStep();
      Collapses += Engine.solver().stats().CyclesCollapsed > CollapsedBefore;
      uint64_t SplitBefore = Engine.solver().stats().CollapsesSplit;
      Retract(B + " <= " + A);
      EndStep();
      Splits += Engine.solver().stats().CollapsesSplit > SplitBefore;
      continue;
    }
    for (uint64_t Edit = 0, N = 1 + Script.Rng.nextBelow(3); Edit != N;
         ++Edit) {
      uint64_t Kind = Script.Rng.nextBelow(20);
      if (Kind < 9) {
        Add(Script.randomLine());
      } else if (Kind < 15 && !Script.Live.empty()) {
        Retract(Script.Live[Script.Rng.nextBelow(Script.Live.size())]);
      } else if (Kind < 17) {
        // New names grow the view's name table.
        std::string Name = "y" + std::to_string(Step) + "_" +
                           std::to_string(Edit);
        Add("var " + Name);
        Script.Vars.push_back(Name);
        Add(Name + " <= " + Script.var());
      } else if (Kind < 19) {
        // New constructors grow its term text.
        std::string Name = "t" + std::to_string(Step) + "_" +
                           std::to_string(Edit);
        Add("cons " + Name);
        Script.Sources.push_back(Name);
        Add(Name + " <= " + Script.var());
      } else if (!Retired.empty()) {
        Add(Retired[Script.Rng.nextBelow(Retired.size())]);
      }
    }
    EndStep();
  }
  if (Options.Elim == CycleElim::Online) {
    EXPECT_GT(Collapses, 0u) << Config;
    EXPECT_GT(Splits, 0u) << Config;
  }
}

} // namespace

TEST(ReadViewTest, MatchesFreshSolveUnderRandomEdits) {
  uint64_t Seed = 0x5eed;
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive})
    for (CycleElim Elim : {CycleElim::None, CycleElim::Online})
      for (int Run = 0; Run != 3; ++Run) {
        runEdits(makeConfig(Form, Elim), Seed++);
        if (HasFatalFailure())
          return;
      }
}
