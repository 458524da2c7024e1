//===- tests/stress_test.cpp - Scale and edge-case stress tests ------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "setcon/ConstraintFile.h"
#include "setcon/ConstraintSolver.h"
#include "setcon/Oracle.h"
#include "support/PRNG.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace poce;

namespace {

struct SolverHarness {
  ConstructorTable Constructors;
  TermTable Terms;
  ConstraintSolver Solver;

  explicit SolverHarness(SolverOptions Options)
      : Terms(Constructors), Solver(Terms, Options) {}

  VarId var(const std::string &Name) { return Solver.freshVar(Name); }
  ExprId v(VarId Var) { return Terms.var(Var); }
  ExprId source(const std::string &Name) {
    return Terms.cons(Constructors.getOrCreate(Name, {}), {});
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Deep structures: everything must be iterative or depth-bounded
//===----------------------------------------------------------------------===//

TEST(StressTest, VeryLongChainBothForms) {
  const uint32_t N = 100000;
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
    SolverHarness H(makeConfig(Form, CycleElim::Online));
    ExprId S = H.source("s");
    VarId First = H.var("v0");
    H.Solver.addConstraint(S, H.v(First));
    VarId Prev = First;
    for (uint32_t I = 1; I != N; ++I) {
      VarId Next = H.var("v" + std::to_string(I));
      H.Solver.addConstraint(H.v(Prev), H.v(Next));
      Prev = Next;
    }
    // The least solution pass over a 100k-deep pred chain must not
    // recurse.
    EXPECT_EQ(H.Solver.leastSolution(Prev).toVector<ExprId>(),
              std::vector<ExprId>{S});
  }
}

TEST(StressTest, VeryLongCycleCollapses) {
  // A single 50k-cycle: online detection collapses progressively as the
  // ring closes; the result is one live variable... or at least a heavily
  // collapsed class with correct solutions.
  const uint32_t N = 50000;
  SolverHarness H(makeConfig(GraphForm::Inductive, CycleElim::Online));
  std::vector<VarId> Vars;
  for (uint32_t I = 0; I != N; ++I)
    Vars.push_back(H.var("r" + std::to_string(I)));
  ExprId S = H.source("s");
  H.Solver.addConstraint(S, H.v(Vars[0]));
  for (uint32_t I = 0; I != N; ++I)
    H.Solver.addConstraint(H.v(Vars[I]), H.v(Vars[(I + 1) % N]));
  H.Solver.finalize();
  // Every ring member sees the source.
  EXPECT_EQ(H.Solver.leastSolution(Vars[N / 2]).toVector<ExprId>(),
            std::vector<ExprId>{S});
  EXPECT_EQ(H.Solver.leastSolution(Vars[N - 1]).toVector<ExprId>(),
            std::vector<ExprId>{S});
}

TEST(StressTest, WideFanoutNode) {
  // One variable with tens of thousands of predecessors and successors;
  // pairing is quadratic in principle but bounded by distinct sources
  // here.
  const uint32_t Width = 20000;
  SolverHarness H(makeConfig(GraphForm::Standard, CycleElim::None));
  VarId Hub = H.var("hub");
  ExprId S = H.source("s");
  H.Solver.addConstraint(S, H.v(Hub));
  std::vector<VarId> Outs;
  for (uint32_t I = 0; I != Width; ++I) {
    VarId Out = H.var("o" + std::to_string(I));
    H.Solver.addConstraint(H.v(Hub), H.v(Out));
    Outs.push_back(Out);
  }
  H.Solver.finalize();
  EXPECT_EQ(H.Solver.leastSolution(Outs[Width - 1]).toVector<ExprId>(),
            std::vector<ExprId>{S});
  EXPECT_EQ(H.Solver.stats().RedundantAdds, 0u);
}

TEST(StressTest, DeepTermNesting) {
  // Decomposition recursion is bounded by term depth; make sure a
  // several-hundred-deep term works.
  SolverHarness H(makeConfig(GraphForm::Inductive, CycleElim::None));
  ConsId C = H.Constructors.getOrCreate("c", {Variance::Covariant});
  VarId X = H.var("X"), Y = H.var("Y");
  ExprId S = H.source("s");
  H.Solver.addConstraint(S, H.v(X));
  ExprId Lhs = H.v(X), Rhs = H.v(Y);
  for (int I = 0; I != 500; ++I) {
    Lhs = H.Terms.cons(C, {Lhs});
    Rhs = H.Terms.cons(C, {Rhs});
  }
  H.Solver.addConstraint(Lhs, Rhs);
  EXPECT_EQ(H.Solver.leastSolution(Y).toVector<ExprId>(),
            std::vector<ExprId>{S});
}

//===----------------------------------------------------------------------===//
// Abort-state behavior
//===----------------------------------------------------------------------===//

TEST(StressTest, AbortedSolverStaysUsable) {
  // On the eager worklist the abort lands inside addConstraint; on the
  // default schedule it lands when the deferred closure runs.
  for (ClosureMode Closure :
       {ClosureMode::Worklist, SolverOptions().Closure}) {
    SCOPED_TRACE(Closure == ClosureMode::Worklist ? "worklist" : "wave");
    SolverOptions Options = makeConfig(GraphForm::Standard, CycleElim::None);
    Options.MaxWork = 50;
    Options.Closure = Closure;
    SolverHarness H(Options);
    std::vector<VarId> Vars;
    for (int I = 0; I != 30; ++I)
      Vars.push_back(H.var("v" + std::to_string(I)));
    for (int I = 0; I != 10; ++I)
      H.Solver.addConstraint(H.source("s" + std::to_string(I)),
                             H.v(Vars[0]));
    for (int I = 0; I + 1 != 30; ++I)
      H.Solver.addConstraint(H.v(Vars[I]), H.v(Vars[I + 1]));
    if (Closure != ClosureMode::Worklist)
      H.Solver.ensureClosed();
    ASSERT_TRUE(H.Solver.stats().Aborted);
    // Queries on an aborted solver return partial but well-formed data.
    H.Solver.finalize();
    EXPECT_NO_FATAL_FAILURE(H.Solver.leastSolution(Vars[29]));
    EXPECT_NO_FATAL_FAILURE(H.Solver.countFinalEdges());
    EXPECT_NO_FATAL_FAILURE(H.Solver.varGraph());
  }
}

//===----------------------------------------------------------------------===//
// Randomized invariants at moderate scale
//===----------------------------------------------------------------------===//

class RandomStressTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomStressTest, MixedConstraintSoup) {
  // Random mixture of all three constraint kinds, decompositions, and
  // both 0/1 constants; solutions must agree between SF-Plain and
  // IF-Online (the strongest pairing: different form AND elimination).
  uint64_t Seed = GetParam();
  auto Run = [&](SolverOptions Options) {
    SolverHarness H(Options);
    PRNG Rng(Seed * 1009);
    ConsId Ref = H.Constructors.getOrCreate(
        "ref", {Variance::Covariant, Variance::Contravariant});
    const uint32_t N = 60;
    std::vector<VarId> Vars;
    for (uint32_t I = 0; I != N; ++I)
      Vars.push_back(H.var("v" + std::to_string(I)));
    std::vector<ExprId> Sources;
    for (int I = 0; I != 10; ++I)
      Sources.push_back(H.source("s" + std::to_string(I)));

    for (int I = 0; I != 300; ++I) {
      switch (Rng.nextBelow(6)) {
      case 0:
        H.Solver.addConstraint(H.v(Vars[Rng.nextBelow(N)]),
                               H.v(Vars[Rng.nextBelow(N)]));
        break;
      case 1:
        H.Solver.addConstraint(Sources[Rng.nextBelow(10)],
                               H.v(Vars[Rng.nextBelow(N)]));
        break;
      case 2: // ref term as source.
        H.Solver.addConstraint(
            H.Terms.cons(Ref, {H.v(Vars[Rng.nextBelow(N)]),
                               H.v(Vars[Rng.nextBelow(N)])}),
            H.v(Vars[Rng.nextBelow(N)]));
        break;
      case 3: // Read sink.
        H.Solver.addConstraint(
            H.v(Vars[Rng.nextBelow(N)]),
            H.Terms.cons(Ref, {H.v(Vars[Rng.nextBelow(N)]),
                               H.Terms.zero()}));
        break;
      case 4: // Write sink.
        H.Solver.addConstraint(
            H.v(Vars[Rng.nextBelow(N)]),
            H.Terms.cons(Ref, {H.Terms.one(),
                               H.v(Vars[Rng.nextBelow(N)])}));
        break;
      case 5:
        H.Solver.addConstraint(H.Terms.zero(), H.v(Vars[Rng.nextBelow(N)]));
        break;
      }
    }
    H.Solver.finalize();
    std::vector<std::vector<std::string>> Solutions;
    for (VarId Var : Vars) {
      std::vector<std::string> Names;
      for (ExprId Term : H.Solver.leastSolution(Var)) {
        if (H.Terms.kind(Term) == ExprKind::Cons &&
            H.Constructors.signature(H.Terms.consOf(Term)).arity() == 0)
          Names.push_back(
              H.Constructors.signature(H.Terms.consOf(Term)).Name);
        else
          Names.push_back(H.Solver.exprStr(Term));
      }
      std::sort(Names.begin(), Names.end());
      Solutions.push_back(std::move(Names));
    }
    return Solutions;
  };

  auto SFPlain = Run(makeConfig(GraphForm::Standard, CycleElim::None, Seed));
  auto IFOnline =
      Run(makeConfig(GraphForm::Inductive, CycleElim::Online, Seed));
  EXPECT_EQ(SFPlain, IFOnline);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStressTest,
                         testing::Range<uint64_t>(1, 16));

//===----------------------------------------------------------------------===//
// Randomized add/retract interleaving under the parallel wave scheduler
//===----------------------------------------------------------------------===//

namespace {

/// Tagged-line solver pair, the path retraction runs through in the serve
/// layer (ConstraintSystemFile stamps each constraint with its canonical
/// line text as the provenance tag).
struct LineHarness {
  ConstructorTable Constructors;
  TermTable Terms;
  ConstraintSolver Solver;
  ConstraintSystemFile System;

  explicit LineHarness(SolverOptions Options)
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

  /// Rendered least solutions per creation order, sorted by text so that
  /// incremental and fresh solvers compare despite differing ExprIds.
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

struct LineCorpus {
  std::vector<std::string> Decls;
  std::vector<std::string> Constraints;
};

/// Splits an .scs text into declaration lines and constraint lines.
LineCorpus splitSystem(const std::string &Text) {
  LineCorpus Out;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t First = Line.find_first_not_of(" \t");
    if (First == std::string::npos || Line[First] == '#')
      continue;
    std::string Word = Line.substr(First, Line.find(' ', First) - First);
    if (Word == "cons" || Word == "var")
      Out.Decls.push_back(Line);
    else
      Out.Constraints.push_back(Line);
  }
  return Out;
}

LineCorpus swapCorpus() {
  std::ifstream In(std::string(POCE_SOURCE_DIR) +
                   "/examples/data/swap.scs");
  EXPECT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return splitSystem(Buffer.str());
}

/// Random tagged-line system: plain var-var edges, nullary sources, and
/// ref() cells so retraction unwinds decomposition too.
LineCorpus randomCorpus(uint64_t Seed) {
  LineCorpus Out;
  PRNG Rng(Seed * 7919);
  const uint32_t Vars = 14, Cons = 4, Lines = 36;
  Out.Decls.push_back("cons ref + -");
  std::string VarLine = "var";
  for (uint32_t V = 0; V != Vars; ++V)
    VarLine += " v" + std::to_string(V);
  Out.Decls.push_back(VarLine);
  for (uint32_t C = 0; C != Cons; ++C)
    Out.Decls.push_back("cons s" + std::to_string(C));
  auto Var = [&] { return "v" + std::to_string(Rng.nextBelow(Vars)); };
  for (uint32_t I = 0; I != Lines; ++I) {
    std::string Line;
    switch (Rng.nextBelow(4)) {
    case 0:
      Line = Var() + " <= " + Var();
      break;
    case 1:
      Line = "s" + std::to_string(Rng.nextBelow(Cons)) + " <= " + Var();
      break;
    case 2:
      Line = "ref(" + Var() + ", " + Var() + ") <= " + Var();
      break;
    case 3:
      Line = Var() + " <= ref(" + Var() + ", " + Var() + ")";
      break;
    }
    if (std::find(Out.Constraints.begin(), Out.Constraints.end(), Line) ==
        Out.Constraints.end())
      Out.Constraints.push_back(Line);
  }
  return Out;
}

std::vector<std::vector<std::string>>
freshLineSolutions(SolverOptions Options, const LineCorpus &Corpus,
                   const std::vector<std::string> &Live) {
  LineHarness Fresh(Options);
  for (const std::string &Line : Corpus.Decls)
    Fresh.add(Line);
  for (const std::string &Line : Live)
    Fresh.add(Line);
  return Fresh.solutions();
}

/// Drives a random add/retract interleaving and asserts the oracle after
/// every retract: the incremental solver's rendered least solutions are
/// bit-identical to a fresh solve of the surviving lines.
void runInterleaving(SolverOptions Options, const LineCorpus &Corpus,
                     uint64_t Seed) {
  LineHarness H(Options);
  for (const std::string &Line : Corpus.Decls)
    H.add(Line);

  PRNG Rng(Seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::string> Live, Pending = Corpus.Constraints;
  // Seed with roughly half the lines, then interleave.
  for (size_t I = 0; I * 2 < Corpus.Constraints.size(); ++I) {
    Live.push_back(Pending.back());
    Pending.pop_back();
    H.add(Live.back());
  }
  for (int Op = 0; Op != 48; ++Op) {
    bool DoAdd = Live.empty() || (!Pending.empty() && Rng.nextBelow(5) < 3);
    if (DoAdd) {
      size_t Pick = Rng.nextBelow(Pending.size());
      std::swap(Pending[Pick], Pending.back());
      Live.push_back(Pending.back());
      Pending.pop_back();
      H.add(Live.back());
      continue;
    }
    size_t Pick = Rng.nextBelow(Live.size());
    std::swap(Live[Pick], Live.back());
    ASSERT_TRUE(H.retract(Live.back())) << Live.back();
    Pending.push_back(Live.back());
    Live.pop_back();
    ASSERT_EQ(H.solutions(), freshLineSolutions(Options, Corpus, Live))
        << Options.configName() << " after retracting '" << Pending.back()
        << "'";
    ASSERT_TRUE(H.Solver.verifyGraphInvariants());
  }
  EXPECT_GT(H.Solver.stats().Retractions, 0u);
}

} // namespace

class RetractInterleaveStressTest : public testing::TestWithParam<unsigned> {
};

TEST_P(RetractInterleaveStressTest, CorpusAndRandomSystems) {
  unsigned Threads = GetParam();
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
    SolverOptions Options = makeConfig(Form, CycleElim::Online);
    Options.Closure = ClosureMode::Wave;
    Options.Threads = Threads;
    runInterleaving(Options, swapCorpus(), /*Seed=*/Threads * 11u + 1);
    runInterleaving(Options, randomCorpus(Threads + 1),
                    /*Seed=*/Threads * 13u + 5);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, RetractInterleaveStressTest,
                         testing::Values(1u, 2u, 8u));
