//===- tests/parallel_determinism_test.cpp - Parallel == sequential --------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel least-solution pass and the batch-solve API advertise
/// bit-identical results for any lane count: same least-solution sets,
/// same final edges, and the same value in every SolverStats counter.
/// This test pins that contract across the examples/data corpus and
/// random constraint systems, over both graph forms, with and without
/// online elimination and difference propagation, at 1 vs 2 vs 8 lanes.
///
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"
#include "setcon/ConstraintSolver.h"
#include "support/PRNG.h"
#include "workload/RandomConstraints.h"
#include "workload/Suite.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace poce;

#ifndef POCE_SOURCE_DIR
#define POCE_SOURCE_DIR "."
#endif

namespace {

void expectStatsEqual(const SolverStats &A, const SolverStats &B,
                      const std::string &Context) {
  EXPECT_EQ(A.VarsCreated, B.VarsCreated) << Context;
  EXPECT_EQ(A.OracleSubstitutions, B.OracleSubstitutions) << Context;
  EXPECT_EQ(A.InitialEdges, B.InitialEdges) << Context;
  EXPECT_EQ(A.DistinctSources, B.DistinctSources) << Context;
  EXPECT_EQ(A.DistinctSinks, B.DistinctSinks) << Context;
  EXPECT_EQ(A.Work, B.Work) << Context;
  EXPECT_EQ(A.RedundantAdds, B.RedundantAdds) << Context;
  EXPECT_EQ(A.SelfEdges, B.SelfEdges) << Context;
  EXPECT_EQ(A.VarsEliminated, B.VarsEliminated) << Context;
  EXPECT_EQ(A.CyclesCollapsed, B.CyclesCollapsed) << Context;
  EXPECT_EQ(A.CycleSearchSteps, B.CycleSearchSteps) << Context;
  EXPECT_EQ(A.CycleSearches, B.CycleSearches) << Context;
  EXPECT_EQ(A.PeriodicPasses, B.PeriodicPasses) << Context;
  EXPECT_EQ(A.Mismatches, B.Mismatches) << Context;
  EXPECT_EQ(A.ConstraintsProcessed, B.ConstraintsProcessed) << Context;
  EXPECT_EQ(A.LSUnionWords, B.LSUnionWords) << Context;
  EXPECT_EQ(A.DeltaPropagations, B.DeltaPropagations) << Context;
  EXPECT_EQ(A.PropagationsPruned, B.PropagationsPruned) << Context;
  EXPECT_EQ(A.Aborted, B.Aborted) << Context;
}

struct SolveSnapshot {
  SolverStats Stats;
  uint64_t FinalEdges = 0;
  std::vector<std::vector<ExprId>> LeastSolutions;
};

/// Solves one random system at \p Threads lanes and snapshots everything
/// the determinism contract covers.
SolveSnapshot solveRandom(const RandomConstraintShape &Shape,
                          SolverOptions Options, unsigned Threads) {
  Options.Threads = Threads;
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, Options);
  workload::emitRandomConstraints(Shape, Solver);
  Solver.finalize();

  SolveSnapshot Snap;
  Snap.Stats = Solver.stats();
  Snap.FinalEdges = Solver.countFinalEdges();
  Snap.LeastSolutions.reserve(Solver.numVars());
  for (VarId Var = 0; Var != Solver.numVars(); ++Var)
    Snap.LeastSolutions.push_back(Solver.leastSolution(Var).toVector<ExprId>());
  return Snap;
}

struct RandomCase {
  GraphForm Form;
  CycleElim Elim;
  bool DiffProp;
  uint32_t NumVars;
  uint32_t NumCons;
  uint64_t Seed;
};

/// Names a case by its fields; gtest would otherwise print the struct's
/// raw bytes, padding included, which differ from build to build.
void PrintTo(const RandomCase &Case, std::ostream *OS) {
  *OS << makeConfig(Case.Form, Case.Elim).configName()
      << (Case.DiffProp ? "+diff" : "") << " vars=" << Case.NumVars
      << " cons=" << Case.NumCons << " seed=" << Case.Seed;
}

class RandomDeterminismTest : public testing::TestWithParam<RandomCase> {};

TEST_P(RandomDeterminismTest, LaneCountIsInvisible) {
  const RandomCase &Case = GetParam();
  PRNG Rng(Case.Seed);
  RandomConstraintShape Shape = randomConstraintShape(
      Case.NumVars, Case.NumCons, 1.5 / Case.NumVars, Rng);

  SolverOptions Options = makeConfig(Case.Form, Case.Elim);
  Options.DiffProp = Case.DiffProp;

  SolveSnapshot Sequential = solveRandom(Shape, Options, 1);
  for (unsigned Threads : {2u, 8u}) {
    SolveSnapshot Parallel = solveRandom(Shape, Options, Threads);
    std::string Context = std::string(Options.configName()) +
                          (Case.DiffProp ? "+diff" : "") + " threads=" +
                          std::to_string(Threads);
    expectStatsEqual(Sequential.Stats, Parallel.Stats, Context);
    EXPECT_EQ(Sequential.FinalEdges, Parallel.FinalEdges) << Context;
    ASSERT_EQ(Sequential.LeastSolutions.size(),
              Parallel.LeastSolutions.size())
        << Context;
    for (size_t Var = 0; Var != Sequential.LeastSolutions.size(); ++Var)
      EXPECT_EQ(Sequential.LeastSolutions[Var],
                Parallel.LeastSolutions[Var])
          << Context << " var=" << Var;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RandomDeterminismTest,
    testing::Values(
        RandomCase{GraphForm::Inductive, CycleElim::None, true, 800, 500, 7},
        RandomCase{GraphForm::Inductive, CycleElim::None, false, 800, 500,
                   7},
        RandomCase{GraphForm::Inductive, CycleElim::Online, true, 1200, 800,
                   11},
        RandomCase{GraphForm::Inductive, CycleElim::Online, false, 1200, 800,
                   11},
        RandomCase{GraphForm::Standard, CycleElim::None, true, 800, 500, 13},
        RandomCase{GraphForm::Standard, CycleElim::Online, true, 1200, 800,
                   17},
        RandomCase{GraphForm::Standard, CycleElim::Online, false, 1200, 800,
                   17}),
    [](const auto &Info) {
      const RandomCase &Case = Info.param;
      std::string Name =
          Case.Form == GraphForm::Inductive ? "IF" : "SF";
      Name += Case.Elim == CycleElim::Online ? "Online" : "Plain";
      Name += Case.DiffProp ? "Diff" : "Elem";
      return Name;
    });

//===----------------------------------------------------------------------===//
// Corpus end-to-end: runAnalysis with Options.Threads
//===----------------------------------------------------------------------===//

class CorpusDeterminismTest : public testing::TestWithParam<const char *> {};

TEST_P(CorpusDeterminismTest, AnalysisIdenticalAcrossLaneCounts) {
  std::string Path = std::string(POCE_SOURCE_DIR) + "/examples/data/" +
                     GetParam();
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  minic::TranslationUnit Unit;
  ASSERT_TRUE(andersen::parseSource(Buffer.str(), Unit));

  for (GraphForm Form : {GraphForm::Inductive, GraphForm::Standard}) {
    for (CycleElim Elim : {CycleElim::None, CycleElim::Online}) {
      SolverOptions Options = makeConfig(Form, Elim);
      ConstructorTable SeqCons, ParCons;
      Options.Threads = 1;
      andersen::AnalysisResult Sequential = andersen::runAnalysis(
          Unit, SeqCons, Options, nullptr, /*ExtractPointsTo=*/true);
      Options.Threads = 8;
      andersen::AnalysisResult Parallel = andersen::runAnalysis(
          Unit, ParCons, Options, nullptr, /*ExtractPointsTo=*/true);

      std::string Context = std::string(GetParam()) + " " +
                            Options.configName();
      expectStatsEqual(Sequential.Stats, Parallel.Stats, Context);
      EXPECT_EQ(Sequential.FinalEdges, Parallel.FinalEdges) << Context;
      EXPECT_EQ(Sequential.PointsTo, Parallel.PointsTo) << Context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusDeterminismTest,
                         testing::Values("list.c", "events.c", "calc.c",
                                         "strings.c"),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           return Name.substr(0, Name.find('.'));
                         });

//===----------------------------------------------------------------------===//
// Batch solving: solveSuite lane count is invisible too
//===----------------------------------------------------------------------===//

TEST(BatchSolveTest, SuiteResultsIdenticalAcrossLaneCounts) {
  std::vector<workload::ProgramSpec> Specs = workload::paperSuite(0.02);
  ASSERT_FALSE(Specs.empty());
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);

  std::vector<workload::BatchSolveResult> Sequential =
      workload::solveSuite(Specs, Options, /*Threads=*/1,
                           /*ExtractPointsTo=*/true);
  std::vector<workload::BatchSolveResult> Parallel =
      workload::solveSuite(Specs, Options, /*Threads=*/3,
                           /*ExtractPointsTo=*/true);

  ASSERT_EQ(Sequential.size(), Specs.size());
  ASSERT_EQ(Parallel.size(), Specs.size());
  for (size_t I = 0; I != Specs.size(); ++I) {
    std::string Context = "entry " + Sequential[I].Spec.Name;
    EXPECT_EQ(Sequential[I].Ok, Parallel[I].Ok) << Context;
    EXPECT_EQ(Sequential[I].AstNodes, Parallel[I].AstNodes) << Context;
    expectStatsEqual(Sequential[I].Result.Stats, Parallel[I].Result.Stats,
                     Context);
    EXPECT_EQ(Sequential[I].Result.FinalEdges, Parallel[I].Result.FinalEdges)
        << Context;
    EXPECT_EQ(Sequential[I].Result.PointsTo, Parallel[I].Result.PointsTo)
        << Context;
  }
}

TEST(BatchSolveTest, OracleConfigBuildsPerEntryOracles) {
  // CycleElim::Oracle needs a per-entry witness oracle; solveSuite builds
  // them internally. Smoke-check it solves and eliminates nothing less
  // than the online runs do on at least one entry.
  std::vector<workload::ProgramSpec> Specs = workload::paperSuite(0.02);
  ASSERT_FALSE(Specs.empty());
  Specs.resize(std::min<size_t>(Specs.size(), 2));
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Oracle);
  std::vector<workload::BatchSolveResult> Results =
      workload::solveSuite(Specs, Options, /*Threads=*/2);
  ASSERT_EQ(Results.size(), Specs.size());
  for (const workload::BatchSolveResult &R : Results)
    EXPECT_TRUE(R.Ok) << R.Spec.Name;
}

} // namespace
