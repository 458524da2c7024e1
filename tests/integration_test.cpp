//===- tests/integration_test.cpp - End-to-end integration tests -----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-module integration: generated benchmark programs run through the
/// full pipeline under every configuration, checking the relationships the
/// evaluation section depends on (work orderings, detection bounds,
/// oracle acyclicity, and the paper's qualitative claims at small scale).
///
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"
#include "graph/TarjanSCC.h"
#include "setcon/Oracle.h"
#include "workload/Suite.h"

#include <gtest/gtest.h>

using namespace poce;
using namespace poce::andersen;

namespace {

struct PipelineRun {
  std::unique_ptr<workload::PreparedProgram> Program;
  ConstructorTable Constructors;
  Oracle WitnessOracle;
  AnalysisResult SFPlain, IFPlain, SFOnline, IFOnline, SFOracle, IFOracle;
};

std::unique_ptr<PipelineRun> runPipeline(uint32_t TargetAst, uint64_t Seed) {
  auto Run = std::make_unique<PipelineRun>();
  workload::ProgramSpec Spec;
  Spec.Name = "integration";
  Spec.TargetAstNodes = TargetAst;
  Spec.Seed = Seed;
  Run->Program = workload::prepareProgram(Spec);
  EXPECT_TRUE(Run->Program->Ok);

  SolverOptions Base = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Run->WitnessOracle = buildOracle(makeGenerator(Run->Program->Unit),
                                   Run->Constructors, Base);

  auto Analyze = [&](GraphForm Form, CycleElim Elim) {
    return runAnalysis(Run->Program->Unit, Run->Constructors,
                       makeConfig(Form, Elim),
                       Elim == CycleElim::Oracle ? &Run->WitnessOracle
                                                 : nullptr,
                       /*ExtractPointsTo=*/false);
  };
  Run->SFPlain = Analyze(GraphForm::Standard, CycleElim::None);
  Run->IFPlain = Analyze(GraphForm::Inductive, CycleElim::None);
  Run->SFOnline = Analyze(GraphForm::Standard, CycleElim::Online);
  Run->IFOnline = Analyze(GraphForm::Inductive, CycleElim::Online);
  Run->SFOracle = Analyze(GraphForm::Standard, CycleElim::Oracle);
  Run->IFOracle = Analyze(GraphForm::Inductive, CycleElim::Oracle);
  return Run;
}

} // namespace

class PipelineTest : public testing::TestWithParam<uint32_t> {};

TEST_P(PipelineTest, EvaluationShapeHolds) {
  auto Run = runPipeline(GetParam(), GetParam() * 7919);

  // Nothing aborted at these sizes.
  for (const AnalysisResult *Result :
       {&Run->SFPlain, &Run->IFPlain, &Run->SFOnline, &Run->IFOnline,
        &Run->SFOracle, &Run->IFOracle})
    EXPECT_FALSE(Result->Stats.Aborted);

  // Online elimination can only reduce work relative to plain, per form.
  EXPECT_LE(Run->IFOnline.Stats.Work, Run->IFPlain.Stats.Work);
  EXPECT_LE(Run->SFOnline.Stats.Work, Run->SFPlain.Stats.Work);

  // Perfect elimination is far below the plain runs. (It is not strictly
  // below the online runs: witness substitution changes the random order
  // assignment, which perturbs inductive-form edge orientations by a few
  // percent either way.)
  EXPECT_LE(Run->IFOracle.Stats.Work, Run->IFPlain.Stats.Work);
  EXPECT_LE(Run->SFOracle.Stats.Work, Run->SFPlain.Stats.Work);
  EXPECT_LE(Run->IFOracle.Stats.Work, Run->IFOnline.Stats.Work * 3 / 2);
  EXPECT_LE(Run->SFOracle.Stats.Work, Run->SFOnline.Stats.Work * 3 / 2);

  // Oracle runs never collapse (their graphs are already acyclic) and
  // never substitute more than the ground truth allows.
  EXPECT_EQ(Run->IFOracle.Stats.VarsEliminated, 0u);
  EXPECT_EQ(Run->SFOracle.Stats.VarsEliminated, 0u);
  EXPECT_EQ(Run->IFOracle.Stats.OracleSubstitutions,
            Run->WitnessOracle.eliminableVars());

  // Partial detection never beats the oracle ground truth.
  EXPECT_LE(Run->IFOnline.Stats.VarsEliminated,
            Run->WitnessOracle.eliminableVars());
  EXPECT_LE(Run->SFOnline.Stats.VarsEliminated,
            Run->WitnessOracle.eliminableVars());

  // IF exposes at least part of every cyclic program (there are cycles in
  // these workloads by construction).
  EXPECT_GT(Run->WitnessOracle.eliminableVars(), 0u);
  EXPECT_GT(Run->IFOnline.Stats.VarsEliminated, 0u);
}

TEST_P(PipelineTest, DetectionRateOrdering) {
  auto Run = runPipeline(GetParam(), GetParam() * 104729);
  // The paper's Figure 11: IF detects about twice the fraction SF does.
  // At small scale we only require IF >= SF.
  EXPECT_GE(Run->IFOnline.Stats.VarsEliminated,
            Run->SFOnline.Stats.VarsEliminated);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PipelineTest,
                         testing::Values(1500u, 4000u, 9000u),
                         [](const auto &Info) {
                           return "ast" + std::to_string(Info.param);
                         });

TEST(IntegrationTest, LargerProgramsShowIFOnlineAdvantage) {
  // The headline claim at moderate scale: IF-Online does less work than
  // SF-Plain, and IF-Plain does the most work of all four.
  auto Run = runPipeline(20000, 31337);
  EXPECT_LT(Run->IFOnline.Stats.Work, Run->SFPlain.Stats.Work);
  EXPECT_GT(Run->IFPlain.Stats.Work, Run->SFPlain.Stats.Work);
}

TEST(IntegrationTest, WorkCapProducesAbortedRuns) {
  workload::ProgramSpec Spec;
  Spec.Name = "capped";
  Spec.TargetAstNodes = 6000;
  Spec.Seed = 5;
  auto Program = workload::prepareProgram(Spec);
  ASSERT_TRUE(Program->Ok);
  ConstructorTable Constructors;
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::None);
  Options.MaxWork = 1000;
  AnalysisResult Result = runAnalysis(Program->Unit, Constructors, Options,
                                      nullptr, /*ExtractPointsTo=*/false);
  EXPECT_TRUE(Result.Stats.Aborted);
  EXPECT_GE(Result.Stats.Work, 1000u);
}

TEST(IntegrationTest, SolverStatisticsConsistency) {
  auto Run = runPipeline(3000, 777);
  for (const AnalysisResult *Result :
       {&Run->SFPlain, &Run->IFPlain, &Run->SFOnline, &Run->IFOnline}) {
    const SolverStats &Stats = Result->Stats;
    EXPECT_EQ(Stats.distinctAdds(),
              Stats.Work - Stats.RedundantAdds - Stats.SelfEdges);
    EXPECT_LE(Stats.RedundantAdds + Stats.SelfEdges, Stats.Work);
    EXPECT_LE(Stats.InitialEdges, Stats.Work);
    EXPECT_GT(Stats.ConstraintsProcessed, 0u);
    // Final edges never exceed distinct additions.
    EXPECT_LE(Result->FinalEdges, Stats.distinctAdds());
  }
}

TEST(IntegrationTest, InitialCyclesAreMinorityOfFinalCycles) {
  // Paper Section 2.5: "in the majority of our benchmarks, less than 20%
  // of the variables in SCCs in the final graph also appear in SCCs in
  // the initial graph." Check the weaker directional claim: closure
  // discovers strictly more cyclic variables than the initial constraints
  // contain.
  workload::ProgramSpec Spec;
  Spec.Name = "cycgrowth";
  Spec.TargetAstNodes = 8000;
  Spec.Seed = 11;
  auto Program = workload::prepareProgram(Spec);
  ASSERT_TRUE(Program->Ok);

  ConstructorTable Constructors;
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Options.RecordVarVar = true;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, Options);
  ConstraintGenerator Generator(Solver);
  Generator.run(Program->Unit);
  Solver.finalize();

  uint32_t InitialCyclic =
      computeSCCs(rowsFromEdges(Solver.numCreations(),
                                Solver.recordedInitialVarVar()))
          .numNodesInNontrivialSCCs();

  SolverOptions Base = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Oracle O =
      buildOracle(makeGenerator(Program->Unit), Constructors, Base);
  EXPECT_LT(InitialCyclic, O.varsInNontrivialClasses());
}

TEST(IntegrationTest, DriverStyleFileAnalysis) {
  // Exercise the file-oriented entry point the anders tool uses.
  const char *Source = "int x; int *p;\n"
                       "int main(void) { p = &x; return 0; }\n";
  minic::TranslationUnit Unit;
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseSource(Source, Unit, &Errors, "file.c"));
  ConstructorTable Constructors;
  AnalysisResult Result = runAnalysis(
      Unit, Constructors, makeConfig(GraphForm::Inductive, CycleElim::Online));
  EXPECT_EQ(Result.pointsTo("p"), std::vector<std::string>{"x"});
  std::vector<std::string> BadErrors;
  minic::TranslationUnit BadUnit;
  EXPECT_FALSE(parseSource("int x", BadUnit, &BadErrors, "bad.c"));
  EXPECT_FALSE(BadErrors.empty());
}
