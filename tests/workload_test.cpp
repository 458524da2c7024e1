//===- tests/workload_test.cpp - Workload generator unit tests -------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "workload/ProgramGenerator.h"
#include "workload/RandomConstraints.h"
#include "workload/Suite.h"

#include <gtest/gtest.h>

using namespace poce;
using namespace poce::workload;

TEST(ProgramGeneratorTest, Deterministic) {
  ProgramSpec Spec;
  Spec.Name = "det";
  Spec.TargetAstNodes = 3000;
  Spec.Seed = 42;
  EXPECT_EQ(generateProgram(Spec), generateProgram(Spec));
  ProgramSpec Other = Spec;
  Other.Seed = 43;
  EXPECT_NE(generateProgram(Spec), generateProgram(Other));
}

class GeneratorSizeTest : public testing::TestWithParam<uint32_t> {};

TEST_P(GeneratorSizeTest, ParsesCleanlyAndTracksTarget) {
  ProgramSpec Spec;
  Spec.Name = "size";
  Spec.TargetAstNodes = GetParam();
  Spec.Seed = GetParam() * 31 + 7;
  auto Program = prepareProgram(Spec);
  ASSERT_TRUE(Program->Ok) << (Program->Errors.empty()
                                   ? "?"
                                   : Program->Errors[0]);
  EXPECT_GT(Program->Lines, 0u);
  // Size calibration: within a factor of two of the target for programs
  // large enough to contain several modules.
  if (GetParam() >= 2000) {
    EXPECT_GT(Program->AstNodes, GetParam() / 2);
    EXPECT_LT(Program->AstNodes, GetParam() * 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorSizeTest,
                         testing::Values(500u, 2000u, 8000u, 20000u),
                         [](const auto &Info) {
                           return "target" + std::to_string(Info.param);
                         });

TEST(ProgramGeneratorTest, ProgramsContainCycleFormingIdioms) {
  ProgramSpec Spec;
  Spec.Name = "idioms";
  Spec.TargetAstNodes = 6000;
  Spec.Seed = 5;
  std::string Source = generateProgram(Spec);
  EXPECT_NE(Source.find("swap"), std::string::npos);
  EXPECT_NE(Source.find("malloc"), std::string::npos);
  EXPECT_NE(Source.find("fnptr"), std::string::npos);
  EXPECT_NE(Source.find("->next"), std::string::npos);
}

TEST(SuiteTest, CatalogMatchesPaper) {
  auto Suite = paperSuite();
  ASSERT_EQ(Suite.size(), 27u);
  EXPECT_EQ(Suite.front().Name, "allroots");
  EXPECT_EQ(Suite.back().Name, "povray-2.2");
  EXPECT_EQ(Suite.back().TargetAstNodes, 87391u);
  // Sizes ascend.
  for (size_t I = 1; I < Suite.size(); ++I)
    EXPECT_GT(Suite[I].TargetAstNodes, Suite[I - 1].TargetAstNodes);
}

TEST(SuiteTest, ScaleAndFilter) {
  auto Scaled = paperSuite(0.5);
  ASSERT_EQ(Scaled.size(), 27u);
  EXPECT_EQ(Scaled.back().TargetAstNodes, 87391u / 2);
  auto Filtered = paperSuite(1.0, 10000);
  for (const ProgramSpec &Spec : Filtered)
    EXPECT_LE(Spec.TargetAstNodes, 10000u);
  EXPECT_LT(Filtered.size(), paperSuite().size());
}

TEST(RandomConstraintsTest, EmissionMatchesShape) {
  PRNG Rng(3);
  RandomConstraintShape Shape = randomConstraintShape(40, 20, 0.05, Rng);
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::None);
  Options.Closure = ClosureMode::Worklist; // Work is read without closing.
  ConstraintSolver Solver(Terms, Options);
  workload::emitRandomConstraints(Shape, Solver);
  EXPECT_EQ(Solver.stats().VarsCreated, 40u);
  // Every initial constraint lands in the graph (minus duplicates and
  // mismatches, which the shape cannot contain).
  EXPECT_GE(Solver.stats().Work, Shape.VarVar.size() +
                                     Shape.SourceVar.size() +
                                     Shape.VarSink.size());
}
