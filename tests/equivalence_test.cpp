//===- tests/equivalence_test.cpp - Cross-configuration equivalence --------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central correctness property of the paper's design space: standard
/// and inductive form, with or without (partial or perfect) cycle
/// elimination, all compute the same least solution. These parameterized
/// suites check it on random constraint systems and on generated MiniC
/// programs through the full Andersen pipeline.
///
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"
#include "setcon/ConstraintSolver.h"
#include "setcon/Oracle.h"
#include "workload/RandomConstraints.h"
#include "workload/Suite.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace poce;

namespace {

/// All six configurations of the paper's Table 4.
std::vector<SolverOptions> allConfigs(uint64_t Seed) {
  return {
      makeConfig(GraphForm::Standard, CycleElim::None, Seed),
      makeConfig(GraphForm::Inductive, CycleElim::None, Seed),
      makeConfig(GraphForm::Standard, CycleElim::Oracle, Seed),
      makeConfig(GraphForm::Inductive, CycleElim::Oracle, Seed),
      makeConfig(GraphForm::Standard, CycleElim::Online, Seed),
      makeConfig(GraphForm::Inductive, CycleElim::Online, Seed),
  };
}

/// Least solutions keyed by variable creation index, with sources
/// identified by constructor name (stable across configurations even when
/// oracle substitution changes variable and term identities).
using Signature = std::map<uint32_t, std::set<std::string>>;

Signature lsSignature(ConstraintSolver &Solver) {
  Signature Result;
  const TermTable &Terms = Solver.terms();
  for (uint32_t Creation = 0; Creation != Solver.numCreations(); ++Creation) {
    VarId Var = Solver.varOfCreation(Creation);
    std::set<std::string> Names;
    for (ExprId Term : Solver.leastSolution(Var)) {
      if (Terms.kind(Term) == ExprKind::Cons)
        Names.insert(
            Terms.constructors().signature(Terms.consOf(Term)).Name);
      else
        Names.insert("1");
    }
    Result[Creation] = std::move(Names);
  }
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// Random constraint systems
//===----------------------------------------------------------------------===//

struct RandomCase {
  uint64_t Seed;
  uint32_t NumVars;
  uint32_t NumCons;
  double Density; ///< Edge probability as a multiple of 1/n.
};

/// Names a case by its fields; gtest would otherwise print the struct's
/// raw bytes, padding included, which differ from build to build.
void PrintTo(const RandomCase &Case, std::ostream *OS) {
  *OS << "seed=" << Case.Seed << " vars=" << Case.NumVars
      << " cons=" << Case.NumCons << " density=" << Case.Density;
}

class RandomEquivalenceTest : public testing::TestWithParam<RandomCase> {};

TEST_P(RandomEquivalenceTest, AllSixConfigsAgree) {
  const RandomCase &Case = GetParam();
  PRNG Rng(Case.Seed);
  RandomConstraintShape Shape = randomConstraintShape(
      Case.NumVars, Case.NumCons, Case.Density / Case.NumVars, Rng);

  ConstructorTable Constructors;
  SolverOptions Base =
      makeConfig(GraphForm::Inductive, CycleElim::Online, Case.Seed);
  Oracle O =
      buildOracle(workload::makeRandomGenerator(Shape), Constructors, Base);

  Signature Reference;
  bool HaveReference = false;
  for (const SolverOptions &Options : allConfigs(Case.Seed)) {
    TermTable Terms(Constructors);
    ConstraintSolver Solver(
        Terms, Options, Options.Elim == CycleElim::Oracle ? &O : nullptr);
    workload::emitRandomConstraints(Shape, Solver);
    Solver.finalize();
    Signature Sig = lsSignature(Solver);
    if (!HaveReference) {
      Reference = std::move(Sig);
      HaveReference = true;
    } else {
      EXPECT_EQ(Sig, Reference) << "configuration "
                                << Options.configName();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomEquivalenceTest,
    testing::Values(RandomCase{1, 10, 6, 1.0}, RandomCase{2, 30, 20, 1.0},
                    RandomCase{3, 30, 20, 2.0}, RandomCase{4, 60, 40, 1.5},
                    RandomCase{5, 60, 40, 3.0}, RandomCase{6, 100, 66, 1.0},
                    RandomCase{7, 100, 66, 2.0}, RandomCase{8, 150, 100, 1.2},
                    RandomCase{9, 40, 0, 2.0}, RandomCase{10, 80, 54, 0.5},
                    RandomCase{11, 25, 16, 4.0},
                    RandomCase{12, 200, 130, 1.0}),
    [](const auto &Info) {
      return "seed" + std::to_string(Info.param.Seed) + "_n" +
             std::to_string(Info.param.NumVars);
    });

//===----------------------------------------------------------------------===//
// Order-choice invariance of solutions
//===----------------------------------------------------------------------===//

TEST(OrderEquivalenceTest, SolutionsIndependentOfVariableOrder) {
  PRNG Rng(99);
  RandomConstraintShape Shape = randomConstraintShape(50, 34, 2.0 / 50, Rng);
  Signature Reference;
  bool HaveReference = false;
  for (OrderKind Order : {OrderKind::Random, OrderKind::Creation,
                          OrderKind::ReverseCreation}) {
    for (uint64_t Seed : {1ULL, 2ULL, 3ULL}) {
      ConstructorTable Constructors;
      TermTable Terms(Constructors);
      SolverOptions Options =
          makeConfig(GraphForm::Inductive, CycleElim::Online, Seed);
      Options.Order = Order;
      ConstraintSolver Solver(Terms, Options);
      workload::emitRandomConstraints(Shape, Solver);
      Solver.finalize();
      Signature Sig = lsSignature(Solver);
      if (!HaveReference) {
        Reference = std::move(Sig);
        HaveReference = true;
      } else {
        EXPECT_EQ(Sig, Reference);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Full Andersen pipeline on generated programs
//===----------------------------------------------------------------------===//

class ProgramEquivalenceTest : public testing::TestWithParam<uint32_t> {};

TEST_P(ProgramEquivalenceTest, PointsToSetsAgreeAcrossConfigs) {
  workload::ProgramSpec Spec;
  Spec.Name = "equiv";
  Spec.TargetAstNodes = GetParam();
  Spec.Seed = GetParam() * 1234567ULL;
  auto Program = workload::prepareProgram(Spec);
  ASSERT_TRUE(Program->Ok) << "generated program failed to parse";

  ConstructorTable Constructors;
  SolverOptions Base = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Oracle O = buildOracle(andersen::makeGenerator(Program->Unit),
                         Constructors, Base);

  std::map<std::string, std::vector<std::string>> Reference;
  bool HaveReference = false;
  for (const SolverOptions &Options : allConfigs(Base.Seed)) {
    andersen::AnalysisResult Result = andersen::runAnalysis(
        Program->Unit, Constructors, Options,
        Options.Elim == CycleElim::Oracle ? &O : nullptr,
        /*ExtractPointsTo=*/true);
    EXPECT_FALSE(Result.Stats.Aborted);
    if (!HaveReference) {
      Reference = std::move(Result.PointsTo);
      HaveReference = true;
    } else {
      EXPECT_EQ(Result.PointsTo, Reference)
          << "configuration " << Options.configName();
    }
  }
  EXPECT_FALSE(Reference.empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProgramEquivalenceTest,
                         testing::Values(400u, 900u, 2000u, 4000u),
                         [](const auto &Info) {
                           return "ast" + std::to_string(Info.param);
                         });
