//===- tests/model_test.cpp - Analytical model unit tests ------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "model/Model.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace poce;
using namespace poce::model;

TEST(ModelTest, TinyGraphByHand) {
  // n = 2, m = 1, only paths c -> X1 -> X2 etc. For SF:
  // E[X_SF(c,X)] = C(1,1) 1! p^2 = p^2; with mn = 2 such edges, plus
  // E[X_SF(c,c')] = 0 since m = 1.
  double P = 0.5;
  double Expected = 2 * (P * P);
  EXPECT_NEAR(expectedAdditionsSF(2, 1, P), Expected, 1e-12);
}

TEST(ModelTest, SFExceedsIF) {
  for (uint64_t N : {100ULL, 1000ULL, 10000ULL}) {
    uint64_t M = 2 * N / 3;
    double P = 1.0 / static_cast<double>(N);
    EXPECT_GT(expectedAdditionsSF(N, M, P), expectedAdditionsIF(N, M, P));
  }
}

TEST(ModelTest, Theorem51RatioApproaches2Point5) {
  // The paper: asymptotically E[X_SF]/E[X_IF] is about 2.5 at p = 1/n,
  // m/n = 2/3.
  double Ratio = theorem51Ratio(1000000);
  EXPECT_GT(Ratio, 2.0);
  EXPECT_LT(Ratio, 3.0);
  // The ratio grows toward its limit.
  EXPECT_GT(theorem51Ratio(100000), theorem51Ratio(1000) * 0.8);
}

TEST(ModelTest, Theorem52BoundAtK2) {
  // E[R_X] < (e^2 - 1 - 2)/2 ~ 2.19 at p = 2/n.
  double Bound = reachableClosedForm(2.0);
  EXPECT_NEAR(Bound, 2.194, 0.01);
  double Series = expectedReachable(100000, 2.0 / 100000.0);
  EXPECT_LE(Series, Bound + 1e-9);
  EXPECT_GT(Series, Bound * 0.95); // The series converges to the bound.
}

TEST(ModelTest, ClosedFormApproximationsTrackTheSeries) {
  // Section 5.3: at p = 1/n the closed forms approximate the exact series
  // within a modest factor for large n (they drop lower-order terms).
  for (uint64_t N : {10000ULL, 100000ULL, 1000000ULL}) {
    uint64_t M = 2 * N / 3;
    double P = 1.0 / static_cast<double>(N);
    double ExactSF = expectedAdditionsSF(N, M, P);
    double ApproxSF = approxAdditionsSF(N, M);
    EXPECT_GT(ApproxSF, ExactSF * 0.5);
    EXPECT_LT(ApproxSF, ExactSF * 2.0);
    double ExactIF = expectedAdditionsIF(N, M, P);
    double ApproxIF = approxAdditionsIF(N, M);
    EXPECT_GT(ApproxIF, ExactIF * 0.5);
    EXPECT_LT(ApproxIF, ExactIF * 2.0);
  }
}

TEST(ModelTest, ApproximateRatioAlsoApproaches2Point5) {
  double Ratio = approxAdditionsSF(1000000, 666666) /
                 approxAdditionsIF(1000000, 666666);
  EXPECT_NEAR(Ratio, 2.5, 0.25);
}

TEST(ModelTest, ReachableGrowsSharplyWithDensity) {
  double AtK2 = reachableClosedForm(2.0);
  double AtK6 = reachableClosedForm(6.0);
  EXPECT_GT(AtK6, AtK2 * 10); // "climbs sharply" past sparse densities.
}

TEST(ModelTest, SeriesMonotoneInP) {
  EXPECT_LT(expectedAdditionsSF(1000, 600, 0.0005),
            expectedAdditionsSF(1000, 600, 0.001));
  EXPECT_LT(expectedAdditionsIF(1000, 600, 0.0005),
            expectedAdditionsIF(1000, 600, 0.001));
  EXPECT_LT(expectedReachable(1000, 0.0005), expectedReachable(1000, 0.002));
}

TEST(ModelTest, DegenerateSizes) {
  EXPECT_EQ(expectedReachable(1, 0.5), 0.0);
  EXPECT_EQ(expectedAdditionsSF(1, 0, 0.5), 0.0);
  EXPECT_GE(expectedAdditionsIF(2, 1, 0.5), 0.0);
}

//===----------------------------------------------------------------------===//
// Monte-Carlo validation of the closed-form series
//===----------------------------------------------------------------------===//

struct MCCase {
  uint64_t N, M;
  double P;
};

/// Names a case by its fields; gtest would otherwise print the struct's
/// raw bytes, padding included, which differ from build to build.
void PrintTo(const MCCase &Case, std::ostream *OS) {
  *OS << "n=" << Case.N << " m=" << Case.M << " p=" << Case.P;
}

class ModelSimulationTest : public testing::TestWithParam<MCCase> {};

TEST_P(ModelSimulationTest, SimulationMatchesSeries) {
  const MCCase &Case = GetParam();
  PRNG Rng(Case.N * 1000 + Case.M);
  SimulationResult Sim =
      simulateModel(Case.N, Case.M, Case.P, /*Trials=*/4000, Rng);
  double ExactSF = expectedAdditionsSF(Case.N, Case.M, Case.P);
  double ExactIF = expectedAdditionsIF(Case.N, Case.M, Case.P);
  double ExactReach = expectedReachable(Case.N, Case.P);
  // 4000 trials: expect agreement within ~10% (plus slack for tiny
  // absolute values).
  EXPECT_NEAR(Sim.AdditionsSF, ExactSF, std::max(0.05, ExactSF * 0.12));
  EXPECT_NEAR(Sim.AdditionsIF, ExactIF, std::max(0.05, ExactIF * 0.12));
  // The reachable series is an upper bound (it counts chains, not nodes),
  // tight for sparse graphs.
  EXPECT_LE(Sim.Reachable, ExactReach * 1.12 + 0.05);
  EXPECT_GE(Sim.Reachable, ExactReach * 0.6 - 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ModelSimulationTest,
    testing::Values(MCCase{5, 3, 0.2}, MCCase{6, 4, 1.0 / 6},
                    MCCase{8, 5, 1.0 / 8}, MCCase{8, 5, 2.0 / 8},
                    MCCase{10, 6, 1.0 / 10}),
    [](const auto &Info) {
      return "n" + std::to_string(Info.param.N) + "m" +
             std::to_string(Info.param.M) + "p" +
             std::to_string(int(Info.param.P * 1000));
    });
