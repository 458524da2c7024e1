//===- bench/model_theorem51.cpp - Theorem 5.1 validation ------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates Theorem 5.1 three ways:
///   1. analytically — the exact series for E[X_SF]/E[X_IF] at p = 1/n,
///      m = 2n/3 approaches ~2.5 as n grows;
///   2. by Monte-Carlo path enumeration on small random graphs, checking
///      the series themselves;
///   3. by measurement — solving random constraint systems of the model's
///      shape with the real solver under perfect (oracle) elimination and
///      comparing the SF/IF work ratio. Work here counts atomic edge
///      additions plus source-to-sink constraint arrivals, matching the
///      model's (c, c') additions.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "model/Model.h"
#include "setcon/ConstraintSolver.h"
#include "setcon/Oracle.h"
#include "support/Format.h"
#include "support/PRNG.h"
#include "workload/RandomConstraints.h"

#include <cstdio>

using namespace poce;
using namespace poce::bench;

int main() {
  std::printf("=== Theorem 5.1: E[X_SF] / E[X_IF] -> ~2.5 "
              "(p = 1/n, m = 2n/3) ===\n\n");

  std::printf("(1) analytic series (with Section 5.3's closed-form "
              "approximations):\n");
  TextTable Analytic({"n", "E[X_SF]", "~approx", "E[X_IF]", "~approx",
                      "ratio"});
  for (uint64_t N : {50ULL, 200ULL, 1000ULL, 10000ULL, 100000ULL,
                     1000000ULL}) {
    uint64_t M = 2 * N / 3;
    double P = 1.0 / static_cast<double>(N);
    double SF = model::expectedAdditionsSF(N, M, P);
    double IF = model::expectedAdditionsIF(N, M, P);
    Analytic.addRow({formatGrouped(N), formatDouble(SF, 1),
                     formatDouble(model::approxAdditionsSF(N, M), 1),
                     formatDouble(IF, 1),
                     formatDouble(model::approxAdditionsIF(N, M), 1),
                     formatDouble(SF / IF, 3)});
  }
  Analytic.print();

  std::printf("\n(2) Monte-Carlo path enumeration (small n, 3000 trials):\n");
  TextTable MC({"n", "m", "sim SF", "exact SF", "sim IF", "exact IF"});
  PRNG Rng(0x51);
  for (uint64_t N : {5ULL, 7ULL, 9ULL}) {
    uint64_t M = 2 * N / 3;
    double P = 1.0 / static_cast<double>(N);
    model::SimulationResult Sim = model::simulateModel(N, M, P, 3000, Rng);
    MC.addRow({formatGrouped(N), formatGrouped(M),
               formatDouble(Sim.AdditionsSF, 2),
               formatDouble(model::expectedAdditionsSF(N, M, P), 2),
               formatDouble(Sim.AdditionsIF, 2),
               formatDouble(model::expectedAdditionsIF(N, M, P), 2)});
  }
  MC.print();

  std::printf("\n(3) measured on the real solver (oracle elimination, "
              "averaged over 5 seeds):\n");
  TextTable Measured({"n", "SF work", "IF work", "ratio"});
  for (uint32_t N : {300u, 1000u, 3000u}) {
    uint64_t TotalSF = 0, TotalIF = 0;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      PRNG ShapeRng(Seed * 1000 + N);
      RandomConstraintShape Shape = randomConstraintShape(
          N, (2 * N) / 3, 1.0 / N, ShapeRng);
      ConstructorTable Constructors;
      SolverOptions Base =
          paperConfig(GraphForm::Inductive, CycleElim::Online, Seed);
      Oracle O = buildOracle(workload::makeRandomGenerator(Shape),
                             Constructors, Base);
      for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
        TermTable Terms(Constructors);
        ConstraintSolver Solver(Terms,
                                paperConfig(Form, CycleElim::Oracle, Seed),
                                &O);
        workload::emitRandomConstraints(Shape, Solver);
        Solver.finalize();
        // Atomic additions plus (c, c') arrivals (counted as mismatches
        // since sources and sinks are distinct constructors).
        uint64_t Work = Solver.stats().Work + Solver.stats().Mismatches;
        (Form == GraphForm::Standard ? TotalSF : TotalIF) += Work;
      }
    }
    Measured.addRow({formatGrouped(N), formatGrouped(TotalSF / 5),
                     formatGrouped(TotalIF / 5),
                     formatDouble(double(TotalSF) / double(TotalIF), 3)});
  }
  Measured.print();
  std::printf("\npaper: the model predicts ~2.5x; the paper measured 4.1x "
              "more work for SF on its benchmarks.\n");
  return 0;
}
