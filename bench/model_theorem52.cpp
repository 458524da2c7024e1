//===- bench/model_theorem52.cpp - Theorem 5.2 validation ------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates Theorem 5.2 — the expected number of variables reachable
/// through predecessor chains is small (< 2.2 at density p = 2/n), which
/// is why online detection costs constant time per edge:
///   1. analytic series vs the closed form (e^k - 1 - k)/k;
///   2. Monte-Carlo measurement on small random graphs;
///   3. measured mean chain length on the real constraint graphs of the
///      benchmark suite after an IF-Online solve, plus the solver's own
///      per-search step counter.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "model/Model.h"
#include "support/PRNG.h"

using namespace poce;
using namespace poce::bench;

int main() {
  std::printf("=== Theorem 5.2: expected chain-reachable variables ===\n\n");

  std::printf("(1) analytic series vs closed form:\n");
  TextTable Analytic({"k", "series (n=1e5)", "(e^k-1-k)/k"});
  for (double K : {0.5, 1.0, 2.0, 3.0, 4.0}) {
    Analytic.addRow(
        {formatDouble(K, 1),
         formatDouble(model::expectedReachable(100000, K / 100000.0), 3),
         formatDouble(model::reachableClosedForm(K), 3)});
  }
  Analytic.print();

  std::printf("\n(2) Monte-Carlo on random graphs (n=9, 3000 trials):\n");
  TextTable MC({"k", "simulated", "series"});
  PRNG Rng(0x52);
  for (double K : {1.0, 2.0, 3.0}) {
    model::SimulationResult Sim =
        model::simulateModel(9, 6, K / 9.0, 3000, Rng);
    MC.addRow({formatDouble(K, 1), formatDouble(Sim.Reachable, 3),
               formatDouble(model::expectedReachable(9, K / 9.0), 3)});
  }
  MC.print();

  std::printf("\n(3) measured on benchmark constraint graphs "
              "(IF-Online):\n");
  BenchEnv Env = BenchEnv::fromEnv();
  Env.print();
  TextTable Measured({"Benchmark", "LiveVars", "MeanReach",
                      "Steps/Search"});
  for (auto &Entry : prepareSuite(Env)) {
    SolverOptions Options =
        paperConfig(GraphForm::Inductive, CycleElim::Online);
    TermTable Terms(Entry->Constructors);
    ConstraintSolver Solver(Terms, Options);
    andersen::ConstraintGenerator Generator(Solver);
    Generator.run(Entry->Program->Unit);
    Solver.finalize();

    uint64_t Total = 0;
    uint32_t Live = 0;
    for (VarId Var = 0; Var != Solver.numVars(); ++Var) {
      if (!Solver.isLive(Var))
        continue;
      ++Live;
      Total += Solver.countPredChainReachable(Var);
    }
    double StepsPerSearch =
        Solver.stats().CycleSearches
            ? double(Solver.stats().CycleSearchSteps) /
                  double(Solver.stats().CycleSearches)
            : 0.0;
    Measured.addRow({Entry->Program->Spec.Name, formatGrouped(Live),
                     formatDouble(Live ? double(Total) / Live : 0.0, 2),
                     formatDouble(StepsPerSearch, 2)});
  }
  Measured.print();
  std::printf("\npaper: the bound at k = 2 is ~2.2, and it observed the "
              "reachable count \"close to two\" in practice.\n");
  return 0;
}
