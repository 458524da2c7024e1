//===- bench/ablation_sf_increasing.cpp - SF chain-direction ablation ------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation from Section 4's discussion: standard-form detection normally
/// follows successor chains toward lower-ordered variables; the paper
/// notes that searching increasing chains raises the detection rate (they
/// measured 57%) but that the extra cost outweighs the benefit. This bench
/// measures detection counts, work, and time for decreasing, increasing,
/// and combined chain searches on a suite subset.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace poce;
using namespace poce::bench;

int main() {
  BenchEnv Env = BenchEnv::fromEnv();
  // A subset keeps the three-way sweep affordable.
  if (!Env.MaxAst)
    Env.MaxAst = 20000;
  std::printf("=== Ablation: SF-Online chain-search direction ===\n");
  Env.print();

  TextTable Table({"Benchmark", "Mode", "Elim", "Rate", "Work", "Time(s)"});
  for (auto &Entry : prepareSuite(Env)) {
    uint64_t Eliminable = Entry->oracle().eliminableVars();
    for (SFChainMode Mode : {SFChainMode::Decreasing,
                             SFChainMode::Increasing, SFChainMode::Both}) {
      SolverOptions Options =
          paperConfig(GraphForm::Standard, CycleElim::Online);
      Options.SFChains = Mode;
      double Best = 0;
      SolverStats Stats;
      for (unsigned Repeat = 0; Repeat != Env.Repeats; ++Repeat) {
        TermTable Terms(Entry->Constructors);
        Timer T;
        ConstraintSolver Solver(Terms, Options);
        andersen::ConstraintGenerator Generator(Solver);
        Generator.run(Entry->Program->Unit);
        Solver.finalize();
        double Seconds = T.seconds();
        if (Repeat == 0 || Seconds < Best)
          Best = Seconds;
        Stats = Solver.stats();
      }
      const char *Name = Mode == SFChainMode::Decreasing ? "decreasing"
                         : Mode == SFChainMode::Increasing ? "increasing"
                                                           : "both";
      double Rate =
          Eliminable ? 100.0 * Stats.VarsEliminated / Eliminable : 0.0;
      Table.addRow({Entry->Program->Spec.Name, Name,
                    formatGrouped(Stats.VarsEliminated),
                    formatDouble(Rate, 1) + "%", formatGrouped(Stats.Work),
                    formatDouble(Best, 3)});
    }
  }
  Table.print();
  return 0;
}
