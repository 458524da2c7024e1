//===- bench/ablation_periodic.cpp - Online vs periodic elimination --------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extension bench: the paper's introduction argues that prior work's
/// *periodic* simplification leaves a cost/benefit tuning problem ("one
/// problem is deciding the frequency at which to perform simplifications")
/// that online elimination removes. This bench implements periodic offline
/// SCC collapsing and sweeps its interval against IF-Online on a suite
/// subset: too-frequent passes pay repeated whole-graph Tarjan costs,
/// too-rare passes leave cyclic work in place, and no interval beats the
/// tuning-free online strategy.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace poce;
using namespace poce::bench;

int main() {
  BenchEnv Env = BenchEnv::fromEnv();
  if (!Env.MaxAst)
    Env.MaxAst = 40000;
  std::printf("=== Ablation: IF-Online vs periodic offline elimination ===\n");
  Env.print();

  struct Strategy {
    const char *Name;
    CycleElim Elim;
    uint64_t Interval;
  };
  const Strategy Strategies[] = {
      {"online", CycleElim::Online, 0},
      {"periodic/2k", CycleElim::Periodic, 2000},
      {"periodic/20k", CycleElim::Periodic, 20000},
      {"periodic/200k", CycleElim::Periodic, 200000},
      {"plain", CycleElim::None, 0},
  };

  TextTable Table({"Benchmark", "Strategy", "Work", "Elim", "Passes",
                   "Time(s)"});
  for (auto &Entry : prepareSuite(Env)) {
    if (Entry->Program->AstNodes < 4000)
      continue; // Cycles only matter at scale; keep the table focused.
    for (const Strategy &S : Strategies) {
      SolverOptions Options = paperConfig(GraphForm::Inductive, S.Elim);
      if (S.Interval)
        Options.PeriodicInterval = S.Interval;
      if (S.Elim == CycleElim::None)
        Options.MaxWork = Env.PlainMaxWork;
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
        if (Stats.Aborted)
          break;
      }
      Table.addRow({Entry->Program->Spec.Name, S.Name,
                    capped(Stats.Work, Stats.Aborted),
                    formatGrouped(Stats.VarsEliminated),
                    formatGrouped(Stats.PeriodicPasses),
                    cappedTime(Best, Stats.Aborted)});
    }
  }
  Table.print();
  std::printf("\nOnline needs no frequency tuning; periodic pays either "
              "pass overhead (small intervals) or residual cyclic work "
              "(large intervals).\n");
  return 0;
}
