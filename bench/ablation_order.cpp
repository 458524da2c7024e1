//===- bench/ablation_order.cpp - Variable-order ablation ------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the variable order o(.) used by inductive form and the
/// chain searches. The paper: "Choosing a good order is hard, and we have
/// found that a random order performs as well or better than any other
/// order we picked." Compares random (three seeds), creation, and
/// reverse-creation orders under IF-Online on a suite subset.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace poce;
using namespace poce::bench;

int main() {
  BenchEnv Env = BenchEnv::fromEnv();
  if (!Env.MaxAst)
    Env.MaxAst = 20000;
  std::printf("=== Ablation: variable order under IF-Online ===\n");
  Env.print();

  struct OrderChoice {
    const char *Name;
    OrderKind Kind;
    uint64_t Seed;
  };
  const OrderChoice Choices[] = {
      {"random#1", OrderKind::Random, 1},
      {"random#2", OrderKind::Random, 2},
      {"random#3", OrderKind::Random, 3},
      {"creation", OrderKind::Creation, 1},
      {"reverse", OrderKind::ReverseCreation, 1},
  };

  TextTable Table({"Benchmark", "Order", "Elim", "Work", "Time(s)"});
  for (auto &Entry : prepareSuite(Env)) {
    for (const OrderChoice &Choice : Choices) {
      SolverOptions Options =
          paperConfig(GraphForm::Inductive, CycleElim::Online, Choice.Seed);
      Options.Order = Choice.Kind;
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
      Table.addRow({Entry->Program->Spec.Name, Choice.Name,
                    formatGrouped(Stats.VarsEliminated),
                    formatGrouped(Stats.Work), formatDouble(Best, 3)});
    }
  }
  Table.print();
  return 0;
}
