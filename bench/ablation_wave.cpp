//===- bench/ablation_wave.cpp - Worklist vs wave closure schedules --------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extension bench: the closure-schedule ablation. For each graph form
/// (SF/IF) and elimination strategy (None/Online/Periodic) the same random
/// constraint system is closed two ways — the eager worklist and the wave
/// schedule (topologically ordered sweeps over the CSR successor layout)
/// — and the hot-path counters are printed next to the timings, with the
/// variables SF-Online's wave-order builds collapse (Collapsed). Two
/// emission orders bound the design space: edges_first is the cascade
/// worst case for eager singleton deltas (every source arrival re-walks
/// the finished graph one delta at a time), facts_first is the bulk-load
/// pattern where the eager schedule already batches well and waves can
/// only match it.
///
/// Least-solution checksums are asserted identical across the two
/// variants; a divergence aborts the bench with an error.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "workload/RandomConstraints.h"

using namespace poce;
using namespace poce::bench;

namespace {

/// emitRandomConstraints with a selectable order (the library emitter is
/// pinned to edges-first).
void emitOrdered(const RandomConstraintShape &Shape, ConstraintSolver &Solver,
                 bool FactsFirst) {
  TermTable &Terms = Solver.terms();
  ConstructorTable &Constructors = Terms.mutableConstructors();
  std::vector<ExprId> Vars, Sources, Sinks;
  for (uint32_t I = 0; I != Shape.NumVars; ++I)
    Vars.push_back(Terms.var(Solver.freshVar("X" + std::to_string(I))));
  for (uint32_t I = 0; I != Shape.NumSources; ++I)
    Sources.push_back(Terms.cons(
        Constructors.getOrCreate("src" + std::to_string(I), {}), {}));
  for (uint32_t I = 0; I != Shape.NumSinks; ++I)
    Sinks.push_back(Terms.cons(
        Constructors.getOrCreate("snk" + std::to_string(I), {}), {}));
  auto emitFacts = [&] {
    for (const auto &[Source, Var] : Shape.SourceVar)
      Solver.addConstraint(Sources[Source], Vars[Var]);
    for (const auto &[Var, Sink] : Shape.VarSink)
      Solver.addConstraint(Vars[Var], Sinks[Sink]);
  };
  auto emitEdges = [&] {
    for (const auto &[From, To] : Shape.VarVar)
      Solver.addConstraint(Vars[From], Vars[To]);
  };
  if (FactsFirst) {
    emitFacts();
    emitEdges();
  } else {
    emitEdges();
    emitFacts();
  }
}

struct Variant {
  const char *Name;
  ClosureMode Closure;
};

const Variant Variants[] = {
    {"worklist", ClosureMode::Worklist},
    {"wave", ClosureMode::Wave},
};

struct RunResult {
  double BestSeconds = 0;
  SolverStats Stats;
  size_t SolutionBits = 0;
};

RunResult runVariant(const RandomConstraintShape &Shape, bool FactsFirst,
                     GraphForm Form, CycleElim Elim, const Variant &V,
                     unsigned Repeats) {
  RunResult Out;
  for (unsigned Repeat = 0; Repeat != Repeats; ++Repeat) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    SolverOptions Options = makeConfig(Form, Elim);
    Options.Closure = V.Closure;
    Timer T;
    ConstraintSolver Solver(Terms, Options);
    emitOrdered(Shape, Solver, FactsFirst);
    Solver.finalize();
    size_t Bits = 0;
    for (VarId Var = 0; Var != Solver.numVars(); ++Var)
      Bits += Solver.leastSolution(Var).count();
    double Seconds = T.seconds();
    if (Repeat == 0 || Seconds < Out.BestSeconds)
      Out.BestSeconds = Seconds;
    Out.Stats = Solver.stats();
    Out.SolutionBits = Bits;
  }
  return Out;
}

} // namespace

int main() {
  BenchEnv Env = BenchEnv::fromEnv();
  std::printf("=== Ablation: closure schedule (worklist vs wave) ===\n");
  Env.print();

  struct ShapeSpec {
    const char *Name;
    uint32_t NumVars, NumCons;
    double Degree;
    uint64_t Seed;
    bool FactsFirst;
  };
  const ShapeSpec Shapes[] = {
      {"cascade", 4000, 2600, 2.0, 105, /*FactsFirst=*/false},
      {"bulkload", 6000, 4000, 2.0, 101, /*FactsFirst=*/true},
  };
  const struct {
    const char *Name;
    GraphForm Form;
    CycleElim Elim;
  } Configs[] = {
      {"SF-Plain", GraphForm::Standard, CycleElim::None},
      {"SF-Online", GraphForm::Standard, CycleElim::Online},
      {"SF-Periodic", GraphForm::Standard, CycleElim::Periodic},
      {"IF-Plain", GraphForm::Inductive, CycleElim::None},
      {"IF-Online", GraphForm::Inductive, CycleElim::Online},
      {"IF-Periodic", GraphForm::Inductive, CycleElim::Periodic},
  };

  TextTable Table({"Shape", "Config", "Variant", "Time(s)", "Work",
                   "DeltaProps", "Pruned", "LSwords", "Passes", "Levels",
                   "Fallbacks", "Collapsed"});
  bool Diverged = false;
  for (const ShapeSpec &Spec : Shapes) {
    PRNG Rng(Spec.Seed);
    uint32_t NumVars = std::max<uint32_t>(
        8, static_cast<uint32_t>(Spec.NumVars * Env.Scale));
    uint32_t NumCons = std::max<uint32_t>(
        4, static_cast<uint32_t>(Spec.NumCons * Env.Scale));
    RandomConstraintShape Shape =
        randomConstraintShape(NumVars, NumCons, Spec.Degree / NumVars, Rng);

    for (const auto &Config : Configs) {
      size_t ReferenceBits = 0;
      bool HaveReference = false;
      for (const Variant &V : Variants) {
        RunResult R = runVariant(Shape, Spec.FactsFirst, Config.Form,
                                 Config.Elim, V, Env.Repeats);
        if (!HaveReference) {
          ReferenceBits = R.SolutionBits;
          HaveReference = true;
        } else if (R.SolutionBits != ReferenceBits) {
          std::fprintf(stderr,
                       "error: %s %s %s: solution checksum diverged "
                       "(%zu vs %zu)\n",
                       Spec.Name, Config.Name, V.Name, R.SolutionBits,
                       ReferenceBits);
          Diverged = true;
        }
        auto Hot = R.Stats.hotPathCounters();
        Table.addRow({Spec.Name, Config.Name, V.Name,
                      formatDouble(R.BestSeconds, 3),
                      formatGrouped(R.Stats.Work),
                      formatGrouped(Hot[0].Value),
                      formatGrouped(Hot[1].Value),
                      formatGrouped(Hot[2].Value),
                      formatGrouped(R.Stats.WavePasses),
                      formatGrouped(R.Stats.LevelsPropagated),
                      formatGrouped(R.Stats.WaveFallbacks),
                      formatGrouped(R.Stats.WaveCollapsedVars)});
      }
    }
  }
  Table.print();
  std::printf("\nThe cascade shape is where the schedule matters: eager "
              "closure pays one graph walk per singleton delta, the wave "
              "schedule batches them into level-ordered sweeps (compare "
              "DeltaProps) over a CSR layout with no pointer-chase. On "
              "the bulk-load shape the eager schedule already delivers "
              "whole source sets and the two variants converge.\n");
  return Diverged ? 1 : 0;
}
