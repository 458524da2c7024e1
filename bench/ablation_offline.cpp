//===- bench/ablation_offline.cpp - Offline vs online vs hybrid elimination ===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extension bench: the offline-preprocessing ablation. For each graph
/// form (SF/IF) and online strategy (None/Online/Periodic) the same
/// cycle-heavy random constraint system is solved with and without
/// PreprocessMode::Offline (HVN pointer-equivalence labeling plus Nuutila
/// SCC substitution before the first closure), and the cycle variables
/// each layer catches are tabulated against the Oracle ground-truth bound
/// (the perfect eliminator of the paper's *-Oracle experiments):
///
///   OffVars    variables substituted by the offline SCC pass
///   OnVars     variables collapsed by online/periodic search afterwards
///   Caught     OffVars + OnVars, never above the Oracle bound
///   Oracle%    Caught as a percentage of Oracle::eliminableVars()
///
/// The preprocess=offline rows with Elim=None isolate the pure offline
/// strategy; with Elim=Online/Periodic they are the hybrid cascade the
/// tentpole ships. Least-solution checksums are asserted identical
/// between the pass-on and pass-off runs of every configuration; a
/// divergence, a Caught value above the Oracle bound, or an offline catch
/// below 20% of the bound on a collapse-bearing shape aborts with an
/// error.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "setcon/ConstraintSolver.h"
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

struct RunResult {
  double BestSeconds = 0;
  SolverStats Stats;
  size_t SolutionBits = 0;
};

RunResult runVariant(const RandomConstraintShape &Shape, bool FactsFirst,
                     GraphForm Form, CycleElim Elim, PreprocessMode Pre,
                     unsigned Repeats) {
  RunResult Out;
  for (unsigned Repeat = 0; Repeat != Repeats; ++Repeat) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    SolverOptions Options = paperConfig(Form, Elim);
    Options.Preprocess = Pre;
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
  std::printf("=== Ablation: offline vs online vs hybrid cycle "
              "elimination ===\n");
  Env.print();

  struct ShapeSpec {
    const char *Name;
    uint32_t NumVars, NumCons;
    double Degree;
    uint64_t Seed;
    bool FactsFirst;
  };
  // Out-degree 2.0 puts both shapes past the giant-SCC threshold of a
  // random digraph, so the pre-closure graph carries a large collapsible
  // component — the inputs the offline pass exists for.
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

  TextTable Table({"Shape", "Config", "Preprocess", "Time(s)", "Work",
                   "OffVars", "OnVars", "Caught", "Oracle%", "HVN",
                   "Searches"});
  bool Failed = false;
  for (const ShapeSpec &Spec : Shapes) {
    PRNG Rng(Spec.Seed);
    uint32_t NumVars = std::max<uint32_t>(
        8, static_cast<uint32_t>(Spec.NumVars * Env.Scale));
    uint32_t NumCons = std::max<uint32_t>(
        4, static_cast<uint32_t>(Spec.NumCons * Env.Scale));
    RandomConstraintShape Shape =
        randomConstraintShape(NumVars, NumCons, Spec.Degree / NumVars, Rng);

    // Ground truth for this shape. Creation indices and the discovered
    // constraint relation depend only on the emission sequence, so one
    // oracle serves every configuration.
    ConstructorTable OracleConstructors;
    Oracle Truth = buildOracle(
        [&](ConstraintSolver &Solver) {
          emitOrdered(Shape, Solver, Spec.FactsFirst);
        },
        OracleConstructors, paperConfig(GraphForm::Inductive,
                                        CycleElim::Online));
    uint64_t Bound = Truth.eliminableVars();
    uint64_t OfflineCaught = 0;

    for (const auto &Config : Configs) {
      size_t ReferenceBits = 0;
      bool HaveReference = false;
      for (PreprocessMode Pre :
           {PreprocessMode::None, PreprocessMode::Offline}) {
        RunResult R = runVariant(Shape, Spec.FactsFirst, Config.Form,
                                 Config.Elim, Pre, Env.Repeats);
        const char *PreName =
            Pre == PreprocessMode::Offline ? "offline" : "none";
        if (!HaveReference) {
          ReferenceBits = R.SolutionBits;
          HaveReference = true;
        } else if (R.SolutionBits != ReferenceBits) {
          std::fprintf(stderr,
                       "error: %s %s %s: solution checksum diverged "
                       "(%zu vs %zu)\n",
                       Spec.Name, Config.Name, PreName, R.SolutionBits,
                       ReferenceBits);
          Failed = true;
        }
        uint64_t Caught =
            R.Stats.OfflineCollapsedVars + R.Stats.VarsEliminated;
        if (Caught > Bound) {
          std::fprintf(stderr,
                       "error: %s %s %s: caught %llu cycle variables, "
                       "above the Oracle bound %llu\n",
                       Spec.Name, Config.Name, PreName,
                       (unsigned long long)Caught,
                       (unsigned long long)Bound);
          Failed = true;
        }
        if (Pre == PreprocessMode::Offline)
          OfflineCaught = R.Stats.OfflineCollapsedVars;
        Table.addRow({Spec.Name, Config.Name, PreName,
                      formatDouble(R.BestSeconds, 3),
                      formatGrouped(R.Stats.Work),
                      formatGrouped(R.Stats.OfflineCollapsedVars),
                      formatGrouped(R.Stats.VarsEliminated),
                      formatGrouped(Caught),
                      Bound ? formatDouble(100.0 * Caught / Bound, 1)
                            : std::string("-"),
                      formatGrouped(R.Stats.HVNLabels),
                      formatGrouped(R.Stats.CycleSearches)});
      }
    }
    if (Bound > 0 && OfflineCaught * 5 < Bound) {
      std::fprintf(stderr,
                   "error: %s: offline pass caught %llu of %llu "
                   "eliminable variables (< 20%% of the Oracle bound)\n",
                   Spec.Name, (unsigned long long)OfflineCaught,
                   (unsigned long long)Bound);
      Failed = true;
    }
  }
  Table.print();
  std::printf("\nThe offline pass substitutes away the pre-closure SCCs "
              "before any propagation happens, so the plain "
              "configurations inherit most of the Oracle's win without a "
              "single online chain search; the hybrid rows show the "
              "online search reduced to mopping up the cycles only "
              "closure exposes. Compare the Searches column between the "
              "none and offline rows of the Online configurations.\n");
  return Failed ? 1 : 0;
}
