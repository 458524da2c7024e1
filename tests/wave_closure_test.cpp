//===- tests/wave_closure_test.cpp - Wave closure equivalence --------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ClosureMode::Wave must be a pure scheduling change: identical least
/// solutions and final graphs to the worklist closure on every
/// configuration, and identical paper counters wherever the schedule is
/// provably irrelevant. Absent collapses, the multiset of (source, edge)
/// delivery attempts is schedule-independent, so Work / Edges /
/// RedundantAdds / InitialEdges match the worklist goldens bit for bit;
/// SF-Online on collapse-bearing inputs is interleaving-sensitive (the
/// same regime golden_counters_test.cpp already pins for DiffProp), and
/// those few pairs are pinned to their own wave goldens here so drift is
/// still caught. The wave-specific counters (WavePasses, LevelsPropagated,
/// WaveFallbacks) get corpus goldens of their own.
///
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"
#include "setcon/ConstraintSolver.h"
#include "setcon/Oracle.h"
#include "workload/RandomConstraints.h"
#include "workload/Suite.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

using namespace poce;
using namespace poce::andersen;

#ifndef POCE_SOURCE_DIR
#define POCE_SOURCE_DIR "."
#endif

namespace {

const char *const CorpusFiles[] = {"list.c", "events.c", "calc.c",
                                   "strings.c"};

const char *const ConfigNames[] = {"SF-Plain",  "SF-Online",  "SF-Oracle",
                                   "SF-Periodic", "IF-Plain", "IF-Online",
                                   "IF-Oracle", "IF-Periodic"};

SolverOptions configFor(const char *Name) {
  GraphForm Form =
      Name[0] == 'S' ? GraphForm::Standard : GraphForm::Inductive;
  std::string Elim = std::string(Name).substr(3);
  CycleElim E = Elim == "Plain"    ? CycleElim::None
                : Elim == "Online" ? CycleElim::Online
                : Elim == "Oracle" ? CycleElim::Oracle
                                   : CycleElim::Periodic;
  return makeConfig(Form, E);
}

bool parseCorpusFile(const char *File, minic::TranslationUnit &Unit) {
  std::string Path = std::string(POCE_SOURCE_DIR) + "/examples/data/" + File;
  std::ifstream In(Path);
  if (!In.good())
    return false;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::vector<std::string> Errors;
  return parseSource(Buffer.str(), Unit, &Errors, File);
}

/// The schedule-independent counters the seed goldens lock down.
struct CounterSix {
  uint64_t Work, Edges, VarsElim, Redundant, Initial, Collapsed;

  bool operator==(const CounterSix &O) const {
    return Work == O.Work && Edges == O.Edges && VarsElim == O.VarsElim &&
           Redundant == O.Redundant && Initial == O.Initial &&
           Collapsed == O.Collapsed;
  }
};

CounterSix sixOf(const AnalysisResult &R) {
  return {R.Stats.Work,          R.FinalEdges,
          R.Stats.VarsEliminated, R.Stats.RedundantAdds,
          R.Stats.InitialEdges,  R.Stats.CyclesCollapsed};
}

std::ostream &operator<<(std::ostream &OS, const CounterSix &C) {
  return OS << "{" << C.Work << ", " << C.Edges << ", " << C.VarsElim
            << ", " << C.Redundant << ", " << C.Initial << ", "
            << C.Collapsed << "}";
}

/// Wave goldens for the order-sensitive pairs: SF-Online with difference
/// propagation on inputs where cycles collapse. Everywhere else the wave
/// counters must equal the worklist run exactly.
struct WavePin {
  const char *File;
  const char *Config;
  bool DiffProp;
  CounterSix Six;
};

const WavePin WavePins[] = {
    // Solutions are identical regardless (checked unconditionally below);
    // these only lock the wave interleaving so drift is caught. On
    // events.c the wave schedule pairs fewer deliveries redundantly but
    // pays slightly more Work reaching the same 9 collapses; on calc.c
    // the deferred flushes starve the chain search of the two cycles the
    // eager schedule trips over (0 collapses, SF-Plain-equal counters);
    // on strings.c the batched deltas surface two cycles the eager
    // schedule never walks (2 collapses where the worklist finds none).
    {"events.c", "SF-Online", true, {484, 152, 9, 198, 39, 9}},
    {"calc.c", "SF-Online", true, {243, 215, 0, 28, 72, 0}},
    {"strings.c", "SF-Online", true, {115, 91, 2, 16, 29, 2}},
};

const WavePin *findPin(const char *File, const char *Config, bool DiffProp) {
  for (const WavePin &Pin : WavePins)
    if (std::string(Pin.File) == File && std::string(Pin.Config) == Config &&
        Pin.DiffProp == DiffProp)
      return &Pin;
  return nullptr;
}

/// Least solutions keyed by variable creation index (stable across
/// schedules and collapses), sources identified by constructor name.
using Signature = std::map<uint32_t, std::set<std::string>>;

Signature lsSignature(ConstraintSolver &Solver) {
  Signature Result;
  const TermTable &Terms = Solver.terms();
  for (uint32_t Creation = 0; Creation != Solver.numCreations(); ++Creation) {
    VarId Var = Solver.varOfCreation(Creation);
    std::set<std::string> Names;
    for (ExprId Term : Solver.leastSolution(Var)) {
      if (Terms.kind(Term) == ExprKind::Cons)
        Names.insert(Terms.constructors().signature(Terms.consOf(Term)).Name);
      else
        Names.insert("1");
    }
    Result[Creation] = std::move(Names);
  }
  return Result;
}

/// emitRandomConstraints with a hook run after every addConstraint, for
/// the incremental tests that interleave closure with construction.
template <typename HookFn>
void emitWithHook(const RandomConstraintShape &Shape,
                  ConstraintSolver &Solver, HookFn Hook) {
  TermTable &Terms = Solver.terms();
  ConstructorTable &Constructors = Terms.mutableConstructors();

  std::vector<ExprId> Vars;
  for (uint32_t I = 0; I != Shape.NumVars; ++I)
    Vars.push_back(Terms.var(Solver.freshVar("X" + std::to_string(I))));
  std::vector<ExprId> Sources;
  for (uint32_t I = 0; I != Shape.NumSources; ++I)
    Sources.push_back(
        Terms.cons(Constructors.getOrCreate("src" + std::to_string(I), {}),
                   {}));
  std::vector<ExprId> Sinks;
  for (uint32_t I = 0; I != Shape.NumSinks; ++I)
    Sinks.push_back(
        Terms.cons(Constructors.getOrCreate("snk" + std::to_string(I), {}),
                   {}));

  for (const auto &[From, To] : Shape.VarVar) {
    Solver.addConstraint(Vars[From], Vars[To]);
    Hook(Solver);
  }
  for (const auto &[Source, Var] : Shape.SourceVar) {
    Solver.addConstraint(Sources[Source], Vars[Var]);
    Hook(Solver);
  }
  for (const auto &[Var, Sink] : Shape.VarSink) {
    Solver.addConstraint(Vars[Var], Sinks[Sink]);
    Hook(Solver);
  }
}

std::vector<SolverOptions> allConfigs(uint64_t Seed) {
  return {
      makeConfig(GraphForm::Standard, CycleElim::None, Seed),
      makeConfig(GraphForm::Inductive, CycleElim::None, Seed),
      makeConfig(GraphForm::Standard, CycleElim::Oracle, Seed),
      makeConfig(GraphForm::Inductive, CycleElim::Oracle, Seed),
      makeConfig(GraphForm::Standard, CycleElim::Online, Seed),
      makeConfig(GraphForm::Inductive, CycleElim::Online, Seed),
      makeConfig(GraphForm::Standard, CycleElim::Periodic, Seed),
      makeConfig(GraphForm::Inductive, CycleElim::Periodic, Seed),
  };
}

} // namespace

//===----------------------------------------------------------------------===//
// Corpus: wave vs worklist, every configuration, both propagation paths
//===----------------------------------------------------------------------===//

class CorpusWaveTest : public testing::TestWithParam<const char *> {};

TEST_P(CorpusWaveTest, WaveMatchesWorklist) {
  const char *File = GetParam();
  minic::TranslationUnit Unit;
  ASSERT_TRUE(parseCorpusFile(File, Unit));

  ConstructorTable Constructors;
  SolverOptions Base = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Oracle O = buildOracle(makeGenerator(Unit), Constructors, Base);

  for (const char *Config : ConfigNames) {
    for (bool DiffProp : {false, true}) {
      SolverOptions Options = configFor(Config);
      Options.DiffProp = DiffProp;
      const Oracle *WO = Options.Elim == CycleElim::Oracle ? &O : nullptr;

      Options.Closure = ClosureMode::Worklist;
      AnalysisResult Worklist = runAnalysis(Unit, Constructors, Options, WO);

      Options.Closure = ClosureMode::Wave;
      AnalysisResult Wave = runAnalysis(Unit, Constructors, Options, WO);

      // Solutions are identical regardless of interleaving.
      EXPECT_EQ(Wave.PointsTo, Worklist.PointsTo)
          << File << " " << Config << " diffprop=" << DiffProp;

      const WavePin *Pin = findPin(File, Config, DiffProp);
      CounterSix Expected = Pin ? Pin->Six : sixOf(Worklist);
      EXPECT_EQ(sixOf(Wave), Expected)
          << File << " " << Config << " diffprop=" << DiffProp
          << (Pin ? " (pinned)" : " (worklist parity)");

      // The worklist closure must never take a wave-only code path.
      EXPECT_EQ(Worklist.Stats.WavePasses, 0u) << File << " " << Config;
      EXPECT_EQ(Worklist.Stats.WaveFallbacks, 0u) << File << " " << Config;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusWaveTest,
                         testing::ValuesIn(CorpusFiles),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           return Name.substr(0, Name.find('.'));
                         });

//===----------------------------------------------------------------------===//
// Wave-counter goldens (SF-Plain with difference propagation: the config
// where every corpus file exercises multi-pass wave propagation)
//===----------------------------------------------------------------------===//

namespace {

struct WaveGolden {
  const char *File;
  uint64_t WavePasses, LevelsPropagated, WaveFallbacks;
};

// Names the parameter by its file, so test names do not embed pointer bytes.
void PrintTo(const WaveGolden &G, std::ostream *OS) {
  *OS << '"' << G.File << '"';
}

// Recorded from the first wave implementation. WaveFallbacks under
// SF-Plain are intra-SCC deliveries (cycles stay in the graph and push
// sources backwards past the cursor), not collapse invalidations.
const WaveGolden WaveGoldens[] = {
    {"list.c", 4, 14, 5},
    {"events.c", 4, 11, 5},
    {"calc.c", 3, 15, 10},
    {"strings.c", 4, 22, 0},
};

} // namespace

class WaveCounterGoldenTest : public testing::TestWithParam<WaveGolden> {};

TEST_P(WaveCounterGoldenTest, SFPlainWaveCountersMatch) {
  const WaveGolden &G = GetParam();
  minic::TranslationUnit Unit;
  ASSERT_TRUE(parseCorpusFile(G.File, Unit));

  ConstructorTable Constructors;
  SolverOptions Options = makeConfig(GraphForm::Standard, CycleElim::None);
  Options.Closure = ClosureMode::Wave;
  AnalysisResult R = runAnalysis(Unit, Constructors, Options);

  EXPECT_EQ(R.Stats.WavePasses, G.WavePasses) << G.File;
  EXPECT_EQ(R.Stats.LevelsPropagated, G.LevelsPropagated) << G.File;
  EXPECT_EQ(R.Stats.WaveFallbacks, G.WaveFallbacks) << G.File;
}

INSTANTIATE_TEST_SUITE_P(Corpus, WaveCounterGoldenTest,
                         testing::ValuesIn(WaveGoldens),
                         [](const auto &Info) {
                           std::string Name = Info.param.File;
                           return Name.substr(0, Name.find('.'));
                         });

//===----------------------------------------------------------------------===//
// Random systems: solutions and final graphs agree, all configs, all
// thread counts
//===----------------------------------------------------------------------===//

struct RandomWaveCase {
  uint64_t Seed;
  uint32_t NumVars;
  uint32_t NumCons;
  double Density;
};

class RandomWaveTest : public testing::TestWithParam<RandomWaveCase> {};

TEST_P(RandomWaveTest, WaveMatchesWorklistOnRandomSystems) {
  const RandomWaveCase &Case = GetParam();
  PRNG Rng(Case.Seed);
  RandomConstraintShape Shape = randomConstraintShape(
      Case.NumVars, Case.NumCons, Case.Density / Case.NumVars, Rng);

  ConstructorTable Constructors;
  SolverOptions Base =
      makeConfig(GraphForm::Inductive, CycleElim::Online, Case.Seed);
  Oracle O =
      buildOracle(workload::makeRandomGenerator(Shape), Constructors, Base);

  for (const SolverOptions &Config : allConfigs(Case.Seed)) {
    const Oracle *WO = Config.Elim == CycleElim::Oracle ? &O : nullptr;

    SolverOptions WorklistOpts = Config;
    WorklistOpts.Closure = ClosureMode::Worklist;
    TermTable TermsA(Constructors);
    ConstraintSolver Reference(TermsA, WorklistOpts, WO);
    workload::emitRandomConstraints(Shape, Reference);
    Reference.finalize();
    Signature Expected = lsSignature(Reference);
    uint64_t ExpectedEdges = Reference.countFinalEdges();

    for (unsigned Threads : {1u, 2u, 8u}) {
      SolverOptions WaveOpts = Config;
      WaveOpts.Closure = ClosureMode::Wave;
      WaveOpts.Threads = Threads;
      TermTable TermsB(Constructors);
      ConstraintSolver Wave(TermsB, WaveOpts, WO);
      workload::emitRandomConstraints(Shape, Wave);
      Wave.finalize();

      EXPECT_EQ(lsSignature(Wave), Expected)
          << Config.configName() << " threads=" << Threads;
      EXPECT_EQ(Wave.countFinalEdges(), ExpectedEdges)
          << Config.configName() << " threads=" << Threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomWaveTest,
    testing::Values(RandomWaveCase{21, 10, 6, 1.0},
                    RandomWaveCase{22, 30, 20, 2.0},
                    RandomWaveCase{23, 60, 40, 1.5},
                    RandomWaveCase{24, 100, 66, 1.0},
                    RandomWaveCase{25, 150, 100, 1.2},
                    RandomWaveCase{26, 40, 0, 2.0},
                    RandomWaveCase{27, 25, 16, 4.0}),
    [](const auto &Info) {
      return "seed" + std::to_string(Info.param.Seed) + "_n" +
             std::to_string(Info.param.NumVars);
    });

//===----------------------------------------------------------------------===//
// Incremental use: queries interleaved with adds re-close correctly
//===----------------------------------------------------------------------===//

TEST(WaveIncrementalTest, QueriesBetweenAddsSeeConsistentClosure) {
  PRNG Rng(77);
  RandomConstraintShape Shape = randomConstraintShape(60, 40, 2.0 / 60, Rng);

  ConstructorTable Constructors;
  SolverOptions Options = makeConfig(GraphForm::Standard, CycleElim::Online);
  Options.Closure = ClosureMode::Worklist;

  // One-shot worklist reference.
  TermTable TermsA(Constructors);
  ConstraintSolver Reference(TermsA, Options);
  workload::emitRandomConstraints(Shape, Reference);
  Reference.finalize();
  Signature Expected = lsSignature(Reference);

  // Wave solver, forced closed after every single constraint: the maximal
  // amount of cache invalidation and re-leveling the design allows.
  SolverOptions WaveOpts = Options;
  WaveOpts.Closure = ClosureMode::Wave;
  TermTable TermsB(Constructors);
  ConstraintSolver Wave(TermsB, WaveOpts);
  uint32_t Step = 0;
  emitWithHook(Shape, Wave, [&](ConstraintSolver &S) {
    if (++Step % 3 == 0)
      S.ensureClosed();
  });
  Wave.finalize();
  EXPECT_EQ(lsSignature(Wave), Expected);
  EXPECT_EQ(Wave.countFinalEdges(), Reference.countFinalEdges());
}

//===----------------------------------------------------------------------===//
// setClosure mid-life: switching modes closes first and stays sound
//===----------------------------------------------------------------------===//

TEST(WaveIncrementalTest, SwitchingClosureModesMidStreamIsSound) {
  PRNG Rng(78);
  RandomConstraintShape Shape = randomConstraintShape(50, 34, 2.0 / 50, Rng);

  ConstructorTable Constructors;
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Options.Closure = ClosureMode::Worklist;

  TermTable TermsA(Constructors);
  ConstraintSolver Reference(TermsA, Options);
  workload::emitRandomConstraints(Shape, Reference);
  Reference.finalize();

  TermTable TermsB(Constructors);
  ConstraintSolver Mixed(TermsB, Options);
  uint32_t Step = 0;
  emitWithHook(Shape, Mixed, [&](ConstraintSolver &S) {
    if (++Step % 7 == 0)
      S.setClosure(Step % 14 == 0 ? ClosureMode::Worklist
                                  : ClosureMode::Wave);
  });
  Mixed.finalize();
  EXPECT_EQ(lsSignature(Mixed), lsSignature(Reference));
  EXPECT_EQ(Mixed.countFinalEdges(), Reference.countFinalEdges());
}
