//===- tests/wave_closure_test.cpp - Wave closure equivalence --------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ClosureMode::Wave must compute the worklist closure's least solutions
/// on every configuration, and its final graphs and paper counters
/// wherever the schedule is provably irrelevant. Absent collapses, the
/// multiset of (source, edge) delivery attempts is schedule-independent,
/// so Work / Edges / RedundantAdds / InitialEdges match the worklist
/// goldens bit for bit. SF-Online is the exception by design: its
/// wave-order build also collapses every SCC its Tarjan pass finds
/// (WaveCollapsedVars), so its final graphs are smaller and its counters
/// differ wherever cycles form. Those runs are pinned to their own wave
/// goldens here so drift is still caught, and must sweep with no
/// WaveFallbacks. The other wave counters (WavePasses, LevelsPropagated,
/// WaveFallbacks) get SF-Plain corpus goldens of their own.
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

/// Wave goldens for SF-Online with difference propagation, the only
/// configuration whose wave run collapses cycles at order build.
/// Everywhere else the wave counters must equal the worklist run exactly.
struct WavePin {
  const char *File;
  const char *Config;
  bool DiffProp;
  CounterSix Six;
};

const WavePin WavePins[] = {
    // Solutions are identical regardless (checked unconditionally below);
    // these only lock the wave interleaving so drift is caught. Every
    // file has cycles the online chain search misses, which the order
    // build collapses, so Edges drop on all four. VarsElim and Collapsed
    // stay the online search's figures, which the deferred flushes
    // shift: against the worklist run it closes 3 extra cycles on list.c
    // and 2 on strings.c, none of calc.c's 2, and the same 9 on events.c.
    {"list.c", "SF-Online", true, {295, 124, 3, 80, 48, 3}},
    {"events.c", "SF-Online", true, {490, 129, 9, 210, 39, 9}},
    {"calc.c", "SF-Online", true, {216, 181, 0, 16, 72, 0}},
    {"strings.c", "SF-Online", true, {114, 73, 2, 21, 29, 2}},
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
      EXPECT_EQ(Worklist.Stats.WaveCollapsedVars, 0u)
          << File << " " << Config;

      // Only SF-Online collapses at order build, and then every sweep
      // runs on an acyclic order.
      if (Pin) {
        EXPECT_EQ(Wave.Stats.WaveFallbacks, 0u) << File << " " << Config;
        EXPECT_GT(Wave.Stats.WaveCollapsedVars, 0u) << File << " " << Config;
      } else {
        EXPECT_EQ(Wave.Stats.WaveCollapsedVars, 0u)
            << File << " " << Config << " diffprop=" << DiffProp;
      }
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

/// Names a case by its fields; gtest would otherwise print the struct's
/// raw bytes, padding included, which differ from build to build.
void PrintTo(const RandomWaveCase &Case, std::ostream *OS) {
  *OS << "vars=" << Case.NumVars << " cons=" << Case.NumCons
      << " density=" << Case.Density << " seed=" << Case.Seed;
}

namespace {

/// SF-Online on the wave schedule, per shape seed: final edges and
/// WaveCollapsedVars. Its order builds collapse the SCCs the online
/// search missed, so it keeps fewer edges than the worklist run (17 /
/// 348 / 549 / 443 / 1,251 / 73 / 205) wherever one forms; seeds 21 and
/// 26 form none.
struct RandomWavePin {
  uint64_t Seed;
  uint64_t Edges, Collapsed;
};

const RandomWavePin RandomWavePins[] = {
    {21, 17, 0},  {22, 143, 16}, {23, 385, 12}, {24, 411, 4},
    {25, 813, 26}, {26, 73, 0},  {27, 26, 13},
};

const RandomWavePin &findRandomPin(uint64_t Seed) {
  for (const RandomWavePin &Pin : RandomWavePins)
    if (Pin.Seed == Seed)
      return Pin;
  ADD_FAILURE() << "no SF-Online wave pin for seed " << Seed;
  return RandomWavePins[0];
}

} // namespace

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
    const bool SFOnline = Config.Form == GraphForm::Standard &&
                          Config.Elim == CycleElim::Online;

    SolverOptions WorklistOpts = Config;
    WorklistOpts.Closure = ClosureMode::Worklist;
    TermTable TermsA(Constructors);
    ConstraintSolver Reference(TermsA, WorklistOpts, WO);
    workload::emitRandomConstraints(Shape, Reference);
    Reference.finalize();
    Signature Expected = lsSignature(Reference);
    const RandomWavePin &Pin = findRandomPin(Case.Seed);
    uint64_t ExpectedEdges = SFOnline ? Pin.Edges : Reference.countFinalEdges();
    uint64_t ExpectedCollapsed = SFOnline ? Pin.Collapsed : 0;
    EXPECT_EQ(Reference.stats().WaveCollapsedVars, 0u) << Config.configName();

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
      EXPECT_EQ(Wave.stats().WaveCollapsedVars, ExpectedCollapsed)
          << Config.configName() << " threads=" << Threads;
      if (SFOnline) {
        EXPECT_EQ(Wave.stats().WaveFallbacks, 0u)
            << Config.configName() << " threads=" << Threads;
      }
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
// The paper's suite: SF-Online sweeps run on acyclic orders
//===----------------------------------------------------------------------===//

TEST(SuiteWaveTest, SFOnlineOrderBuildsLeaveNoFallbacks) {
  // Every program of the suite has cycles the online chain search misses;
  // the order builds collapse them, so no sweep delivers backwards.
  std::vector<workload::ProgramSpec> Specs = workload::paperSuite(0.05);
  ASSERT_FALSE(Specs.empty());
  SolverOptions Options = makeConfig(GraphForm::Standard, CycleElim::Online);
  Options.Closure = ClosureMode::Wave;
  std::vector<workload::BatchSolveResult> Wave =
      workload::solveSuite(Specs, Options, /*Threads=*/1,
                           /*ExtractPointsTo=*/true);
  Options.Closure = ClosureMode::Worklist;
  std::vector<workload::BatchSolveResult> Worklist =
      workload::solveSuite(Specs, Options, /*Threads=*/1,
                           /*ExtractPointsTo=*/true);

  ASSERT_EQ(Wave.size(), Specs.size());
  ASSERT_EQ(Worklist.size(), Specs.size());
  for (size_t I = 0; I != Specs.size(); ++I) {
    const std::string &Name = Specs[I].Name;
    ASSERT_TRUE(Wave[I].Ok && Worklist[I].Ok) << Name;
    const SolverStats &Stats = Wave[I].Result.Stats;
    EXPECT_EQ(Wave[I].Result.PointsTo, Worklist[I].Result.PointsTo) << Name;
    EXPECT_GT(Stats.WavePasses, 0u) << Name;
    EXPECT_EQ(Stats.WaveFallbacks, 0u) << Name;
    EXPECT_GT(Stats.WaveCollapsedVars, 0u) << Name;
    EXPECT_EQ(Worklist[I].Result.Stats.WaveCollapsedVars, 0u) << Name;
  }
}

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
  // The order builds collapse the cycles the online search missed: 332
  // edges where the worklist run keeps 1,069.
  EXPECT_EQ(Wave.countFinalEdges(), 332u);
  EXPECT_GT(Wave.stats().WaveCollapsedVars, 0u);
  EXPECT_EQ(Wave.stats().WaveFallbacks, 0u);
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
