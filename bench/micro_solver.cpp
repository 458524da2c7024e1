//===- bench/micro_solver.cpp - Microbenchmarks (google-benchmark) ---------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks of the primitive operations that dominate constraint
/// resolution: hash-set membership, sparse-bitvector unions, union-find,
/// term interning, atomic edge insertion and closure, difference
/// propagation, online cycle detection/collapse, least solution
/// computation, and frontend throughput.
///
/// Run with no arguments (or the usual google-benchmark flags) for the
/// microbenchmark suite. Run with --emit_trajectory[=path] to instead
/// A/B the bitvector/difference-propagation hot paths against the seed
/// algorithms on large random constraint systems and record the result as
/// JSON (default path: BENCH_micro_solver.json). Each invocation appends
/// one timestamped run to the file's "runs" array (a pre-existing
/// flat-format file is migrated to the first run), so successive runs form
/// a trajectory. Trajectory mode honors POCE_BENCH_SCALE,
/// POCE_BENCH_REPEATS (best-of-N, default 3), and POCE_BENCH_THREADS
/// (lanes for the thread-scaling entries; default 4, 0 = hardware).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "andersen/Andersen.h"
#include "minic/Lexer.h"
#include "minic/Parser.h"
#include "serve/GraphSnapshot.h"
#include "serve/QueryEngine.h"
#include "setcon/ConstraintSolver.h"
#include "support/DenseU64Set.h"
#include "support/Metrics.h"
#include "support/PRNG.h"
#include "support/SparseBitVector.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/UnionFind.h"
#include "workload/ProgramGenerator.h"
#include "workload/RandomConstraints.h"
#include "workload/Suite.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace poce;

//===----------------------------------------------------------------------===//
// Support primitives
//===----------------------------------------------------------------------===//

static void BM_DenseSetInsert(benchmark::State &State) {
  PRNG Rng(1);
  std::vector<uint64_t> Keys(static_cast<size_t>(State.range(0)));
  for (uint64_t &Key : Keys)
    Key = Rng.nextU64() >> 1;
  for (auto _ : State) {
    DenseU64Set Set;
    for (uint64_t Key : Keys)
      benchmark::DoNotOptimize(Set.insert(Key));
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_DenseSetInsert)->Arg(1000)->Arg(100000);

static void BM_DenseSetLookupHit(benchmark::State &State) {
  PRNG Rng(2);
  DenseU64Set Set;
  std::vector<uint64_t> Keys(100000);
  for (uint64_t &Key : Keys) {
    Key = Rng.nextU64() >> 1;
    Set.insert(Key);
  }
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Set.contains(Keys[I++ % Keys.size()]));
  }
}
BENCHMARK(BM_DenseSetLookupHit);

static void BM_SparseBitVectorSet(benchmark::State &State) {
  // Clustered id space, like hash-consed ExprIds.
  PRNG Rng(21);
  std::vector<uint32_t> Ids(static_cast<size_t>(State.range(0)));
  for (uint32_t &Id : Ids)
    Id = static_cast<uint32_t>(Rng.nextBelow(4 * Ids.size()));
  for (auto _ : State) {
    SparseBitVector S;
    for (uint32_t Id : Ids)
      benchmark::DoNotOptimize(S.testAndSet(Id));
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_SparseBitVectorSet)->Arg(1000)->Arg(100000);

static void BM_SparseBitVectorUnion(benchmark::State &State) {
  // Word-level union of partially overlapping sets — the inner loop of
  // both difference propagation and the least-solution pass.
  PRNG Rng(22);
  const size_t N = static_cast<size_t>(State.range(0));
  SparseBitVector Base, Incoming;
  for (size_t I = 0; I != N; ++I) {
    Base.set(static_cast<uint32_t>(Rng.nextBelow(8 * N)));
    Incoming.set(static_cast<uint32_t>(Rng.nextBelow(8 * N)));
  }
  for (auto _ : State) {
    SparseBitVector S;
    S.unionWith(Base);
    uint64_t Words = 0;
    benchmark::DoNotOptimize(S.unionWith(Incoming, &Words));
    benchmark::DoNotOptimize(Words);
  }
  State.SetItemsProcessed(State.iterations() * 2 * N);
}
BENCHMARK(BM_SparseBitVectorUnion)->Arg(1000)->Arg(50000);

static void BM_SparseBitVectorUnionInPlace(benchmark::State &State) {
  // Steady-state union where the target already covers every RHS element,
  // so every iteration takes the aligned in-place branch (unrolled to two
  // elements — four 64-bit words — per step). This is the shape of
  // repeated difference-propagation pushes into a mature solution set.
  PRNG Rng(23);
  const size_t N = static_cast<size_t>(State.range(0));
  SparseBitVector Base, Incoming;
  for (size_t I = 0; I != N; ++I) {
    uint32_t Id = static_cast<uint32_t>(Rng.nextBelow(4 * N));
    Incoming.set(Id);
    Base.set(Id); // Superset coverage: no element merge ever needed.
    Base.set(static_cast<uint32_t>(Rng.nextBelow(4 * N)));
  }
  SparseBitVector S = Base;
  for (auto _ : State) {
    uint64_t Words = 0;
    benchmark::DoNotOptimize(S.unionWith(Incoming, &Words));
    benchmark::DoNotOptimize(Words);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_SparseBitVectorUnionInPlace)->Arg(1000)->Arg(50000);

static void BM_UnionFind(benchmark::State &State) {
  const uint32_t N = static_cast<uint32_t>(State.range(0));
  PRNG Rng(3);
  for (auto _ : State) {
    UnionFind UF;
    UF.growTo(N);
    for (uint32_t I = 0; I != N; ++I)
      UF.unite(static_cast<uint32_t>(Rng.nextBelow(N)),
               static_cast<uint32_t>(Rng.nextBelow(N)));
    benchmark::DoNotOptimize(UF.find(0));
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_UnionFind)->Arg(10000);

static void BM_TermInterning(benchmark::State &State) {
  for (auto _ : State) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConsId C = Constructors.getOrCreate(
        "c", {Variance::Covariant, Variance::Covariant});
    for (uint32_t I = 0; I != 1000; ++I)
      benchmark::DoNotOptimize(
          Terms.cons(C, {Terms.var(I), Terms.var(I / 2)}));
    // Second pass hits the intern cache.
    for (uint32_t I = 0; I != 1000; ++I)
      benchmark::DoNotOptimize(
          Terms.cons(C, {Terms.var(I), Terms.var(I / 2)}));
  }
  State.SetItemsProcessed(State.iterations() * 2000);
}
BENCHMARK(BM_TermInterning);

//===----------------------------------------------------------------------===//
// Solver operations
//===----------------------------------------------------------------------===//

static void BM_EdgeInsertionChain(benchmark::State &State) {
  // A source propagated down a long variable chain: one closure-driven
  // addition per edge.
  const uint32_t N = static_cast<uint32_t>(State.range(0));
  for (auto _ : State) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms,
                            bench::paperConfig(GraphForm::Inductive,
                                               CycleElim::None));
    ExprId S = Terms.cons(Constructors.getOrCreate("s", {}), {});
    std::vector<VarId> Vars;
    for (uint32_t I = 0; I != N; ++I)
      Vars.push_back(Solver.freshVar("v"));
    Solver.addConstraint(S, Terms.var(Vars[0]));
    for (uint32_t I = 0; I + 1 != N; ++I)
      Solver.addConstraint(Terms.var(Vars[I]), Terms.var(Vars[I + 1]));
    benchmark::DoNotOptimize(Solver.stats().Work);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_EdgeInsertionChain)->Arg(1000)->Arg(10000);

static void BM_SFClosure(benchmark::State &State) {
  // Standard-form closure over a random system; Arg(1) uses batched
  // difference propagation, Arg(0) the element-wise seed scheme. The gap
  // between the two is the win from delta-only pushes.
  PRNG Rng(17);
  RandomConstraintShape Shape =
      randomConstraintShape(3000, 2000, 2.0 / 3000, Rng);
  SolverOptions Options =
      bench::paperConfig(GraphForm::Standard, CycleElim::None);
  Options.DiffProp = State.range(0) != 0;
  for (auto _ : State) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms, Options);
    workload::emitRandomConstraints(Shape, Solver);
    benchmark::DoNotOptimize(Solver.stats().Work);
  }
  State.SetItemsProcessed(State.iterations() * Shape.VarVar.size());
}
BENCHMARK(BM_SFClosure)->Arg(0)->Arg(1);

static void BM_OnlineDetectionOverhead(benchmark::State &State) {
  // Acyclic random insertions: measures the pure overhead of running the
  // partial chain search on every variable-variable insertion.
  const uint32_t N = 2000;
  PRNG Rng(7);
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  for (uint32_t I = 0; I != 4 * N; ++I) {
    uint32_t A = static_cast<uint32_t>(Rng.nextBelow(N));
    uint32_t B = static_cast<uint32_t>(Rng.nextBelow(N));
    if (A < B)
      Edges.push_back({A, B}); // Forward only: acyclic.
  }
  for (auto _ : State) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms,
                            bench::paperConfig(GraphForm::Inductive,
                                               CycleElim::Online));
    std::vector<VarId> Vars;
    for (uint32_t I = 0; I != N; ++I)
      Vars.push_back(Solver.freshVar("v"));
    for (auto [A, B] : Edges)
      Solver.addConstraint(Terms.var(Vars[A]), Terms.var(Vars[B]));
    benchmark::DoNotOptimize(Solver.stats().CycleSearchSteps);
  }
  State.SetItemsProcessed(State.iterations() * Edges.size());
}
BENCHMARK(BM_OnlineDetectionOverhead);

static void BM_CycleCollapse(benchmark::State &State) {
  // Insert rings that are detected and collapsed.
  const uint32_t N = 1000;
  for (auto _ : State) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms,
                            bench::paperConfig(GraphForm::Inductive,
                                               CycleElim::Online));
    std::vector<VarId> Vars;
    for (uint32_t I = 0; I != N; ++I)
      Vars.push_back(Solver.freshVar("v"));
    for (uint32_t Ring = 0; Ring + 10 <= N; Ring += 10) {
      for (uint32_t I = 0; I != 10; ++I)
        Solver.addConstraint(Terms.var(Vars[Ring + I]),
                             Terms.var(Vars[Ring + (I + 1) % 10]));
    }
    benchmark::DoNotOptimize(Solver.stats().VarsEliminated);
  }
}
BENCHMARK(BM_CycleCollapse);

static void BM_Compact(benchmark::State &State) {
  // Compaction cost after a collapse-heavy solve.
  PRNG Rng(13);
  RandomConstraintShape Shape =
      randomConstraintShape(3000, 2000, 2.0 / 3000, Rng);
  for (auto _ : State) {
    State.PauseTiming();
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms, bench::paperConfig(GraphForm::Inductive,
                                                      CycleElim::Online));
    workload::emitRandomConstraints(Shape, Solver);
    State.ResumeTiming();
    benchmark::DoNotOptimize(Solver.compact());
  }
}
BENCHMARK(BM_Compact);

static void BM_LeastSolutionIF(benchmark::State &State) {
  // Arg(1) is the bitvector pass (word-level unions plus lazy views for
  // every variable); Arg(0) replays the seed's vector concat+sort+unique
  // algorithm via the retained reference oracle.
  PRNG Rng(11);
  RandomConstraintShape Shape =
      randomConstraintShape(2000, 1300, 1.0 / 2000, Rng);
  const bool Bitvector = State.range(0) != 0;
  for (auto _ : State) {
    State.PauseTiming();
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms,
                            bench::paperConfig(GraphForm::Inductive,
                                               CycleElim::Online));
    workload::emitRandomConstraints(Shape, Solver);
    State.ResumeTiming();
    size_t Total = 0;
    if (Bitvector) {
      Solver.finalize();
      for (VarId Var = 0; Var != Solver.numVars(); ++Var)
        Total += Solver.leastSolution(Var).count();
    } else {
      for (const std::vector<ExprId> &LS : Solver.referenceLeastSolutions())
        Total += LS.size();
    }
    benchmark::DoNotOptimize(Total);
  }
}
BENCHMARK(BM_LeastSolutionIF)->Arg(0)->Arg(1);

//===----------------------------------------------------------------------===//
// Frontend and end-to-end
//===----------------------------------------------------------------------===//

static std::string &benchProgram() {
  static std::string Source = [] {
    workload::ProgramSpec Spec;
    Spec.Name = "micro";
    Spec.TargetAstNodes = 8000;
    Spec.Seed = 99;
    return workload::generateProgram(Spec);
  }();
  return Source;
}

static void BM_LexerThroughput(benchmark::State &State) {
  const std::string &Source = benchProgram();
  for (auto _ : State) {
    minic::Diagnostics Diags;
    minic::Lexer Lexer(Source, Diags);
    benchmark::DoNotOptimize(Lexer.lexAll().size());
  }
  State.SetBytesProcessed(State.iterations() * Source.size());
}
BENCHMARK(BM_LexerThroughput);

static void BM_ParserThroughput(benchmark::State &State) {
  const std::string &Source = benchProgram();
  for (auto _ : State) {
    minic::TranslationUnit Unit;
    andersen::parseSource(Source, Unit);
    benchmark::DoNotOptimize(Unit.numNodes());
  }
  State.SetBytesProcessed(State.iterations() * Source.size());
}
BENCHMARK(BM_ParserThroughput);

static void BM_EndToEndIFOnline(benchmark::State &State) {
  minic::TranslationUnit Unit;
  andersen::parseSource(benchProgram(), Unit);
  for (auto _ : State) {
    ConstructorTable Constructors;
    andersen::AnalysisResult Result = andersen::runAnalysis(
        Unit, Constructors,
        makeConfig(GraphForm::Inductive, CycleElim::Online), nullptr,
        /*ExtractPointsTo=*/false);
    benchmark::DoNotOptimize(Result.Stats.Work);
  }
}
BENCHMARK(BM_EndToEndIFOnline);

//===----------------------------------------------------------------------===//
// Trajectory mode: --emit_trajectory[=path]
//===----------------------------------------------------------------------===//

namespace {

struct TrajectoryConfig {
  const char *Name;
  GraphForm Form;
  CycleElim Elim;
  uint32_t NumVars;
  uint32_t NumCons;
  double Degree; ///< Expected out-degree; edge probability is Degree/NumVars.
  uint64_t Seed;
  /// Emission order. facts_first loads every source/sink constraint before
  /// any variable-variable edge, so each new edge ships the accumulated
  /// source set as one word-level batch (the bulk-load pattern difference
  /// propagation is built for). edges_first is the cascade worst case: the
  /// graph exists before any source arrives and every delta has size one.
  bool FactsFirst;
};

/// Like workload::emitRandomConstraints but with a selectable constraint
/// order (the library emitter is pinned to edges-first for the golden
/// tests).
void emitShapeOrdered(const RandomConstraintShape &Shape,
                      ConstraintSolver &Solver, bool FactsFirst) {
  TermTable &Terms = Solver.terms();
  ConstructorTable &Constructors = Terms.mutableConstructors();
  std::vector<ExprId> Vars, Sources, Sinks;
  Vars.reserve(Shape.NumVars);
  for (uint32_t I = 0; I != Shape.NumVars; ++I)
    Vars.push_back(Terms.var(Solver.freshVar("X" + std::to_string(I))));
  Sources.reserve(Shape.NumSources);
  for (uint32_t I = 0; I != Shape.NumSources; ++I)
    Sources.push_back(Terms.cons(
        Constructors.getOrCreate("src" + std::to_string(I), {}), {}));
  Sinks.reserve(Shape.NumSinks);
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

/// One A/B measurement: the optimized paths (difference propagation plus
/// bitvector least solutions) against the seed algorithms (element-wise
/// propagation plus the retained reference least-solution pass).
struct TrajectoryResult {
  double WallSeconds = 0;     ///< Optimized paths, best of N.
  double BaselineSeconds = 0; ///< Seed-style paths, best of N.
  uint64_t Work = 0;
  uint64_t Edges = 0;
  SolverStats Stats;       ///< Optimized-run counters (hot paths).
  size_t SolutionBits = 0; ///< Sink to keep the LS queries observable.
};

TrajectoryResult measureTrajectory(const TrajectoryConfig &Config,
                                   unsigned Repeats) {
  PRNG Rng(Config.Seed);
  RandomConstraintShape Shape = randomConstraintShape(
      Config.NumVars, Config.NumCons,
      Config.Degree / std::max<uint32_t>(Config.NumVars, 1), Rng);

  TrajectoryResult Out;
  auto solve = [&](bool Optimized) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    SolverOptions Options =
        bench::paperConfig(Config.Form, Config.Elim, Config.Seed);
    Options.DiffProp = Optimized;
    ConstraintSolver Solver(Terms, Options);
    emitShapeOrdered(Shape, Solver, Config.FactsFirst);
    size_t Total = 0;
    if (Optimized) {
      Solver.finalize();
      for (VarId Var = 0; Var != Solver.numVars(); ++Var)
        Total += Solver.leastSolution(Var).count();
      Out.Work = Solver.stats().Work;
      Out.Edges = Solver.countFinalEdges();
      Out.Stats = Solver.stats();
    } else {
      for (const std::vector<ExprId> &LS : Solver.referenceLeastSolutions())
        Total += LS.size();
    }
    Out.SolutionBits = Total;
  };

  Out.WallSeconds = bestOfN(Repeats, [&] { solve(true); });
  Out.BaselineSeconds = bestOfN(Repeats, [&] { solve(false); });
  return Out;
}

/// Wave-closure A/B on one shape: the wave schedule (topo-ordered delta
/// sweeps over the CSR layout) against the eager worklist with the same
/// optimized propagation, and against the seed element-wise path. The
/// solution checksum must be identical across all three.
struct WaveResult {
  double WaveSeconds = 0;     ///< ClosureMode::Wave, best of N.
  double WorklistSeconds = 0; ///< ClosureMode::Worklist, same DiffProp.
  double SeedSeconds = 0;     ///< Seed element-wise reference path.
  uint64_t Work = 0;          ///< Wave-run Work counter.
  uint64_t Edges = 0;         ///< Wave-run final edges.
  uint64_t WorklistEdges = 0;
  SolverStats WaveStats;
  size_t WaveBits = 0;     ///< Folded solution sizes, wave run.
  size_t WorklistBits = 0; ///< Same, worklist run.
  size_t SeedBits = 0;     ///< Same, seed path.
};

WaveResult measureWave(const TrajectoryConfig &Config, unsigned Repeats) {
  PRNG Rng(Config.Seed);
  RandomConstraintShape Shape = randomConstraintShape(
      Config.NumVars, Config.NumCons,
      Config.Degree / std::max<uint32_t>(Config.NumVars, 1), Rng);

  WaveResult Out;
  auto solveClosure = [&](ClosureMode Mode, size_t *Bits) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    SolverOptions Options = makeConfig(Config.Form, Config.Elim, Config.Seed);
    Options.Closure = Mode;
    ConstraintSolver Solver(Terms, Options);
    emitShapeOrdered(Shape, Solver, Config.FactsFirst);
    Solver.finalize();
    size_t Total = 0;
    for (VarId Var = 0; Var != Solver.numVars(); ++Var)
      Total += Solver.leastSolution(Var).count();
    *Bits = Total;
    if (Mode == ClosureMode::Wave) {
      Out.Work = Solver.stats().Work;
      Out.Edges = Solver.countFinalEdges();
      Out.WaveStats = Solver.stats();
    } else {
      Out.WorklistEdges = Solver.countFinalEdges();
    }
  };
  Out.WaveSeconds = bestOfN(
      Repeats, [&] { solveClosure(ClosureMode::Wave, &Out.WaveBits); });
  Out.WorklistSeconds = bestOfN(Repeats, [&] {
    solveClosure(ClosureMode::Worklist, &Out.WorklistBits);
  });
  Out.SeedSeconds = bestOfN(Repeats, [&] {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    SolverOptions Options =
        bench::paperConfig(Config.Form, Config.Elim, Config.Seed);
    Options.DiffProp = false;
    ConstraintSolver Solver(Terms, Options);
    emitShapeOrdered(Shape, Solver, Config.FactsFirst);
    size_t Total = 0;
    for (const std::vector<ExprId> &LS : Solver.referenceLeastSolutions())
      Total += LS.size();
    Out.SeedBits = Total;
  });
  return Out;
}

/// Suite-scale schedule A/B: the paper's 27 Table 1 programs analysed
/// under SF-Online on the default schedule (wave) and on the eager
/// worklist, alternating per repeat. Times are analysis seconds
/// (generation + closure + least solution) summed over the suite, best
/// of N; the points-to checksum folds every program's points-to sets and
/// must agree between the schedules.
struct SuiteClosureResult {
  double WallSeconds = 0;     ///< Default schedule, best suite total.
  double BaselineSeconds = 0; ///< ClosureMode::Worklist, same.
  unsigned Programs = 0;
  SolverStats Stats;         ///< Default-schedule counters, summed.
  SolverStats BaselineStats; ///< Worklist counters, summed.
  uint64_t Checksum = 0;
  uint64_t BaselineChecksum = 0;
};

SuiteClosureResult measureSuiteClosure(double Scale, unsigned Repeats) {
  const std::vector<workload::ProgramSpec> Specs = workload::paperSuite(Scale);
  SuiteClosureResult Out;
  // One solve of the suite: the summed analysis time, with the summed
  // counters and the points-to checksum left in *Stats / *Checksum.
  auto solveOnce = [&](const SolverOptions &Options, SolverStats *Stats,
                       uint64_t *Checksum) {
    double Seconds = 0;
    *Stats = SolverStats();
    uint64_t Hash = 14695981039346656037ULL;
    auto fold = [&Hash](const std::string &Text) {
      for (unsigned char C : Text + '\n')
        Hash = (Hash ^ C) * 1099511628211ULL;
    };
    Out.Programs = 0;
    for (const workload::BatchSolveResult &Entry :
         workload::solveSuite(Specs, Options, /*Threads=*/1,
                              /*ExtractPointsTo=*/true)) {
      if (!Entry.Ok)
        continue;
      const andersen::AnalysisResult &R = Entry.Result;
      ++Out.Programs;
      Seconds += R.AnalysisSeconds;
      *Stats += R.Stats;
      for (const auto &[Location, Targets] : R.PointsTo) {
        fold(Location);
        for (const std::string &Target : Targets)
          fold(Target);
      }
    }
    *Checksum = Hash;
    return Seconds;
  };

  const SolverOptions Default =
      makeConfig(GraphForm::Standard, CycleElim::Online);
  const SolverOptions Worklist =
      bench::paperConfig(GraphForm::Standard, CycleElim::Online);
  for (unsigned Rep = 0; Rep != Repeats; ++Rep) {
    double Wall = solveOnce(Default, &Out.Stats, &Out.Checksum);
    double Baseline =
        solveOnce(Worklist, &Out.BaselineStats, &Out.BaselineChecksum);
    if (Rep == 0 || Wall < Out.WallSeconds)
      Out.WallSeconds = Wall;
    if (Rep == 0 || Baseline < Out.BaselineSeconds)
      Out.BaselineSeconds = Baseline;
  }
  return Out;
}

/// The paper's analysis time split into its layers, on the 27 Table 1
/// programs under one configuration and the default schedule: generate
/// is ConstraintGenerator::run (no closure runs during it under wave),
/// close is ensureClosed(), settle is finalize() (the least solution).
/// Programs are generated and parsed once, outside the clock. Reports the
/// suite pass with the lowest total of N; term and constructor counts,
/// Work, LSUnionWords and the points-to checksum must be equal in every
/// pass. Read, outside the total, is the loop that reads every location's
/// points-to set for the checksum; it reports its own lowest of N.
struct SuiteAnalysisResult {
  double GenerateSeconds = 0, CloseSeconds = 0, SettleSeconds = 0;
  double ReadSeconds = 0;
  unsigned Programs = 0;
  uint64_t Terms = 0, Constructors = 0;
  SolverStats Stats;
  uint64_t Checksum = 0;
  bool Stable = true; ///< Every pass agreed on counts and checksum.

  double totalSeconds() const {
    return GenerateSeconds + CloseSeconds + SettleSeconds;
  }
};

SuiteAnalysisResult measureSuiteAnalysis(
    const std::vector<std::unique_ptr<workload::PreparedProgram>> &Programs,
    const SolverOptions &Options, unsigned Repeats) {
  SuiteAnalysisResult Best;
  bool Stable = true;
  double BestReadSeconds = 0;
  for (unsigned Rep = 0; Rep != Repeats; ++Rep) {
    SuiteAnalysisResult Pass;
    uint64_t Hash = 14695981039346656037ULL;
    auto fold = [&Hash](uint32_t Word) {
      Hash = (Hash ^ Word) * 1099511628211ULL;
    };
    std::vector<uint32_t> Targets;
    for (const auto &Program : Programs) {
      if (!Program->Ok)
        continue;
      ConstructorTable Constructors;
      TermTable Terms(Constructors);
      ConstraintSolver Solver(Terms, Options);
      andersen::ConstraintGenerator Generator(Solver);
      Timer Clock;
      Generator.run(Program->Unit);
      Pass.GenerateSeconds += Clock.seconds();
      Clock.reset();
      Solver.ensureClosed();
      Pass.CloseSeconds += Clock.seconds();
      Clock.reset();
      Solver.finalize();
      Pass.SettleSeconds += Clock.seconds();

      ++Pass.Programs;
      Pass.Terms += Terms.size();
      Pass.Constructors += Constructors.size();
      Pass.Stats += Solver.stats();
      Clock.reset();
      for (const andersen::Location &Loc : Generator.locations()) {
        Targets.clear();
        for (ExprId Term : Solver.leastSolution(Loc.Content)) {
          andersen::LocationId Target = Generator.locationOfRefTerm(Term);
          if (Target != andersen::ConstraintGenerator::NotFound)
            Targets.push_back(Target);
        }
        std::sort(Targets.begin(), Targets.end());
        fold(static_cast<uint32_t>(Targets.size()));
        for (uint32_t Target : Targets)
          fold(Target);
      }
      Pass.ReadSeconds += Clock.seconds();
    }
    Pass.Checksum = Hash;
    if (Rep == 0 || Pass.ReadSeconds < BestReadSeconds)
      BestReadSeconds = Pass.ReadSeconds;
    if (Rep != 0)
      Stable = Stable && Pass.Checksum == Best.Checksum &&
               Pass.Terms == Best.Terms &&
               Pass.Constructors == Best.Constructors &&
               Pass.Stats.Work == Best.Stats.Work &&
               Pass.Stats.LSUnionWords == Best.Stats.LSUnionWords;
    if (Rep == 0 || Pass.totalSeconds() < Best.totalSeconds())
      Best = Pass;
  }
  Best.Stable = Stable;
  Best.ReadSeconds = BestReadSeconds;
  return Best;
}

/// Offline-preprocessing A/B on one shape: PreprocessMode::Offline (HVN
/// labeling + Nuutila SCC substitution before the first closure) against
/// the identical configuration without the pass. Solutions must be
/// bit-identical; final edge counts may differ (the pass shrinks the
/// graph, that is the point).
struct PreprocessResult {
  double OfflineSeconds = 0;  ///< Preprocess=Offline, best of N.
  double BaselineSeconds = 0; ///< Preprocess=None, same config.
  SolverStats OfflineStats;   ///< Offline-run counters.
  uint64_t OfflineEdges = 0;
  uint64_t BaselineEdges = 0;
  size_t OfflineBits = 0;  ///< Folded solution sizes, offline run.
  size_t BaselineBits = 0; ///< Same, pass off.
};

PreprocessResult measurePreprocess(const TrajectoryConfig &Config,
                                   unsigned Repeats) {
  PRNG Rng(Config.Seed);
  RandomConstraintShape Shape = randomConstraintShape(
      Config.NumVars, Config.NumCons,
      Config.Degree / std::max<uint32_t>(Config.NumVars, 1), Rng);

  PreprocessResult Out;
  auto solve = [&](PreprocessMode Mode, size_t *Bits, uint64_t *Edges) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    SolverOptions Options =
        bench::paperConfig(Config.Form, Config.Elim, Config.Seed);
    Options.Preprocess = Mode;
    ConstraintSolver Solver(Terms, Options);
    emitShapeOrdered(Shape, Solver, Config.FactsFirst);
    Solver.finalize();
    size_t Total = 0;
    for (VarId Var = 0; Var != Solver.numVars(); ++Var)
      Total += Solver.leastSolution(Var).count();
    *Bits = Total;
    *Edges = Solver.countFinalEdges();
    if (Mode == PreprocessMode::Offline)
      Out.OfflineStats = Solver.stats();
  };
  Out.OfflineSeconds = bestOfN(Repeats, [&] {
    solve(PreprocessMode::Offline, &Out.OfflineBits, &Out.OfflineEdges);
  });
  Out.BaselineSeconds = bestOfN(Repeats, [&] {
    solve(PreprocessMode::None, &Out.BaselineBits, &Out.BaselineEdges);
  });
  return Out;
}

/// One thread-scaling measurement: the same computation at 1 lane and at
/// \p Threads lanes. Checksum must match between the two variants (the
/// parallel paths are bit-identical by construction).
struct ScalingResult {
  double WallSeconds = 0;     ///< At the requested lane count, best of N.
  double BaselineSeconds = 0; ///< Single lane, best of N.
  uint64_t Checksum = 0;
  uint64_t BaselineChecksum = 0;
};

/// Times the IF least-solution pass (finalize + a full sweep of solution
/// queries) at 1 vs \p Threads lanes. Constraint emission and closure are
/// untimed — they are identical in both variants and the parallel layer
/// only touches the post-closure pass.
ScalingResult measureLSParallel(double Scale, unsigned Repeats,
                                unsigned Threads) {
  PRNG Rng(211);
  uint32_t NumVars =
      std::max<uint32_t>(8, static_cast<uint32_t>(6000 * Scale));
  uint32_t NumCons =
      std::max<uint32_t>(4, static_cast<uint32_t>(4000 * Scale));
  RandomConstraintShape Shape =
      randomConstraintShape(NumVars, NumCons, 1.5 / NumVars, Rng);

  auto timeOnce = [&](unsigned Lanes, uint64_t *Checksum) {
    double Best = -1;
    for (unsigned I = 0; I != Repeats; ++I) {
      ConstructorTable Constructors;
      TermTable Terms(Constructors);
      SolverOptions Options =
          bench::paperConfig(GraphForm::Inductive, CycleElim::Online);
      Options.Threads = Lanes;
      ConstraintSolver Solver(Terms, Options);
      emitShapeOrdered(Shape, Solver, /*FactsFirst=*/false);
      Timer T;
      Solver.finalize();
      uint64_t Bits = 0;
      for (VarId Var = 0; Var != Solver.numVars(); ++Var)
        Bits += Solver.leastSolution(Var).count();
      double Elapsed = T.seconds();
      if (Best < 0 || Elapsed < Best)
        Best = Elapsed;
      *Checksum = Bits;
    }
    return Best;
  };

  ScalingResult Out;
  Out.BaselineSeconds = timeOnce(1, &Out.BaselineChecksum);
  Out.WallSeconds = timeOnce(Threads, &Out.Checksum);
  return Out;
}

/// Times a whole-suite batch solve (workload::solveSuite) at 1 vs
/// \p Threads lanes — the outer-level parallelism a build-system client
/// would use.
ScalingResult measureBatchSuite(double Scale, unsigned Repeats,
                                unsigned Threads) {
  std::vector<workload::ProgramSpec> Specs =
      workload::paperSuite(0.05 * Scale);
  SolverOptions Options =
      bench::paperConfig(GraphForm::Inductive, CycleElim::Online);

  auto timeOnce = [&](unsigned Lanes, uint64_t *Checksum) {
    double Best = -1;
    for (unsigned I = 0; I != Repeats; ++I) {
      Timer T;
      std::vector<workload::BatchSolveResult> Results =
          workload::solveSuite(Specs, Options, Lanes);
      double Elapsed = T.seconds();
      uint64_t Work = 0;
      for (const workload::BatchSolveResult &R : Results)
        Work += R.Result.Stats.Work;
      if (Best < 0 || Elapsed < Best)
        Best = Elapsed;
      *Checksum = Work;
    }
    return Best;
  };

  ScalingResult Out;
  Out.BaselineSeconds = timeOnce(1, &Out.BaselineChecksum);
  Out.WallSeconds = timeOnce(Threads, &Out.Checksum);
  return Out;
}

/// Serve-layer measurement: snapshot save/load wall time against a fresh
/// solve, and a mixed query batch (ls/pts/alias) through the QueryEngine
/// on both paths. The acceptance point is load+queries beating fresh
/// solve+queries end to end with identical answers.
struct ServeResult {
  double SaveSeconds = 0;      ///< serialize(), best of N.
  size_t SnapshotBytes = 0;
  double LoadSeconds = 0;      ///< deserialize + finalize().
  double FreshSeconds = 0;     ///< emit + closure + finalize().
  double LoadPathSeconds = 0;  ///< load + NumQueries mixed queries.
  double FreshPathSeconds = 0; ///< fresh solve + the same queries.
  uint64_t P50Micros = 0;      ///< Per-query latency on the load path.
  uint64_t P99Micros = 0;
  uint64_t Checksum = 0;       ///< Folded query answers, load path.
  uint64_t BaselineChecksum = 0; ///< Same, fresh path.
  unsigned NumQueries = 0;
};

ServeResult measureServe(double Scale, unsigned Repeats, unsigned Threads) {
  PRNG Rng(303);
  uint32_t NumVars =
      std::max<uint32_t>(8, static_cast<uint32_t>(6000 * Scale));
  uint32_t NumCons =
      std::max<uint32_t>(4, static_cast<uint32_t>(4000 * Scale));
  RandomConstraintShape Shape =
      randomConstraintShape(NumVars, NumCons, 1.5 / NumVars, Rng);
  SolverOptions Options =
      bench::paperConfig(GraphForm::Inductive, CycleElim::Online);
  Options.Threads = Threads;

  ServeResult Out;
  Out.NumQueries = 1000;

  // The query script: a deterministic ls/pts/alias mix with repeat
  // touches (clients hammer hot variables).
  PRNG QueryRng(404);
  struct Query {
    uint8_t Kind; // 0 = ls, 1 = pts, 2 = alias
    uint32_t A, B;
  };
  std::vector<Query> Queries(Out.NumQueries);
  for (Query &Q : Queries) {
    Q.Kind = static_cast<uint8_t>(QueryRng.nextBelow(3));
    // Zipf-ish skew: half the traffic goes to a 32-variable hot set.
    uint32_t Range = QueryRng.nextBelow(2) == 0
                         ? std::min<uint32_t>(32, NumVars)
                         : NumVars;
    Q.A = static_cast<uint32_t>(QueryRng.nextBelow(Range));
    Q.B = static_cast<uint32_t>(QueryRng.nextBelow(Range));
  }
  auto runQueries = [&](serve::QueryEngine &Engine,
                        std::vector<uint64_t> *Latencies) {
    uint64_t Checksum = 0;
    for (const Query &Q : Queries) {
      Timer T;
      VarId A = Engine.varOf("X" + std::to_string(Q.A));
      if (Q.Kind == 2) {
        VarId B = Engine.varOf("X" + std::to_string(Q.B));
        Checksum = Checksum * 31 + (Engine.alias(A, B) ? 1 : 0);
      } else if (Q.Kind == 1) {
        Checksum = Checksum * 31 + Engine.pts(A).size();
      } else {
        Checksum = Checksum * 31 + Engine.ls(A).size();
      }
      if (Latencies)
        Latencies->push_back(
            static_cast<uint64_t>(T.seconds() * 1e6));
    }
    return Checksum;
  };

  // One solved instance to snapshot.
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, Options);
  emitShapeOrdered(Shape, Solver, /*FactsFirst=*/false);
  Solver.finalize();

  std::vector<uint8_t> Bytes;
  Out.SaveSeconds = bestOfN(Repeats, [&] {
    Bytes.clear();
    Status St = serve::GraphSnapshot::serialize(Solver, Bytes);
    if (!St)
      std::fprintf(stderr, "error: snapshot_save: %s\n",
                   St.toString().c_str());
  });
  Out.SnapshotBytes = Bytes.size();

  Out.LoadSeconds = bestOfN(Repeats, [&] {
    serve::SolverBundle Bundle;
    Status St =
        serve::GraphSnapshot::deserialize(Bytes.data(), Bytes.size(), Bundle);
    if (!St)
      std::fprintf(stderr, "error: snapshot_load: %s\n",
                   St.toString().c_str());
    else
      Bundle.Solver->finalize();
  });
  Out.FreshSeconds = bestOfN(Repeats, [&] {
    ConstructorTable C;
    TermTable T(C);
    ConstraintSolver S(T, Options);
    emitShapeOrdered(Shape, S, /*FactsFirst=*/false);
    S.finalize();
  });

  std::vector<uint64_t> Latencies;
  Out.LoadPathSeconds = bestOfN(Repeats, [&] {
    serve::SolverBundle Bundle;
    Status St =
        serve::GraphSnapshot::deserialize(Bytes.data(), Bytes.size(), Bundle);
    if (!St) {
      std::fprintf(stderr, "error: query_engine: %s\n",
                   St.toString().c_str());
      return;
    }
    serve::QueryEngine Engine(std::move(Bundle));
    Latencies.clear();
    Out.Checksum = runQueries(Engine, &Latencies);
  });
  Out.FreshPathSeconds = bestOfN(Repeats, [&] {
    serve::SolverBundle Fresh;
    Fresh.Constructors = std::make_unique<ConstructorTable>();
    Fresh.Terms = std::make_unique<TermTable>(*Fresh.Constructors);
    Fresh.Solver = std::make_unique<ConstraintSolver>(*Fresh.Terms, Options);
    emitShapeOrdered(Shape, *Fresh.Solver, /*FactsFirst=*/false);
    serve::QueryEngine Engine(std::move(Fresh));
    Out.BaselineChecksum = runQueries(Engine, nullptr);
  });

  std::sort(Latencies.begin(), Latencies.end());
  if (!Latencies.empty()) {
    Out.P50Micros = Latencies[Latencies.size() / 2];
    Out.P99Micros = Latencies[std::min(Latencies.size() - 1,
                                       Latencies.size() * 99 / 100)];
  }
  return Out;
}

/// Fault-tolerance measurements: what a budget abort costs (detect +
/// rollback to the pre-batch graph) and what warm recovery costs
/// (snapshot load + journal replay + finalize()) against a
/// fresh solve of the same constraints. Both assert the recovered state
/// is bit-identical to the expected one.
struct FaultToleranceResult {
  double AbortSeconds = 0;      ///< Budget breach -> rolled back, best of N.
  double AcceptSeconds = 0;     ///< The same line accepted, budgets off.
  bool AbortRolledBack = false; ///< Every repeat hit BudgetExceeded.
  bool AbortStateMatch = false; ///< Post-rollback bytes == pre-batch bytes.
  double RecoverySeconds = 0;   ///< load + replay + finalize(), best of N.
  double RecoveryFreshSeconds = 0; ///< fresh solve + finalize().
  unsigned ReplayedLines = 0;
  bool RecoveryStateMatch = false; ///< Recovered bytes == fresh bytes.
};

FaultToleranceResult measureFaultTolerance(double Scale, unsigned Repeats) {
  PRNG Rng(505);
  uint32_t NumVars =
      std::max<uint32_t>(16, static_cast<uint32_t>(4000 * Scale));
  uint32_t NumCons =
      std::max<uint32_t>(4, static_cast<uint32_t>(2600 * Scale));
  RandomConstraintShape Shape =
      randomConstraintShape(NumVars, NumCons, 1.5 / NumVars, Rng);
  SolverOptions Options =
      bench::paperConfig(GraphForm::Inductive, CycleElim::Online);

  FaultToleranceResult Out;

  // --- budget_abort: a guaranteed-heavy line against an edge budget of
  // one. The chain makes the cascade deterministic: propagating a fresh
  // source down it costs one work unit per hop, far over budget.
  {
    serve::SolverBundle Bundle;
    Bundle.Constructors = std::make_unique<ConstructorTable>();
    Bundle.Terms = std::make_unique<TermTable>(*Bundle.Constructors);
    Bundle.Solver =
        std::make_unique<ConstraintSolver>(*Bundle.Terms, Options);
    emitShapeOrdered(Shape, *Bundle.Solver, /*FactsFirst=*/false);
    Bundle.Solver->finalize();
    serve::QueryEngine Engine(std::move(Bundle));

    const unsigned ChainLen = 100;
    bool Ok = static_cast<bool>(Engine.addConstraint("cons heavysrc"));
    for (unsigned I = 0; Ok && I != ChainLen; ++I)
      Ok = static_cast<bool>(
          Engine.addConstraint("var C" + std::to_string(I)));
    for (unsigned I = 0; Ok && I + 1 != ChainLen; ++I)
      Ok = static_cast<bool>(
          Engine.addConstraint("C" + std::to_string(I) + " <= C" +
                               std::to_string(I + 1)));
    if (!Ok || !Engine.checkpointBase())
      return Out;

    Engine.solver().setBudgets(0, /*MaxEdgeBudget=*/1, 0);
    std::vector<uint8_t> PreBytes;
    if (!serve::GraphSnapshot::serialize(Engine.solver(), PreBytes))
      return Out;

    Out.AbortRolledBack = true;
    Out.AbortSeconds = bestOfN(Repeats, [&] {
      Status St = Engine.addConstraint("heavysrc <= C0");
      if (St.ok() || St.code() != ErrorCode::BudgetExceeded)
        Out.AbortRolledBack = false;
    });

    std::vector<uint8_t> PostBytes;
    if (serve::GraphSnapshot::serialize(Engine.solver(), PostBytes))
      Out.AbortStateMatch = PostBytes == PreBytes;

    // Baseline: the same line accepted with budgets off, measuring the
    // work the abort path walks away from. Each repeat restores the
    // pre-batch graph from PreBytes first (restore untimed, add timed).
    double Best = 1e300;
    for (unsigned I = 0; I != Repeats; ++I) {
      serve::SolverBundle Restored;
      if (!serve::GraphSnapshot::deserialize(PreBytes.data(),
                                             PreBytes.size(), Restored))
        return Out;
      Restored.Solver->setBudgets(0, 0, 0);
      Restored.Solver->setClosure(Options.Closure);
      serve::QueryEngine Accept(std::move(Restored));
      Timer T;
      if (!Accept.addConstraint("heavysrc <= C0"))
        Out.AbortRolledBack = false;
      Best = std::min(Best, T.seconds());
    }
    Out.AcceptSeconds = Best;
  }

  // --- warm_recovery: the base is the shape minus the last 10% of its
  // variable-variable edges; those become the replayed journal.
  {
    RandomConstraintShape Base = Shape;
    size_t Keep = Base.VarVar.size() - Base.VarVar.size() / 10;
    std::vector<std::pair<uint32_t, uint32_t>> Extra(
        Base.VarVar.begin() + Keep, Base.VarVar.end());
    Base.VarVar.resize(Keep);
    Out.ReplayedLines = static_cast<unsigned>(Extra.size());

    std::vector<std::string> Lines;
    Lines.reserve(Extra.size());
    for (auto [From, To] : Extra)
      Lines.push_back("X" + std::to_string(From) + " <= X" +
                      std::to_string(To));

    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms, Options);
    emitShapeOrdered(Base, Solver, /*FactsFirst=*/false);
    std::vector<uint8_t> BaseBytes;
    if (!serve::GraphSnapshot::serialize(Solver, BaseBytes))
      return Out;

    std::vector<uint8_t> RecoveredBytes;
    Out.RecoverySeconds = bestOfN(Repeats, [&] {
      serve::SolverBundle Bundle;
      if (!serve::GraphSnapshot::deserialize(BaseBytes.data(),
                                             BaseBytes.size(), Bundle))
        return;
      Bundle.Solver->setClosure(Options.Closure);
      ConstraintSystemFile Sys;
      if (!Sys.adoptDeclarations(*Bundle.Solver))
        return;
      for (const std::string &Line : Lines)
        if (!Sys.addLine(Line, *Bundle.Solver))
          return;
      Bundle.Solver->finalize();
      RecoveredBytes.clear();
      serve::GraphSnapshot::serialize(*Bundle.Solver, RecoveredBytes);
    });

    std::vector<uint8_t> FreshBytes;
    Out.RecoveryFreshSeconds = bestOfN(Repeats, [&] {
      ConstructorTable C;
      TermTable T(C);
      ConstraintSolver S(T, Options);
      emitShapeOrdered(Base, S, /*FactsFirst=*/false);
      ConstraintSystemFile Sys;
      if (!Sys.adoptDeclarations(S))
        return;
      for (const std::string &Line : Lines)
        if (!Sys.addLine(Line, S))
          return;
      S.finalize();
      FreshBytes.clear();
      serve::GraphSnapshot::serialize(S, FreshBytes);
    });
    Out.RecoveryStateMatch =
        !RecoveredBytes.empty() && RecoveredBytes == FreshBytes;
  }
  return Out;
}

/// Retraction A/B: deleting K constraints from a solved system through
/// the incremental cone recompute against the only alternative a
/// retraction-free solver has — a full re-solve of the survivors after
/// every deletion. Both sides must end with identical rendered least
/// solutions for every variable (compared as text: the incremental
/// TermTable still interns terms of retracted lines, so raw ExprIds
/// differ from a fresh solver's).
struct RetractResult {
  double ConeSeconds = 0;    ///< K retract() calls on one solver, best of N.
  double ResolveSeconds = 0; ///< K fresh solves of the survivors, best of N.
  unsigned Retractions = 0;
  uint64_t ConeVarsRecomputed = 0;
  uint64_t CollapsesSplit = 0;
  bool StateMatch = false;
};

RetractResult measureRetract(double Scale, unsigned Repeats) {
  // A tagged-line system (the path retraction runs through in the serve
  // layer): plain copies, nullary sources, and ref() cells so retraction
  // unwinds decompositions too.
  PRNG Rng(606);
  const uint32_t NumVars =
      std::max<uint32_t>(16, static_cast<uint32_t>(1500 * Scale));
  const uint32_t NumSources = 12;
  const uint32_t NumLines = NumVars + NumVars / 2;
  std::vector<std::string> Decls;
  Decls.push_back("cons ref + -");
  for (uint32_t I = 0; I != NumSources; ++I)
    Decls.push_back("cons src" + std::to_string(I));
  {
    std::string VarLine = "var";
    for (uint32_t I = 0; I != NumVars; ++I)
      VarLine += " X" + std::to_string(I);
    Decls.push_back(std::move(VarLine));
  }
  auto Var = [&] { return "X" + std::to_string(Rng.nextBelow(NumVars)); };
  std::vector<std::string> Lines;
  for (uint32_t I = 0; I != NumLines; ++I) {
    std::string Line;
    switch (Rng.nextBelow(8)) {
    case 0:
    case 1:
      Line = "src" + std::to_string(Rng.nextBelow(NumSources)) + " <= " +
             Var();
      break;
    case 2:
      Line = "ref(" + Var() + ", " + Var() + ") <= " + Var();
      break;
    case 3:
      Line = Var() + " <= ref(" + Var() + ", " + Var() + ")";
      break;
    default:
      Line = Var() + " <= " + Var();
      break;
    }
    if (std::find(Lines.begin(), Lines.end(), Line) == Lines.end())
      Lines.push_back(std::move(Line));
  }
  // K deletion targets spread across the input (never bunched, so the
  // cones sample the whole graph, cycles included).
  const unsigned K = 12;
  std::vector<std::string> Targets;
  for (unsigned I = 0; I != K; ++I)
    Targets.push_back(Lines[(I * Lines.size()) / K]);

  SolverOptions Options =
      bench::paperConfig(GraphForm::Inductive, CycleElim::Online);
  auto feed = [&](ConstraintSystemFile &Sys, ConstraintSolver &Solver,
                  const std::vector<std::string> &Constraints) {
    for (const std::string &Line : Decls)
      if (!Sys.addLine(Line, Solver))
        return false;
    for (const std::string &Line : Constraints)
      if (!Sys.addLine(Line, Solver))
        return false;
    return true;
  };
  auto render = [](ConstraintSolver &Solver) {
    std::vector<std::string> Out;
    for (uint32_t I = 0; I != Solver.numCreations(); ++I) {
      std::vector<std::string> Rendered;
      for (ExprId Term : Solver.leastSolution(Solver.varOfCreation(I)))
        Rendered.push_back(Solver.exprStr(Term));
      std::sort(Rendered.begin(), Rendered.end());
      for (std::string &S : Rendered)
        Out.push_back(std::move(S));
      Out.push_back(";");
    }
    return Out;
  };

  RetractResult Out;
  Out.Retractions = K;

  // Cone path: one solver, K incremental retractions (build untimed).
  std::vector<std::string> ConeRendered;
  double ConeBest = 1e300;
  for (unsigned Rep = 0; Rep != Repeats; ++Rep) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms, Options);
    ConstraintSystemFile Sys;
    if (!feed(Sys, Solver, Lines))
      return Out;
    Solver.finalize();
    Timer T;
    for (const std::string &Target : Targets) {
      std::string Canon;
      if (!Sys.canonicalizeConstraint(Target, Solver, Canon) ||
          !Solver.retract(Canon))
        return Out;
    }
    Solver.finalize();
    ConeBest = std::min(ConeBest, T.seconds());
    Out.ConeVarsRecomputed = Solver.stats().ConeVarsRecomputed;
    Out.CollapsesSplit = Solver.stats().CollapsesSplit;
    ConeRendered = render(Solver);
  }
  Out.ConeSeconds = ConeBest;

  // Baseline: after each deletion, re-solve the survivors from scratch —
  // what a solver without retraction support has to do.
  std::vector<std::string> Survivors = Lines;
  for (const std::string &Target : Targets)
    Survivors.erase(
        std::find(Survivors.begin(), Survivors.end(), Target));
  std::vector<std::string> ResolveRendered;
  double ResolveBest = 1e300;
  for (unsigned Rep = 0; Rep != Repeats; ++Rep) {
    Timer T;
    for (unsigned Step = 1; Step <= K; ++Step) {
      std::vector<std::string> Live = Lines;
      for (unsigned I = 0; I != Step; ++I)
        Live.erase(std::find(Live.begin(), Live.end(), Targets[I]));
      ConstructorTable Constructors;
      TermTable Terms(Constructors);
      ConstraintSolver Solver(Terms, Options);
      ConstraintSystemFile Sys;
      if (!feed(Sys, Solver, Live))
        return Out;
      Solver.finalize();
      if (Step == K)
        ResolveRendered = render(Solver);
    }
    ResolveBest = std::min(ResolveBest, T.seconds());
  }
  Out.ResolveSeconds = ResolveBest;
  Out.StateMatch =
      !ConeRendered.empty() && ConeRendered == ResolveRendered;
  return Out;
}

int emitTrajectory(const std::string &Path) {
  double Scale = 1.0;
  if (const char *Env = std::getenv("POCE_BENCH_SCALE"))
    Scale = std::atof(Env);
  if (Scale <= 0)
    Scale = 1.0;
  unsigned Repeats = 3;
  if (const char *Env = std::getenv("POCE_BENCH_REPEATS"))
    Repeats = std::max(1, std::atoi(Env));
  // Lanes for the thread-scaling entries. The acceptance point of the
  // parallel layer is 4 lanes; override with POCE_BENCH_THREADS (0 = one
  // per hardware thread).
  unsigned Threads = 4;
  if (const char *Env = std::getenv("POCE_BENCH_THREADS"))
    Threads = ThreadPool::resolveThreads(
        static_cast<unsigned>(std::atoi(Env)));
  if (Threads < 1)
    Threads = 1;

  const TrajectoryConfig Configs[] = {
      {"sf_plain", GraphForm::Standard, CycleElim::None, 6000, 4000, 2.0, 101,
       /*FactsFirst=*/true},
      {"sf_online", GraphForm::Standard, CycleElim::Online, 6000, 4000, 2.0,
       102, /*FactsFirst=*/true},
      {"sf_cascade", GraphForm::Standard, CycleElim::None, 4000, 2600, 2.0,
       105, /*FactsFirst=*/false},
      {"if_plain", GraphForm::Inductive, CycleElim::None, 4000, 2600, 1.2,
       103, /*FactsFirst=*/false},
      {"if_online", GraphForm::Inductive, CycleElim::Online, 6000, 4000, 1.5,
       104, /*FactsFirst=*/false},
  };

  std::string Run;
  bench::appendf(Run,
                 "\"repeats\": %u, \"scale\": %.2f, \"threads\": %u,\n"
                 "   \"entries\": [\n",
                 Repeats, Scale, Threads);
  std::printf("=== micro_solver trajectory (best of %u, %u lanes) ===\n",
              Repeats, Threads);

  bool First = true;
  for (const TrajectoryConfig &Base : Configs) {
    TrajectoryConfig Config = Base;
    Config.NumVars = std::max<uint32_t>(
        8, static_cast<uint32_t>(Config.NumVars * Scale));
    Config.NumCons = std::max<uint32_t>(
        4, static_cast<uint32_t>(Config.NumCons * Scale));
    TrajectoryResult R = measureTrajectory(Config, Repeats);
    double Speedup = R.BaselineSeconds / std::max(R.WallSeconds, 1e-9);
    SolverOptions Named = makeConfig(Config.Form, Config.Elim);

    // The hot-path counter keys come from SolverStats::hotPathCounters so
    // the JSON stays in sync with the fig7-9 tables.
    std::string HotPath;
    for (const SolverStats::NamedCounter &C : R.Stats.hotPathCounters())
      HotPath += std::string("\"") + C.Key +
                 "\": " + std::to_string(C.Value) + ", ";
    bench::appendf(
        Run,
        "%s    {\"name\": \"%s\", \"config\": \"%s\", \"order\": \"%s\", "
        "\"vars\": %u, \"cons\": %u,\n"
        "     \"wall_s\": %.6f, \"wall_s_baseline\": %.6f, "
        "\"speedup\": %.2f,\n"
        "     \"work\": %llu, \"edges\": %llu,\n"
        "     %s\"solution_bits\": %llu}",
        First ? "" : ",\n", Config.Name, Named.configName().c_str(),
        Config.FactsFirst ? "facts_first" : "edges_first", Config.NumVars,
        Config.NumCons, R.WallSeconds, R.BaselineSeconds,
        Speedup, (unsigned long long)R.Work, (unsigned long long)R.Edges,
        HotPath.c_str(), (unsigned long long)R.SolutionBits);
    First = false;

    std::printf("%-14s %-10s vars=%-6u wall=%.3fs baseline=%.3fs "
                "speedup=%.2fx work=%llu edges=%llu\n",
                Config.Name, Named.configName().c_str(), Config.NumVars,
                R.WallSeconds, R.BaselineSeconds, Speedup,
                (unsigned long long)R.Work, (unsigned long long)R.Edges);
  }

  // Wave-closure entries on the cascade shape (the worst case for eager
  // singleton deltas, the best case for level-batched sweeps).
  // wave_closure is the schedule A/B at equal propagation machinery
  // (wave vs worklist, DiffProp on for both); sf_cascade_wave keeps the
  // sf_cascade entry's seed-path baseline so the acceptance ratio
  // against the seed implementation is recorded directly.
  {
    TrajectoryConfig Cascade = {"sf_cascade", GraphForm::Standard,
                                CycleElim::None, 4000, 2600, 2.0, 105,
                                /*FactsFirst=*/false};
    Cascade.NumVars = std::max<uint32_t>(
        8, static_cast<uint32_t>(Cascade.NumVars * Scale));
    Cascade.NumCons = std::max<uint32_t>(
        4, static_cast<uint32_t>(Cascade.NumCons * Scale));
    WaveResult R = measureWave(Cascade, Repeats);
    bool ChecksumMatch =
        R.WaveBits == R.WorklistBits && R.WaveBits == R.SeedBits &&
        R.Edges == R.WorklistEdges;
    double VsWorklist = R.WorklistSeconds / std::max(R.WaveSeconds, 1e-9);
    double VsSeed = R.SeedSeconds / std::max(R.WaveSeconds, 1e-9);

    std::string HotPath;
    for (const SolverStats::NamedCounter &C : R.WaveStats.hotPathCounters())
      HotPath += std::string("\"") + C.Key +
                 "\": " + std::to_string(C.Value) + ", ";
    bench::appendf(
        Run,
        ",\n    {\"name\": \"wave_closure\", \"config\": \"SF-Plain\", "
        "\"order\": \"edges_first\", \"vars\": %u, \"cons\": %u,\n"
        "     \"wall_s\": %.6f, \"wall_s_baseline\": %.6f, "
        "\"speedup\": %.2f,\n"
        "     \"work\": %llu, \"edges\": %llu,\n"
        "     \"wave_passes\": %llu, \"levels_propagated\": %llu, "
        "\"wave_fallbacks\": %llu,\n"
        "     %s\"solution_bits\": %llu, \"checksum_match\": %s},\n"
        "    {\"name\": \"sf_cascade_wave\", \"config\": \"SF-Plain\", "
        "\"order\": \"edges_first\", \"vars\": %u, \"cons\": %u,\n"
        "     \"wall_s\": %.6f, \"wall_s_baseline\": %.6f, "
        "\"speedup\": %.2f,\n"
        "     \"work\": %llu, \"edges\": %llu, "
        "\"solution_bits\": %llu, \"checksum_match\": %s}",
        Cascade.NumVars, Cascade.NumCons, R.WaveSeconds, R.WorklistSeconds,
        VsWorklist, (unsigned long long)R.Work, (unsigned long long)R.Edges,
        (unsigned long long)R.WaveStats.WavePasses,
        (unsigned long long)R.WaveStats.LevelsPropagated,
        (unsigned long long)R.WaveStats.WaveFallbacks, HotPath.c_str(),
        (unsigned long long)R.WaveBits, ChecksumMatch ? "true" : "false",
        Cascade.NumVars, Cascade.NumCons, R.WaveSeconds, R.SeedSeconds,
        VsSeed, (unsigned long long)R.Work, (unsigned long long)R.Edges,
        (unsigned long long)R.WaveBits, ChecksumMatch ? "true" : "false");
    std::printf("%-14s %-10s vars=%-6u wall=%.3fs baseline=%.3fs "
                "speedup=%.2fx work=%llu edges=%llu passes=%llu\n",
                "wave_closure", "SF-Plain", Cascade.NumVars, R.WaveSeconds,
                R.WorklistSeconds, VsWorklist, (unsigned long long)R.Work,
                (unsigned long long)R.Edges,
                (unsigned long long)R.WaveStats.WavePasses);
    std::printf("%-14s %-10s vars=%-6u wall=%.3fs baseline=%.3fs "
                "speedup=%.2fx checksum_match=%s\n",
                "sf_cascade_wave", "SF-Plain", Cascade.NumVars,
                R.WaveSeconds, R.SeedSeconds, VsSeed,
                ChecksumMatch ? "yes" : "NO");
    if (!ChecksumMatch) {
      std::fprintf(stderr, "error: wave_closure: wave solutions diverged "
                           "from the worklist/seed solutions\n");
      return 1;
    }
  }

  // The paper's suite under SF-Online: the default (wave) schedule
  // against the eager worklist, with identical points-to sets.
  {
    SuiteClosureResult R = measureSuiteClosure(Scale, Repeats);
    bool ChecksumMatch = R.Checksum == R.BaselineChecksum;
    double Speedup = R.BaselineSeconds / std::max(R.WallSeconds, 1e-9);
    bench::appendf(
        Run,
        ",\n    {\"name\": \"suite_sf_closure\", \"config\": \"SF-Online\", "
        "\"programs\": %u,\n"
        "     \"wall_s\": %.6f, \"wall_s_baseline\": %.6f, "
        "\"speedup\": %.2f,\n"
        "     \"work\": %llu, \"work_baseline\": %llu, "
        "\"delta_props\": %llu, \"delta_props_baseline\": %llu,\n"
        "     \"vars_eliminated\": %llu, \"vars_eliminated_baseline\": %llu, "
        "\"cycle_search_steps\": %llu,\n"
        "     \"wave_passes\": %llu, \"wave_fallbacks\": %llu, "
        "\"wave_collapsed_vars\": %llu,\n"
        "     \"pts_checksum\": %llu, \"checksum_match\": %s}",
        R.Programs, R.WallSeconds, R.BaselineSeconds, Speedup,
        (unsigned long long)R.Stats.Work,
        (unsigned long long)R.BaselineStats.Work,
        (unsigned long long)R.Stats.DeltaPropagations,
        (unsigned long long)R.BaselineStats.DeltaPropagations,
        (unsigned long long)R.Stats.VarsEliminated,
        (unsigned long long)R.BaselineStats.VarsEliminated,
        (unsigned long long)R.Stats.CycleSearchSteps,
        (unsigned long long)R.Stats.WavePasses,
        (unsigned long long)R.Stats.WaveFallbacks,
        (unsigned long long)R.Stats.WaveCollapsedVars,
        (unsigned long long)R.Checksum, ChecksumMatch ? "true" : "false");
    std::printf("%-14s %-10s programs=%-3u wall=%.3fs baseline=%.3fs "
                "speedup=%.2fx work=%llu/%llu delta_props=%llu/%llu "
                "checksum_match=%s\n",
                "suite_sf_closure", "SF-Online", R.Programs, R.WallSeconds,
                R.BaselineSeconds, Speedup, (unsigned long long)R.Stats.Work,
                (unsigned long long)R.BaselineStats.Work,
                (unsigned long long)R.Stats.DeltaPropagations,
                (unsigned long long)R.BaselineStats.DeltaPropagations,
                ChecksumMatch ? "yes" : "NO");
    if (!ChecksumMatch) {
      std::fprintf(stderr, "error: suite_sf_closure: default-schedule "
                           "points-to sets diverged from the worklist's\n");
      return 1;
    }
  }

  // The analysis front half: generation against closure and least
  // solution, per configuration, on the same prepared programs.
  {
    std::vector<std::unique_ptr<workload::PreparedProgram>> Programs;
    for (const workload::ProgramSpec &Spec : workload::paperSuite(Scale))
      Programs.push_back(workload::prepareProgram(Spec));
    const SolverOptions AnalysisConfigs[] = {
        makeConfig(GraphForm::Inductive, CycleElim::Online),
        makeConfig(GraphForm::Standard, CycleElim::Online),
    };
    for (const SolverOptions &Options : AnalysisConfigs) {
      SuiteAnalysisResult R = measureSuiteAnalysis(Programs, Options, Repeats);
      bench::appendf(
          Run,
          ",\n    {\"name\": \"suite_analysis\", \"config\": \"%s\", "
          "\"programs\": %u,\n"
          "     \"wall_s\": %.6f, \"generate_s\": %.6f, \"close_s\": %.6f, "
          "\"settle_s\": %.6f, \"read_s\": %.6f,\n"
          "     \"terms\": %llu, \"constructors\": %llu, \"work\": %llu, "
          "\"ls_union_words\": %llu,\n"
          "     \"pts_checksum\": %llu, \"stable\": %s}",
          Options.configName().c_str(), R.Programs, R.totalSeconds(),
          R.GenerateSeconds, R.CloseSeconds, R.SettleSeconds, R.ReadSeconds,
          (unsigned long long)R.Terms, (unsigned long long)R.Constructors,
          (unsigned long long)R.Stats.Work,
          (unsigned long long)R.Stats.LSUnionWords,
          (unsigned long long)R.Checksum, R.Stable ? "true" : "false");
      std::printf("%-14s %-10s programs=%-3u wall=%.3fs generate=%.3fs "
                  "close=%.3fs settle=%.3fs read=%.3fs terms=%llu work=%llu "
                  "stable=%s\n",
                  "suite_analysis", Options.configName().c_str(), R.Programs,
                  R.totalSeconds(), R.GenerateSeconds, R.CloseSeconds,
                  R.SettleSeconds, R.ReadSeconds, (unsigned long long)R.Terms,
                  (unsigned long long)R.Stats.Work, R.Stable ? "yes" : "NO");
      if (!R.Stable) {
        std::fprintf(stderr, "error: suite_analysis: counters or points-to "
                             "sets changed between suite passes\n");
        return 1;
      }
    }
  }

  // Offline-preprocessing entries. offline_preprocess measures the pass
  // against a cycle-heavy plain configuration (no online elimination to
  // compete with, so the pass carries the whole win); hybrid_cascade
  // stacks it under IF-Online on the cascade emission order — the
  // deployment shape, where offline catches the bulk-load cycles and the
  // online search mops up post-closure ones. Solutions must be
  // bit-identical with the pass off.
  {
    const TrajectoryConfig PreprocessConfigs[] = {
        {"offline_preprocess", GraphForm::Standard, CycleElim::None, 6000,
         4000, 2.0, 106, /*FactsFirst=*/true},
        {"hybrid_cascade", GraphForm::Inductive, CycleElim::Online, 6000,
         4000, 1.5, 107, /*FactsFirst=*/false},
    };
    for (const TrajectoryConfig &Base : PreprocessConfigs) {
      TrajectoryConfig Config = Base;
      Config.NumVars = std::max<uint32_t>(
          8, static_cast<uint32_t>(Config.NumVars * Scale));
      Config.NumCons = std::max<uint32_t>(
          4, static_cast<uint32_t>(Config.NumCons * Scale));
      PreprocessResult R = measurePreprocess(Config, Repeats);
      bool ChecksumMatch = R.OfflineBits == R.BaselineBits;
      double Speedup = R.BaselineSeconds / std::max(R.OfflineSeconds, 1e-9);
      SolverOptions Named = makeConfig(Config.Form, Config.Elim);
      bench::appendf(
          Run,
          ",\n    {\"name\": \"%s\", \"config\": \"%s\", \"order\": \"%s\", "
          "\"vars\": %u, \"cons\": %u,\n"
          "     \"wall_s\": %.6f, \"wall_s_baseline\": %.6f, "
          "\"speedup\": %.2f,\n"
          "     \"offline_vars\": %llu, \"offline_sccs\": %llu, "
          "\"hvn_labels\": %llu,\n"
          "     \"vars_eliminated\": %llu, \"cycle_searches\": %llu,\n"
          "     \"edges\": %llu, \"edges_baseline\": %llu,\n"
          "     \"solution_bits\": %llu, \"checksum_match\": %s}",
          Config.Name, Named.configName().c_str(),
          Config.FactsFirst ? "facts_first" : "edges_first", Config.NumVars,
          Config.NumCons, R.OfflineSeconds, R.BaselineSeconds, Speedup,
          (unsigned long long)R.OfflineStats.OfflineCollapsedVars,
          (unsigned long long)R.OfflineStats.OfflineSCCs,
          (unsigned long long)R.OfflineStats.HVNLabels,
          (unsigned long long)R.OfflineStats.VarsEliminated,
          (unsigned long long)R.OfflineStats.CycleSearches,
          (unsigned long long)R.OfflineEdges,
          (unsigned long long)R.BaselineEdges,
          (unsigned long long)R.OfflineBits, ChecksumMatch ? "true" : "false");
      std::printf("%-14s %-10s vars=%-6u wall=%.3fs baseline=%.3fs "
                  "speedup=%.2fx offline_vars=%llu hvn_labels=%llu "
                  "checksum_match=%s\n",
                  Config.Name, Named.configName().c_str(), Config.NumVars,
                  R.OfflineSeconds, R.BaselineSeconds, Speedup,
                  (unsigned long long)R.OfflineStats.OfflineCollapsedVars,
                  (unsigned long long)R.OfflineStats.HVNLabels,
                  ChecksumMatch ? "yes" : "NO");
      if (!ChecksumMatch) {
        std::fprintf(stderr,
                     "error: %s: solutions with offline preprocessing "
                     "diverged from the pass-off solutions\n",
                     Config.Name);
        return 1;
      }
    }
  }

  // Thread-scaling entries: wall_s is the parallel variant, the baseline
  // a single lane. Checksums are asserted identical (the parallel layer
  // is bit-deterministic).
  struct {
    const char *Name;
    ScalingResult R;
  } ScalingEntries[] = {
      {"if_ls_parallel", measureLSParallel(Scale, Repeats, Threads)},
      {"batch_suite", measureBatchSuite(Scale, Repeats, Threads)},
  };
  for (const auto &Entry : ScalingEntries) {
    const ScalingResult &R = Entry.R;
    double Speedup = R.BaselineSeconds / std::max(R.WallSeconds, 1e-9);
    bench::appendf(
        Run,
        ",\n    {\"name\": \"%s\", \"kind\": \"thread_scaling\", "
        "\"threads\": %u,\n"
        "     \"wall_s\": %.6f, \"wall_s_baseline\": %.6f, "
        "\"speedup\": %.2f,\n"
        "     \"checksum\": %llu, \"checksum_match\": %s}",
        Entry.Name, Threads, R.WallSeconds, R.BaselineSeconds, Speedup,
        (unsigned long long)R.Checksum,
        R.Checksum == R.BaselineChecksum ? "true" : "false");
    std::printf("%-14s threads=%-4u wall=%.3fs baseline=%.3fs "
                "speedup=%.2fx checksum_match=%s\n",
                Entry.Name, Threads, R.WallSeconds, R.BaselineSeconds,
                Speedup, R.Checksum == R.BaselineChecksum ? "yes" : "NO");
    if (R.Checksum != R.BaselineChecksum) {
      std::fprintf(stderr, "error: %s: parallel result diverged from the "
                           "single-lane result\n",
                   Entry.Name);
      return 1;
    }
  }

  // Serve-layer entries: snapshot persistence and the query engine. The
  // contract is that warming a server from a snapshot plus answering a
  // mixed query batch beats re-solving from the constraints plus the same
  // batch — and returns the same answers.
  {
    ServeResult R = measureServe(Scale, Repeats, Threads);
    double LoadSpeedup = R.FreshSeconds / std::max(R.LoadSeconds, 1e-9);
    double PathSpeedup =
        R.FreshPathSeconds / std::max(R.LoadPathSeconds, 1e-9);
    bench::appendf(
        Run,
        ",\n    {\"name\": \"snapshot_save\", \"kind\": \"serve\", "
        "\"wall_s\": %.6f, \"bytes\": %llu},\n"
        "    {\"name\": \"snapshot_load\", \"kind\": \"serve\",\n"
        "     \"wall_s\": %.6f, \"wall_s_baseline\": %.6f, "
        "\"speedup\": %.2f},\n"
        "    {\"name\": \"query_engine\", \"kind\": \"serve\", "
        "\"queries\": %u,\n"
        "     \"wall_s\": %.6f, \"wall_s_baseline\": %.6f, "
        "\"speedup\": %.2f,\n"
        "     \"p50_us\": %llu, \"p99_us\": %llu,\n"
        "     \"checksum\": %llu, \"checksum_match\": %s}",
        R.SaveSeconds, (unsigned long long)R.SnapshotBytes, R.LoadSeconds,
        R.FreshSeconds, LoadSpeedup, R.NumQueries, R.LoadPathSeconds,
        R.FreshPathSeconds, PathSpeedup, (unsigned long long)R.P50Micros,
        (unsigned long long)R.P99Micros, (unsigned long long)R.Checksum,
        R.Checksum == R.BaselineChecksum ? "true" : "false");
    std::printf("%-14s wall=%.3fs bytes=%llu\n", "snapshot_save",
                R.SaveSeconds, (unsigned long long)R.SnapshotBytes);
    std::printf("%-14s wall=%.3fs baseline=%.3fs speedup=%.2fx\n",
                "snapshot_load", R.LoadSeconds, R.FreshSeconds, LoadSpeedup);
    std::printf("%-14s queries=%-4u wall=%.3fs baseline=%.3fs "
                "speedup=%.2fx p50=%lluus p99=%lluus checksum_match=%s\n",
                "query_engine", R.NumQueries, R.LoadPathSeconds,
                R.FreshPathSeconds, PathSpeedup,
                (unsigned long long)R.P50Micros,
                (unsigned long long)R.P99Micros,
                R.Checksum == R.BaselineChecksum ? "yes" : "NO");
    if (R.Checksum != R.BaselineChecksum) {
      std::fprintf(stderr, "error: query_engine: snapshot-path answers "
                           "diverged from the fresh-solve answers\n");
      return 1;
    }
  }

  // Fault-tolerance entries: what a budget abort costs against accepting
  // the same line, and warm recovery (snapshot + journal replay) against
  // a fresh solve. Both verify the resulting graphs bit-identical.
  {
    FaultToleranceResult R = measureFaultTolerance(Scale, Repeats);
    double RecoverySpeedup =
        R.RecoveryFreshSeconds / std::max(R.RecoverySeconds, 1e-9);
    bench::appendf(
        Run,
        ",\n    {\"name\": \"budget_abort\", \"kind\": "
        "\"fault_tolerance\",\n"
        "     \"wall_s\": %.6f, \"wall_s_baseline\": %.6f,\n"
        "     \"rolled_back\": %s, \"state_match\": %s},\n"
        "    {\"name\": \"warm_recovery\", \"kind\": "
        "\"fault_tolerance\", \"replayed_lines\": %u,\n"
        "     \"wall_s\": %.6f, \"wall_s_baseline\": %.6f, "
        "\"speedup\": %.2f,\n"
        "     \"state_match\": %s}",
        R.AbortSeconds, R.AcceptSeconds,
        R.AbortRolledBack ? "true" : "false",
        R.AbortStateMatch ? "true" : "false", R.ReplayedLines,
        R.RecoverySeconds, R.RecoveryFreshSeconds, RecoverySpeedup,
        R.RecoveryStateMatch ? "true" : "false");
    std::printf("%-14s wall=%.4fs accept=%.4fs rolled_back=%s "
                "state_match=%s\n",
                "budget_abort", R.AbortSeconds, R.AcceptSeconds,
                R.AbortRolledBack ? "yes" : "NO",
                R.AbortStateMatch ? "yes" : "NO");
    std::printf("%-14s wall=%.3fs baseline=%.3fs speedup=%.2fx "
                "replayed=%u state_match=%s\n",
                "warm_recovery", R.RecoverySeconds, R.RecoveryFreshSeconds,
                RecoverySpeedup, R.ReplayedLines,
                R.RecoveryStateMatch ? "yes" : "NO");
    if (!R.AbortRolledBack || !R.AbortStateMatch ||
        !R.RecoveryStateMatch) {
      std::fprintf(stderr, "error: fault_tolerance: rollback or recovery "
                           "did not reproduce the expected graph\n");
      return 1;
    }
  }

  // Retraction entry: K incremental deletions via the cone recompute
  // against a full re-solve of the survivors after each deletion, with
  // the rendered least solutions asserted identical.
  {
    RetractResult R = measureRetract(Scale, Repeats);
    double Speedup = R.ResolveSeconds / std::max(R.ConeSeconds, 1e-9);
    bench::appendf(
        Run,
        ",\n    {\"name\": \"retract_cone\", \"kind\": \"retract\", "
        "\"retractions\": %u,\n"
        "     \"wall_s\": %.6f, \"wall_s_baseline\": %.6f, "
        "\"speedup\": %.2f,\n"
        "     \"cone_vars_recomputed\": %llu, \"collapses_split\": %llu, "
        "\"state_match\": %s}",
        R.Retractions, R.ConeSeconds, R.ResolveSeconds, Speedup,
        (unsigned long long)R.ConeVarsRecomputed,
        (unsigned long long)R.CollapsesSplit,
        R.StateMatch ? "true" : "false");
    std::printf("%-14s retractions=%-3u wall=%.4fs baseline=%.4fs "
                "speedup=%.2fx cone_vars=%llu splits=%llu "
                "state_match=%s\n",
                "retract_cone", R.Retractions, R.ConeSeconds,
                R.ResolveSeconds, Speedup,
                (unsigned long long)R.ConeVarsRecomputed,
                (unsigned long long)R.CollapsesSplit,
                R.StateMatch ? "yes" : "NO");
    if (!R.StateMatch) {
      std::fprintf(stderr, "error: retract_cone: incremental retraction "
                           "diverged from the re-solve of survivors\n");
      return 1;
    }
  }

  // The process-wide registry snapshot rides along in the run record:
  // the unconditionally-recorded histograms (snapshot serialize/load,
  // WAL, query-view builds) accumulated across the entries above. Kept
  // inside the run object so readPriorRuns' bracket scan still sees the
  // runs array as the outermost brackets.
  std::string Metrics = MetricsRegistry::global().renderJson();
  bench::appendf(Run, "\n   ],\n   \"metrics\": %s", Metrics.c_str());
  if (!bench::appendTrajectoryRun(Path, "micro_solver", "emit_trajectory",
                                  Run))
    return 1;
  std::printf("appended run to %s\n", Path.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I != argc; ++I) {
    const char *Arg = argv[I];
    if (std::strcmp(Arg, "--emit_trajectory") == 0)
      return emitTrajectory("BENCH_micro_solver.json");
    if (std::strncmp(Arg, "--emit_trajectory=", 18) == 0)
      return emitTrajectory(Arg + 18);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
