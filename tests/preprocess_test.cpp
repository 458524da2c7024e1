//===- tests/preprocess_test.cpp - Offline preprocessing equivalence -------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline-preprocessing contract: PreprocessMode::Offline (HVN
/// pointer-equivalence labeling plus Nuutila SCC substitution before the
/// first closure) must leave every least solution bit-identical across
/// the whole schedule matrix — graph form x elimination strategy x
/// closure schedule x difference propagation x thread lanes — on both
/// the examples/data corpus and random constraint systems. The offline
/// counters are pinned to goldens on the corpus, and the cycle variables
/// caught offline plus online can never exceed the Oracle ground-truth
/// bound.
///
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"
#include "setcon/ConstraintSolver.h"
#include "setcon/Oracle.h"
#include "setcon/Preprocess.h"
#include "workload/RandomConstraints.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace poce;

#ifndef POCE_SOURCE_DIR
#define POCE_SOURCE_DIR "."
#endif

namespace {

/// Least solutions keyed by variable creation index, with sources
/// identified by constructor name (stable across configurations and
/// variable substitutions).
using Signature = std::map<uint32_t, std::set<std::string>>;

Signature lsSignature(ConstraintSolver &Solver) {
  Signature Result;
  const TermTable &Terms = Solver.terms();
  for (uint32_t Creation = 0; Creation != Solver.numCreations(); ++Creation) {
    VarId Var = Solver.varOfCreation(Creation);
    std::set<std::string> Names;
    for (ExprId Term : Solver.leastSolution(Var)) {
      if (Terms.kind(Term) == ExprKind::Cons)
        Names.insert(
            Terms.constructors().signature(Terms.consOf(Term)).Name);
      else
        Names.insert("1");
    }
    Result[Creation] = std::move(Names);
  }
  return Result;
}

bool parseCorpusFile(const char *File, minic::TranslationUnit &Unit) {
  std::string Path =
      std::string(POCE_SOURCE_DIR) + "/examples/data/" + File;
  std::ifstream In(Path);
  if (!In.good())
    return false;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::vector<std::string> Errors;
  return andersen::parseSource(Buffer.str(), Unit, &Errors, File);
}

/// The schedule matrix the pass must be agnostic to.
struct MatrixConfig {
  GraphForm Form;
  CycleElim Elim;
  ClosureMode Closure;
  bool DiffProp;
};

std::vector<MatrixConfig> matrixConfigs() {
  std::vector<MatrixConfig> Out;
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive})
    for (CycleElim Elim :
         {CycleElim::None, CycleElim::Online, CycleElim::Periodic})
      for (ClosureMode Closure : {ClosureMode::Worklist, ClosureMode::Wave})
        for (bool DiffProp : {true, false})
          Out.push_back({Form, Elim, Closure, DiffProp});
  return Out;
}

std::string matrixName(const MatrixConfig &M) {
  SolverOptions Options = makeConfig(M.Form, M.Elim);
  return Options.configName() +
         (M.Closure == ClosureMode::Wave ? "/wave" : "/worklist") +
         (M.DiffProp ? "/diffprop" : "/elementwise");
}

} // namespace

//===----------------------------------------------------------------------===//
// Random constraint systems across the full matrix
//===----------------------------------------------------------------------===//

class PreprocessRandomTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PreprocessRandomTest, SolutionsBitIdenticalAcrossTheMatrix) {
  PRNG Rng(GetParam());
  // Degree 2.0 keeps the shapes past the giant-SCC threshold, so the
  // offline pass has real work on every seed.
  RandomConstraintShape Shape =
      randomConstraintShape(120, 80, 2.0 / 120, Rng);
  for (const MatrixConfig &M : matrixConfigs()) {
    Signature Reference;
    bool HaveReference = false;
    bool PassRan = false;
    for (PreprocessMode Pre :
         {PreprocessMode::None, PreprocessMode::Offline}) {
      ConstructorTable Constructors;
      TermTable Terms(Constructors);
      SolverOptions Options = makeConfig(M.Form, M.Elim, GetParam());
      Options.Closure = M.Closure;
      Options.DiffProp = M.DiffProp;
      Options.Preprocess = Pre;
      ConstraintSolver Solver(Terms, Options);
      workload::emitRandomConstraints(Shape, Solver);
      Solver.finalize();
      if (Pre == PreprocessMode::Offline && Solver.stats().HVNLabels != 0)
        PassRan = true;
      Signature Sig = lsSignature(Solver);
      if (!HaveReference) {
        Reference = std::move(Sig);
        HaveReference = true;
      } else {
        EXPECT_EQ(Sig, Reference) << matrixName(M);
      }
    }
    EXPECT_TRUE(PassRan) << matrixName(M);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreprocessRandomTest,
                         testing::Range<uint64_t>(1, 9));

//===----------------------------------------------------------------------===//
// Thread lanes
//===----------------------------------------------------------------------===//

TEST(PreprocessThreadsTest, LaneCountInvariantWithPreprocessing) {
  PRNG Rng(77);
  RandomConstraintShape Shape =
      randomConstraintShape(300, 200, 2.0 / 300, Rng);
  Signature Reference;
  bool HaveReference = false;
  for (unsigned Threads : {1u, 2u, 8u}) {
    for (PreprocessMode Pre :
         {PreprocessMode::None, PreprocessMode::Offline}) {
      ConstructorTable Constructors;
      TermTable Terms(Constructors);
      SolverOptions Options =
          makeConfig(GraphForm::Inductive, CycleElim::Online);
      Options.Threads = Threads;
      Options.Preprocess = Pre;
      ConstraintSolver Solver(Terms, Options);
      workload::emitRandomConstraints(Shape, Solver);
      Solver.finalize();
      Signature Sig = lsSignature(Solver);
      if (!HaveReference) {
        Reference = std::move(Sig);
        HaveReference = true;
      } else {
        EXPECT_EQ(Sig, Reference)
            << Threads << " lanes, preprocess "
            << (Pre == PreprocessMode::Offline ? "offline" : "none");
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Corpus: points-to results across the matrix
//===----------------------------------------------------------------------===//

class PreprocessCorpusTest : public testing::TestWithParam<const char *> {};

TEST_P(PreprocessCorpusTest, PointsToIdenticalWithAndWithoutThePass) {
  minic::TranslationUnit Unit;
  ASSERT_TRUE(parseCorpusFile(GetParam(), Unit));
  ConstructorTable Constructors;
  for (const MatrixConfig &M : matrixConfigs()) {
    SolverOptions Options = makeConfig(M.Form, M.Elim);
    Options.Closure = M.Closure;
    Options.DiffProp = M.DiffProp;

    Options.Preprocess = PreprocessMode::None;
    andersen::AnalysisResult Without =
        andersen::runAnalysis(Unit, Constructors, Options, nullptr,
                              /*ExtractPointsTo=*/true);
    Options.Preprocess = PreprocessMode::Offline;
    andersen::AnalysisResult With =
        andersen::runAnalysis(Unit, Constructors, Options, nullptr,
                              /*ExtractPointsTo=*/true);
    EXPECT_EQ(With.PointsTo, Without.PointsTo)
        << GetParam() << " " << matrixName(M);
    EXPECT_FALSE(With.PointsTo.empty()) << GetParam();
    // The online search starts from a graph the offline pass already
    // shrank; it can never have to work harder than without the pass.
    EXPECT_LE(With.Stats.CycleSearches, Without.Stats.CycleSearches)
        << GetParam() << " " << matrixName(M);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, PreprocessCorpusTest,
                         testing::Values("list.c", "events.c", "calc.c",
                                         "strings.c"),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           return Name.substr(0, Name.find('.'));
                         });

//===----------------------------------------------------------------------===//
// Golden offline counters on the corpus
//===----------------------------------------------------------------------===//

namespace {

struct OfflineGolden {
  const char *File;
  uint64_t OfflineVars, OfflineSCCs, HVNLabels;
};

// Names the parameter by its file, so test names do not embed pointer bytes.
void PrintTo(const OfflineGolden &G, std::ostream *OS) {
  *OS << '"' << G.File << '"';
}

// Recorded from IF-Online runs with PreprocessMode::Offline on the
// corpus. The counters are schedule-independent (the pass sees the same
// pending constraint set whatever the form or closure mode), so one row
// per file pins the pass itself. The corpus programs have acyclic
// pre-closure variable graphs — their cycles only emerge through
// closure-time decomposition — so the SCC counters are zero and the HVN
// labeling carries all the offline merging.
const OfflineGolden OfflineGoldens[] = {
    {"list.c", 0, 0, 46},
    {"events.c", 0, 0, 41},
    {"calc.c", 0, 0, 67},
    {"strings.c", 0, 0, 26},
};

} // namespace

class OfflineGoldenTest : public testing::TestWithParam<OfflineGolden> {};

TEST_P(OfflineGoldenTest, CountersMatchRecordedValues) {
  const OfflineGolden &G = GetParam();
  minic::TranslationUnit Unit;
  ASSERT_TRUE(parseCorpusFile(G.File, Unit));
  ConstructorTable Constructors;
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
    SolverOptions Options = makeConfig(Form, CycleElim::Online);
    Options.Preprocess = PreprocessMode::Offline;
    andersen::AnalysisResult Result =
        andersen::runAnalysis(Unit, Constructors, Options, nullptr,
                              /*ExtractPointsTo=*/false);
    EXPECT_EQ(Result.Stats.OfflineCollapsedVars, G.OfflineVars) << G.File;
    EXPECT_EQ(Result.Stats.OfflineSCCs, G.OfflineSCCs) << G.File;
    EXPECT_EQ(Result.Stats.HVNLabels, G.HVNLabels) << G.File;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, OfflineGoldenTest,
                         testing::ValuesIn(OfflineGoldens),
                         [](const auto &Info) {
                           std::string Name = Info.param.File;
                           return Name.substr(0, Name.find('.'));
                         });

//===----------------------------------------------------------------------===//
// Oracle bound
//===----------------------------------------------------------------------===//

TEST(PreprocessOracleBoundTest, CaughtCycleVarsNeverExceedTheOracle) {
  // Random systems: every variable the offline pass substitutes and every
  // variable the online search collapses afterwards is a true cycle
  // variable, so together they can never exceed the perfect eliminator.
  for (uint64_t Seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    PRNG Rng(Seed);
    RandomConstraintShape Shape =
        randomConstraintShape(150, 100, 2.0 / 150, Rng);
    ConstructorTable Constructors;
    SolverOptions Base =
        makeConfig(GraphForm::Inductive, CycleElim::Online, Seed);
    Oracle Truth = buildOracle(workload::makeRandomGenerator(Shape),
                               Constructors, Base);
    for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
      TermTable Terms(Constructors);
      SolverOptions Options = makeConfig(Form, CycleElim::Online, Seed);
      Options.Preprocess = PreprocessMode::Offline;
      ConstraintSolver Solver(Terms, Options);
      workload::emitRandomConstraints(Shape, Solver);
      Solver.finalize();
      uint64_t Caught = Solver.stats().OfflineCollapsedVars +
                        Solver.stats().VarsEliminated;
      EXPECT_LE(Caught, Truth.eliminableVars()) << "seed " << Seed;
      // Collapse-bearing shape: the offline pass alone must catch at
      // least 20% of what the perfect eliminator would.
      ASSERT_GT(Truth.eliminableVars(), 0u) << "seed " << Seed;
      EXPECT_GE(Solver.stats().OfflineCollapsedVars * 5,
                Truth.eliminableVars())
          << "seed " << Seed;
    }
  }

  // Corpus programs through the Andersen pipeline.
  for (const char *File : {"list.c", "events.c", "calc.c", "strings.c"}) {
    minic::TranslationUnit Unit;
    ASSERT_TRUE(parseCorpusFile(File, Unit));
    ConstructorTable Constructors;
    SolverOptions Base = makeConfig(GraphForm::Inductive, CycleElim::Online);
    Oracle Truth =
        buildOracle(andersen::makeGenerator(Unit), Constructors, Base);
    SolverOptions Options = makeConfig(GraphForm::Inductive,
                                       CycleElim::Online);
    Options.Preprocess = PreprocessMode::Offline;
    andersen::AnalysisResult Result =
        andersen::runAnalysis(Unit, Constructors, Options, nullptr,
                              /*ExtractPointsTo=*/false);
    EXPECT_LE(Result.Stats.OfflineCollapsedVars +
                  Result.Stats.VarsEliminated,
              Truth.eliminableVars())
        << File;
  }
}

//===----------------------------------------------------------------------===//
// Deferral and replay semantics
//===----------------------------------------------------------------------===//

TEST(PreprocessSolverTest, PostClosureAddsStayOnlineAndAgree) {
  // SCC collapses are exact under post-closure additions — mutual
  // inclusion holds however the system grows — so a bulk load whose
  // offline merges are all SCC collapses must track a never-preprocessed
  // solver bit for bit through an incremental phase. Every variable gets
  // a distinct source so the HVN value numbering cannot merge
  // lookalikes.
  const uint32_t N = 12;
  auto solve = [&](PreprocessMode Pre, SolverStats *Stats) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    SolverOptions Options =
        makeConfig(GraphForm::Inductive, CycleElim::Online);
    Options.Preprocess = Pre;
    ConstraintSolver Solver(Terms, Options);
    std::vector<ExprId> Vars;
    for (uint32_t I = 0; I != N; ++I) {
      Vars.push_back(
          Terms.var(Solver.freshVar("X" + std::to_string(I))));
      Solver.addConstraint(
          Terms.cons(
              Constructors.getOrCreate("src" + std::to_string(I), {}), {}),
          Vars[I]);
    }
    // Bulk: a ring over 0..4 plus a chain feeding it.
    for (uint32_t I = 0; I != 5; ++I)
      Solver.addConstraint(Vars[I], Vars[(I + 1) % 5]);
    Solver.addConstraint(Vars[5], Vars[0]);
    Solver.addConstraint(Vars[6], Vars[5]);
    Solver.finalize(); // First closure: runs the pass when armed.
    uint64_t SCCsAfterBulk = Solver.stats().OfflineSCCs;
    // Incremental: a second ring over 7..9 joined into the first, plus a
    // fresh chain — all processed by the online machinery.
    Solver.addConstraint(Vars[7], Vars[8]);
    Solver.addConstraint(Vars[8], Vars[9]);
    Solver.addConstraint(Vars[9], Vars[7]);
    Solver.addConstraint(Vars[9], Vars[1]);
    Solver.addConstraint(Vars[10], Vars[7]);
    Solver.addConstraint(Vars[11], Vars[10]);
    Solver.finalize();
    // The pass ran exactly once: post-closure adds never re-trigger it.
    EXPECT_EQ(Solver.stats().OfflineSCCs, SCCsAfterBulk);
    if (Stats)
      *Stats = Solver.stats();
    return lsSignature(Solver);
  };

  SolverStats OfflineStats;
  Signature Without = solve(PreprocessMode::None, nullptr);
  Signature With = solve(PreprocessMode::Offline, &OfflineStats);
  EXPECT_EQ(With, Without);
  EXPECT_EQ(OfflineStats.OfflineSCCs, 1u);
  EXPECT_EQ(OfflineStats.OfflineCollapsedVars, 4u);
}

TEST(PreprocessSolverTest, IncrementalAddsOverApproximateMergedClasses) {
  // The HVN copy-chain and empty-class merges assume the deferred bulk
  // load is the complete program (the same whole-program assumption the
  // Oracle mode makes about its generator). Constraints added after the
  // first closure are still solved online, against the merged quotient
  // system: per variable the solutions can only over-approximate the
  // unmerged ground truth — extra flow into a merged class is shared,
  // flow is never lost.
  PRNG Rng(55);
  RandomConstraintShape Shape =
      randomConstraintShape(100, 66, 2.0 / 100, Rng);
  size_t Bulk = Shape.VarVar.size() * 7 / 10;

  auto solve = [&](PreprocessMode Pre) {
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    SolverOptions Options =
        makeConfig(GraphForm::Inductive, CycleElim::Online);
    Options.Preprocess = Pre;
    ConstraintSolver Solver(Terms, Options);
    std::vector<ExprId> Vars, Sources;
    for (uint32_t I = 0; I != Shape.NumVars; ++I)
      Vars.push_back(
          Terms.var(Solver.freshVar("X" + std::to_string(I))));
    for (uint32_t I = 0; I != Shape.NumSources; ++I)
      Sources.push_back(Terms.cons(
          Constructors.getOrCreate("src" + std::to_string(I), {}), {}));
    for (const auto &[Source, Var] : Shape.SourceVar)
      Solver.addConstraint(Sources[Source], Vars[Var]);
    for (size_t I = 0; I != Bulk; ++I)
      Solver.addConstraint(Vars[Shape.VarVar[I].first],
                           Vars[Shape.VarVar[I].second]);
    Solver.finalize();
    for (size_t I = Bulk; I != Shape.VarVar.size(); ++I)
      Solver.addConstraint(Vars[Shape.VarVar[I].first],
                           Vars[Shape.VarVar[I].second]);
    Solver.finalize();
    return lsSignature(Solver);
  };

  Signature Without = solve(PreprocessMode::None);
  Signature With = solve(PreprocessMode::Offline);
  ASSERT_EQ(With.size(), Without.size());
  for (const auto &[Creation, Names] : Without) {
    const std::set<std::string> &Merged = With[Creation];
    EXPECT_TRUE(std::includes(Merged.begin(), Merged.end(), Names.begin(),
                              Names.end()))
        << "variable " << Creation << " lost flow";
  }
}

TEST(PreprocessSolverTest, SetPreprocessArmsOnlyPristineSolvers) {
  ConstructorTable Constructors;
  // Pristine solver: setPreprocess arms the deferred bulk load.
  {
    TermTable Terms(Constructors);
    ConstraintSolver Solver(
        Terms, makeConfig(GraphForm::Inductive, CycleElim::Online));
    Solver.setPreprocess(PreprocessMode::Offline);
    VarId X = Solver.freshVar("X"), Y = Solver.freshVar("Y");
    ExprId Src = Terms.cons(
        Terms.mutableConstructors().getOrCreate("src", {}), {});
    Solver.addConstraint(Src, Terms.var(X));
    Solver.addConstraint(Terms.var(X), Terms.var(Y));
    Solver.addConstraint(Terms.var(Y), Terms.var(X));
    Solver.finalize();
    EXPECT_EQ(Solver.stats().OfflineCollapsedVars, 1u);
    EXPECT_EQ(Solver.stats().OfflineSCCs, 1u);
    EXPECT_EQ(lsSignature(Solver)[0], (std::set<std::string>{"src"}));
  }
  // A solver that already processed constraints must not defer: the
  // mode is recorded but the pass stays disarmed.
  {
    TermTable Terms(Constructors);
    ConstraintSolver Solver(
        Terms, makeConfig(GraphForm::Inductive, CycleElim::Online));
    VarId X = Solver.freshVar("X"), Y = Solver.freshVar("Y");
    Solver.addConstraint(Terms.var(X), Terms.var(Y));
    Solver.setPreprocess(PreprocessMode::Offline);
    Solver.addConstraint(Terms.var(Y), Terms.var(X));
    Solver.finalize();
    EXPECT_EQ(Solver.stats().OfflineSCCs, 0u);
    EXPECT_EQ(Solver.stats().HVNLabels, 0u);
  }
}

//===----------------------------------------------------------------------===//
// The pass in isolation
//===----------------------------------------------------------------------===//

TEST(OfflinePreprocessTest, CopyChainMergesIntoTheHead) {
  // src <= A, A <= B, B <= C: B and C are single-label copies of A, so
  // HVN merges all three; no SCC is involved.
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ExprId Src = Terms.cons(Constructors.getOrCreate("src", {}), {});
  std::vector<std::pair<ExprId, ExprId>> Constraints = {
      {Src, Terms.var(0)},
      {Terms.var(0), Terms.var(1)},
      {Terms.var(1), Terms.var(2)},
  };
  OfflineEquivalence Eq = offlinePreprocess(
      Terms, Constraints, 3, [](VarId Var) { return uint64_t(Var); });
  EXPECT_EQ(Eq.SCCCollapsedVars, 0u);
  EXPECT_EQ(Eq.HVNMergedVars, 2u);
  ASSERT_EQ(Eq.Merges.size(), 2u);
  for (const auto &[Var, Witness] : Eq.Merges)
    EXPECT_EQ(Witness, 0u) << "var " << Var;
}

TEST(OfflinePreprocessTest, IndirectVarsKeepUniqueLabels) {
  // c(X) <= Y means closure can decompose fresh inflow into X, so X (and
  // any var under a constructor) must never be value-numbered together
  // with a lookalike.
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConsId C = Constructors.getOrCreate("c", {Variance::Covariant});
  ExprId Src = Terms.cons(Constructors.getOrCreate("src", {}), {});
  // src <= A, src <= B: identical label sets, but A sits under a
  // constructor on the left of a constraint.
  std::vector<std::pair<ExprId, ExprId>> Constraints = {
      {Src, Terms.var(0)},
      {Src, Terms.var(1)},
      {Terms.cons(C, {Terms.var(0)}), Terms.var(2)},
  };
  OfflineEquivalence Eq = offlinePreprocess(
      Terms, Constraints, 3, [](VarId Var) { return uint64_t(Var); });
  for (const auto &[Var, Witness] : Eq.Merges) {
    EXPECT_NE(Var, 0u);
    EXPECT_NE(Witness, 0u);
  }
}

TEST(OfflinePreprocessTest, ConstructedDecompositionFindsHiddenSCCs) {
  // c(X) <= c(Y) and c(Y) <= c(X) put X and Y in a pre-closure cycle
  // only visible through covariant decomposition.
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConsId C = Constructors.getOrCreate("c", {Variance::Covariant});
  std::vector<std::pair<ExprId, ExprId>> Constraints = {
      {Terms.cons(C, {Terms.var(0)}), Terms.cons(C, {Terms.var(1)})},
      {Terms.cons(C, {Terms.var(1)}), Terms.cons(C, {Terms.var(0)})},
  };
  OfflineEquivalence Eq = offlinePreprocess(
      Terms, Constraints, 2, [](VarId Var) { return uint64_t(Var); });
  EXPECT_EQ(Eq.SCCCollapsedVars, 1u);
  EXPECT_EQ(Eq.NontrivialSCCs, 1u);
}
