//===- tests/snapshot_test.cpp - GraphSnapshot round trips -----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
//
// Persistence tests for serve/GraphSnapshot: save→load round trips must be
// bit-identical and answer-identical across SF/IF × None/Online × DiffProp
// and across thread counts, loading must continue exactly like the
// original solver (including the order RNG), and every malformed input —
// truncations, byte flips, version skew, wrong magic — must fail with an
// actionable error instead of crashing.
//
//===----------------------------------------------------------------------===//

#include "serve/GraphSnapshot.h"

#include "andersen/Andersen.h"
#include "graph/RandomGraph.h"
#include "setcon/ConstraintFile.h"
#include "setcon/Oracle.h"
#include "support/ByteStream.h"
#include "support/PRNG.h"
#include "workload/RandomConstraints.h"

#include "gtest/gtest.h"

#include <fstream>
#include <sstream>

#ifndef POCE_SOURCE_DIR
#define POCE_SOURCE_DIR "."
#endif

using namespace poce;
using namespace poce::serve;

namespace {

struct OwnedSolver {
  std::unique_ptr<ConstructorTable> Constructors;
  std::unique_ptr<TermTable> Terms;
  std::unique_ptr<ConstraintSolver> Solver;

  explicit OwnedSolver(SolverOptions Options)
      : Constructors(std::make_unique<ConstructorTable>()),
        Terms(std::make_unique<TermTable>(*Constructors)),
        Solver(std::make_unique<ConstraintSolver>(*Terms, Options)) {}
};

/// The nine serializable configurations the round-trip matrix covers.
std::vector<SolverOptions> snapshotConfigs() {
  std::vector<SolverOptions> Configs;
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive})
    for (CycleElim Elim : {CycleElim::None, CycleElim::Online})
      for (bool DiffProp : {false, true}) {
        SolverOptions Options = makeConfig(Form, Elim);
        Options.DiffProp = DiffProp;
        Configs.push_back(Options);
      }
  SolverOptions Periodic = makeConfig(GraphForm::Inductive,
                                      CycleElim::Periodic);
  Periodic.PeriodicInterval = 64;
  Configs.push_back(Periodic);
  return Configs;
}

void expectStatsEqual(const SolverStats &A, const SolverStats &B,
                      const std::string &Context,
                      bool IgnoreLSUnionWords = false) {
  EXPECT_EQ(A.VarsCreated, B.VarsCreated) << Context;
  EXPECT_EQ(A.OracleSubstitutions, B.OracleSubstitutions) << Context;
  EXPECT_EQ(A.InitialEdges, B.InitialEdges) << Context;
  EXPECT_EQ(A.DistinctSources, B.DistinctSources) << Context;
  EXPECT_EQ(A.DistinctSinks, B.DistinctSinks) << Context;
  EXPECT_EQ(A.Work, B.Work) << Context;
  EXPECT_EQ(A.RedundantAdds, B.RedundantAdds) << Context;
  EXPECT_EQ(A.SelfEdges, B.SelfEdges) << Context;
  EXPECT_EQ(A.VarsEliminated, B.VarsEliminated) << Context;
  EXPECT_EQ(A.CyclesCollapsed, B.CyclesCollapsed) << Context;
  EXPECT_EQ(A.CycleSearchSteps, B.CycleSearchSteps) << Context;
  EXPECT_EQ(A.CycleSearches, B.CycleSearches) << Context;
  EXPECT_EQ(A.PeriodicPasses, B.PeriodicPasses) << Context;
  EXPECT_EQ(A.Mismatches, B.Mismatches) << Context;
  EXPECT_EQ(A.ConstraintsProcessed, B.ConstraintsProcessed) << Context;
  if (!IgnoreLSUnionWords) {
    EXPECT_EQ(A.LSUnionWords, B.LSUnionWords) << Context;
  }
  EXPECT_EQ(A.DeltaPropagations, B.DeltaPropagations) << Context;
  EXPECT_EQ(A.PropagationsPruned, B.PropagationsPruned) << Context;
  EXPECT_EQ(A.Aborted, B.Aborted) << Context;
  EXPECT_EQ(A.Abort, B.Abort) << Context;
}

/// Full answer-equivalence between an original solver and a loaded one:
/// reference least solutions, stats, edge count, graph dump, collapse
/// structure, and re-serialized bytes.
void expectEquivalent(ConstraintSolver &Original, ConstraintSolver &Loaded,
                      const std::vector<uint8_t> &OriginalBytes,
                      const std::string &Context) {
  ASSERT_EQ(Original.numVars(), Loaded.numVars()) << Context;
  ASSERT_EQ(Original.numCreations(), Loaded.numCreations()) << Context;

  // Re-serialize before any queries: answering queries finalizes the
  // loaded solver, which (correctly) grows an unfinalized snapshot by the
  // materialized least-solution bitmaps.
  std::vector<uint8_t> Reserialized;
  Status Reserialize = GraphSnapshot::serialize(Loaded, Reserialized);
  ASSERT_TRUE(Reserialize.ok()) << Context << ": " << Reserialize;
  EXPECT_EQ(OriginalBytes, Reserialized)
      << Context << ": save(load(save)) is not bit-identical";

  EXPECT_EQ(Original.referenceLeastSolutions(),
            Loaded.referenceLeastSolutions())
      << Context;
  expectStatsEqual(Original.stats(), Loaded.stats(), Context);
  EXPECT_EQ(Original.countFinalEdges(), Loaded.countFinalEdges()) << Context;
  EXPECT_EQ(Original.dumpGraph(), Loaded.dumpGraph()) << Context;
  for (uint32_t C = 0; C != Original.numCreations(); ++C) {
    VarId OriginalVar = Original.varOfCreation(C);
    VarId LoadedVar = Loaded.varOfCreation(C);
    ASSERT_EQ(OriginalVar, LoadedVar) << Context;
    EXPECT_EQ(Original.rep(OriginalVar), Loaded.rep(LoadedVar)) << Context;
    EXPECT_EQ(Original.orderOf(OriginalVar), Loaded.orderOf(LoadedVar))
        << Context;
    EXPECT_EQ(Original.varName(OriginalVar), Loaded.varName(LoadedVar))
        << Context;
  }
  for (VarId Var = 0; Var != Original.numVars(); ++Var) {
    if (Original.isLive(Var)) {
      EXPECT_EQ(Original.leastSolution(Var).toVector<ExprId>(),
                Loaded.leastSolution(Var).toVector<ExprId>())
          << Context << " var " << Var;
    }
  }
}

void roundTrip(ConstraintSolver &Solver, const std::string &Context) {
  std::vector<uint8_t> Bytes;
  Status Serialized = GraphSnapshot::serialize(Solver, Bytes);
  ASSERT_TRUE(Serialized.ok()) << Context << ": " << Serialized;
  SolverBundle Bundle;
  Status Loaded = GraphSnapshot::deserialize(Bytes.data(), Bytes.size(),
                                             Bundle);
  ASSERT_TRUE(Loaded.ok()) << Context << ": " << Loaded;
  expectEquivalent(Solver, *Bundle.Solver, Bytes, Context);
}

TEST(SnapshotTest, RandomSystemsRoundTripAcrossConfigs) {
  PRNG Rng(0xface);
  RandomConstraintShape Shape =
      randomConstraintShape(/*NumVars=*/80, /*NumCons=*/50,
                            /*EdgeProb=*/2.5 / 80, Rng);
  for (const SolverOptions &Options : snapshotConfigs()) {
    OwnedSolver Original(Options);
    workload::emitRandomConstraints(Shape, *Original.Solver);
    Original.Solver->finalize();
    roundTrip(*Original.Solver,
              Options.configName() +
                  (Options.DiffProp ? "+diffprop" : "-diffprop"));
  }
}

TEST(SnapshotTest, BudgetOptionsRoundTrip) {
  // Version 2 carries the resource budgets; they must survive the round
  // trip bit-for-bit (a recovered server re-arms them from the snapshot).
  PRNG Rng(0xb1d6);
  RandomConstraintShape Shape = randomConstraintShape(30, 20, 2.0 / 30, Rng);
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  OwnedSolver Original(Options);
  workload::emitRandomConstraints(Shape, *Original.Solver);
  Original.Solver->finalize();
  Original.Solver->setBudgets(/*DeadlineMs=*/1234, /*MaxEdgeBudget=*/56789,
                              /*MaxMemBytes=*/1ull << 33);

  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(GraphSnapshot::serialize(*Original.Solver, Bytes).ok());
  SolverBundle Bundle;
  Status Loaded =
      GraphSnapshot::deserialize(Bytes.data(), Bytes.size(), Bundle);
  ASSERT_TRUE(Loaded.ok()) << Loaded;
  EXPECT_EQ(Bundle.Solver->options().DeadlineMs, 1234u);
  EXPECT_EQ(Bundle.Solver->options().MaxEdgeBudget, 56789u);
  EXPECT_EQ(Bundle.Solver->options().MaxMemBytes, 1ull << 33);
  roundTrip(*Original.Solver, "budget options");
}

TEST(SnapshotTest, UnfinalizedSolverRoundTrips) {
  PRNG Rng(0xbead);
  RandomConstraintShape Shape =
      randomConstraintShape(40, 30, 2.0 / 40, Rng);
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  OwnedSolver Original(Options);
  workload::emitRandomConstraints(Shape, *Original.Solver);
  // No finalize(): the snapshot must carry the unfinalized state and the
  // loaded solver computes least solutions on first query.
  roundTrip(*Original.Solver, "unfinalized IF-Online");
}

TEST(SnapshotTest, CorpusRoundTrips) {
  for (const char *File : {"list.c", "events.c"}) {
    std::ifstream In(std::string(POCE_SOURCE_DIR) + "/examples/data/" + File);
    ASSERT_TRUE(In.good()) << File;
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    minic::TranslationUnit Unit;
    std::vector<std::string> Errors;
    ASSERT_TRUE(andersen::parseSource(Buffer.str(), Unit, &Errors, File))
        << File;

    for (const SolverOptions &Options : snapshotConfigs()) {
      OwnedSolver Original(Options);
      andersen::makeGenerator(Unit)(*Original.Solver);
      Original.Solver->finalize();
      roundTrip(*Original.Solver,
                std::string(File) + " " + Options.configName() +
                    (Options.DiffProp ? "+diffprop" : "-diffprop"));
    }
  }
}

TEST(SnapshotTest, ScsFileRoundTripsThroughDisk) {
  std::ifstream In(std::string(POCE_SOURCE_DIR) + "/examples/data/swap.scs");
  ASSERT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  ConstraintSystemFile System;
  Status Parsed = System.parse(Buffer.str());
  ASSERT_TRUE(Parsed.ok()) << Parsed;

  OwnedSolver Original(makeConfig(GraphForm::Inductive, CycleElim::Online));
  System.emit(*Original.Solver);
  Original.Solver->finalize();

  std::string Path = testing::TempDir() + "poce_snapshot_test.snap";
  Status Saved = GraphSnapshot::save(*Original.Solver, Path);
  ASSERT_TRUE(Saved.ok()) << Saved;
  SolverBundle Bundle;
  Status Loaded = GraphSnapshot::load(Path, Bundle);
  ASSERT_TRUE(Loaded.ok()) << Loaded;

  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(GraphSnapshot::serialize(*Original.Solver, Bytes).ok());
  expectEquivalent(*Original.Solver, *Bundle.Solver, Bytes, "swap.scs");
  std::remove(Path.c_str());
}

TEST(SnapshotTest, LoadedSolverContinuesIdenticallyToOriginal) {
  // Saving mid-stream captures the order RNG, so a loaded solver must
  // assign the same order indices to future variables and collapse the
  // same cycles as the original solver kept running.
  PRNG Rng(0x5eed);
  RandomConstraintShape Shape =
      randomConstraintShape(60, 40, 2.0 / 60, Rng);
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);

  OwnedSolver Original(Options);
  workload::emitRandomConstraints(Shape, *Original.Solver);

  std::vector<uint8_t> Bytes;
  Status Serialized = GraphSnapshot::serialize(*Original.Solver, Bytes);
  ASSERT_TRUE(Serialized.ok()) << Serialized;
  SolverBundle Bundle;
  Status Loaded = GraphSnapshot::deserialize(Bytes.data(), Bytes.size(),
                                             Bundle);
  ASSERT_TRUE(Loaded.ok()) << Loaded;
  ConstraintSolver &LoadedSolver = *Bundle.Solver;

  auto Extend = [](ConstraintSolver &S) {
    VarId A = S.freshVar("post_a");
    VarId B = S.freshVar("post_b");
    VarId First = S.varOfCreation(0);
    S.addConstraint(S.varExpr(A), S.varExpr(B));
    S.addConstraint(S.varExpr(B), S.varExpr(First));
    S.addConstraint(S.varExpr(First), S.varExpr(A));
  };
  Extend(*Original.Solver);
  Extend(LoadedSolver);

  Original.Solver->finalize();
  LoadedSolver.finalize();
  EXPECT_EQ(Original.Solver->referenceLeastSolutions(),
            LoadedSolver.referenceLeastSolutions());
  EXPECT_EQ(Original.Solver->dumpGraph(), LoadedSolver.dumpGraph());
  expectStatsEqual(Original.Solver->stats(), LoadedSolver.stats(),
                   "post-load continuation");
}

TEST(SnapshotTest, ThreadCountOnLoadIsPurelyWallClock) {
  PRNG Rng(0x7777);
  RandomConstraintShape Shape =
      randomConstraintShape(100, 60, 2.5 / 100, Rng);
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  OwnedSolver Original(Options);
  workload::emitRandomConstraints(Shape, *Original.Solver);
  Original.Solver->finalize();

  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(GraphSnapshot::serialize(*Original.Solver, Bytes).ok());

  SolverBundle One, Eight;
  ASSERT_TRUE(
      GraphSnapshot::deserialize(Bytes.data(), Bytes.size(), One).ok());
  ASSERT_TRUE(
      GraphSnapshot::deserialize(Bytes.data(), Bytes.size(), Eight).ok());
  One.Solver->setThreads(1);
  Eight.Solver->setThreads(8);
  One.Solver->finalize();
  Eight.Solver->finalize();

  for (VarId Var = 0; Var != One.Solver->numVars(); ++Var) {
    if (One.Solver->isLive(Var)) {
      EXPECT_EQ(One.Solver->leastSolution(Var).toVector<ExprId>(),
                Eight.Solver->leastSolution(Var).toVector<ExprId>())
          << "var " << Var;
    }
  }
  EXPECT_EQ(One.Solver->dumpGraph(), Eight.Solver->dumpGraph());
  expectStatsEqual(One.Solver->stats(), Eight.Solver->stats(),
                   "threads 1 vs 8");

  // With the thread knob normalized the two loads re-serialize to the
  // same bytes (Threads is part of the options block, nothing else may
  // differ).
  Eight.Solver->setThreads(1);
  std::vector<uint8_t> FromOne, FromEight;
  ASSERT_TRUE(GraphSnapshot::serialize(*One.Solver, FromOne).ok());
  ASSERT_TRUE(GraphSnapshot::serialize(*Eight.Solver, FromEight).ok());
  EXPECT_EQ(FromOne, FromEight);
}

TEST(SnapshotTest, RejectsOracleAndAbortedSolvers) {
  PRNG Rng(0xabcd);
  RandomConstraintShape Shape = randomConstraintShape(30, 20, 2.0 / 30, Rng);

  SolverOptions OracleOptions =
      makeConfig(GraphForm::Inductive, CycleElim::Oracle);
  ConstructorTable Constructors;
  Oracle Witness = buildOracle(workload::makeRandomGenerator(Shape),
                               Constructors, OracleOptions);
  TermTable Terms(Constructors);
  ConstraintSolver OracleSolver(Terms, OracleOptions, &Witness);
  workload::emitRandomConstraints(Shape, OracleSolver);
  std::vector<uint8_t> Bytes;
  Status OracleStatus = GraphSnapshot::serialize(OracleSolver, Bytes);
  EXPECT_FALSE(OracleStatus.ok());
  EXPECT_EQ(OracleStatus.code(), ErrorCode::FailedPrecondition);
  EXPECT_NE(OracleStatus.message().find("oracle"), std::string::npos)
      << OracleStatus;

  // On the eager worklist the abort lands inside addConstraint; on the
  // default schedule it lands when the deferred closure runs.
  for (ClosureMode Closure :
       {ClosureMode::Worklist, SolverOptions().Closure}) {
    SCOPED_TRACE(Closure == ClosureMode::Worklist ? "worklist" : "wave");
    SolverOptions Tiny = makeConfig(GraphForm::Standard, CycleElim::None);
    Tiny.MaxWork = 1;
    Tiny.Closure = Closure;
    OwnedSolver Aborted(Tiny);
    workload::emitRandomConstraints(Shape, *Aborted.Solver);
    if (Closure != ClosureMode::Worklist)
      Aborted.Solver->ensureClosed();
    ASSERT_TRUE(Aborted.Solver->stats().Aborted);
    EXPECT_EQ(Aborted.Solver->stats().Abort,
              SolverStats::AbortReason::MaxWork);
    Status AbortedStatus = GraphSnapshot::serialize(*Aborted.Solver, Bytes);
    EXPECT_FALSE(AbortedStatus.ok());
    EXPECT_EQ(AbortedStatus.code(), ErrorCode::FailedPrecondition);
    EXPECT_NE(AbortedStatus.message().find("aborted"), std::string::npos)
        << AbortedStatus;
  }
}

//===----------------------------------------------------------------------===//
// Hardened loading
//===----------------------------------------------------------------------===//

class SnapshotFuzzTest : public testing::Test {
protected:
  void SetUp() override {
    SolverOptions Options =
        makeConfig(GraphForm::Inductive, CycleElim::Online);
    Original = std::make_unique<OwnedSolver>(Options);
    PRNG Rng(0xfeed);
    RandomConstraintShape Shape =
        randomConstraintShape(25, 16, 2.0 / 25, Rng);
    workload::emitRandomConstraints(Shape, *Original->Solver);
    Original->Solver->finalize();
    Status Serialized = GraphSnapshot::serialize(*Original->Solver, Bytes);
    ASSERT_TRUE(Serialized.ok()) << Serialized;
  }

  std::unique_ptr<OwnedSolver> Original;
  std::vector<uint8_t> Bytes;
};

TEST_F(SnapshotFuzzTest, RejectsGarbageAndBadMagic) {
  SolverBundle Bundle;
  Status Empty = GraphSnapshot::deserialize(nullptr, 0, Bundle);
  EXPECT_FALSE(Empty.ok());
  EXPECT_EQ(Empty.code(), ErrorCode::Corruption);
  EXPECT_NE(Empty.message().find("truncated"), std::string::npos) << Empty;

  std::vector<uint8_t> Garbage(64, 0x5a);
  Status Bad = GraphSnapshot::deserialize(Garbage.data(), Garbage.size(),
                                          Bundle);
  EXPECT_FALSE(Bad.ok());
  EXPECT_NE(Bad.message().find("magic"), std::string::npos) << Bad;
}

TEST_F(SnapshotFuzzTest, ReportsVersionSkewAsSuch) {
  // The version field sits right after the magic and outside the
  // checksum, so a bumped version must report as unsupported-version.
  std::vector<uint8_t> Skewed = Bytes;
  Skewed[8] = 0xff;
  SolverBundle Bundle;
  Status St = GraphSnapshot::deserialize(Skewed.data(), Skewed.size(),
                                         Bundle);
  EXPECT_FALSE(St.ok());
  EXPECT_EQ(St.code(), ErrorCode::VersionSkew);
  EXPECT_NE(St.message().find("version"), std::string::npos) << St;
}

TEST_F(SnapshotFuzzTest, RejectsEveryTruncation) {
  SolverBundle Bundle;
  // Every strict prefix must fail cleanly (sampled stride keeps the test
  // fast; the boundaries near the header are covered exhaustively).
  for (size_t Len = 0; Len < Bytes.size();
       Len += (Len < 64 ? 1 : 37)) {
    EXPECT_FALSE(GraphSnapshot::deserialize(Bytes.data(), Len, Bundle).ok())
        << "prefix of " << Len << " bytes loaded";
  }
}

TEST_F(SnapshotFuzzTest, RejectsEveryByteFlip) {
  // Fuzz-ish hardening: flipping any single byte must make the load fail
  // (payload flips trip the checksum; header flips trip magic, version,
  // length, or checksum validation) — and never crash.
  SolverBundle Bundle;
  for (size_t I = 0; I != Bytes.size(); ++I) {
    std::vector<uint8_t> Mutated = Bytes;
    Mutated[I] ^= 0xff;
    Status St = GraphSnapshot::deserialize(Mutated.data(), Mutated.size(),
                                           Bundle);
    EXPECT_FALSE(St.ok()) << "byte flip at offset " << I << " loaded";
    EXPECT_FALSE(St.message().empty());
  }
}

TEST_F(SnapshotFuzzTest, RejectsCorruptPayloadEvenWithFixedChecksum) {
  // Deeper than the checksum: re-checksum a semantically corrupt payload
  // (an out-of-range forwarding pointer would index out of bounds if
  // trusted) and confirm the structural validation still rejects it. The
  // forwarding table sits near the end; corrupt a byte there and repair
  // the header checksum.
  for (size_t Back : {size_t{9 * 8 + 19 + 5}, size_t{9 * 8 + 19 + 50},
                      Bytes.size() / 2}) {
    if (Back + 1 >= Bytes.size() - GraphSnapshot::HeaderSize)
      continue;
    std::vector<uint8_t> Mutated = Bytes;
    size_t Offset = Mutated.size() - 1 - Back;
    Mutated[Offset] ^= 0x7f;
    uint64_t Sum = fnv1a64(Mutated.data() + GraphSnapshot::HeaderSize,
                           Mutated.size() - GraphSnapshot::HeaderSize);
    for (int Shift = 0; Shift != 64; Shift += 8)
      Mutated[12 + static_cast<size_t>(Shift / 8)] =
          static_cast<uint8_t>(Sum >> Shift);
    SolverBundle Bundle;
    // Either the structural validation rejects it, or the mutation
    // happened to produce a different-but-valid snapshot (possible for
    // bytes inside stats counters); what must never happen is a crash or
    // an invariant-violating solver.
    Status St = GraphSnapshot::deserialize(Mutated.data(), Mutated.size(),
                                           Bundle);
    if (St.ok())
      EXPECT_TRUE(Bundle.Solver->verifyGraphInvariants());
    else
      EXPECT_FALSE(St.message().empty());
  }
}

} // namespace
