//===- tests/serve_test.cpp - QueryEngine semantics ------------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
//
// Behavioral tests for serve/QueryEngine: query semantics over a solved
// system, the view's row reuse counters, and the incremental path — feeding additions through the warm online closure
// (directly and through a snapshot round trip) must be provably
// equivalent to solving the extended system from scratch.
//
//===----------------------------------------------------------------------===//

#include "serve/GraphSnapshot.h"
#include "serve/QueryEngine.h"
#include "serve/Telemetry.h"

#include "support/Metrics.h"
#include "support/PRNG.h"

#include "gtest/gtest.h"

#include <fstream>
#include <map>
#include <sstream>

#ifndef POCE_SOURCE_DIR
#define POCE_SOURCE_DIR "."
#endif

using namespace poce;
using namespace poce::serve;

namespace {

/// A solver bundle built by parsing constraint-file text; hand it to a
/// QueryEngine with take().
struct TextSystem {
  SolverBundle Bundle;
  std::string Error;

  TextSystem(const std::string &Text, SolverOptions Options) {
    Bundle.Constructors = std::make_unique<ConstructorTable>();
    Bundle.Terms = std::make_unique<TermTable>(*Bundle.Constructors);
    Bundle.Solver = std::make_unique<ConstraintSolver>(*Bundle.Terms, Options);
    ConstraintSystemFile System;
    Status Parsed = System.parse(Text);
    if (!Parsed) {
      Error = Parsed.toString();
      return;
    }
    System.emit(*Bundle.Solver);
  }

  ConstraintSolver &solver() { return *Bundle.Solver; }
  SolverBundle take() { return std::move(Bundle); }
};

std::string readCorpusFile(const char *Name) {
  std::ifstream In(std::string(POCE_SOURCE_DIR) + "/examples/data/" + Name);
  EXPECT_TRUE(In.good()) << Name;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

TEST(QueryEngineTest, SwapSemantics) {
  TextSystem Sys(readCorpusFile("swap.scs"),
                 makeConfig(GraphForm::Inductive, CycleElim::Online));
  ASSERT_TRUE(Sys.Error.empty()) << Sys.Error;
  QueryEngine Engine(Sys.take());
  ASSERT_TRUE(Engine.valid()) << Engine.initError();

  VarId P = Engine.varOf("P"), Q = Engine.varOf("Q");
  VarId X = Engine.varOf("X"), Y = Engine.varOf("Y");
  ASSERT_NE(P, QueryEngine::NotFound);
  ASSERT_NE(Q, QueryEngine::NotFound);
  EXPECT_EQ(Engine.varOf("no_such_var"), QueryEngine::NotFound);

  // The T/P/Q cycle collapses, so both pointers see both locations.
  EXPECT_EQ(Engine.pts(P), (std::vector<std::string>{"nx", "ny"}));
  EXPECT_EQ(Engine.pts(Q), (std::vector<std::string>{"nx", "ny"}));
  EXPECT_EQ(Engine.ls(P).size(), 2u);
  EXPECT_NE(Engine.ls(P)[0].find("ref("), std::string::npos);

  EXPECT_TRUE(Engine.alias(P, Q));
  EXPECT_TRUE(Engine.alias(P, P));
  EXPECT_FALSE(Engine.alias(X, Y));
}

TEST(QueryEngineTest, CacheCountersAndInvalidation) {
  const char *Text = "cons a\n"
                     "cons b\n"
                     "var X Y\n"
                     "a <= X\n"
                     "b <= Y\n";
  TextSystem Sys(Text, makeConfig(GraphForm::Inductive, CycleElim::Online));
  ASSERT_TRUE(Sys.Error.empty()) << Sys.Error;
  QueryEngine Engine(Sys.take());
  ASSERT_TRUE(Engine.valid()) << Engine.initError();
  VarId X = Engine.varOf("X"), Y = Engine.varOf("Y");

  // The first read builds the view: one row per representative.
  EXPECT_EQ(Engine.pts(X), std::vector<std::string>{"a"});
  EXPECT_EQ(Engine.pts(Y), std::vector<std::string>{"b"});
  EXPECT_EQ(Engine.counters().RowsBuilt, 2u);
  EXPECT_EQ(Engine.pts(X), std::vector<std::string>{"a"});
  EXPECT_EQ(Engine.counters().RowsBuilt, 2u);
  EXPECT_EQ(Engine.counters().RowsReused, 0u);

  // Growing X rebuilds only X's row: Y's row carries over unchanged.
  Status Added = Engine.addConstraint("b <= X");
  ASSERT_TRUE(Added.ok()) << Added;
  EXPECT_EQ(Engine.counters().Additions, 1u);
  EXPECT_EQ(Engine.journal().size(), 1u);
  EXPECT_EQ(Engine.pts(Y), std::vector<std::string>{"b"});
  EXPECT_EQ(Engine.counters().RowsReused, 1u);
  EXPECT_EQ(Engine.counters().RowsBuilt, 3u);
  EXPECT_EQ(Engine.pts(X), (std::vector<std::string>{"a", "b"}));

  // Declarations work through the same incremental door.
  ASSERT_TRUE(Engine.addConstraint("var Z").ok());
  ASSERT_TRUE(Engine.addConstraint("cons c").ok());
  ASSERT_TRUE(Engine.addConstraint("c <= Z").ok());
  VarId Z = Engine.varOf("Z");
  ASSERT_NE(Z, QueryEngine::NotFound);
  EXPECT_EQ(Engine.pts(Z), std::vector<std::string>{"c"});

  // Malformed and unresolvable lines are rejected without state damage,
  // with the error taxonomy distinguishing parse from precondition.
  Status Bad = Engine.addConstraint("nope <= X");
  EXPECT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.code(), ErrorCode::ParseError);
  Status Dup = Engine.addConstraint("var Z"); // duplicate name
  EXPECT_FALSE(Dup.ok());
  EXPECT_EQ(Engine.pts(Z), std::vector<std::string>{"c"});
  EXPECT_EQ(Engine.journal().size(), 4u); // rejected lines not journaled
}

//===----------------------------------------------------------------------===//
// Incremental-vs-fresh equivalence
//===----------------------------------------------------------------------===//

/// Random base system + random additions in the constraint-file format.
/// Lines only reference variables and constructors already declared by
/// the time they execute, so the same text works parsed whole (fresh
/// solve) or split at the base/additions boundary (incremental).
struct RandomScript {
  std::string Base;
  std::vector<std::string> Additions;
};

RandomScript makeRandomScript(uint64_t Seed) {
  PRNG Rng(Seed);
  const uint32_t NumVars = 30, NumSources = 6;
  std::ostringstream Base;
  for (uint32_t S = 0; S != NumSources; ++S)
    Base << "cons src" << S << "\n";
  Base << "var";
  for (uint32_t V = 0; V != NumVars; ++V)
    Base << " x" << V;
  Base << "\n";
  // Seed every source into the base so the solver's constructor table
  // (the namespace additions resolve against) knows all of them.
  for (uint32_t S = 0; S != NumSources; ++S)
    Base << "src" << S << " <= x" << S << "\n";
  auto ConstraintLine = [&](uint32_t MaxVar) {
    std::ostringstream Line;
    if (Rng.nextU32() % 3 == 0)
      Line << "src" << Rng.nextU32() % NumSources << " <= x"
           << Rng.nextU32() % MaxVar;
    else
      Line << "x" << Rng.nextU32() % MaxVar << " <= x"
           << Rng.nextU32() % MaxVar;
    return Line.str();
  };
  for (int I = 0; I != 50; ++I)
    Base << ConstraintLine(NumVars) << "\n";

  RandomScript Script;
  Script.Base = Base.str();
  // Additions: constraints over old variables, two new variables wired
  // into the graph (so fresh-var order assignment is exercised), and a
  // back edge likely to close new cycles through the warm graph.
  for (int I = 0; I != 10; ++I)
    Script.Additions.push_back(ConstraintLine(NumVars));
  Script.Additions.push_back("var y0 y1");
  Script.Additions.push_back("x0 <= y0");
  Script.Additions.push_back("y0 <= y1");
  Script.Additions.push_back("y1 <= x0");
  Script.Additions.push_back("src0 <= y0");
  for (int I = 0; I != 5; ++I)
    Script.Additions.push_back(ConstraintLine(NumVars));
  return Script;
}

void expectSolversMatch(ConstraintSolver &Fresh, ConstraintSolver &Inc,
                        const std::string &Context) {
  ASSERT_EQ(Fresh.numVars(), Inc.numVars()) << Context;
  EXPECT_EQ(Fresh.referenceLeastSolutions(), Inc.referenceLeastSolutions())
      << Context;
  EXPECT_EQ(Fresh.dumpGraph(), Inc.dumpGraph()) << Context;
  EXPECT_EQ(Fresh.countFinalEdges(), Inc.countFinalEdges()) << Context;
  // Collapsed-cycle witnesses must agree variable by variable.
  for (uint32_t C = 0; C != Fresh.numCreations(); ++C)
    EXPECT_EQ(Fresh.rep(Fresh.varOfCreation(C)),
              Inc.rep(Inc.varOfCreation(C)))
        << Context << " creation " << C;
  const SolverStats &A = Fresh.stats(), &B = Inc.stats();
  EXPECT_EQ(A.Work, B.Work) << Context;
  EXPECT_EQ(A.InitialEdges, B.InitialEdges) << Context;
  EXPECT_EQ(A.RedundantAdds, B.RedundantAdds) << Context;
  EXPECT_EQ(A.VarsEliminated, B.VarsEliminated) << Context;
  EXPECT_EQ(A.CyclesCollapsed, B.CyclesCollapsed) << Context;
  EXPECT_EQ(A.CycleSearchSteps, B.CycleSearchSteps) << Context;
  EXPECT_EQ(A.ConstraintsProcessed, B.ConstraintsProcessed) << Context;
  EXPECT_EQ(A.Mismatches, B.Mismatches) << Context;
  // LSUnionWords is excluded: it accumulates per finalize() and the
  // incremental path finalizes once mid-stream for the snapshot.
}

void runEquivalence(const SolverOptions &Options, uint64_t ScriptSeed,
                    const std::string &Context) {
  RandomScript Script = makeRandomScript(ScriptSeed);
  std::string FullText = Script.Base;
  for (const std::string &Line : Script.Additions)
    FullText += Line + "\n";

  // Fresh solve of the extended system.
  TextSystem Fresh(FullText, Options);
  ASSERT_TRUE(Fresh.Error.empty()) << Context << ": " << Fresh.Error;

  // Incremental: solve the base, snapshot it, reload, then feed the
  // additions through the warm closure via the query engine.
  TextSystem BaseSys(Script.Base, Options);
  ASSERT_TRUE(BaseSys.Error.empty()) << Context << ": " << BaseSys.Error;
  BaseSys.solver().finalize();
  std::vector<uint8_t> Bytes;
  Status Serialized = GraphSnapshot::serialize(BaseSys.solver(), Bytes);
  ASSERT_TRUE(Serialized.ok()) << Context << ": " << Serialized;
  SolverBundle Bundle;
  Status Loaded = GraphSnapshot::deserialize(Bytes.data(), Bytes.size(),
                                             Bundle);
  ASSERT_TRUE(Loaded.ok()) << Context << ": " << Loaded;
  // Snapshots do not record the schedule; re-arm it as scserved does.
  Bundle.Solver->setClosure(Options.Closure);

  QueryEngine Engine(std::move(Bundle));
  ASSERT_TRUE(Engine.valid()) << Context << ": " << Engine.initError();
  for (const std::string &Line : Script.Additions) {
    Status Added = Engine.addConstraint(Line);
    ASSERT_TRUE(Added.ok()) << Context << ": '" << Line << "': " << Added;
  }

  expectSolversMatch(Fresh.solver(), Engine.solver(),
                     Context + " (snapshot)");

  // Same additions against the original in-memory solver (no snapshot in
  // between) — the snapshot must not be what makes them equivalent.
  QueryEngine Direct(BaseSys.take());
  ASSERT_TRUE(Direct.valid()) << Context;
  for (const std::string &Line : Script.Additions) {
    Status Added = Direct.addConstraint(Line);
    ASSERT_TRUE(Added.ok()) << Context << ": '" << Line << "': " << Added;
  }
  expectSolversMatch(Fresh.solver(), Direct.solver(), Context + " (direct)");

  // Query answers agree too.
  QueryEngine FreshEngine(Fresh.take());
  ASSERT_TRUE(FreshEngine.valid()) << Context;
  for (const char *Name : {"x0", "x7", "x29", "y0", "y1"}) {
    VarId F = FreshEngine.varOf(Name), I = Engine.varOf(Name);
    ASSERT_NE(F, QueryEngine::NotFound) << Context << " " << Name;
    ASSERT_NE(I, QueryEngine::NotFound) << Context << " " << Name;
    EXPECT_EQ(FreshEngine.pts(F), Engine.pts(I)) << Context << " " << Name;
    EXPECT_EQ(FreshEngine.ls(F), Engine.ls(I)) << Context << " " << Name;
  }
}

TEST(QueryEngineTest, IncrementalMatchesFreshSolve) {
  uint64_t ScriptSeed = 0x100;
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive})
    for (CycleElim Elim : {CycleElim::None, CycleElim::Online})
      for (bool DiffProp : {false, true}) {
        SolverOptions Options = makeConfig(Form, Elim);
        Options.DiffProp = DiffProp;
        // Graph dumps and counters match the per-add worklist history.
        Options.Closure = ClosureMode::Worklist;
        runEquivalence(Options, ScriptSeed++,
                       Options.configName() +
                           (DiffProp ? "+diffprop" : "-diffprop"));
      }
}

//===----------------------------------------------------------------------===//
// Re-bootstrap keeps the closure schedule
//===----------------------------------------------------------------------===//

class ResetScheduleTest : public testing::TestWithParam<ClosureMode> {};

TEST_P(ResetScheduleTest, ResetFromSnapshotKeepsTheSchedule) {
  // Snapshots do not record the schedule, so an engine re-bootstrapped
  // from one (a follower taking its primary's snapshot) must keep the
  // schedule its solver was armed with, not fall back to the default.
  SolverOptions Options = makeConfig(GraphForm::Standard, CycleElim::Online);
  Options.Closure = GetParam();
  TextSystem Sys(readCorpusFile("swap.scs"), Options);
  ASSERT_TRUE(Sys.Error.empty()) << Sys.Error;
  QueryEngine Engine(Sys.take());
  ASSERT_TRUE(Engine.valid()) << Engine.initError();

  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(GraphSnapshot::serialize(Engine.solver(), Bytes).ok());
  ASSERT_TRUE(Engine.resetFromSnapshot(Bytes.data(), Bytes.size()).ok());
  EXPECT_EQ(Engine.solver().options().Closure, GetParam());

  // Adds after the reset still answer as a fresh solve would.
  ASSERT_TRUE(Engine.addConstraint("var Z").ok());
  ASSERT_TRUE(Engine.addConstraint("P <= Z").ok());
  EXPECT_EQ(Engine.pts(Engine.varOf("Z")),
            (std::vector<std::string>{"nx", "ny"}));
}

INSTANTIATE_TEST_SUITE_P(Schedules, ResetScheduleTest,
                         testing::Values(ClosureMode::Worklist,
                                         ClosureMode::Wave),
                         [](const auto &Info) {
                           return Info.param == ClosureMode::Worklist
                                      ? "Worklist"
                                      : "Wave";
                         });

//===----------------------------------------------------------------------===//
// Telemetry replies (the scserved stats / counters / metrics verbs)
//===----------------------------------------------------------------------===//

/// Parses "key=value" tokens of a one-line reply into a map.
std::map<std::string, std::string> parseKv(const std::string &Reply) {
  std::map<std::string, std::string> Out;
  std::istringstream In(Reply);
  std::string Token;
  while (In >> Token) {
    size_t Eq = Token.find('=');
    if (Eq != std::string::npos)
      Out[Token.substr(0, Eq)] = Token.substr(Eq + 1);
  }
  return Out;
}

QueryEngine makeTelemetryEngine() {
  const char *Text = "cons a\n"
                     "cons b\n"
                     "var X Y Z\n"
                     "a <= X\n"
                     "b <= Y\n"
                     "X <= Z\n";
  TextSystem Sys(Text, makeConfig(GraphForm::Inductive, CycleElim::Online));
  EXPECT_TRUE(Sys.Error.empty()) << Sys.Error;
  return QueryEngine(Sys.take());
}

TEST(TelemetryTest, StatsReplyFieldsAndMonotonicity) {
  QueryEngine Engine = makeTelemetryEngine();
  ASSERT_TRUE(Engine.valid()) << Engine.initError();
  telemetry::ServerCounters Server;
  Server.WalReplayed = 3;
  Server.Checkpoints = 2;

  std::string Reply = telemetry::buildStatsReply(Engine, Server);
  ASSERT_EQ(Reply.rfind("ok ", 0), 0u) << Reply;
  auto Kv = parseKv(Reply);
  for (const char *Key :
       {"config", "vars", "live", "work", "cycles_collapsed",
        "vars_eliminated", "offline_vars", "hvn_labels", "budget_aborts",
        "rollbacks", "retractions", "cone_vars", "collapses_split",
        "wal_replayed", "checkpoints", "wal_records", "wal_bytes"})
    EXPECT_TRUE(Kv.count(Key)) << "missing " << Key << " in: " << Reply;
  EXPECT_EQ(Kv["config"], "IF-Online");
  EXPECT_EQ(Kv["wal_replayed"], "3");
  EXPECT_EQ(Kv["budget_aborts"], "0");

  // Work is monotone under additions; the reply must track it.
  uint64_t WorkBefore = std::stoull(Kv["work"]);
  ASSERT_TRUE(Engine.addConstraint("b <= X").ok());
  auto After = parseKv(telemetry::buildStatsReply(Engine, Server));
  EXPECT_GT(std::stoull(After["work"]), WorkBefore);
}

TEST(TelemetryTest, CountersReplyReadsTheHistogram) {
  QueryEngine Engine = makeTelemetryEngine();
  ASSERT_TRUE(Engine.valid()) << Engine.initError();
  VarId X = Engine.varOf("X");
  ASSERT_NE(X, QueryEngine::NotFound);
  // The test plays the front end, which meters every read it answers.
  Counter Queries;
  (void)Engine.ls(X);
  Queries.inc();
  (void)Engine.ls(X);
  Queries.inc();

  Histogram Latency;
  for (uint64_t V : {10, 20, 30, 40, 1000})
    Latency.record(V);
  std::string Reply = telemetry::buildCountersReply(Engine, Queries, Latency);
  ASSERT_EQ(Reply.rfind("ok ", 0), 0u) << Reply;
  auto Kv = parseKv(Reply);
  for (const char *Key : {"queries", "rows_built", "rows_reused",
                          "additions", "p50_us", "p99_us"})
    EXPECT_TRUE(Kv.count(Key)) << "missing " << Key << " in: " << Reply;
  EXPECT_EQ(Kv["queries"], "2");
  // One view, built by the first read: a row each for X, Y and Z.
  EXPECT_EQ(Kv["rows_built"], "3");
  EXPECT_EQ(Kv["rows_reused"], "0");

  // Percentile parity with the exact ceil-rank percentile: the log-bucket
  // estimate q satisfies exact <= q < 2 * exact.
  std::vector<uint64_t> Sorted{10, 20, 30, 40, 1000};
  uint64_t P50 = std::stoull(Kv["p50_us"]);
  uint64_t P99 = std::stoull(Kv["p99_us"]);
  EXPECT_GE(P50, exactPercentile(Sorted, 0.50));
  EXPECT_LT(P50, 2 * exactPercentile(Sorted, 0.50));
  EXPECT_GE(P99, exactPercentile(Sorted, 0.99));
  EXPECT_LT(P99, 2 * exactPercentile(Sorted, 0.99));
}

TEST(TelemetryTest, MetricsReplyIsFramedLintedPrometheus) {
  QueryEngine Engine = makeTelemetryEngine();
  ASSERT_TRUE(Engine.valid()) << Engine.initError();
  VarId X = Engine.varOf("X");
  ASSERT_NE(X, QueryEngine::NotFound);
  (void)Engine.pts(X);
  telemetry::queryLatencyHistogram().record(25);

  telemetry::ServerCounters Server;
  Server.WalRecords = 4;
  std::string Reply = telemetry::buildMetricsReply(MetricsRegistry::global(),
                                                   Engine, Server);

  // Framing: header line, payload, "# EOF" terminator.
  ASSERT_EQ(Reply.rfind("ok metrics\n", 0), 0u);
  ASSERT_GE(Reply.size(), 5u);
  EXPECT_EQ(Reply.substr(Reply.size() - 5), "# EOF");

  // Every layer's series is present: solver, view, WAL, latency.
  for (const char *Series :
       {"poce_solver_work", "poce_solver_cycles_collapsed",
        "poce_query_requests_total", "poce_query_view_rows_built_total",
        "poce_serve_wal_records", "poce_query_latency_us_bucket",
        "poce_query_latency_us_count"})
    EXPECT_NE(Reply.find(Series), std::string::npos)
        << "missing series " << Series;

  // Structural lint of the payload: every series line is `name value`
  // with a numeric value, histogram buckets are cumulative and end at
  // +Inf == _count.
  std::istringstream In(Reply.substr(std::string("ok metrics\n").size()));
  std::string Line;
  uint64_t Cumulative = 0;
  std::string BucketSeries;
  while (std::getline(In, Line)) {
    if (Line == "# EOF")
      break;
    ASSERT_FALSE(Line.empty());
    if (Line[0] == '#') {
      EXPECT_TRUE(Line.rfind("# HELP ", 0) == 0 ||
                  Line.rfind("# TYPE ", 0) == 0)
          << Line;
      continue;
    }
    size_t Space = Line.find_last_of(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    std::string Value = Line.substr(Space + 1);
    for (char C : Value)
      EXPECT_TRUE(C >= '0' && C <= '9') << Line;
    size_t Brace = Line.find("_bucket{");
    if (Brace != std::string::npos) {
      std::string Series = Line.substr(0, Brace);
      if (Series != BucketSeries) {
        BucketSeries = Series;
        Cumulative = 0;
      }
      uint64_t Count = std::stoull(Value);
      EXPECT_GE(Count, Cumulative) << "non-cumulative bucket: " << Line;
      Cumulative = Count;
    }
  }
  EXPECT_EQ(Line, "# EOF") << "payload not terminated";
}

TEST(QueryEngineTest, RetractionInvalidatesCacheDespiteEqualPopcount) {
  // Regression for the popcount cache fingerprint: retract {a} then add
  // {b} and the solution bitmap returns to population count 1 with a
  // different member. The old fingerprint scheme would have served the
  // stale "{ a }" answer; the view compares whole bitmaps, so X's row is
  // rebuilt.
  const char *Text = "cons a\n"
                     "cons b\n"
                     "var X\n"
                     "a <= X\n";
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
    TextSystem Sys(Text, makeConfig(Form, CycleElim::Online));
    ASSERT_TRUE(Sys.Error.empty()) << Sys.Error;
    QueryEngine Engine(Sys.take());
    ASSERT_TRUE(Engine.valid()) << Engine.initError();
    VarId X = Engine.varOf("X");

    EXPECT_EQ(Engine.pts(X), std::vector<std::string>{"a"}); // Row built.
    ASSERT_TRUE(Engine.retractConstraint("a <= X").ok());
    ASSERT_TRUE(Engine.addConstraint("b <= X").ok());
    EXPECT_EQ(Engine.pts(X), std::vector<std::string>{"b"});
    EXPECT_EQ(Engine.counters().RowsBuilt, 2u);
    EXPECT_EQ(Engine.counters().RowsReused, 0u);
    EXPECT_EQ(Engine.counters().Retractions, 1u);

    // The journal carries the retraction as a WAL v3 record payload.
    ASSERT_EQ(Engine.journal().size(), 2u);
    EXPECT_EQ(Engine.journal()[0], "!retract a <= X");
    EXPECT_EQ(Engine.journal()[1], "b <= X");
  }
}

TEST(QueryEngineTest, RetractErrorsAndCanonicalization) {
  const char *Text = "cons a\n"
                     "var X Y\n"
                     "a <= X\n";
  TextSystem Sys(Text, makeConfig(GraphForm::Inductive, CycleElim::Online));
  ASSERT_TRUE(Sys.Error.empty()) << Sys.Error;
  QueryEngine Engine(Sys.take());
  ASSERT_TRUE(Engine.valid()) << Engine.initError();

  // Whitespace-insensitive: the line canonicalizes before matching.
  EXPECT_TRUE(Engine.checkRetract("  a   <=   X  # comment").ok());
  // Not a live constraint.
  EXPECT_EQ(Engine.checkRetract("X <= Y").code(), ErrorCode::NotFound);
  EXPECT_EQ(Engine.retractConstraint("X <= Y").code(), ErrorCode::NotFound);
  // Not a constraint line at all.
  EXPECT_EQ(Engine.checkRetract("var Z").code(), ErrorCode::InvalidArgument);
  // Unknown names surface as parse errors from canonicalization.
  EXPECT_FALSE(Engine.checkRetract("nope <= X").ok());

  ASSERT_TRUE(Engine.retractConstraint("a <= X \t").ok());
  VarId X = Engine.varOf("X");
  EXPECT_EQ(Engine.pts(X), std::vector<std::string>{});
  // Retracting twice: the constraint is gone.
  EXPECT_EQ(Engine.retractConstraint("a <= X").code(), ErrorCode::NotFound);
}

TEST(QueryEngineTest, RollbackReplaysJournaledRetractions) {
  // A budget breach after a mix of adds and retractions must restore
  // exactly the pre-breach state — including the deletions.
  std::string Text = "cons s\nvar A B\ns <= A\n";
  TextSystem Sys(Text, makeConfig(GraphForm::Inductive, CycleElim::Online));
  ASSERT_TRUE(Sys.Error.empty()) << Sys.Error;
  QueryEngine Engine(Sys.take());
  ASSERT_TRUE(Engine.valid()) << Engine.initError();
  ASSERT_TRUE(Engine.rollbackArmed());

  ASSERT_TRUE(Engine.addConstraint("A <= B").ok());
  ASSERT_TRUE(Engine.retractConstraint("s <= A").ok());
  VarId A = Engine.varOf("A"), B = Engine.varOf("B");
  EXPECT_EQ(Engine.pts(A), std::vector<std::string>{});
  EXPECT_EQ(Engine.pts(B), std::vector<std::string>{});

  // A chain whose flooding exceeds a minimal per-batch work budget.
  ASSERT_TRUE(Engine.addConstraint("var C0").ok());
  for (int I = 1; I != 40; ++I) {
    ASSERT_TRUE(Engine.addConstraint("var C" + std::to_string(I)).ok());
    ASSERT_TRUE(Engine
                    .addConstraint("C" + std::to_string(I - 1) + " <= C" +
                                   std::to_string(I))
                    .ok());
  }
  Engine.solver().setBudgets(0, /*MaxEdgeBudget=*/1, 0);
  Status Breach = Engine.addConstraint("s <= C0");
  ASSERT_FALSE(Breach.ok());
  EXPECT_EQ(Breach.code(), ErrorCode::BudgetExceeded);
  EXPECT_EQ(Engine.counters().Rollbacks, 1u);

  // The rollback replayed the journal — adds AND the retraction.
  A = Engine.varOf("A");
  B = Engine.varOf("B");
  EXPECT_EQ(Engine.pts(A), std::vector<std::string>{});
  EXPECT_EQ(Engine.pts(B), std::vector<std::string>{});
  EXPECT_FALSE(Engine.solver().hasRootTag("s <= A"));
  EXPECT_TRUE(Engine.solver().hasRootTag("A <= B"));
}

TEST(QueryEngineTest, SnapshotRoundTripPreservesProvenance) {
  // checkpointBase absorbs journaled retractions because the v3
  // snapshot carries the base-root provenance: a reloaded engine can
  // still retract constraints added before the checkpoint.
  std::string Text = "cons a\ncons b\nvar X\na <= X\nb <= X\n";
  TextSystem Sys(Text, makeConfig(GraphForm::Inductive, CycleElim::Online));
  ASSERT_TRUE(Sys.Error.empty()) << Sys.Error;
  QueryEngine Engine(Sys.take());
  ASSERT_TRUE(Engine.valid()) << Engine.initError();

  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(GraphSnapshot::serialize(Engine.solver(), Bytes).ok());
  SolverBundle Reloaded;
  ASSERT_TRUE(
      GraphSnapshot::deserialize(Bytes.data(), Bytes.size(), Reloaded).ok());
  QueryEngine Warm(std::move(Reloaded));
  ASSERT_TRUE(Warm.valid()) << Warm.initError();

  // The reloaded solver still knows both tags and can retract one.
  EXPECT_TRUE(Warm.solver().hasRootTag("a <= X"));
  ASSERT_TRUE(Warm.retractConstraint("a <= X").ok());
  VarId X = Warm.varOf("X");
  EXPECT_EQ(Warm.pts(X), std::vector<std::string>{"b"});
}

} // namespace
