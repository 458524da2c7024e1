//===- tests/solver_test.cpp - Constraint solver unit tests ----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "setcon/ConstraintSolver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

using namespace poce;

namespace {

/// A small harness owning the tables a test solver needs.
struct SolverHarness {
  ConstructorTable Constructors;
  TermTable Terms;
  ConstraintSolver Solver;

  explicit SolverHarness(SolverOptions Options)
      : Terms(Constructors), Solver(Terms, Options) {}

  VarId var(const char *Name) { return Solver.freshVar(Name); }
  ExprId v(VarId Var) { return Terms.var(Var); }
  ExprId source(const char *Name) {
    return Terms.cons(Constructors.getOrCreate(Name, {}), {});
  }
  /// Sorted least solution of Var as source ExprIds.
  std::vector<ExprId> ls(VarId Var) {
    return Solver.leastSolution(Var).toVector<ExprId>();
  }
};

SolverOptions sfPlain() {
  return makeConfig(GraphForm::Standard, CycleElim::None);
}
SolverOptions ifPlain() {
  return makeConfig(GraphForm::Inductive, CycleElim::None);
}

/// \p Options on closure schedule \p Closure.
SolverOptions withClosure(SolverOptions Options, ClosureMode Closure) {
  Options.Closure = Closure;
  return Options;
}

/// The schedules the per-add cases below run under: the eager worklist
/// they assert (each add closes before it returns), and the default,
/// which must agree once its deferred closure has run.
const ClosureMode Schedules[] = {ClosureMode::Worklist,
                                 SolverOptions().Closure};

/// Runs a deferred schedule's pending closure before the first read; the
/// worklist has nothing pending, so its reads stay per-add.
void closeIfDeferred(ConstraintSolver &Solver) {
  if (Solver.options().Closure != ClosureMode::Worklist)
    Solver.ensureClosed();
}

const char *scheduleName(ClosureMode Closure) {
  return Closure == ClosureMode::Worklist ? "worklist" : "wave";
}

} // namespace

namespace poce {
// Names FormTest's parameter by configuration rather than by its raw bytes,
// which include struct padding and change with every SolverOptions field.
static void PrintTo(const SolverOptions &Options, std::ostream *OS) {
  *OS << Options.configName();
}
} // namespace poce

//===----------------------------------------------------------------------===//
// Basic closure and least solutions
//===----------------------------------------------------------------------===//

class FormTest : public testing::TestWithParam<SolverOptions> {};

TEST_P(FormTest, SourcePropagatesAlongChain) {
  SolverHarness H(GetParam());
  VarId X = H.var("X"), Y = H.var("Y"), Z = H.var("Z");
  ExprId C = H.source("c");
  H.Solver.addConstraint(C, H.v(X));
  H.Solver.addConstraint(H.v(X), H.v(Y));
  H.Solver.addConstraint(H.v(Y), H.v(Z));
  EXPECT_EQ(H.ls(Z), std::vector<ExprId>{C});
  EXPECT_EQ(H.ls(Y), std::vector<ExprId>{C});
  EXPECT_EQ(H.ls(X), std::vector<ExprId>{C});
}

TEST_P(FormTest, EdgeAddedBeforeSourceStillPropagates) {
  SolverHarness H(GetParam());
  VarId X = H.var("X"), Y = H.var("Y");
  ExprId C = H.source("c");
  H.Solver.addConstraint(H.v(X), H.v(Y)); // Edge first,
  H.Solver.addConstraint(C, H.v(X));      // source second.
  EXPECT_EQ(H.ls(Y), std::vector<ExprId>{C});
}

TEST_P(FormTest, DiamondMergesSources) {
  SolverHarness H(GetParam());
  VarId A = H.var("A"), B = H.var("B"), C = H.var("C"), D = H.var("D");
  ExprId S1 = H.source("s1"), S2 = H.source("s2");
  H.Solver.addConstraint(S1, H.v(A));
  H.Solver.addConstraint(S2, H.v(B));
  H.Solver.addConstraint(H.v(A), H.v(C));
  H.Solver.addConstraint(H.v(B), H.v(C));
  H.Solver.addConstraint(H.v(C), H.v(D));
  std::vector<ExprId> Expected = {S1, S2};
  std::sort(Expected.begin(), Expected.end());
  EXPECT_EQ(H.ls(D), Expected);
  EXPECT_EQ(H.ls(C), Expected);
  EXPECT_TRUE(H.ls(A).size() == 1 && H.ls(B).size() == 1);
}

TEST_P(FormTest, NoBackwardsFlow) {
  SolverHarness H(GetParam());
  VarId X = H.var("X"), Y = H.var("Y");
  ExprId C = H.source("c");
  H.Solver.addConstraint(H.v(X), H.v(Y));
  H.Solver.addConstraint(C, H.v(Y));
  EXPECT_TRUE(H.ls(X).empty());
  EXPECT_EQ(H.ls(Y), std::vector<ExprId>{C});
}

TEST_P(FormTest, ZeroAndOneRules) {
  SolverHarness H(GetParam());
  VarId X = H.var("X");
  // 0 <= X and X <= 1 are discharged without creating edges.
  H.Solver.addConstraint(H.Terms.zero(), H.v(X));
  H.Solver.addConstraint(H.v(X), H.Terms.one());
  EXPECT_TRUE(H.ls(X).empty());
  EXPECT_EQ(H.Solver.stats().Mismatches, 0u);
  EXPECT_EQ(H.Solver.stats().Work, 0u);
}

TEST_P(FormTest, OneAsSourceAppearsInLS) {
  SolverHarness H(GetParam());
  VarId X = H.var("X"), Y = H.var("Y");
  H.Solver.addConstraint(H.Terms.one(), H.v(X));
  H.Solver.addConstraint(H.v(X), H.v(Y));
  EXPECT_EQ(H.ls(Y), std::vector<ExprId>{H.Terms.one()});
}

TEST_P(FormTest, ReflexiveConstraintIsFree) {
  SolverHarness H(GetParam());
  VarId X = H.var("X");
  H.Solver.addConstraint(H.v(X), H.v(X));
  EXPECT_EQ(H.Solver.stats().Work, 0u);
}

INSTANTIATE_TEST_SUITE_P(Forms, FormTest,
                         testing::Values(sfPlain(), ifPlain()),
                         [](const auto &Info) {
                           return Info.param.Form == GraphForm::Standard
                                      ? "SF"
                                      : "IF";
                         });

//===----------------------------------------------------------------------===//
// Resolution rules (decomposition, variance, mismatches)
//===----------------------------------------------------------------------===//

TEST(ResolutionTest, CovariantDecomposition) {
  SolverHarness H(ifPlain());
  ConsId C = H.Constructors.getOrCreate("c", {Variance::Covariant});
  VarId X = H.var("X"), Y = H.var("Y");
  ExprId S = H.source("s");
  H.Solver.addConstraint(S, H.v(X));
  // c(X) <= c(Y)  ==>  X <= Y.
  H.Solver.addConstraint(H.Terms.cons(C, {H.v(X)}),
                         H.Terms.cons(C, {H.v(Y)}));
  EXPECT_EQ(H.ls(Y), std::vector<ExprId>{S});
}

TEST(ResolutionTest, ContravariantDecompositionFlipsDirection) {
  SolverHarness H(ifPlain());
  ConsId C = H.Constructors.getOrCreate("c", {Variance::Contravariant});
  VarId X = H.var("X"), Y = H.var("Y");
  ExprId S = H.source("s");
  H.Solver.addConstraint(S, H.v(Y));
  // c(~X) <= c(~Y)  ==>  Y <= X.
  H.Solver.addConstraint(H.Terms.cons(C, {H.v(X)}),
                         H.Terms.cons(C, {H.v(Y)}));
  EXPECT_EQ(H.ls(X), std::vector<ExprId>{S});
  EXPECT_TRUE(H.ls(Y).size() == 1);
}

TEST(ResolutionTest, MixedVarianceRefLikeConstructor) {
  SolverHarness H(ifPlain());
  ConsId Ref = H.Constructors.getOrCreate(
      "ref", {Variance::Covariant, Variance::Contravariant});
  VarId Get = H.var("Get"), T = H.var("T"), U = H.var("U");
  ExprId S = H.source("s");
  // Read: ref(Get, ~Get) <= ref(T, ~0) gives Get <= T.
  H.Solver.addConstraint(S, H.v(Get));
  H.Solver.addConstraint(
      H.Terms.cons(Ref, {H.v(Get), H.v(Get)}),
      H.Terms.cons(Ref, {H.v(T), H.Terms.zero()}));
  EXPECT_EQ(H.ls(T), std::vector<ExprId>{S});
  // Write: ref(Get, ~Get) <= ref(1, ~U) gives U <= Get.
  ExprId S2 = H.source("s2");
  H.Solver.addConstraint(S2, H.v(U));
  H.Solver.addConstraint(H.Terms.cons(Ref, {H.v(Get), H.v(Get)}),
                         H.Terms.cons(Ref, {H.Terms.one(), H.v(U)}));
  std::vector<ExprId> GetLS = H.ls(Get);
  EXPECT_TRUE(std::find(GetLS.begin(), GetLS.end(), S2) != GetLS.end());
}

TEST(ResolutionTest, ConstructorMismatchIsCountedAndIgnored) {
  for (ClosureMode Closure : Schedules) {
    SCOPED_TRACE(scheduleName(Closure));
    SolverHarness H(withClosure(ifPlain(), Closure));
    ExprId A = H.source("a");
    ExprId B = H.source("b");
    VarId X = H.var("X");
    H.Solver.addConstraint(A, H.v(X));
    H.Solver.addConstraint(H.v(X), B); // Sink b; pairing a <= b mismatches.
    closeIfDeferred(H.Solver);
    EXPECT_EQ(H.Solver.stats().Mismatches, 1u);
    EXPECT_TRUE(H.Solver.inconsistencies().empty()); // Ignore policy.
  }
}

TEST(ResolutionTest, MismatchCollectPolicyRecords) {
  for (ClosureMode Closure : Schedules) {
    SCOPED_TRACE(scheduleName(Closure));
    SolverOptions Options = withClosure(ifPlain(), Closure);
    Options.Mismatch = MismatchPolicy::Collect;
    SolverHarness H(Options);
    VarId X = H.var("X");
    H.Solver.addConstraint(H.source("a"), H.v(X));
    H.Solver.addConstraint(H.v(X), H.source("b"));
    closeIfDeferred(H.Solver);
    ASSERT_EQ(H.Solver.inconsistencies().size(), 1u);
    EXPECT_NE(H.Solver.inconsistencies()[0].find("a"), std::string::npos);
    EXPECT_NE(H.Solver.inconsistencies()[0].find("b"), std::string::npos);
  }
}

TEST(ResolutionTest, OneIntoConstructedIsMismatch) {
  for (ClosureMode Closure : Schedules) {
    SCOPED_TRACE(scheduleName(Closure));
    SolverHarness H(withClosure(ifPlain(), Closure));
    VarId X = H.var("X");
    H.Solver.addConstraint(H.Terms.one(), H.v(X));
    H.Solver.addConstraint(H.v(X), H.source("c"));
    closeIfDeferred(H.Solver);
    EXPECT_EQ(H.Solver.stats().Mismatches, 1u);
  }
}

TEST(ResolutionTest, ArityMismatchBetweenFamilies) {
  for (ClosureMode Closure : Schedules) {
    SCOPED_TRACE(scheduleName(Closure));
    SolverHarness H(withClosure(ifPlain(), Closure));
    ConsId Lam1 = H.Constructors.getOrCreate("lam$1", {Variance::Covariant});
    ConsId Lam2 = H.Constructors.getOrCreate(
        "lam$2", {Variance::Covariant, Variance::Covariant});
    VarId X = H.var("X"), Y = H.var("Y");
    H.Solver.addConstraint(H.Terms.cons(Lam1, {H.v(X)}), H.v(Y));
    H.Solver.addConstraint(
        H.v(Y), H.Terms.cons(Lam2, {H.v(X), H.v(X)}));
    closeIfDeferred(H.Solver);
    EXPECT_EQ(H.Solver.stats().Mismatches, 1u);
  }
}

TEST(ResolutionTest, NestedDecomposition) {
  SolverHarness H(ifPlain());
  ConsId C = H.Constructors.getOrCreate("c", {Variance::Covariant});
  VarId X = H.var("X"), Y = H.var("Y");
  ExprId S = H.source("s");
  H.Solver.addConstraint(S, H.v(X));
  // c(c(X)) <= c(c(Y))  ==>  X <= Y.
  H.Solver.addConstraint(H.Terms.cons(C, {H.Terms.cons(C, {H.v(X)})}),
                         H.Terms.cons(C, {H.Terms.cons(C, {H.v(Y)})}));
  EXPECT_EQ(H.ls(Y), std::vector<ExprId>{S});
}

//===----------------------------------------------------------------------===//
// Work accounting
//===----------------------------------------------------------------------===//

TEST(WorkTest, TreeHasNoRedundantAdds) {
  SolverHarness H(sfPlain());
  VarId A = H.var("A"), B = H.var("B"), C = H.var("C");
  H.Solver.addConstraint(H.source("s"), H.v(A));
  H.Solver.addConstraint(H.v(A), H.v(B));
  H.Solver.addConstraint(H.v(A), H.v(C));
  H.Solver.finalize();
  EXPECT_EQ(H.Solver.stats().RedundantAdds, 0u);
  EXPECT_EQ(H.Solver.stats().SelfEdges, 0u);
}

TEST(WorkTest, ParallelPathsCauseRedundantAddsInSF) {
  // The paper's Figure 2: k sources into X, l parallel paths X -> Yi -> Z.
  SolverHarness H(sfPlain());
  const int K = 3, L = 4;
  VarId X = H.var("X"), Z = H.var("Z");
  std::vector<ExprId> Sources;
  for (int I = 0; I != K; ++I) {
    Sources.push_back(H.source(("s" + std::to_string(I)).c_str()));
    H.Solver.addConstraint(Sources.back(), H.v(X));
  }
  for (int I = 0; I != L; ++I) {
    VarId Y = H.var(("Y" + std::to_string(I)).c_str());
    H.Solver.addConstraint(H.v(X), H.v(Y));
    H.Solver.addConstraint(H.v(Y), H.v(Z));
  }
  H.Solver.finalize();
  // Each source is added to Z along each of the L paths; L-1 of those are
  // redundant per source.
  EXPECT_EQ(H.Solver.stats().RedundantAdds,
            static_cast<uint64_t>(K) * (L - 1));
  std::vector<ExprId> Expected = Sources;
  std::sort(Expected.begin(), Expected.end());
  EXPECT_EQ(H.ls(Z), Expected);
}

TEST(WorkTest, InitialEdgesCountsOnlyInputConstraints) {
  SolverHarness H(sfPlain());
  VarId X = H.var("X"), Y = H.var("Y");
  H.Solver.addConstraint(H.source("s"), H.v(X)); // 1 initial edge.
  H.Solver.addConstraint(H.v(X), H.v(Y));        // 1 initial edge.
  // The derived addition s <= Y is not an initial edge.
  H.Solver.finalize();
  EXPECT_EQ(H.Solver.stats().InitialEdges, 2u);
  EXPECT_EQ(H.Solver.stats().Work, 3u);
}

TEST(WorkTest, DistinctSourceAndSinkCounts) {
  SolverHarness H(withClosure(sfPlain(), ClosureMode::Worklist));
  VarId X = H.var("X"), Y = H.var("Y");
  ExprId S = H.source("s");
  H.Solver.addConstraint(S, H.v(X));
  H.Solver.addConstraint(S, H.v(Y)); // Same source, second variable.
  H.Solver.addConstraint(H.v(X), H.source("t"));
  EXPECT_EQ(H.Solver.stats().DistinctSources, 1u);
  EXPECT_EQ(H.Solver.stats().DistinctSinks, 1u);
}

TEST(WorkTest, MaxWorkAborts) {
  for (ClosureMode Closure : Schedules) {
    SCOPED_TRACE(scheduleName(Closure));
    SolverOptions Options = withClosure(sfPlain(), Closure);
    Options.MaxWork = 10;
    SolverHarness H(Options);
    // A quadratic-ish system that needs more than 10 additions.
    std::vector<VarId> Vars;
    for (int I = 0; I != 10; ++I)
      Vars.push_back(H.var(("V" + std::to_string(I)).c_str()));
    for (int I = 0; I != 5; ++I)
      H.Solver.addConstraint(H.source(("s" + std::to_string(I)).c_str()),
                             H.v(Vars[0]));
    for (int I = 0; I + 1 != 10; ++I)
      H.Solver.addConstraint(H.v(Vars[I]), H.v(Vars[I + 1]));
    closeIfDeferred(H.Solver);
    EXPECT_TRUE(H.Solver.stats().Aborted);
    EXPECT_LE(H.Solver.stats().Work, 12u); // Stops promptly after the bound.
  }
}

//===----------------------------------------------------------------------===//
// Graph introspection
//===----------------------------------------------------------------------===//

TEST(IntrospectionTest, FinalEdgesCountsDistinctEdges) {
  SolverHarness H(sfPlain());
  VarId X = H.var("X"), Y = H.var("Y");
  H.Solver.addConstraint(H.source("s"), H.v(X));
  H.Solver.addConstraint(H.v(X), H.v(Y));
  H.Solver.finalize();
  // Edges: s in pred(X), Y in succ(X), s in pred(Y).
  EXPECT_EQ(H.Solver.countFinalEdges(), 3u);
}

TEST(IntrospectionTest, VarVarDigraphDirections) {
  SolverHarness H(ifPlain());
  VarId X = H.var("X"), Y = H.var("Y"), Z = H.var("Z");
  H.Solver.addConstraint(H.v(X), H.v(Y));
  H.Solver.addConstraint(H.v(Y), H.v(Z));
  GraphRows G = H.Solver.varGraph();
  auto HasEdge = [&G](VarId From, VarId To) {
    std::span<const uint32_t> Row = G.row(From);
    return std::find(Row.begin(), Row.end(), To) != Row.end();
  };
  EXPECT_TRUE(HasEdge(X, Y));
  EXPECT_TRUE(HasEdge(Y, Z));
  EXPECT_FALSE(HasEdge(Y, X));
}

TEST(IntrospectionTest, RecordedVarVarInCreationIndexSpace) {
  SolverOptions Options = withClosure(ifPlain(), ClosureMode::Worklist);
  Options.RecordVarVar = true;
  SolverHarness H(Options);
  VarId X = H.var("X"), Y = H.var("Y");
  H.Solver.addConstraint(H.v(X), H.v(Y));
  H.Solver.addConstraint(H.v(X), H.v(Y)); // Duplicate: recorded once.
  ASSERT_EQ(H.Solver.recordedVarVar().size(), 1u);
  EXPECT_EQ(H.Solver.recordedVarVar()[0],
            std::make_pair(H.Solver.creationIndexOf(X),
                           H.Solver.creationIndexOf(Y)));
  EXPECT_EQ(H.Solver.recordedInitialVarVar().size(), 1u);
}

TEST(IntrospectionTest, OrderKindsAssignExpectedOrders) {
  SolverOptions Creation = ifPlain();
  Creation.Order = OrderKind::Creation;
  SolverHarness H(Creation);
  VarId A = H.var("A"), B = H.var("B");
  EXPECT_LT(H.Solver.orderOf(A), H.Solver.orderOf(B));

  SolverOptions Reverse = ifPlain();
  Reverse.Order = OrderKind::ReverseCreation;
  SolverHarness H2(Reverse);
  VarId C = H2.var("C"), D = H2.var("D");
  EXPECT_GT(H2.Solver.orderOf(C), H2.Solver.orderOf(D));
}

TEST(IntrospectionTest, PredChainReachableCountsChains) {
  SolverOptions Options = ifPlain();
  Options.Order = OrderKind::Creation;
  SolverHarness H(Options);
  // With creation order, A < B < C; edges A <= B <= C become pred edges.
  VarId A = H.var("A"), B = H.var("B"), C = H.var("C");
  H.Solver.addConstraint(H.v(A), H.v(B));
  H.Solver.addConstraint(H.v(B), H.v(C));
  EXPECT_EQ(H.Solver.countPredChainReachable(C), 2u);
  EXPECT_EQ(H.Solver.countPredChainReachable(B), 1u);
  EXPECT_EQ(H.Solver.countPredChainReachable(A), 0u);
}

//===----------------------------------------------------------------------===//
// Maintenance: compact() and dumpGraph()
//===----------------------------------------------------------------------===//

TEST(MaintenanceTest, CompactPreservesSolutionsAndEdges) {
  SolverOptions Options =
      makeConfig(GraphForm::Inductive, CycleElim::Online, 17);
  SolverHarness H(Options);
  // A cyclic system leaves stale forwarded entries behind.
  std::vector<VarId> Vars;
  for (int I = 0; I != 12; ++I)
    Vars.push_back(H.var(("V" + std::to_string(I)).c_str()));
  ExprId S = H.source("s");
  H.Solver.addConstraint(S, H.v(Vars[0]));
  for (int I = 0; I != 12; ++I)
    H.Solver.addConstraint(H.v(Vars[I]), H.v(Vars[(I + 1) % 12]));
  for (int I = 0; I != 12; I += 3)
    H.Solver.addConstraint(H.v(Vars[(I + 5) % 12]), H.v(Vars[I]));
  H.Solver.finalize();

  uint64_t EdgesBefore = H.Solver.countFinalEdges();
  std::vector<std::vector<ExprId>> Before;
  for (VarId Var : Vars)
    Before.push_back(H.Solver.leastSolution(Var).toVector<ExprId>());

  H.Solver.compact();
  EXPECT_EQ(H.Solver.countFinalEdges(), EdgesBefore);
  for (size_t I = 0; I != Vars.size(); ++I)
    EXPECT_EQ(H.Solver.leastSolution(Vars[I]).toVector<ExprId>(), Before[I]);
  // A second compaction finds nothing left to remove.
  EXPECT_EQ(H.Solver.compact(), 0u);
}

TEST(MaintenanceTest, CompactOnCleanGraphIsNoop) {
  SolverHarness H(makeConfig(GraphForm::Standard, CycleElim::None));
  VarId X = H.var("X"), Y = H.var("Y");
  H.Solver.addConstraint(H.source("s"), H.v(X));
  H.Solver.addConstraint(H.v(X), H.v(Y));
  EXPECT_EQ(H.Solver.compact(), 0u);
}

TEST(MaintenanceTest, DumpGraphShowsResolvedStructure) {
  SolverHarness H(makeConfig(GraphForm::Standard, CycleElim::None));
  VarId X = H.var("alpha"), Y = H.var("beta");
  H.Solver.addConstraint(H.source("s"), H.v(X));
  H.Solver.addConstraint(H.v(X), H.v(Y));
  H.Solver.finalize();
  std::string Dump = H.Solver.dumpGraph();
  EXPECT_NE(Dump.find("var alpha"), std::string::npos);
  EXPECT_NE(Dump.find("var beta"), std::string::npos);
  EXPECT_NE(Dump.find("pred: s"), std::string::npos);
  EXPECT_NE(Dump.find("succ: beta"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Option names
//===----------------------------------------------------------------------===//

TEST(SolverOptionsTest, ConfigNamesParseBack) {
  // Every name configName() prints parses back to the same form and
  // elimination, in its own spelling and in command-line lower case.
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive})
    for (CycleElim Elim : {CycleElim::None, CycleElim::Online,
                           CycleElim::Oracle, CycleElim::Periodic}) {
      std::string Name = makeConfig(Form, Elim).configName();
      std::string Lower = Name;
      for (char &C : Lower)
        C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
      for (const std::string &Spelling : {Name, Lower}) {
        SolverOptions Parsed;
        Parsed.Seed = 42;
        ASSERT_TRUE(parseConfigName(Spelling, Parsed)) << Spelling;
        EXPECT_EQ(Parsed.Form, Form) << Spelling;
        EXPECT_EQ(Parsed.Elim, Elim) << Spelling;
        EXPECT_EQ(Parsed.configName(), Name);
        EXPECT_EQ(Parsed.Seed, 42u) << "only form and elimination change";
      }
    }
  SolverOptions Untouched = makeConfig(GraphForm::Standard, CycleElim::None);
  for (const char *Bad : {"", "if", "if-", "-online", "xf-online",
                          "if-online ", "if_online", "IF-Onlinex"})
    EXPECT_FALSE(parseConfigName(Bad, Untouched)) << Bad;
  EXPECT_EQ(Untouched.configName(), "SF-Plain");

  ClosureMode Closure = ClosureMode::Wave;
  EXPECT_TRUE(parseClosureName("worklist", Closure));
  EXPECT_EQ(Closure, ClosureMode::Worklist);
  EXPECT_TRUE(parseClosureName("wave", Closure));
  EXPECT_EQ(Closure, ClosureMode::Wave);
  EXPECT_FALSE(parseClosureName("eager", Closure));
  PreprocessMode Preprocess = PreprocessMode::None;
  EXPECT_TRUE(parsePreprocessName("offline", Preprocess));
  EXPECT_EQ(Preprocess, PreprocessMode::Offline);
  EXPECT_TRUE(parsePreprocessName("none", Preprocess));
  EXPECT_EQ(Preprocess, PreprocessMode::None);
  EXPECT_FALSE(parsePreprocessName("hvn", Preprocess));
}
