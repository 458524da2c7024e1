//===- bench/table1_suite.cpp - Reproduction of Table 1 --------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Table 1: per-benchmark data common to all
/// experiments — AST nodes, preprocessed lines, set variables, total graph
/// nodes, initial edges, and the variables/max-size of strongly connected
/// components in the initial and final constraint graphs.
///
/// Initial SCCs are computed over the variable-variable constraints of the
/// unprocessed input; final SCCs are the oracle's ground-truth equality
/// classes of the closed system. The paper's observation that "less than
/// 20% of the variables in SCCs in the final graph also appear in SCCs in
/// the initial graph" can be read directly off the two column groups.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "graph/TarjanSCC.h"

using namespace poce;
using namespace poce::bench;

int main() {
  BenchEnv Env = BenchEnv::fromEnv();
  std::printf("=== Table 1: benchmark data common to all experiments ===\n");
  Env.print();

  TextTable Table({"Benchmark", "AST", "Lines", "Vars", "Nodes", "InitEdges",
                   "iSCCvars", "iMax", "fSCCvars", "fMax"});

  for (auto &Entry : prepareSuite(Env)) {
    // A recording IF-Online run provides variable counts, node counts,
    // initial edges, and the initial variable-variable relation.
    SolverOptions Options = paperConfig(GraphForm::Inductive,
                                        CycleElim::Online);
    Options.RecordVarVar = true;
    TermTable Terms(Entry->Constructors);
    ConstraintSolver Solver(Terms, Options);
    andersen::ConstraintGenerator Generator(Solver);
    Generator.run(Entry->Program->Unit);
    Solver.finalize();
    const SolverStats &Stats = Solver.stats();

    FlatSCCs InitialSCCs = computeSCCs(rowsFromEdges(
        Solver.numCreations(), Solver.recordedInitialVarVar()));

    const Oracle &O = Entry->oracle();

    uint64_t TotalNodes =
        Stats.VarsCreated + Stats.DistinctSources + Stats.DistinctSinks;
    Table.addRow({Entry->Program->Spec.Name,
                  formatGrouped(Entry->Program->AstNodes),
                  formatGrouped(Entry->Program->Lines),
                  formatGrouped(Stats.VarsCreated),
                  formatGrouped(TotalNodes),
                  formatGrouped(Stats.InitialEdges),
                  formatGrouped(InitialSCCs.numNodesInNontrivialSCCs()),
                  formatGrouped(InitialSCCs.maxComponentSize() > 1
                                    ? InitialSCCs.maxComponentSize()
                                    : 0),
                  formatGrouped(O.varsInNontrivialClasses()),
                  formatGrouped(O.maxClassSize())});
  }
  Table.print();
  std::printf("\niSCC*/fSCC*: variables inside non-trivial SCCs and the "
              "largest SCC, in the initial/final graph.\n");
  return 0;
}
