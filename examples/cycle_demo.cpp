//===- examples/cycle_demo.cpp - Watching online cycle elimination ---------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Demonstrates the paper's central mechanism on a synthetic benchmark:
/// how partial online cycle elimination changes the constraint graph. The
/// example generates a mid-sized pointer-heavy program, analyzes it with
/// and without elimination, reports the cycle statistics (detection rate
/// against the oracle ground truth), and writes before/after DOT renderings
/// of the variable constraint graph for a small program.
///
/// Build & run:  ./build/examples/cycle_demo
///
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"
#include "graph/DotWriter.h"
#include "graph/TarjanSCC.h"
#include "setcon/Oracle.h"
#include "support/Format.h"
#include "workload/Suite.h"

#include <cstdio>

using namespace poce;

int main() {
  //===------------------------------------------------------------------===//
  // Part 1: detection statistics on a mid-sized synthetic benchmark.
  //===------------------------------------------------------------------===//
  workload::ProgramSpec Spec;
  Spec.Name = "cycle-demo";
  Spec.TargetAstNodes = 8000;
  Spec.Seed = 7;
  auto Program = workload::prepareProgram(Spec);
  if (!Program->Ok) {
    std::fprintf(stderr, "internal error: generated program failed to parse\n");
    return 1;
  }
  std::printf("synthetic benchmark: %llu AST nodes, %u lines\n",
              (unsigned long long)Program->AstNodes, Program->Lines);

  ConstructorTable Constructors;
  SolverOptions Base = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Oracle O = buildOracle(andersen::makeGenerator(Program->Unit), Constructors,
                         Base);
  std::printf("ground truth: %u variables in %u non-trivial SCCs "
              "(largest %u); a perfect eliminator removes %u\n\n",
              O.varsInNontrivialClasses(), O.numNontrivialClasses(),
              O.maxClassSize(), O.eliminableVars());

  TextTable Table({"Config", "Work", "Eliminated", "Detection", "Time(ms)"});
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive}) {
    for (CycleElim Elim : {CycleElim::None, CycleElim::Online}) {
      SolverOptions Options = makeConfig(Form, Elim);
      andersen::AnalysisResult Result =
          andersen::runAnalysis(Program->Unit, Constructors, Options, nullptr,
                                /*ExtractPointsTo=*/false);
      double Rate =
          O.eliminableVars()
              ? 100.0 * Result.Stats.VarsEliminated / O.eliminableVars()
              : 0.0;
      Table.addRow({Options.configName(), formatGrouped(Result.Stats.Work),
                    formatGrouped(Result.Stats.VarsEliminated),
                    formatDouble(Rate, 1) + "%",
                    formatDouble(Result.AnalysisSeconds * 1e3, 2)});
    }
  }
  Table.print();

  //===------------------------------------------------------------------===//
  // Part 2: before/after constraint graphs of a tiny cyclic program.
  //===------------------------------------------------------------------===//
  const char *Tiny = "int x;\n"
                     "int *a, *b, *c, *d;\n"
                     "int main(void) {\n"
                     "  a = &x;\n"
                     "  b = a; c = b; a = c;\n"
                     "  d = c;\n"
                     "  return 0;\n"
                     "}\n";
  minic::TranslationUnit Unit;
  if (!andersen::parseSource(Tiny, Unit))
    return 1;

  for (CycleElim Elim : {CycleElim::None, CycleElim::Online}) {
    SolverOptions Options = makeConfig(GraphForm::Inductive, Elim);
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms, Options);
    andersen::ConstraintGenerator Generator(Solver);
    Generator.run(Unit);
    Solver.finalize();

    GraphRows G = Solver.varGraph();
    FlatSCCs SCCs = computeSCCs(G);
    const char *FileName = Elim == CycleElim::None ? "cycle_before.dot"
                                                   : "cycle_after.dot";
    DotOptions DotOpts;
    DotOpts.GraphName = FileName;
    DotOpts.ColorSCCs = true;
    DotOpts.Label = [&](uint32_t Var) {
      return Solver.isLive(Var) ? Solver.varName(Var) : std::string();
    };
    std::FILE *Out = std::fopen(FileName, "w");
    if (Out) {
      std::fputs(writeDot(G, DotOpts).c_str(), Out);
      std::fclose(Out);
    }
    std::printf("\n%s: %u live variables, largest variable SCC %u -> wrote "
                "%s\n",
                Options.configName().c_str(), Solver.numLiveVars(),
                SCCs.maxComponentSize(), FileName);
  }
  std::printf("\nrender with: dot -Tpng cycle_before.dot -o before.png\n");
  return 0;
}
