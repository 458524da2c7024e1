//===- driver/anders.cpp - Points-to analysis command-line tool ------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// anders: runs Andersen's points-to analysis over a MiniC source file (or
/// a generated synthetic benchmark) under any of the paper's solver
/// configurations, printing points-to sets and/or solver statistics.
///
/// Examples:
///   anders file.c                        # IF-Online, print points-to sets
///   anders --config=sf-plain --stats file.c
///   anders --synth=espresso --stats     # run on a generated benchmark
///   anders --dot file.c > graph.dot     # constraint graph (variables)
///
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"
#include "graph/DotWriter.h"
#include "minic/Lexer.h"
#include "minic/Parser.h"
#include "minic/PrettyPrinter.h"
#include "setcon/Oracle.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Timer.h"
#include "workload/Suite.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace poce;

int main(int Argc, char **Argv) {
  CommandLine Cmd("anders",
                  "Andersen's points-to analysis via inclusion constraints "
                  "(PLDI 1998 reproduction)");
  std::string Config = "if-online";
  std::string Closure = "wave";
  std::string Preprocess = "none";
  std::string Synth;
  bool ShowStats = false, ShowPointsTo = false, EmitDot = false;
  bool DumpAst = false, EmitC = false, EmitConstraints = false;
  bool Json = false, PointsToDot = false, Batch = false;
  int64_t Seed = 0x706f6365;
  uint64_t SynthSize = 5000;
  uint64_t Threads = 1;
  double BatchScale = 0.1;
  Cmd.addString("config", &Config,
                "solver configuration: "
                "{sf,if}-{plain,online,oracle,periodic}");
  Cmd.addString("closure", &Closure,
                "closure schedule: wave (topo-ordered delta sweeps, the "
                "default) or worklist (eager, per add); solutions are "
                "identical");
  Cmd.addString("preprocess", &Preprocess,
                "pre-solve pass: none or offline (HVN + Tarjan SCC "
                "variable substitution); solutions are identical");
  Cmd.addString("synth", &Synth,
                "analyze a generated benchmark (name or 'custom')");
  Cmd.addUInt("synth-size", &SynthSize, "target AST nodes for --synth=custom");
  Cmd.addInt("seed", &Seed, "variable-order seed");
  Cmd.addUInt("threads", &Threads,
             "execution lanes: parallel least-solution pass, and with "
             "--batch concurrent suite inputs (0 = hardware)");
  Cmd.addFlag("batch", &Batch,
              "solve the whole generated suite (one row per benchmark)");
  Cmd.addDouble("batch-scale", &BatchScale,
                "size scale for --batch (default 0.1)");
  Cmd.addFlag("stats", &ShowStats, "print solver statistics");
  Cmd.addFlag("points-to", &ShowPointsTo, "print points-to sets");
  Cmd.addFlag("dot", &EmitDot, "emit the variable constraint graph as DOT");
  Cmd.addFlag("dump-ast", &DumpAst, "dump the parsed AST and exit");
  Cmd.addFlag("emit-c", &EmitC, "re-emit the parsed program as C and exit");
  Cmd.addFlag("emit-constraints", &EmitConstraints,
              "dump the solved constraint graph as text");
  Cmd.addFlag("json", &Json, "print statistics as JSON (implies --stats)");
  Cmd.addFlag("points-to-dot", &PointsToDot,
              "emit the points-to graph (Figure 5 style) as DOT");
  if (!Cmd.parse(Argc, Argv))
    return 1;

  SolverOptions Options;
  if (!parseConfigName(Config, Options)) {
    std::fprintf(stderr, "anders: unknown configuration '%s'\n",
                 Config.c_str());
    return 1;
  }
  Options.Seed = static_cast<uint64_t>(Seed);
  Options.Threads = static_cast<unsigned>(Threads);
  if (!parseClosureName(Closure, Options.Closure)) {
    std::fprintf(stderr, "anders: unknown closure schedule '%s'\n",
                 Closure.c_str());
    return 1;
  }
  if (!parsePreprocessName(Preprocess, Options.Preprocess)) {
    std::fprintf(stderr, "anders: unknown preprocess mode '%s'\n",
                 Preprocess.c_str());
    return 1;
  }
  if (Json)
    ShowStats = true;
  if (!ShowStats && !EmitDot && !PointsToDot)
    ShowPointsTo = true;

  if (Batch) {
    // Independent suite inputs solved concurrently; results are printed in
    // input order and are identical for any --threads value.
    Timer BatchTimer;
    std::vector<workload::BatchSolveResult> Runs = workload::solveSuite(
        workload::paperSuite(BatchScale), Options,
        static_cast<unsigned>(Threads));
    double Wall = BatchTimer.seconds();
    TextTable Table({"Benchmark", "AST", "Edges", "Work", "Eliminated",
                     "Entry(s)"});
    SolverStats Total;
    for (const workload::BatchSolveResult &Run : Runs) {
      if (!Run.Ok) {
        std::fprintf(stderr, "anders: benchmark '%s' failed to parse\n",
                     Run.Spec.Name.c_str());
        continue;
      }
      Total += Run.Result.Stats;
      Table.addRow({Run.Spec.Name, formatGrouped(Run.AstNodes),
                    formatGrouped(Run.Result.FinalEdges),
                    formatGrouped(Run.Result.Stats.Work),
                    formatGrouped(Run.Result.Stats.VarsEliminated),
                    formatDouble(Run.EntrySeconds, 3)});
    }
    Table.print();
    std::printf("\nconfig=%s threads=%lld scale=%.2f  total work=%s "
                "eliminated=%s  wall=%.3fs\n",
                Options.configName().c_str(), (long long)Threads, BatchScale,
                formatGrouped(Total.Work).c_str(),
                formatGrouped(Total.VarsEliminated).c_str(), Wall);
    return 0;
  }

  // Obtain the translation unit.
  std::unique_ptr<workload::PreparedProgram> Prepared;
  minic::TranslationUnit FileUnit;
  const minic::TranslationUnit *Unit = nullptr;
  std::string SourceName;

  if (!Synth.empty()) {
    workload::ProgramSpec Spec;
    Spec.Name = Synth;
    Spec.Seed = static_cast<uint64_t>(Seed);
    Spec.TargetAstNodes = static_cast<uint32_t>(SynthSize);
    if (Synth != "custom") {
      bool Found = false;
      for (const workload::ProgramSpec &Entry : workload::paperSuite()) {
        if (Entry.Name == Synth) {
          Spec = Entry;
          Found = true;
          break;
        }
      }
      if (!Found) {
        std::fprintf(stderr, "anders: unknown synthetic benchmark '%s'\n",
                     Synth.c_str());
        return 1;
      }
    }
    Prepared = workload::prepareProgram(Spec);
    if (!Prepared->Ok) {
      for (const std::string &Error : Prepared->Errors)
        std::fprintf(stderr, "%s\n", Error.c_str());
      return 1;
    }
    Unit = &Prepared->Unit;
    SourceName = Synth;
  } else {
    if (Cmd.positionals().size() != 1) {
      std::fprintf(stderr, "anders: expected exactly one input file "
                           "(or --synth); try --help\n");
      return 1;
    }
    SourceName = Cmd.positionals()[0];
    std::ifstream In(SourceName);
    if (!In) {
      std::fprintf(stderr, "anders: cannot open '%s'\n", SourceName.c_str());
      return 1;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    std::vector<std::string> Errors;
    if (!andersen::parseSource(Buffer.str(), FileUnit, &Errors, SourceName)) {
      for (const std::string &Error : Errors)
        std::fprintf(stderr, "%s\n", Error.c_str());
      return 1;
    }
    Unit = &FileUnit;
  }

  if (DumpAst || EmitC) {
    if (DumpAst)
      std::fputs(minic::dumpAST(*Unit).c_str(), stdout);
    if (EmitC)
      std::fputs(minic::printUnit(*Unit).c_str(), stdout);
    return 0;
  }

  // Oracle configurations need the witness prediction first.
  ConstructorTable Constructors;
  Oracle WitnessOracle;
  const Oracle *OraclePtr = nullptr;
  if (Options.Elim == CycleElim::Oracle) {
    WitnessOracle =
        buildOracle(andersen::makeGenerator(*Unit), Constructors, Options);
    OraclePtr = &WitnessOracle;
  }

  Timer Total;
  andersen::AnalysisResult Result = andersen::runAnalysis(
      *Unit, Constructors, Options, OraclePtr, ShowPointsTo || PointsToDot);

  if (PointsToDot) {
    // Nodes are abstract locations; an edge x -> y means x may contain a
    // pointer to y (the paper's Figure 5).
    std::printf("digraph \"points-to\" {\n  node [shape=box, "
                "fontsize=10];\n");
    for (const auto &[Location, Targets] : Result.PointsTo) {
      if (Targets.empty())
        continue;
      for (const std::string &Target : Targets)
        std::printf("  \"%s\" -> \"%s\";\n", Location.c_str(),
                    Target.c_str());
    }
    std::printf("}\n");
  }

  if (EmitConstraints) {
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms, Options, OraclePtr);
    andersen::ConstraintGenerator Generator(Solver);
    Generator.run(*Unit);
    Solver.finalize();
    std::fputs(Solver.dumpGraph().c_str(), stdout);
  }

  if (EmitDot) {
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms, Options, OraclePtr);
    andersen::ConstraintGenerator Generator(Solver);
    Generator.run(*Unit);
    GraphRows G = Solver.varGraph();
    DotOptions DotOpts;
    DotOpts.GraphName = SourceName;
    DotOpts.ColorSCCs = true;
    DotOpts.Label = [&Solver](uint32_t Var) { return Solver.varName(Var); };
    std::fputs(writeDot(G, DotOpts).c_str(), stdout);
  }

  if (ShowPointsTo) {
    for (const auto &[Name, Targets] : Result.PointsTo) {
      if (Targets.empty())
        continue;
      std::printf("%s -> {", Name.c_str());
      for (size_t I = 0; I != Targets.size(); ++I)
        std::printf("%s%s", I ? ", " : " ", Targets[I].c_str());
      std::printf(" }\n");
    }
  }

  if (ShowStats && Json) {
    std::printf(
        "{\n"
        "  \"configuration\": \"%s\",\n"
        "  \"astNodes\": %llu,\n"
        "  \"locations\": %u,\n"
        "  \"setVariables\": %llu,\n"
        "  \"initialEdges\": %llu,\n"
        "  \"finalEdges\": %llu,\n"
        "  \"work\": %llu,\n"
        "  \"redundantAdds\": %llu,\n"
        "  \"varsEliminated\": %llu,\n"
        "  \"cyclesCollapsed\": %llu,\n"
        "  \"cycleSearchSteps\": %llu,\n"
        "  \"offlineCollapsedVars\": %llu,\n"
        "  \"offlineSCCs\": %llu,\n"
        "  \"hvnLabels\": %llu,\n"
        "  \"mismatches\": %llu,\n"
        "  \"aborted\": %s,\n"
        "  \"analysisSeconds\": %.6f\n"
        "}\n",
        Options.configName().c_str(),
        (unsigned long long)Unit->numNodes(), Result.NumLocations,
        (unsigned long long)Result.NumSetVars,
        (unsigned long long)Result.Stats.InitialEdges,
        (unsigned long long)Result.FinalEdges,
        (unsigned long long)Result.Stats.Work,
        (unsigned long long)Result.Stats.RedundantAdds,
        (unsigned long long)Result.Stats.VarsEliminated,
        (unsigned long long)Result.Stats.CyclesCollapsed,
        (unsigned long long)Result.Stats.CycleSearchSteps,
        (unsigned long long)Result.Stats.OfflineCollapsedVars,
        (unsigned long long)Result.Stats.OfflineSCCs,
        (unsigned long long)Result.Stats.HVNLabels,
        (unsigned long long)Result.Stats.Mismatches,
        Result.Stats.Aborted ? "true" : "false", Result.AnalysisSeconds);
  } else if (ShowStats) {
    std::printf("configuration:       %s\n", Options.configName().c_str());
    std::printf("AST nodes:           %s\n",
                formatGrouped(Unit->numNodes()).c_str());
    std::printf("abstract locations:  %s\n",
                formatGrouped(Result.NumLocations).c_str());
    std::printf("set variables:       %s\n",
                formatGrouped(Result.NumSetVars).c_str());
    std::printf("initial edges:       %s\n",
                formatGrouped(Result.Stats.InitialEdges).c_str());
    std::printf("final edges:         %s\n",
                formatGrouped(Result.FinalEdges).c_str());
    std::printf("work (edge adds):    %s\n",
                formatGrouped(Result.Stats.Work).c_str());
    std::printf("redundant adds:      %s\n",
                formatGrouped(Result.Stats.RedundantAdds).c_str());
    std::printf("vars eliminated:     %s\n",
                formatGrouped(Result.Stats.VarsEliminated).c_str());
    std::printf("cycles collapsed:    %s\n",
                formatGrouped(Result.Stats.CyclesCollapsed).c_str());
    std::printf("offline vars:        %s (%s SCCs, %s labels)\n",
                formatGrouped(Result.Stats.OfflineCollapsedVars).c_str(),
                formatGrouped(Result.Stats.OfflineSCCs).c_str(),
                formatGrouped(Result.Stats.HVNLabels).c_str());
    std::printf("analysis time:       %.3fs (total %.3fs)\n",
                Result.AnalysisSeconds, Total.seconds());
  }
  return 0;
}
