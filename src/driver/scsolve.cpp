//===- driver/scsolve.cpp - Standalone constraint solver tool --------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// scsolve: solves a textual inclusion-constraint system (.scs file, see
/// setcon/ConstraintFile.h) under any configuration and prints least
/// solutions, statistics, or the solved graph.
///
/// Examples:
///   scsolve system.scs                      # least solutions, IF-Online
///   scsolve --config=sf-plain --stats system.scs
///   scsolve --dump system.scs               # solved constraint graph
///   scsolve --echo system.scs               # normalized re-print
///
//===----------------------------------------------------------------------===//

#include "setcon/ConstraintFile.h"
#include "setcon/Oracle.h"
#include "support/CommandLine.h"
#include "support/Format.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace poce;

int main(int Argc, char **Argv) {
  CommandLine Cmd("scsolve",
                  "standalone inclusion-constraint solver (PLDI 1998 "
                  "reproduction)");
  std::string Config = "if-online";
  std::string Closure = "wave";
  std::string Preprocess = "none";
  bool ShowStats = false, Dump = false, Echo = false;
  int64_t Seed = 0x706f6365;
  uint64_t Threads = 1;
  Cmd.addString("config", &Config,
                "{sf,if}-{plain,online,oracle,periodic}");
  Cmd.addString("closure", &Closure,
                "closure schedule: wave (topo-ordered delta sweeps, the "
                "default) or worklist (eager, per add); solutions are "
                "identical");
  Cmd.addString("preprocess", &Preprocess,
                "pre-solve pass: none or offline (HVN + Tarjan SCC "
                "variable substitution); solutions are identical");
  Cmd.addInt("seed", &Seed, "variable-order seed");
  Cmd.addUInt("threads", &Threads,
             "execution lanes for the least-solution pass (0 = hardware); "
             "solutions are identical for any value");
  Cmd.addFlag("stats", &ShowStats, "print solver statistics");
  Cmd.addFlag("dump", &Dump, "dump the solved constraint graph");
  Cmd.addFlag("echo", &Echo, "re-print the parsed system and exit");
  if (!Cmd.parse(Argc, Argv))
    return 1;

  if (Cmd.positionals().size() != 1) {
    std::fprintf(stderr, "scsolve: expected exactly one input file; "
                         "try --help\n");
    return 1;
  }
  std::ifstream In(Cmd.positionals()[0]);
  if (!In) {
    std::fprintf(stderr, "scsolve: cannot open '%s'\n",
                 Cmd.positionals()[0].c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  ConstraintSystemFile System;
  Status Parsed = System.parse(Buffer.str());
  if (!Parsed) {
    std::fprintf(stderr, "scsolve: %s: %s\n", Cmd.positionals()[0].c_str(),
                 Parsed.toString().c_str());
    return 1;
  }
  if (Echo) {
    std::fputs(System.str().c_str(), stdout);
    return 0;
  }

  SolverOptions Options;
  if (!parseConfigName(Config, Options)) {
    std::fprintf(stderr, "scsolve: unknown configuration '%s'\n",
                 Config.c_str());
    return 1;
  }
  Options.Seed = static_cast<uint64_t>(Seed);
  Options.Threads = static_cast<unsigned>(Threads);
  if (!parseClosureName(Closure, Options.Closure)) {
    std::fprintf(stderr, "scsolve: unknown closure schedule '%s'\n",
                 Closure.c_str());
    return 1;
  }
  if (!parsePreprocessName(Preprocess, Options.Preprocess)) {
    std::fprintf(stderr, "scsolve: unknown preprocess mode '%s'\n",
                 Preprocess.c_str());
    return 1;
  }

  ConstructorTable Constructors;
  Oracle WitnessOracle;
  const Oracle *OraclePtr = nullptr;
  if (Options.Elim == CycleElim::Oracle) {
    WitnessOracle = buildOracle(System.generator(), Constructors, Options);
    OraclePtr = &WitnessOracle;
  }

  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, Options, OraclePtr);
  System.emit(Solver);
  Solver.finalize();

  if (Dump) {
    std::fputs(Solver.dumpGraph().c_str(), stdout);
  } else if (!ShowStats) {
    // Default: least solutions of the declared variables.
    for (uint32_t I = 0; I != System.varNames().size(); ++I) {
      VarId Var = Solver.varOfCreation(I);
      std::printf("%s = {", System.varNames()[I].c_str());
      bool FirstTerm = true;
      for (ExprId Term : Solver.leastSolution(Var)) {
        std::printf("%s %s", FirstTerm ? "" : ",",
                    Solver.exprStr(Term).c_str());
        FirstTerm = false;
      }
      std::printf(" }\n");
    }
  }

  if (ShowStats) {
    const SolverStats &Stats = Solver.stats();
    std::printf("configuration:    %s\n", Options.configName().c_str());
    std::printf("variables:        %s (%s live)\n",
                formatGrouped(Stats.VarsCreated).c_str(),
                formatGrouped(Solver.numLiveVars()).c_str());
    std::printf("constraints:      %s\n",
                formatGrouped(System.numConstraints()).c_str());
    std::printf("final edges:      %s\n",
                formatGrouped(Solver.countFinalEdges()).c_str());
    std::printf("work:             %s\n",
                formatGrouped(Stats.Work).c_str());
    std::printf("redundant adds:   %s\n",
                formatGrouped(Stats.RedundantAdds).c_str());
    std::printf("vars eliminated:  %s\n",
                formatGrouped(Stats.VarsEliminated).c_str());
    std::printf("cycle searches:   %s\n",
                formatGrouped(Stats.CycleSearches).c_str());
    std::printf("offline vars:     %s\n",
                formatGrouped(Stats.OfflineCollapsedVars).c_str());
    std::printf("offline sccs:     %s\n",
                formatGrouped(Stats.OfflineSCCs).c_str());
    std::printf("hvn labels:       %s\n",
                formatGrouped(Stats.HVNLabels).c_str());
    std::printf("mismatches:       %s\n",
                formatGrouped(Stats.Mismatches).c_str());
    std::printf("delta props:      %s\n",
                formatGrouped(Stats.DeltaPropagations).c_str());
    std::printf("wave passes:      %s\n",
                formatGrouped(Stats.WavePasses).c_str());
  }
  return 0;
}
