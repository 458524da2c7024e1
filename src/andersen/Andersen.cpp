//===- andersen/Andersen.cpp - Points-to analysis driver -------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"

#include "minic/Lexer.h"
#include "minic/Parser.h"
#include "support/Timer.h"

using namespace poce;
using namespace poce::andersen;

AnalysisResult poce::andersen::runAnalysis(const minic::TranslationUnit &Unit,
                                           ConstructorTable &Constructors,
                                           const SolverOptions &Options,
                                           const Oracle *WitnessOracle,
                                           bool ExtractPointsTo) {
  AnalysisResult Result;
  Timer AnalysisTimer;

  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, Options, WitnessOracle);
  ConstraintGenerator Generator(Solver);
  Generator.run(Unit);
  Solver.finalize();

  Result.AnalysisSeconds = AnalysisTimer.seconds();
  Result.Stats = Solver.stats();
  Result.FinalEdges = Solver.countFinalEdges();
  Result.NumLocations = static_cast<uint32_t>(Generator.locations().size());
  Result.NumSetVars = Solver.stats().VarsCreated;
  Result.Inconsistencies = Solver.inconsistencies();

  // A location points to the locations whose ref terms are in the least
  // solution of its content variable.
  if (ExtractPointsTo)
    Result.PointsTo = extractPointsTo(
        Generator.locations(),
        [&](LocationId Loc, std::vector<LocationId> &Targets) {
          for (ExprId Term :
               Solver.leastSolution(Generator.locations()[Loc].Content)) {
            LocationId Target = Generator.locationOfRefTerm(Term);
            if (Target != ConstraintGenerator::NotFound)
              Targets.push_back(Target);
          }
        });
  return Result;
}

GeneratorFn poce::andersen::makeGenerator(const minic::TranslationUnit &Unit) {
  return [&Unit](ConstraintSolver &Solver) {
    ConstraintGenerator Generator(Solver);
    Generator.run(Unit);
  };
}

bool poce::andersen::parseSource(const std::string &Source,
                                 minic::TranslationUnit &Unit,
                                 std::vector<std::string> *ErrorsOut,
                                 const std::string &FileName) {
  minic::Diagnostics Diags(FileName);
  minic::Lexer Lexer(Source, Diags);
  minic::Parser Parser(Lexer.lexAll(), Diags, Unit);
  bool Ok = Parser.parseTranslationUnit() && !Diags.hasErrors();
  if (ErrorsOut)
    *ErrorsOut = Diags.errors();
  return Ok;
}
