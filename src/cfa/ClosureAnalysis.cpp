//===- cfa/ClosureAnalysis.cpp - 0CFA via inclusion constraints ------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "cfa/ClosureAnalysis.h"

#include "support/ErrorHandling.h"
#include "support/PRNG.h"
#include "support/Timer.h"

#include <algorithm>

using namespace poce;
using namespace poce::cfa;

namespace {

/// Walks the term tree, emitting constraints.
class Generator {
public:
  explicit Generator(ConstraintSolver &Solver)
      : Solver(Solver), Terms(Solver.terms()) {
    FunCons = Terms.mutableConstructors().getOrCreate(
        "fun", {Variance::Covariant, Variance::Contravariant,
                Variance::Covariant});
  }

  void run(const LambdaProgram &Program) { walk(Program.root()); }

  /// Lambda label of a source fun term, or ~0u.
  uint32_t labelOfTerm(ExprId Term) const {
    return Term < TermToLabel.size() ? TermToLabel[Term] : ~0U;
  }

  /// Application site -> the set variable holding the callee's closures.
  const std::vector<std::pair<uint32_t, VarId>> &callSites() const {
    return CallSites;
  }

  const std::vector<std::string> &unbound() const { return Unbound; }

private:
  /// Returns the set variable for the values of \p T.
  VarId walk(const Term *T) {
    switch (T->K) {
    case Term::Kind::Int: {
      // Integers carry no closures.
      return Solver.freshVar("int");
    }
    case Term::Kind::Var: {
      VarId Result = Solver.freshVar(T->Name + "@use");
      for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
        if (It->first == T->Name) {
          Solver.addConstraint(Terms.var(It->second), Terms.var(Result));
          return Result;
        }
      }
      Unbound.push_back(T->Name);
      return Result; // Empty set: unbound names denote nothing.
    }
    case Term::Kind::Lam: {
      VarId Param = Solver.freshVar(T->Name);
      Scopes.push_back({T->Name, Param});
      VarId Body = walk(T->A);
      Scopes.pop_back();
      ConsId LabelCons = Terms.mutableConstructors().getOrCreate(
          "L" + std::to_string(T->LamLabel), {});
      ExprId Lam = Terms.cons(FunCons, {Terms.cons(LabelCons, {}),
                                        Terms.var(Param), Terms.var(Body)});
      if (Lam >= TermToLabel.size())
        TermToLabel.resize(Lam + 1, ~0U);
      TermToLabel[Lam] = T->LamLabel;
      VarId Result = Solver.freshVar("lam");
      Solver.addConstraint(Lam, Terms.var(Result));
      return Result;
    }
    case Term::Kind::App: {
      VarId Callee = walk(T->A);
      VarId Arg = walk(T->B);
      VarId Result = Solver.freshVar("app");
      // X_f <= fun(1, ~X_a, Result).
      ExprId Sink = Terms.cons(
          FunCons, {Terms.one(), Terms.var(Arg), Terms.var(Result)});
      Solver.addConstraint(Terms.var(Callee), Sink);
      CallSites.push_back({T->AppSite, Callee});
      return Result;
    }
    case Term::Kind::Let: {
      VarId Binder = Solver.freshVar(T->Name);
      if (T->Recursive) {
        Scopes.push_back({T->Name, Binder});
        VarId Bound = walk(T->A);
        Solver.addConstraint(Terms.var(Bound), Terms.var(Binder));
        VarId Body = walk(T->B);
        Scopes.pop_back();
        return Body;
      }
      VarId Bound = walk(T->A);
      Solver.addConstraint(Terms.var(Bound), Terms.var(Binder));
      Scopes.push_back({T->Name, Binder});
      VarId Body = walk(T->B);
      Scopes.pop_back();
      return Body;
    }
    case Term::Kind::If0: {
      walk(T->A);
      VarId Then = walk(T->B);
      VarId Else = walk(T->C);
      VarId Result = Solver.freshVar("if0");
      Solver.addConstraint(Terms.var(Then), Terms.var(Result));
      Solver.addConstraint(Terms.var(Else), Terms.var(Result));
      return Result;
    }
    case Term::Kind::Binop: {
      walk(T->A);
      walk(T->B);
      return Solver.freshVar("arith"); // Numbers: no closures.
    }
    }
    poce_unreachable("invalid term kind");
  }

  ConstraintSolver &Solver;
  TermTable &Terms;
  ConsId FunCons;
  std::vector<std::pair<std::string, VarId>> Scopes;
  /// Lambda label of each fun term, indexed by ExprId; ~0u for every
  /// other term.
  std::vector<uint32_t> TermToLabel;
  std::vector<std::pair<uint32_t, VarId>> CallSites;
  std::vector<std::string> Unbound;
};

} // namespace

CFAResult poce::cfa::runClosureAnalysis(const LambdaProgram &Program,
                                        ConstructorTable &Constructors,
                                        const SolverOptions &Options,
                                        const Oracle *WitnessOracle) {
  CFAResult Result;
  Timer T;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, Options, WitnessOracle);
  Generator Gen(Solver);
  Gen.run(Program);
  Solver.finalize();

  for (const auto &[AppSite, Callee] : Gen.callSites()) {
    std::vector<uint32_t> Labels;
    for (ExprId Term : Solver.leastSolution(Callee)) {
      uint32_t Label = Gen.labelOfTerm(Term);
      if (Label != ~0U)
        Labels.push_back(Label);
    }
    std::sort(Labels.begin(), Labels.end());
    Labels.erase(std::unique(Labels.begin(), Labels.end()), Labels.end());
    Result.CallTargets.emplace(AppSite, std::move(Labels));
  }
  Result.UnboundVariables = Gen.unbound();
  Result.Stats = Solver.stats();
  Result.FinalEdges = Solver.countFinalEdges();
  Result.AnalysisSeconds = T.seconds();
  return Result;
}

GeneratorFn poce::cfa::makeGenerator(const LambdaProgram &Program) {
  return [&Program](ConstraintSolver &Solver) {
    Generator Gen(Solver);
    Gen.run(Program);
  };
}

//===----------------------------------------------------------------------===//
// Synthetic workload
//===----------------------------------------------------------------------===//

std::string poce::cfa::generateLambdaProgram(uint32_t NumGroups,
                                             uint64_t Seed) {
  PRNG Rng(Seed ^ 0xcfacfacfULL);
  std::string Out = "-- synthetic closure-analysis workload\n"
                    "let id = \\x. x in\n"
                    "let compose = \\f. \\g. \\x. f (g x) in\n"
                    "let twice = \\f. \\x. f (f x) in\n";

  std::vector<std::string> Known = {"id", "compose", "twice"};
  auto Pick = [&]() -> const std::string & {
    return Known[Rng.nextBelow(Known.size())];
  };

  for (uint32_t Group = 0; Group != NumGroups; ++Group) {
    std::string G = std::to_string(Group);
    // A self-recursive dispatcher that threads closures through itself —
    // every such binding is a cycle in the constraint graph.
    Out += "let rec loop" + G + " = \\f. if0 f 0 then f else loop" + G +
           " (" + Pick() + " f) in\n";
    Known.push_back("loop" + G);
    // A combinator mixing earlier groups' closures.
    Out += "let mix" + G + " = \\h. compose (" + Pick() + ") (twice h) in\n";
    Known.push_back("mix" + G);
    // Drive both with a mixture of closures and numbers.
    Out += "let use" + G + " = (mix" + G + " (loop" + G + " " + Pick() +
           ")) " + std::to_string(Rng.nextBelow(100)) + " in\n";
    Known.push_back("use" + G);
  }

  Out += "id ";
  Out += Known[Rng.nextBelow(Known.size())];
  Out += "\n";
  return Out;
}
