//===- perfbench/Render.cpp - Constraint-file rendering of a solve --------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "Render.h"

#include <cctype>
#include <set>

using namespace poce;
using namespace poce::perfbench;

namespace {

/// The characters ConstraintSystemFile accepts inside a name.
bool isWordChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
         C == '@' || C == '$' || C == '.';
}

/// Unique file-format names for every constructor of \p Table, indexed by
/// ConsId. Names that are already valid words are kept, so location tags
/// in `pts` replies stay readable.
std::vector<std::string> constructorNames(const ConstructorTable &Table) {
  std::vector<std::string> Names;
  std::set<std::string> Used;
  for (ConsId Id = 0; Id != Table.size(); ++Id) {
    std::string Name = Table.signature(Id).Name;
    for (char &C : Name)
      if (!isWordChar(C))
        C = '$';
    // Names starting with 'x' could collide with the x<VarId> variables.
    if (Name.empty() || Name == "0" || Name == "1" || Name[0] == 'x' ||
        Used.count(Name))
      Name = "c$" + std::to_string(Id) + "$" + Name;
    Used.insert(Name);
    Names.push_back(std::move(Name));
  }
  return Names;
}

void renderExpr(const TermTable &Terms, const std::vector<std::string> &Cons,
                ExprId Id, std::string &Out) {
  switch (Terms.kind(Id)) {
  case ExprKind::Zero:
    Out += '0';
    return;
  case ExprKind::One:
    Out += '1';
    return;
  case ExprKind::Var:
    Out += varName(Terms.varOf(Id));
    return;
  case ExprKind::Cons: {
    Out += Cons[Terms.consOf(Id)];
    unsigned N = Terms.numArgs(Id);
    if (N == 0)
      return;
    const ExprId *Args = Terms.argsOf(Id);
    Out += '(';
    for (unsigned I = 0; I != N; ++I) {
      if (I)
        Out += ", ";
      renderExpr(Terms, Cons, Args[I], Out);
    }
    Out += ')';
    return;
  }
  }
}

} // namespace

std::string poce::perfbench::varName(VarId Var) {
  return "x" + std::to_string(Var);
}

RenderedSystem
poce::perfbench::renderBaseSystem(const ConstraintSolver &Solver) {
  const TermTable &Terms = Solver.terms();
  const ConstructorTable &Table = Terms.constructors();
  std::vector<std::string> Cons = constructorNames(Table);

  RenderedSystem Out;
  for (ConsId Id = 0; Id != Table.size(); ++Id) {
    Out.Text += "cons " + Cons[Id];
    for (Variance V : Table.signature(Id).ArgVariance)
      Out.Text += V == Variance::Covariant ? " +" : " -";
    Out.Text += '\n';
  }
  constexpr uint32_t NamesPerLine = 64;
  for (VarId Var = 0; Var != Solver.numVars(); ++Var) {
    Out.Text += Var % NamesPerLine == 0 ? "var " : " ";
    Out.Text += varName(Var);
    if (Var % NamesPerLine == NamesPerLine - 1 || Var + 1 == Solver.numVars())
      Out.Text += '\n';
  }
  for (const ConstraintSolver::BaseRoot &Root : Solver.baseRoots()) {
    std::string Line;
    renderExpr(Terms, Cons, Root.L, Line);
    Line += " <= ";
    renderExpr(Terms, Cons, Root.R, Line);
    Out.Text += Line + '\n';
    Out.ConstraintLines.push_back(std::move(Line));
  }
  return Out;
}
