//===- setcon/ConstraintFile.cpp - Textual constraint systems --------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "setcon/ConstraintFile.h"

#include <cassert>
#include <cctype>
#include <functional>
#include <sstream>

using namespace poce;

namespace {

/// Character-level cursor over one line.
struct LineCursor {
  const std::string &Line;
  size_t Pos = 0;

  void skipSpace() {
    while (Pos < Line.size() &&
           std::isspace(static_cast<unsigned char>(Line[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Line.size() || Line[Pos] == '#';
  }

  bool eat(char C) {
    skipSpace();
    if (Pos < Line.size() && Line[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool eatArrowLE() {
    skipSpace();
    if (Pos + 1 < Line.size() && Line[Pos] == '<' && Line[Pos + 1] == '=') {
      Pos += 2;
      return true;
    }
    return false;
  }

  /// The next name, as a view into Line.
  std::string_view word() {
    skipSpace();
    size_t Begin = Pos;
    while (Pos < Line.size() &&
           (std::isalnum(static_cast<unsigned char>(Line[Pos])) ||
            Line[Pos] == '_' || Line[Pos] == '@' || Line[Pos] == '$' ||
            Line[Pos] == '.'))
      ++Pos;
    return std::string_view(Line).substr(Begin, Pos - Begin);
  }
};

} // namespace

uint32_t ConstraintSystemFile::varIndex(const std::string &Name) const {
  return varIndexOf(Name);
}

uint32_t ConstraintSystemFile::varIndexOf(std::string_view Name) const {
  uint32_t Index = VarIndexOf.find(
      stringTag(Name), [&](uint32_t Known) { return VarNames[Known] == Name; });
  return Index == IdIndex::NotFound ? NotFound : Index;
}

uint32_t ConstraintSystemFile::consIndexOf(std::string_view Name) const {
  uint32_t Index = ConsIndexOf.find(stringTag(Name), [&](uint32_t Known) {
    return ConsDecls[Known].Name == Name;
  });
  return Index == IdIndex::NotFound ? NotFound : Index;
}

bool ConstraintSystemFile::nameInUse(std::string_view Name) const {
  return varIndexOf(Name) != NotFound || consIndexOf(Name) != NotFound ||
         Name == "0" || Name == "1";
}

void ConstraintSystemFile::declareVar(std::string_view Name) {
  const uint32_t NewIndex = static_cast<uint32_t>(VarNames.size());
  uint32_t Index = VarIndexOf.findOrInsert(
      stringTag(Name), NewIndex,
      [&](uint32_t Known) { return VarNames[Known] == Name; });
  assert(Index == NewIndex && "variable declared twice!");
  (void)Index;
  VarNames.emplace_back(Name);
}

void ConstraintSystemFile::declareCons(ConsDecl Decl) {
  const uint32_t NewIndex = static_cast<uint32_t>(ConsDecls.size());
  uint32_t Index = ConsIndexOf.findOrInsert(
      stringTag(Decl.Name), NewIndex,
      [&](uint32_t Known) { return ConsDecls[Known].Name == Decl.Name; });
  assert(Index == NewIndex && "constructor declared twice!");
  (void)Index;
  ConsDecls.push_back(std::move(Decl));
}

Status ConstraintSystemFile::parse(const std::string &Text) {
  *this = ConstraintSystemFile();

  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  ParsedLine Parsed;
  while (std::getline(In, Line)) {
    ++LineNo;
    Status St = parseLine(Line, /*Solver=*/nullptr, Parsed);
    if (!St.ok())
      return Status::error(ErrorCode::ParseError,
                           "line " + std::to_string(LineNo) + ": " +
                               St.message());
    switch (Parsed.K) {
    case ParsedLine::Kind::Blank:
      break;
    case ParsedLine::Kind::Vars:
      for (const std::string &Name : Parsed.Names)
        declareVar(Name);
      break;
    case ParsedLine::Kind::Cons:
      declareCons(std::move(Parsed.Decl));
      break;
    case ParsedLine::Kind::Constraint:
      Constraints.push_back({std::move(Parsed.Lhs), std::move(Parsed.Rhs)});
      break;
    }
  }
  return Status();
}

bool ConstraintSystemFile::parseExprAt(const std::string &Line, size_t &Pos,
                                       FileExpr &Out,
                                       std::string &Error) const {
  LineCursor Cursor{Line, Pos};
  Cursor.skipSpace();
  std::string_view Name = Cursor.word();
  Pos = Cursor.Pos;
  if (Name.empty()) {
    Error = "expected expression";
    return false;
  }
  if (Name == "0") {
    Out.K = FileExpr::Kind::Zero;
    return true;
  }
  if (Name == "1") {
    Out.K = FileExpr::Kind::One;
    return true;
  }
  uint32_t Var = varIndexOf(Name);
  if (Var != NotFound) {
    Out.K = FileExpr::Kind::Var;
    Out.VarIndex = Var;
    return true;
  }
  uint32_t Cons = consIndexOf(Name);
  if (Cons == NotFound) {
    Error = "undeclared name '" + std::string(Name) + "'";
    return false;
  }
  Out.K = FileExpr::Kind::Apply;
  Out.ConsIndex = Cons;
  unsigned Arity = static_cast<unsigned>(ConsDecls[Cons].ArgVariance.size());
  if (Arity == 0) {
    // Optional empty parens on nullary constructors.
    if (Cursor.eat('(') && !Cursor.eat(')')) {
      Pos = Cursor.Pos;
      Error = "nullary constructor '" + std::string(Name) +
              "' applied to arguments";
      return false;
    }
    Pos = Cursor.Pos;
    return true;
  }
  if (!Cursor.eat('(')) {
    Pos = Cursor.Pos;
    Error = "constructor '" + std::string(Name) + "' needs " +
            std::to_string(Arity) + " argument(s)";
    return false;
  }
  for (unsigned I = 0; I != Arity; ++I) {
    if (I && !Cursor.eat(',')) {
      Pos = Cursor.Pos;
      Error = "expected ',' in arguments of '" + std::string(Name) + "'";
      return false;
    }
    Pos = Cursor.Pos;
    FileExpr Arg;
    if (!parseExprAt(Line, Pos, Arg, Error))
      return false;
    Cursor.Pos = Pos;
    Out.Args.push_back(std::move(Arg));
  }
  bool Closed = Cursor.eat(')');
  Pos = Cursor.Pos;
  if (!Closed) {
    Error = "expected ')' after arguments of '" + std::string(Name) + "'";
    return false;
  }
  return true;
}

Status ConstraintSystemFile::parseLine(const std::string &Line,
                                       const ConstraintSolver *Solver,
                                       ParsedLine &Out) const {
  auto Fail = [&](const std::string &Message) {
    return Status::error(ErrorCode::ParseError, Message);
  };
  Out = ParsedLine();

  LineCursor Cursor{Line};
  if (Cursor.atEnd())
    return Status(); // Blank or comment line.

  size_t Mark = Cursor.Pos;
  std::string_view First = Cursor.word();

  if (First == "var") {
    Out.K = ParsedLine::Kind::Vars;
    // Declaration order must stay aligned with solver creation order so
    // that declaration indices keep mapping through varOfCreation().
    if (Solver && VarNames.size() != Solver->numCreations())
      return Status::error(ErrorCode::FailedPrecondition,
                           "system/solver variable counts differ (" +
                               std::to_string(VarNames.size()) + " vs " +
                               std::to_string(Solver->numCreations()) +
                               "); adoptDeclarations() first");
    // Validate every name up front: a rejected line must leave no fresh
    // variables behind when applied.
    while (!Cursor.atEnd()) {
      std::string_view Name = Cursor.word();
      if (Name.empty())
        return Fail("expected variable name");
      if (nameInUse(Name))
        return Fail("name '" + std::string(Name) + "' already in use");
      for (const std::string &Prior : Out.Names)
        if (Prior == Name)
          return Fail("name '" + std::string(Name) +
                      "' repeated in declaration");
      Out.Names.emplace_back(Name);
    }
    return Status();
  }

  if (First == "cons") {
    Out.K = ParsedLine::Kind::Cons;
    std::string_view Name = Cursor.word();
    if (Name.empty())
      return Fail("expected constructor name");
    if (nameInUse(Name))
      return Fail("name '" + std::string(Name) + "' already in use");
    Out.Decl.Name = Name;
    while (!Cursor.atEnd()) {
      if (Cursor.eat('+')) {
        Out.Decl.ArgVariance.push_back(Variance::Covariant);
      } else if (Cursor.eat('-')) {
        Out.Decl.ArgVariance.push_back(Variance::Contravariant);
      } else {
        return Fail("expected '+' or '-' variance marker");
      }
    }
    if (!Solver)
      return Status();
    // The solver may already know this constructor (e.g. from a loaded
    // snapshot); a mismatched redeclaration must fail here rather than
    // trip the fatal signature check inside getOrCreate() later.
    const ConstructorTable &Table = Solver->terms().constructors();
    ConsId Existing = Table.lookup(Name);
    if (Existing != ConstructorTable::NotFound) {
      const ConstructorSignature &Sig = Table.signature(Existing);
      bool Same = Sig.ArgVariance.size() == Out.Decl.ArgVariance.size();
      for (size_t I = 0; Same && I != Out.Decl.ArgVariance.size(); ++I)
        Same = Sig.ArgVariance[I] == Out.Decl.ArgVariance[I];
      if (!Same)
        return Fail("constructor '" + std::string(Name) +
                    "' redeclared with a different signature");
    }
    return Status();
  }

  // A constraint line: expr <= expr.
  Out.K = ParsedLine::Kind::Constraint;
  Cursor.Pos = Mark;
  std::string Error;
  if (!parseExprAt(Line, Cursor.Pos, Out.Lhs, Error))
    return Fail(Error);
  if (!Cursor.eatArrowLE())
    return Fail("expected '<=' between expressions");
  if (!parseExprAt(Line, Cursor.Pos, Out.Rhs, Error))
    return Fail(Error);
  if (!Cursor.atEnd())
    return Fail("unexpected trailing input");
  if (Solver && VarNames.size() > Solver->numCreations())
    return Status::error(
        ErrorCode::FailedPrecondition,
        "system declares variables the solver does not have");
  return Status();
}

Status ConstraintSystemFile::checkLine(const std::string &Line,
                                       const ConstraintSolver &Solver) const {
  ParsedLine Parsed;
  return parseLine(Line, &Solver, Parsed);
}

Status ConstraintSystemFile::addLine(const std::string &Line,
                                     ConstraintSolver &Solver) {
  ParsedLine Parsed;
  Status St = parseLine(Line, &Solver, Parsed);
  if (!St.ok())
    return St;

  switch (Parsed.K) {
  case ParsedLine::Kind::Blank:
    return Status();

  case ParsedLine::Kind::Vars:
    for (const std::string &Name : Parsed.Names) {
      declareVar(Name);
      Solver.freshVar(Name);
    }
    return Status();

  case ParsedLine::Kind::Cons: {
    // Register in the solver's table immediately (see emit()): the
    // declaration must survive a snapshot taken before its first use.
    SmallVector<Variance, 4> Variances;
    Variances.append(Parsed.Decl.ArgVariance.begin(),
                     Parsed.Decl.ArgVariance.end());
    Solver.terms().mutableConstructors().getOrCreate(Parsed.Decl.Name,
                                                     Variances);
    declareCons(std::move(Parsed.Decl));
    return Status();
  }

  case ParsedLine::Kind::Constraint: {
    // Map declaration indices to solver variables through creation
    // indices (collapses and oracle substitution can alias several to
    // one VarId).
    std::vector<VarId> Vars;
    Vars.reserve(VarNames.size());
    for (uint32_t I = 0; I != VarNames.size(); ++I)
      Vars.push_back(Solver.varOfCreation(I));
    ExprId L = build(Parsed.Lhs, Solver, Vars);
    ExprId R = build(Parsed.Rhs, Solver, Vars);
    // The canonical rendered text is the retraction tag: whitespace and
    // comments are normalized away, so `retract` matches any spelling of
    // the same constraint.
    std::string Tag = exprToText(Parsed.Lhs) + " <= " + exprToText(Parsed.Rhs);
    Solver.addConstraint(L, R, std::move(Tag));
    return Status();
  }
  }
  assert(false && "invalid parsed line kind");
  return Status();
}

Status ConstraintSystemFile::adoptDeclarations(
    const ConstraintSolver &Solver) {
  auto Fail = [&](const std::string &Message) {
    return Status::error(ErrorCode::FailedPrecondition, Message);
  };

  ConstraintSystemFile Adopted;
  for (uint32_t I = 0; I != Solver.numCreations(); ++I) {
    const std::string &Name = Solver.varName(Solver.varOfCreation(I));
    if (Name == "0" || Name == "1")
      return Fail("solver variable named '" + Name +
                  "' collides with a constant");
    if (Adopted.varIndexOf(Name) != NotFound)
      return Fail("duplicate variable name '" + Name +
                  "'; the textual format needs unique names");
    Adopted.declareVar(Name);
  }

  const ConstructorTable &Table = Solver.terms().constructors();
  for (ConsId Id = 0; Id != Table.size(); ++Id) {
    const ConstructorSignature &Sig = Table.signature(Id);
    if (Adopted.varIndexOf(Sig.Name) != NotFound || Sig.Name == "0" ||
        Sig.Name == "1")
      return Fail("constructor name '" + Sig.Name +
                  "' collides with a variable or constant");
    ConsDecl Decl;
    Decl.Name = Sig.Name;
    Decl.ArgVariance.assign(Sig.ArgVariance.begin(), Sig.ArgVariance.end());
    Adopted.declareCons(std::move(Decl));
  }

  // Adopted has no constraints, so this also clears the recorded ones.
  *this = std::move(Adopted);
  return Status();
}

ExprId ConstraintSystemFile::build(const FileExpr &E,
                                   ConstraintSolver &Solver,
                                   const std::vector<VarId> &Vars) const {
  TermTable &Terms = Solver.terms();
  switch (E.K) {
  case FileExpr::Kind::Zero:
    return Terms.zero();
  case FileExpr::Kind::One:
    return Terms.one();
  case FileExpr::Kind::Var:
    return Terms.var(Vars[E.VarIndex]);
  case FileExpr::Kind::Apply: {
    const ConsDecl &Decl = ConsDecls[E.ConsIndex];
    SmallVector<Variance, 4> Variances;
    Variances.append(Decl.ArgVariance.begin(), Decl.ArgVariance.end());
    ConsId Cons =
        Terms.mutableConstructors().getOrCreate(Decl.Name, Variances);
    SmallVector<ExprId, 4> Args;
    for (const FileExpr &Arg : E.Args)
      Args.push_back(build(Arg, Solver, Vars));
    return Terms.cons(Cons, Args);
  }
  }
  assert(false && "invalid file expression kind");
  return Terms.zero();
}

void ConstraintSystemFile::emit(ConstraintSolver &Solver) const {
  // Register every declared constructor eagerly, including ones no base
  // constraint uses yet: declarations must survive into snapshots and
  // adoptDeclarations(), or an incremental constraint naming them later
  // would be rejected as undeclared.
  for (const ConsDecl &Decl : ConsDecls) {
    SmallVector<Variance, 4> Variances;
    Variances.append(Decl.ArgVariance.begin(), Decl.ArgVariance.end());
    Solver.terms().mutableConstructors().getOrCreate(Decl.Name, Variances);
  }
  std::vector<VarId> Vars;
  Vars.reserve(VarNames.size());
  for (const std::string &Name : VarNames)
    Vars.push_back(Solver.freshVar(Name));
  for (const auto &[Lhs, Rhs] : Constraints)
    Solver.addConstraint(build(Lhs, Solver, Vars), build(Rhs, Solver, Vars),
                         exprToText(Lhs) + " <= " + exprToText(Rhs));
}

Status ConstraintSystemFile::canonicalizeConstraint(const std::string &Line,
                                                    const ConstraintSolver &Solver,
                                                    std::string &Canon) const {
  ParsedLine Parsed;
  Status St = parseLine(Line, &Solver, Parsed);
  if (!St.ok())
    return St;
  if (Parsed.K != ParsedLine::Kind::Constraint)
    return Status::error(ErrorCode::InvalidArgument,
                         "not a constraint line (only constraints can be "
                         "retracted)");
  Canon = exprToText(Parsed.Lhs) + " <= " + exprToText(Parsed.Rhs);
  return Status();
}

GeneratorFn ConstraintSystemFile::generator() const {
  return [this](ConstraintSolver &Solver) { emit(Solver); };
}

std::string ConstraintSystemFile::exprToText(const FileExpr &E) const {
  switch (E.K) {
  case FileExpr::Kind::Zero:
    return "0";
  case FileExpr::Kind::One:
    return "1";
  case FileExpr::Kind::Var:
    return VarNames[E.VarIndex];
  case FileExpr::Kind::Apply: {
    std::string Out = ConsDecls[E.ConsIndex].Name;
    if (E.Args.empty())
      return Out;
    Out += "(";
    for (size_t I = 0; I != E.Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += exprToText(E.Args[I]);
    }
    return Out + ")";
  }
  }
  assert(false && "invalid file expression kind");
  return std::string();
}

std::string ConstraintSystemFile::str() const {
  std::string Out;
  if (!VarNames.empty()) {
    Out += "var";
    for (const std::string &Name : VarNames)
      Out += " " + Name;
    Out += "\n";
  }
  for (const ConsDecl &Decl : ConsDecls) {
    Out += "cons " + Decl.Name;
    for (Variance V : Decl.ArgVariance)
      Out += V == Variance::Covariant ? " +" : " -";
    Out += "\n";
  }
  for (const auto &[Lhs, Rhs] : Constraints)
    Out += exprToText(Lhs) + " <= " + exprToText(Rhs) + "\n";
  return Out;
}
