//===- andersen/ConstraintGen.cpp - Andersen constraint generation --------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "andersen/ConstraintGen.h"

#include "support/Debug.h"
#include "support/ErrorHandling.h"

#include <cassert>

#define POCE_DEBUG_TYPE "andersen"

using namespace poce;
using namespace poce::andersen;
using namespace poce::minic;

ConstraintGenerator::ConstraintGenerator(ConstraintSolver &Solver)
    : Solver(Solver), Terms(Solver.terms()) {
  // ref(name, get, ~set): Section 3.1 of the paper.
  RefCons = Terms.mutableConstructors().getOrCreate(
      "ref", {Variance::Covariant, Variance::Covariant,
              Variance::Contravariant});
}

//===----------------------------------------------------------------------===//
// Locations and scopes
//===----------------------------------------------------------------------===//

LocationId ConstraintGenerator::createLocation(std::string Name,
                                               LocationKind Kind,
                                               bool IsArray) {
  // Qualified names are unique; shadowing in nested blocks appends a
  // uniquifier.
  const LocationId Id = static_cast<LocationId>(Locations.size());
  auto claim = [&](const std::string &Candidate) {
    return LocationIndex.findOrInsert(
               stringTag(Candidate), Id, [&](LocationId Known) {
                 return Locations[Known].Name == Candidate;
               }) == Id;
  };
  if (!claim(Name)) {
    const std::string Base = std::move(Name);
    do
      Name = Base + "#" + std::to_string(++NextLocalUniquifier);
    while (!claim(Name));
  }

  Location &Loc = Locations.emplace_back();
  Loc.Kind = Kind;
  Loc.IsArray = IsArray;
  Loc.Content = Solver.freshVar(Name);

  NameConsScratch.assign(1, '@');
  NameConsScratch += Name;
  ConsId NameCons =
      Terms.mutableConstructors().getOrCreate(NameConsScratch, {});
  ExprId NameTerm = Terms.cons(NameCons, {});
  ExprId ContentVar = Terms.var(Loc.Content);
  Loc.RefTerm = Terms.cons(RefCons, {NameTerm, ContentVar, ContentVar});
  Loc.Name = std::move(Name);
  RefTermToLocation.insert(Loc.RefTerm, Id);

  // Arrays (and functions, handled by the lam constraint) contain
  // themselves: reading an array r-value yields the array location, which
  // models the decay of "a" to "&a[0]" field-insensitively.
  if (IsArray)
    Solver.addConstraint(Loc.RefTerm, ContentVar);
  return Id;
}

LocationId ConstraintGenerator::locationOfRefTerm(ExprId Term) const {
  const LocationId *Id = RefTermToLocation.lookup(Term);
  return Id ? *Id : NotFound;
}

LocationId
ConstraintGenerator::locationByName(const std::string &Name) const {
  LocationId Id = LocationIndex.find(stringTag(Name), [&](LocationId Known) {
    return Locations[Known].Name == Name;
  });
  return Id == IdIndex::NotFound ? NotFound : Id;
}

uint32_t ConstraintGenerator::bindingOf(const std::string &Name) {
  const uint32_t NewIndex = static_cast<uint32_t>(Bindings.size());
  const uint32_t Index = IdentIndex.findOrInsert(
      stringTag(Name), NewIndex,
      [&](uint32_t Known) { return Bindings[Known].Name == Name; });
  if (Index == NewIndex)
    Bindings.push_back({Name});
  return Index;
}

LocationId ConstraintGenerator::lookupOrCreateIdent(const std::string &Name) {
  Binding &Entry = Bindings[bindingOf(Name)];
  if (Entry.Local != NotFound)
    return Entry.Local;
  // Implicitly declared identifier (e.g. an external function used
  // without a prototype): create a global location on first use.
  if (Entry.Global == NotFound)
    Entry.Global =
        createLocation(Name, LocationKind::Global, /*IsArray=*/false);
  return Entry.Global;
}

void ConstraintGenerator::bindLocal(const std::string &Name, LocationId Loc) {
  assert(inLocalScope() && "local binding outside any scope!");
  const uint32_t Index = bindingOf(Name);
  ScopeLog.push_back({Index, Bindings[Index].Local});
  Bindings[Index].Local = Loc;
}

void ConstraintGenerator::pushScope() { ScopeMarks.push_back(ScopeLog.size()); }

void ConstraintGenerator::popScope() {
  assert(inLocalScope() && "scope underflow!");
  // Undo this scope's bindings newest first, so a name bound twice in it
  // gets back the binding from before the scope.
  for (size_t I = ScopeLog.size(); I != ScopeMarks.back(); --I)
    Bindings[ScopeLog[I - 1].Binding].Local = ScopeLog[I - 1].Previous;
  ScopeLog.resize(ScopeMarks.back());
  ScopeMarks.pop_back();
}

//===----------------------------------------------------------------------===//
// Constraint helpers
//===----------------------------------------------------------------------===//

VarId ConstraintGenerator::freshVar(const char *Hint) {
  return Solver.freshVar(Hint);
}

VarId ConstraintGenerator::readInto(ExprId LValues) {
  // tau <= ref(1, T, ~0): by covariance the contents of every location in
  // tau flow into T.
  VarId T = freshVar("rd");
  ExprId Sink =
      Terms.cons(RefCons, {Terms.one(), Terms.var(T), Terms.zero()});
  Solver.addConstraint(LValues, Sink);
  return T;
}

ExprId ConstraintGenerator::rvalueOf(ExprId LValues) {
  if (LValues == Terms.zero())
    return Terms.zero();
  if (Terms.kind(LValues) == ExprKind::Cons &&
      Terms.consOf(LValues) == RefCons)
    return Terms.argsOf(LValues)[1]; // The "get" set of the known location.
  return Terms.var(readInto(LValues));
}

void ConstraintGenerator::writeInto(ExprId LValues, ExprId Value) {
  if (Value == Terms.zero() || LValues == Terms.zero())
    return;
  if (Terms.kind(LValues) == ExprKind::Cons &&
      Terms.consOf(LValues) == RefCons) {
    // Statically known single location: write directly into its "set"
    // domain (One for pseudo-locations, discharging the write).
    Solver.addConstraint(Value, Terms.argsOf(LValues)[2]);
    return;
  }
  // tau <= ref(1, 1, ~V): by contravariance V flows into the contents of
  // every location in tau.
  ExprId Sink = Terms.cons(RefCons, {Terms.one(), Terms.one(), Value});
  Solver.addConstraint(LValues, Sink);
}

ExprId ConstraintGenerator::wrapRValue(ExprId Value) {
  // A pseudo-location with contents V and an unconstrained set method:
  // reading it yields V; writing to it is discharged.
  return Terms.cons(RefCons, {Terms.zero(), Value, Terms.one()});
}

ConsId ConstraintGenerator::lamConstructor(size_t Arity) {
  if (Arity >= LamCons.size())
    LamCons.resize(Arity + 1, ConstructorTable::NotFound);
  if (LamCons[Arity] == ConstructorTable::NotFound) {
    SmallVector<Variance, 8> Variances;
    for (size_t I = 0; I != Arity; ++I)
      Variances.push_back(Variance::Contravariant);
    Variances.push_back(Variance::Covariant);
    LamCons[Arity] = Terms.mutableConstructors().getOrCreate(
        "lam$" + std::to_string(Arity), Variances);
  }
  return LamCons[Arity];
}

//===----------------------------------------------------------------------===//
// Functions
//===----------------------------------------------------------------------===//

uint32_t ConstraintGenerator::declareFunction(const FunctionDecl *FD) {
  const uint32_t Index = bindingOf(FD->Name);
  if (Bindings[Index].Function != NotFound)
    return Bindings[Index].Function;

  FunctionInfo Info;
  // Reuse a location created by an earlier implicit use of the name.
  if (Bindings[Index].Global != NotFound) {
    Info.Loc = Bindings[Index].Global;
    Locations[Info.Loc].Kind = LocationKind::Function;
  } else {
    Info.Loc =
        createLocation(FD->Name, LocationKind::Function, /*IsArray=*/false);
    Bindings[Index].Global = Info.Loc;
  }
  Info.Return = freshVar("ret");
  Info.Variadic = FD->Variadic;

  SmallVector<ExprId, 8> LamArgs;
  for (size_t I = 0; I != FD->Params.size(); ++I) {
    const VarDecl *Param = FD->Params[I];
    std::string ParamName =
        FD->Name + "." +
        (Param->Name.empty() ? "p" + std::to_string(I) : Param->Name);
    bool IsArray = Param->TypeText.find("[]") != std::string::npos;
    LocationId ParamLoc =
        createLocation(std::move(ParamName), LocationKind::Param, IsArray);
    Info.Params.push_back(ParamLoc);
    LamArgs.push_back(Terms.var(Locations[ParamLoc].Content));
  }
  LamArgs.push_back(Terms.var(Info.Return));

  ExprId LamTerm = Terms.cons(lamConstructor(FD->Params.size()), LamArgs);
  // The function's location contains its lam value, so reading the
  // function name (or a function pointer holding it) yields the lam. It
  // also contains itself (function designators decay to pointers), which
  // both makes pts(fp) report the function and lets (*fp)(...) find the
  // lam one indirection down.
  Solver.addConstraint(LamTerm, Terms.var(Locations[Info.Loc].Content));
  Solver.addConstraint(Locations[Info.Loc].RefTerm,
                       Terms.var(Locations[Info.Loc].Content));

  Bindings[Index].Function = static_cast<uint32_t>(Functions.size());
  Functions.push_back(std::move(Info));
  return Bindings[Index].Function;
}

void ConstraintGenerator::generateFunctionBody(const FunctionDecl *FD) {
  const uint32_t Function = declareFunction(FD);
  Functions[Function].HasBody = true;
  const uint32_t PreviousFunction = CurrentFunction;
  std::string PreviousName = CurrentFunctionName;
  CurrentFunction = Function;
  CurrentFunctionName = FD->Name;

  pushScope();
  // Bind the definition's parameter names (which may differ from a
  // prototype's) to the canonical parameter locations.
  const std::vector<LocationId> &Params = Functions[Function].Params;
  for (size_t I = 0; I != FD->Params.size() && I != Params.size(); ++I)
    if (!FD->Params[I]->Name.empty())
      bindLocal(FD->Params[I]->Name, Params[I]);
  generateStmt(FD->Body);
  popScope();

  CurrentFunction = PreviousFunction;
  CurrentFunctionName = std::move(PreviousName);
}

//===----------------------------------------------------------------------===//
// Declarations and statements
//===----------------------------------------------------------------------===//

void ConstraintGenerator::generateVarDecl(const VarDecl *VD, bool IsLocal) {
  if (VD->Name.empty())
    return; // Malformed input; the parser already diagnosed it.
  bool IsArray = VD->TypeText.find("[]") != std::string::npos;
  LocationId Loc;
  if (IsLocal) {
    Loc = createLocation(CurrentFunctionName + "." + VD->Name,
                         LocationKind::Local, IsArray);
    bindLocal(VD->Name, Loc);
  } else {
    // Globals: tentative definitions and extern declarations of the same
    // name share one location.
    Binding &Entry = Bindings[bindingOf(VD->Name)];
    if (Entry.Global == NotFound)
      Entry.Global = createLocation(VD->Name, LocationKind::Global, IsArray);
    Loc = Entry.Global;
  }
  if (VD->Init)
    generateInitInto(Loc, VD->Init);
}

void ConstraintGenerator::generateInitInto(LocationId Target,
                                           const Expr *Init) {
  // Brace initializers flow every leaf r-value into the (field-
  // insensitive) target location.
  if (const auto *List = dyn_cast<InitListExpr>(Init)) {
    for (const Expr *Element : List->Inits)
      generateInitInto(Target, Element);
    return;
  }
  ExprId Value = rvalueOf(generateExpr(Init));
  if (Value == Terms.zero())
    return;
  Solver.addConstraint(Value, Terms.var(Locations[Target].Content));
}

void ConstraintGenerator::generateStmt(const Stmt *S) {
  if (!S)
    return;
  switch (S->kind()) {
  case Node::Kind::Compound: {
    pushScope();
    for (const Stmt *Sub : cast<CompoundStmt>(S)->Body)
      generateStmt(Sub);
    popScope();
    return;
  }
  case Node::Kind::DeclStmt:
    for (const VarDecl *VD : cast<DeclStmt>(S)->Decls)
      generateVarDecl(VD, /*IsLocal=*/inLocalScope());
    return;
  case Node::Kind::ExprStmt:
    generateExpr(cast<ExprStmt>(S)->E);
    return;
  case Node::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    generateExpr(If->Cond);
    generateStmt(If->Then);
    generateStmt(If->Else);
    return;
  }
  case Node::Kind::While: {
    const auto *While = cast<WhileStmt>(S);
    generateExpr(While->Cond);
    generateStmt(While->Body);
    return;
  }
  case Node::Kind::Do: {
    const auto *Do = cast<DoStmt>(S);
    generateStmt(Do->Body);
    generateExpr(Do->Cond);
    return;
  }
  case Node::Kind::For: {
    const auto *For = cast<ForStmt>(S);
    pushScope();
    generateStmt(For->Init);
    if (For->Cond)
      generateExpr(For->Cond);
    if (For->Inc)
      generateExpr(For->Inc);
    generateStmt(For->Body);
    popScope();
    return;
  }
  case Node::Kind::Return: {
    const auto *Return = cast<ReturnStmt>(S);
    if (Return->Value) {
      ExprId Value = rvalueOf(generateExpr(Return->Value));
      if (CurrentFunction != NotFound && Value != Terms.zero())
        Solver.addConstraint(Value,
                             Terms.var(Functions[CurrentFunction].Return));
    }
    return;
  }
  case Node::Kind::Switch: {
    const auto *Switch = cast<SwitchStmt>(S);
    generateExpr(Switch->Cond);
    generateStmt(Switch->Body);
    return;
  }
  case Node::Kind::Case: {
    const auto *Case = cast<CaseStmt>(S);
    if (Case->Value)
      generateExpr(Case->Value);
    generateStmt(Case->Sub);
    return;
  }
  case Node::Kind::Break:
  case Node::Kind::Continue:
  case Node::Kind::Null:
    return;
  default:
    poce_unreachable("non-statement node in statement position");
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprId ConstraintGenerator::generateExpr(const Expr *E) {
  switch (E->kind()) {
  case Node::Kind::IntLiteral:
  case Node::Kind::FloatLiteral:
  case Node::Kind::CharLiteral:
    return Terms.zero(); // Literals designate no locations.
  case Node::Kind::StringLiteral: {
    const auto *Str = cast<StringLiteralExpr>(E);
    LocationId Loc =
        createLocation("str@" + std::to_string(Str->LiteralId),
                       LocationKind::StringLit, /*IsArray=*/true);
    return Locations[Loc].RefTerm;
  }
  case Node::Kind::Ident: {
    LocationId Loc = lookupOrCreateIdent(cast<IdentExpr>(E)->Name);
    return Locations[Loc].RefTerm;
  }
  case Node::Kind::Unary:
    return generateUnary(cast<UnaryExpr>(E));
  case Node::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    ExprId Lhs = generateExpr(Bin->Lhs);
    ExprId Rhs = generateExpr(Bin->Rhs);
    // The result may designate either operand's locations (pointer
    // arithmetic keeps pointees; comparisons add nothing harmful).
    if (Lhs == Terms.zero())
      return Rhs;
    if (Rhs == Terms.zero())
      return Lhs;
    VarId Union = freshVar("bin");
    Solver.addConstraint(Lhs, Terms.var(Union));
    Solver.addConstraint(Rhs, Terms.var(Union));
    return Terms.var(Union);
  }
  case Node::Kind::Assign: {
    const auto *Assign = cast<AssignExpr>(E);
    ExprId Lhs = generateExpr(Assign->Lhs);
    ExprId Rhs = generateExpr(Assign->Rhs);
    // (Asst): read the right-hand side's r-value, then store it into every
    // location the left-hand side designates.
    writeInto(Lhs, rvalueOf(Rhs));
    return Lhs;
  }
  case Node::Kind::Conditional: {
    const auto *Cond = cast<ConditionalExpr>(E);
    generateExpr(Cond->Cond);
    ExprId TrueSet = generateExpr(Cond->TrueExpr);
    ExprId FalseSet = generateExpr(Cond->FalseExpr);
    if (TrueSet == Terms.zero())
      return FalseSet;
    if (FalseSet == Terms.zero())
      return TrueSet;
    VarId Union = freshVar("cond");
    Solver.addConstraint(TrueSet, Terms.var(Union));
    Solver.addConstraint(FalseSet, Terms.var(Union));
    return Terms.var(Union);
  }
  case Node::Kind::Call:
    return generateCall(cast<CallExpr>(E));
  case Node::Kind::Index: {
    // e[i] is *(e + i).
    const auto *Index = cast<IndexExpr>(E);
    ExprId Base = generateExpr(Index->Base);
    ExprId Offset = generateExpr(Index->Index);
    ExprId Sum = Base;
    if (Base == Terms.zero()) {
      Sum = Offset;
    } else if (Offset != Terms.zero()) {
      VarId Union = freshVar("idx");
      Solver.addConstraint(Base, Terms.var(Union));
      Solver.addConstraint(Offset, Terms.var(Union));
      Sum = Terms.var(Union);
    }
    return rvalueOf(Sum);
  }
  case Node::Kind::Member: {
    const auto *Member = cast<MemberExpr>(E);
    ExprId Base = generateExpr(Member->Base);
    if (!Member->IsArrow)
      return Base; // Field-insensitive: e.f designates e's location.
    return rvalueOf(Base); // e->f is (*e).f.
  }
  case Node::Kind::Cast:
    return generateExpr(cast<CastExpr>(E)->Sub);
  case Node::Kind::Sizeof: {
    const auto *Sizeof = cast<SizeofExpr>(E);
    if (Sizeof->Sub)
      generateExpr(Sizeof->Sub);
    return Terms.zero();
  }
  case Node::Kind::Comma: {
    const auto *Comma = cast<CommaExpr>(E);
    generateExpr(Comma->Lhs);
    return generateExpr(Comma->Rhs);
  }
  case Node::Kind::InitList: {
    // Only reachable on malformed input; evaluate children for effects.
    for (const Expr *Element : cast<InitListExpr>(E)->Inits)
      generateExpr(Element);
    return Terms.zero();
  }
  default:
    poce_unreachable("non-expression node in expression position");
  }
}

ExprId ConstraintGenerator::generateUnary(const UnaryExpr *Unary) {
  switch (Unary->Op) {
  case UnaryOp::AddressOf: {
    // (Addr): &e is a pseudo-location whose contents are e's locations.
    ExprId Sub = generateExpr(Unary->Sub);
    return Terms.cons(RefCons, {Terms.zero(), Sub, Terms.one()});
  }
  case UnaryOp::Deref: {
    // (Deref): the locations of *e are the contents of e's locations.
    return rvalueOf(generateExpr(Unary->Sub));
  }
  case UnaryOp::Plus:
  case UnaryOp::Minus:
  case UnaryOp::Not:
  case UnaryOp::LogicalNot:
  case UnaryOp::PreInc:
  case UnaryOp::PreDec:
  case UnaryOp::PostInc:
  case UnaryOp::PostDec:
    // Arithmetic preserves the operand's designation (pointer arithmetic
    // stays within the abstract location).
    return generateExpr(Unary->Sub);
  }
  poce_unreachable("invalid unary operator");
}

bool ConstraintGenerator::isAllocatorName(const std::string &Name) const {
  return Name == "malloc" || Name == "calloc" || Name == "realloc" ||
         Name == "valloc" || Name == "xmalloc" || Name == "strdup";
}

bool ConstraintGenerator::definedInProgram(const std::string &Name) const {
  uint32_t Index = IdentIndex.find(stringTag(Name), [&](uint32_t Known) {
    return Bindings[Known].Name == Name;
  });
  return Index != IdIndex::NotFound &&
         Bindings[Index].Function != NotFound &&
         Functions[Bindings[Index].Function].HasBody;
}

ExprId ConstraintGenerator::generateCall(const CallExpr *Call) {
  // Allocation sites make fresh heap locations (one per syntactic site).
  // A mere prototype of malloc keeps its allocator meaning; only a
  // program-supplied definition overrides it.
  if (const auto *Ident = dyn_cast<IdentExpr>(Call->Callee)) {
    if (isAllocatorName(Ident->Name) && !definedInProgram(Ident->Name)) {
      for (const Expr *Arg : Call->Args)
        generateExpr(Arg);
      LocationId Heap =
          createLocation("heap@" + std::to_string(NextHeapId++),
                         LocationKind::Heap, /*IsArray=*/false);
      // The call's r-value is the heap location itself.
      return wrapRValue(Locations[Heap].RefTerm);
    }
  }

  ExprId Callee = generateExpr(Call->Callee);
  // Candidate function values: the contents of the callee's locations.
  // Direct calls f(...) read f's location, which holds the lam; calls
  // through pointers read the stored lam; (*fp)(...) finds it one step
  // further through the function location's self edge.
  ExprId Candidates = rvalueOf(Callee);

  SmallVector<ExprId, 8> SinkArgs;
  for (const Expr *Arg : Call->Args)
    SinkArgs.push_back(rvalueOf(generateExpr(Arg)));
  VarId Ret = freshVar("call");
  SinkArgs.push_back(Terms.var(Ret));

  if (Candidates != Terms.zero())
    Solver.addConstraint(
        Candidates, Terms.cons(lamConstructor(Call->Args.size()), SinkArgs));
  return wrapRValue(Terms.var(Ret));
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

void ConstraintGenerator::run(const TranslationUnit &Unit) {
  for (const Decl *D : Unit.Decls) {
    switch (D->kind()) {
    case Node::Kind::Var:
      generateVarDecl(cast<VarDecl>(D), /*IsLocal=*/false);
      break;
    case Node::Kind::Function: {
      const auto *FD = cast<FunctionDecl>(D);
      declareFunction(FD);
      if (FD->Body)
        generateFunctionBody(FD);
      break;
    }
    case Node::Kind::Record:
    case Node::Kind::Typedef:
    case Node::Kind::Enum:
      break; // Types carry no points-to constraints of their own.
    default:
      poce_unreachable("non-declaration node at top level");
    }
  }
}
