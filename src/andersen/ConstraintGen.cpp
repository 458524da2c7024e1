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
// Locations
//===----------------------------------------------------------------------===//

void ConstraintGenerator::locationCreated(LocationId Id) {
  Location &Loc = Locations[Id];
  Loc.Content = Solver.freshVar(Loc.Name);

  NameConsScratch.assign(1, '@');
  NameConsScratch += Loc.Name;
  ConsId NameCons =
      Terms.mutableConstructors().getOrCreate(NameConsScratch, {});
  ExprId NameTerm = Terms.cons(NameCons, {});
  ExprId ContentVar = Terms.var(Loc.Content);
  Loc.RefTerm = Terms.cons(RefCons, {NameTerm, ContentVar, ContentVar});
  if (Loc.RefTerm >= RefTermToLocation.size())
    RefTermToLocation.resize(Loc.RefTerm + 1, NotFound);
  RefTermToLocation[Loc.RefTerm] = Id;

  // Arrays (and functions, handled by the lam constraint) contain
  // themselves: reading an array r-value yields the array location, which
  // models the decay of "a" to "&a[0]" field-insensitively.
  if (Loc.IsArray)
    Solver.addConstraint(Loc.RefTerm, ContentVar);
}

LocationId ConstraintGenerator::locationOfRefTerm(ExprId Term) const {
  return Term < RefTermToLocation.size() ? RefTermToLocation[Term] : NotFound;
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
// Functions, initializers and returns
//===----------------------------------------------------------------------===//

void ConstraintGenerator::functionLocated(uint32_t Function) {
  assert(Function == Returns.size() && "functions located out of order!");
  Returns.push_back(freshVar("ret"));
}

void ConstraintGenerator::functionDeclared(uint32_t Function) {
  const FunctionInfo &Info = Functions[Function];
  SmallVector<ExprId, 8> LamArgs;
  for (LocationId Param : Info.Params)
    LamArgs.push_back(Terms.var(Locations[Param].Content));
  LamArgs.push_back(Terms.var(Returns[Function]));

  ExprId LamTerm = Terms.cons(lamConstructor(Info.Params.size()), LamArgs);
  // The function's location contains its lam value, so reading the
  // function name (or a function pointer holding it) yields the lam. It
  // also contains itself (function designators decay to pointers), which
  // both makes pts(fp) report the function and lets (*fp)(...) find the
  // lam one indirection down.
  Solver.addConstraint(LamTerm, Terms.var(Locations[Info.Loc].Content));
  Solver.addConstraint(Locations[Info.Loc].RefTerm,
                       Terms.var(Locations[Info.Loc].Content));
}

void ConstraintGenerator::initialize(LocationId Target, const Expr *Init) {
  ExprId Value = rvalueOf(walkExpr(Init));
  if (Value == Terms.zero())
    return;
  Solver.addConstraint(Value, Terms.var(Locations[Target].Content));
}

void ConstraintGenerator::returnValue(uint32_t Function, const Expr *Value) {
  ExprId Returned = rvalueOf(walkExpr(Value));
  if (Returned != Terms.zero())
    Solver.addConstraint(Returned, Terms.var(Returns[Function]));
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprId ConstraintGenerator::walkExpr(const Expr *E) {
  switch (E->kind()) {
  case Node::Kind::IntLiteral:
  case Node::Kind::FloatLiteral:
  case Node::Kind::CharLiteral:
    return Terms.zero(); // Literals designate no locations.
  case Node::Kind::StringLiteral:
    return Locations[stringLocation(cast<StringLiteralExpr>(E))].RefTerm;
  case Node::Kind::Ident:
    return Locations[identLocation(cast<IdentExpr>(E)->Name)].RefTerm;
  case Node::Kind::Unary:
    return walkUnary(cast<UnaryExpr>(E));
  case Node::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    ExprId Lhs = walkExpr(Bin->Lhs);
    ExprId Rhs = walkExpr(Bin->Rhs);
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
    ExprId Lhs = walkExpr(Assign->Lhs);
    ExprId Rhs = walkExpr(Assign->Rhs);
    // (Asst): read the right-hand side's r-value, then store it into every
    // location the left-hand side designates.
    writeInto(Lhs, rvalueOf(Rhs));
    return Lhs;
  }
  case Node::Kind::Conditional: {
    const auto *Cond = cast<ConditionalExpr>(E);
    walkExpr(Cond->Cond);
    ExprId TrueSet = walkExpr(Cond->TrueExpr);
    ExprId FalseSet = walkExpr(Cond->FalseExpr);
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
    return walkCall(cast<CallExpr>(E));
  case Node::Kind::Index: {
    // e[i] is *(e + i).
    const auto *Index = cast<IndexExpr>(E);
    ExprId Base = walkExpr(Index->Base);
    ExprId Offset = walkExpr(Index->Index);
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
    ExprId Base = walkExpr(Member->Base);
    if (!Member->IsArrow)
      return Base; // Field-insensitive: e.f designates e's location.
    return rvalueOf(Base); // e->f is (*e).f.
  }
  case Node::Kind::Cast:
    return walkExpr(cast<CastExpr>(E)->Sub);
  case Node::Kind::Sizeof: {
    const auto *Sizeof = cast<SizeofExpr>(E);
    if (Sizeof->Sub)
      walkExpr(Sizeof->Sub);
    return Terms.zero();
  }
  case Node::Kind::Comma: {
    const auto *Comma = cast<CommaExpr>(E);
    walkExpr(Comma->Lhs);
    return walkExpr(Comma->Rhs);
  }
  case Node::Kind::InitList: {
    // Only reachable on malformed input; evaluate children for effects.
    for (const Expr *Element : cast<InitListExpr>(E)->Inits)
      walkExpr(Element);
    return Terms.zero();
  }
  default:
    poce_unreachable("non-expression node in expression position");
  }
}

ExprId ConstraintGenerator::walkUnary(const UnaryExpr *Unary) {
  switch (Unary->Op) {
  case UnaryOp::AddressOf: {
    // (Addr): &e is a pseudo-location whose contents are e's locations.
    ExprId Sub = walkExpr(Unary->Sub);
    return Terms.cons(RefCons, {Terms.zero(), Sub, Terms.one()});
  }
  case UnaryOp::Deref: {
    // (Deref): the locations of *e are the contents of e's locations.
    return rvalueOf(walkExpr(Unary->Sub));
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
    return walkExpr(Unary->Sub);
  }
  poce_unreachable("invalid unary operator");
}

ExprId ConstraintGenerator::walkCall(const CallExpr *Call) {
  // The r-value of an allocation site is its heap location.
  const LocationId Heap = allocationSite(Call);
  if (Heap != NotFound)
    return wrapRValue(Locations[Heap].RefTerm);

  ExprId Callee = walkExpr(Call->Callee);
  // Candidate function values: the contents of the callee's locations.
  // Direct calls f(...) read f's location, which holds the lam; calls
  // through pointers read the stored lam; (*fp)(...) finds it one step
  // further through the function location's self edge.
  ExprId Candidates = rvalueOf(Callee);

  SmallVector<ExprId, 8> SinkArgs;
  for (const Expr *Arg : Call->Args)
    SinkArgs.push_back(rvalueOf(walkExpr(Arg)));
  VarId Ret = freshVar("call");
  SinkArgs.push_back(Terms.var(Ret));

  if (Candidates != Terms.zero())
    Solver.addConstraint(
        Candidates, Terms.cons(lamConstructor(Call->Args.size()), SinkArgs));
  return wrapRValue(Terms.var(Ret));
}

// The one instantiation of the walk for this analysis; ConstraintGen.h
// declares it extern.
template class poce::andersen::LocationWalker<ConstraintGenerator>;
