//===- andersen/ConstraintGen.h - Andersen constraint generation -*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates inclusion constraints for Andersen's points-to analysis from a
/// MiniC AST (Section 3 of the paper, constraint rules of Figure 6 and
/// [FA97]).
///
/// Encoding. Every abstract memory location l (variable, parameter,
/// function, heap allocation site, string literal) is modeled by the term
///
///     ref(name_l, X_l, ~X_l)
///
/// where name_l is a nullary constructor unique to l, X_l is the set
/// variable holding l's contents (covariant: the range of the "get"
/// method), and the third, contravariant argument is the domain of the
/// "set" method. Reading an unknown location set tau into a fresh T uses
/// the sink tau <= ref(1, T, ~0); writing T into tau uses
/// tau <= ref(1, 1, ~T), which by contravariance yields T <= X_l for every
/// location l in tau.
///
/// Every expression evaluates to a set expression denoting its *L-value
/// set* (the locations the expression may designate), avoiding separate
/// L/R rules exactly as the paper does. R-values are wrapped back into
/// L-value form with the pseudo-location ref(0, V, ~1).
///
/// Functions are values: a function f with n parameters contributes
/// lamN(~X_p1, ..., ~X_pn, R_f) to the contents of f's location, where the
/// contravariant arguments are the parameter locations' content variables
/// and R_f collects returned r-values. A call e(a1..an) reads the callee
/// location set into C and constrains C <= lamN(~A1, ..., ~An, Ret).
/// Structurally mismatched flows (e.g. calling a data pointer, arity
/// mismatches at varargs calls) are ignored, the standard treatment of
/// ill-typed C.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_ANDERSEN_CONSTRAINTGEN_H
#define POCE_ANDERSEN_CONSTRAINTGEN_H

#include "andersen/LocationModel.h"
#include "minic/AST.h"
#include "setcon/ConstraintSolver.h"

#include <string>
#include <vector>

namespace poce {
namespace andersen {

/// Walks a MiniC translation unit and emits Andersen constraints into a
/// solver. One generator instance drives one solver run; generation is
/// deterministic, so repeated runs over the same AST issue identical
/// freshVar/addConstraint sequences (the property oracle construction
/// relies on). The walk, the locations and their names come from
/// LocationWalker; run() and locations() are its.
class ConstraintGenerator : public LocationWalker<ConstraintGenerator> {
public:
  explicit ConstraintGenerator(ConstraintSolver &Solver);

  /// Maps a ref term back to its location; NotFound if \p Term is not a
  /// location's ref term.
  LocationId locationOfRefTerm(ExprId Term) const;

private:
  friend class LocationWalker<ConstraintGenerator>;

  //===--------------------------------------------------------------------===
  // Rules the location walker applies
  //===--------------------------------------------------------------------===
  /// Gives a new location its content variable and ref term.
  void locationCreated(LocationId Loc);
  /// Creates the function's return variable R_f.
  void functionLocated(uint32_t Function);
  /// Puts the function's lam value, and the function itself, into the
  /// contents of its location.
  void functionDeclared(uint32_t Function);
  void initialize(LocationId Target, const minic::Expr *Init);
  void returnValue(uint32_t Function, const minic::Expr *Value);
  /// Evaluates \p E to its L-value set.
  ExprId walkExpr(const minic::Expr *E);

  //===--------------------------------------------------------------------===
  // Constraint helpers
  //===--------------------------------------------------------------------===
  /// Fresh set variable with a diagnostic name.
  VarId freshVar(const char *Hint);
  /// Reads the r-values of L-value set \p LValues into a fresh variable.
  VarId readInto(ExprId LValues);
  /// The r-value set of \p LValues. When the L-value set is statically a
  /// single ref term (a known location or a wrapped r-value), the term's
  /// covariant "get" argument is returned directly — the standard
  /// short-circuit for trivial copies, which keeps constraint cycles short
  /// (direct X <= Y edges) instead of threading every copy through a fresh
  /// temporary. Otherwise reads through a ref(1, T, ~0) sink.
  ExprId rvalueOf(ExprId LValues);
  /// Writes set expression \p Value into every location of \p LValues
  /// (short-circuiting statically known single locations).
  void writeInto(ExprId LValues, ExprId Value);
  /// Wraps r-value set \p Value as a pseudo L-value set ref(0, V, ~1).
  ExprId wrapRValue(ExprId Value);
  /// lamN(~p1, ..., ~pN, ret) for N = \p Arity, registered on first use.
  ConsId lamConstructor(size_t Arity);

  //===--------------------------------------------------------------------===
  // Expressions
  //===--------------------------------------------------------------------===
  ExprId walkCall(const minic::CallExpr *Call);
  ExprId walkUnary(const minic::UnaryExpr *Unary);

  ConstraintSolver &Solver;
  TermTable &Terms;
  ConsId RefCons;

  /// Location of each ref term, indexed by ExprId; NotFound for every
  /// other term. Sized to the terms the generator has seen.
  std::vector<LocationId> RefTermToLocation;
  /// R_f of each function, by its index in Functions.
  std::vector<VarId> Returns;
  /// lamN constructor by arity; ConstructorTable::NotFound until used.
  std::vector<ConsId> LamCons;
  /// Scratch for "@name" constructor names.
  std::string NameConsScratch;
};

// The walk is instantiated once, in ConstraintGen.cpp, next to the rules
// it calls.
extern template class LocationWalker<ConstraintGenerator>;

} // namespace andersen
} // namespace poce

#endif // POCE_ANDERSEN_CONSTRAINTGEN_H
