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

#include "minic/AST.h"
#include "setcon/ConstraintSolver.h"
#include "support/DenseU64Map.h"
#include "support/IdIndex.h"

#include <string>
#include <vector>

namespace poce {
namespace andersen {

/// Dense id of an abstract memory location.
using LocationId = uint32_t;

/// Kinds of abstract locations.
enum class LocationKind : uint8_t {
  Global,
  Local,
  Param,
  Function,
  Heap,
  StringLit,
};

/// One abstract memory location.
struct Location {
  std::string Name; ///< Unique qualified name, e.g. "main.p", "heap@12".
  LocationKind Kind = LocationKind::Global;
  VarId Content = 0;   ///< X_l: the location's points-to contents.
  ExprId RefTerm = 0;  ///< ref(name_l, X_l, ~X_l).
  bool IsArray = false;
};

/// Walks a MiniC translation unit and emits Andersen constraints into a
/// solver. One generator instance drives one solver run; generation is
/// deterministic, so repeated runs over the same AST issue identical
/// freshVar/addConstraint sequences (the property oracle construction
/// relies on).
class ConstraintGenerator {
public:
  explicit ConstraintGenerator(ConstraintSolver &Solver);

  /// Generates constraints for the whole translation unit.
  void run(const minic::TranslationUnit &Unit);

  const std::vector<Location> &locations() const { return Locations; }

  /// Maps a ref term back to its location; NotFound if \p Term is not a
  /// location's ref term.
  LocationId locationOfRefTerm(ExprId Term) const;

  /// Looks up a location by its qualified name; NotFound if absent.
  LocationId locationByName(const std::string &Name) const;

  static constexpr LocationId NotFound = ~0U;

private:
  //===--------------------------------------------------------------------===
  // Locations and scopes
  //===--------------------------------------------------------------------===
  /// Creates location \p Name (uniquified against every earlier
  /// location's name) with its content variable and ref term.
  LocationId createLocation(std::string Name, LocationKind Kind,
                            bool IsArray);
  LocationId lookupOrCreateIdent(const std::string &Name);
  /// The Bindings entry of identifier \p Name, created empty on first use.
  uint32_t bindingOf(const std::string &Name);
  void bindLocal(const std::string &Name, LocationId Loc);
  void pushScope();
  void popScope();
  bool inLocalScope() const { return !ScopeMarks.empty(); }

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
  // Declarations, statements, expressions
  //===--------------------------------------------------------------------===
  struct FunctionInfo {
    LocationId Loc = 0;
    std::vector<LocationId> Params;
    VarId Return = 0;
    bool Variadic = false;
    bool HasBody = false;
  };

  /// Returns the index of \p FD's FunctionInfo, declaring it on first
  /// sight.
  uint32_t declareFunction(const minic::FunctionDecl *FD);
  void generateFunctionBody(const minic::FunctionDecl *FD);
  void generateVarDecl(const minic::VarDecl *VD, bool IsLocal);
  void generateInitInto(LocationId Target, const minic::Expr *Init);
  void generateStmt(const minic::Stmt *S);

  /// Evaluates \p E to its L-value set.
  ExprId generateExpr(const minic::Expr *E);
  ExprId generateCall(const minic::CallExpr *Call);
  ExprId generateUnary(const minic::UnaryExpr *Unary);

  bool isAllocatorName(const std::string &Name) const;
  /// True if the program defines (not just declares) function \p Name.
  bool definedInProgram(const std::string &Name) const;

  /// Everything an identifier names at the current point of the walk.
  /// One table holds every identifier, so resolving one costs one hash.
  struct Binding {
    std::string Name;
    LocationId Global = NotFound; ///< The file-scope location.
    LocationId Local = NotFound;  ///< The innermost visible local.
    uint32_t Function = NotFound; ///< Index into Functions.
  };
  /// A local binding that a scope replaced; closing the scope restores
  /// it.
  struct ShadowedLocal {
    uint32_t Binding; ///< Index into Bindings.
    LocationId Previous;
  };

  ConstraintSolver &Solver;
  TermTable &Terms;
  ConsId RefCons;

  std::vector<Location> Locations;
  DenseU64Map<LocationId> RefTermToLocation;
  /// Identifiers in first-use order, found by name through IdentIndex.
  std::vector<Binding> Bindings;
  IdIndex IdentIndex;
  /// Undo log of local bindings, and its length when each open scope
  /// began.
  std::vector<ShadowedLocal> ScopeLog;
  std::vector<size_t> ScopeMarks;
  std::vector<FunctionInfo> Functions;
  /// Locations by their unique qualified name (Locations[Id].Name).
  IdIndex LocationIndex;
  /// lamN constructor by arity; ConstructorTable::NotFound until used.
  std::vector<ConsId> LamCons;
  /// Scratch for "@name" constructor names.
  std::string NameConsScratch;

  uint32_t CurrentFunction = NotFound; ///< Index into Functions.
  std::string CurrentFunctionName;
  uint32_t NextHeapId = 0;
  uint32_t NextLocalUniquifier = 0;
};

} // namespace andersen
} // namespace poce

#endif // POCE_ANDERSEN_CONSTRAINTGEN_H
