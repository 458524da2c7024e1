//===- andersen/LocationModel.h - MiniC abstract locations -----*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniC location model that both points-to analyses run on. One
/// walker decides which abstract locations a program has and what every
/// identifier names: it owns the identifier bindings and their scope undo
/// log, the location table with its uniquified qualified names, the
/// function table with its parameter locations, one heap location per
/// allocation site, one location per string literal, and the walk over
/// declarations and statements.
///
/// An analysis derives from LocationWalker<Itself> and supplies only its
/// own rules, which the walker calls directly (no virtual dispatch):
///
///   void locationCreated(LocationId L);   // L was just added
///   void functionLocated(uint32_t F);     // F's location exists; its
///                                         // parameters do not yet
///   void functionDeclared(uint32_t F);    // F's parameters exist too
///   void initialize(LocationId L, const minic::Expr *E);
///                                         // E, a leaf of L's initializer
///   void returnValue(uint32_t F, const minic::Expr *E);
///                                         // "return E;" inside F
///   Value walkExpr(const minic::Expr *E); // E, evaluated for its effects
///
/// Expressions belong to the analysis: it calls identLocation(),
/// stringLocation() and allocationSite() where its expression rules meet
/// an identifier, a string literal or a call. Andersen's constraint
/// generator (ConstraintGen.h) and Steensgaard's unification
/// (Steensgaard.cpp) are the two analyses, so they see the same locations
/// under the same names by construction, and extractPointsTo() turns
/// either one's answer into location -> sorted target names.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_ANDERSEN_LOCATIONMODEL_H
#define POCE_ANDERSEN_LOCATIONMODEL_H

#include "minic/AST.h"
#include "setcon/Term.h"
#include "support/ErrorHandling.h"
#include "support/IdIndex.h"

#include <cassert>
#include <functional>
#include <map>
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

/// One abstract memory location. Name, Kind and IsArray are the model's;
/// Content and RefTerm are Andersen's encoding of the location, left 0 by
/// Steensgaard, which keeps a cell per location instead.
struct Location {
  std::string Name; ///< Unique qualified name, e.g. "main.p", "heap@12".
  LocationKind Kind = LocationKind::Global;
  VarId Content = 0;   ///< X_l: the location's points-to contents.
  ExprId RefTerm = 0;  ///< ref(name_l, X_l, ~X_l).
  bool IsArray = false;
};

/// The tables of the location model. LocationWalker fills them.
class LocationModel {
public:
  static constexpr LocationId NotFound = ~0U;

  const std::vector<Location> &locations() const { return Locations; }

protected:
  /// One declared function; indexed by its position in Functions.
  struct FunctionInfo {
    LocationId Loc = 0;
    std::vector<LocationId> Params;
    bool HasBody = false;
  };

  /// Appends location \p Name, uniquified against every earlier
  /// location's name.
  LocationId addLocation(std::string Name, LocationKind Kind, bool IsArray);
  /// The Bindings entry of identifier \p Name, created empty on first use.
  uint32_t bindingOf(const std::string &Name);
  void bindLocal(const std::string &Name, LocationId Loc);
  void pushScope();
  void popScope();
  bool inLocalScope() const { return !ScopeMarks.empty(); }
  /// True if \p Call is an allocation site: its callee names an allocator
  /// the program does not define. A mere prototype of malloc keeps its
  /// allocator meaning; only a program-supplied definition overrides it.
  bool callsAllocator(const minic::CallExpr *Call) const;
  /// True if \p VD declares an array, which contains itself.
  static bool isArrayDecl(const minic::VarDecl *VD) {
    return VD->TypeText.find("[]") != std::string::npos;
  }

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

  std::vector<Location> Locations;
  /// Locations by their unique qualified name (Locations[Id].Name).
  IdIndex LocationIndex;
  /// Identifiers in first-use order, found by name through IdentIndex.
  std::vector<Binding> Bindings;
  IdIndex IdentIndex;
  /// Undo log of local bindings, and its length when each open scope
  /// began.
  std::vector<ShadowedLocal> ScopeLog;
  std::vector<size_t> ScopeMarks;
  std::vector<FunctionInfo> Functions;

  uint32_t CurrentFunction = NotFound; ///< Index into Functions.
  std::string CurrentFunctionName;
  uint32_t NextHeapId = 0;
  uint32_t NextLocalUniquifier = 0;
};

/// The declaration and statement walk over a translation unit, applying
/// the rules of analysis \p Rules (see the file comment).
template <typename Rules> class LocationWalker : public LocationModel {
public:
  /// Walks the whole translation unit.
  void run(const minic::TranslationUnit &Unit);

protected:
  /// The location identifier \p Name designates here. An identifier with
  /// no declaration in sight (e.g. an external function used without a
  /// prototype) gets a global location on first use.
  LocationId identLocation(const std::string &Name);
  /// The fresh location of string literal \p Str.
  LocationId stringLocation(const minic::StringLiteralExpr *Str);
  /// If \p Call is an allocation site, walks its arguments and returns
  /// the site's fresh heap location; otherwise NotFound.
  LocationId allocationSite(const minic::CallExpr *Call);

private:
  Rules &rules() { return static_cast<Rules &>(*this); }

  /// Adds location \p Name and applies the analysis's locationCreated.
  LocationId createLocation(std::string Name, LocationKind Kind,
                            bool IsArray);

  /// Returns the index of \p FD's FunctionInfo, declaring it on first
  /// sight.
  uint32_t declareFunction(const minic::FunctionDecl *FD);
  void walkFunctionBody(const minic::FunctionDecl *FD);
  void walkVarDecl(const minic::VarDecl *VD, bool IsLocal);
  /// Brace initializers flow every leaf into the (field-insensitive)
  /// target location.
  void walkInitInto(LocationId Target, const minic::Expr *Init);
  void walkStmt(const minic::Stmt *S);
};

/// The points-to extraction both analyses end with: every location's
/// name mapped to the sorted names of the locations it may point to.
/// \p TargetsOf(L, Out) appends the locations L may point to, in any
/// order and possibly repeated.
std::map<std::string, std::vector<std::string>> extractPointsTo(
    const std::vector<Location> &Locations,
    const std::function<void(LocationId, std::vector<LocationId> &)>
        &TargetsOf);

//===----------------------------------------------------------------------===//
// LocationWalker implementation
//===----------------------------------------------------------------------===//

template <typename Rules>
LocationId LocationWalker<Rules>::createLocation(std::string Name,
                                                 LocationKind Kind,
                                                 bool IsArray) {
  const LocationId Loc = addLocation(std::move(Name), Kind, IsArray);
  rules().locationCreated(Loc);
  return Loc;
}

template <typename Rules>
LocationId LocationWalker<Rules>::identLocation(const std::string &Name) {
  const uint32_t Index = bindingOf(Name);
  if (Bindings[Index].Local != NotFound)
    return Bindings[Index].Local;
  if (Bindings[Index].Global == NotFound) {
    const LocationId Loc =
        createLocation(Name, LocationKind::Global, /*IsArray=*/false);
    Bindings[Index].Global = Loc;
  }
  return Bindings[Index].Global;
}

template <typename Rules>
LocationId
LocationWalker<Rules>::stringLocation(const minic::StringLiteralExpr *Str) {
  return createLocation("str@" + std::to_string(Str->LiteralId),
                        LocationKind::StringLit, /*IsArray=*/true);
}

template <typename Rules>
LocationId LocationWalker<Rules>::allocationSite(const minic::CallExpr *Call) {
  if (!callsAllocator(Call))
    return NotFound;
  for (const minic::Expr *Arg : Call->Args)
    rules().walkExpr(Arg);
  return createLocation("heap@" + std::to_string(NextHeapId++),
                        LocationKind::Heap, /*IsArray=*/false);
}

template <typename Rules>
uint32_t LocationWalker<Rules>::declareFunction(const minic::FunctionDecl *FD) {
  const uint32_t Index = bindingOf(FD->Name);
  if (Bindings[Index].Function != NotFound)
    return Bindings[Index].Function;

  // Reuse a location created by an earlier implicit use of the name.
  LocationId Loc = Bindings[Index].Global;
  if (Loc != NotFound) {
    Locations[Loc].Kind = LocationKind::Function;
  } else {
    Loc = createLocation(FD->Name, LocationKind::Function,
                         /*IsArray=*/false);
    Bindings[Index].Global = Loc;
  }
  const uint32_t Function = static_cast<uint32_t>(Functions.size());
  Functions.push_back({Loc, {}, false});
  Bindings[Index].Function = Function;
  rules().functionLocated(Function);

  for (size_t I = 0; I != FD->Params.size(); ++I) {
    const minic::VarDecl *Param = FD->Params[I];
    std::string ParamName =
        FD->Name + "." +
        (Param->Name.empty() ? "p" + std::to_string(I) : Param->Name);
    const LocationId ParamLoc = createLocation(
        std::move(ParamName), LocationKind::Param, isArrayDecl(Param));
    Functions[Function].Params.push_back(ParamLoc);
  }
  rules().functionDeclared(Function);
  return Function;
}

template <typename Rules>
void LocationWalker<Rules>::walkFunctionBody(const minic::FunctionDecl *FD) {
  const uint32_t Function = declareFunction(FD);
  Functions[Function].HasBody = true;
  const uint32_t PreviousFunction = CurrentFunction;
  std::string PreviousName = std::move(CurrentFunctionName);
  CurrentFunction = Function;
  CurrentFunctionName = FD->Name;

  pushScope();
  // Bind the definition's parameter names (which may differ from a
  // prototype's) to the canonical parameter locations.
  const std::vector<LocationId> &Params = Functions[Function].Params;
  for (size_t I = 0; I != FD->Params.size() && I != Params.size(); ++I)
    if (!FD->Params[I]->Name.empty())
      bindLocal(FD->Params[I]->Name, Params[I]);
  walkStmt(FD->Body);
  popScope();

  CurrentFunction = PreviousFunction;
  CurrentFunctionName = std::move(PreviousName);
}

template <typename Rules>
void LocationWalker<Rules>::walkVarDecl(const minic::VarDecl *VD,
                                        bool IsLocal) {
  if (VD->Name.empty())
    return; // Malformed input; the parser already diagnosed it.
  LocationId Loc;
  if (IsLocal) {
    Loc = createLocation(CurrentFunctionName + "." + VD->Name,
                         LocationKind::Local, isArrayDecl(VD));
    bindLocal(VD->Name, Loc);
  } else {
    // Globals: tentative definitions and extern declarations of the same
    // name share one location.
    const uint32_t Index = bindingOf(VD->Name);
    Loc = Bindings[Index].Global;
    if (Loc == NotFound) {
      Loc = createLocation(VD->Name, LocationKind::Global, isArrayDecl(VD));
      Bindings[Index].Global = Loc;
    }
  }
  if (VD->Init)
    walkInitInto(Loc, VD->Init);
}

template <typename Rules>
void LocationWalker<Rules>::walkInitInto(LocationId Target,
                                         const minic::Expr *Init) {
  if (const auto *List = minic::dyn_cast<minic::InitListExpr>(Init)) {
    for (const minic::Expr *Element : List->Inits)
      walkInitInto(Target, Element);
    return;
  }
  rules().initialize(Target, Init);
}

template <typename Rules>
void LocationWalker<Rules>::walkStmt(const minic::Stmt *S) {
  using namespace minic;
  if (!S)
    return;
  switch (S->kind()) {
  case Node::Kind::Compound: {
    pushScope();
    for (const Stmt *Sub : cast<CompoundStmt>(S)->Body)
      walkStmt(Sub);
    popScope();
    return;
  }
  case Node::Kind::DeclStmt:
    for (const VarDecl *VD : cast<DeclStmt>(S)->Decls)
      walkVarDecl(VD, /*IsLocal=*/inLocalScope());
    return;
  case Node::Kind::ExprStmt:
    rules().walkExpr(cast<ExprStmt>(S)->E);
    return;
  case Node::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    rules().walkExpr(If->Cond);
    walkStmt(If->Then);
    walkStmt(If->Else);
    return;
  }
  case Node::Kind::While: {
    const auto *While = cast<WhileStmt>(S);
    rules().walkExpr(While->Cond);
    walkStmt(While->Body);
    return;
  }
  case Node::Kind::Do: {
    const auto *Do = cast<DoStmt>(S);
    walkStmt(Do->Body);
    rules().walkExpr(Do->Cond);
    return;
  }
  case Node::Kind::For: {
    const auto *For = cast<ForStmt>(S);
    pushScope();
    walkStmt(For->Init);
    if (For->Cond)
      rules().walkExpr(For->Cond);
    if (For->Inc)
      rules().walkExpr(For->Inc);
    walkStmt(For->Body);
    popScope();
    return;
  }
  case Node::Kind::Return: {
    const auto *Return = cast<ReturnStmt>(S);
    assert(CurrentFunction != NotFound && "return outside a function!");
    if (Return->Value)
      rules().returnValue(CurrentFunction, Return->Value);
    return;
  }
  case Node::Kind::Switch: {
    const auto *Switch = cast<SwitchStmt>(S);
    rules().walkExpr(Switch->Cond);
    walkStmt(Switch->Body);
    return;
  }
  case Node::Kind::Case: {
    const auto *Case = cast<CaseStmt>(S);
    if (Case->Value)
      rules().walkExpr(Case->Value);
    walkStmt(Case->Sub);
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

template <typename Rules>
void LocationWalker<Rules>::run(const minic::TranslationUnit &Unit) {
  using namespace minic;
  for (const Decl *D : Unit.Decls) {
    switch (D->kind()) {
    case Node::Kind::Var:
      walkVarDecl(cast<VarDecl>(D), /*IsLocal=*/false);
      break;
    case Node::Kind::Function: {
      const auto *FD = cast<FunctionDecl>(D);
      declareFunction(FD);
      if (FD->Body)
        walkFunctionBody(FD);
      break;
    }
    case Node::Kind::Record:
    case Node::Kind::Typedef:
    case Node::Kind::Enum:
      break; // Types name no locations.
    default:
      poce_unreachable("non-declaration node at top level");
    }
  }
}

} // namespace andersen
} // namespace poce

#endif // POCE_ANDERSEN_LOCATIONMODEL_H
