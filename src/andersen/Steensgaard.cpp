//===- andersen/Steensgaard.cpp - Unification-based points-to --------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "andersen/Steensgaard.h"

#include "andersen/LocationModel.h"
#include "support/ErrorHandling.h"
#include "support/Timer.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <unordered_map>

using namespace poce;
using namespace poce::andersen;
using namespace poce::minic;

namespace {

/// Sentinel for "no cell" (literals and other valueless expressions).
constexpr uint32_t NoCell = ~0U;

/// The unification engine and its rules for the location walker, which
/// hands it the same locations it hands the Andersen generator.
class Steensgaard : public LocationWalker<Steensgaard> {
public:
  uint32_t numCells() const { return Cells.size(); }
  uint64_t joins() const { return Joins; }

  /// The targets of every location, for extractPointsTo(): the named
  /// members of its pointee class.
  std::function<void(LocationId, std::vector<LocationId> &)> targets() {
    // Class representative -> named members.
    std::unordered_map<uint32_t, std::vector<LocationId>> Members;
    for (LocationId Loc = 0; Loc != Locations.size(); ++Loc)
      Members[find(CellOf[Loc])].push_back(Loc);
    return [this, Members = std::move(Members)](
               LocationId Loc, std::vector<LocationId> &Targets) {
      auto PtsIt = Pts.find(find(CellOf[Loc]));
      if (PtsIt == Pts.end())
        return;
      auto MembersIt = Members.find(find(PtsIt->second));
      if (MembersIt != Members.end())
        Targets.insert(Targets.end(), MembersIt->second.begin(),
                       MembersIt->second.end());
    };
  }

private:
  //===--------------------------------------------------------------------===
  // Cells and unification
  //===--------------------------------------------------------------------===

  struct Signature {
    std::vector<uint32_t> Params; ///< Parameter location cells.
    uint32_t Return;              ///< Return-slot location cell.
  };

  uint32_t makeCell() { return Cells.makeSet(); }
  uint32_t find(uint32_t Cell) { return Cells.find(Cell); }

  /// The pointee class of \p Cell, created on demand.
  uint32_t ptsOf(uint32_t Cell) {
    uint32_t Root = find(Cell);
    auto It = Pts.find(Root);
    if (It == Pts.end())
      It = Pts.emplace(Root, makeCell()).first;
    return find(It->second);
  }

  /// Makes \p Cell point to \p Target's class (unifying with any existing
  /// pointee).
  void setPts(uint32_t Cell, uint32_t Target) {
    uint32_t Root = find(Cell);
    auto It = Pts.find(Root);
    if (It == Pts.end())
      Pts.emplace(Root, Target);
    else
      unify(It->second, Target);
  }

  /// The assignment rule: contents of \p Rhs flow into \p Lhs, which in
  /// unification terms equates the two pointee classes.
  void joinPts(uint32_t Lhs, uint32_t Rhs) {
    if (Lhs == NoCell || Rhs == NoCell)
      return;
    unify(ptsOf(Lhs), ptsOf(Rhs));
  }

  /// Unifies two classes, recursively merging pointees and signatures
  /// (iterative worklist: recursive types such as self-containing arrays
  /// are common).
  void unify(uint32_t A, uint32_t B) {
    std::vector<std::pair<uint32_t, uint32_t>> Pending = {{A, B}};
    while (!Pending.empty()) {
      auto [X, Y] = Pending.back();
      Pending.pop_back();
      uint32_t RootX = find(X), RootY = find(Y);
      if (RootX == RootY)
        continue;
      ++Joins;

      // RootX survives.
      uint32_t PtsY = takeEntry(Pts, RootY);
      Cells.unite(RootY, RootX);
      if (PtsY != NoCell) {
        auto It = Pts.find(RootX);
        if (It == Pts.end())
          Pts.emplace(RootX, PtsY);
        else
          Pending.push_back({It->second, PtsY});
      }

      auto SigY = Sigs.find(RootY);
      if (SigY != Sigs.end()) {
        Signature Moved = std::move(SigY->second);
        Sigs.erase(SigY);
        auto SigX = Sigs.find(RootX);
        if (SigX == Sigs.end()) {
          Sigs.emplace(RootX, std::move(Moved));
        } else {
          // Structural unification of function types: corresponding
          // parameter and return locations merge.
          size_t Shared =
              std::min(SigX->second.Params.size(), Moved.Params.size());
          for (size_t I = 0; I != Shared; ++I)
            Pending.push_back({SigX->second.Params[I], Moved.Params[I]});
          Pending.push_back({SigX->second.Return, Moved.Return});
        }
      }
    }
  }

  uint32_t takeEntry(std::unordered_map<uint32_t, uint32_t> &Map,
                     uint32_t Key) {
    auto It = Map.find(Key);
    if (It == Map.end())
      return NoCell;
    uint32_t Value = It->second;
    Map.erase(It);
    return Value;
  }

  //===--------------------------------------------------------------------===
  // Rules the location walker applies
  //===--------------------------------------------------------------------===
  friend class LocationWalker<Steensgaard>;

  /// A location is a cell; arrays and string literals decay to
  /// themselves.
  void locationCreated(LocationId Loc) {
    const uint32_t Cell = makeCell();
    CellOf.push_back(Cell);
    if (Locations[Loc].IsArray)
      setPts(Cell, Cell);
  }

  void functionLocated(uint32_t) {}

  /// A function contains itself and carries its signature.
  void functionDeclared(uint32_t Function) {
    const FunctionInfo &Info = Functions[Function];
    const uint32_t Loc = CellOf[Info.Loc];
    Signature Sig;
    for (LocationId Param : Info.Params)
      Sig.Params.push_back(CellOf[Param]);
    Sig.Return = makeCell();
    ReturnOf.push_back(Sig.Return);
    setPts(Loc, Loc);
    Sigs.emplace(find(Loc), std::move(Sig));
  }

  void initialize(LocationId Target, const Expr *Init) {
    uint32_t Value = walkExpr(Init);
    if (Value != NoCell)
      joinPts(CellOf[Target], Value);
  }

  void returnValue(uint32_t Function, const Expr *Value) {
    uint32_t Returned = walkExpr(Value);
    if (Returned != NoCell)
      joinPts(ReturnOf[Function], Returned);
  }

  //===--------------------------------------------------------------------===
  // Expressions (return the expression's location cell, NoCell if none)
  //===--------------------------------------------------------------------===

  uint32_t walkExpr(const Expr *E) {
    switch (E->kind()) {
    case Node::Kind::IntLiteral:
    case Node::Kind::FloatLiteral:
    case Node::Kind::CharLiteral:
      return NoCell;
    case Node::Kind::StringLiteral:
      return CellOf[stringLocation(cast<StringLiteralExpr>(E))];
    case Node::Kind::Ident:
      return CellOf[identLocation(cast<IdentExpr>(E)->Name)];
    case Node::Kind::Unary: {
      const auto *Unary = cast<UnaryExpr>(E);
      switch (Unary->Op) {
      case UnaryOp::AddressOf: {
        uint32_t Sub = walkExpr(Unary->Sub);
        if (Sub == NoCell)
          return NoCell;
        uint32_t Wrapper = makeCell();
        setPts(Wrapper, Sub);
        return Wrapper;
      }
      case UnaryOp::Deref: {
        uint32_t Sub = walkExpr(Unary->Sub);
        return Sub == NoCell ? NoCell : ptsOf(Sub);
      }
      default:
        return walkExpr(Unary->Sub);
      }
    }
    case Node::Kind::Binary: {
      const auto *Binary = cast<BinaryExpr>(E);
      return mergeValues(walkExpr(Binary->Lhs), walkExpr(Binary->Rhs));
    }
    case Node::Kind::Assign: {
      const auto *Assign = cast<AssignExpr>(E);
      uint32_t Lhs = walkExpr(Assign->Lhs);
      uint32_t Rhs = walkExpr(Assign->Rhs);
      if (Lhs != NoCell && Rhs != NoCell)
        joinPts(Lhs, Rhs);
      return Lhs;
    }
    case Node::Kind::Conditional: {
      const auto *Cond = cast<ConditionalExpr>(E);
      walkExpr(Cond->Cond);
      return mergeValues(walkExpr(Cond->TrueExpr),
                         walkExpr(Cond->FalseExpr));
    }
    case Node::Kind::Call:
      return walkCall(cast<CallExpr>(E));
    case Node::Kind::Index: {
      const auto *Index = cast<IndexExpr>(E);
      uint32_t Sum =
          mergeValues(walkExpr(Index->Base), walkExpr(Index->Index));
      return Sum == NoCell ? NoCell : ptsOf(Sum);
    }
    case Node::Kind::Member: {
      const auto *Member = cast<MemberExpr>(E);
      uint32_t Base = walkExpr(Member->Base);
      if (!Member->IsArrow)
        return Base;
      return Base == NoCell ? NoCell : ptsOf(Base);
    }
    case Node::Kind::Cast:
      return walkExpr(cast<CastExpr>(E)->Sub);
    case Node::Kind::Sizeof:
      if (cast<SizeofExpr>(E)->Sub)
        walkExpr(cast<SizeofExpr>(E)->Sub);
      return NoCell;
    case Node::Kind::Comma: {
      const auto *Comma = cast<CommaExpr>(E);
      walkExpr(Comma->Lhs);
      return walkExpr(Comma->Rhs);
    }
    case Node::Kind::InitList:
      for (const Expr *Init : cast<InitListExpr>(E)->Inits)
        walkExpr(Init);
      return NoCell;
    default:
      poce_unreachable("non-expression node in expression position");
    }
  }

  /// A value that may designate either operand's targets: a fresh cell
  /// whose pointee merges both pointees (Steensgaard's symmetric
  /// conflation of arithmetic and conditionals).
  uint32_t mergeValues(uint32_t A, uint32_t B) {
    if (A == NoCell)
      return B;
    if (B == NoCell)
      return A;
    uint32_t Merged = makeCell();
    joinPts(Merged, A);
    joinPts(Merged, B);
    return Merged;
  }

  uint32_t walkCall(const CallExpr *Call) {
    const LocationId Heap = allocationSite(Call);
    if (Heap != NotFound) {
      uint32_t Wrapper = makeCell();
      setPts(Wrapper, CellOf[Heap]);
      return Wrapper;
    }

    uint32_t Callee = walkExpr(Call->Callee);
    std::vector<uint32_t> Args;
    for (const Expr *Arg : Call->Args)
      Args.push_back(walkExpr(Arg));
    if (Callee == NoCell)
      return NoCell;

    // The callee's values live in its pointee class (functions contain
    // themselves, so this resolves f, fp, and (*fp) uniformly).
    uint32_t Target = ptsOf(Callee);
    auto SigIt = Sigs.find(find(Target));
    if (SigIt == Sigs.end()) {
      // Unknown target (external or not-yet-joined): attach a lazy
      // signature so later unifications connect the call site.
      Signature Lazy;
      for (size_t I = 0; I != Args.size(); ++I)
        Lazy.Params.push_back(makeCell());
      Lazy.Return = makeCell();
      SigIt = Sigs.emplace(find(Target), std::move(Lazy)).first;
    }
    // Copy out: unify() may rehash Sigs while joining parameters.
    Signature Sig = SigIt->second;
    size_t Shared = std::min(Sig.Params.size(), Args.size());
    for (size_t I = 0; I != Shared; ++I)
      if (Args[I] != NoCell)
        joinPts(Sig.Params[I], Args[I]);
    return Sig.Return;
  }

  UnionFind Cells;
  std::unordered_map<uint32_t, uint32_t> Pts;  ///< Root -> pointee cell.
  std::unordered_map<uint32_t, Signature> Sigs; ///< Root -> signature.
  uint64_t Joins = 0;

  std::vector<uint32_t> CellOf;   ///< Location -> its cell.
  std::vector<uint32_t> ReturnOf; ///< Function -> its return-slot cell.
};

} // namespace

SteensgaardResult
poce::andersen::runSteensgaard(const TranslationUnit &Unit) {
  SteensgaardResult Result;
  Timer T;
  Steensgaard Analysis;
  Analysis.run(Unit);
  Result.AnalysisSeconds = T.seconds();
  Result.NumLocations = static_cast<uint32_t>(Analysis.locations().size());
  Result.NumCells = Analysis.numCells();
  Result.Joins = Analysis.joins();
  Result.PointsTo = extractPointsTo(Analysis.locations(), Analysis.targets());
  return Result;
}
