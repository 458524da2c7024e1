//===- setcon/Term.h - Hash-consed set expressions --------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set expressions of the constraint language (Section 2.1):
///
///   L, R ::= X | c(se_1, ..., se_n) | 0 | 1
///
/// Expressions are hash-consed into dense 32-bit ids by the TermTable, so
/// structural equality is id equality and adjacency lists can store plain
/// integers. Ids 0 and 1 are always the constants Zero and One.
///
/// The hash-cons index is an IdIndex: one flat array of (hash tag, id)
/// slots, so a new term allocates no node of its own, only its entries in
/// the pools.
/// The index only finds ids, it never assigns them: an id is the term's
/// position in the pools, so ids follow first-construction order however
/// the index grows.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SETCON_TERM_H
#define POCE_SETCON_TERM_H

#include "setcon/Constructor.h"
#include "support/IdIndex.h"
#include "support/SmallVector.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace poce {

/// Dense id of a set variable within one solver instance.
using VarId = uint32_t;

/// Dense id of a hash-consed set expression.
using ExprId = uint32_t;

/// Kind of a set expression node.
enum class ExprKind : uint8_t {
  Zero, ///< The empty set 0.
  One,  ///< The universal set 1.
  Var,  ///< A set variable.
  Cons, ///< A constructed term c(se_1, ..., se_n).
};

/// Hash-consing table for set expressions. Owns the expression pool; ids
/// are assigned in first-construction order, so deterministic input yields
/// deterministic ids.
class TermTable {
public:
  explicit TermTable(ConstructorTable &Constructors);

  /// The constant 0 (always id 0).
  ExprId zero() const { return 0; }
  /// The constant 1 (always id 1).
  ExprId one() const { return 1; }

  /// Returns the expression denoting variable \p Var.
  ExprId var(VarId Var);

  /// Returns the expression c(Args...). Arity must match the constructor's
  /// signature.
  ExprId cons(ConsId Cons, const SmallVectorImpl<ExprId> &Args);

  /// Convenience overload for literal argument lists.
  ExprId cons(ConsId Cons, std::initializer_list<ExprId> Args);

  ExprKind kind(ExprId Id) const { return Kinds[Id]; }
  bool isConstructed(ExprId Id) const {
    ExprKind K = kind(Id);
    return K == ExprKind::Cons || K == ExprKind::Zero || K == ExprKind::One;
  }

  // The accessors below are defined here so the solver's resolution loop,
  // which calls them for every constraint it resolves, inlines them.

  /// Variable of a Var expression.
  VarId varOf(ExprId Id) const {
    assert(kind(Id) == ExprKind::Var && "varOf() on non-variable expression!");
    return Payloads[Id];
  }

  /// Constructor of a Cons expression.
  ConsId consOf(ExprId Id) const {
    assert(kind(Id) == ExprKind::Cons && "consOf() on non-constructed term!");
    return Payloads[Id];
  }

  /// Arguments of a Cons expression.
  const ExprId *argsOf(ExprId Id) const {
    assert(kind(Id) == ExprKind::Cons && "argsOf() on non-constructed term!");
    return ArgPool.data() + ArgSlices[Id].first;
  }
  unsigned numArgs(ExprId Id) const {
    assert(kind(Id) == ExprKind::Cons && "numArgs() on non-constructed term!");
    return ArgSlices[Id].second;
  }

  /// Renders \p Id for diagnostics, using \p VarName to label variables.
  std::string str(ExprId Id,
                  const std::function<std::string(VarId)> &VarName) const;

  uint32_t size() const { return static_cast<uint32_t>(Kinds.size()); }

  const ConstructorTable &constructors() const { return Constructors; }

  /// Mutable access for clients that register constructors while
  /// generating constraints (e.g. per-location name constructors).
  ConstructorTable &mutableConstructors() { return Constructors; }

private:
  ExprId allocate(ExprKind Kind, uint32_t Payload, uint32_t ArgsBegin,
                  uint32_t NumArgs);

  /// Hash-conses c(Args[0..NumArgs)).
  ExprId internCons(ConsId Cons, const ExprId *Args, size_t NumArgs);

  ConstructorTable &Constructors;

  std::vector<ExprKind> Kinds;
  /// VarId for Var nodes, ConsId for Cons nodes, unused otherwise.
  std::vector<uint32_t> Payloads;
  /// (offset, count) into ArgPool for Cons nodes.
  std::vector<std::pair<uint32_t, uint32_t>> ArgSlices;
  std::vector<ExprId> ArgPool;

  /// Var -> ExprId cache.
  std::vector<ExprId> VarExprs;
  /// Cons terms by structural hash (a full comparison confirms a match).
  IdIndex ConsIndex;
};

} // namespace poce

#endif // POCE_SETCON_TERM_H
