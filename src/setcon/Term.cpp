//===- setcon/Term.cpp - Hash-consed set expressions ----------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "setcon/Term.h"

#include "support/DenseU64Set.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>

using namespace poce;

TermTable::TermTable(ConstructorTable &Constructors)
    : Constructors(Constructors) {
  // Ids 0 and 1 are the constants Zero and One.
  ExprId ZeroId = allocate(ExprKind::Zero, 0, 0, 0);
  ExprId OneId = allocate(ExprKind::One, 0, 0, 0);
  assert(ZeroId == 0 && OneId == 1 && "constant ids out of place!");
  (void)ZeroId;
  (void)OneId;
}

ExprId TermTable::allocate(ExprKind Kind, uint32_t Payload, uint32_t ArgsBegin,
                           uint32_t NumArgs) {
  ExprId Id = static_cast<ExprId>(Kinds.size());
  Kinds.push_back(Kind);
  Payloads.push_back(Payload);
  ArgSlices.push_back({ArgsBegin, NumArgs});
  return Id;
}

ExprId TermTable::var(VarId Var) {
  if (Var < VarExprs.size() && VarExprs[Var] != 0)
    return VarExprs[Var];
  if (Var >= VarExprs.size())
    VarExprs.resize(Var + 1, 0);
  ExprId Id = allocate(ExprKind::Var, Var, 0, 0);
  VarExprs[Var] = Id;
  return Id;
}

ExprId TermTable::cons(ConsId Cons, const SmallVectorImpl<ExprId> &Args) {
  return internCons(Cons, Args.data(), Args.size());
}

ExprId TermTable::cons(ConsId Cons, std::initializer_list<ExprId> Args) {
  return internCons(Cons, Args.begin(), Args.size());
}

ExprId TermTable::internCons(ConsId Cons, const ExprId *Args,
                             size_t NumArgs) {
  assert(NumArgs == Constructors.signature(Cons).arity() &&
         "constructor applied with wrong arity!");

  uint64_t Hash = denseU64Hash(0x636f6e73ULL ^ Cons);
  for (size_t I = 0; I != NumArgs; ++I)
    Hash = denseU64Hash(Hash ^ Args[I]);
  const uint32_t Tag = static_cast<uint32_t>(Hash ^ (Hash >> 32));

  const ExprId NewId = size();
  ExprId Id = ConsIndex.findOrInsert(Tag, NewId, [&](ExprId Candidate) {
    return Payloads[Candidate] == Cons &&
           ArgSlices[Candidate].second == NumArgs &&
           std::equal(Args, Args + NumArgs,
                      ArgPool.data() + ArgSlices[Candidate].first);
  });
  if (Id == NewId) {
    uint32_t Begin = static_cast<uint32_t>(ArgPool.size());
    ArgPool.insert(ArgPool.end(), Args, Args + NumArgs);
    allocate(ExprKind::Cons, Cons, Begin, static_cast<uint32_t>(NumArgs));
  }
  return Id;
}

std::string
TermTable::str(ExprId Id,
               const std::function<std::string(VarId)> &VarName) const {
  switch (kind(Id)) {
  case ExprKind::Zero:
    return "0";
  case ExprKind::One:
    return "1";
  case ExprKind::Var:
    return VarName ? VarName(varOf(Id)) : "X" + std::to_string(varOf(Id));
  case ExprKind::Cons: {
    const ConstructorSignature &Sig = Constructors.signature(consOf(Id));
    std::string Out = Sig.Name;
    if (!Sig.arity())
      return Out;
    Out += "(";
    const ExprId *Args = argsOf(Id);
    for (unsigned I = 0; I != numArgs(Id); ++I) {
      if (I)
        Out += ", ";
      if (Sig.ArgVariance[I] == Variance::Contravariant)
        Out += "~";
      Out += str(Args[I], VarName);
    }
    Out += ")";
    return Out;
  }
  }
  poce_unreachable("invalid expression kind");
}
