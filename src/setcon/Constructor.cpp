//===- setcon/Constructor.cpp - Constructor signatures --------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "setcon/Constructor.h"

#include "support/ErrorHandling.h"

#include <cassert>

using namespace poce;

ConsId ConstructorTable::getOrCreate(
    std::string_view Name, const SmallVectorImpl<Variance> &ArgVariance) {
  const ConsId NewId = static_cast<ConsId>(Signatures.size());
  const ConsId Id =
      NameIndex.findOrInsert(stringTag(Name), NewId, [&](ConsId Known) {
        return Signatures[Known].Name == Name;
      });
  if (Id != NewId) {
    if (Signatures[Id].ArgVariance != ArgVariance)
      reportFatalError("constructor '" + std::string(Name) +
                       "' re-registered with a different signature");
    return Id;
  }
  ConstructorSignature &Sig = Signatures.emplace_back();
  Sig.Name = Name;
  Sig.ArgVariance = ArgVariance;
  return Id;
}

ConsId ConstructorTable::getOrCreate(
    std::string_view Name, std::initializer_list<Variance> ArgVariance) {
  SmallVector<Variance, 4> Variances;
  Variances.append(ArgVariance.begin(), ArgVariance.end());
  return getOrCreate(Name, Variances);
}

ConsId ConstructorTable::lookup(std::string_view Name) const {
  const ConsId Id = NameIndex.find(stringTag(Name), [&](ConsId Known) {
    return Signatures[Known].Name == Name;
  });
  return Id == IdIndex::NotFound ? NotFound : Id;
}

const ConstructorSignature &ConstructorTable::signature(ConsId Id) const {
  assert(Id < Signatures.size() && "constructor id out of range!");
  return Signatures[Id];
}
