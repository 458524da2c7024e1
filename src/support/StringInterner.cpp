//===- support/StringInterner.cpp - String uniquing -----------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "support/StringInterner.h"

#include <cassert>

using namespace poce;

uint32_t StringInterner::intern(std::string_view Str) {
  const uint32_t NewId = size();
  auto Spells = [&](uint32_t Known) { return Strings[Known] == Str; };
  const uint32_t Id = Index.findOrInsert(stringTag(Str), NewId, Spells);
  if (Id == NewId)
    Strings.emplace_back(Str);
  return Id;
}

uint32_t StringInterner::lookup(std::string_view Str) const {
  auto Spells = [&](uint32_t Known) { return Strings[Known] == Str; };
  const uint32_t Id = Index.find(stringTag(Str), Spells);
  return Id == IdIndex::NotFound ? NotFound : Id;
}

const std::string &StringInterner::str(uint32_t Id) const {
  assert(Id < Strings.size() && "string id out of range!");
  return Strings[Id];
}
