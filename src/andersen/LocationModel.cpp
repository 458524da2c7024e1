//===- andersen/LocationModel.cpp - MiniC abstract locations --------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "andersen/LocationModel.h"

#include <algorithm>
#include <numeric>

using namespace poce;
using namespace poce::andersen;

LocationId LocationModel::addLocation(std::string Name, LocationKind Kind,
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
  Loc.Name = std::move(Name);
  Loc.Kind = Kind;
  Loc.IsArray = IsArray;
  return Id;
}

uint32_t LocationModel::bindingOf(const std::string &Name) {
  const uint32_t NewIndex = static_cast<uint32_t>(Bindings.size());
  const uint32_t Index = IdentIndex.findOrInsert(
      stringTag(Name), NewIndex,
      [&](uint32_t Known) { return Bindings[Known].Name == Name; });
  if (Index == NewIndex)
    Bindings.push_back({Name});
  return Index;
}

void LocationModel::bindLocal(const std::string &Name, LocationId Loc) {
  assert(inLocalScope() && "local binding outside any scope!");
  const uint32_t Index = bindingOf(Name);
  ScopeLog.push_back({Index, Bindings[Index].Local});
  Bindings[Index].Local = Loc;
}

void LocationModel::pushScope() { ScopeMarks.push_back(ScopeLog.size()); }

void LocationModel::popScope() {
  assert(inLocalScope() && "scope underflow!");
  // Undo this scope's bindings newest first, so a name bound twice in it
  // gets back the binding from before the scope.
  for (size_t I = ScopeLog.size(); I != ScopeMarks.back(); --I)
    Bindings[ScopeLog[I - 1].Binding].Local = ScopeLog[I - 1].Previous;
  ScopeLog.resize(ScopeMarks.back());
  ScopeMarks.pop_back();
}

bool LocationModel::callsAllocator(const minic::CallExpr *Call) const {
  const auto *Ident = minic::dyn_cast<minic::IdentExpr>(Call->Callee);
  if (!Ident)
    return false;
  const std::string &Name = Ident->Name;
  if (Name != "malloc" && Name != "calloc" && Name != "realloc" &&
      Name != "valloc" && Name != "xmalloc" && Name != "strdup")
    return false;
  const uint32_t Index = IdentIndex.find(stringTag(Name), [&](uint32_t Known) {
    return Bindings[Known].Name == Name;
  });
  return Index == IdIndex::NotFound ||
         Bindings[Index].Function == NotFound ||
         !Functions[Bindings[Index].Function].HasBody;
}

std::map<std::string, std::vector<std::string>> poce::andersen::extractPointsTo(
    const std::vector<Location> &Locations,
    const std::function<void(LocationId, std::vector<LocationId> &)>
        &TargetsOf) {
  // Rank every location by name once. Target sets then sort as ranks,
  // without comparing strings, and the map fills in key order.
  std::vector<LocationId> ByName(Locations.size());
  std::iota(ByName.begin(), ByName.end(), 0);
  std::sort(ByName.begin(), ByName.end(), [&](LocationId A, LocationId B) {
    return Locations[A].Name < Locations[B].Name;
  });
  std::vector<uint32_t> Rank(Locations.size());
  for (uint32_t I = 0; I != ByName.size(); ++I)
    Rank[ByName[I]] = I;

  std::map<std::string, std::vector<std::string>> PointsTo;
  std::vector<LocationId> Targets;
  for (LocationId Loc : ByName) {
    Targets.clear();
    TargetsOf(Loc, Targets);
    for (LocationId &Target : Targets)
      Target = Rank[Target];
    std::sort(Targets.begin(), Targets.end());
    Targets.erase(std::unique(Targets.begin(), Targets.end()), Targets.end());
    std::vector<std::string> Names;
    Names.reserve(Targets.size());
    for (uint32_t TargetRank : Targets)
      Names.push_back(Locations[ByName[TargetRank]].Name);
    PointsTo.emplace_hint(PointsTo.end(), Locations[Loc].Name,
                          std::move(Names));
  }
  return PointsTo;
}
