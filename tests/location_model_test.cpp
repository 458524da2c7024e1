//===- tests/location_model_test.cpp - One location model, two analyses ---===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Andersen's generator and Steensgaard's unification walk programs
/// through one location model. These tests pin what that sharing must
/// keep: Steensgaard's answers and counters, and both analyses naming the
/// same locations. They cover the programs GenerationGoldenTest covers.
/// The recorded Steensgaard values were taken from the implementation that
/// still kept its own copy of the location model.
///
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"
#include "andersen/Steensgaard.h"
#include "workload/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string_view>

using namespace poce;
using namespace poce::andersen;

#ifndef POCE_SOURCE_DIR
#define POCE_SOURCE_DIR "."
#endif

namespace {

/// FNV-1a over little-endian 32-bit words and length-prefixed strings.
struct Fnv1a {
  uint64_t Hash = 14695981039346656037ULL;

  void byte(uint8_t B) { Hash = (Hash ^ B) * 1099511628211ULL; }
  void u32(uint32_t V) {
    for (unsigned Shift = 0; Shift != 32; Shift += 8)
      byte(static_cast<uint8_t>(V >> Shift));
  }
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    for (char C : S)
      byte(static_cast<uint8_t>(C));
  }
};

/// Folds every location's name, then its targets, in map order.
uint64_t pointsToChecksum(
    const std::map<std::string, std::vector<std::string>> &PointsTo) {
  Fnv1a H;
  H.u32(static_cast<uint32_t>(PointsTo.size()));
  for (const auto &[Name, Targets] : PointsTo) {
    H.str(Name);
    H.u32(static_cast<uint32_t>(Targets.size()));
    for (const std::string &Target : Targets)
      H.str(Target);
  }
  return H.Hash;
}

struct SteensgaardGolden {
  const char *Name;
  uint64_t Checksum;
  uint32_t NumLocations;
  uint32_t NumCells;
  uint64_t Joins;
};

void expectGolden(const minic::TranslationUnit &Unit,
                  const SteensgaardGolden &G) {
  SteensgaardResult Steens = runSteensgaard(Unit);
  EXPECT_EQ(pointsToChecksum(Steens.PointsTo), G.Checksum);
  EXPECT_EQ(Steens.NumLocations, G.NumLocations);
  EXPECT_EQ(Steens.NumCells, G.NumCells);
  EXPECT_EQ(Steens.Joins, G.Joins);
}

/// Steensgaard's location names are exactly the Andersen generator's.
void expectSameLocations(const minic::TranslationUnit &Unit) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms,
                          makeConfig(GraphForm::Inductive, CycleElim::Online));
  ConstraintGenerator Generator(Solver);
  Generator.run(Unit);
  std::vector<std::string> AndersenNames;
  for (const Location &Loc : Generator.locations())
    AndersenNames.push_back(Loc.Name);
  std::sort(AndersenNames.begin(), AndersenNames.end());

  SteensgaardResult Steens = runSteensgaard(Unit);
  std::vector<std::string> SteensgaardNames;
  for (const auto &Entry : Steens.PointsTo)
    SteensgaardNames.push_back(Entry.first);
  EXPECT_EQ(Steens.NumLocations, AndersenNames.size());
  EXPECT_EQ(SteensgaardNames, AndersenNames);
}

std::unique_ptr<minic::TranslationUnit> parseCorpusFile(const char *Name) {
  std::ifstream In(std::string(POCE_SOURCE_DIR) + "/examples/data/" + Name);
  EXPECT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  auto Unit = std::make_unique<minic::TranslationUnit>();
  EXPECT_TRUE(parseSource(Buffer.str(), *Unit, nullptr, Name));
  return Unit;
}

std::unique_ptr<workload::PreparedProgram> prepareSuiteProgram(
    const std::vector<workload::ProgramSpec> &Specs, const char *Name) {
  auto Spec = std::find_if(
      Specs.begin(), Specs.end(),
      [&](const workload::ProgramSpec &S) { return S.Name == Name; });
  EXPECT_NE(Spec, Specs.end());
  if (Spec == Specs.end())
    return nullptr;
  std::unique_ptr<workload::PreparedProgram> Program =
      workload::prepareProgram(*Spec);
  EXPECT_TRUE(Program->Ok);
  return Program;
}

const char *const CorpusFiles[] = {"list.c", "events.c", "calc.c",
                                   "strings.c"};
const char *const SuitePrograms[] = {"gawk-3.0.3", "povray-2.2"};

TEST(SteensgaardGoldenTest, CorpusMatchesRecordedResults) {
  const SteensgaardGolden Goldens[] = {
      {"list.c", 587916656698332218ULL, 29, 65, 27},
      {"events.c", 7583389996207123883ULL, 22, 49, 25},
      {"calc.c", 12473215121159818346ULL, 33, 82, 37},
      {"strings.c", 6683947104618131811ULL, 17, 37, 16},
  };
  for (const SteensgaardGolden &G : Goldens) {
    SCOPED_TRACE(G.Name);
    expectGolden(*parseCorpusFile(G.Name), G);
  }
}

TEST(SteensgaardGoldenTest, SuiteMatchesRecordedResults) {
  const SteensgaardGolden Goldens[] = {
      {"gawk-3.0.3", 4115113198467107002ULL, 398, 1003, 435},
      {"povray-2.2", 9870565476917747717ULL, 481, 1266, 542},
  };
  const std::vector<workload::ProgramSpec> Specs = workload::paperSuite(0.05);
  for (const SteensgaardGolden &G : Goldens) {
    SCOPED_TRACE(G.Name);
    std::unique_ptr<workload::PreparedProgram> Program =
        prepareSuiteProgram(Specs, G.Name);
    ASSERT_TRUE(Program && Program->Ok);
    expectGolden(Program->Unit, G);
  }
}

TEST(LocationModelTest, BothAnalysesNameTheSameLocations) {
  for (const char *Name : CorpusFiles) {
    SCOPED_TRACE(Name);
    expectSameLocations(*parseCorpusFile(Name));
  }
  const std::vector<workload::ProgramSpec> Specs = workload::paperSuite(0.05);
  for (const char *Name : SuitePrograms) {
    SCOPED_TRACE(Name);
    std::unique_ptr<workload::PreparedProgram> Program =
        prepareSuiteProgram(Specs, Name);
    ASSERT_TRUE(Program && Program->Ok);
    expectSameLocations(Program->Unit);
  }
}

} // namespace
