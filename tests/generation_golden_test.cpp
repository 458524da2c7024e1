//===- tests/generation_golden_test.cpp - Constraint generation goldens ---===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins every id that constraint generation hands out. One FNV-1a checksum
/// per program folds every term (kind, payload, arguments) in id order,
/// every constructor signature in id order, every set variable's name in
/// creation order, every base root, and every location (name, kind,
/// content variable, ref term). The hash-cons index, the interners and
/// the generator's name tables may change how they find things, but not
/// what they return: snapshots, counter goldens and served answers all key
/// on these ids. The recorded values were taken from the implementation
/// that still kept node-based maps in all of those tables.
///
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"
#include "andersen/ConstraintGen.h"
#include "setcon/ConstraintSolver.h"
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

/// Generates \p Unit's constraints into a fresh solver (IF-Online on the
/// default schedule, so no closure runs during generation) and folds
/// everything generation produced.
uint64_t generationChecksum(const minic::TranslationUnit &Unit) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms,
                          makeConfig(GraphForm::Inductive, CycleElim::Online));
  ConstraintGenerator Generator(Solver);
  Generator.run(Unit);

  Fnv1a H;
  H.u32(Terms.size());
  for (ExprId Id = 0; Id != Terms.size(); ++Id) {
    H.u32(static_cast<uint32_t>(Terms.kind(Id)));
    if (Terms.kind(Id) == ExprKind::Var) {
      H.u32(Terms.varOf(Id));
    } else if (Terms.kind(Id) == ExprKind::Cons) {
      H.u32(Terms.consOf(Id));
      H.u32(Terms.numArgs(Id));
      for (unsigned I = 0; I != Terms.numArgs(Id); ++I)
        H.u32(Terms.argsOf(Id)[I]);
    }
  }

  H.u32(Constructors.size());
  for (ConsId Id = 0; Id != Constructors.size(); ++Id) {
    const ConstructorSignature &Sig = Constructors.signature(Id);
    H.str(Sig.Name);
    H.u32(Sig.arity());
    for (Variance V : Sig.ArgVariance)
      H.u32(static_cast<uint32_t>(V));
  }

  H.u32(Solver.numCreations());
  for (uint32_t I = 0; I != Solver.numCreations(); ++I)
    H.str(Solver.varName(Solver.varOfCreation(I)));

  H.u32(static_cast<uint32_t>(Solver.baseRoots().size()));
  for (const ConstraintSolver::BaseRoot &Root : Solver.baseRoots()) {
    H.u32(Root.L);
    H.u32(Root.R);
    H.str(Root.Tag);
  }

  H.u32(static_cast<uint32_t>(Generator.locations().size()));
  for (const Location &Loc : Generator.locations()) {
    H.str(Loc.Name);
    H.u32(static_cast<uint32_t>(Loc.Kind));
    H.u32(Loc.Content);
    H.u32(Loc.RefTerm);
    H.u32(Loc.IsArray);
  }
  return H.Hash;
}

struct ProgramGolden {
  const char *Name;
  uint64_t Checksum;
};

TEST(GenerationGoldenTest, CorpusIdsMatchRecordedChecksums) {
  const ProgramGolden Goldens[] = {
      {"list.c", 5992654600704477333ULL},
      {"events.c", 1214328534872022534ULL},
      {"calc.c", 2592474466486967185ULL},
      {"strings.c", 14954422373894625304ULL},
  };
  for (const ProgramGolden &G : Goldens) {
    SCOPED_TRACE(G.Name);
    std::ifstream In(std::string(POCE_SOURCE_DIR) + "/examples/data/" +
                     G.Name);
    ASSERT_TRUE(In.good());
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    minic::TranslationUnit Unit;
    ASSERT_TRUE(parseSource(Buffer.str(), Unit, nullptr, G.Name));
    EXPECT_EQ(generationChecksum(Unit), G.Checksum);
  }
}

TEST(GenerationGoldenTest, SuiteIdsMatchRecordedChecksums) {
  const ProgramGolden Goldens[] = {
      {"gawk-3.0.3", 11295667314996387504ULL},
      {"povray-2.2", 17964247351961893882ULL},
  };
  const std::vector<workload::ProgramSpec> Specs = workload::paperSuite(0.05);
  for (const ProgramGolden &G : Goldens) {
    SCOPED_TRACE(G.Name);
    auto Spec = std::find_if(Specs.begin(), Specs.end(),
                             [&](const workload::ProgramSpec &S) {
                               return S.Name == G.Name;
                             });
    ASSERT_NE(Spec, Specs.end());
    std::unique_ptr<workload::PreparedProgram> Program =
        workload::prepareProgram(*Spec);
    ASSERT_TRUE(Program->Ok);
    EXPECT_EQ(generationChecksum(Program->Unit), G.Checksum);
  }
}

} // namespace
