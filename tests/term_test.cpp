//===- tests/term_test.cpp - Constructor/term table unit tests -------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "setcon/Constructor.h"
#include "setcon/Term.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

using namespace poce;

TEST(ConstructorTableTest, RegisterAndLookup) {
  ConstructorTable Table;
  ConsId Ref = Table.getOrCreate(
      "ref", {Variance::Covariant, Variance::Covariant,
              Variance::Contravariant});
  EXPECT_EQ(Table.lookup("ref"), Ref);
  EXPECT_EQ(Table.lookup("nope"), ConstructorTable::NotFound);
  EXPECT_EQ(Table.signature(Ref).arity(), 3u);
  EXPECT_EQ(Table.signature(Ref).ArgVariance[2], Variance::Contravariant);
  EXPECT_EQ(Table.signature(Ref).Name, "ref");
}

TEST(ConstructorTableTest, ReRegisterSameSignatureIsIdempotent) {
  ConstructorTable Table;
  ConsId A = Table.getOrCreate("c", {Variance::Covariant});
  ConsId B = Table.getOrCreate("c", {Variance::Covariant});
  EXPECT_EQ(A, B);
  EXPECT_EQ(Table.size(), 1u);
}

TEST(ConstructorTableTest, NullaryConstructors) {
  ConstructorTable Table;
  ConsId A = Table.getOrCreate("a", {});
  ConsId B = Table.getOrCreate("b", {});
  EXPECT_NE(A, B);
  EXPECT_EQ(Table.signature(A).arity(), 0u);
}

TEST(ConstructorTableTest, LookupNeverRegistersAndIdsFollowFirstSeenOrder) {
  ConstructorTable Table;
  EXPECT_EQ(Table.lookup("ghost"), ConstructorTable::NotFound);
  EXPECT_EQ(Table.size(), 0u);
  ConsId A = Table.getOrCreate("a", {});
  ConsId B = Table.getOrCreate("b", {Variance::Covariant});
  EXPECT_EQ(Table.lookup("ghost"), ConstructorTable::NotFound);
  EXPECT_EQ(Table.size(), 2u);
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  // A view that is a strict prefix of a longer buffer finds the name it
  // spells, not the buffer.
  const std::string Buffer = "ab";
  EXPECT_EQ(Table.lookup(std::string_view(Buffer).substr(0, 1)), A);
  EXPECT_EQ(Table.lookup(Buffer), ConstructorTable::NotFound);
  ConsId Ghost = Table.getOrCreate("ghost", {});
  EXPECT_EQ(Ghost, 2u);
  EXPECT_EQ(Table.getOrCreate("a", {}), A);
  EXPECT_EQ(Table.signature(Ghost).Name, "ghost");
  EXPECT_EQ(Table.size(), 3u);
}

TEST(TermTableTest, ConstantsAreFixedIds) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  EXPECT_EQ(Terms.zero(), 0u);
  EXPECT_EQ(Terms.one(), 1u);
  EXPECT_EQ(Terms.kind(Terms.zero()), ExprKind::Zero);
  EXPECT_EQ(Terms.kind(Terms.one()), ExprKind::One);
}

TEST(TermTableTest, VarExprsAreCached) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ExprId V0 = Terms.var(0);
  ExprId V1 = Terms.var(1);
  EXPECT_NE(V0, V1);
  EXPECT_EQ(Terms.var(0), V0);
  EXPECT_EQ(Terms.kind(V0), ExprKind::Var);
  EXPECT_EQ(Terms.varOf(V1), 1u);
}

TEST(TermTableTest, HashConsing) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConsId C = Constructors.getOrCreate(
      "c", {Variance::Covariant, Variance::Covariant});
  ExprId V0 = Terms.var(0);
  ExprId V1 = Terms.var(1);
  ExprId A = Terms.cons(C, {V0, V1});
  ExprId B = Terms.cons(C, {V0, V1});
  ExprId D = Terms.cons(C, {V1, V0});
  EXPECT_EQ(A, B);
  EXPECT_NE(A, D);
  EXPECT_EQ(Terms.consOf(A), C);
  EXPECT_EQ(Terms.numArgs(A), 2u);
  EXPECT_EQ(Terms.argsOf(A)[0], V0);
  EXPECT_EQ(Terms.argsOf(A)[1], V1);
}

TEST(TermTableTest, NestedTermsAndDifferentConstructors) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConsId C = Constructors.getOrCreate("c", {Variance::Covariant});
  ConsId D = Constructors.getOrCreate("d", {Variance::Covariant});
  ExprId Inner = Terms.cons(C, {Terms.zero()});
  ExprId OuterC = Terms.cons(C, {Inner});
  ExprId OuterD = Terms.cons(D, {Inner});
  EXPECT_NE(OuterC, OuterD);
  EXPECT_EQ(Terms.cons(C, {Inner}), OuterC);
  EXPECT_TRUE(Terms.isConstructed(OuterC));
  EXPECT_FALSE(Terms.isConstructed(Terms.var(3)));
  EXPECT_TRUE(Terms.isConstructed(Terms.zero()));
}

TEST(TermTableTest, ManyTermsSurviveRehash) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConsId C = Constructors.getOrCreate("c", {Variance::Covariant});
  std::vector<ExprId> Ids;
  for (uint32_t I = 0; I != 2000; ++I)
    Ids.push_back(Terms.cons(C, {Terms.var(I)}));
  for (uint32_t I = 0; I != 2000; ++I)
    EXPECT_EQ(Terms.cons(C, {Terms.var(I)}), Ids[I]);
}

TEST(TermTableTest, IdsAreDenseInFirstConstructionOrderAcrossIndexGrowth) {
  // The shapes constraint generation makes, 105k distinct terms in all,
  // so the hash-cons index grows many times: one nullary "@name"
  // constructor per location, the locations' content variables, binary
  // terms over them, and one deep chain.
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConsId Pair = Constructors.getOrCreate(
      "pair", {Variance::Covariant, Variance::Contravariant});
  ConsId Wrap = Constructors.getOrCreate("wrap", {Variance::Covariant});
  const uint32_t Locations = 20000, Pairs = 60000, Depth = 5000;

  std::vector<ExprId> Made;
  auto expectNew = [&](ExprId Id) {
    // Every new term takes the next id.
    EXPECT_EQ(Id, Made.size() + 2);
    Made.push_back(Id);
  };
  for (uint32_t I = 0; I != Locations; ++I)
    expectNew(Terms.cons(
        Constructors.getOrCreate("@loc" + std::to_string(I), {}), {}));
  for (VarId V = 0; V != Locations; ++V)
    expectNew(Terms.var(V));
  auto pairOf = [&](uint32_t I) {
    return Terms.cons(Pair, {Made[I], Made[(I * 7919u) % (2 * Locations)]});
  };
  for (uint32_t I = 0; I != Pairs; ++I)
    expectNew(pairOf(I));
  ExprId Deep = Terms.var(0);
  for (uint32_t I = 0; I != Depth; ++I) {
    Deep = Terms.cons(Wrap, {Deep});
    expectNew(Deep);
  }
  ASSERT_EQ(Terms.size(), Made.size() + 2);
  ASSERT_GE(Made.size(), 100000u);

  // Asking again returns the original id and creates nothing.
  for (uint32_t I = 0; I != Locations; ++I)
    EXPECT_EQ(Terms.cons(Constructors.lookup("@loc" + std::to_string(I)), {}),
              Made[I]);
  for (VarId V = 0; V != Locations; ++V)
    EXPECT_EQ(Terms.var(V), Made[Locations + V]);
  for (uint32_t I = 0; I != Pairs; ++I)
    EXPECT_EQ(pairOf(I), Made[2 * Locations + I]);
  ExprId Again = Terms.var(0);
  for (uint32_t I = 0; I != Depth; ++I)
    Again = Terms.cons(Wrap, {Again});
  EXPECT_EQ(Again, Deep);
  EXPECT_EQ(Terms.size(), Made.size() + 2);

  // The chain unwinds to its root through the stored arguments.
  ExprId Cursor = Deep;
  for (uint32_t I = 0; I != Depth; ++I) {
    ASSERT_EQ(Terms.consOf(Cursor), Wrap);
    Cursor = Terms.argsOf(Cursor)[0];
  }
  EXPECT_EQ(Cursor, Terms.var(0));
}

TEST(TermTableTest, RenderingWithVariance) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConsId Ref = Constructors.getOrCreate(
      "ref", {Variance::Covariant, Variance::Contravariant});
  ExprId Term = Terms.cons(Ref, {Terms.var(0), Terms.one()});
  std::string Str =
      Terms.str(Term, [](VarId Var) { return "X" + std::to_string(Var); });
  EXPECT_EQ(Str, "ref(X0, ~1)");
  EXPECT_EQ(Terms.str(Terms.zero(), nullptr), "0");
}
