//===- tests/sparse_bitvector_test.cpp - SparseBitVector unit tests --------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the sparse bitmap backing the solver's term sets and
/// least solutions: bit set/test/reset, element-boundary ids, word-level
/// unions with changed-flag and new-bit visitation, difference iteration,
/// and a randomized cross-check against std::set.
///
//===----------------------------------------------------------------------===//

#include "support/PRNG.h"
#include "support/SparseBitVector.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <vector>

using namespace poce;

namespace {

std::vector<uint32_t> ids(const SparseBitVector &S) {
  return S.toVector<uint32_t>();
}

} // namespace

TEST(SparseBitVectorTest, EmptyAndBasicSetTest) {
  SparseBitVector S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.count(), 0u);
  EXPECT_FALSE(S.test(0));
  EXPECT_FALSE(S.test(12345));

  EXPECT_TRUE(S.testAndSet(5));
  EXPECT_FALSE(S.testAndSet(5)); // Already set.
  S.set(5);                      // Idempotent.
  EXPECT_TRUE(S.test(5));
  EXPECT_FALSE(S.test(4));
  EXPECT_FALSE(S.test(6));
  EXPECT_EQ(S.count(), 1u);
  EXPECT_FALSE(S.empty());
}

TEST(SparseBitVectorTest, BoundaryWordsAndElements) {
  // Ids straddling every word and element boundary of the 128-bit layout.
  const std::vector<uint32_t> Boundary = {
      0,   63,  64,  127,           // Element 0: both words, both edges.
      128, 191, 192, 255,           // Element 1.
      SparseBitVector::ElementBits * 1000,     // Far element, first bit.
      SparseBitVector::ElementBits * 1000 + 127, // Far element, last bit.
      0xFFFFFFFFu,                  // Maximum id.
  };
  SparseBitVector S;
  for (uint32_t Id : Boundary)
    EXPECT_TRUE(S.testAndSet(Id)) << Id;
  EXPECT_EQ(S.count(), Boundary.size());
  for (uint32_t Id : Boundary)
    EXPECT_TRUE(S.test(Id)) << Id;
  // Neighbors of boundary bits stay clear.
  EXPECT_FALSE(S.test(1));
  EXPECT_FALSE(S.test(62));
  EXPECT_FALSE(S.test(65));
  EXPECT_FALSE(S.test(126));
  EXPECT_FALSE(S.test(129));
  EXPECT_FALSE(S.test(SparseBitVector::ElementBits * 1000 + 1));
  EXPECT_FALSE(S.test(0xFFFFFFFEu));

  std::vector<uint32_t> Sorted = Boundary;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(ids(S), Sorted); // Iteration is ascending.
}

TEST(SparseBitVectorTest, IteratorWalksIdsAscending) {
  auto walk = [](const SparseBitVector &S) {
    std::vector<uint32_t> Out;
    for (uint32_t Id : S)
      Out.push_back(Id);
    return Out;
  };

  SparseBitVector Empty;
  EXPECT_TRUE(Empty.begin() == Empty.end());
  EXPECT_TRUE(walk(Empty).empty());

  // Both words of element 0, the first bit of element 1, then a gap of
  // empty elements before the last one.
  const std::vector<uint32_t> Expected = {
      0, 63, 64, 127, 128, SparseBitVector::ElementBits * 40 + 70};
  SparseBitVector S;
  for (auto It = Expected.rbegin(); It != Expected.rend(); ++It)
    S.set(*It);
  EXPECT_EQ(walk(S), Expected);
  EXPECT_EQ(static_cast<size_t>(std::distance(S.begin(), S.end())),
            S.count());
  SparseBitVector::const_iterator It = S.begin();
  EXPECT_EQ(*It++, 0u);
  EXPECT_EQ(*It, 63u);

  // An element whose first word is empty starts at its second word.
  SparseBitVector HighWord;
  HighWord.set(100);
  EXPECT_EQ(walk(HighWord), std::vector<uint32_t>{100});

  // The same ids in the same order as forEach, on a clustered random set.
  PRNG Rng(0x17e7);
  SparseBitVector R;
  for (int I = 0; I != 3000; ++I)
    R.set(static_cast<uint32_t>(Rng.nextBelow(20000)));
  std::vector<uint32_t> ByForEach;
  R.forEach([&](uint32_t Id) { ByForEach.push_back(Id); });
  EXPECT_EQ(walk(R), ByForEach);
}

TEST(SparseBitVectorTest, ResetErasesEmptyElements) {
  SparseBitVector S;
  S.set(10);
  S.set(500);
  EXPECT_TRUE(S.reset(10));
  EXPECT_FALSE(S.reset(10)); // Already clear.
  EXPECT_FALSE(S.reset(99)); // Never set.
  EXPECT_EQ(S.count(), 1u);
  EXPECT_FALSE(S.test(10));
  EXPECT_TRUE(S.test(500));

  // Equality is structural: a set that never saw id 10 compares equal.
  SparseBitVector T;
  T.set(500);
  EXPECT_EQ(S, T);
  S.reset(500);
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S, SparseBitVector());
}

TEST(SparseBitVectorTest, UnionWithReportsChange) {
  SparseBitVector A, B;
  for (uint32_t Id : {1u, 64u, 300u})
    A.set(Id);
  for (uint32_t Id : {64u, 300u, 9000u})
    B.set(Id);

  uint64_t Words = 0;
  EXPECT_TRUE(A.unionWith(B, &Words));
  EXPECT_GT(Words, 0u);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_EQ(ids(A), (std::vector<uint32_t>{1, 64, 300, 9000}));

  // Second union adds nothing and says so — the difference-propagation
  // pruning signal.
  EXPECT_FALSE(A.unionWith(B));
  // Self-union and union with an empty set are no-ops.
  EXPECT_FALSE(A.unionWith(A));
  EXPECT_FALSE(A.unionWith(SparseBitVector()));
  // Union into an empty set copies.
  SparseBitVector C;
  EXPECT_TRUE(C.unionWith(A));
  EXPECT_EQ(C, A);
}

TEST(SparseBitVectorTest, UnionVisitorSeesOnlyNewBitsAscending) {
  SparseBitVector A, B;
  A.set(5);
  A.set(1000);
  for (uint32_t Id : {3u, 5u, 200u, 1000u, 40000u})
    B.set(Id);

  std::vector<uint32_t> New;
  size_t Added =
      A.unionWithVisitor(B, [&](uint32_t Id) { New.push_back(Id); });
  EXPECT_EQ(Added, 3u);
  EXPECT_EQ(New, (std::vector<uint32_t>{3, 200, 40000}));
  EXPECT_EQ(A.count(), 5u);
}

TEST(SparseBitVectorTest, SubsetAndDifference) {
  SparseBitVector A, B;
  for (uint32_t Id : {2u, 130u, 7000u})
    A.set(Id);
  for (uint32_t Id : {2u, 130u, 7000u, 8000u})
    B.set(Id);
  EXPECT_TRUE(A.isSubsetOf(B));
  EXPECT_FALSE(B.isSubsetOf(A));
  EXPECT_TRUE(A.isSubsetOf(A));
  EXPECT_TRUE(SparseBitVector().isSubsetOf(A));

  std::vector<uint32_t> Diff;
  B.forEachDifference(A, [&](uint32_t Id) { Diff.push_back(Id); });
  EXPECT_EQ(Diff, (std::vector<uint32_t>{8000}));
  Diff.clear();
  B.forEachDifference(SparseBitVector(),
                      [&](uint32_t Id) { Diff.push_back(Id); });
  EXPECT_EQ(Diff, ids(B));
}

TEST(SparseBitVectorTest, AssignDifference) {
  SparseBitVector A, B, Out;
  for (uint32_t Id : {2u, 63u, 64u, 130u, 7000u})
    A.set(Id);
  for (uint32_t Id : {63u, 130u, 9000u})
    B.set(Id);
  Out.set(999); // Stale contents are discarded.
  Out.assignDifference(A, B);
  EXPECT_EQ(ids(Out), (std::vector<uint32_t>{2, 64, 7000}));

  // Difference with an empty set copies; empty result is truly empty.
  Out.assignDifference(A, SparseBitVector());
  EXPECT_EQ(Out, A);
  Out.assignDifference(A, A);
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(Out, SparseBitVector());

  // Randomized cross-check against forEachDifference.
  PRNG Rng(77);
  for (int Round = 0; Round != 20; ++Round) {
    SparseBitVector X, Y;
    for (int I = 0; I != 200; ++I) {
      X.set(static_cast<uint32_t>(Rng.nextBelow(3000)));
      Y.set(static_cast<uint32_t>(Rng.nextBelow(3000)));
    }
    std::vector<uint32_t> Expected;
    X.forEachDifference(Y, [&](uint32_t Id) { Expected.push_back(Id); });
    Out.assignDifference(X, Y);
    EXPECT_EQ(ids(Out), Expected);
    EXPECT_EQ(Out.count(), Expected.size());
  }
}

TEST(SparseBitVectorTest, RandomizedAgainstStdSet) {
  PRNG Rng(0xb17c0de);
  SparseBitVector S;
  std::set<uint32_t> Ref;
  // Mixed workload over a clustered id space (like hash-consed ExprIds).
  for (int I = 0; I != 20000; ++I) {
    uint32_t Id = static_cast<uint32_t>(Rng.nextBelow(4096));
    switch (Rng.nextBelow(4)) {
    case 0:
    case 1:
      EXPECT_EQ(S.testAndSet(Id), Ref.insert(Id).second);
      break;
    case 2:
      EXPECT_EQ(S.test(Id), Ref.count(Id) != 0);
      break;
    default:
      EXPECT_EQ(S.reset(Id), Ref.erase(Id) != 0);
      break;
    }
  }
  EXPECT_EQ(S.count(), Ref.size());
  EXPECT_EQ(ids(S), std::vector<uint32_t>(Ref.begin(), Ref.end()));
}

TEST(SparseBitVectorTest, RandomizedUnions) {
  PRNG Rng(42);
  for (int Round = 0; Round != 50; ++Round) {
    SparseBitVector A, B;
    std::set<uint32_t> RefA, RefB;
    for (int I = 0; I != 100; ++I) {
      uint32_t Id = static_cast<uint32_t>(Rng.nextBelow(2000));
      A.set(Id);
      RefA.insert(Id);
      Id = static_cast<uint32_t>(Rng.nextBelow(2000));
      B.set(Id);
      RefB.insert(Id);
    }
    size_t Before = RefA.size();
    RefA.insert(RefB.begin(), RefB.end());
    bool Changed = A.unionWith(B);
    EXPECT_EQ(Changed, RefA.size() != Before);
    EXPECT_EQ(A.count(), RefA.size());
    EXPECT_EQ(ids(A), std::vector<uint32_t>(RefA.begin(), RefA.end()));
    EXPECT_TRUE(B.isSubsetOf(A));
  }
}
