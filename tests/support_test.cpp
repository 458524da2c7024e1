//===- tests/support_test.cpp - Support library unit tests -----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/ByteStream.h"
#include "support/CacheAligned.h"
#include "support/CommandLine.h"
#include "support/DenseU64Set.h"
#include "support/FailPoint.h"
#include "support/Format.h"
#include "support/PRNG.h"
#include "support/SmallVector.h"
#include "support/Status.h"
#include "support/Timer.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

using namespace poce;

//===----------------------------------------------------------------------===//
// SmallVector
//===----------------------------------------------------------------------===//

TEST(SmallVectorTest, StaysInlineUntilCapacity) {
  SmallVector<int, 4> V;
  EXPECT_TRUE(V.empty());
  for (int I = 0; I != 4; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 4u);
  EXPECT_EQ(V.capacity(), 4u);
  V.push_back(4); // Forces heap allocation.
  EXPECT_GT(V.capacity(), 4u);
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(V[I], I);
}

TEST(SmallVectorTest, GrowPreservesElements) {
  SmallVector<int, 2> V;
  for (int I = 0; I != 1000; ++I)
    V.push_back(I * 7);
  ASSERT_EQ(V.size(), 1000u);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(V[I], I * 7);
}

TEST(SmallVectorTest, PopBackAndBack) {
  SmallVector<int, 4> V = {1, 2, 3};
  EXPECT_EQ(V.back(), 3);
  EXPECT_EQ(V.pop_back_val(), 3);
  EXPECT_EQ(V.size(), 2u);
  V.pop_back();
  EXPECT_EQ(V.back(), 1);
}

TEST(SmallVectorTest, EraseSingleAndRange) {
  SmallVector<int, 4> V = {0, 1, 2, 3, 4, 5};
  V.erase(V.begin() + 1);
  EXPECT_EQ(V.size(), 5u);
  EXPECT_EQ(V[1], 2);
  V.erase(V.begin() + 1, V.begin() + 3);
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V[0], 0);
  EXPECT_EQ(V[1], 4);
  EXPECT_EQ(V[2], 5);
}

TEST(SmallVectorTest, InsertShiftsElements) {
  SmallVector<int, 2> V = {1, 3};
  V.insert(V.begin() + 1, 2);
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V[0], 1);
  EXPECT_EQ(V[1], 2);
  EXPECT_EQ(V[2], 3);
}

TEST(SmallVectorTest, ResizeDefaultAndValue) {
  SmallVector<int, 2> V;
  V.resize(5, 9);
  EXPECT_EQ(V.size(), 5u);
  EXPECT_EQ(V[4], 9);
  V.resize(2);
  EXPECT_EQ(V.size(), 2u);
}

namespace {
struct Tracked {
  static int Live;
  int Value = 0;
  Tracked() { ++Live; }
  explicit Tracked(int Value) : Value(Value) { ++Live; }
  Tracked(const Tracked &RHS) : Value(RHS.Value) { ++Live; }
  Tracked(Tracked &&RHS) noexcept : Value(RHS.Value) { ++Live; }
  Tracked &operator=(const Tracked &) = default;
  Tracked &operator=(Tracked &&) = default;
  ~Tracked() { --Live; }
};
int Tracked::Live = 0;
} // namespace

TEST(SmallVectorTest, NonTrivialTypeDestructorsBalance) {
  {
    SmallVector<Tracked, 2> V;
    for (int I = 0; I != 20; ++I)
      V.emplace_back(I);
    EXPECT_EQ(Tracked::Live, 20);
    V.pop_back();
    EXPECT_EQ(Tracked::Live, 19);
    V.clear();
    EXPECT_EQ(Tracked::Live, 0);
    for (int I = 0; I != 5; ++I)
      V.emplace_back(I);
  }
  EXPECT_EQ(Tracked::Live, 0);
}

TEST(SmallVectorTest, CopyAndMove) {
  SmallVector<int, 2> A = {1, 2, 3, 4};
  SmallVector<int, 2> B(A);
  EXPECT_EQ(A, B);
  SmallVector<int, 2> C(std::move(B));
  EXPECT_EQ(A, C);
  EXPECT_TRUE(B.empty());
  SmallVector<int, 2> D;
  D = A;
  EXPECT_EQ(A, D);
}

TEST(SmallVectorTest, AppendAndAssign) {
  SmallVector<int, 2> V;
  int Data[] = {5, 6, 7};
  V.append(std::begin(Data), std::end(Data));
  EXPECT_EQ(V.size(), 3u);
  V.assign(4, 1);
  ASSERT_EQ(V.size(), 4u);
  EXPECT_EQ(V[3], 1);
}

//===----------------------------------------------------------------------===//
// DenseU64Set
//===----------------------------------------------------------------------===//

TEST(DenseU64SetTest, InsertContains) {
  DenseU64Set Set;
  EXPECT_FALSE(Set.contains(42));
  EXPECT_TRUE(Set.insert(42));
  EXPECT_FALSE(Set.insert(42));
  EXPECT_TRUE(Set.contains(42));
  EXPECT_EQ(Set.size(), 1u);
}

TEST(DenseU64SetTest, ZeroKeyIsValid) {
  DenseU64Set Set;
  EXPECT_TRUE(Set.insert(0));
  EXPECT_TRUE(Set.contains(0));
}

TEST(DenseU64SetTest, MatchesReferenceUnderRandomWorkload) {
  DenseU64Set Set;
  std::unordered_set<uint64_t> Reference;
  PRNG Rng(7);
  for (int I = 0; I != 20000; ++I) {
    uint64_t Key = Rng.nextBelow(5000);
    EXPECT_EQ(Set.insert(Key), Reference.insert(Key).second);
  }
  EXPECT_EQ(Set.size(), Reference.size());
  for (uint64_t Key = 0; Key != 5000; ++Key)
    EXPECT_EQ(Set.contains(Key), Reference.count(Key) != 0);
  uint64_t Visited = 0;
  Set.forEach([&](uint64_t Key) {
    ++Visited;
    EXPECT_TRUE(Reference.count(Key));
  });
  EXPECT_EQ(Visited, Reference.size());
}

TEST(DenseU64SetTest, ClearAndCopy) {
  DenseU64Set Set;
  for (uint64_t I = 0; I != 100; ++I)
    Set.insert(I);
  DenseU64Set Copy(Set);
  Set.clear();
  EXPECT_TRUE(Set.empty());
  EXPECT_EQ(Copy.size(), 100u);
  EXPECT_TRUE(Copy.contains(99));
  DenseU64Set Moved(std::move(Copy));
  EXPECT_TRUE(Moved.contains(50));
}

//===----------------------------------------------------------------------===//
// UnionFind
//===----------------------------------------------------------------------===//

TEST(UnionFindTest, SingletonsAreTheirOwnReps) {
  UnionFind UF;
  EXPECT_EQ(UF.makeSet(), 0u);
  EXPECT_EQ(UF.makeSet(), 1u);
  EXPECT_EQ(UF.find(0), 0u);
  EXPECT_TRUE(UF.isRepresentative(1));
}

TEST(UnionFindTest, UniteChoosesParentSide) {
  UnionFind UF;
  UF.growTo(4);
  EXPECT_TRUE(UF.unite(/*Child=*/0, /*Parent=*/1));
  EXPECT_EQ(UF.find(0), 1u);
  EXPECT_FALSE(UF.isRepresentative(0));
  // Parent argument resolved through its representative.
  EXPECT_TRUE(UF.unite(2, 0));
  EXPECT_EQ(UF.find(2), 1u);
  EXPECT_FALSE(UF.unite(2, 1));
}

TEST(UnionFindTest, TransitiveClosureProperty) {
  UnionFind UF;
  const uint32_t N = 200;
  UF.growTo(N);
  PRNG Rng(3);
  std::vector<std::pair<uint32_t, uint32_t>> Merges;
  for (int I = 0; I != 150; ++I) {
    uint32_t A = static_cast<uint32_t>(Rng.nextBelow(N));
    uint32_t B = static_cast<uint32_t>(Rng.nextBelow(N));
    UF.unite(A, B);
    Merges.push_back({A, B});
  }
  // Reference: naive labels.
  std::vector<uint32_t> Label(N);
  for (uint32_t I = 0; I != N; ++I)
    Label[I] = I;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto [A, B] : Merges) {
      uint32_t Merged = std::min(Label[A], Label[B]);
      for (uint32_t I = 0; I != N; ++I)
        if (Label[I] == Label[A] || Label[I] == Label[B])
          if (Label[I] != Merged) {
            Label[I] = Merged;
            Changed = true;
          }
    }
  }
  for (uint32_t A = 0; A != N; ++A)
    for (uint32_t B = A + 1; B != N; ++B)
      EXPECT_EQ(UF.findConst(A) == UF.findConst(B), Label[A] == Label[B]);
}

//===----------------------------------------------------------------------===//
// PRNG
//===----------------------------------------------------------------------===//

TEST(PRNGTest, DeterministicForSeed) {
  PRNG A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.nextU64(), B.nextU64());
  PRNG C(124);
  EXPECT_NE(A.nextU64(), C.nextU64());
}

TEST(PRNGTest, NextBelowInRange) {
  PRNG Rng(5);
  for (int I = 0; I != 10000; ++I)
    EXPECT_LT(Rng.nextBelow(17), 17u);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Rng.nextBelow(1), 0u);
}

TEST(PRNGTest, NextBelowRoughlyUniform) {
  PRNG Rng(11);
  const int Buckets = 10, Samples = 100000;
  int Counts[Buckets] = {};
  for (int I = 0; I != Samples; ++I)
    ++Counts[Rng.nextBelow(Buckets)];
  for (int Count : Counts) {
    EXPECT_GT(Count, Samples / Buckets * 0.9);
    EXPECT_LT(Count, Samples / Buckets * 1.1);
  }
}

TEST(PRNGTest, ShuffleIsPermutation) {
  PRNG Rng(9);
  std::vector<int> V(50);
  for (int I = 0; I != 50; ++I)
    V[I] = I;
  Rng.shuffle(V.begin(), V.end());
  std::vector<int> Sorted = V;
  std::sort(Sorted.begin(), Sorted.end());
  for (int I = 0; I != 50; ++I)
    EXPECT_EQ(Sorted[I], I);
}

TEST(PRNGTest, NextDoubleInUnitInterval) {
  PRNG Rng(13);
  for (int I = 0; I != 1000; ++I) {
    double X = Rng.nextDouble();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(PRNGTest, NextRangeInclusive) {
  PRNG Rng(17);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 1000; ++I) {
    int64_t X = Rng.nextRange(-3, 3);
    EXPECT_GE(X, -3);
    EXPECT_LE(X, 3);
    SawLo |= X == -3;
    SawHi |= X == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

//===----------------------------------------------------------------------===//
// Timer, Format, CommandLine
//===----------------------------------------------------------------------===//

TEST(TimerTest, MeasuresElapsedTime) {
  Timer T;
  volatile double Sink = 0;
  for (int I = 0; I != 100000; ++I)
    Sink = Sink + I;
  EXPECT_GE(T.seconds(), 0.0);
  double First = T.seconds();
  EXPECT_GE(T.seconds(), First);
}

TEST(TimerTest, BestOfNReturnsMinimum) {
  int Runs = 0;
  double Best = bestOfN(3, [&] { ++Runs; });
  EXPECT_EQ(Runs, 3);
  EXPECT_GE(Best, 0.0);
}

TEST(TimerTest, BestOfZeroRepeatsIsZeroNotSentinel) {
  int Runs = 0;
  double Best = bestOfN(0, [&] { ++Runs; });
  EXPECT_EQ(Runs, 0);
  EXPECT_EQ(Best, 0.0); // Not the internal -1.0 "no sample yet" marker.
}

TEST(FormatTest, GroupedNumbers) {
  EXPECT_EQ(formatGrouped(0), "0");
  EXPECT_EQ(formatGrouped(999), "999");
  EXPECT_EQ(formatGrouped(1000), "1,000");
  EXPECT_EQ(formatGrouped(1234567), "1,234,567");
}

TEST(FormatTest, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(FormatTest, TextTableAligns) {
  TextTable Table({"Name", "Value"});
  Table.addRow({"short", "1"});
  Table.addRow({"muchlongername", "12345"});
  testing::internal::CaptureStdout();
  Table.print(stdout);
  std::string Out = testing::internal::GetCapturedStdout();
  EXPECT_NE(Out.find("Name"), std::string::npos);
  EXPECT_NE(Out.find("muchlongername"), std::string::npos);
  EXPECT_NE(Out.find("-----"), std::string::npos);
}

TEST(CommandLineTest, ParsesAllOptionKinds) {
  CommandLine Cmd("tool", "overview");
  bool Flag = false;
  std::string Str;
  int64_t Int = 0;
  double Dbl = 0;
  Cmd.addFlag("flag", &Flag, "a flag");
  Cmd.addString("str", &Str, "a string");
  Cmd.addInt("int", &Int, "an int");
  Cmd.addDouble("dbl", &Dbl, "a double");
  const char *Argv[] = {"tool", "--flag", "--str=hello", "--int", "42",
                        "--dbl=2.5", "positional"};
  EXPECT_TRUE(Cmd.parse(7, Argv));
  EXPECT_TRUE(Flag);
  EXPECT_EQ(Str, "hello");
  EXPECT_EQ(Int, 42);
  EXPECT_DOUBLE_EQ(Dbl, 2.5);
  ASSERT_EQ(Cmd.positionals().size(), 1u);
  EXPECT_EQ(Cmd.positionals()[0], "positional");
}

TEST(CommandLineTest, RejectsUnknownOptionAndBadValues) {
  CommandLine Cmd("tool", "overview");
  int64_t Int = 0;
  Cmd.addInt("int", &Int, "an int");
  const char *Unknown[] = {"tool", "--nope"};
  EXPECT_FALSE(Cmd.parse(2, Unknown));
  CommandLine Cmd2("tool", "overview");
  Cmd2.addInt("int", &Int, "an int");
  const char *Bad[] = {"tool", "--int=xyz"};
  EXPECT_FALSE(Cmd2.parse(2, Bad));
}

TEST(CommandLineTest, UnsignedOptionsRefuseNegativeValues) {
  // Counts, sizes and durations must not wrap: "-1" read as unsigned is
  // 2^64 - 1 lanes or milliseconds. Signed options keep negatives.
  for (const char *Value : {"--lanes=-1", "--lanes= -7", "--lanes=-0"}) {
    CommandLine Cmd("tool", "overview");
    uint64_t Lanes = 3;
    Cmd.addUInt("lanes", &Lanes, "a count");
    const char *Argv[] = {"tool", Value};
    EXPECT_FALSE(Cmd.parse(2, Argv)) << Value;
    EXPECT_EQ(Lanes, 3u) << Value;
  }
  CommandLine Cmd("tool", "overview");
  uint64_t Lanes = 0;
  int64_t Seed = 0;
  Cmd.addUInt("lanes", &Lanes, "a count");
  Cmd.addInt("seed", &Seed, "a signed value");
  const char *Argv[] = {"tool", "--lanes", "0x10", "--seed=-5"};
  EXPECT_TRUE(Cmd.parse(4, Argv));
  EXPECT_EQ(Lanes, 16u);
  EXPECT_EQ(Seed, -5);
  CommandLine Bad("tool", "overview");
  Bad.addUInt("lanes", &Lanes, "a count");
  const char *Junk[] = {"tool", "--lanes=4x"};
  EXPECT_FALSE(Bad.parse(2, Junk));
}

//===----------------------------------------------------------------------===//
// ByteStream
//===----------------------------------------------------------------------===//

TEST(ByteStreamTest, RoundTripsScalarsAndStrings) {
  ByteWriter Writer;
  Writer.u8(0xab);
  Writer.u32(0xdeadbeef);
  Writer.u64(0x0123456789abcdefULL);
  Writer.str("hello");
  Writer.str("");

  ByteReader Reader(Writer.buffer().data(), Writer.size());
  uint8_t Byte = 0;
  uint32_t Word = 0;
  uint64_t Wide = 0;
  std::string Text;
  EXPECT_TRUE(Reader.u8(Byte));
  EXPECT_EQ(Byte, 0xab);
  EXPECT_TRUE(Reader.u32(Word));
  EXPECT_EQ(Word, 0xdeadbeefu);
  EXPECT_TRUE(Reader.u64(Wide));
  EXPECT_EQ(Wide, 0x0123456789abcdefULL);
  EXPECT_TRUE(Reader.str(Text));
  EXPECT_EQ(Text, "hello");
  EXPECT_TRUE(Reader.str(Text));
  EXPECT_EQ(Text, "");
  EXPECT_FALSE(Reader.failed());
  EXPECT_EQ(Reader.remaining(), 0u);
}

TEST(ByteStreamTest, TruncationFailsStickyWithOffset) {
  ByteWriter Writer;
  Writer.u32(7);
  ByteReader Reader(Writer.buffer().data(), 2);
  uint32_t Word = 99;
  EXPECT_FALSE(Reader.u32(Word));
  EXPECT_EQ(Word, 99u); // output untouched on failure
  EXPECT_TRUE(Reader.failed());
  EXPECT_NE(Reader.error().find("truncated"), std::string::npos);
  // Sticky: further reads keep failing.
  uint64_t Wide = 0;
  EXPECT_FALSE(Reader.u64(Wide));
  EXPECT_TRUE(Reader.failed());
}

TEST(ByteStreamTest, PatchU64RewritesInPlace) {
  ByteWriter Writer;
  Writer.u64(0); // placeholder
  Writer.u8(0x77);
  Writer.patchU64(0, 0x1122334455667788ULL);
  ByteReader Reader(Writer.buffer().data(), Writer.size());
  uint64_t Wide = 0;
  uint8_t Byte = 0;
  EXPECT_TRUE(Reader.u64(Wide));
  EXPECT_EQ(Wide, 0x1122334455667788ULL);
  EXPECT_TRUE(Reader.u8(Byte));
  EXPECT_EQ(Byte, 0x77);
}

TEST(ByteStreamTest, Fnv1aIsStableAndSensitive) {
  const uint8_t Data[] = {1, 2, 3, 4};
  uint64_t Sum = fnv1a64(Data, sizeof(Data));
  EXPECT_EQ(Sum, fnv1a64(Data, sizeof(Data)));
  const uint8_t Flipped[] = {1, 2, 3, 5};
  EXPECT_NE(Sum, fnv1a64(Flipped, sizeof(Flipped)));
  EXPECT_NE(fnv1a64(Data, 3), Sum);
}

namespace {

/// Disarms every failpoint on scope exit so a failing ASSERT cannot leak
/// an armed fault into later tests.
struct FailPointGuard {
  ~FailPointGuard() { FailPoint::disarmAll(); }
};

std::string supportTempPath(const std::string &Name) {
  std::string Path = testing::TempDir() + "poce_support_" + Name;
  std::remove(Path.c_str());
  return Path;
}

std::vector<uint8_t> somePayload(size_t Size) {
  std::vector<uint8_t> Buffer(Size);
  for (size_t I = 0; I != Size; ++I)
    Buffer[I] = static_cast<uint8_t>(I * 7 + 1);
  return Buffer;
}

} // namespace

TEST(ByteStreamFileTest, WriteReadRoundTrip) {
  std::string Path = supportTempPath("roundtrip.bin");
  std::vector<uint8_t> Payload = somePayload(1000);
  std::string Error;
  ASSERT_TRUE(writeFileBytes(Path, Payload, &Error)) << Error;
  std::vector<uint8_t> Back;
  ASSERT_TRUE(readFileBytes(Path, Back, &Error)) << Error;
  EXPECT_EQ(Back, Payload);
  std::remove(Path.c_str());
}

TEST(ByteStreamFileTest, ReadMissingFileFails) {
  std::vector<uint8_t> Buffer;
  std::string Error;
  EXPECT_FALSE(
      readFileBytes(supportTempPath("never_written.bin"), Buffer, &Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos);
}

TEST(ByteStreamFileTest, ShortWriteLeavesTruncatedFile) {
  // writeFileBytes is the NOT-crash-safe primitive: a short write leaves
  // a truncated file in place — the hazard writeFileAtomic exists for.
  FailPointGuard Guard;
  std::string Path = supportTempPath("short.bin");
  std::vector<uint8_t> Payload = somePayload(1000);
  ASSERT_TRUE(FailPoint::armSpec("bytestream.write=short").ok());
  std::string Error;
  EXPECT_FALSE(writeFileBytes(Path, Payload, &Error));
  EXPECT_NE(Error.find("short write"), std::string::npos);
  std::vector<uint8_t> Back;
  ASSERT_TRUE(readFileBytes(Path, Back, &Error)) << Error;
  EXPECT_EQ(Back.size(), Payload.size() / 2);

  // Error mode fails before the file is even opened.
  ASSERT_TRUE(FailPoint::armSpec("bytestream.write=error").ok());
  EXPECT_FALSE(writeFileBytes(Path, Payload, &Error));
  EXPECT_NE(Error.find("bytestream.write"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(ByteStreamFileTest, AtomicWriteReplacesOrPreservesNeverTears) {
  FailPointGuard Guard;
  std::string Path = supportTempPath("atomic.bin");
  std::vector<uint8_t> Old = somePayload(100);
  ASSERT_TRUE(writeFileAtomic(Path, Old).ok());
  std::vector<uint8_t> Back;
  std::string Error;
  ASSERT_TRUE(readFileBytes(Path, Back, &Error)) << Error;
  EXPECT_EQ(Back, Old);

  // Any injected fault leaves the previous contents intact and cleans up
  // the temp file.
  std::vector<uint8_t> New = somePayload(300);
  for (const char *Spec :
       {"atomic.write=error", "atomic.write=short",
        "atomic.before_fsync=error", "atomic.before_rename=error"}) {
    ASSERT_TRUE(FailPoint::armSpec(Spec).ok()) << Spec;
    Status St = writeFileAtomic(Path, New);
    EXPECT_FALSE(St.ok()) << Spec;
    EXPECT_EQ(St.code(), ErrorCode::IoError) << Spec;
    ASSERT_TRUE(readFileBytes(Path, Back, &Error)) << Error;
    EXPECT_EQ(Back, Old) << Spec;
    std::ifstream Tmp(Path + ".tmp");
    EXPECT_FALSE(Tmp.good()) << Spec << " left a stray temp file";
  }

  // With faults disarmed the replacement goes through whole.
  ASSERT_TRUE(writeFileAtomic(Path, New).ok());
  ASSERT_TRUE(readFileBytes(Path, Back, &Error)) << Error;
  EXPECT_EQ(Back, New);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Status / Expected
//===----------------------------------------------------------------------===//

TEST(StatusTest, DefaultIsOk) {
  Status St;
  EXPECT_TRUE(St.ok());
  EXPECT_TRUE(static_cast<bool>(St));
  EXPECT_EQ(St.code(), ErrorCode::Ok);
  EXPECT_EQ(St.toString(), "ok");
  EXPECT_EQ(St.wire(), "ok");
  EXPECT_TRUE(Status().ok());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status St = Status::error(ErrorCode::NotFound, "no such thing");
  EXPECT_FALSE(St.ok());
  EXPECT_FALSE(static_cast<bool>(St));
  EXPECT_EQ(St.code(), ErrorCode::NotFound);
  EXPECT_EQ(St.message(), "no such thing");
  EXPECT_EQ(St.toString(), "not_found: no such thing");
  EXPECT_EQ(St.wire(), "not_found no such thing");
}

TEST(StatusTest, WireCodesAreStableSnakeCase) {
  // These strings are the serve protocol's error codes; renaming one is a
  // wire-format break.
  EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
  EXPECT_STREQ(errorCodeName(ErrorCode::InvalidArgument), "invalid_argument");
  EXPECT_STREQ(errorCodeName(ErrorCode::ParseError), "parse_error");
  EXPECT_STREQ(errorCodeName(ErrorCode::IoError), "io_error");
  EXPECT_STREQ(errorCodeName(ErrorCode::Corruption), "corruption");
  EXPECT_STREQ(errorCodeName(ErrorCode::VersionSkew), "version_skew");
  EXPECT_STREQ(errorCodeName(ErrorCode::NotFound), "not_found");
  EXPECT_STREQ(errorCodeName(ErrorCode::TooLarge), "too_large");
  EXPECT_STREQ(errorCodeName(ErrorCode::BudgetExceeded), "budget_exceeded");
  EXPECT_STREQ(errorCodeName(ErrorCode::FailedPrecondition),
               "failed_precondition");
  EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
}

TEST(StatusTest, WithContextPrependsAndKeepsCode) {
  Status St = Status::error(ErrorCode::IoError, "fsync failed")
                  .withContext("saving snapshot")
                  .withContext("checkpoint");
  EXPECT_EQ(St.code(), ErrorCode::IoError);
  EXPECT_EQ(St.message(), "checkpoint: saving snapshot: fsync failed");
  // No-op on success.
  EXPECT_TRUE(Status().withContext("ignored").ok());
}

TEST(StatusTest, ErrorWithOkCodeCoercesToInternal) {
  // error() must never manufacture a "successful failure".
  Status St = Status::error(ErrorCode::Ok, "mislabelled");
  EXPECT_FALSE(St.ok());
  EXPECT_EQ(St.code(), ErrorCode::Internal);
}

TEST(ExpectedTest, HoldsValueOrStatus) {
  Expected<int> Good(42);
  ASSERT_TRUE(Good.ok());
  EXPECT_EQ(Good.value(), 42);
  EXPECT_EQ(*Good, 42);
  EXPECT_TRUE(Good.status().ok());

  Expected<int> Bad(Status::error(ErrorCode::ParseError, "nope"));
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), ErrorCode::ParseError);

  Expected<std::string> Str(std::string("hello"));
  EXPECT_EQ(Str->size(), 5u);
}

//===----------------------------------------------------------------------===//
// FailPoint
//===----------------------------------------------------------------------===//

TEST(FailPointTest, OffByDefault) {
  EXPECT_EQ(FailPoint::armedCount(), 0u);
  EXPECT_EQ(FailPoint::hit("some.site"), FailPoint::Mode::Off);
}

TEST(FailPointTest, ArmedOneShotFiresOnceThenDisarms) {
  FailPointGuard Guard;
  ASSERT_TRUE(FailPoint::armSpec("site.a=error").ok());
  EXPECT_EQ(FailPoint::armedCount(), 1u);
  EXPECT_EQ(FailPoint::hit("site.other"), FailPoint::Mode::Off);
  EXPECT_EQ(FailPoint::hit("site.a"), FailPoint::Mode::Error);
  // Fired and disarmed: subsequent hits pass.
  EXPECT_EQ(FailPoint::hit("site.a"), FailPoint::Mode::Off);
  EXPECT_EQ(FailPoint::armedCount(), 0u);
}

TEST(FailPointTest, NthHitCounting) {
  FailPointGuard Guard;
  ASSERT_TRUE(FailPoint::armSpec("site.n=short@3").ok());
  EXPECT_EQ(FailPoint::hit("site.n"), FailPoint::Mode::Off);
  EXPECT_EQ(FailPoint::hit("site.n"), FailPoint::Mode::Off);
  EXPECT_EQ(FailPoint::hit("site.n"), FailPoint::Mode::Short);
  EXPECT_EQ(FailPoint::hit("site.n"), FailPoint::Mode::Off);
}

TEST(FailPointTest, MultipleEntriesAndDisarmAll) {
  FailPointGuard Guard;
  ASSERT_TRUE(FailPoint::armSpec("site.a=error,site.b=short@2").ok());
  EXPECT_EQ(FailPoint::armedCount(), 2u);
  FailPoint::disarmAll();
  EXPECT_EQ(FailPoint::armedCount(), 0u);
  EXPECT_EQ(FailPoint::hit("site.a"), FailPoint::Mode::Off);
}

TEST(FailPointTest, MalformedSpecsArmNothing) {
  FailPointGuard Guard;
  for (const char *Bad : {"nosuchmode", "site.a=frobnicate", "site.a=",
                          "=error", "site.a=error@", "site.a=error@zero",
                          "site.a=error@0"}) {
    Status St = FailPoint::armSpec(Bad);
    EXPECT_FALSE(St.ok()) << Bad;
    EXPECT_EQ(St.code(), ErrorCode::InvalidArgument) << Bad;
    EXPECT_EQ(FailPoint::armedCount(), 0u) << Bad;
  }
}

TEST(FailPointTest, InjectedErrorNamesTheSite) {
  Status St = FailPoint::injectedError("wal.append.pre");
  EXPECT_EQ(St.code(), ErrorCode::IoError);
  EXPECT_NE(St.message().find("wal.append.pre"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(ArenaTest, BumpAllocationIsAlignedAndDisjoint) {
  Arena A(64);
  std::vector<std::pair<char *, size_t>> Blocks;
  for (size_t Size : {1u, 7u, 16u, 33u, 64u, 200u, 3u}) {
    void *P = A.allocate(Size, 8);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 8, 0u);
    std::memset(P, 0xAB, Size);
    Blocks.push_back({static_cast<char *>(P), Size});
  }
  // No block overlaps another, and every byte survived later allocations.
  for (size_t I = 0; I != Blocks.size(); ++I) {
    for (size_t J = I + 1; J != Blocks.size(); ++J) {
      char *AStart = Blocks[I].first, *AEnd = AStart + Blocks[I].second;
      char *BStart = Blocks[J].first, *BEnd = BStart + Blocks[J].second;
      EXPECT_TRUE(AEnd <= BStart || BEnd <= AStart);
    }
    for (size_t B = 0; B != Blocks[I].second; ++B)
      EXPECT_EQ(static_cast<unsigned char>(Blocks[I].first[B]), 0xABu);
  }
  EXPECT_EQ(A.bytesAllocated(), 1u + 7 + 16 + 33 + 64 + 200 + 3);
}

TEST(ArenaTest, CreateAndAllocateArray) {
  Arena A;
  struct Point {
    int X, Y;
  };
  Point *P = A.create<Point>(Point{3, 4});
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);
  uint64_t *Row = A.allocateArray<uint64_t>(100);
  for (size_t I = 0; I != 100; ++I)
    Row[I] = I * I;
  EXPECT_EQ(Row[99], 99u * 99);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Row) % alignof(uint64_t), 0u);
}

TEST(ArenaTest, SlabsDoubleAndOversizeGetsDedicatedSlab) {
  Arena A(32);
  A.allocate(24);
  size_t After1 = A.numSlabs();
  A.allocate(24); // spills into a second, larger slab
  EXPECT_GT(A.numSlabs(), After1);
  size_t ReservedBefore = A.bytesReserved();
  void *Big = A.allocate(1 << 21); // larger than the 1 MiB doubling cap
  EXPECT_NE(Big, nullptr);
  EXPECT_GE(A.bytesReserved(), ReservedBefore + (size_t(1) << 21));
}

TEST(ArenaTest, ResetRetainsSlabsAndReusesThem) {
  Arena A(128);
  for (int I = 0; I != 50; ++I)
    A.allocate(64);
  size_t Reserved = A.bytesReserved();
  size_t Slabs = A.numSlabs();
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  EXPECT_EQ(A.bytesReserved(), Reserved);
  // The same volume again must fit entirely in retained memory.
  for (int I = 0; I != 50; ++I)
    A.allocate(64);
  EXPECT_EQ(A.numSlabs(), Slabs);
  EXPECT_EQ(A.bytesReserved(), Reserved);
}

TEST(ArenaTest, ResetOnEmptyArenaIsANoOp) {
  Arena A;
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  EXPECT_EQ(A.numSlabs(), 0u);
  EXPECT_NE(A.allocate(16), nullptr);
}

TEST(ArenaTest, UndersizedRetainedSlabsAreSkippedButKept) {
  Arena A(32);
  A.allocate(24);      // slab 0: 32 bytes
  A.allocate(1000);    // slab 1: oversize for the doubling schedule
  size_t Slabs = A.numSlabs();
  A.reset();
  // A first allocation too big for slab 0 must skip it, land in slab 1,
  // and keep slab 0 owned for future resets.
  void *P = A.allocate(500);
  EXPECT_NE(P, nullptr);
  EXPECT_EQ(A.numSlabs(), Slabs);
  A.reset();
  A.allocate(8); // fits slab 0 again
  EXPECT_EQ(A.numSlabs(), Slabs);
}

//===----------------------------------------------------------------------===//
// CacheAligned
//===----------------------------------------------------------------------===//

// The contract per-lane slot arrays rely on (the solver's least-solution
// scratch): adjacent slots of a std::vector<CacheAligned<T>> never share a
// cache line, so plain per-lane writes never false-share. The payload
// mixes a counter with a heap-owning member, as the solver's does.
struct LaneSlot {
  uint64_t Count = 0;
  std::vector<uint32_t> Scratch;
};
static_assert(cacheAlignedLayoutOk<LaneSlot>,
              "slots must be cache-line aligned and padded");
static_assert(sizeof(CacheAligned<LaneSlot>) % CacheLineBytes == 0,
              "padding must round the slot to whole cache lines");

TEST(CacheAlignedTest, SlotsDoNotShareCacheLines) {
  std::vector<CacheAligned<LaneSlot>> Slots(4);
  for (size_t I = 0; I + 1 < Slots.size(); ++I) {
    auto *A = reinterpret_cast<const char *>(&Slots[I].Value);
    auto *B = reinterpret_cast<const char *>(&Slots[I + 1].Value);
    EXPECT_GE(static_cast<size_t>(B - A), CacheLineBytes);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(A) % CacheLineBytes, 0u);
  }
}
