//===- tests/fault_test.cpp - WAL, budgets, rollback, failpoints ----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
//
// Fault-tolerance unit tests: the write-ahead log's record format and
// torn-tail handling, failpoint-driven IO fault injection, resource-budget
// aborts with transactional rollback in QueryEngine, warm-recovery
// equivalence (snapshot + journal replay == never having crashed), and
// ServerCore's one mutation pipeline (WAL record codec, checkpoints).
// Process-level crash injection (SIGKILL at armed failpoints) lives in
// scripts/crash_recovery.sh; these tests cover everything observable
// in-process.
//
//===----------------------------------------------------------------------===//

#include "serve/GraphSnapshot.h"
#include "serve/QueryEngine.h"
#include "serve/ServerCore.h"
#include "serve/Wal.h"
#include "support/ByteStream.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace poce;
using namespace poce::serve;

namespace {

/// Disarms every failpoint on scope exit so a failing ASSERT cannot leak
/// an armed fault into later tests.
struct FailPointGuard {
  ~FailPointGuard() { FailPoint::disarmAll(); }
};

/// A fresh temp-file path; removes any leftover from a previous run.
std::string tempPath(const std::string &Name) {
  std::string Path = testing::TempDir() + "poce_fault_" + Name;
  std::remove(Path.c_str());
  return Path;
}

/// `cons s` plus a propagation chain C0 <= C1 <= ... <= C(N-1). Feeding
/// `s <= C0` afterwards floods s through all N variables — a deterministic
/// way to make one constraint line cost ~N work units.
std::string chainText(unsigned N) {
  std::string Text = "cons s\nvar";
  for (unsigned I = 0; I != N; ++I)
    Text += " C" + std::to_string(I);
  Text += "\n";
  for (unsigned I = 0; I + 1 != N; ++I)
    Text += "C" + std::to_string(I) + " <= C" + std::to_string(I + 1) + "\n";
  return Text;
}

/// Builds an owned bundle by parsing constraint-file text.
SolverBundle makeBundle(const std::string &Text, SolverOptions Options) {
  SolverBundle Bundle;
  Bundle.Constructors = std::make_unique<ConstructorTable>();
  Bundle.Terms = std::make_unique<TermTable>(*Bundle.Constructors);
  Bundle.Solver = std::make_unique<ConstraintSolver>(*Bundle.Terms, Options);
  ConstraintSystemFile System;
  Status Parsed = System.parse(Text);
  EXPECT_TRUE(Parsed.ok()) << Parsed;
  if (Parsed.ok())
    System.emit(*Bundle.Solver);
  return Bundle;
}

std::vector<uint8_t> serialized(ConstraintSolver &Solver) {
  std::vector<uint8_t> Bytes;
  Status St = GraphSnapshot::serialize(Solver, Bytes);
  EXPECT_TRUE(St.ok()) << St;
  return Bytes;
}

} // namespace

//===----------------------------------------------------------------------===//
// WriteAheadLog
//===----------------------------------------------------------------------===//

TEST(WalTest, RoundTripAppendReplay) {
  std::string Path = tempPath("roundtrip.wal");
  {
    WriteAheadLog Wal;
    ASSERT_TRUE(Wal.open(Path).ok());
    EXPECT_EQ(Wal.sizeBytes(), WriteAheadLog::HeaderSize);
    EXPECT_EQ(Wal.records(), 0u);
    ASSERT_TRUE(Wal.append("var X").ok());
    ASSERT_TRUE(Wal.append("cons a").ok());
    ASSERT_TRUE(Wal.append("a <= X").ok());
    EXPECT_EQ(Wal.records(), 3u);
    EXPECT_GT(Wal.sizeBytes(), WriteAheadLog::HeaderSize);
  }
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_EQ(Contents->Lines,
            (std::vector<std::string>{"var X", "cons a", "a <= X"}));
  EXPECT_EQ(Contents->TornBytes, 0u);
  EXPECT_GT(Contents->ValidBytes, WriteAheadLog::HeaderSize);
  std::remove(Path.c_str());
}

TEST(WalTest, MissingFileReplaysEmpty) {
  Expected<WalContents> Contents =
      WriteAheadLog::replay(tempPath("never_created.wal"));
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_TRUE(Contents->Lines.empty());
  EXPECT_EQ(Contents->ValidBytes, 0u);
  EXPECT_EQ(Contents->TornBytes, 0u);
}

TEST(WalTest, EmptyLineAndBinaryPayloadSurvive) {
  std::string Path = tempPath("payloads.wal");
  {
    WriteAheadLog Wal;
    ASSERT_TRUE(Wal.open(Path).ok());
    ASSERT_TRUE(Wal.append("").ok());
    ASSERT_TRUE(Wal.append(std::string("a\0b", 3)).ok());
  }
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  ASSERT_EQ(Contents->Lines.size(), 2u);
  EXPECT_EQ(Contents->Lines[0], "");
  EXPECT_EQ(Contents->Lines[1], std::string("a\0b", 3));
  std::remove(Path.c_str());
}

TEST(WalTest, TornTailIsReportedAndTruncatedOnReopen) {
  std::string Path = tempPath("torn.wal");
  uint64_t CleanSize = 0;
  {
    WriteAheadLog Wal;
    ASSERT_TRUE(Wal.open(Path).ok());
    ASSERT_TRUE(Wal.append("var X").ok());
    ASSERT_TRUE(Wal.append("var Y").ok());
    CleanSize = Wal.sizeBytes();
  }
  // Simulate a crash mid-append: a record prefix claiming more payload
  // than the file holds.
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::app);
    const char Torn[] = {100, 0, 0, 0, 1, 2, 3}; // len=100, partial sum
    Out.write(Torn, sizeof(Torn));
  }
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_EQ(Contents->Lines, (std::vector<std::string>{"var X", "var Y"}));
  EXPECT_EQ(Contents->ValidBytes, CleanSize);
  EXPECT_EQ(Contents->TornBytes, 7u);

  // Reopening truncates the tail and resumes appending at the boundary.
  WriteAheadLog Wal;
  ASSERT_TRUE(Wal.open(Path).ok());
  EXPECT_EQ(Wal.sizeBytes(), CleanSize);
  EXPECT_EQ(Wal.records(), 2u);
  ASSERT_TRUE(Wal.append("var Z").ok());
  Wal.close();
  Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_EQ(Contents->Lines,
            (std::vector<std::string>{"var X", "var Y", "var Z"}));
  EXPECT_EQ(Contents->TornBytes, 0u);
  std::remove(Path.c_str());
}

TEST(WalTest, ChecksumMismatchStopsReplayAtTheFlip) {
  std::string Path = tempPath("flip.wal");
  {
    WriteAheadLog Wal;
    ASSERT_TRUE(Wal.open(Path).ok());
    ASSERT_TRUE(Wal.append("var X").ok());
    ASSERT_TRUE(Wal.append("var Y").ok());
  }
  // Flip one payload byte of the second record (the last byte on disk).
  {
    std::fstream File(Path,
                      std::ios::binary | std::ios::in | std::ios::out);
    File.seekg(-1, std::ios::end);
    char Byte;
    File.get(Byte);
    File.seekp(-1, std::ios::end);
    File.put(static_cast<char>(Byte ^ 0x40));
  }
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_EQ(Contents->Lines, (std::vector<std::string>{"var X"}));
  EXPECT_GT(Contents->TornBytes, 0u);
  std::remove(Path.c_str());
}

TEST(WalTest, TruncateToAndResetDropRecords) {
  std::string Path = tempPath("truncate.wal");
  WriteAheadLog Wal;
  ASSERT_TRUE(Wal.open(Path).ok());
  ASSERT_TRUE(Wal.append("one").ok());
  uint64_t AfterOne = Wal.sizeBytes();
  ASSERT_TRUE(Wal.append("two").ok());
  EXPECT_EQ(Wal.records(), 2u);

  // Drop the just-appended record (the rejected-constraint un-ack path).
  ASSERT_TRUE(Wal.truncateTo(AfterOne).ok());
  EXPECT_EQ(Wal.records(), 1u);
  EXPECT_EQ(Wal.sizeBytes(), AfterOne);
  {
    Expected<WalContents> Contents = WriteAheadLog::replay(Path);
    ASSERT_TRUE(Contents.ok()) << Contents.status();
    EXPECT_EQ(Contents->Lines, (std::vector<std::string>{"one"}));
  }

  // Appends still work after truncation.
  ASSERT_TRUE(Wal.append("three").ok());
  EXPECT_EQ(Wal.records(), 2u);

  // Bad targets are rejected without touching the file.
  EXPECT_EQ(Wal.truncateTo(WriteAheadLog::HeaderSize - 1).code(),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(Wal.truncateTo(Wal.sizeBytes() + 1).code(),
            ErrorCode::InvalidArgument);

  // reset() empties back to the header (the checkpoint path).
  ASSERT_TRUE(Wal.reset().ok());
  EXPECT_EQ(Wal.sizeBytes(), WriteAheadLog::HeaderSize);
  EXPECT_EQ(Wal.records(), 0u);
  Wal.close();
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_TRUE(Contents->Lines.empty());
  std::remove(Path.c_str());
}

TEST(WalTest, RejectsBadHeaderAndVersionSkew) {
  std::string Path = tempPath("badheader.wal");
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << "this is not a WAL header at all";
  }
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  ASSERT_FALSE(Contents.ok());
  EXPECT_EQ(Contents.status().code(), ErrorCode::Corruption);
  WriteAheadLog Wal;
  EXPECT_FALSE(Wal.open(Path).ok());
  EXPECT_FALSE(Wal.isOpen());

  // Correct magic, future version (on a full-length header so it is not
  // mistaken for a torn one): the dedicated wal_version refusal, not
  // Corruption — a newer binary's log must never be silently misread.
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(WriteAheadLog::Magic, sizeof(WriteAheadLog::Magic));
    const char Future[] = {99, 0, 0, 0};
    Out.write(Future, sizeof(Future));
    const char BaseId[8] = {};
    Out.write(BaseId, sizeof(BaseId));
  }
  Contents = WriteAheadLog::replay(Path);
  ASSERT_FALSE(Contents.ok());
  EXPECT_EQ(Contents.status().code(), ErrorCode::WalVersion);
  std::remove(Path.c_str());
}

namespace {

/// Hand-writes a WAL file with an arbitrary header version (the live
/// WriteAheadLog always stamps the current one) so version-skew paths
/// can be exercised.
void writeWalFile(const std::string &Path, uint32_t Version,
                  const std::vector<std::string> &Lines) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(WriteAheadLog::Magic, sizeof(WriteAheadLog::Magic));
  auto U32 = [&Out](uint32_t V) {
    char Bytes[4];
    for (int I = 0; I != 4; ++I)
      Bytes[I] = static_cast<char>(V >> (8 * I));
    Out.write(Bytes, sizeof(Bytes));
  };
  auto U64 = [&Out](uint64_t V) {
    char Bytes[8];
    for (int I = 0; I != 8; ++I)
      Bytes[I] = static_cast<char>(V >> (8 * I));
    Out.write(Bytes, sizeof(Bytes));
  };
  U32(Version);
  U64(0); // base id
  for (const std::string &Line : Lines) {
    U32(static_cast<uint32_t>(Line.size()));
    U64(fnv1a64(reinterpret_cast<const uint8_t *>(Line.data()),
                Line.size()));
    Out.write(Line.data(), static_cast<std::streamsize>(Line.size()));
  }
}

} // namespace

TEST(WalTest, Version2FilesReplayAndUpgradeOnOpen) {
  // A pre-retraction (version 2) log must stay readable, and open()
  // must bump its header in place so any retraction record appended
  // later sits behind a version-3 header.
  std::string Path = tempPath("v2.wal");
  writeWalFile(Path, 2, {"var x", "cons s", "s <= x"});
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_EQ(Contents->FileVersion, 2u);
  ASSERT_EQ(Contents->Lines.size(), 3u);
  EXPECT_EQ(Contents->Lines[2], "s <= x");

  WriteAheadLog Wal;
  ASSERT_TRUE(Wal.open(Path, 0).ok());
  EXPECT_EQ(Wal.records(), 3u);
  ASSERT_TRUE(Wal.append(std::string(WalRetractPrefix) + "s <= x").ok());
  Wal.close();

  Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_EQ(Contents->FileVersion, WriteAheadLog::Version);
  ASSERT_EQ(Contents->Lines.size(), 4u);
  EXPECT_EQ(Contents->Lines[3], "!retract s <= x");
  std::remove(Path.c_str());
}

TEST(WalTest, Version2FileWithRetractRecordIsRefused) {
  // Only a version-3 writer emits `!retract` records; one inside a file
  // claiming version 2 means the header was downgraded or tampered
  // with. Replaying it as a constraint would corrupt the recovered
  // state, so the whole log is refused with the wal_version code a
  // version-2 scserved also uses when it meets a version-3 log.
  std::string Path = tempPath("v2retract.wal");
  writeWalFile(Path, 2,
               {"var x", "cons s", "s <= x",
                std::string(WalRetractPrefix) + "s <= x"});
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  ASSERT_FALSE(Contents.ok());
  EXPECT_EQ(Contents.status().code(), ErrorCode::WalVersion);
  EXPECT_EQ(std::string(errorCodeName(Contents.status().code())),
            "wal_version");
  WriteAheadLog Wal;
  EXPECT_FALSE(Wal.open(Path, 0).ok());
  std::remove(Path.c_str());
}

TEST(WalTest, TornHeaderReadsEmptyAndIsRewrittenOnOpen) {
  // A file shorter than the header is a crash during WAL creation: no
  // record can have been acknowledged, so it must read as empty (with
  // HeaderIntact=false), never as corruption — and open() must rewrite
  // the header and carry on.
  for (size_t Length : {size_t(0), size_t(3),
                        WriteAheadLog::HeaderSize - 1}) {
    std::string Path = tempPath("tornheader.wal");
    {
      std::ofstream Out(Path, std::ios::binary);
      std::string Partial(reinterpret_cast<const char *>(
                              WriteAheadLog::Magic),
                          std::min(Length, sizeof(WriteAheadLog::Magic)));
      Partial.resize(Length, '\0');
      Out.write(Partial.data(),
                static_cast<std::streamsize>(Partial.size()));
    }
    Expected<WalContents> Contents = WriteAheadLog::replay(Path);
    ASSERT_TRUE(Contents.ok()) << Length << ": " << Contents.status();
    EXPECT_FALSE(Contents->HeaderIntact) << Length;
    EXPECT_TRUE(Contents->Lines.empty()) << Length;
    EXPECT_EQ(Contents->ValidBytes, 0u) << Length;
    EXPECT_EQ(Contents->TornBytes, Length) << Length;

    WriteAheadLog Wal;
    ASSERT_TRUE(Wal.open(Path, /*BaseId=*/7).ok()) << Length;
    EXPECT_EQ(Wal.sizeBytes(), WriteAheadLog::HeaderSize) << Length;
    ASSERT_TRUE(Wal.append("var X").ok()) << Length;
    Wal.close();
    Contents = WriteAheadLog::replay(Path);
    ASSERT_TRUE(Contents.ok()) << Length << ": " << Contents.status();
    EXPECT_TRUE(Contents->HeaderIntact) << Length;
    EXPECT_EQ(Contents->BaseId, 7u) << Length;
    EXPECT_EQ(Contents->Lines, (std::vector<std::string>{"var X"}))
        << Length;
    std::remove(Path.c_str());
  }
}

TEST(WalTest, BaseIdRoundTripsAndMismatchDiscardsStaleRecords) {
  std::string Path = tempPath("baseid.wal");
  {
    WriteAheadLog Wal;
    ASSERT_TRUE(Wal.open(Path, /*BaseId=*/0xabcdef).ok());
    EXPECT_EQ(Wal.baseId(), 0xabcdefu);
    ASSERT_TRUE(Wal.append("var X").ok());
  }
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_EQ(Contents->BaseId, 0xabcdefu);
  EXPECT_EQ(Contents->Lines, (std::vector<std::string>{"var X"}));

  // Reopening with the matching base id keeps the records...
  {
    WriteAheadLog Wal;
    ASSERT_TRUE(Wal.open(Path, 0xabcdef).ok());
    EXPECT_EQ(Wal.records(), 1u);
  }
  // ...and with a different one (the snapshot moved on: the log is
  // stale) discards them and re-stamps the header.
  {
    WriteAheadLog Wal;
    ASSERT_TRUE(Wal.open(Path, /*BaseId=*/42).ok());
    EXPECT_EQ(Wal.records(), 0u);
    EXPECT_EQ(Wal.sizeBytes(), WriteAheadLog::HeaderSize);
    EXPECT_EQ(Wal.baseId(), 42u);
  }
  Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_EQ(Contents->BaseId, 42u);
  EXPECT_TRUE(Contents->Lines.empty());
  std::remove(Path.c_str());
}

TEST(WalTest, ResetStampsTheNewBaseId) {
  // The checkpoint path: reset(NewBaseId) empties the log and re-stamps
  // it with the new snapshot's checksum, durably.
  std::string Path = tempPath("resetbase.wal");
  {
    WriteAheadLog Wal;
    ASSERT_TRUE(Wal.open(Path, 1).ok());
    ASSERT_TRUE(Wal.append("var X").ok());
    ASSERT_TRUE(Wal.append("var Y").ok());
    ASSERT_TRUE(Wal.reset(/*NewBaseId=*/2).ok());
    EXPECT_EQ(Wal.baseId(), 2u);
    EXPECT_EQ(Wal.records(), 0u);
    EXPECT_EQ(Wal.sizeBytes(), WriteAheadLog::HeaderSize);
    ASSERT_TRUE(Wal.append("var Z").ok());
  }
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_EQ(Contents->BaseId, 2u);
  EXPECT_EQ(Contents->Lines, (std::vector<std::string>{"var Z"}));
  std::remove(Path.c_str());
}

TEST(WalTest, AppendFailureLeavesNoTornRecord) {
  FailPointGuard Guard;
  std::string Path = tempPath("failpoint.wal");
  WriteAheadLog Wal;
  ASSERT_TRUE(Wal.open(Path).ok());
  ASSERT_TRUE(Wal.append("kept").ok());
  uint64_t CleanSize = Wal.sizeBytes();

  // Fault before any bytes: nothing written.
  ASSERT_TRUE(FailPoint::armSpec("wal.append.pre=error").ok());
  Status Pre = Wal.append("lost");
  EXPECT_EQ(Pre.code(), ErrorCode::IoError);
  EXPECT_NE(Pre.message().find("wal.append.pre"), std::string::npos);
  EXPECT_EQ(Wal.sizeBytes(), CleanSize);
  EXPECT_EQ(Wal.records(), 1u);

  // Fault mid-record: append truncates its own half-written bytes back.
  ASSERT_TRUE(FailPoint::armSpec("wal.append.mid=error").ok());
  EXPECT_EQ(Wal.append("lost too").code(), ErrorCode::IoError);
  EXPECT_EQ(Wal.sizeBytes(), CleanSize);
  EXPECT_EQ(Wal.records(), 1u);

  // Both one-shot failpoints have fired and disarmed: appends recover.
  EXPECT_EQ(FailPoint::armedCount(), 0u);
  ASSERT_TRUE(Wal.append("kept two").ok());
  Wal.close();
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_EQ(Contents->Lines,
            (std::vector<std::string>{"kept", "kept two"}));
  EXPECT_EQ(Contents->TornBytes, 0u);
  std::remove(Path.c_str());
}

// The replication primary replays its live WAL to build a `replicate`
// tail while the writer lane keeps appending. replay() must therefore be
// safe against a concurrently growing file: every recovered prefix
// consists only of whole, checksum-verified records — a reader may see
// fewer lines than have been appended (the tail is still in flight) but
// never a torn or corrupted one.
TEST(WalTest, ConcurrentTailNeverSeesTornRecords) {
  std::string Path = tempPath("concurrent_tail.wal");
  constexpr unsigned NumRecords = 240;
  // Varied lengths so record boundaries land at ever-different offsets;
  // payload I is "rec <I>:<padding>".
  auto LineAt = [](unsigned I) {
    return "rec " + std::to_string(I) + ":" +
           std::string(1 + (I * 37) % 113, 'p');
  };

  std::atomic<unsigned> Appended{0};
  WriteAheadLog Wal;
  ASSERT_TRUE(Wal.open(Path, /*BaseId=*/0x1dea).ok());

  std::thread Writer([&] {
    for (unsigned I = 0; I != NumRecords; ++I) {
      ASSERT_TRUE(Wal.append(LineAt(I)).ok());
      Appended.store(I + 1, std::memory_order_release);
    }
  });

  unsigned Replays = 0;
  while (Appended.load(std::memory_order_acquire) < NumRecords) {
    Expected<WalContents> Mid = WriteAheadLog::replay(Path);
    ASSERT_TRUE(Mid.ok()) << Mid.status();
    EXPECT_TRUE(Mid->HeaderIntact);
    EXPECT_EQ(Mid->BaseId, 0x1deau);
    // A clean prefix: every line recovered mid-append is exactly the
    // line appended at that index. (TornBytes may be nonzero while the
    // writer is between append()'s two writes — that in-flight tail must
    // simply not surface as a line.)
    ASSERT_LE(Mid->Lines.size(), static_cast<size_t>(NumRecords));
    for (size_t I = 0; I != Mid->Lines.size(); ++I)
      ASSERT_EQ(Mid->Lines[I], LineAt(static_cast<unsigned>(I)));
    ++Replays;
  }
  Writer.join();

  // Quiesced: the final replay sees all records and no torn tail.
  Expected<WalContents> Final = WriteAheadLog::replay(Path);
  ASSERT_TRUE(Final.ok()) << Final.status();
  ASSERT_EQ(Final->Lines.size(), static_cast<size_t>(NumRecords));
  EXPECT_EQ(Final->TornBytes, 0u);
  EXPECT_GT(Replays, 0u);
  Wal.close();
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Resource budgets and transactional rollback
//===----------------------------------------------------------------------===//

TEST(BudgetTest, EdgeBudgetAbortRollsBackBitIdentical) {
  QueryEngine Engine(makeBundle(
      chainText(64), makeConfig(GraphForm::Inductive, CycleElim::Online)));
  ASSERT_TRUE(Engine.valid()) << Engine.initError();
  ASSERT_TRUE(Engine.rollbackArmed());

  // Budgets are part of the serialized options, so the pre-batch
  // reference bytes are captured with them already armed.
  Engine.solver().setBudgets(/*DeadlineMs=*/0, /*MaxEdgeBudget=*/1,
                             /*MaxMemBytes=*/0);
  std::vector<uint8_t> PreBytes = serialized(Engine.solver());

  // Flooding s through the 64-var chain breaches an edge budget of 1.
  Status St = Engine.addConstraint("s <= C0");
  ASSERT_FALSE(St.ok());
  EXPECT_EQ(St.code(), ErrorCode::BudgetExceeded);
  EXPECT_NE(St.message().find("edge_budget"), std::string::npos);

  // The graph is bit-identical to the pre-batch state — and, checked
  // independently of the snapshot machinery, structurally sound with
  // the pre-batch solutions per the reference oracle.
  EXPECT_EQ(serialized(Engine.solver()), PreBytes);
  EXPECT_TRUE(Engine.solver().verifyGraphInvariants());
  SolverBundle Pristine = makeBundle(
      chainText(64), makeConfig(GraphForm::Inductive, CycleElim::Online));
  EXPECT_EQ(Engine.solver().referenceLeastSolutions(),
            Pristine.Solver->referenceLeastSolutions());
  EXPECT_FALSE(Engine.solver().stats().Aborted);
  EXPECT_EQ(Engine.counters().BudgetAborts, 1u);
  EXPECT_EQ(Engine.counters().Rollbacks, 1u);
  EXPECT_EQ(Engine.counters().Additions, 0u);
  EXPECT_TRUE(Engine.journal().empty());

  // ...and the engine keeps serving queries.
  VarId C63 = Engine.varOf("C63");
  ASSERT_NE(C63, QueryEngine::NotFound);
  EXPECT_TRUE(Engine.pts(C63).empty());

  // Rollback restored the LIVE budgets, not the (unbudgeted) base ones:
  // the same offending line aborts again.
  EXPECT_EQ(Engine.addConstraint("s <= C0").code(),
            ErrorCode::BudgetExceeded);
  EXPECT_EQ(Engine.counters().BudgetAborts, 2u);
  EXPECT_EQ(serialized(Engine.solver()), PreBytes);

  // Disarming the budget lets the identical line through.
  Engine.solver().setBudgets(0, 0, 0);
  ASSERT_TRUE(Engine.addConstraint("s <= C0").ok());
  EXPECT_EQ(Engine.pts(C63), (std::vector<std::string>{"s"}));
  EXPECT_EQ(Engine.counters().Additions, 1u);
  EXPECT_EQ(Engine.journal(), (std::vector<std::string>{"s <= C0"}));
}

TEST(BudgetTest, RetractionReplayIsOneBatch) {
  // Retracting `t <= C0` replays every chain link. Each link fits an edge
  // budget of 20 on its own but the whole replay does not: on either
  // schedule the replay is one batch, bounded as a whole.
  const SolverOptions Config =
      makeConfig(GraphForm::Inductive, CycleElim::Online);
  const std::string Base = chainText(64) + "s <= C0\ncons t\n";
  for (ClosureMode Mode : {ClosureMode::Worklist, ClosureMode::Wave}) {
    SCOPED_TRACE(Mode == ClosureMode::Wave ? "wave" : "worklist");
    QueryEngine Engine(makeBundle(Base + "t <= C0\n", Config));
    ASSERT_TRUE(Engine.valid()) << Engine.initError();
    Engine.solver().setClosure(Mode);
    Engine.solver().setBudgets(/*DeadlineMs=*/0, /*MaxEdgeBudget=*/20,
                               /*MaxMemBytes=*/0);
    std::vector<uint8_t> PreBytes = serialized(Engine.solver());

    Status St = Engine.retractConstraint("t <= C0");
    ASSERT_FALSE(St.ok());
    EXPECT_EQ(St.code(), ErrorCode::BudgetExceeded);
    EXPECT_NE(St.message().find("edge_budget"), std::string::npos);
    EXPECT_EQ(Engine.counters().BudgetAborts, 1u);
    EXPECT_EQ(Engine.counters().Rollbacks, 1u);
    EXPECT_EQ(Engine.counters().Retractions, 0u);
    EXPECT_EQ(serialized(Engine.solver()), PreBytes);

    // A roomy budget lets the same retraction through, and the result is
    // a fresh solve of the surviving lines.
    Engine.solver().setBudgets(0, 100000, 0);
    ASSERT_TRUE(Engine.retractConstraint("t <= C0").ok());
    QueryEngine Fresh(makeBundle(Base, Config));
    ASSERT_TRUE(Fresh.valid()) << Fresh.initError();
    for (unsigned I = 0; I != 64; ++I) {
      std::string Name = "C" + std::to_string(I);
      EXPECT_EQ(Engine.ls(Engine.varOf(Name)), Fresh.ls(Fresh.varOf(Name)))
          << Name;
    }
    EXPECT_EQ(Engine.pts(Engine.varOf("C63")),
              (std::vector<std::string>{"s"}));
  }
}

TEST(BudgetTest, GenerousBudgetsDoNotFireOnSmallAdds) {
  QueryEngine Engine(makeBundle(
      chainText(8), makeConfig(GraphForm::Inductive, CycleElim::Online)));
  ASSERT_TRUE(Engine.valid()) << Engine.initError();
  Engine.solver().setBudgets(/*DeadlineMs=*/60000, /*MaxEdgeBudget=*/100000,
                             /*MaxMemBytes=*/0);
  Status Add = Engine.addConstraint("s <= C0");
  ASSERT_TRUE(Add.ok()) << Add;
  EXPECT_EQ(Engine.counters().BudgetAborts, 0u);
  EXPECT_EQ(Engine.pts(Engine.varOf("C7")),
            (std::vector<std::string>{"s"}));
}

TEST(BudgetTest, InjectedAbortViaFailpointRollsBack) {
  FailPointGuard Guard;
  QueryEngine Engine(makeBundle(
      chainText(16), makeConfig(GraphForm::Inductive, CycleElim::Online)));
  ASSERT_TRUE(Engine.valid()) << Engine.initError();
  std::vector<uint8_t> PreBytes = serialized(Engine.solver());

  ASSERT_TRUE(FailPoint::armSpec("solver.budget=error").ok());
  Status St = Engine.addConstraint("s <= C0");
  ASSERT_FALSE(St.ok());
  EXPECT_EQ(St.code(), ErrorCode::BudgetExceeded);
  EXPECT_NE(St.message().find("injected"), std::string::npos);
  EXPECT_EQ(serialized(Engine.solver()), PreBytes);

  // One-shot: the failpoint disarmed itself, so the retry succeeds.
  EXPECT_EQ(FailPoint::armedCount(), 0u);
  ASSERT_TRUE(Engine.addConstraint("s <= C0").ok());
  EXPECT_EQ(Engine.pts(Engine.varOf("C15")),
            (std::vector<std::string>{"s"}));
}

TEST(BudgetTest, CheckpointBaseMovesTheRollbackTarget) {
  QueryEngine Engine(makeBundle(
      chainText(32), makeConfig(GraphForm::Inductive, CycleElim::Online)));
  ASSERT_TRUE(Engine.valid()) << Engine.initError();

  ASSERT_TRUE(Engine.addConstraint("cons t").ok());
  ASSERT_TRUE(Engine.addConstraint("t <= C16").ok());
  EXPECT_EQ(Engine.journal().size(), 2u);

  ASSERT_TRUE(Engine.checkpointBase().ok());
  EXPECT_TRUE(Engine.journal().empty());

  // An abort after the checkpoint rolls back to the checkpoint, keeping
  // the pre-checkpoint additions. (Budgets are serialized options, so the
  // reference bytes are captured after arming them.)
  Engine.solver().setBudgets(0, 1, 0);
  std::vector<uint8_t> CheckpointBytes = serialized(Engine.solver());
  EXPECT_EQ(Engine.addConstraint("s <= C0").code(),
            ErrorCode::BudgetExceeded);
  EXPECT_EQ(serialized(Engine.solver()), CheckpointBytes);
  EXPECT_EQ(Engine.pts(Engine.varOf("C31")),
            (std::vector<std::string>{"t"}));
}

TEST(BudgetTest, JournaledLinesSurviveRollback) {
  // Accepted-but-not-checkpointed lines must be replayed into the rebuilt
  // solver: rollback undoes only the offending batch, never earlier acks.
  QueryEngine Engine(makeBundle(
      chainText(32), makeConfig(GraphForm::Inductive, CycleElim::Online)));
  ASSERT_TRUE(Engine.valid()) << Engine.initError();

  Engine.solver().setBudgets(0, 1000, 0); // Roomy: accepts small adds.
  ASSERT_TRUE(Engine.addConstraint("cons t").ok());
  ASSERT_TRUE(Engine.addConstraint("t <= C16").ok());

  Engine.solver().setBudgets(0, 1, 0);
  std::vector<uint8_t> AckedBytes = serialized(Engine.solver());
  EXPECT_EQ(Engine.addConstraint("s <= C0").code(),
            ErrorCode::BudgetExceeded);
  EXPECT_EQ(serialized(Engine.solver()), AckedBytes);
  EXPECT_EQ(Engine.journal(),
            (std::vector<std::string>{"cons t", "t <= C16"}));
  EXPECT_EQ(Engine.pts(Engine.varOf("C31")),
            (std::vector<std::string>{"t"}));
}

TEST(BudgetTest, CheckConstraintIsANonMutatingDryRun) {
  // checkConstraint vets the exact validations addConstraint applies —
  // the server uses it to keep unreplayable lines out of the WAL — and
  // must not change the graph or the declaration tables.
  QueryEngine Engine(makeBundle(
      chainText(8), makeConfig(GraphForm::Inductive, CycleElim::Online)));
  ASSERT_TRUE(Engine.valid()) << Engine.initError();
  std::vector<uint8_t> PreBytes = serialized(Engine.solver());

  EXPECT_EQ(Engine.checkConstraint("nonsense !!").code(),
            ErrorCode::ParseError);
  EXPECT_EQ(Engine.checkConstraint("undeclared <= C0").code(),
            ErrorCode::ParseError);
  EXPECT_EQ(Engine.checkConstraint("var C0").code(), ErrorCode::ParseError);
  EXPECT_EQ(Engine.checkConstraint("cons s + +").code(),
            ErrorCode::ParseError); // Redeclared with a new signature.
  EXPECT_TRUE(Engine.checkConstraint("var P Q").ok());
  EXPECT_TRUE(Engine.checkConstraint("cons t -").ok());
  EXPECT_TRUE(Engine.checkConstraint("s <= C0").ok());
  EXPECT_TRUE(Engine.checkConstraint("# comment").ok());

  // None of the checks (passing or failing) touched anything: the graph
  // is bit-identical and the vetted declarations are still fresh.
  EXPECT_EQ(serialized(Engine.solver()), PreBytes);
  ASSERT_TRUE(Engine.addConstraint("var P Q").ok());
  ASSERT_TRUE(Engine.addConstraint("cons t -").ok());

  // A line that passed checkConstraint applies cleanly.
  ASSERT_TRUE(Engine.addConstraint("s <= C0").ok());
  EXPECT_EQ(Engine.pts(Engine.varOf("C7")), (std::vector<std::string>{"s"}));
}

TEST(BudgetTest, UnserializableSolverReportsUnrecoverableBreach) {
  // A solver that aborted during its initial solve cannot be serialized,
  // so the engine comes up with rollback disarmed; a later breach is then
  // an Internal error, not a silent half-propagated graph.
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Options.MaxWork = 1;
  QueryEngine Engine(makeBundle(chainText(16) + "s <= C0\n", Options));
  ASSERT_TRUE(Engine.valid()) << Engine.initError();
  EXPECT_FALSE(Engine.rollbackArmed());
  EXPECT_TRUE(Engine.solver().stats().Aborted);

  Status St = Engine.addConstraint("C0 <= C1");
  ASSERT_FALSE(St.ok());
  EXPECT_EQ(St.code(), ErrorCode::Internal);
  EXPECT_NE(St.message().find("could not be rolled back"), std::string::npos);
  EXPECT_EQ(Engine.counters().BudgetAborts, 1u);
  EXPECT_EQ(Engine.counters().Rollbacks, 0u);
}

//===----------------------------------------------------------------------===//
// Warm recovery
//===----------------------------------------------------------------------===//

TEST(WarmRecoveryTest, SnapshotPlusReplayEqualsUninterrupted) {
  // The recovery invariant behind scserved: rebuilding from a snapshot
  // and replaying the WAL's lines yields a solver bit-identical to one
  // that never crashed. Both sides feed the same lines through
  // addConstraint; the only difference is the snapshot round trip.
  const std::vector<std::string> Lines = {
      "cons t", "var P", "t <= C5", "C5 <= P", "s <= C2"};
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);

  QueryEngine Uninterrupted(makeBundle(chainText(16), Options));
  ASSERT_TRUE(Uninterrupted.valid()) << Uninterrupted.initError();
  std::vector<uint8_t> BaseBytes = serialized(Uninterrupted.solver());

  // "Crash": lose the live engine, keep only BaseBytes + the lines.
  SolverBundle Recovered;
  Status Load =
      GraphSnapshot::deserialize(BaseBytes.data(), BaseBytes.size(), Recovered);
  ASSERT_TRUE(Load.ok()) << Load;
  QueryEngine Warm(std::move(Recovered));
  ASSERT_TRUE(Warm.valid()) << Warm.initError();

  for (const std::string &Line : Lines) {
    ASSERT_TRUE(Uninterrupted.addConstraint(Line).ok()) << Line;
    ASSERT_TRUE(Warm.addConstraint(Line).ok()) << Line;
  }
  EXPECT_EQ(serialized(Warm.solver()), serialized(Uninterrupted.solver()));
  EXPECT_EQ(Warm.pts(Warm.varOf("P")),
            Uninterrupted.pts(Uninterrupted.varOf("P")));
}

TEST(WarmRecoveryTest, WalBackedRecoveryEndToEnd) {
  // Same invariant, through the real durability pieces: an atomic
  // snapshot file plus a WAL on disk, recover from those alone.
  std::string SnapPath = tempPath("recovery.snap");
  std::string WalPath = tempPath("recovery.wal");
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);

  const std::vector<std::string> Lines = {"cons t", "t <= C3", "s <= C0"};
  {
    QueryEngine Engine(makeBundle(chainText(8), Options));
    ASSERT_TRUE(Engine.valid()) << Engine.initError();
    ASSERT_TRUE(GraphSnapshot::save(Engine.solver(), SnapPath).ok());
    WriteAheadLog Wal;
    ASSERT_TRUE(Wal.open(WalPath).ok());
    for (const std::string &Line : Lines) {
      ASSERT_TRUE(Wal.append(Line).ok());
      ASSERT_TRUE(Engine.addConstraint(Line).ok());
    }
    // Engine dies here with both files behind it.
  }

  SolverBundle Bundle;
  Status Load = GraphSnapshot::load(SnapPath, Bundle);
  ASSERT_TRUE(Load.ok()) << Load;
  QueryEngine Recovered(std::move(Bundle));
  ASSERT_TRUE(Recovered.valid()) << Recovered.initError();
  Expected<WalContents> Contents = WriteAheadLog::replay(WalPath);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  ASSERT_EQ(Contents->Lines, Lines);
  for (const std::string &Line : Contents->Lines)
    ASSERT_TRUE(Recovered.addConstraint(Line).ok()) << Line;

  // The recovered graph answers exactly like a fresh solve of the full
  // constraint sequence.
  QueryEngine Fresh(makeBundle(chainText(8), Options));
  for (const std::string &Line : Lines)
    ASSERT_TRUE(Fresh.addConstraint(Line).ok());
  EXPECT_EQ(serialized(Recovered.solver()), serialized(Fresh.solver()));
  EXPECT_EQ(Recovered.pts(Recovered.varOf("C7")),
            (std::vector<std::string>{"s", "t"}));
  std::remove(SnapPath.c_str());
  std::remove(WalPath.c_str());
}

//===----------------------------------------------------------------------===//
// Snapshot save/load under injected faults
//===----------------------------------------------------------------------===//

TEST(SnapshotFaultTest, FailedAtomicSaveLeavesOldSnapshotIntact) {
  FailPointGuard Guard;
  std::string Path = tempPath("atomic.snap");
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);

  SolverBundle First = makeBundle(chainText(4), Options);
  ASSERT_TRUE(GraphSnapshot::save(*First.Solver, Path).ok());
  std::vector<uint8_t> Good;
  std::string Error;
  ASSERT_TRUE(readFileBytes(Path, Good, &Error)) << Error;

  // A fault anywhere in the write path must leave the old file untouched
  // and no stray temp file behind.
  for (const char *Spec :
       {"atomic.write=error", "atomic.write=short",
        "atomic.before_fsync=error", "atomic.before_rename=error"}) {
    ASSERT_TRUE(FailPoint::armSpec(Spec).ok()) << Spec;
    SolverBundle Second = makeBundle(chainText(6), Options);
    Status St = GraphSnapshot::save(*Second.Solver, Path);
    EXPECT_FALSE(St.ok()) << Spec;
    EXPECT_EQ(St.code(), ErrorCode::IoError) << Spec;
    std::vector<uint8_t> Now;
    ASSERT_TRUE(readFileBytes(Path, Now, &Error)) << Error;
    EXPECT_EQ(Now, Good) << Spec;
    std::ifstream Tmp(Path + ".tmp");
    EXPECT_FALSE(Tmp.good()) << Spec << " left a stray temp file";
  }

  // And the old snapshot still loads.
  SolverBundle Bundle;
  Status Load = GraphSnapshot::load(Path, Bundle);
  ASSERT_TRUE(Load.ok()) << Load;
  std::remove(Path.c_str());
}

TEST(SnapshotFaultTest, LoadFailpointInjectsIoError) {
  FailPointGuard Guard;
  std::string Path = tempPath("loadfault.snap");
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  SolverBundle Saved = makeBundle(chainText(4), Options);
  ASSERT_TRUE(GraphSnapshot::save(*Saved.Solver, Path).ok());

  ASSERT_TRUE(FailPoint::armSpec("snapshot.load=error").ok());
  SolverBundle Bundle;
  Status Load = GraphSnapshot::load(Path, Bundle);
  ASSERT_FALSE(Load.ok());
  EXPECT_EQ(Load.code(), ErrorCode::IoError);
  EXPECT_EQ(Bundle.Solver, nullptr);

  // One-shot: the retry succeeds.
  ASSERT_TRUE(GraphSnapshot::load(Path, Bundle).ok());
  ASSERT_NE(Bundle.Solver, nullptr);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// ServerCore: one record codec, one commit
//===----------------------------------------------------------------------===//

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  WalRecord Add = WalRecord::add("a <= X");
  EXPECT_FALSE(Add.isRetract());
  EXPECT_EQ(Add.encode(), "a <= X");
  WalRecord Retract = WalRecord::retract("a <= X");
  EXPECT_TRUE(Retract.isRetract());
  EXPECT_EQ(Retract.encode(), "!retract a <= X");

  for (const WalRecord &Rec : {Add, Retract}) {
    WalRecord Back = WalRecord::decode(Rec.encode());
    EXPECT_EQ(Back.Op, Rec.Op) << Rec.encode();
    EXPECT_EQ(Back.Line, Rec.Line) << Rec.encode();
  }
  // Only the full prefix, space included, marks a retraction.
  EXPECT_FALSE(WalRecord::decode("!retract").isRetract());
  EXPECT_FALSE(WalRecord::decode("retract a <= X").isRetract());
}

namespace {

/// A WAL-armed ServerCore over chainText(\p N), recovered and ready.
std::unique_ptr<ServerCore> makeCore(unsigned N, ServerCoreConfig Config) {
  auto Core = std::make_unique<ServerCore>(
      makeBundle(chainText(N),
                 makeConfig(GraphForm::Inductive, CycleElim::Online)),
      /*CacheCapacity=*/16, std::move(Config));
  EXPECT_TRUE(Core->valid()) << Core->initError();
  Status Recovered = Core->recover(/*SnapBase=*/0);
  EXPECT_TRUE(Recovered.ok()) << Recovered;
  return Core;
}

uint64_t serializations() {
  return MetricsRegistry::global()
      .histogram("poce_snapshot_serialize_us")
      .count();
}

} // namespace

TEST(ServerCoreTest, CheckpointSerializesOnceAndRollsBackToIt) {
  ServerCoreConfig Config;
  Config.SnapshotPath = tempPath("core_checkpoint.snap");
  Config.WalPath = tempPath("core_checkpoint.wal");
  Config.EdgeBudget = 1000; // Roomy: accepts the small adds below.
  std::unique_ptr<ServerCore> Core = makeCore(32, Config);
  ASSERT_TRUE(Core->addLine("cons t").ok());
  ASSERT_TRUE(Core->addLine("t <= C16").ok());
  EXPECT_EQ(Core->walRecords(), 2u);

  // The snapshot the checkpoint writes is also the engine's new rollback
  // base: one serialization, not one per consumer. A save over the
  // startup snapshot is promoted to a checkpoint and serializes once too.
  uint64_t Before = serializations();
  ASSERT_TRUE(Core->checkpoint("").ok());
  EXPECT_EQ(serializations(), Before + 1);
  EXPECT_EQ(Core->walRecords(), 0u);
  EXPECT_TRUE(Core->engine().journal().empty());
  Before = serializations();
  ASSERT_TRUE(Core->save(Config.SnapshotPath).ok());
  EXPECT_EQ(serializations(), Before + 1);

  // A breach right after the checkpoint restores the checkpointed state,
  // and its record is erased from the WAL again. (Budgets are serialized
  // options, so the reference bytes are captured after arming them.)
  Core->engine().solver().setBudgets(0, 1, 0);
  std::vector<uint8_t> CheckpointBytes = serialized(Core->engine().solver());
  EXPECT_EQ(Core->addLine("s <= C0").code(), ErrorCode::BudgetExceeded);
  EXPECT_EQ(Core->engine().counters().Rollbacks, 1u);
  EXPECT_EQ(serialized(Core->engine().solver()), CheckpointBytes);
  EXPECT_EQ(Core->engine().pts(Core->engine().varOf("C31")),
            (std::vector<std::string>{"t"}));
  EXPECT_EQ(Core->walRecords(), 0u);
  Core->shutdownDrain();
  std::remove(Config.SnapshotPath.c_str());
  std::remove(Config.WalPath.c_str());
}

TEST(ServerCoreTest, RetractPrefixIsNotAVerbPayload) {
  // `!retract ` belongs to the WAL record encoding, not to the protocol:
  // a client spelling it inside an add or retract is refused exactly as
  // any other unparsable line, and nothing reaches the WAL.
  ServerCoreConfig Config;
  Config.WalPath = tempPath("core_prefix.wal");
  std::unique_ptr<ServerCore> Core = makeCore(4, Config);
  ASSERT_TRUE(Core->addLine("s <= C0").ok());
  const uint64_t Records = Core->walRecords();
  ASSERT_EQ(Records, 1u);

  for (const char *Line :
       {"add !retract s <= C0", "retract !retract s <= C0"}) {
    std::string Reply;
    EXPECT_EQ(Core->handleWriterVerb(parseRequest(Line), Reply),
              ServerCore::VerbResult::Answered)
        << Line;
    EXPECT_EQ(Reply, "err parse_error expected expression") << Line;
    EXPECT_EQ(Core->walRecords(), Records) << Line;
  }
  EXPECT_TRUE(Core->engine().solver().hasRootTag("s <= C0"));
  EXPECT_EQ(Core->engine().pts(Core->engine().varOf("C3")),
            (std::vector<std::string>{"s"}));

  // The verb that does retract reports the mutation, and its WAL record
  // carries the canonical text behind the prefix.
  std::string Reply;
  EXPECT_EQ(Core->handleWriterVerb(parseRequest("retract s   <= C0"), Reply),
            ServerCore::VerbResult::Mutated);
  EXPECT_EQ(Reply, "ok retracted");
  Core->shutdownDrain();
  Expected<WalContents> Contents = WriteAheadLog::replay(Config.WalPath);
  ASSERT_TRUE(Contents.ok()) << Contents.status();
  EXPECT_EQ(Contents->Lines,
            (std::vector<std::string>{"s <= C0", "!retract s <= C0"}));
  std::remove(Config.WalPath.c_str());
}
