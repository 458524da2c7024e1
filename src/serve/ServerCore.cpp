//===- serve/ServerCore.cpp - Writer-side serving pipeline ----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "serve/ServerCore.h"

#include "serve/GraphSnapshot.h"
#include "support/ByteStream.h"
#include "support/FailPoint.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

using namespace poce;
using namespace poce::serve;

Request poce::serve::parseRequest(const std::string &Line) {
  Request Req;
  std::istringstream In(Line);
  In >> Req.Verb >> Req.Arg1 >> Req.Arg2;
  size_t VerbEnd = Line.find(Req.Verb);
  if (VerbEnd != std::string::npos) {
    size_t RestAt = VerbEnd + Req.Verb.size();
    while (RestAt < Line.size() && Line[RestAt] == ' ')
      ++RestAt;
    Req.Rest = Line.substr(RestAt);
  }
  return Req;
}

ServerCore::ServerCore(SolverBundle Bundle, size_t CacheCapacity,
                       ServerCoreConfig InConfig)
    : Engine(std::move(Bundle), CacheCapacity), Config(std::move(InConfig)) {}

Status ServerCore::recover(uint64_t SnapBase) {
  if (walArmed()) {
    Expected<WalContents> Recovered = WriteAheadLog::replay(Config.WalPath);
    if (!Recovered.ok())
      return Recovered.status();
    if (!Recovered->HeaderIntact) {
      std::fprintf(stderr,
                   "scserved: note: WAL '%s' has a torn header (crash "
                   "during creation); no record was acknowledged, "
                   "starting it over\n",
                   Config.WalPath.c_str());
    } else if (Recovered->BaseId != SnapBase && !Recovered->Lines.empty()) {
      // A checkpoint crashed between the snapshot rename and the WAL
      // reset: every record in the log is already contained in the
      // renamed snapshot. Replaying them would double-apply (and fail on
      // re-declarations), so skip the log and re-stamp it below.
      WalSkipped = Recovered->Lines.size();
      std::fprintf(stderr,
                   "scserved: note: WAL '%s' is stale (base id %llx does "
                   "not match the snapshot's %llx; an interrupted "
                   "checkpoint left it behind); skipping %llu line(s) "
                   "already contained in the snapshot\n",
                   Config.WalPath.c_str(),
                   static_cast<unsigned long long>(Recovered->BaseId),
                   static_cast<unsigned long long>(SnapBase),
                   static_cast<unsigned long long>(WalSkipped));
    } else {
      // Budgets off for replay: each line fit its budget when first
      // accepted, and a snapshot saved with budgets armed must not
      // re-abort here.
      Engine.solver().setBudgets(0, 0, 0);
      for (const std::string &ReplayLine : Recovered->Lines) {
        Status Applied = Engine.apply(WalRecord::decode(ReplayLine));
        if (!Applied)
          return Applied.withContext("WAL replay failed (log does not "
                                     "extend this snapshot?)");
        ++WalReplayed;
      }
    }
    Status Opened = Wal.open(Config.WalPath, SnapBase);
    if (!Opened)
      return Opened;
  }
  Engine.solver().setBudgets(Config.DeadlineMs, Config.EdgeBudget,
                             Config.MaxMemBytes);
  // Budgets configured after recovery apply to every subsequent add; the
  // rollback base must reflect the recovered (not the loaded) graph.
  if (WalReplayed) {
    Status Checkpointed = Engine.checkpointBase();
    if (!Checkpointed)
      return Checkpointed;
  }
  return Status();
}

uint64_t ServerCore::snapshotFileChecksum(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::string Error;
  if (!readFileBytes(Path, Bytes, &Error))
    return 0;
  return GraphSnapshot::payloadChecksum(Bytes.data(), Bytes.size());
}

Status ServerCore::serializeState(std::vector<uint8_t> &Bytes,
                                  uint64_t *ChecksumOut) {
  Bytes.clear();
  Status Serialized = GraphSnapshot::serialize(Engine.solver(), Bytes);
  if (!Serialized)
    return Serialized;
  if (ChecksumOut)
    *ChecksumOut = GraphSnapshot::payloadChecksum(Bytes.data(), Bytes.size());
  return Status();
}

uint64_t ServerCore::canonicalChecksum() {
  const ConstraintSolver &Solver = Engine.solver();
  uint32_t NumVars = Solver.numVars();
  std::vector<std::string> Lines;
  Lines.reserve(NumVars);
  for (uint32_t V = 0; V != NumVars; ++V) {
    // Copy before sorting: ls() hands back a reference into the view
    // cache, and item order follows internal term ids, which legitimately
    // differ across a serialize/load round trip.
    std::vector<std::string> Items = Engine.ls(V);
    std::sort(Items.begin(), Items.end());
    std::string Line = Solver.varName(V);
    Line += '=';
    for (const std::string &Item : Items) {
      Line += Item;
      Line += ',';
    }
    Lines.push_back(std::move(Line));
  }
  // Sorted so the hash is independent of variable-id assignment order.
  std::sort(Lines.begin(), Lines.end());
  uint64_t Hash = 14695981039346656037ULL;
  for (const std::string &Line : Lines) {
    Hash = fnv1a64(reinterpret_cast<const uint8_t *>(Line.data()),
                   Line.size(), Hash);
    uint8_t Sep = '\n';
    Hash = fnv1a64(&Sep, 1, Hash);
  }
  return Hash;
}

Status ServerCore::saveSnapshot(const std::string &Path,
                                std::vector<uint8_t> &Bytes,
                                uint64_t &ChecksumOut) {
  if (FailPoint::hit("snapshot.save") != FailPoint::Mode::Off)
    return FailPoint::injectedError("snapshot.save");
  Status Serialized = serializeState(Bytes, &ChecksumOut);
  if (!Serialized)
    return Serialized;
  return writeFileAtomic(Path, Bytes);
}

void ServerCore::disableWal(const std::string &Why) {
  if (!Wal.isOpen())
    return;
  std::fprintf(stderr,
               "scserved: disabling WAL '%s' (%s); add/checkpoint are "
               "refused until restart, which recovers cleanly\n",
               Config.WalPath.c_str(), Why.c_str());
  Wal.close();
}

Status ServerCore::doCheckpoint(const std::string &Path) {
  if (walDegraded())
    return Status::error(ErrorCode::FailedPrecondition,
                         "WAL is disabled after a failed checkpoint; "
                         "restart to recover");
  const uint64_t StartUs = trace::nowMicros();
  std::vector<uint8_t> Bytes;
  uint64_t NewBase = 0;
  Status Saved = saveSnapshot(Path, Bytes, NewBase);
  if (!Saved) {
    // writeFileAtomic can fail after the rename (directory fsync): if
    // the new snapshot actually landed, the WAL no longer extends the
    // base under our feet.
    if (NewBase != 0 && snapshotFileChecksum(Path) == NewBase)
      disableWal("the new snapshot was renamed into place but the "
                 "checkpoint failed");
    return Saved.withContext("checkpoint");
  }
  // The new snapshot is durable; the crash window between here and the
  // WAL reset is covered by the base id (recovery sees the mismatch
  // and skips the stale log), and the failpoint lets the harness land
  // exactly inside it.
  Status St;
  if (FailPoint::hit("checkpoint.before_wal_reset") != FailPoint::Mode::Off)
    St = FailPoint::injectedError("checkpoint.before_wal_reset");
  if (St.ok() && Wal.isOpen())
    St = Wal.reset(NewBase);
  if (!St.ok()) {
    disableWal("the snapshot was checkpointed but the WAL reset "
               "failed: " +
               St.message());
    return St.withContext("checkpoint");
  }
  if (Wal.isOpen() && Repl.OnRebase)
    Repl.OnRebase(NewBase);
  Engine.checkpointBase(std::move(Bytes));
  ++Checkpoints;
  WritesSinceCheckpoint = 0;
  telemetry::checkpointHistogram().record(trace::nowMicros() - StartUs);
  trace::complete("serve.checkpoint", StartUs);
  return Status();
}

Status ServerCore::checkpoint(const std::string &Path) {
  std::string Target = Path.empty() ? Config.SnapshotPath : Path;
  if (Target.empty())
    return Status::error(ErrorCode::InvalidArgument,
                         "checkpoint needs a path (no --snapshot)");
  return doCheckpoint(Target);
}

Expected<uint64_t> ServerCore::save(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  uint64_t Checksum = 0;
  Status Saved = saveSnapshot(Path, Bytes, Checksum);
  if (!Saved)
    return Saved;
  const uint64_t Size = Bytes.size();
  // Saving over the startup snapshot (under whatever spelling of its
  // path) makes the open WAL stale: every record is contained in the
  // file just written. Promote the save to a checkpoint so restart
  // and the live server agree on what the WAL extends.
  if (Wal.isOpen() && !Config.SnapshotPath.empty() &&
      snapshotFileChecksum(Config.SnapshotPath) == Checksum) {
    Status Reset = Wal.reset(Checksum);
    if (!Reset) {
      disableWal("the save replaced the startup snapshot but the "
                 "WAL reset failed: " +
                 Reset.message());
      return Reset.withContext("save");
    }
    if (Repl.OnRebase)
      Repl.OnRebase(Checksum);
    Engine.checkpointBase(std::move(Bytes));
    ++Checkpoints;
    WritesSinceCheckpoint = 0;
  }
  return Size;
}

Status ServerCore::commit(WalRecord Rec, bool Replicated) {
  if (walDegraded())
    return Status::error(ErrorCode::FailedPrecondition,
                         "WAL is disabled after a failed "
                         "checkpoint; restart to recover");
  // Validation before durability, durability before application: a
  // record reaches the WAL only after a dry run proves it would apply
  // cleanly (so a crash right after the fsync can never leave an
  // unreplayable record durable), and once the append returns, a crash
  // at any later point leaves the record in the WAL, so `ok added` /
  // `ok retracted` implies it survives recovery. The WAL carries a
  // retraction's canonical text, so recovery retracts exactly the tag
  // the solver recorded, however the client spelled the line. The only
  // post-append rejection left is a budget breach, whose record is
  // erased again so the log only ever contains accepted records.
  Status Checked = Engine.check(Rec);
  if (!Checked)
    return Replicated ? Checked.withContext("replicated line rejected")
                      : Checked;
  const std::string Payload = Rec.encode();
  const char *What = Replicated         ? "replicated line"
                     : Rec.isRetract() ? "retraction"
                                       : "add";
  const uint64_t WalMark = Wal.sizeBytes();
  if (Wal.isOpen()) {
    Status Logged = Wal.append(Payload);
    if (!Logged)
      return Logged;
  }
  // A replicated record fit the primary's budgets when it was first
  // accepted; a follower that re-aborts it has diverged, not been
  // protected, so budgets are off around its apply.
  if (Replicated)
    Engine.solver().setBudgets(0, 0, 0);
  Status Applied = Engine.apply(std::move(Rec));
  if (Replicated)
    Engine.solver().setBudgets(Config.DeadlineMs, Config.EdgeBudget,
                               Config.MaxMemBytes);
  if (!Applied) {
    if (Wal.isOpen()) {
      Status Undone = Wal.truncateTo(WalMark);
      if (!Undone)
        return Undone.withContext(std::string("unlogging rejected ") + What);
    }
    return Applied;
  }
  ++WritesSinceCheckpoint;
  if (Wal.isOpen() && Repl.OnRecord)
    Repl.OnRecord(Wal.records() - 1, Payload);
  // Followers checkpoint on the primary's rebase events instead.
  if (!Replicated && Config.CheckpointEvery > 0 &&
      WritesSinceCheckpoint >= Config.CheckpointEvery) {
    Status Done = doCheckpoint(Config.SnapshotPath);
    if (!Done)
      // The write itself succeeded and is durable; surface the
      // checkpoint failure without un-acking it.
      std::fprintf(stderr, "scserved: auto-checkpoint failed: %s\n",
                   Done.toString().c_str());
  }
  return Status();
}

Status ServerCore::addLine(const std::string &Line) {
  if (Line.empty())
    return Status::error(ErrorCode::InvalidArgument,
                         "add needs a constraint-file line");
  return commit(WalRecord::add(Line), /*Replicated=*/false);
}

Status ServerCore::retractLine(const std::string &Line) {
  if (Line.empty())
    return Status::error(ErrorCode::InvalidArgument,
                         "retract needs a constraint line");
  return commit(WalRecord::retract(Line), /*Replicated=*/false);
}

Status ServerCore::buildReplicateStream(uint64_t FollowerBase,
                                        uint64_t FollowerSeq,
                                        std::string &Reply, uint64_t &NextSeq,
                                        bool &SnapshotShipped) {
  SnapshotShipped = false;
  if (!walArmed() || Config.SnapshotPath.empty())
    return Status::error(ErrorCode::FailedPrecondition,
                         "replication needs --snapshot and --wal on the "
                         "primary");
  if (walDegraded())
    return Status::error(ErrorCode::FailedPrecondition,
                         "WAL is disabled after a failed checkpoint; "
                         "restart to recover");
  if (FailPoint::hit("repl.ship") != FailPoint::Mode::Off)
    return FailPoint::injectedError("repl.ship");
  // The disk snapshot must embody the WAL's base id before either arm
  // makes sense: a fresh .scs start has no snapshot file yet, and a
  // replaced file would ship bytes the log does not extend. A checkpoint
  // brings the pair in sync atomically (and re-stamps the base id, which
  // followers see as a rebase). Base id 0 always checkpoints first: it
  // stamps a fresh-.scs base, not a content identity, so two servers
  // both at 0 could still hold arbitrarily different states — a
  // follower's (0, 0) cursor must never read as a matching tail.
  if (Wal.baseId() == 0 ||
      snapshotFileChecksum(Config.SnapshotPath) != Wal.baseId()) {
    Status Synced = doCheckpoint(Config.SnapshotPath);
    if (!Synced)
      return Synced.withContext("replicate: syncing the disk snapshot");
  }
  const uint64_t Base = Wal.baseId();
  const uint64_t Records = Wal.records();
  const bool Tail = FollowerBase == Base && FollowerSeq <= Records;
  const uint64_t From = Tail ? FollowerSeq : 0;

  std::vector<std::string> Lines;
  if (Records > From) {
    // The live WriteAheadLog keeps offsets, not payloads; its own file is
    // the canonical copy (every record is written before it is acked).
    Expected<WalContents> Contents = WriteAheadLog::replay(Config.WalPath);
    if (!Contents.ok())
      return Contents.status().withContext("replicate: reading the live "
                                           "WAL");
    if (Contents->BaseId != Base || Contents->Lines.size() < Records)
      return Status::error(ErrorCode::Internal,
                           "live WAL disagrees with its own file");
    Lines.assign(Contents->Lines.begin() + static_cast<ptrdiff_t>(From),
                 Contents->Lines.begin() + static_cast<ptrdiff_t>(Records));
  }

  if (Tail) {
    Reply = "ok tail " + hexId(Base) + " " + std::to_string(From);
  } else {
    std::vector<uint8_t> Bytes;
    std::string Error;
    if (!readFileBytes(Config.SnapshotPath, Bytes, &Error))
      return Status::error(ErrorCode::IoError,
                           "replicate: reading the disk snapshot: " + Error);
    if (GraphSnapshot::payloadChecksum(Bytes.data(), Bytes.size()) != Base)
      return Status::error(ErrorCode::Internal,
                           "disk snapshot changed under the replicate "
                           "handshake");
    Reply = "ok snapshot " + hexId(Base) + " " + std::to_string(Bytes.size());
    Reply += '\n';
    Reply.append(reinterpret_cast<const char *>(Bytes.data()), Bytes.size());
    SnapshotShipped = true;
  }
  for (size_t I = 0; I != Lines.size(); ++I)
    Reply += "\nr " + std::to_string(From + I) + " " + Lines[I];
  NextSeq = Records;
  return Status();
}

Status ServerCore::applyReplicated(const std::string &Line) {
  if (Line.empty())
    return Status::error(ErrorCode::InvalidArgument,
                         "replicated record is empty");
  if (!Wal.isOpen())
    return Status::error(ErrorCode::FailedPrecondition,
                         "follower WAL is not open");
  if (FailPoint::hit("repl.apply") != FailPoint::Mode::Off)
    return FailPoint::injectedError("repl.apply");
  return commit(WalRecord::decode(Line), /*Replicated=*/true);
}

Status ServerCore::replicaRebase(uint64_t ExpectedBase) {
  Status Done = doCheckpoint(Config.SnapshotPath);
  if (!Done)
    return Done.withContext("follower checkpoint at rebase");
  if (Wal.baseId() != ExpectedBase)
    return Status::error(ErrorCode::Corruption,
                         "diverged from the primary: local checkpoint "
                         "base " +
                             hexId(Wal.baseId()) +
                             " != announced base " + hexId(ExpectedBase));
  return Status();
}

Status ServerCore::rebootstrap(const std::vector<uint8_t> &Bytes,
                               uint64_t Base) {
  if (!walArmed() || Config.SnapshotPath.empty())
    return Status::error(ErrorCode::FailedPrecondition,
                         "bootstrap needs --snapshot and --wal");
  if (GraphSnapshot::payloadChecksum(Bytes.data(), Bytes.size()) != Base)
    return Status::error(ErrorCode::Corruption,
                         "shipped snapshot does not match the advertised "
                         "base id " +
                             hexId(Base));
  Status Reset = Engine.resetFromSnapshot(Bytes.data(), Bytes.size());
  if (!Reset)
    return Reset.withContext("bootstrap");
  Status Written = writeFileAtomic(Config.SnapshotPath, Bytes);
  if (!Written)
    return Written.withContext("persisting the bootstrap snapshot");
  Wal.close();
  Status Opened = Wal.open(Config.WalPath, Base);
  if (!Opened)
    return Opened.withContext("re-opening the follower WAL");
  // open() keeps records whose base happens to match; they predate this
  // bootstrap, so truncate to an empty log at the new base.
  Status Stamped = Wal.reset(Base);
  if (!Stamped)
    return Stamped.withContext("re-stamping the follower WAL");
  WritesSinceCheckpoint = 0;
  if (Repl.OnRebase)
    Repl.OnRebase(Base);
  return Status();
}

Expected<uint64_t> ServerCore::promote() {
  Status Done = checkpoint(std::string());
  if (!Done)
    return Done.withContext("promote");
  return Wal.baseId();
}

telemetry::ServerCounters ServerCore::counters() const {
  telemetry::ServerCounters S;
  S.WalReplayed = WalReplayed;
  S.WalSkipped = WalSkipped;
  S.Checkpoints = Checkpoints;
  S.WalRecords = Wal.records();
  S.WalBytes = Wal.sizeBytes();
  return S;
}

Status ServerCore::dumpMetricsTo(const std::string &Path) {
  MetricsRegistry &R = MetricsRegistry::global();
  Engine.solver().stats().exportTo(R);
  telemetry::exportServeMetrics(R, Engine, counters());
  std::string Json = R.renderJson() + "\n";
  std::vector<uint8_t> Bytes(Json.begin(), Json.end());
  return writeFileAtomic(Path, Bytes);
}

ServerCore::VerbResult ServerCore::handleWriterVerb(const Request &Req,
                                                    std::string &Reply) {
  auto Err = [&Reply](const Status &St) { Reply = "err " + St.wire(); };
  if (Req.Verb == "stats") {
    Reply = statsReply();
    return VerbResult::Answered;
  }
  if (Req.Verb == "counters") {
    Reply = countersReply();
    return VerbResult::Answered;
  }
  if (Req.Verb == "metrics") {
    Reply = metricsReply();
    return VerbResult::Answered;
  }
  if (Req.Verb == "save") {
    if (Req.Arg1.empty()) {
      Err(Status::error(ErrorCode::InvalidArgument, "save needs a path"));
      return VerbResult::Answered;
    }
    Expected<uint64_t> Bytes = save(Req.Arg1);
    if (!Bytes.ok()) {
      Err(Bytes.status());
      return VerbResult::Answered;
    }
    Reply = "ok saved " + Req.Arg1 + " (" + std::to_string(*Bytes) +
            " bytes)";
    return VerbResult::Answered;
  }
  if (Req.Verb == "checkpoint") {
    Status Done = checkpoint(Req.Arg1);
    if (!Done) {
      Err(Done);
      return VerbResult::Answered;
    }
    Reply = "ok checkpoint " +
            (Req.Arg1.empty() ? Config.SnapshotPath : Req.Arg1);
    return VerbResult::Answered;
  }
  if (Req.Verb == "add" || Req.Verb == "retract") {
    const bool Add = Req.Verb == "add";
    Status Done = Add ? addLine(Req.Rest) : retractLine(Req.Rest);
    if (!Done) {
      Err(Done);
      return VerbResult::Answered;
    }
    Reply = Add ? "ok added" : "ok retracted";
    return VerbResult::Mutated;
  }
  if (Req.Verb == "verify") {
    // Consistency check across a replication pair: both sides hash every
    // variable's rendered least solution (canonicalChecksum) and compare.
    // Serialized bytes would be the wrong signal here — see the method
    // comment in ServerCore.h.
    Reply = "ok verify checksum=" + hexId(canonicalChecksum()) +
            " base=" + hexId(Wal.baseId()) +
            " records=" + std::to_string(Wal.records());
    return VerbResult::Answered;
  }
  if (Req.Verb == "shutdown") {
    // Graceful drain: the caller stops its loop; every acknowledged add
    // is already fsynced, so closing the WAL is the whole flush.
    ShutdownSeen = true;
    shutdownDrain();
    Reply = "ok shutting_down";
    return VerbResult::Answered;
  }
  return VerbResult::NotMine;
}
