//===- serve/ServerCore.h - Writer-side serving pipeline --------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The writer half of a poce server, factored out of scserved's request
/// loop so the stdin/stdout driver and the socket front end (net/Server.h)
/// share one implementation of the durability pipeline: WAL recovery and
/// append-before-apply, budget rollback, atomic checkpoints with base-id
/// re-stamping, the degraded mode a post-rename checkpoint failure forces,
/// and the stats/counters/metrics reply builders.
///
/// Threading: a ServerCore is single-owner. The stdin driver calls it from
/// its request loop; the socket server calls it from its single writer
/// lane. Concurrent *reads* never touch it — they go through the immutable
/// ReadViews (serve/ReadView.h) its engine builds and the socket server
/// publishes.
///
/// Every reply string and error code is byte-compatible with the PR 4/5
/// scserved loop (the serve_smoke.sh / crash_recovery.sh harnesses assert
/// on them), and the WAL invariant is unchanged: validation before
/// durability, durability before application, `ok added` implies the line
/// survives recovery.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SERVE_SERVERCORE_H
#define POCE_SERVE_SERVERCORE_H

#include "serve/QueryEngine.h"
#include "serve/Telemetry.h"
#include "serve/Wal.h"
#include "support/Status.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace poce {
namespace serve {

/// Lower-case hex rendering of a 64-bit id — the wire spelling of WAL
/// base ids and payload checksums in the replication verbs (`replicate`,
/// `rebase`, `verify`, `promote`). The wire parsers read it back with the
/// strict net::parseHexU64 (net/Replication.h).
inline std::string hexId(uint64_t Value) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%llx",
                static_cast<unsigned long long>(Value));
  return Buf;
}

/// Durability configuration of a ServerCore.
struct ServerCoreConfig {
  std::string SnapshotPath; ///< Startup snapshot path ("" = .scs base).
  std::string WalPath;      ///< Write-ahead log path ("" = WAL disarmed).
  uint64_t CheckpointEvery = 0; ///< Auto-checkpoint cadence (0 = never).
  uint64_t DeadlineMs = 0;      ///< Per-add closure deadline (0 = none).
  uint64_t EdgeBudget = 0;      ///< Per-add closure edge budget (0 = none).
  uint64_t MaxMemBytes = 0;     ///< Per-add RSS bound (0 = none).
};

/// Primary-side replication hooks, installed by the socket server's
/// writer lane. OnRecord fires after every durable, applied WAL append
/// (\p Seq is the record's index in the live log); OnRebase fires after
/// every WAL base-id re-stamp (checkpoints, and saves promoted to
/// checkpoints). Both run on the thread that owns the core, in event
/// order — a record event always precedes the rebase of the checkpoint
/// that absorbed it.
struct ReplicationSink {
  std::function<void(uint64_t Seq, const std::string &Line)> OnRecord;
  std::function<void(uint64_t NewBase)> OnRebase;
};

class ServerCore {
public:
  /// Wraps \p Bundle in a QueryEngine. The size_t is ignored: it sized the
  /// query cache the engine's view replaced, and callers outside the
  /// library still pass it. Check valid() before use.
  ServerCore(SolverBundle Bundle, size_t, ServerCoreConfig Config);

  bool valid() const { return Engine.valid(); }
  const std::string &initError() const { return Engine.initError(); }

  /// Warm recovery: replays the WAL's intact lines on top of the loaded
  /// base identified by \p SnapBase (the snapshot's payload checksum, 0
  /// for a fresh .scs solve), detecting and skipping a stale log left by
  /// an interrupted checkpoint; then opens the log for appending, arms
  /// the configured budgets, and re-captures the rollback base. Notes go
  /// to stderr exactly as the PR 4 loop printed them.
  Status recover(uint64_t SnapBase);

  QueryEngine &engine() { return Engine; }
  const QueryEngine &engine() const { return Engine; }

  /// What handleWriterVerb() did with a request.
  enum class VerbResult : uint8_t {
    NotMine,  ///< Not a writer verb (queries, help, quit); no reply.
    Answered, ///< Replied; the served state is unchanged.
    Mutated,  ///< Replied to an accepted add or retract.
  };

  /// Handles one writer-side verb — add, retract, save, checkpoint,
  /// stats, counters, metrics, verify, shutdown — and writes the full
  /// reply (one line, or the multi-line metrics payload) to \p Reply,
  /// which stays untouched for NotMine. A handled `shutdown` also flips
  /// shutdownRequested().
  VerbResult handleWriterVerb(const Request &Req, std::string &Reply);

  /// True when a handled `shutdown` verb asked the caller to drain and
  /// exit (the caller owns the actual loop teardown).
  bool shutdownRequested() const { return ShutdownSeen; }

  /// Graceful drain: every acknowledged add is already fsynced, so this
  /// just closes the WAL cleanly (recovery replays it either way).
  void shutdownDrain() { Wal.close(); }

  /// Commits an add record (see commit()); `ok added` iff this returns OK.
  Status addLine(const std::string &Line);

  /// Commits a retract record (see commit()), logged with the canonical
  /// text so warm recovery and followers replay the deletion in sequence
  /// with the adds around it — `ok retracted` iff this returns OK.
  Status retractLine(const std::string &Line);

  /// Atomic snapshot write; on success returns the byte count. A save
  /// over the startup snapshot is promoted to a checkpoint so the live
  /// WAL and restart agree on what the log extends.
  Expected<uint64_t> save(const std::string &Path);

  /// Atomic snapshot + WAL reset; "" targets the startup snapshot path.
  Status checkpoint(const std::string &Path);

  /// Server-loop counters (WAL/checkpoint state) for the telemetry
  /// builders.
  telemetry::ServerCounters counters() const;

  std::string statsReply() const {
    return telemetry::buildStatsReply(Engine, counters());
  }
  std::string countersReply() const {
    return telemetry::buildCountersReply(Engine, telemetry::queryCounter(),
                                         telemetry::queryLatencyHistogram());
  }
  std::string metricsReply() {
    return telemetry::buildMetricsReply(MetricsRegistry::global(), Engine,
                                        counters());
  }

  /// Dumps the registry (solver + serve counters exported) to \p Path as
  /// one JSON object, rewritten atomically.
  Status dumpMetricsTo(const std::string &Path);

  bool walArmed() const { return !Config.WalPath.empty(); }
  /// The WAL was disabled after a failed checkpoint; add/checkpoint are
  /// refused until restart (queries keep serving).
  bool walDegraded() const { return walArmed() && !Wal.isOpen(); }
  uint64_t walReplayed() const { return WalReplayed; }
  uint64_t walSkipped() const { return WalSkipped; }

  /// Serializes the engine's current graph (what save and checkpoint
  /// write) and returns its payload checksum via \p ChecksumOut (may be
  /// null). Non-const: serialization finalizes any lazily deferred solver
  /// state first, which is why only the single writer lane may call it.
  Status serializeState(std::vector<uint8_t> &Bytes,
                        uint64_t *ChecksumOut = nullptr);

  /// Canonical state checksum for the `verify` verb: a hash over every
  /// variable's rendered least solution, with items and variables sorted.
  /// Deliberately NOT the serialized-byte checksum — a live primary and a
  /// load-and-replay follower may collapse cycles onto different (equally
  /// valid) representatives, so byte identity is the wrong convergence
  /// signal; answer identity is the claim replication actually makes.
  /// Writer-lane only (reads through the engine's view).
  uint64_t canonicalChecksum();

  /// \name Replication (primary side)
  /// @{

  /// Installs (or clears) the hooks that observe WAL appends and base-id
  /// re-stamps. Owner-thread only, like every other mutation.
  void setReplicationSink(ReplicationSink Sink) { Repl = std::move(Sink); }

  uint64_t walBaseId() const { return Wal.baseId(); }
  uint64_t walRecords() const { return Wal.records(); }

  /// Builds the full `replicate <base> <seq>` handshake reply: the header
  /// line plus every catch-up record the follower is missing. When the
  /// follower's (base, seq) cursor matches the live log the reply is
  /// `ok tail <base> <seq>` followed by records [seq, N); otherwise the
  /// disk snapshot is shipped inline — `ok snapshot <base> <nbytes>`, a
  /// newline, the raw snapshot bytes, then records [0, N). If the disk
  /// snapshot does not embody the WAL's base id yet (fresh .scs start, or
  /// a snapshot someone replaced), a checkpoint first brings the pair in
  /// sync. \p NextSeq receives the follower's post-catch-up cursor (the
  /// live record count); \p SnapshotShipped reports which arm was taken.
  /// Requires --snapshot and --wal; refused while the WAL is degraded.
  Status buildReplicateStream(uint64_t FollowerBase, uint64_t FollowerSeq,
                              std::string &Reply, uint64_t &NextSeq,
                              bool &SnapshotShipped);
  /// @}

  /// \name Replication (follower side)
  /// @{

  /// Commits one record payload shipped by the primary as a replicated
  /// record (see commit()). Any failure after validation is divergence;
  /// the caller must re-bootstrap rather than keep serving.
  Status applyReplicated(const std::string &Line);

  /// Mirrors a primary checkpoint: checkpoints locally, then requires the
  /// freshly stamped base id to equal \p ExpectedBase (the id the primary
  /// announced). A mismatch is returned as Corruption — the follower has
  /// diverged — but the local (snapshot, WAL) pair stays self-consistent.
  Status replicaRebase(uint64_t ExpectedBase);

  /// Replaces the whole engine state with a snapshot shipped by the
  /// primary, then persists the new pair: snapshot file first, WAL
  /// re-stamped (empty) at \p Base second, so a crash between the two
  /// leaves only a stale log that recovery already knows to skip.
  Status rebootstrap(const std::vector<uint8_t> &Bytes, uint64_t Base);

  /// Failover: re-stamps the WAL base id via a checkpoint to the startup
  /// snapshot path and returns the new base. The caller owns flipping its
  /// read-only gate; state is unchanged (a checkpoint only re-anchors
  /// durability).
  Expected<uint64_t> promote();
  /// @}

private:
  /// The one mutation pipeline under addLine, retractLine and
  /// applyReplicated: validate (canonicalizing a retraction), WAL-append
  /// + fsync, apply, un-log on a budget rollback, publish the record to
  /// the replication sink, auto-checkpoint. A \p Replicated record comes
  /// from the primary: it applies with budgets disabled (it already fit
  /// the primary's; re-aborting here would be divergence, not
  /// protection) and never auto-checkpoints — the primary's rebase
  /// events drive a follower's checkpoint cadence.
  Status commit(WalRecord Rec, bool Replicated);
  /// Atomic snapshot write shared by save and checkpoint; Bytes and
  /// ChecksumOut are set as soon as serialization succeeds, even if the
  /// write then fails.
  Status saveSnapshot(const std::string &Path, std::vector<uint8_t> &Bytes,
                      uint64_t &ChecksumOut);
  /// Enters degraded mode: closes the WAL with a stderr note.
  void disableWal(const std::string &Why);
  Status doCheckpoint(const std::string &Path);
  static uint64_t snapshotFileChecksum(const std::string &Path);

  QueryEngine Engine;
  ServerCoreConfig Config;
  WriteAheadLog Wal;
  ReplicationSink Repl;
  uint64_t WalReplayed = 0;
  uint64_t WalSkipped = 0;
  uint64_t Checkpoints = 0;
  uint64_t WritesSinceCheckpoint = 0;
  bool ShutdownSeen = false;
};

} // namespace serve
} // namespace poce

#endif // POCE_SERVE_SERVERCORE_H
