//===- serve/Wal.h - Write-ahead log of accepted constraints ----*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A write-ahead log of incremental constraint lines. The serving
/// durability invariant is
///
///     acknowledged  =>  durable  =>  replayed
///
/// scserved appends every accepted write — an add or a retraction, one
/// WalRecord each — to the WAL (record + fsync) BEFORE applying it to the
/// solver, and only acknowledges after both succeeded. Warm recovery is:
/// load the last good snapshot, then replay the WAL's records through
/// the engine — which reproduces the crashed process's state exactly (a
/// solve is a deterministic function of the constraint sequence). A
/// checkpoint (atomic snapshot save) resets the WAL to empty, bounding
/// replay time.
///
/// File layout (little-endian):
///
///   header:  "POCEWAL\0" (8)  |  u32 format version
///            |  u64 base id (payload checksum of the snapshot this log
///               extends; 0 when the base is a fresh .scs solve)
///   record:  u32 payload length  |  u64 fnv1a64(payload)  |  payload
///
/// The base id makes the checkpoint protocol crash-atomic even though
/// the snapshot rename and the WAL reset are two separate durable
/// steps: a checkpoint renames the new snapshot into place first, then
/// reset()s the WAL stamping the new snapshot's checksum. A crash in
/// between leaves a WAL whose base id no longer matches the snapshot —
/// every one of its records is already contained in the renamed
/// snapshot, so recovery recognizes the log as stale by the mismatch
/// and skips it instead of re-applying (or dying on) its lines.
///
/// A crash mid-append leaves a torn final record; replay() detects it
/// (length overruns the file, or checksum mismatch) and reports the
/// prefix of intact records, which open() truncates away. A file
/// shorter than the header is a crash at creation time: the header is
/// fsynced before the first append can happen, so no record can have
/// been acknowledged — replay() reports it as empty with a torn header
/// and open() rewrites the header. Torn tails and torn headers are
/// expected states, not corruption: they hold only unacknowledged
/// bytes.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SERVE_WAL_H
#define POCE_SERVE_WAL_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace poce {
namespace serve {

/// Record payload prefix marking a retraction: `!retract <line>` undoes
/// the earlier record whose payload is exactly `<line>`. The `!` cannot
/// start an accepted constraint line, so add records and retraction
/// records share one payload namespace unambiguously — and retractions
/// ride the replication stream (`r <seq> !retract <line>`) unchanged.
inline constexpr char WalRetractPrefix[] = "!retract ";

/// One mutation as the WAL, the rollback journal and the replication
/// stream carry it: a constraint line to add, or one to retract. This is
/// the only codec for the payload encoding above — an add's payload is
/// its line verbatim, a retraction's is the prefix plus its line.
struct WalRecord {
  enum class Kind : uint8_t { Add, Retract };
  Kind Op = Kind::Add;
  /// The constraint line; for an accepted retraction, its canonical text.
  std::string Line;

  static WalRecord add(std::string Line) {
    return {Kind::Add, std::move(Line)};
  }
  static WalRecord retract(std::string Line) {
    return {Kind::Retract, std::move(Line)};
  }
  bool isRetract() const { return Op == Kind::Retract; }

  /// The record's payload bytes.
  std::string encode() const;
  /// The record a payload encodes: a retraction iff it starts with the
  /// prefix, an add of the whole payload otherwise.
  static WalRecord decode(const std::string &Payload);
};

/// What replay() recovered from a WAL file.
struct WalContents {
  /// Intact records, oldest first.
  std::vector<std::string> Lines;
  /// Payload checksum of the snapshot this log extends (header field).
  uint64_t BaseId = 0;
  /// Byte length of the intact prefix (header + whole records).
  uint64_t ValidBytes = 0;
  /// Bytes of torn/corrupt tail past the intact prefix (0 = clean file).
  uint64_t TornBytes = 0;
  /// False when the file is shorter than the header (a crash during WAL
  /// creation): Lines is empty, BaseId is 0, and every byte is torn.
  bool HeaderIntact = true;
  /// The header's format version (2 or 3). open() upgrades a version-2
  /// header to the current version in place so live logs are always
  /// current-version.
  uint32_t FileVersion = 0;
};

/// Append-only log handle. Not thread-safe; scserved is single-threaded
/// at the protocol layer.
class WriteAheadLog {
public:
  WriteAheadLog() = default;
  ~WriteAheadLog() { close(); }
  WriteAheadLog(const WriteAheadLog &) = delete;
  WriteAheadLog &operator=(const WriteAheadLog &) = delete;

  /// Parses \p Path without opening it for writing. A missing file is ok
  /// (empty contents), and so is a file shorter than the header
  /// (HeaderIntact=false — see above); a bad magic is Corruption, and a
  /// version outside {2, 3} is WalVersion (the clear "this binary is too
  /// old for this log" refusal — never silently misread). Version-2
  /// files are accepted for compatibility, but a version-2 file carrying
  /// a retraction record is also WalVersion: only a version-3 writer
  /// emits those, so the header must have been tampered with or
  /// downgraded. Torn tails are reported, not failed.
  static Expected<WalContents> replay(const std::string &Path);

  /// Opens \p Path for appending against the base snapshot identified
  /// by \p BaseId: creates the file (header fsynced along with its
  /// directory) if missing, rewrites the header if torn, validates it
  /// and truncates any torn tail otherwise. A file whose base id
  /// differs from \p BaseId does not extend the caller's snapshot; its
  /// records are DISCARDED and the header re-stamped — callers must
  /// replay() first and decide (with a warning) that the mismatch is a
  /// stale log, not a misconfiguration, before opening. A valid
  /// version-2 file kept intact has its header version upgraded to the
  /// current version in place (4-byte pwrite + fsync), so a log that is
  /// open for appending is always current-version. Fails if already
  /// open.
  Status open(const std::string &Path, uint64_t BaseId = 0);

  /// Appends one record and fsyncs. On any failure the file is truncated
  /// back to its pre-append length, so the log never accumulates torn
  /// records from failed appends (a crash can still tear the tail).
  /// Failpoints: `wal.append.pre` (before any bytes: crash here = record
  /// absent), `wal.append.mid` (after half the record: crash here = torn
  /// tail), either in error mode injects a failure.
  Status append(const std::string &Line);

  /// Truncates the log back to exactly \p Bytes (a value previously read
  /// from sizeBytes(), i.e. a record boundary). Used to drop a
  /// just-appended record whose application was rejected, keeping WAL
  /// contents == accepted lines.
  Status truncateTo(uint64_t Bytes);

  /// Empties the log back to just the header and stamps \p NewBaseId
  /// (the checksum of the snapshot that made the records redundant).
  /// Truncates before stamping: a crash in between leaves an empty log
  /// with the old base id, which the next open() recognizes as stale
  /// and re-stamps — never old records paired with the new id.
  Status reset(uint64_t NewBaseId);

  /// reset() keeping the current base id (the records became redundant
  /// without the base snapshot changing).
  Status reset() { return reset(BaseId); }

  bool isOpen() const { return Fd >= 0; }
  uint64_t sizeBytes() const { return Size; }
  uint64_t records() const { return RecordOffsets.size(); }
  uint64_t baseId() const { return BaseId; }
  const std::string &path() const { return Path; }

  void close();

  static constexpr char Magic[8] = {'P', 'O', 'C', 'E', 'W', 'A', 'L', '\0'};
  /// Version 2 added the base id to the header; version 3 added
  /// retraction records (`!retract <line>` payloads). Version-2 files
  /// are still readable — the record encoding is unchanged — but a
  /// version-2 reader must refuse version-3 logs, since skipping a
  /// retraction record would silently replay retracted constraints.
  static constexpr uint32_t Version = 3;
  static constexpr size_t HeaderSize = 20;

private:
  int Fd = -1;
  std::string Path;
  uint64_t Size = 0;
  uint64_t BaseId = 0;
  /// Start offset of every record, so truncateTo can keep records() exact.
  std::vector<uint64_t> RecordOffsets;
};

} // namespace serve
} // namespace poce

#endif // POCE_SERVE_WAL_H
