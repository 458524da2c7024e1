//===- serve/Wal.cpp - Write-ahead log of accepted constraints ------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "serve/Wal.h"

#include "support/ByteStream.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace poce {
namespace serve {

constexpr char WriteAheadLog::Magic[8];

namespace {

Status writeAll(int Fd, const uint8_t *Data, size_t Size,
                const std::string &Path) {
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::write(Fd, Data + Done, Size - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return posixError("write to WAL '" + Path + "' failed");
    }
    Done += static_cast<size_t>(N);
  }
  return Status();
}

uint32_t decodeU32(const uint8_t *Data) {
  uint32_t Value = 0;
  for (int Shift = 0; Shift != 32; Shift += 8)
    Value |= static_cast<uint32_t>(*Data++) << Shift;
  return Value;
}

uint64_t decodeU64(const uint8_t *Data) {
  uint64_t Value = 0;
  for (int Shift = 0; Shift != 64; Shift += 8)
    Value |= static_cast<uint64_t>(*Data++) << Shift;
  return Value;
}

/// One record's on-disk bytes: u32 length | u64 checksum | payload.
std::vector<uint8_t> encodeRecord(const std::string &Line) {
  ByteWriter Writer;
  Writer.u32(static_cast<uint32_t>(Line.size()));
  Writer.u64(fnv1a64(reinterpret_cast<const uint8_t *>(Line.data()),
                     Line.size()));
  Writer.bytes(Line.data(), Line.size());
  return Writer.take();
}

std::vector<uint8_t> encodeHeader(uint64_t BaseId) {
  ByteWriter Writer;
  Writer.bytes(WriteAheadLog::Magic, sizeof(WriteAheadLog::Magic));
  Writer.u32(WriteAheadLog::Version);
  Writer.u64(BaseId);
  return Writer.take();
}

constexpr size_t RecordPrefixSize = 4 + 8; // length + checksum
constexpr size_t VersionOffset = sizeof(WriteAheadLog::Magic);
constexpr size_t BaseIdOffset = sizeof(WriteAheadLog::Magic) + 4;

/// Appends are fsync-bound (~ms), so the histogram record is free by
/// comparison and is taken unconditionally — no timing gate here.
Histogram &appendHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_wal_append_us",
      "Microseconds per acknowledged WAL append (write + fsync)");
  return H;
}

Histogram &replayHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_wal_replay_us", "Microseconds per WAL replay scan");
  return H;
}

Counter &replayedLinesCounter() {
  static Counter &C = MetricsRegistry::global().counter(
      "poce_wal_replayed_lines_total",
      "Intact records recovered across WAL replays");
  return C;
}

} // namespace

std::string WalRecord::encode() const {
  return isRetract() ? WalRetractPrefix + Line : Line;
}

WalRecord WalRecord::decode(const std::string &Payload) {
  constexpr size_t PrefixLen = sizeof(WalRetractPrefix) - 1;
  if (Payload.compare(0, PrefixLen, WalRetractPrefix) == 0)
    return retract(Payload.substr(PrefixLen));
  return add(Payload);
}

Expected<WalContents> WriteAheadLog::replay(const std::string &Path) {
  const uint64_t StartUs = trace::nowMicros();
  WalContents Contents;
  if (FailPoint::hit("wal.replay") == FailPoint::Mode::Error)
    return FailPoint::injectedError("wal.replay");
  {
    struct stat StatBuf;
    if (::stat(Path.c_str(), &StatBuf) != 0 && errno == ENOENT)
      return Contents; // No WAL yet: nothing to replay.
  }
  std::vector<uint8_t> Bytes;
  std::string Error;
  if (!readFileBytes(Path, Bytes, &Error))
    return Status::error(ErrorCode::IoError, Error);

  // Shorter than the header means a crash during creation: the header is
  // written and fsynced before appends are possible, so no record can
  // have been acknowledged. Empty-with-torn-header, not corruption.
  if (Bytes.size() < HeaderSize) {
    Contents.HeaderIntact = false;
    Contents.TornBytes = Bytes.size();
    return Contents;
  }
  if (std::memcmp(Bytes.data(), Magic, sizeof(Magic)) != 0)
    return Status::error(ErrorCode::Corruption,
                         "WAL '" + Path + "' has a bad magic");
  uint32_t FileVersion = decodeU32(Bytes.data() + sizeof(Magic));
  if (FileVersion != 2 && FileVersion != Version)
    return Status::error(ErrorCode::WalVersion,
                         "WAL '" + Path + "' has unsupported version " +
                             std::to_string(FileVersion) +
                             " (this binary understands versions 2-" +
                             std::to_string(Version) + ")");
  Contents.FileVersion = FileVersion;
  Contents.BaseId = decodeU64(Bytes.data() + BaseIdOffset);

  // A record that does not fit in the remaining bytes, or whose payload
  // fails its checksum, is a torn tail — a crash mid-append. Everything
  // before it is intact by construction (appends are sequential and
  // fsynced in order).
  size_t Pos = HeaderSize;
  while (Pos < Bytes.size()) {
    if (Bytes.size() - Pos < RecordPrefixSize)
      break;
    uint32_t Length = decodeU32(Bytes.data() + Pos);
    uint64_t Sum = decodeU64(Bytes.data() + Pos + 4);
    if (Bytes.size() - Pos - RecordPrefixSize < Length)
      break;
    const uint8_t *Payload = Bytes.data() + Pos + RecordPrefixSize;
    if (fnv1a64(Payload, Length) != Sum)
      break;
    Contents.Lines.emplace_back(reinterpret_cast<const char *>(Payload),
                                Length);
    // Only a version-3 writer emits retraction records: one inside a
    // version-2 file means the header was downgraded or tampered with,
    // and replaying it as a constraint line would corrupt the recovered
    // state. Refuse rather than guess.
    if (FileVersion < 3 && WalRecord::decode(Contents.Lines.back()).isRetract())
      return Status::error(ErrorCode::WalVersion,
                           "WAL '" + Path +
                               "' claims version 2 but contains a "
                               "retraction record");
    Pos += RecordPrefixSize + Length;
  }
  Contents.ValidBytes = Pos;
  Contents.TornBytes = Bytes.size() - Pos;
  replayHistogram().record(trace::nowMicros() - StartUs);
  replayedLinesCounter().inc(Contents.Lines.size());
  trace::complete("wal.replay", StartUs);
  return Contents;
}

Status WriteAheadLog::open(const std::string &OpenPath, uint64_t OpenBaseId) {
  if (isOpen())
    return Status::error(ErrorCode::FailedPrecondition,
                         "WAL is already open on '" + Path + "'");

  Expected<WalContents> Recovered = replay(OpenPath);
  if (!Recovered.ok())
    return Recovered.status().withContext("opening WAL");
  bool Existed = false;
  {
    struct stat StatBuf;
    Existed = ::stat(OpenPath.c_str(), &StatBuf) == 0;
  }

  int NewFd = ::open(OpenPath.c_str(), O_WRONLY | O_CREAT, 0644);
  if (NewFd < 0)
    return posixError("cannot open WAL '" + OpenPath + "'");

  // A torn header (crash at creation) or a base-id mismatch (stale log
  // whose records the caller's snapshot already contains) both mean no
  // byte of the file extends this base: start it over.
  bool StartOver = !Existed || !Recovered->HeaderIntact ||
                   Recovered->BaseId != OpenBaseId;
  Status St;
  if (StartOver) {
    if (Existed && ::ftruncate(NewFd, 0) != 0)
      St = posixError("truncate stale WAL '" + OpenPath + "'");
    std::vector<uint8_t> Header = encodeHeader(OpenBaseId);
    if (St.ok())
      St = writeAll(NewFd, Header.data(), Header.size(), OpenPath);
    if (St.ok() && ::fsync(NewFd) != 0)
      St = posixError("fsync WAL '" + OpenPath + "'");
    if (St.ok() && !Existed)
      St = fsyncParentDir(OpenPath);
  } else {
    // Drop the torn tail (unacknowledged bytes) so appends extend the
    // intact prefix.
    if (Recovered->TornBytes &&
        ::ftruncate(NewFd, static_cast<off_t>(Recovered->ValidBytes)) != 0)
      St = posixError("truncate torn tail of WAL '" + OpenPath + "'");
    // A kept version-2 log gets its header version bumped in place: the
    // next append may be a retraction record, which a version-2 header
    // would claim cannot exist. Upgrade before the first append can
    // land, and fsync so a crash never leaves a retraction record
    // behind an old header.
    if (St.ok() && Recovered->FileVersion != Version) {
      uint8_t Encoded[4];
      for (int I = 0; I != 4; ++I)
        Encoded[I] = static_cast<uint8_t>(Version >> (8 * I));
      if (::pwrite(NewFd, Encoded, sizeof(Encoded),
                   static_cast<off_t>(VersionOffset)) !=
          static_cast<ssize_t>(sizeof(Encoded)))
        St = posixError("upgrade header version of WAL '" + OpenPath + "'");
      else if (::fsync(NewFd) != 0)
        St = posixError("fsync WAL '" + OpenPath + "'");
    }
    if (St.ok() &&
        ::lseek(NewFd, static_cast<off_t>(Recovered->ValidBytes), SEEK_SET) <
            0)
      St = posixError("seek WAL '" + OpenPath + "'");
  }
  if (!St.ok()) {
    ::close(NewFd);
    return St;
  }

  Fd = NewFd;
  Path = OpenPath;
  Size = StartOver ? HeaderSize : Recovered->ValidBytes;
  BaseId = OpenBaseId;
  RecordOffsets.clear();
  if (!StartOver) {
    uint64_t Offset = HeaderSize;
    for (const std::string &Line : Recovered->Lines) {
      RecordOffsets.push_back(Offset);
      Offset += RecordPrefixSize + Line.size();
    }
  }
  return Status();
}

Status WriteAheadLog::append(const std::string &Line) {
  if (!isOpen())
    return Status::error(ErrorCode::FailedPrecondition, "WAL is not open");

  if (FailPoint::hit("wal.append.pre") != FailPoint::Mode::Off)
    return FailPoint::injectedError("wal.append.pre");

  const uint64_t StartUs = trace::nowMicros();

  // The record goes out in two halves with the `wal.append.mid`
  // failpoint between them: a crash armed there dies with exactly the
  // torn tail a real mid-append SIGKILL would leave. Records are tens of
  // bytes, so the extra write syscall is noise next to the fsync.
  std::vector<uint8_t> Record = encodeRecord(Line);
  size_t Half = Record.size() / 2;
  Status St = writeAll(Fd, Record.data(), Half, Path);
  if (St.ok() && FailPoint::hit("wal.append.mid") != FailPoint::Mode::Off)
    St = FailPoint::injectedError("wal.append.mid");
  if (St.ok())
    St = writeAll(Fd, Record.data() + Half, Record.size() - Half, Path);
  if (St.ok() && ::fsync(Fd) != 0)
    St = posixError("fsync WAL '" + Path + "'");
  if (!St.ok()) {
    // Roll the file back to the last record boundary; if even that
    // fails, the torn record is handled like a crash at next open.
    (void)::ftruncate(Fd, static_cast<off_t>(Size));
    (void)::lseek(Fd, static_cast<off_t>(Size), SEEK_SET);
    return St;
  }
  RecordOffsets.push_back(Size);
  Size += Record.size();
  appendHistogram().record(trace::nowMicros() - StartUs);
  trace::complete("wal.append", StartUs);
  return Status();
}

Status WriteAheadLog::truncateTo(uint64_t Bytes) {
  if (!isOpen())
    return Status::error(ErrorCode::FailedPrecondition, "WAL is not open");
  if (Bytes < HeaderSize || Bytes > Size)
    return Status::error(ErrorCode::InvalidArgument,
                         "WAL truncation target " + std::to_string(Bytes) +
                             " is not within the log");
  if (::ftruncate(Fd, static_cast<off_t>(Bytes)) != 0)
    return posixError("truncate WAL '" + Path + "'");
  if (::lseek(Fd, static_cast<off_t>(Bytes), SEEK_SET) < 0)
    return posixError("seek WAL '" + Path + "'");
  if (::fsync(Fd) != 0)
    return posixError("fsync WAL '" + Path + "'");
  Size = Bytes;
  while (!RecordOffsets.empty() && RecordOffsets.back() >= Bytes)
    RecordOffsets.pop_back();
  return Status();
}

Status WriteAheadLog::reset(uint64_t NewBaseId) {
  // Truncate first, stamp second: a crash in between leaves an empty
  // log with the old base id — recognized as stale and re-stamped at
  // the next open — never old records paired with the new id.
  Status St = truncateTo(HeaderSize);
  if (!St.ok())
    return St;
  if (NewBaseId != BaseId) {
    uint8_t Encoded[8];
    for (int I = 0; I != 8; ++I)
      Encoded[I] = static_cast<uint8_t>(NewBaseId >> (8 * I));
    ssize_t N = ::pwrite(Fd, Encoded, sizeof(Encoded),
                         static_cast<off_t>(BaseIdOffset));
    if (N != static_cast<ssize_t>(sizeof(Encoded)))
      return posixError("stamp base id of WAL '" + Path + "'");
    if (::fsync(Fd) != 0)
      return posixError("fsync WAL '" + Path + "'");
    BaseId = NewBaseId;
  }
  return Status();
}

void WriteAheadLog::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  Path.clear();
  Size = 0;
  BaseId = 0;
  RecordOffsets.clear();
}

} // namespace serve
} // namespace poce
