//===- support/ByteStream.h - Bounds-checked binary IO ----------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian byte-stream helpers for the snapshot subsystem
/// (serve/GraphSnapshot): a growable ByteWriter, a bounds-checked
/// ByteReader with sticky error state, an FNV-1a checksum, and whole-file
/// read/write utilities.
///
/// The encoding is explicitly little-endian (bytes are composed and
/// decomposed arithmetically), so snapshots are portable across hosts
/// regardless of native endianness. The reader never trusts the input:
/// every primitive read checks the remaining byte count and records a
/// positioned error message instead of reading out of bounds, and once a
/// read fails every subsequent read fails too — callers can batch reads
/// and check failed() once.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SUPPORT_BYTESTREAM_H
#define POCE_SUPPORT_BYTESTREAM_H

#include "support/Status.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace poce {

/// Computes the 64-bit FNV-1a hash of \p Size bytes, continuing from
/// \p Seed (pass the default to start a fresh hash).
uint64_t fnv1a64(const uint8_t *Data, size_t Size,
                 uint64_t Seed = 0xcbf29ce484222325ULL);

/// Growable little-endian binary writer.
class ByteWriter {
public:
  void u8(uint8_t Value) { Buffer.push_back(Value); }

  void u32(uint32_t Value) {
    for (int Shift = 0; Shift != 32; Shift += 8)
      Buffer.push_back(static_cast<uint8_t>(Value >> Shift));
  }

  void u64(uint64_t Value) {
    for (int Shift = 0; Shift != 64; Shift += 8)
      Buffer.push_back(static_cast<uint8_t>(Value >> Shift));
  }

  void bytes(const void *Data, size_t Size) {
    const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
    Buffer.insert(Buffer.end(), Bytes, Bytes + Size);
  }

  /// Writes a u32 length prefix followed by the string bytes.
  void str(const std::string &Value) {
    u32(static_cast<uint32_t>(Value.size()));
    bytes(Value.data(), Value.size());
  }

  size_t size() const { return Buffer.size(); }

  /// Overwrites the 8 bytes at \p Offset with \p Value (little-endian);
  /// used to back-patch checksums and sizes after the payload is known.
  void patchU64(size_t Offset, uint64_t Value);

  const std::vector<uint8_t> &buffer() const { return Buffer; }
  std::vector<uint8_t> take() { return std::move(Buffer); }

private:
  std::vector<uint8_t> Buffer;
};

/// Bounds-checked little-endian binary reader over a borrowed buffer.
/// All reads return false (and leave the output untouched) once the
/// stream has failed; the first failure records a positioned message.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  bool u8(uint8_t &Out);
  bool u32(uint32_t &Out);
  bool u64(uint64_t &Out);

  /// Reads a u32 length prefix and that many bytes into \p Out. Fails if
  /// the declared length exceeds the remaining bytes.
  bool str(std::string &Out);

  /// Marks the stream as failed with \p Reason (annotated with the
  /// current byte offset). Used by callers for semantic validation
  /// failures so they surface like truncation errors.
  void fail(const std::string &Reason);

  bool failed() const { return Failed; }
  const std::string &error() const { return Error; }
  size_t position() const { return Pos; }
  size_t remaining() const { return Failed ? 0 : Size - Pos; }

private:
  bool take(size_t N, const char *What);

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
  std::string Error;
};

/// Writes \p Buffer to \p Path directly (truncate + write + close).
/// NOT crash-safe: an interrupted write leaves a truncated file at
/// \p Path. Use writeFileAtomic for anything a restart must be able to
/// trust. Returns false and fills \p ErrorOut on failure. Failpoint:
/// `bytestream.write` (error, short).
bool writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Buffer,
                    std::string *ErrorOut);

/// Crash-safe whole-file write: writes `<Path>.tmp`, fsyncs it, renames
/// it over \p Path, then fsyncs the containing directory so the rename
/// itself is durable. A crash at any point leaves either the old file
/// intact or the new file complete — never a truncated \p Path (at worst
/// a stray `.tmp`). Failpoints: `atomic.write` (error, short, crash),
/// `atomic.before_fsync` and `atomic.before_rename` (crash between the
/// corresponding steps; error injects a failure there).
Status writeFileAtomic(const std::string &Path,
                       const std::vector<uint8_t> &Buffer);

/// An IoError Status of \p What followed by the message of the current
/// errno. Call it right after the failing system call.
Status posixError(const std::string &What);

/// fsyncs the directory containing \p Path so a just-created or renamed
/// entry is durable across power loss.
Status fsyncParentDir(const std::string &Path);

/// Reads all of \p Path into \p Buffer. Returns false and fills
/// \p ErrorOut on failure.
bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Buffer,
                   std::string *ErrorOut);

} // namespace poce

#endif // POCE_SUPPORT_BYTESTREAM_H
