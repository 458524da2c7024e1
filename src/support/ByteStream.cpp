//===- support/ByteStream.cpp - Bounds-checked binary IO ------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "support/ByteStream.h"

#include "support/FailPoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace poce {

uint64_t fnv1a64(const uint8_t *Data, size_t Size, uint64_t Seed) {
  uint64_t Hash = Seed;
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= Data[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

void ByteWriter::patchU64(size_t Offset, uint64_t Value) {
  for (int Shift = 0; Shift != 64; Shift += 8)
    Buffer[Offset + static_cast<size_t>(Shift / 8)] =
        static_cast<uint8_t>(Value >> Shift);
}

bool ByteReader::take(size_t N, const char *What) {
  if (Failed)
    return false;
  if (Size - Pos < N) {
    Failed = true;
    Error = std::string("truncated input: need ") + std::to_string(N) +
            " byte(s) for " + What + " at offset " + std::to_string(Pos) +
            " but only " + std::to_string(Size - Pos) + " remain";
    return false;
  }
  return true;
}

bool ByteReader::u8(uint8_t &Out) {
  if (!take(1, "u8"))
    return false;
  Out = Data[Pos++];
  return true;
}

bool ByteReader::u32(uint32_t &Out) {
  if (!take(4, "u32"))
    return false;
  uint32_t Value = 0;
  for (int Shift = 0; Shift != 32; Shift += 8)
    Value |= static_cast<uint32_t>(Data[Pos++]) << Shift;
  Out = Value;
  return true;
}

bool ByteReader::u64(uint64_t &Out) {
  if (!take(8, "u64"))
    return false;
  uint64_t Value = 0;
  for (int Shift = 0; Shift != 64; Shift += 8)
    Value |= static_cast<uint64_t>(Data[Pos++]) << Shift;
  Out = Value;
  return true;
}

bool ByteReader::str(std::string &Out) {
  uint32_t Length;
  if (!u32(Length))
    return false;
  if (!take(Length, "string body"))
    return false;
  Out.assign(reinterpret_cast<const char *>(Data + Pos), Length);
  Pos += Length;
  return true;
}

void ByteReader::fail(const std::string &Reason) {
  if (Failed)
    return;
  Failed = true;
  Error = Reason + " (at offset " + std::to_string(Pos) + ")";
}

bool writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Buffer,
                    std::string *ErrorOut) {
  FailPoint::Mode Fault = FailPoint::hit("bytestream.write");
  if (Fault == FailPoint::Mode::Error) {
    if (ErrorOut)
      *ErrorOut = FailPoint::injectedError("bytestream.write").message();
    return false;
  }
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File) {
    if (ErrorOut)
      *ErrorOut = "cannot open '" + Path + "' for writing";
    return false;
  }
  // Short mode writes only half the payload and then reports failure,
  // leaving the truncated file on disk — exactly the hazard
  // writeFileAtomic exists to rule out.
  size_t ToWrite =
      Fault == FailPoint::Mode::Short ? Buffer.size() / 2 : Buffer.size();
  size_t Written =
      ToWrite == 0 ? 0 : std::fwrite(Buffer.data(), 1, ToWrite, File);
  bool Ok = std::fclose(File) == 0 && Written == Buffer.size();
  if (!Ok && ErrorOut)
    *ErrorOut = "short write to '" + Path + "'";
  return Ok;
}

Status posixError(const std::string &What) {
  return Status::error(ErrorCode::IoError,
                       What + ": " + std::strerror(errno));
}

Status fsyncParentDir(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir =
      Slash == std::string::npos ? "." : Path.substr(0, Slash);
  if (Dir.empty())
    Dir = "/";
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd < 0)
    return posixError("cannot open directory '" + Dir + "' for fsync");
  Status St;
  if (::fsync(DirFd) != 0)
    St = posixError("fsync directory '" + Dir + "'");
  ::close(DirFd);
  return St;
}

Status writeFileAtomic(const std::string &Path,
                       const std::vector<uint8_t> &Buffer) {
  const std::string Tmp = Path + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return posixError("cannot open '" + Tmp + "' for writing");

  Status St;
  FailPoint::Mode Fault = FailPoint::hit("atomic.write");
  size_t ToWrite =
      Fault == FailPoint::Mode::Short ? Buffer.size() / 2 : Buffer.size();
  size_t Done = 0;
  while (Done < ToWrite) {
    ssize_t N = ::write(Fd, Buffer.data() + Done, ToWrite - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      St = posixError("write to '" + Tmp + "' failed");
      break;
    }
    Done += static_cast<size_t>(N);
  }
  if (St.ok() && Fault != FailPoint::Mode::Off)
    St = FailPoint::injectedError("atomic.write");

  if (St.ok() && FailPoint::hit("atomic.before_fsync") != FailPoint::Mode::Off)
    St = FailPoint::injectedError("atomic.before_fsync");
  if (St.ok() && ::fsync(Fd) != 0)
    St = posixError("fsync '" + Tmp + "'");
  if (::close(Fd) != 0 && St.ok())
    St = posixError("close '" + Tmp + "'");

  if (St.ok() &&
      FailPoint::hit("atomic.before_rename") != FailPoint::Mode::Off)
    St = FailPoint::injectedError("atomic.before_rename");
  if (St.ok() && ::rename(Tmp.c_str(), Path.c_str()) != 0)
    St = posixError("rename '" + Tmp + "' to '" + Path + "'");

  if (!St.ok()) {
    // The target was never touched; drop the partial temp file.
    ::unlink(Tmp.c_str());
    return St;
  }
  return fsyncParentDir(Path).withContext("after renaming '" + Path + "'");
}

bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Buffer,
                   std::string *ErrorOut) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    if (ErrorOut)
      *ErrorOut = "cannot open '" + Path + "' for reading";
    return false;
  }
  Buffer.clear();
  uint8_t Chunk[65536];
  size_t Got;
  while ((Got = std::fread(Chunk, 1, sizeof(Chunk), File)) > 0)
    Buffer.insert(Buffer.end(), Chunk, Chunk + Got);
  bool Ok = std::ferror(File) == 0;
  std::fclose(File);
  if (!Ok && ErrorOut)
    *ErrorOut = "read error on '" + Path + "'";
  return Ok;
}

} // namespace poce
