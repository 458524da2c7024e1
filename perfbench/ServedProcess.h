//===- perfbench/ServedProcess.h - One scserved child process ---*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns one scserved child process serving over a Unix socket: spawns it,
/// waits for its `ok listening` line, reads its peak RSS, and stops it
/// with the `shutdown` verb. The destructor kills and reaps a child that
/// is still running, so no error path leaves a server behind.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_PERFBENCH_SERVEDPROCESS_H
#define POCE_PERFBENCH_SERVEDPROCESS_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace poce {
namespace perfbench {

class ServedProcess {
public:
  ServedProcess() = default;
  ~ServedProcess();
  ServedProcess(const ServedProcess &) = delete;
  ServedProcess &operator=(const ServedProcess &) = delete;

  /// Spawns \p Binary with \p Args (stderr appended to \p LogPath) and
  /// blocks until it prints `ok listening` or \p TimeoutMs elapses.
  Status start(const std::string &Binary, const std::vector<std::string> &Args,
               const std::string &LogPath, uint64_t TimeoutMs);

  /// Peak resident set size of the child in MiB (VmHWM), 0 if unknown.
  double peakRssMb() const;

  /// Sends `shutdown` over \p SocketPath and reaps the child; kills it if
  /// it has not exited within \p TimeoutMs.
  Status shutdown(const std::string &SocketPath, uint64_t TimeoutMs);

  bool running() const { return Pid > 0; }

private:
  /// SIGKILL + reap (no-op when nothing runs).
  void kill();
  /// Reaps the child, waiting at most \p TimeoutMs; true once reaped.
  bool reap(uint64_t TimeoutMs, int &ExitStatus);

  pid_t Pid = -1;
  int StdoutFd = -1;
};

} // namespace perfbench
} // namespace poce

#endif // POCE_PERFBENCH_SERVEDPROCESS_H
