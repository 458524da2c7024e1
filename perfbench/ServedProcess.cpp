//===- perfbench/ServedProcess.cpp - One scserved child process -----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "ServedProcess.h"

#include "net/Client.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace poce;
using namespace poce::perfbench;

namespace {

uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

ServedProcess::~ServedProcess() { kill(); }

Status ServedProcess::start(const std::string &Binary,
                            const std::vector<std::string> &Args,
                            const std::string &LogPath, uint64_t TimeoutMs) {
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return Status::error(ErrorCode::IoError,
                         std::string("pipe: ") + std::strerror(errno));
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  posix_spawn_file_actions_addopen(&Actions, STDERR_FILENO, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_addopen(&Actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>(Binary.c_str()));
  for (const std::string &Arg : Args)
    Argv.push_back(const_cast<char *>(Arg.c_str()));
  Argv.push_back(nullptr);
  int Err = posix_spawn(&Pid, Binary.c_str(), &Actions, nullptr, Argv.data(),
                        environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);
  if (Err != 0) {
    Pid = -1;
    ::close(Pipe[0]);
    return Status::error(ErrorCode::IoError, "spawning " + Binary + ": " +
                                                 std::strerror(Err));
  }
  StdoutFd = Pipe[0];

  // Read stdout lines until the listening line; the server prints nothing
  // else there in socket mode, so the pipe never fills afterwards.
  std::string Buffered;
  const uint64_t Deadline = nowMs() + TimeoutMs;
  while (Buffered.find("ok listening") == std::string::npos) {
    uint64_t Now = nowMs();
    if (Now >= Deadline) {
      kill();
      return Status::error(ErrorCode::Timeout,
                           "scserved not listening after " +
                               std::to_string(TimeoutMs) + " ms");
    }
    struct pollfd P = {StdoutFd, POLLIN, 0};
    int Ready = ::poll(&P, 1, static_cast<int>(Deadline - Now));
    if (Ready < 0 && errno == EINTR)
      continue;
    if (Ready <= 0)
      continue;
    char Buf[512];
    ssize_t N = ::read(StdoutFd, Buf, sizeof(Buf));
    if (N <= 0) {
      kill();
      return Status::error(ErrorCode::IoError,
                           "scserved exited during start-up: " + Buffered);
    }
    Buffered.append(Buf, static_cast<size_t>(N));
  }
  return Status();
}

double ServedProcess::peakRssMb() const {
  if (Pid <= 0)
    return 0;
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

bool ServedProcess::reap(uint64_t TimeoutMs, int &ExitStatus) {
  const uint64_t Deadline = nowMs() + TimeoutMs;
  for (;;) {
    pid_t Got = ::waitpid(Pid, &ExitStatus, WNOHANG);
    if (Got == Pid || (Got < 0 && errno != EINTR)) {
      Pid = -1;
      if (StdoutFd >= 0)
        ::close(StdoutFd);
      StdoutFd = -1;
      return true;
    }
    if (nowMs() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Status ServedProcess::shutdown(const std::string &SocketPath,
                               uint64_t TimeoutMs) {
  if (Pid <= 0)
    return Status();
  net::LineClient Client;
  Status Connected = Client.connectUnix(SocketPath);
  std::string Reply;
  Status Asked = Connected.ok() ? Client.request("shutdown", Reply) : Connected;
  Client.close();
  int ExitStatus = 0;
  if (!Asked.ok() || Reply != "ok shutting_down" ||
      !reap(TimeoutMs, ExitStatus)) {
    kill();
    return Status::error(ErrorCode::Internal,
                         "scserved did not shut down cleanly (reply '" +
                             Reply + "')");
  }
  if (!WIFEXITED(ExitStatus) || WEXITSTATUS(ExitStatus) != 0)
    return Status::error(ErrorCode::Internal,
                         "scserved exited with status " +
                             std::to_string(ExitStatus));
  return Status();
}

void ServedProcess::kill() {
  if (Pid <= 0)
    return;
  ::kill(Pid, SIGKILL);
  int ExitStatus = 0;
  while (!reap(1000, ExitStatus)) {
  }
}
