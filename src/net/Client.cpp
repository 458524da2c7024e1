//===- net/Client.cpp - Blocking line-protocol client ---------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"

#include "net/Socket.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace poce;
using namespace poce::net;

namespace {

/// Jittered exponential backoff shared by the connect retries:
/// 25 ms * 2^attempt (capped at 1 s), scaled by a uniform ±50% jitter so
/// a fleet of reconnecting followers does not thundering-herd a
/// restarted primary.
uint64_t backoffDelayMs(unsigned Attempt, std::minstd_rand &Rng) {
  uint64_t Base = 25u << (Attempt < 6 ? Attempt : 6);
  if (Base > 1000)
    Base = 1000;
  uint64_t Jitter = Base / 2 + Rng() % (Base + 1); // [base/2, 3*base/2]
  return Jitter;
}

uint64_t steadyNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

template <typename ConnectFn>
Status connectWithBackoff(ConnectFn Connect, uint64_t DeadlineMs,
                          uint64_t JitterSeed) {
  std::minstd_rand Rng(JitterSeed ? static_cast<unsigned>(JitterSeed)
                                  : std::random_device{}());
  const uint64_t Start = steadyNowMs();
  unsigned Attempt = 0;
  for (;;) {
    Status Connected = Connect();
    if (Connected.ok())
      return Connected;
    uint64_t Delay = backoffDelayMs(Attempt++, Rng);
    uint64_t Elapsed = steadyNowMs() - Start;
    if (Elapsed + Delay > DeadlineMs)
      return Connected.withContext("connect retries exhausted after " +
                                   std::to_string(Elapsed) + " ms");
    std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
  }
}

} // namespace

Status LineClient::connectTcp(const std::string &HostPort) {
  close();
  Expected<int> Connected = net::connectTcp(HostPort);
  if (!Connected.ok())
    return Connected.status();
  Fd = *Connected;
  return Status();
}

Status LineClient::connectUnix(const std::string &Path) {
  close();
  Expected<int> Connected = net::connectUnix(Path);
  if (!Connected.ok())
    return Connected.status();
  Fd = *Connected;
  return Status();
}

Status LineClient::connectTcpWithBackoff(const std::string &HostPort,
                                         uint64_t DeadlineMs,
                                         uint64_t JitterSeed) {
  return connectWithBackoff([&] { return connectTcp(HostPort); }, DeadlineMs,
                            JitterSeed);
}

Status LineClient::connectUnixWithBackoff(const std::string &Path,
                                          uint64_t DeadlineMs,
                                          uint64_t JitterSeed) {
  return connectWithBackoff([&] { return connectUnix(Path); }, DeadlineMs,
                            JitterSeed);
}

Status LineClient::setRecvTimeoutMs(uint64_t Ms) {
  if (Fd < 0)
    return Status::error(ErrorCode::FailedPrecondition, "not connected");
  timeval Tv{};
  Tv.tv_sec = static_cast<time_t>(Ms / 1000);
  Tv.tv_usec = static_cast<suseconds_t>((Ms % 1000) * 1000);
  if (::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv)) < 0)
    return Status::error(ErrorCode::IoError,
                         std::string("setsockopt(SO_RCVTIMEO): ") +
                             std::strerror(errno));
  return Status();
}

Status LineClient::sendLine(const std::string &Line) {
  if (Fd < 0)
    return Status::error(ErrorCode::FailedPrecondition, "not connected");
  std::string Wire = Line + "\n";
  size_t Sent = 0;
  while (Sent < Wire.size()) {
    // MSG_NOSIGNAL: a closed peer is an error to report, not a SIGPIPE
    // (a follower's tail must outlive its primary).
    ssize_t N =
        ::send(Fd, Wire.data() + Sent, Wire.size() - Sent, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(ErrorCode::IoError,
                           std::string("write: ") + std::strerror(errno));
    }
    Sent += static_cast<size_t>(N);
  }
  return Status();
}

Status LineClient::recvLine(std::string &Out) {
  if (Fd < 0)
    return Status::error(ErrorCode::FailedPrecondition, "not connected");
  for (;;) {
    size_t Nl = Pending.find('\n');
    if (Nl != std::string::npos) {
      Out.assign(Pending, 0, Nl);
      Pending.erase(0, Nl + 1);
      return Status();
    }
    char Buf[4096];
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return Status::error(ErrorCode::Timeout, "receive timeout");
      return Status::error(ErrorCode::IoError,
                           std::string("read: ") + std::strerror(errno));
    }
    if (N == 0)
      return Status::error(ErrorCode::NotFound,
                           "connection closed by server");
    Pending.append(Buf, static_cast<size_t>(N));
  }
}

bool LineClient::tryRecvLine(std::string &Out) {
  if (Fd < 0)
    return false;
  size_t Nl = Pending.find('\n');
  if (Nl == std::string::npos) {
    char Buf[4096];
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N > 0)
      Pending.append(Buf, static_cast<size_t>(N));
    Nl = Pending.find('\n');
    if (Nl == std::string::npos)
      return false;
  }
  Out.assign(Pending, 0, Nl);
  Pending.erase(0, Nl + 1);
  return true;
}

Status LineClient::recvBytes(size_t Count, std::vector<uint8_t> &Out) {
  if (Fd < 0)
    return Status::error(ErrorCode::FailedPrecondition, "not connected");
  Out.clear();
  Out.reserve(Count);
  size_t FromPending = Pending.size() < Count ? Pending.size() : Count;
  Out.insert(Out.end(), Pending.begin(),
             Pending.begin() + static_cast<ptrdiff_t>(FromPending));
  Pending.erase(0, FromPending);
  while (Out.size() < Count) {
    uint8_t Buf[16384];
    size_t Want = Count - Out.size();
    ssize_t N = ::read(Fd, Buf, Want < sizeof(Buf) ? Want : sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return Status::error(ErrorCode::Timeout, "receive timeout");
      return Status::error(ErrorCode::IoError,
                           std::string("read: ") + std::strerror(errno));
    }
    if (N == 0)
      return Status::error(ErrorCode::NotFound,
                           "connection closed by server mid-payload");
    Out.insert(Out.end(), Buf, Buf + N);
  }
  return Status();
}

Status LineClient::request(const std::string &Line, std::string &Reply) {
  Status Sent = sendLine(Line);
  if (!Sent)
    return Sent;
  Status Got = recvLine(Reply);
  if (!Got)
    return Got;
  // The metrics payload is the one multi-line reply; everything else is
  // strictly one line per request.
  if (Reply.rfind("ok metrics", 0) == 0) {
    std::string More;
    while (More != "# EOF") {
      Status Next = recvLine(More);
      if (!Next)
        return Next;
      Reply += "\n" + More;
    }
  }
  return Status();
}

void LineClient::close() {
  closeFd(Fd);
  Fd = -1;
  Pending.clear();
}
