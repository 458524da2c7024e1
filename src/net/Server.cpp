//===- net/Server.cpp - epoll front end for the serve protocol ------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include "net/Replication.h"
#include "net/Socket.h"
#include "serve/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace poce;
using namespace poce::net;

namespace {

/// The eventfd a signal handler may poke. Only requestStop() reads it;
/// written with a single async-signal-safe write().
std::atomic<int> GStopFd{-1};
/// Set by requestStop() so a stop that races init() is not lost.
std::atomic<bool> GStopRequested{false};

bool isLocalVerb(const std::string &Verb) {
  return Verb == "help" || Verb == "quit" || Verb == "exit";
}

const char *helpReply() {
  return "ok commands: ls X | pts X | alias X Y | add LINE | "
         "retract LINE | save PATH | checkpoint [PATH] | stats | counters | "
         "metrics | verify | replicate BASE SEQ | promote | shutdown | help | "
         "quit";
}

} // namespace

NetServer::NetServer(serve::ServerCore &Core, NetServerOptions InOpts)
    : Core(Core), Opts(std::move(InOpts)) {
  ReadOnlyNow.store(Opts.ReadOnly, std::memory_order_release);
}

NetServer::~NetServer() {
  // Normal teardown happens at the end of run(); this covers init()
  // failures and callers that never ran.
  if (Writer.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(WriterMutex);
      WriterStop = true;
    }
    WriterCv.notify_all();
    Writer.join();
  }
  for (auto &Entry : Conns)
    closeFd(Entry.second.Fd);
  Conns.clear();
  for (int Fd : ListenFds)
    closeFd(Fd);
  GStopFd.store(-1, std::memory_order_release);
  closeFd(WakeFd);
  closeFd(EpollFd);
}

void NetServer::requestStop() {
  GStopRequested.store(true, std::memory_order_release);
  int Fd = GStopFd.load(std::memory_order_acquire);
  if (Fd >= 0) {
    uint64_t One = 1;
    // write() is async-signal-safe; a failed wake is recovered by the
    // loop's timeout path.
    (void)!::write(Fd, &One, sizeof(One));
  }
}

uint64_t NetServer::nowMs() const { return trace::nowMicros() / 1000; }

Status NetServer::addListener(int Fd) {
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.fd = Fd;
  if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev) < 0)
    return Status::error(ErrorCode::IoError,
                         std::string("epoll_ctl(listener): ") +
                             std::strerror(errno));
  ListenFds.push_back(Fd);
  return Status();
}

Status NetServer::init() {
  if (Opts.TcpSpec.empty() && Opts.UnixPath.empty())
    return Status::error(ErrorCode::InvalidArgument,
                         "no listener configured (need --listen or "
                         "--unix)");

  MetricsRegistry &R = MetricsRegistry::global();
  PublishHist = &R.histogram(
      "poce_net_view_publish_us",
      "Wall time to build and publish the view after a write batch");
  ErrorsTotal = &R.counter("poce_net_query_errors_total",
                           "Socket queries answered with an err reply");
  ConnsTotal = &R.counter("poce_net_connections_total",
                          "Connections accepted");
  OversizedTotal = &R.counter("poce_net_oversized_total",
                              "Requests rejected for exceeding "
                              "--max-request");
  IdleClosedTotal = &R.counter("poce_net_idle_closed_total",
                               "Connections closed by the idle timeout");
  ReadsDuringWrite =
      &R.counter("poce_net_reads_during_write_total",
                 "Queries executed while a writer batch was in flight");
  PublishesTotal = &R.counter("poce_net_view_publishes_total",
                              "Views published (the startup view included)");
  ConnsOpen = &R.gauge("poce_net_conns_open", "Connections currently open");
  FollowersGauge = &R.gauge("poce_repl_followers",
                            "Replica connections currently registered");
  RecordsShipped = &R.counter("poce_repl_records_shipped_total",
                              "WAL records streamed to replicas");
  SnapshotsShipped = &R.counter("poce_repl_snapshots_shipped_total",
                                "Bootstrap snapshots shipped to replicas");
  EpochGauge = &R.gauge("poce_net_epoch", "Epoch of the published view");

  EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
  if (EpollFd < 0)
    return Status::error(ErrorCode::IoError,
                         std::string("epoll_create1: ") +
                             std::strerror(errno));
  WakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (WakeFd < 0)
    return Status::error(ErrorCode::IoError,
                         std::string("eventfd: ") + std::strerror(errno));
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.fd = WakeFd;
  if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeFd, &Ev) < 0)
    return Status::error(ErrorCode::IoError,
                         std::string("epoll_ctl(wake): ") +
                             std::strerror(errno));

  if (!Opts.TcpSpec.empty()) {
    Expected<int> Fd = listenTcp(Opts.TcpSpec);
    if (!Fd.ok())
      return Fd.status();
    Status Added = addListener(*Fd);
    if (!Added)
      return Added;
    Expected<uint16_t> Port = localPort(*Fd);
    if (!Port.ok())
      return Port.status();
    TcpPort = *Port;
  }
  if (!Opts.UnixPath.empty()) {
    Expected<int> Fd = listenUnix(Opts.UnixPath);
    if (!Fd.ok())
      return Fd.status();
    Status Added = addListener(*Fd);
    if (!Added)
      return Added;
  }

  // The startup view: published before any connection can be accepted,
  // so the first read always has one.
  publish();

  // Replication sink: fires on the writer thread (the core's owner once
  // the writer starts below), staging stream events into the same
  // ordered batch as the verb replies they interleave with.
  serve::ReplicationSink Sink;
  Sink.OnRecord = [this](uint64_t Seq, const std::string &Line) {
    Completion Ev;
    Ev.Kind = Completion::Kind::ReplRecord;
    Ev.Seq = Seq;
    Ev.Line = Line;
    WriterOut.push_back(std::move(Ev));
  };
  Sink.OnRebase = [this](uint64_t NewBase) {
    Completion Ev;
    Ev.Kind = Completion::Kind::ReplRebase;
    Ev.Base = NewBase;
    WriterOut.push_back(std::move(Ev));
  };
  Core.setReplicationSink(std::move(Sink));

  // A fresh instance starts undrained even if a previous server in this
  // process (tests run several) was stopped via requestStop().
  GStopRequested.store(false, std::memory_order_release);
  GStopFd.store(WakeFd, std::memory_order_release);
  Writer = std::thread([this] { writerLoop(); });
  return Status();
}

void NetServer::acceptAll(int ListenFd) {
  for (;;) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
        return;
      std::fprintf(stderr, "scserved: accept: %s\n", std::strerror(errno));
      return;
    }
    if (Draining) {
      closeFd(Fd);
      continue;
    }
    epoll_event Ev{};
    Ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    Ev.data.fd = Fd;
    if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev) < 0) {
      std::fprintf(stderr, "scserved: epoll_ctl(conn): %s\n",
                   std::strerror(errno));
      closeFd(Fd);
      continue;
    }
    auto Inserted = Conns.emplace(Fd, Conn(Opts.MaxRequest));
    Conn &C = Inserted.first->second;
    C.Fd = Fd;
    C.Gen = NextGen++;
    C.LastActiveMs = nowMs();
    ConnsTotal->inc();
    ConnsOpen->set(Conns.size());
  }
}

void NetServer::readConn(Conn &C) {
  // Edge-triggered: drain the socket to EAGAIN.
  char Buf[16384];
  for (;;) {
    ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      C.In.append(Buf, static_cast<size_t>(N));
      C.LastActiveMs = nowMs();
      continue;
    }
    if (N == 0) {
      // A clean half-close: a last line sent without its newline is
      // still a request.
      C.In.finish();
      C.PeerClosed = true;
      break;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    // Hard error: whatever was in flight is undeliverable.
    C.PeerClosed = true;
    C.Lines.clear();
    C.Out.clear();
    C.CloseAfterFlush = true;
    break;
  }
  std::string Text;
  for (;;) {
    LineBuffer::Item Item = C.In.next(Text);
    if (Item == LineBuffer::Item::None)
      break;
    C.Lines.emplace_back(Item == LineBuffer::Item::Oversized, Text);
  }
}

void NetServer::flushConn(Conn &C) {
  while (!C.Out.empty()) {
    // MSG_NOSIGNAL: a peer that stopped reading fails this send with
    // EPIPE, which closes its connection below, instead of raising a
    // SIGPIPE that would kill the whole server.
    ssize_t N = ::send(C.Fd, C.Out.data(), C.Out.size(), MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Backpressure: keep the residue and re-arm for EPOLLOUT; the
        // loop resumes the flush when the peer drains its window.
        if (!C.WantWrite) {
          epoll_event Ev{};
          Ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
          Ev.data.fd = C.Fd;
          ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, C.Fd, &Ev);
          C.WantWrite = true;
        }
        return;
      }
      closeConn(C.Fd);
      return;
    }
    C.Out.erase(0, static_cast<size_t>(N));
  }
  if (C.WantWrite) {
    epoll_event Ev{};
    Ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    Ev.data.fd = C.Fd;
    ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, C.Fd, &Ev);
    C.WantWrite = false;
  }
  if (C.CloseAfterFlush)
    closeConn(C.Fd);
}

void NetServer::closeConn(int Fd) {
  auto It = Conns.find(Fd);
  if (It == Conns.end())
    return;
  if (It->second.IsReplica && ReplicaCount > 0) {
    --ReplicaCount;
    FollowersGauge->set(ReplicaCount);
  }
  ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, Fd, nullptr);
  closeFd(Fd);
  Conns.erase(It);
  ConnsOpen->set(Conns.size());
}

void NetServer::dispatch() {
  // One pin per call, taken at the first read: every read answered below
  // sees the same published view, concurrent with whatever the writer
  // lane is doing to its own solver.
  std::shared_ptr<const serve::ReadView> View;
  uint64_t Reads = 0;
  std::vector<WriterJob> NewJobs;
  for (auto &Entry : Conns) {
    Conn &C = Entry.second;
    auto Reply = [&C](const std::string &Text) {
      C.Out += Text;
      C.Out += '\n';
    };
    while (!C.AwaitingWriter && !C.Lines.empty()) {
      bool Oversized = C.Lines.front().first;
      std::string Line = std::move(C.Lines.front().second);
      C.Lines.pop_front();
      if (Oversized) {
        OversizedTotal->inc();
        Reply("err " + Status::error(ErrorCode::TooLarge,
                                     "request is " + Line +
                                         " bytes; limit is " +
                                         std::to_string(Opts.MaxRequest))
                           .wire());
        continue;
      }
      serve::Request Req = serve::parseRequest(Line);
      if (Req.Verb.empty() || Req.Verb[0] == '#')
        continue; // Blank/comment lines get no reply, as on stdin.
      if (serve::isReadVerb(Req.Verb)) {
        if (!View)
          View = Publisher.acquire();
        std::string Answer = serve::telemetry::answerRead(*View, Req);
        if (Answer.compare(0, 4, "err ") == 0)
          ErrorsTotal->inc();
        ++Reads;
        Reply(Answer);
        continue;
      }
      if (isLocalVerb(Req.Verb)) {
        if (Req.Verb == "help") {
          Reply(helpReply());
          continue;
        }
        Reply("ok bye");
        C.CloseAfterFlush = true;
        break;
      }
      // Everything else (add/save/checkpoint/stats/counters/metrics/
      // shutdown, and unknown verbs) belongs to the writer lane.
      // Head-of-line: this connection's later requests wait for the
      // completion so its replies arrive in request order.
      WriterJob Job;
      Job.Fd = C.Fd;
      Job.Gen = C.Gen;
      Job.Req = std::move(Req);
      NewJobs.push_back(std::move(Job));
      C.AwaitingWriter = true;
      break;
    }
  }

  if (!NewJobs.empty() || Reads != 0) {
    bool WriterActive;
    {
      std::lock_guard<std::mutex> Lock(WriterMutex);
      for (WriterJob &Job : NewJobs)
        Jobs.push_back(std::move(Job));
      WriterActive = WriterBusy || !Jobs.empty();
    }
    if (!NewJobs.empty())
      WriterCv.notify_one();
    if (WriterActive)
      ReadsDuringWrite->inc(Reads);
  }

  // Flush everything with output (by fd: flushConn may close and erase,
  // which would invalidate a live map iterator), then reap connections
  // that are done.
  std::vector<int> ToFlush;
  for (auto &Entry : Conns)
    if (!Entry.second.Out.empty())
      ToFlush.push_back(Entry.first);
  for (int Fd : ToFlush) {
    auto It = Conns.find(Fd);
    if (It != Conns.end())
      flushConn(It->second);
  }
  std::vector<int> Finished;
  for (auto &Entry : Conns) {
    Conn &C = Entry.second;
    bool Quiet =
        C.Lines.empty() && !C.AwaitingWriter && C.Out.empty();
    if ((C.PeerClosed || Draining) && Quiet)
      Finished.push_back(Entry.first);
  }
  for (int Fd : Finished)
    closeConn(Fd);
}

void NetServer::applyCompletions() {
  std::deque<Completion> Ready;
  {
    std::lock_guard<std::mutex> Lock(WriterMutex);
    Ready.swap(Done);
  }
  for (Completion &Comp : Ready) {
    if (Comp.Kind == Completion::Kind::ReplRecord) {
      // Broadcast in completion order; the NextSeq guard skips replicas
      // whose handshake reply already contained this record.
      for (auto &Entry : Conns) {
        Conn &C = Entry.second;
        if (!C.IsReplica || Comp.Seq < C.NextSeq)
          continue;
        C.Out += "r " + std::to_string(Comp.Seq) + " " + Comp.Line + "\n";
        C.NextSeq = Comp.Seq + 1;
        RecordsShipped->inc();
      }
      ReplKnownSeq = Comp.Seq + 1;
      continue;
    }
    if (Comp.Kind == Completion::Kind::ReplRebase) {
      for (auto &Entry : Conns) {
        Conn &C = Entry.second;
        if (!C.IsReplica)
          continue;
        C.Out += "rebase " + serve::hexId(Comp.Base) + "\n";
        C.NextSeq = 0;
      }
      ReplKnownSeq = 0;
      continue;
    }
    if (Comp.Shutdown)
      beginDrain();
    auto It = Conns.find(Comp.Fd);
    if (It == Conns.end() || It->second.Gen != Comp.Gen)
      continue;
    Conn &C = It->second;
    C.AwaitingWriter = false;
    C.Out += Comp.Reply;
    C.Out += '\n';
    if (Comp.MakeReplica) {
      if (!C.IsReplica) {
        ++ReplicaCount;
        FollowersGauge->set(ReplicaCount);
      }
      C.IsReplica = C.LongLived = true;
      C.NextSeq = Comp.ReplicaNextSeq;
      C.LastHbMs = nowMs();
      if (ReplKnownSeq < Comp.ReplicaNextSeq)
        ReplKnownSeq = Comp.ReplicaNextSeq;
    }
  }
}

void NetServer::sweepIdle() {
  if (Opts.IdleTimeoutMs == 0)
    return;
  uint64_t Now = nowMs();
  std::vector<int> Expired;
  for (auto &Entry : Conns) {
    Conn &C = Entry.second;
    // Long-lived connections (tailing replicas) are quiet by design:
    // they send one handshake and then only ever receive.
    bool Busy = C.AwaitingWriter || !C.Lines.empty() || !C.Out.empty();
    if (C.LongLived || Busy)
      continue;
    if (Now - C.LastActiveMs >= Opts.IdleTimeoutMs)
      Expired.push_back(Entry.first);
  }
  for (int Fd : Expired) {
    IdleClosedTotal->inc();
    closeConn(Fd);
  }
}

void NetServer::heartbeatReplicas() {
  if (ReplicaCount == 0 || Opts.HeartbeatMs == 0)
    return;
  uint64_t Now = nowMs();
  std::vector<int> ToFlush;
  for (auto &Entry : Conns) {
    Conn &C = Entry.second;
    if (!C.IsReplica || Now - C.LastHbMs < Opts.HeartbeatMs)
      continue;
    C.Out += "hb " + std::to_string(ReplKnownSeq) + "\n";
    C.LastHbMs = Now;
    ToFlush.push_back(Entry.first);
  }
  for (int Fd : ToFlush) {
    auto It = Conns.find(Fd);
    if (It != Conns.end())
      flushConn(It->second);
  }
}

bool NetServer::quiescent() const {
  if (!Conns.empty())
    return false;
  std::lock_guard<std::mutex> Lock(WriterMutex);
  return Jobs.empty() && !WriterBusy;
}

void NetServer::beginDrain() {
  if (Draining)
    return;
  Draining = true;
  // Stop accepting: close the doors, finish everyone inside.
  for (int Fd : ListenFds) {
    ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, Fd, nullptr);
    closeFd(Fd);
  }
  ListenFds.clear();
}

int NetServer::run() {
  epoll_event Events[64];
  while (!(Draining && quiescent())) {
    if (GStopRequested.load(std::memory_order_acquire))
      beginDrain();
    int TimeoutMs = Draining
                        ? 50
                        : ((Opts.IdleTimeoutMs || ReplicaCount) ? 100 : 1000);
    int N = ::epoll_wait(EpollFd, Events, 64, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "scserved: epoll_wait: %s\n",
                   std::strerror(errno));
      return 1;
    }
    for (int I = 0; I != N; ++I) {
      int Fd = Events[I].data.fd;
      uint32_t Ev = Events[I].events;
      if (Fd == WakeFd) {
        uint64_t Drain;
        while (::read(WakeFd, &Drain, sizeof(Drain)) > 0)
          ;
        continue;
      }
      if (std::find(ListenFds.begin(), ListenFds.end(), Fd) !=
          ListenFds.end()) {
        acceptAll(Fd);
        continue;
      }
      auto It = Conns.find(Fd);
      if (It == Conns.end())
        continue;
      Conn &C = It->second;
      if (Ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR))
        readConn(C);
      if (Ev & EPOLLOUT)
        flushConn(C);
    }
    applyCompletions();
    dispatch();
    sweepIdle();
    heartbeatReplicas();
  }

  // Drained: stop the writer lane, then finish the durability teardown
  // on this thread (after the join the core is single-owner again).
  {
    std::lock_guard<std::mutex> Lock(WriterMutex);
    WriterStop = true;
  }
  WriterCv.notify_all();
  if (Writer.joinable())
    Writer.join();
  Core.shutdownDrain();
  if (!Opts.MetricsOut.empty()) {
    Status Dumped = Core.dumpMetricsTo(Opts.MetricsOut);
    if (!Dumped)
      std::fprintf(stderr, "scserved: metrics dump failed: %s\n",
                   Dumped.toString().c_str());
  }
  if (!Opts.UnixPath.empty())
    ::unlink(Opts.UnixPath.c_str());
  return 0;
}

void NetServer::publish() {
  std::shared_ptr<const serve::ReadView> View = Core.engine().view();
  EpochGauge->set(View->epoch());
  Publisher.publish(std::move(View));
  PublishesTotal->inc();
}

void NetServer::handleClientJob(WriterJob &Job, Completion &Comp,
                                bool &Mutated) {
  const serve::Request &Req = Job.Req;
  auto Err = [&Comp](const Status &St) { Comp.Reply = "err " + St.wire(); };
  if (Req.Verb == "replicate") {
    if (ReadOnlyNow.load(std::memory_order_acquire)) {
      Err(Status::error(ErrorCode::FailedPrecondition,
                        "chained replication is not supported; replicate "
                        "from the primary"));
      return;
    }
    if (Req.Arg1.empty() || Req.Arg2.empty()) {
      Err(Status::error(ErrorCode::InvalidArgument,
                        "usage: replicate <base_hex> <seq>"));
      return;
    }
    uint64_t Base = 0, Seq = 0;
    if (!parseHexU64(Req.Arg1, Base) || !parseDecU64(Req.Arg2, Seq)) {
      // Raw strtoull here once let "replicate -1 -1" through with a
      // wrapped-around cursor; malformed handshakes are refused now.
      Err(Status::error(ErrorCode::InvalidArgument,
                        "malformed replicate cursor (base must be hex, "
                        "seq decimal)"));
      return;
    }
    std::string Reply;
    uint64_t NextSeq = 0;
    bool Snapshot = false;
    Status Built = Core.buildReplicateStream(Base, Seq, Reply, NextSeq,
                                             Snapshot);
    if (!Built) {
      Err(Built);
      return;
    }
    Comp.Reply = std::move(Reply);
    Comp.MakeReplica = true;
    Comp.ReplicaNextSeq = NextSeq;
    if (Snapshot)
      SnapshotsShipped->inc();
    return;
  }
  if (Req.Verb == "promote") {
    if (!Opts.ReadOnly) {
      Err(Status::error(ErrorCode::FailedPrecondition,
                        "this server is already the primary"));
      return;
    }
    if (!ReadOnlyNow.load(std::memory_order_acquire)) {
      Err(Status::error(ErrorCode::FailedPrecondition,
                        "already promoted"));
      return;
    }
    Expected<uint64_t> Base = Core.promote();
    if (!Base.ok()) {
      Err(Base.status());
      return;
    }
    // Writable from this job on; in-flight replicated applies behind us
    // in the queue are refused, and OnPromote tells the driver to stop
    // its replication client (without joining it here — it may itself be
    // blocked on a queued internal job).
    ReadOnlyNow.store(false, std::memory_order_release);
    if (Opts.OnPromote)
      Opts.OnPromote();
    Comp.Reply = "ok promoted base=" + serve::hexId(*Base);
    return;
  }
  if (ReadOnlyNow.load(std::memory_order_acquire) &&
      (Req.Verb == "add" || Req.Verb == "retract" || Req.Verb == "save" ||
       Req.Verb == "checkpoint")) {
    Err(Status::error(ErrorCode::ReadOnly,
                      "this server is a read-only follower; write to the "
                      "primary or promote this one"));
    return;
  }
  using VerbResult = serve::ServerCore::VerbResult;
  VerbResult Result = Core.handleWriterVerb(Req, Comp.Reply);
  if (Result == VerbResult::NotMine)
    Comp.Reply = "err " + Status::error(ErrorCode::InvalidArgument,
                                        "unknown verb '" + Req.Verb +
                                            "'; try help")
                              .wire();
  Mutated |= Result == VerbResult::Mutated;
  if (Core.shutdownRequested())
    Comp.Shutdown = true;
}

Status NetServer::runInternalJob(WriterJob &Job, bool &Mutated) {
  // A promoted follower owns its own WAL lifetime; late stream traffic
  // from the old primary must not be applied over it.
  if (Opts.ReadOnly && !ReadOnlyNow.load(std::memory_order_acquire))
    return Status::error(ErrorCode::FailedPrecondition,
                         "promoted; replicated applies are refused");
  switch (Job.Kind) {
  case WriterJob::Kind::ReplApply:
    for (auto &Rec : Job.Records) {
      Status Applied = Core.applyReplicated(Rec.second);
      if (!Applied)
        return Applied.withContext("record " + std::to_string(Rec.first));
      Mutated = true;
    }
    return Status();
  case WriterJob::Kind::ReplRebase:
    return Core.replicaRebase(Job.Base);
  case WriterJob::Kind::ReplBootstrap: {
    Status Reset = Core.rebootstrap(Job.Bytes, Job.Base);
    if (Reset.ok())
      Mutated = true;
    return Reset;
  }
  case WriterJob::Kind::Client:
    break;
  }
  return Status::error(ErrorCode::Internal, "bad internal job kind");
}

Status NetServer::submitInternal(WriterJob Job) {
  auto Wait = std::make_shared<InternalWait>();
  Job.Wait = Wait;
  {
    std::lock_guard<std::mutex> Lock(WriterMutex);
    if (WriterStop)
      return Status::error(ErrorCode::FailedPrecondition,
                           "server is stopping");
    Jobs.push_back(std::move(Job));
  }
  WriterCv.notify_one();
  std::unique_lock<std::mutex> Lock(Wait->M);
  Wait->Cv.wait(Lock, [&] { return Wait->Done; });
  return Wait->Result;
}

Status NetServer::applyReplicatedRecords(
    std::vector<std::pair<uint64_t, std::string>> Records) {
  WriterJob Job;
  Job.Kind = WriterJob::Kind::ReplApply;
  Job.Records = std::move(Records);
  return submitInternal(std::move(Job));
}

Status NetServer::applyReplicaRebase(uint64_t NewBase) {
  WriterJob Job;
  Job.Kind = WriterJob::Kind::ReplRebase;
  Job.Base = NewBase;
  return submitInternal(std::move(Job));
}

Status NetServer::applyReplicaBootstrap(std::vector<uint8_t> Bytes,
                                        uint64_t Base) {
  WriterJob Job;
  Job.Kind = WriterJob::Kind::ReplBootstrap;
  Job.Bytes = std::move(Bytes);
  Job.Base = Base;
  return submitInternal(std::move(Job));
}

void NetServer::writerLoop() {
  for (;;) {
    std::vector<WriterJob> Batch;
    {
      std::unique_lock<std::mutex> Lock(WriterMutex);
      WriterCv.wait(Lock, [this] { return WriterStop || !Jobs.empty(); });
      if (WriterStop && Jobs.empty())
        return;
      while (!Jobs.empty()) {
        Batch.push_back(std::move(Jobs.front()));
        Jobs.pop_front();
      }
      WriterBusy = true;
    }

    // WriterOut collects this batch's verb replies interleaved (in
    // order) with the replication events the core's sink emits while
    // the handlers run.
    WriterOut.clear();
    std::vector<std::pair<std::shared_ptr<InternalWait>, Status>> Notify;
    bool Mutated = false;
    for (WriterJob &Job : Batch) {
      if (Job.Kind != WriterJob::Kind::Client) {
        Status Internal = runInternalJob(Job, Mutated);
        Notify.emplace_back(Job.Wait, std::move(Internal));
        continue;
      }
      Completion Comp;
      Comp.Fd = Job.Fd;
      Comp.Gen = Job.Gen;
      handleClientJob(Job, Comp, Mutated);
      ++WriterOps;
      if (!Opts.MetricsOut.empty() && Opts.MetricsEvery > 0 &&
          WriterOps % Opts.MetricsEvery == 0) {
        Status Dumped = Core.dumpMetricsTo(Opts.MetricsOut);
        if (!Dumped)
          std::fprintf(stderr, "scserved: metrics dump failed: %s\n",
                       Dumped.toString().c_str());
      }
      WriterOut.push_back(std::move(Comp));
    }
    // Ack-after-publish: the view containing this batch's additions is
    // visible to every reader before any `ok added` goes out (and before
    // any replicated-apply waiter resumes), so a client that saw the ack
    // reads its own write.
    if (Mutated) {
      const uint64_t StartUs = trace::nowMicros();
      publish();
      PublishHist->record(trace::nowMicros() - StartUs);
    }

    {
      std::lock_guard<std::mutex> Lock(WriterMutex);
      for (Completion &Comp : WriterOut)
        Done.push_back(std::move(Comp));
      WriterBusy = false;
    }
    WriterOut.clear();
    for (auto &Entry : Notify) {
      if (!Entry.first)
        continue;
      {
        std::lock_guard<std::mutex> Lock(Entry.first->M);
        Entry.first->Result = std::move(Entry.second);
        Entry.first->Done = true;
      }
      Entry.first->Cv.notify_all();
    }
    uint64_t One = 1;
    (void)!::write(WakeFd, &One, sizeof(One));
    // A handled `shutdown` does NOT stop this lane: jobs other
    // connections enqueue during the drain still need completions (the
    // closed WAL makes further adds refuse on its own). The loop thread
    // stops the lane once the drain reaches quiescence.
  }
}
