//===- tests/net_test.cpp - Socket front end over loopback ----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
//
// The network serving layer, tested end to end over real sockets: framing
// units (chunk reassembly, streaming size limit), address parsing, the
// padded lane-accumulator layout, protocol byte-compatibility with the
// stdin loop, and the concurrency contract — readers querying while a
// writer streams adds always observe a fully-published view (prefix-closed
// answer sets, monotone epochs per connection) and a connection that saw
// `ok added` observes its constraint in every later query
// (read-your-writes via ack-after-publish).
//
// Everything here runs under scripts/tsan.sh: the loop thread, the writer
// lane, the read-wave pool, and the client threads must be data-race
// free.
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "net/Framing.h"
#include "net/LaneStats.h"
#include "net/Replication.h"
#include "net/Server.h"
#include "net/Socket.h"
#include "serve/QueryEngine.h"
#include "serve/ServerCore.h"
#include "support/PRNG.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace poce;
using namespace poce::net;

namespace {

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

std::vector<std::pair<LineBuffer::Item, std::string>> drain(LineBuffer &B) {
  std::vector<std::pair<LineBuffer::Item, std::string>> Out;
  std::string Text;
  for (;;) {
    LineBuffer::Item Kind = B.next(Text);
    if (Kind == LineBuffer::Item::None)
      return Out;
    Out.emplace_back(Kind, Text);
  }
}

TEST(NetFramingTest, ReassemblesAcrossArbitraryChunks) {
  LineBuffer B(/*MaxLine=*/64);
  const std::string Stream = "ls P\r\npts Q\nalias X Y\n";
  // Feed one byte at a time — the worst read() chunking possible.
  for (char C : Stream)
    B.append(&C, 1);
  auto Items = drain(B);
  ASSERT_EQ(Items.size(), 3u);
  EXPECT_EQ(Items[0].second, "ls P"); // \r stripped
  EXPECT_EQ(Items[1].second, "pts Q");
  EXPECT_EQ(Items[2].second, "alias X Y");
  EXPECT_EQ(B.pendingBytes(), 0u);
}

TEST(NetFramingTest, PartialLineStaysPending) {
  LineBuffer B(64);
  B.append("incompl", 7);
  std::string Text;
  EXPECT_EQ(B.next(Text), LineBuffer::Item::None);
  EXPECT_EQ(B.pendingBytes(), 7u);
  B.append("ete\n", 4);
  EXPECT_EQ(B.next(Text), LineBuffer::Item::Line);
  EXPECT_EQ(Text, "incomplete");
}

TEST(NetFramingTest, OversizedReportedInStreamOrder) {
  LineBuffer B(/*MaxLine=*/8);
  std::string Big(20, 'x');
  std::string Stream = "short\n" + Big + "\nafter\n";
  B.append(Stream.data(), Stream.size());
  auto Items = drain(B);
  ASSERT_EQ(Items.size(), 3u);
  EXPECT_EQ(Items[0].first, LineBuffer::Item::Line);
  EXPECT_EQ(Items[0].second, "short");
  EXPECT_EQ(Items[1].first, LineBuffer::Item::Oversized);
  EXPECT_EQ(Items[1].second, "20"); // full byte length, sans newline
  EXPECT_EQ(Items[2].first, LineBuffer::Item::Line);
  EXPECT_EQ(Items[2].second, "after"); // resynced at the next newline
}

TEST(NetFramingTest, LimitBoundaryIsInclusive) {
  LineBuffer B(/*MaxLine=*/8);
  B.append("12345678\n123456789\n", 19);
  auto Items = drain(B);
  ASSERT_EQ(Items.size(), 2u);
  EXPECT_EQ(Items[0].first, LineBuffer::Item::Line); // exactly 8: accepted
  EXPECT_EQ(Items[0].second, "12345678");
  EXPECT_EQ(Items[1].first, LineBuffer::Item::Oversized); // 9: rejected
  EXPECT_EQ(Items[1].second, "9");
}

TEST(NetFramingTest, OversizedAccumulatesAcrossChunks) {
  LineBuffer B(/*MaxLine=*/4);
  std::string Big(100, 'y');
  for (char C : Big)
    B.append(&C, 1);
  B.append("\nok\n", 4);
  auto Items = drain(B);
  ASSERT_EQ(Items.size(), 2u);
  EXPECT_EQ(Items[0].first, LineBuffer::Item::Oversized);
  EXPECT_EQ(Items[0].second, "100");
  EXPECT_EQ(Items[1].second, "ok");
}

//===----------------------------------------------------------------------===//
// Address parsing
//===----------------------------------------------------------------------===//

TEST(NetSocketTest, ParseHostPort) {
  std::string Host;
  uint16_t Port = 0;
  EXPECT_TRUE(parseHostPort("127.0.0.1:7075", Host, Port).ok());
  EXPECT_EQ(Host, "127.0.0.1");
  EXPECT_EQ(Port, 7075);

  EXPECT_TRUE(parseHostPort(":0", Host, Port).ok()); // any-host, ephemeral
  EXPECT_EQ(Host, "");
  EXPECT_EQ(Port, 0);

  EXPECT_FALSE(parseHostPort("noport", Host, Port).ok());
  EXPECT_FALSE(parseHostPort("h:", Host, Port).ok());
  EXPECT_FALSE(parseHostPort("h:abc", Host, Port).ok());
  EXPECT_FALSE(parseHostPort("h:99999", Host, Port).ok());
}

//===----------------------------------------------------------------------===//
// Lane accumulator layout
//===----------------------------------------------------------------------===//

// The contract the read lanes rely on: adjacent slots never share a cache
// line, so plain (non-atomic) per-lane writes are both correct (the wave
// barrier orders them) and fast (no false sharing).
static_assert(cacheAlignedLayoutOk<LaneAccum>,
              "LaneAccum slots must be cache-line aligned and padded");
static_assert(sizeof(CacheAligned<LaneAccum>) % CacheLineBytes == 0,
              "padding must round the slot to whole cache lines");

TEST(NetLaneStatsTest, SlotsDoNotShareCacheLines) {
  LaneAccumSlots Slots(4);
  for (size_t I = 0; I + 1 < Slots.size(); ++I) {
    auto *A = reinterpret_cast<const char *>(&Slots[I].Value);
    auto *B = reinterpret_cast<const char *>(&Slots[I + 1].Value);
    EXPECT_GE(static_cast<size_t>(B - A), CacheLineBytes);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(A) % CacheLineBytes, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Loopback server harness
//===----------------------------------------------------------------------===//

const char *SwapText = R"(
cons ref + + -
cons nx
cons ny
var X Y P Q T
ref(nx, X, X) <= P
ref(ny, Y, Y) <= Q
P <= T
Q <= P
T <= Q
)";

/// An in-process socket-mode server on an ephemeral loopback port (or a
/// Unix socket), with its event loop on a background thread.
struct LoopbackServer {
  std::unique_ptr<serve::ServerCore> Core;
  std::unique_ptr<NetServer> Server;
  std::thread Loop;
  std::string Error;
  int ExitCode = -1;
  bool Joined = false;

  explicit LoopbackServer(const std::string &Text,
                          NetServerOptions NetOpts = {},
                          serve::ServerCoreConfig CoreCfg = {}) {
    serve::SolverBundle Bundle;
    Bundle.Constructors = std::make_unique<ConstructorTable>();
    Bundle.Terms = std::make_unique<TermTable>(*Bundle.Constructors);
    Bundle.Solver = std::make_unique<ConstraintSolver>(
        *Bundle.Terms, makeConfig(GraphForm::Inductive, CycleElim::Online));
    ConstraintSystemFile System;
    Status Parsed = System.parse(Text);
    if (!Parsed) {
      Error = Parsed.toString();
      return;
    }
    System.emit(*Bundle.Solver);
    Bundle.Solver->materializeAllViews();

    Core = std::make_unique<serve::ServerCore>(std::move(Bundle),
                                               /*CacheCapacity=*/64, CoreCfg);
    if (!Core->valid()) {
      Error = Core->initError();
      return;
    }
    Status Recovered = Core->recover(/*SnapBase=*/0);
    if (!Recovered) {
      Error = Recovered.toString();
      return;
    }

    if (NetOpts.TcpSpec.empty() && NetOpts.UnixPath.empty())
      NetOpts.TcpSpec = "127.0.0.1:0";
    if (NetOpts.Lanes == 0)
      NetOpts.Lanes = 2;
    Server = std::make_unique<NetServer>(*Core, NetOpts);
    Status Ready = Server->init();
    if (!Ready) {
      Error = Ready.toString();
      Server.reset();
      return;
    }
    Loop = std::thread([this] { ExitCode = Server->run(); });
  }

  ~LoopbackServer() { stop(); }

  /// Graceful stop (idempotent); returns run()'s exit code.
  int stop() {
    if (Loop.joinable()) {
      NetServer::requestStop();
      Loop.join();
      Joined = true;
    }
    return ExitCode;
  }

  LineClient client() {
    LineClient C;
    Status Connected =
        C.connectTcp("127.0.0.1:" + std::to_string(Server->tcpPort()));
    EXPECT_TRUE(Connected.ok()) << Connected.toString();
    return C;
  }
};

std::string ask(LineClient &C, const std::string &Line) {
  std::string Reply;
  Status Got = C.request(Line, Reply);
  EXPECT_TRUE(Got.ok()) << Line << ": " << Got.toString();
  return Reply;
}

/// Parses "ok { a, b, c }" into the element set.
std::set<std::string> parseSet(const std::string &Reply) {
  std::set<std::string> Out;
  size_t Open = Reply.find('{'), Close = Reply.rfind('}');
  if (Open == std::string::npos || Close == std::string::npos ||
      Close <= Open)
    return Out;
  std::string Body = Reply.substr(Open + 1, Close - Open - 1);
  size_t Pos = 0;
  while (Pos < Body.size()) {
    size_t Comma = Body.find(',', Pos);
    std::string Item = Body.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    size_t First = Item.find_first_not_of(' ');
    size_t Last = Item.find_last_not_of(' ');
    if (First != std::string::npos)
      Out.insert(Item.substr(First, Last - First + 1));
    Pos = Comma == std::string::npos ? Body.size() : Comma + 1;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Protocol over sockets
//===----------------------------------------------------------------------===//

TEST(NetServerTest, ProtocolMatchesStdinMode) {
  LoopbackServer S(SwapText);
  ASSERT_TRUE(S.Error.empty()) << S.Error;
  LineClient C = S.client();

  EXPECT_EQ(ask(C, "pts P"), "ok { nx, ny }");
  EXPECT_EQ(ask(C, "alias P Q"), "ok true");
  EXPECT_EQ(ask(C, "alias X Y"), "ok false");
  EXPECT_EQ(ask(C, "ls nosuch"), "err not_found unknown variable 'nosuch'");
  EXPECT_EQ(ask(C, "frobnicate"),
            "err invalid_argument unknown verb 'frobnicate'; try help");
  std::string Help = ask(C, "help");
  EXPECT_NE(Help.find("shutdown"), std::string::npos);
  std::string Stats = ask(C, "stats");
  EXPECT_EQ(Stats.rfind("ok config=IF-Online", 0), 0u) << Stats;

  std::string Metrics = ask(C, "metrics");
  EXPECT_EQ(Metrics.rfind("ok metrics", 0), 0u);
  EXPECT_NE(Metrics.find("poce_query_requests_total"), std::string::npos);
  EXPECT_NE(Metrics.find("poce_net_lane0_queries"), std::string::npos);
  std::string Trailer = "# EOF";
  ASSERT_GE(Metrics.size(), Trailer.size());
  EXPECT_EQ(Metrics.substr(Metrics.size() - Trailer.size()), Trailer);

  EXPECT_EQ(ask(C, "quit"), "ok bye");
  std::string Dead;
  EXPECT_FALSE(C.recvLine(Dead).ok()); // server closed after the goodbye
  EXPECT_EQ(S.stop(), 0);
}

TEST(NetServerTest, PipelinedRequestsAnswerInOrder) {
  LoopbackServer S(SwapText);
  ASSERT_TRUE(S.Error.empty()) << S.Error;
  LineClient C = S.client();

  // Fire the whole batch before reading anything: per-connection FIFO
  // must hold even when queries and writer verbs interleave.
  ASSERT_TRUE(C.sendLine("pts P").ok());
  ASSERT_TRUE(C.sendLine("add cons zz").ok());
  ASSERT_TRUE(C.sendLine("alias P Q").ok());
  ASSERT_TRUE(C.sendLine("stats").ok());
  ASSERT_TRUE(C.sendLine("pts Q").ok());

  std::string R;
  ASSERT_TRUE(C.recvLine(R).ok());
  EXPECT_EQ(R, "ok { nx, ny }");
  ASSERT_TRUE(C.recvLine(R).ok());
  EXPECT_EQ(R, "ok added");
  ASSERT_TRUE(C.recvLine(R).ok());
  EXPECT_EQ(R, "ok true");
  ASSERT_TRUE(C.recvLine(R).ok());
  EXPECT_EQ(R.rfind("ok config=", 0), 0u) << R;
  ASSERT_TRUE(C.recvLine(R).ok());
  EXPECT_EQ(R, "ok { nx, ny }");
  EXPECT_EQ(S.stop(), 0);
}

TEST(NetServerTest, OversizedRequestResyncsConnection) {
  NetServerOptions Opts;
  Opts.MaxRequest = 64;
  LoopbackServer S(SwapText, Opts);
  ASSERT_TRUE(S.Error.empty()) << S.Error;
  LineClient C = S.client();

  std::string Big(200, 'q');
  EXPECT_EQ(ask(C, Big), "err too_large request is 200 bytes; limit is 64");
  // The connection survived and resynchronized at the newline.
  EXPECT_EQ(ask(C, "alias X Y"), "ok false");
  EXPECT_EQ(S.stop(), 0);
}

TEST(NetServerTest, ReadYourWrites) {
  LoopbackServer S("cons a\nvar V\na <= V\n");
  ASSERT_TRUE(S.Error.empty()) << S.Error;
  LineClient C = S.client();

  EXPECT_EQ(parseSet(ask(C, "ls V")), std::set<std::string>{"a"});
  EXPECT_EQ(ask(C, "add cons b"), "ok added");
  EXPECT_EQ(ask(C, "add b <= V"), "ok added");
  // Ack-after-publish: the `ok added` above means the next query — on any
  // connection — already sees b.
  EXPECT_EQ(parseSet(ask(C, "ls V")), (std::set<std::string>{"a", "b"}));
  LineClient Other = S.client();
  EXPECT_EQ(parseSet(ask(Other, "ls V")), (std::set<std::string>{"a", "b"}));
  EXPECT_EQ(S.stop(), 0);
}

TEST(NetServerTest, WriterRejectionsDoNotDisturbViews) {
  LoopbackServer S("cons a\nvar V\na <= V\n");
  ASSERT_TRUE(S.Error.empty()) << S.Error;
  LineClient C = S.client();

  std::string R = ask(C, "add undeclared <= V");
  EXPECT_EQ(R.rfind("err ", 0), 0u) << R;
  EXPECT_EQ(parseSet(ask(C, "ls V")), std::set<std::string>{"a"});
  EXPECT_EQ(S.stop(), 0);
}

TEST(NetServerTest, IdleConnectionsAreClosed) {
  NetServerOptions Opts;
  Opts.IdleTimeoutMs = 100;
  LoopbackServer S(SwapText, Opts);
  ASSERT_TRUE(S.Error.empty()) << S.Error;
  LineClient C = S.client();
  EXPECT_EQ(ask(C, "alias X Y"), "ok false"); // live connections serve
  std::string Dead;
  // recvLine blocks until the sweep (<=100ms cadence) closes us.
  EXPECT_FALSE(C.recvLine(Dead).ok());
  EXPECT_EQ(S.stop(), 0);
}

TEST(NetServerTest, ShutdownVerbDrainsAndExitsZero) {
  LoopbackServer S(SwapText);
  ASSERT_TRUE(S.Error.empty()) << S.Error;
  LineClient C = S.client();
  EXPECT_EQ(ask(C, "shutdown"), "ok shutting_down");
  S.Loop.join();
  S.Joined = true;
  EXPECT_EQ(S.ExitCode, 0);
  // The listener is gone: fresh connections are refused.
  LineClient After;
  EXPECT_FALSE(
      After.connectTcp("127.0.0.1:" + std::to_string(S.Server->tcpPort()))
          .ok());
}

TEST(NetServerTest, ServesUnixDomainSockets) {
  std::string Path = ::testing::TempDir() + "poce_net_test.sock";
  NetServerOptions Opts;
  Opts.UnixPath = Path;
  LoopbackServer S(SwapText, Opts);
  ASSERT_TRUE(S.Error.empty()) << S.Error;
  LineClient C;
  ASSERT_TRUE(C.connectUnix(Path).ok());
  EXPECT_EQ(ask(C, "pts P"), "ok { nx, ny }");
  EXPECT_EQ(ask(C, "quit"), "ok bye");
  EXPECT_EQ(S.stop(), 0);
  // Graceful exit unlinks the socket path.
  LineClient After;
  EXPECT_FALSE(After.connectUnix(Path).ok());
}

/// The value of \p Key in a one-line `key=value ...` reply (0 if absent).
uint64_t replyField(const std::string &Reply, const std::string &Key) {
  size_t At = Reply.find(" " + Key + "=");
  if (At == std::string::npos)
    return 0;
  return std::stoull(Reply.substr(At + Key.size() + 2));
}

/// The value of the exposition line starting with \p Series + " ".
uint64_t seriesValue(const std::string &Metrics, const std::string &Series) {
  size_t At = Metrics.find("\n" + Series + " ");
  if (At == std::string::npos)
    return 0;
  return std::stoull(Metrics.substr(At + Series.size() + 2));
}

TEST(NetServerTest, SocketReadsReachCountersAndMetrics) {
  // Socket reads record into the same read meter as stdin reads, so
  // `counters` and `metrics` count them. The meter is process-wide, so
  // the test measures deltas.
  LoopbackServer S(SwapText);
  ASSERT_TRUE(S.Error.empty()) << S.Error;
  LineClient C = S.client();
  const uint64_t Before = replyField(ask(C, "counters"), "queries");
  const uint64_t LatencyBefore =
      seriesValue(ask(C, "metrics"), "poce_query_latency_us_count");

  constexpr uint64_t N = 50;
  for (uint64_t I = 0; I != N; ++I)
    EXPECT_EQ(ask(C, "pts P"), "ok { nx, ny }");

  EXPECT_EQ(replyField(ask(C, "counters"), "queries"), Before + N);
  std::string Metrics = ask(C, "metrics");
  EXPECT_EQ(seriesValue(Metrics, "poce_query_requests_total"), Before + N);
  EXPECT_EQ(seriesValue(Metrics, "poce_query_latency_us_count"),
            LatencyBefore + N);
  // One meter: the socket-only duplicates are gone.
  EXPECT_EQ(Metrics.find("poce_net_queries_total"), std::string::npos);
  EXPECT_EQ(Metrics.find("poce_net_query_latency_us"), std::string::npos);
  EXPECT_EQ(S.stop(), 0);
}

TEST(NetServerTest, RetractPrefixIsNotAVerbPayload) {
  // `!retract ` belongs to the WAL record encoding, not to the protocol:
  // over a socket too, an add or retract spelling it is refused like any
  // other unparsable line, nothing reaches the WAL, and the line the
  // payload names stays live.
  std::string WalPath = ::testing::TempDir() + "poce_net_prefix.wal";
  std::remove(WalPath.c_str());
  serve::ServerCoreConfig CoreCfg;
  CoreCfg.WalPath = WalPath;
  LoopbackServer S("cons a\nvar V\na <= V\n", {}, CoreCfg);
  ASSERT_TRUE(S.Error.empty()) << S.Error;
  LineClient C = S.client();

  for (const char *Line : {"add !retract a <= V", "retract !retract a <= V"})
    EXPECT_EQ(ask(C, Line), "err parse_error expected expression") << Line;
  EXPECT_EQ(replyField(ask(C, "stats"), "wal_records"), 0u);
  EXPECT_EQ(parseSet(ask(C, "ls V")), std::set<std::string>{"a"});
  EXPECT_EQ(ask(C, "retract a <= V"), "ok retracted");
  EXPECT_EQ(parseSet(ask(C, "ls V")), std::set<std::string>{});
  EXPECT_EQ(S.stop(), 0);
  std::remove(WalPath.c_str());
}

TEST(NetServerTest, PeerThatStopsReadingDoesNotKillTheServer) {
  // A reply to a Unix-socket peer that no longer reads fails with EPIPE.
  // That must cost the server one connection, not the process: a
  // replica that closes its bootstrap connection while a record is on
  // its way hits exactly this.
  std::string Path = ::testing::TempDir() + "poce_net_epipe.sock";
  NetServerOptions Opts;
  Opts.UnixPath = Path;
  LoopbackServer S(SwapText, Opts);
  ASSERT_TRUE(S.Error.empty()) << S.Error;
  LineClient Deaf;
  ASSERT_TRUE(Deaf.connectUnix(Path).ok());
  ASSERT_EQ(::shutdown(Deaf.fd(), SHUT_RD), 0);
  ASSERT_TRUE(Deaf.sendLine("stats").ok());

  LineClient C;
  ASSERT_TRUE(C.connectUnix(Path).ok());
  for (int I = 0; I != 20; ++I)
    EXPECT_EQ(ask(C, "alias X Y"), "ok false");
  EXPECT_EQ(S.stop(), 0);
}

TEST(NetClientTest, SendToClosedPeerIsAnError) {
  // The client half of the same rule: a follower's tail writing to a
  // primary that just died gets an error it can reconnect from.
  std::string Path = ::testing::TempDir() + "poce_net_closed_peer.sock";
  Expected<int> Listener = listenUnix(Path);
  ASSERT_TRUE(Listener.ok()) << Listener.status();
  LineClient C;
  ASSERT_TRUE(C.connectUnix(Path).ok());
  int Accepted = ::accept(*Listener, nullptr, nullptr);
  ASSERT_GE(Accepted, 0);
  closeFd(Accepted);
  EXPECT_EQ(C.sendLine("ls X").code(), ErrorCode::IoError);
  closeFd(*Listener);
  ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Concurrency: readers vs the writer lane
//===----------------------------------------------------------------------===//

// The central serving invariant. A writer connection streams adds that
// grow `ls V` one element at a time (s1, s2, ...), asserting
// read-your-writes after every ack. Reader connections hammer `ls V`
// concurrently and assert every answer is a *fully-published* state:
// the set is exactly {s1..sj} for some j (prefix-closed — a torn or
// unpublished view would leak a gap), and j never decreases on one
// connection (views only move forward).
TEST(NetServerTest, ConcurrentReadersSeeOnlyPublishedViews) {
  LoopbackServer S("cons s0\nvar V\ns0 <= V\n");
  ASSERT_TRUE(S.Error.empty()) << S.Error;

  constexpr int NumAdds = 30;
  constexpr int NumReaders = 3;
  std::atomic<bool> WriterDone{false};
  std::atomic<int> Failures{0};

  std::thread WriterThread([&] {
    LineClient W = S.client();
    for (int K = 1; K <= NumAdds; ++K) {
      std::string Name = "s" + std::to_string(K);
      if (ask(W, "add cons " + Name) != "ok added" ||
          ask(W, "add " + Name + " <= V") != "ok added") {
        ++Failures;
        break;
      }
      // Read-your-writes: the ack above implies visibility here.
      std::set<std::string> Set = parseSet(ask(W, "ls V"));
      if (!Set.count(Name))
        ++Failures;
    }
    WriterDone.store(true, std::memory_order_release);
  });

  std::vector<std::thread> Readers;
  for (int R = 0; R != NumReaders; ++R) {
    Readers.emplace_back([&] {
      LineClient C = S.client();
      size_t PrevCount = 0;
      while (!WriterDone.load(std::memory_order_acquire)) {
        std::set<std::string> Set = parseSet(ask(C, "ls V"));
        // Prefix-closed: seeing sK implies seeing every earlier sI.
        size_t MaxIndex = 0;
        for (const std::string &Name : Set) {
          if (Name.size() < 2 || Name[0] != 's') {
            ++Failures;
            return;
          }
          MaxIndex = std::max(
              MaxIndex, static_cast<size_t>(std::stoul(Name.substr(1))));
        }
        if (Set.size() != MaxIndex + 1) { // {s0..sMax} exactly
          ++Failures;
          return;
        }
        // Monotone: published epochs only move forward.
        if (Set.size() < PrevCount) {
          ++Failures;
          return;
        }
        PrevCount = Set.size();
      }
    });
  }

  WriterThread.join();
  for (std::thread &T : Readers)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  // Converged state: every element landed.
  LineClient C = S.client();
  EXPECT_EQ(parseSet(ask(C, "ls V")).size(),
            static_cast<size_t>(NumAdds) + 1);
  EXPECT_EQ(S.stop(), 0);
}

TEST(ReadViewTest, ReadersKeepAnOldViewWhileTheWriterPublishes) {
  // Reader threads answer from a view pinned before any write and from
  // whatever view is published, while the writer applies adds and
  // retractions and publishes a new view after each batch. New views share
  // rows, names and term text with old ones, so this is the race check on
  // that sharing: the pinned view never changes its answer, and every
  // published one is a state the writer reached.
  serve::SolverBundle Bundle;
  Bundle.Constructors = std::make_unique<ConstructorTable>();
  Bundle.Terms = std::make_unique<TermTable>(*Bundle.Constructors);
  Bundle.Solver = std::make_unique<ConstraintSolver>(
      *Bundle.Terms, makeConfig(GraphForm::Inductive, CycleElim::Online));
  ConstraintSystemFile System;
  ASSERT_TRUE(System.parse("cons s0\nvar V W\ns0 <= V\nV <= W\n").ok());
  System.emit(*Bundle.Solver);
  serve::QueryEngine Engine(std::move(Bundle));
  ASSERT_TRUE(Engine.valid()) << Engine.initError();

  const serve::Request Read = serve::parseRequest("ls W");
  std::shared_ptr<const serve::ReadView> Old = Engine.view();
  const std::string OldAnswer = Old->answer(Read);
  ASSERT_EQ(OldAnswer, "ok { s0 }");
  ViewPublisher Publisher;
  Publisher.publish(Old);

  constexpr int NumAdds = 100;
  std::atomic<bool> WriterDone{false};
  std::atomic<int> Failures{0};
  std::vector<std::thread> Readers;
  for (int R = 0; R != 3; ++R) {
    Readers.emplace_back([&] {
      while (!WriterDone.load(std::memory_order_acquire)) {
        if (Old->answer(Read) != OldAnswer)
          ++Failures;
        std::set<std::string> Set =
            parseSet(Publisher.acquire()->answer(Read));
        // Published states are the prefixes {s0..sK}.
        for (int K = 0; K != static_cast<int>(Set.size()); ++K)
          if (!Set.count("s" + std::to_string(K)))
            ++Failures;
      }
    });
  }
  for (int K = 1; K <= NumAdds && Failures.load() == 0; ++K) {
    std::string Name = "s" + std::to_string(K);
    ASSERT_TRUE(Engine.addConstraint("cons " + Name).ok());
    ASSERT_TRUE(Engine.addConstraint(Name + " <= V").ok());
    if (K % 5 == 0) {
      // A retraction and its re-add inside one batch: published views
      // stay prefixes while the writer's solver shrinks and regrows.
      ASSERT_TRUE(Engine.retractConstraint("s1 <= V").ok());
      ASSERT_TRUE(Engine.addConstraint("s1 <= V").ok());
    }
    Publisher.publish(Engine.view());
  }
  WriterDone.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(parseSet(Publisher.acquire()->answer(Read)).size(),
            static_cast<size_t>(NumAdds) + 1);
  EXPECT_EQ(Old->answer(Read), OldAnswer);
}

//===----------------------------------------------------------------------===//
// Client connect backoff
//===----------------------------------------------------------------------===//

// The satellite contract for scripts: a connect with backoff outwaits a
// listener that appears late, so harnesses stop racing server startup
// with fixed sleeps.
TEST(NetClientTest, ConnectBackoffOutwaitsLateListener) {
  std::string Path = ::testing::TempDir() + "poce_net_backoff.sock";
  std::remove(Path.c_str());
  std::atomic<int> ListenFd{-1};
  std::thread Late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    Expected<int> Fd = listenUnix(Path);
    ASSERT_TRUE(Fd.ok()) << Fd.status();
    ListenFd.store(*Fd, std::memory_order_release);
  });
  LineClient C;
  EXPECT_TRUE(
      C.connectUnixWithBackoff(Path, /*DeadlineMs=*/10000, /*JitterSeed=*/7)
          .ok());
  Late.join();
  C.close();
  closeFd(ListenFd.load(std::memory_order_acquire));
  std::remove(Path.c_str());

  // And the deadline is honored when nobody ever listens.
  LineClient Never;
  Status Refused = Never.connectUnixWithBackoff(
      ::testing::TempDir() + "poce_net_noone.sock", /*DeadlineMs=*/200,
      /*JitterSeed=*/7);
  EXPECT_FALSE(Refused.ok());
  EXPECT_NE(Refused.message().find("retries exhausted"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Replication: WAL shipping, catch-up, promote
//===----------------------------------------------------------------------===//

std::string replTempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "poce_net_repl_" + Name;
  std::remove(Path.c_str());
  return Path;
}

/// A primary/follower pair over loopback TCP: both cores carry their own
/// snapshot/WAL pair (the replicated unit), the follower's NetServer is
/// ReadOnly, and a ReplicationClient tails the primary.
struct ReplPair {
  std::unique_ptr<LoopbackServer> Primary;
  std::unique_ptr<LoopbackServer> Follower;
  std::unique_ptr<ReplicationClient> Repl;

  explicit ReplPair(const std::string &Tag, uint64_t CheckpointEvery = 0,
                    uint64_t HeartbeatMs = 500) {
    serve::ServerCoreConfig PrimCfg;
    PrimCfg.SnapshotPath = replTempPath(Tag + "_prim.snap");
    PrimCfg.WalPath = replTempPath(Tag + "_prim.wal");
    PrimCfg.CheckpointEvery = CheckpointEvery;
    NetServerOptions PrimOpts;
    PrimOpts.HeartbeatMs = HeartbeatMs;
    Primary = std::make_unique<LoopbackServer>(SwapText, PrimOpts, PrimCfg);
    if (!Primary->Error.empty())
      return;

    serve::ServerCoreConfig FolCfg;
    FolCfg.SnapshotPath = replTempPath(Tag + "_fol.snap");
    FolCfg.WalPath = replTempPath(Tag + "_fol.wal");
    NetServerOptions FolOpts;
    FolOpts.ReadOnly = true;
    // The follower's initial text is irrelevant: a (0, 0) cursor makes
    // the first handshake bootstrap it from the primary's snapshot.
    Follower = std::make_unique<LoopbackServer>("cons seedonly\n", FolOpts,
                                                FolCfg);
    if (!Follower->Error.empty())
      return;

    ReplicationClient::Options ReplOpts;
    ReplOpts.TcpSpec =
        "127.0.0.1:" + std::to_string(Primary->Server->tcpPort());
    ReplOpts.TickMs = 50;
    ReplOpts.JitterSeed = 11;
    Repl = std::make_unique<ReplicationClient>(*Follower->Server,
                                               std::move(ReplOpts));
    Repl->start();
  }

  ~ReplPair() {
    if (Repl)
      Repl->stop();
  }

  /// Polls `verify` on both sides until the full reply lines (checksum,
  /// base, and record count) match; false on timeout.
  bool converge(uint64_t TimeoutMs = 10000) {
    LineClient P = Primary->client();
    LineClient F = Follower->client();
    for (uint64_t Waited = 0; Waited < TimeoutMs; Waited += 20) {
      if (ask(P, "verify") == ask(F, "verify"))
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }
};

TEST(NetReplicationTest, FollowerBootstrapsTailsAndRejectsWrites) {
  // checkpoint-every=3 makes the primary rebase mid-stream, so the tail
  // exercises both `r` records and a live `rebase` event.
  ReplPair Pair("boot", /*CheckpointEvery=*/3);
  ASSERT_TRUE(Pair.Primary && Pair.Primary->Error.empty())
      << (Pair.Primary ? Pair.Primary->Error : "no primary");
  ASSERT_TRUE(Pair.Follower && Pair.Follower->Error.empty())
      << (Pair.Follower ? Pair.Follower->Error : "no follower");

  LineClient P = Pair.Primary->client();
  for (int K = 0; K != 5; ++K) {
    EXPECT_EQ(ask(P, "add cons w" + std::to_string(K)), "ok added");
    EXPECT_EQ(ask(P, "add w" + std::to_string(K) + " <= P"), "ok added");
  }
  ASSERT_TRUE(Pair.converge());

  // The follower answers queries from its own views — byte-identically.
  LineClient F = Pair.Follower->client();
  EXPECT_EQ(ask(F, "pts P"), ask(P, "pts P"));
  EXPECT_EQ(parseSet(ask(F, "pts P")).count("nx"), 1u);
  EXPECT_EQ(parseSet(ask(F, "pts P")).count("w4"), 1u);

  // Writes are refused with the dedicated code until a promote.
  std::string Refused = ask(F, "add cons nope");
  EXPECT_EQ(Refused.rfind("err read_only ", 0), 0u) << Refused;
  Refused = ask(F, "checkpoint");
  EXPECT_EQ(Refused.rfind("err read_only ", 0), 0u) << Refused;

  // New records after convergence still flow.
  EXPECT_EQ(ask(P, "add cons late"), "ok added");
  EXPECT_EQ(ask(P, "add late <= P"), "ok added");
  ASSERT_TRUE(Pair.converge());
  EXPECT_EQ(parseSet(ask(F, "pts P")).count("late"), 1u);
}

// Satellite regression: the idle sweep must not reap a quiet tailing
// replica (LongLived exemption) while still reaping plain idle clients.
TEST(NetReplicationTest, LongLivedReplicaConnSurvivesIdleSweep) {
  serve::ServerCoreConfig CoreCfg;
  CoreCfg.SnapshotPath = replTempPath("idle_prim.snap");
  CoreCfg.WalPath = replTempPath("idle_prim.wal");
  NetServerOptions Opts;
  Opts.IdleTimeoutMs = 100;
  Opts.HeartbeatMs = 50;
  LoopbackServer S(SwapText, Opts, CoreCfg);
  ASSERT_TRUE(S.Error.empty()) << S.Error;

  // A replica connection: raw `replicate` handshake, then silence — it
  // only ever receives. It must outlive several sweep periods, fed by
  // heartbeats.
  LineClient R = S.client();
  ASSERT_TRUE(R.sendLine("replicate 0 0").ok());
  std::string Header;
  ASSERT_TRUE(R.recvLine(Header).ok());
  ASSERT_EQ(Header.rfind("ok snapshot ", 0), 0u) << Header;
  size_t SizeAt = Header.rfind(' ');
  std::vector<uint8_t> Snap;
  ASSERT_TRUE(
      R.recvBytes(std::stoull(Header.substr(SizeAt + 1)), Snap).ok());

  // A plain client goes idle at the same time and is reaped.
  LineClient Idle = S.client();
  EXPECT_EQ(ask(Idle, "alias X Y"), "ok false");
  std::string Dead;
  EXPECT_FALSE(Idle.recvLine(Dead).ok());

  // By now several idle timeouts have passed; the replica still receives
  // heartbeats (hb lines, possibly after an empty separator line).
  unsigned Heartbeats = 0;
  std::string Line;
  while (Heartbeats < 3) {
    ASSERT_TRUE(R.recvLine(Line).ok())
        << "replica connection was reaped by the idle sweep";
    if (Line.rfind("hb ", 0) == 0)
      ++Heartbeats;
  }
  EXPECT_EQ(S.stop(), 0);
}

TEST(NetReplicationTest, PromoteFlipsWritableAndStopsTail) {
  ReplPair Pair("promote");
  ASSERT_TRUE(Pair.Primary && Pair.Primary->Error.empty());
  ASSERT_TRUE(Pair.Follower && Pair.Follower->Error.empty());

  LineClient P = Pair.Primary->client();
  EXPECT_EQ(ask(P, "add cons pre"), "ok added");
  EXPECT_EQ(ask(P, "add pre <= P"), "ok added");
  ASSERT_TRUE(Pair.converge());

  // Promote is only legal on a follower.
  std::string OnPrimary = ask(P, "promote");
  EXPECT_EQ(OnPrimary.rfind("err failed_precondition ", 0), 0u) << OnPrimary;

  LineClient F = Pair.Follower->client();
  std::string Promoted = ask(F, "promote");
  EXPECT_EQ(Promoted.rfind("ok promoted base=", 0), 0u) << Promoted;
  EXPECT_FALSE(Pair.Follower->Server->readOnly());
  EXPECT_EQ(ask(F, "promote"), "err failed_precondition already promoted");

  // Writable now, with its own re-stamped WAL lineage.
  EXPECT_EQ(ask(F, "add cons own"), "ok added");
  EXPECT_EQ(ask(F, "add own <= P"), "ok added");
  EXPECT_EQ(parseSet(ask(F, "pts P")).count("own"), 1u);
  EXPECT_EQ(parseSet(ask(F, "pts P")).count("pre"), 1u);

  // The old tail is dead: records written to the old primary no longer
  // flow (the promoted server refuses replicated applies even if a stray
  // stream survives).
  Pair.Repl->stop();
  EXPECT_EQ(ask(P, "add cons postsplit"), "ok added");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(parseSet(ask(F, "pts P")).count("postsplit"), 0u);
}

// Chained replication is out of scope and must be refused loudly, not
// silently accepted.
TEST(NetReplicationTest, FollowerRefusesReplicateHandshake) {
  ReplPair Pair("chain");
  ASSERT_TRUE(Pair.Primary && Pair.Primary->Error.empty());
  ASSERT_TRUE(Pair.Follower && Pair.Follower->Error.empty());
  ASSERT_TRUE(Pair.converge());

  LineClient F = Pair.Follower->client();
  ASSERT_TRUE(F.sendLine("replicate 0 0").ok());
  std::string Reply;
  ASSERT_TRUE(F.recvLine(Reply).ok());
  EXPECT_EQ(Reply.rfind("err failed_precondition ", 0), 0u) << Reply;
  EXPECT_NE(Reply.find("chained replication"), std::string::npos) << Reply;
}

// Regression: `verify` must judge convergence by answer identity, not
// serialized-byte identity. A follower started the way `scserved
// --follow` starts one — cold bootstrap to disk, GraphSnapshot::load,
// materializeAllViews, recover — replays the WAL tail onto a
// deserialized graph and can collapse cycles onto different (equally
// valid) representatives than the live-solved primary, so the two
// serialized byte streams never match while every answer does; a
// byte-level checksum kept such a pair "diverged" forever. The workload
// mirrors bench/repl_bench.cpp at small scale, where this was first
// caught.
TEST(NetReplicationTest, VerifyConvergesAcrossRepresentationDivergence) {
  const uint32_t Vars = 24, Cons = 18, Records = 12;
  PRNG Base(0x706f6365u);
  std::string Text = "cons ref + + -\n";
  for (uint32_t L = 0; L != 6; ++L)
    Text += "cons l" + std::to_string(L) + "\n";
  for (uint32_t V = 0; V != Vars; ++V)
    Text += "var v" + std::to_string(V) + "\n";
  for (uint32_t C = 0; C != Cons; ++C) {
    uint32_t A = static_cast<uint32_t>(Base.nextBelow(Vars));
    uint32_t B = static_cast<uint32_t>(Base.nextBelow(Vars));
    if (Base.nextBelow(3) == 0)
      Text += "ref(l" + std::to_string(Base.nextBelow(6)) + ", v" +
              std::to_string(A) + ", v" + std::to_string(A) + ") <= v" +
              std::to_string(B) + "\n";
    else
      Text += "v" + std::to_string(A) + " <= v" + std::to_string(B) + "\n";
  }

  serve::ServerCoreConfig PrimCfg;
  PrimCfg.SnapshotPath = replTempPath("canon_prim.snap");
  PrimCfg.WalPath = replTempPath("canon_prim.wal");
  LoopbackServer Prim(Text, {}, PrimCfg);
  ASSERT_TRUE(Prim.Error.empty()) << Prim.Error;
  LineClient P = Prim.client();

  // All records land before the follower exists; the mid-stream
  // checkpoint makes its bootstrap a serialize of live-solved state
  // with a post-checkpoint record tail still to replay.
  PRNG AddRng(0x706f6366u);
  for (uint32_t K = 0; K != Records; ++K) {
    std::string Line;
    if (K % 2 == 0)
      Line = "cons a" + std::to_string(K);
    else if (K % 8 == 3)
      Line = "v" + std::to_string(AddRng.nextBelow(Vars)) + " <= v" +
             std::to_string(AddRng.nextBelow(Vars));
    else
      Line = "a" + std::to_string(K - 1) + " <= v" +
             std::to_string(AddRng.nextBelow(Vars));
    EXPECT_EQ(ask(P, "add " + Line), "ok added");
    if (K == Records / 2) {
      EXPECT_EQ(ask(P, "checkpoint").rfind("ok ", 0), 0u);
    }
  }

  // The follower, exactly as the scserved driver builds one.
  std::string FolSnap = replTempPath("canon_fol.snap");
  std::string PrimSpec =
      "127.0.0.1:" + std::to_string(Prim.Server->tcpPort());
  Status Boot = ReplicationClient::coldBootstrap(
      PrimSpec, /*UnixPath=*/"", FolSnap, /*DeadlineMs=*/10000);
  ASSERT_TRUE(Boot.ok()) << Boot.toString();
  serve::SolverBundle FolBundle;
  uint64_t FolBase = 0;
  Status Loaded = serve::GraphSnapshot::load(FolSnap, FolBundle, &FolBase);
  ASSERT_TRUE(Loaded.ok()) << Loaded.toString();
  FolBundle.Solver->materializeAllViews();
  serve::ServerCoreConfig FolCfg;
  FolCfg.SnapshotPath = FolSnap;
  FolCfg.WalPath = replTempPath("canon_fol.wal");
  serve::ServerCore FolCore(std::move(FolBundle), /*CacheCapacity=*/64,
                            FolCfg);
  ASSERT_TRUE(FolCore.valid()) << FolCore.initError();
  Status Recovered = FolCore.recover(FolBase);
  ASSERT_TRUE(Recovered.ok()) << Recovered.toString();
  NetServerOptions FolOpts;
  FolOpts.TcpSpec = "127.0.0.1:0";
  FolOpts.Lanes = 2;
  FolOpts.ReadOnly = true;
  NetServer FolServer(FolCore, FolOpts);
  ReplicationClient::Options ReplOpts;
  ReplOpts.TcpSpec = PrimSpec;
  ReplOpts.InitialBase = FolCore.walBaseId();
  ReplOpts.InitialSeq = FolCore.walRecords();
  ReplOpts.TickMs = 50;
  ReplOpts.JitterSeed = 23;
  ReplicationClient Repl(FolServer, std::move(ReplOpts));
  ASSERT_TRUE(FolServer.init().ok());
  std::thread FolLoop([&] { FolServer.run(); });
  Repl.start();

  LineClient F;
  ASSERT_TRUE(
      F.connectTcp("127.0.0.1:" + std::to_string(FolServer.tcpPort()))
          .ok());
  bool Converged = false;
  for (int Waited = 0; Waited < 10000; Waited += 20) {
    if (ask(P, "verify") == ask(F, "verify")) {
      Converged = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(Converged) << "verify never matched: primary '"
                         << ask(P, "verify") << "' follower '"
                         << ask(F, "verify") << "'";
  for (uint32_t V = 0; V < Vars; V += 5) {
    std::string Name = "v" + std::to_string(V);
    EXPECT_EQ(parseSet(ask(F, "ls " + Name)),
              parseSet(ask(P, "ls " + Name)))
        << Name;
  }
  Repl.stop();
  ask(F, "shutdown");
  FolLoop.join();
}

//===----------------------------------------------------------------------===//
// Strict wire-integer parsing and retraction over sockets
//===----------------------------------------------------------------------===//

// Satellite regression: the old parsers called strtoull directly, which
// silently accepts "-1" (wrapping to UINT64_MAX) and leading whitespace.
// A replica handshaking with `replicate -1 -1` used to be treated as a
// cursor at the end of the log instead of being refused.
TEST(NetParseTest, StrictIntegerParsing) {
  uint64_t V = 0;

  EXPECT_TRUE(parseHexU64("0", V)) << "plain zero";
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseHexU64("1f", V));
  EXPECT_EQ(V, 0x1fu);
  EXPECT_TRUE(parseHexU64("ffffffffffffffff", V));
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_TRUE(parseDecU64("42", V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(parseDecU64("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);

  // The strtoull traps: sign prefixes and whitespace must be refused.
  EXPECT_FALSE(parseHexU64("-1", V));
  EXPECT_FALSE(parseDecU64("-1", V));
  EXPECT_FALSE(parseDecU64("+7", V));
  EXPECT_FALSE(parseDecU64(" 7", V));
  EXPECT_FALSE(parseHexU64(" f", V));
  EXPECT_FALSE(parseHexU64("\t0", V));

  // Trailing junk, empties, and non-digits.
  EXPECT_FALSE(parseDecU64("7x", V));
  EXPECT_FALSE(parseHexU64("12 ", V));
  EXPECT_FALSE(parseDecU64("", V));
  EXPECT_FALSE(parseHexU64("", V));
  EXPECT_FALSE(parseHexU64("g1", V));
  EXPECT_FALSE(parseDecU64("12a", V));

  // Overflow is an error, not a silent clamp to ULLONG_MAX.
  EXPECT_FALSE(parseDecU64("18446744073709551616", V));
  EXPECT_FALSE(parseHexU64("10000000000000000", V));
}

TEST(NetServerTest, MalformedReplicateHandshakeIsRefused) {
  serve::ServerCoreConfig CoreCfg;
  CoreCfg.SnapshotPath = replTempPath("malformed.snap");
  CoreCfg.WalPath = replTempPath("malformed.wal");
  LoopbackServer S(SwapText, {}, CoreCfg);
  ASSERT_TRUE(S.Error.empty()) << S.Error;

  const char *Bad[] = {"replicate -1 -1", "replicate g0 0", "replicate 5 5x",
                       "replicate 0 +1"};
  for (const char *Line : Bad) {
    LineClient C = S.client();
    std::string Reply = ask(C, Line);
    EXPECT_EQ(Reply.rfind("err invalid_argument ", 0), 0u)
        << Line << " -> " << Reply;
  }

  // A well-formed cursor on the same server still handshakes.
  LineClient Good = S.client();
  ASSERT_TRUE(Good.sendLine("replicate 0 0").ok());
  std::string Header;
  ASSERT_TRUE(Good.recvLine(Header).ok());
  EXPECT_EQ(Header.rfind("ok snapshot ", 0), 0u) << Header;
}

TEST(NetReplicationTest, RetractReplicatesAndConverges) {
  ReplPair Pair("retract");
  ASSERT_TRUE(Pair.Primary && Pair.Primary->Error.empty())
      << (Pair.Primary ? Pair.Primary->Error : "no primary");
  ASSERT_TRUE(Pair.Follower && Pair.Follower->Error.empty())
      << (Pair.Follower ? Pair.Follower->Error : "no follower");

  LineClient P = Pair.Primary->client();
  EXPECT_EQ(ask(P, "add cons w0"), "ok added");
  EXPECT_EQ(ask(P, "add w0 <= P"), "ok added");
  ASSERT_TRUE(Pair.converge());

  LineClient F = Pair.Follower->client();
  EXPECT_EQ(parseSet(ask(F, "pts P")).count("w0"), 1u);

  // Retraction is a write: the follower refuses it.
  std::string Refused = ask(F, "retract w0 <= P");
  EXPECT_EQ(Refused.rfind("err read_only ", 0), 0u) << Refused;

  // On the primary it lands, ships through the tail, and `verify` stays
  // the convergence oracle across the deletion.
  EXPECT_EQ(ask(P, "retract w0 <= P"), "ok retracted");
  EXPECT_EQ(ask(P, "retract w0 <= P"),
            "err not_found no live constraint 'w0 <= P' to retract");
  ASSERT_TRUE(Pair.converge());
  EXPECT_EQ(parseSet(ask(F, "pts P")).count("w0"), 0u);
  EXPECT_EQ(ask(F, "pts P"), ask(P, "pts P"));

  // The cycle P/Q/T from the seed text is untouched by the retraction.
  EXPECT_EQ(ask(F, "alias P Q"), "ok true");
}

} // namespace
