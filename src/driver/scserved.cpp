//===- driver/scserved.cpp - Long-running constraint query server ---------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// scserved: solver-as-a-service. Loads a warm solved graph (from a
/// GraphSnapshot, or by solving a .scs file once at startup) and then
/// answers a newline-delimited request/response protocol — one request
/// line in, one `ok ...` or `err <code> <detail>` line out — either over
/// stdin/stdout (fully scriptable, the default) or over sockets:
///
///   scserved --snapshot=graph.snap --wal=graph.wal
///   scserved --config=if-online system.scs
///   scserved --snapshot=graph.snap --unix=/tmp/poce.sock --net-lanes=4
///   scserved --snapshot=graph.snap --listen=127.0.0.1:7075
///
/// The writer pipeline (WAL recovery, append-before-apply, budget
/// rollback, atomic checkpoints, degraded mode) lives in
/// serve/ServerCore and is shared verbatim between the stdin loop and
/// the socket front end (net/Server.h). Both answer reads from the
/// engine's ReadView (serve/ReadView.h). In socket mode, reads execute
/// concurrently on a thread-pool wave against the published view while a
/// single writer lane owns the core — queries never block on adds; see
/// net/Server.h for the full concurrency story.
///
/// Fault tolerance (see INTERNALS.md for the recovery invariant):
///   - With --wal, every accepted `add` line is validated (dry-run parse)
///     and then appended (and fsynced) to the write-ahead log *before* it
///     is applied, so `ok added` implies the line is durable and will
///     replay cleanly. On restart the server replays the WAL on top of
///     the snapshot, which reconstructs exactly the acknowledged state; a
///     torn tail from a crash mid-append is detected by checksum and
///     truncated, and a WAL whose base id does not match the snapshot
///     (a checkpoint interrupted between the snapshot rename and the WAL
///     reset) is recognized as stale and skipped — its records are
///     already contained in the snapshot.
///   - --deadline-ms / --edge-budget / --max-mem-mb bound each `add`'s
///     closure. A breach aborts the batch, rolls the graph back to the
///     pre-line state, and answers `err budget_exceeded ...`; the server
///     keeps serving.
///   - `checkpoint` (or --checkpoint-every=N) atomically rewrites the
///     snapshot and resets the WAL, bounding recovery time.
///   - `shutdown` (or SIGTERM) drains in-flight requests, closes the
///     fsynced WAL, dumps metrics, and exits 0 — restart recovers every
///     acknowledged add.
///   - POCE_FAILPOINTS arms fault injection (see support/FailPoint.h).
///
/// Protocol (see README.md for a copy-pasteable session):
///   ls X          least solution of X
///   pts X         points-to location tags of X
///   alias X Y     may X and Y alias?
///   add LINE      feed one constraint-file line through the online closure
///   retract LINE  delete a previously added constraint; the solver
///                 recomputes the affected cone incrementally (WAL v3
///                 `!retract` record, shipped to followers like an add)
///   save PATH     snapshot the current graph (atomic write)
///   checkpoint [PATH]  snapshot + reset the WAL (default: --snapshot path)
///   stats         solver statistics + fault-tolerance counters
///   counters      query latency percentiles and view-row counters
///   metrics       Prometheus text exposition (multi-line, ends "# EOF")
///   verify        canonical answer checksum (replica consistency check)
///   shutdown      graceful drain and exit 0
///   help | quit
///
/// Replication (socket mode; see INTERNALS.md "Replication and
/// failover"): a follower started with --follow=HOST:PORT (or a socket
/// path) bootstraps from the primary's snapshot when its own --snapshot
/// file does not exist yet, replays its local WAL, then tails the
/// primary's record stream with reconnect backoff and a resumable
/// cursor. It serves reads from its own read views, answers writes with
/// `err read_only`, and a `promote` verb re-stamps the WAL base and
/// flips it writable (failover).
///
/// Observability: query latencies land in an O(1)-insert log-bucket
/// histogram (support/Metrics.h) instead of a sorted ring, the `metrics`
/// verb exposes every registered series in Prometheus text format, and
/// --metrics-out=FILE dumps the registry as JSON every --metrics-every=N
/// handled requests (and at exit). POCE_TRACE=FILE additionally records
/// Chrome trace-event spans of the solver/WAL/checkpoint phases.
///
//===----------------------------------------------------------------------===//

#include "net/Framing.h"
#include "net/Replication.h"
#include "net/Server.h"
#include "serve/GraphSnapshot.h"
#include "serve/QueryEngine.h"
#include "serve/ServerCore.h"
#include "serve/Telemetry.h"
#include "serve/Wal.h"
#include "support/CommandLine.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/Status.h"
#include "support/Trace.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace poce;
using namespace poce::serve;

namespace {

/// --dump-wal=FILE: print every intact line of a WAL (one per line) and
/// exit. This is the recovery harness's oracle input: snapshot + these
/// lines must equal the recovered server's state.
int dumpWal(const std::string &Path) {
  Expected<WalContents> Contents = WriteAheadLog::replay(Path);
  if (!Contents.ok()) {
    std::fprintf(stderr, "scserved: %s\n",
                 Contents.status().toString().c_str());
    return 1;
  }
  for (const std::string &Line : Contents->Lines)
    std::printf("%s\n", Line.c_str());
  if (!Contents->HeaderIntact)
    std::fprintf(stderr, "scserved: note: torn WAL header (crash during "
                         "creation); the log is empty\n");
  else if (Contents->TornBytes)
    std::fprintf(stderr, "scserved: note: %llu torn trailing bytes ignored\n",
                 static_cast<unsigned long long>(Contents->TornBytes));
  return 0;
}

/// SIGTERM = graceful drain in either mode. The handler only flips the
/// flag and pokes the socket server's eventfd (both async-signal-safe);
/// the serving loops notice and drain.
volatile std::sig_atomic_t TermRequested = 0;

void onSigterm(int) {
  TermRequested = 1;
  net::NetServer::requestStop();
}

void installSigterm() {
  struct sigaction Action;
  std::memset(&Action, 0, sizeof(Action));
  Action.sa_handler = onSigterm;
  sigemptyset(&Action.sa_mask);
  // Deliberately no SA_RESTART: the stdin loop's blocking read must
  // return EINTR so an idle server still drains promptly.
  Action.sa_flags = 0;
  ::sigaction(SIGTERM, &Action, nullptr);
}

} // namespace

int main(int Argc, char **Argv) {
  FailPoint::armFromEnv();

  CommandLine Cmd("scserved",
                  "long-running inclusion-constraint query server "
                  "(newline protocol on stdin/stdout or sockets)");
  std::string Snapshot;
  std::string WalPath;
  std::string DumpWal;
  std::string Config = "if-online";
  std::string Preprocess = "none";
  int64_t Seed = 0x706f6365;
  uint64_t Threads = 1;
  uint64_t DeadlineMs = 0;
  uint64_t EdgeBudget = 0;
  uint64_t MaxMemMb = 0;
  uint64_t MaxRequest = 64 * 1024;
  uint64_t CheckpointEvery = 0;
  std::string MetricsOut;
  uint64_t MetricsEvery = 64;
  std::string Listen;
  std::string UnixPath;
  uint64_t NetLanes = 0;
  uint64_t IdleTimeoutMs = 0;
  std::string Follow;
  uint64_t FollowDeadlineMs = 30000;
  Cmd.addString("snapshot", &Snapshot, "load this snapshot instead of "
                                       "solving a .scs file");
  Cmd.addString("wal", &WalPath,
                "write-ahead log: accepted adds are fsynced here before "
                "application, and replayed on top of the snapshot at "
                "startup");
  Cmd.addString("dump-wal", &DumpWal,
                "print the intact lines of this WAL and exit");
  Cmd.addString("config", &Config, "{sf,if}-{plain,online} for .scs input");
  Cmd.addString("preprocess", &Preprocess,
                "pre-solve pass for .scs input: none or offline (HVN + "
                "Tarjan SCC variable substitution before the first "
                "closure); responses are identical. Snapshot bases load "
                "already closed, so there the option is only recorded");
  Cmd.addInt("seed", &Seed, "variable-order seed for .scs input");
  Cmd.addUInt("threads", &Threads,
              "lanes for the least-solution pass (0 = hardware); results "
              "identical for any value");
  Cmd.addUInt("deadline-ms", &DeadlineMs,
              "per-add closure deadline in ms (0 = unlimited)");
  Cmd.addUInt("edge-budget", &EdgeBudget,
              "per-add closure work budget in edges (0 = unlimited)");
  Cmd.addUInt("max-mem-mb", &MaxMemMb,
              "abort an add when process RSS exceeds this (0 = unlimited)");
  Cmd.addUInt("max-request", &MaxRequest,
              "longest accepted request line in bytes");
  Cmd.addUInt("checkpoint-every", &CheckpointEvery,
              "auto-checkpoint after this many accepted adds "
              "(requires --snapshot and --wal; 0 = never)");
  Cmd.addString("metrics-out", &MetricsOut,
                "dump the metrics registry to this file as JSON every "
                "--metrics-every requests and at exit");
  Cmd.addUInt("metrics-every", &MetricsEvery,
              "requests between --metrics-out dumps (default 64)");
  Cmd.addString("listen", &Listen,
                "serve the protocol on this TCP address (host:port; "
                "port 0 picks an ephemeral port) instead of stdin");
  Cmd.addString("unix", &UnixPath,
                "serve the protocol on this Unix-domain socket path "
                "instead of stdin (combinable with --listen)");
  Cmd.addUInt("net-lanes", &NetLanes,
              "reader lanes for socket mode (0 = one per hardware "
              "thread); answers are identical for any value");
  Cmd.addUInt("idle-timeout-ms", &IdleTimeoutMs,
              "close socket connections idle this long (0 = never)");
  Cmd.addString("follow", &Follow,
                "run as a read-only replica of the primary at this "
                "address (host:port, or a Unix-socket path): bootstrap "
                "from its snapshot if --snapshot does not exist yet, "
                "tail its WAL stream, answer writes with `err "
                "read_only` until a `promote` verb. Requires "
                "--snapshot, --wal, and a socket listener");
  Cmd.addUInt("follow-deadline-ms", &FollowDeadlineMs,
              "give up on the initial bootstrap connection after this "
              "long (the running tail retries forever)");
  if (!Cmd.parse(Argc, Argv))
    return 1;

  // The server always wants per-phase timings: its request loop is I/O
  // bound, so the clock reads are noise, and the histograms are what the
  // `metrics` verb serves.
  MetricsRegistry::setTimingEnabled(true);

  if (!DumpWal.empty())
    return dumpWal(DumpWal);

  PreprocessMode PreprocessArg = PreprocessMode::None;
  if (!parsePreprocessName(Preprocess, PreprocessArg)) {
    std::fprintf(stderr, "scserved: unknown preprocess mode '%s'\n",
                 Preprocess.c_str());
    return 1;
  }

  if (CheckpointEvery > 0 && (Snapshot.empty() || WalPath.empty())) {
    std::fprintf(stderr,
                 "scserved: --checkpoint-every requires --snapshot and "
                 "--wal\n");
    return 1;
  }

  // Follower mode: the primary's snapshot/WAL pair is the replicated
  // unit, so the local pair and a socket listener are mandatory, and
  // --preprocess is ignored — the follower adopts the primary's
  // serialized options wholesale and replays adds on the worklist
  // schedule, as the primary serves them, so the states stay
  // byte-identical.
  std::string FollowTcp, FollowUnix;
  if (!Follow.empty()) {
    if (Follow.find(':') != std::string::npos)
      FollowTcp = Follow;
    else
      FollowUnix = Follow;
    if (Snapshot.empty() || WalPath.empty()) {
      std::fprintf(stderr,
                   "scserved: --follow requires --snapshot and --wal\n");
      return 1;
    }
    if (Listen.empty() && UnixPath.empty()) {
      std::fprintf(stderr, "scserved: --follow requires --listen or "
                           "--unix (followers serve over sockets)\n");
      return 1;
    }
    if (PreprocessArg != PreprocessMode::None)
      std::fprintf(stderr,
                   "scserved: note: --preprocess is ignored under "
                   "--follow (the primary's options are adopted)\n");
    if (::access(Snapshot.c_str(), F_OK) != 0) {
      Status Boot = net::ReplicationClient::coldBootstrap(
          FollowTcp, FollowUnix, Snapshot, FollowDeadlineMs);
      if (!Boot) {
        std::fprintf(stderr, "scserved: %s\n", Boot.toString().c_str());
        return 1;
      }
    }
  }

  SolverBundle Bundle;
  // The WAL's base id: the loaded snapshot's payload checksum, or 0 when
  // the base is a fresh .scs solve. A WAL stamped with a different id
  // does not extend this base (see serve/Wal.h).
  uint64_t SnapBase = 0;
  if (!Snapshot.empty()) {
    if (!Cmd.positionals().empty()) {
      std::fprintf(stderr,
                   "scserved: --snapshot and a .scs file are exclusive\n");
      return 1;
    }
    Status Loaded = GraphSnapshot::load(Snapshot, Bundle, &SnapBase);
    if (!Loaded) {
      std::fprintf(stderr, "scserved: %s\n", Loaded.toString().c_str());
      return 1;
    }
  } else {
    if (Cmd.positionals().size() != 1) {
      std::fprintf(stderr, "scserved: expected --snapshot=PATH or exactly "
                           "one .scs file; try --help\n");
      return 1;
    }
    std::ifstream In(Cmd.positionals()[0]);
    if (!In) {
      std::fprintf(stderr, "scserved: cannot open '%s'\n",
                   Cmd.positionals()[0].c_str());
      return 1;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    ConstraintSystemFile System;
    Status Parsed = System.parse(Buffer.str());
    if (!Parsed) {
      std::fprintf(stderr, "scserved: %s: %s\n",
                   Cmd.positionals()[0].c_str(),
                   Parsed.toString().c_str());
      return 1;
    }
    SolverOptions Options;
    if (!parseConfigName(Config, Options) ||
        Options.Elim == CycleElim::Oracle ||
        Options.Elim == CycleElim::Periodic) {
      std::fprintf(stderr, "scserved: unknown configuration '%s' (oracle "
                           "and periodic solvers cannot serve)\n",
                   Config.c_str());
      return 1;
    }
    Options.Seed = static_cast<uint64_t>(Seed);
    // Armed pre-construction so the .scs bulk load defers into the pass.
    Options.Preprocess = PreprocessArg;
    Bundle.Constructors = std::make_unique<ConstructorTable>();
    Bundle.Terms = std::make_unique<TermTable>(*Bundle.Constructors);
    Bundle.Solver = std::make_unique<ConstraintSolver>(*Bundle.Terms, Options);
    System.emit(*Bundle.Solver);
  }

  Bundle.Solver->setThreads(static_cast<unsigned>(Threads));
  // Served adds run on the worklist: a standard-form add under wave may
  // rebuild the cached topological order, which costs many times the add
  // itself (README, `--closure`), and inductive-form adds cost the same
  // on both. Every solver starts on the bulk-load default (wave) and
  // snapshots never carry the schedule, so arm it explicitly; for a .scs
  // base this closes the bulk load under wave first.
  Bundle.Solver->setClosure(ClosureMode::Worklist);
  // Snapshots never carry the preprocess option either; re-arm it so the
  // recorded configuration matches the flags (on a warm base the pass
  // itself never re-runs — incremental adds stay online). Followers skip
  // this re-arm: their state must stay byte-identical to the primary's,
  // so the serialized options ride in with every shipped snapshot.
  if (PreprocessArg == PreprocessMode::Offline && Follow.empty())
    Bundle.Solver->setPreprocess(PreprocessMode::Offline);

  ServerCoreConfig CoreConfig;
  CoreConfig.SnapshotPath = Snapshot;
  CoreConfig.WalPath = WalPath;
  CoreConfig.CheckpointEvery = CheckpointEvery;
  CoreConfig.DeadlineMs = DeadlineMs;
  CoreConfig.EdgeBudget = EdgeBudget;
  CoreConfig.MaxMemBytes = MaxMemMb * 1024 * 1024;
  ServerCore Core(std::move(Bundle), 0, CoreConfig);
  if (!Core.valid()) {
    std::fprintf(stderr, "scserved: %s\n", Core.initError().c_str());
    return 1;
  }
  // NOTE: never cache a ConstraintSolver reference across requests — a
  // budget rollback replaces the engine's bundle, freeing the old solver.

  Status Recovered = Core.recover(SnapBase);
  if (!Recovered) {
    std::fprintf(stderr, "scserved: %s\n", Recovered.toString().c_str());
    return 1;
  }

  QueryEngine &Engine = Core.engine();
  std::printf("ok ready config=%s vars=%u live=%u wal_replayed=%llu "
              "wal_skipped=%llu\n",
              Engine.solver().options().configName().c_str(),
              Engine.solver().numVars(), Engine.solver().numLiveVars(),
              static_cast<unsigned long long>(Core.walReplayed()),
              static_cast<unsigned long long>(Core.walSkipped()));
  std::fflush(stdout);

  installSigterm();

  // Socket mode: hand the core to the epoll front end. The second ready
  // line carries the bound addresses (the TCP port may have been
  // ephemeral), so harnesses know where to connect.
  if (!Listen.empty() || !UnixPath.empty()) {
    net::NetServerOptions NetOpts;
    NetOpts.TcpSpec = Listen;
    NetOpts.UnixPath = UnixPath;
    NetOpts.Lanes = static_cast<unsigned>(NetLanes);
    NetOpts.MaxRequest = static_cast<size_t>(MaxRequest);
    NetOpts.IdleTimeoutMs = IdleTimeoutMs;
    NetOpts.MetricsOut = MetricsOut;
    NetOpts.MetricsEvery = MetricsEvery;
    NetOpts.ReadOnly = !Follow.empty();
    // A promote must stop the tail without joining it (the tail thread
    // may be blocked inside a queued writer-lane job); requestStop only
    // flips a flag and shuts the socket down, which is enough.
    net::ReplicationClient *ReplPtr = nullptr;
    if (!Follow.empty())
      NetOpts.OnPromote = [&ReplPtr] {
        if (ReplPtr)
          ReplPtr->requestStop();
      };
    net::NetServer Server(Core, NetOpts);
    std::unique_ptr<net::ReplicationClient> Repl;
    if (!Follow.empty()) {
      net::ReplicationClient::Options ReplOpts;
      ReplOpts.TcpSpec = FollowTcp;
      ReplOpts.UnixPath = FollowUnix;
      ReplOpts.InitialBase = Core.walBaseId();
      ReplOpts.InitialSeq = Core.walRecords();
      Repl = std::make_unique<net::ReplicationClient>(Server, ReplOpts);
      ReplPtr = Repl.get();
    }
    Status Ready = Server.init();
    if (!Ready) {
      std::fprintf(stderr, "scserved: %s\n", Ready.toString().c_str());
      return 1;
    }
    std::string Where;
    if (!Listen.empty())
      Where += " tcp=" + std::to_string(Server.tcpPort());
    if (!UnixPath.empty())
      Where += " unix=" + UnixPath;
    std::printf("ok listening%s%s\n", Where.c_str(),
                Follow.empty() ? "" : " role=follower");
    std::fflush(stdout);
    if (Repl)
      Repl->start();
    int Exit = Server.run();
    if (Repl)
      Repl->stop();
    return Exit;
  }

  // Stdin mode. Framing goes through net::LineBuffer so the size limit
  // is enforced streamingly (the reply text matches the old whole-line
  // check), and the read loop is plain read(2) so a SIGTERM's EINTR
  // breaks an idle wait.
  uint64_t RequestsHandled = 0;
  auto DumpMetrics = [&]() {
    if (MetricsOut.empty())
      return;
    Status Written = Core.dumpMetricsTo(MetricsOut);
    if (!Written)
      std::fprintf(stderr, "scserved: metrics dump failed: %s\n",
                   Written.toString().c_str());
  };
  auto Reply = [](const std::string &Line) {
    std::fputs(Line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  };
  auto ReplyErr = [&Reply](const Status &St) { Reply("err " + St.wire()); };

  // Returns false when the loop should stop (quit or shutdown).
  auto HandleLine = [&](const std::string &Line) -> bool {
    Request Req = parseRequest(Line);
    if (Req.Verb.empty() || Req.Verb[0] == '#')
      return true;

    ++RequestsHandled;
    if (MetricsEvery > 0 && RequestsHandled % MetricsEvery == 0)
      DumpMetrics();

    if (Req.Verb == "quit" || Req.Verb == "exit") {
      Reply("ok bye");
      return false;
    }
    if (Req.Verb == "help") {
      Reply("ok commands: ls X | pts X | alias X Y | add LINE | "
            "retract LINE | save PATH | checkpoint [PATH] | stats | "
            "counters | metrics | verify | shutdown | help | quit");
      return true;
    }
    if (isReadVerb(Req.Verb)) {
      const uint64_t StartUs = trace::nowMicros();
      std::string Response = Engine.answer(Req);
      telemetry::queryCounter().inc();
      telemetry::queryLatencyHistogram().record(trace::nowMicros() -
                                                StartUs);
      trace::complete("serve.query", StartUs);
      Reply(Response);
      return true;
    }

    std::string WriterReply;
    if (Core.handleWriterVerb(Req, WriterReply) !=
        ServerCore::VerbResult::NotMine) {
      Reply(WriterReply);
      return !Core.shutdownRequested();
    }

    ReplyErr(Status::error(ErrorCode::InvalidArgument,
                           "unknown verb '" + Req.Verb + "'; try help"));
    return true;
  };

  net::LineBuffer In(static_cast<size_t>(MaxRequest));
  bool Running = true;
  while (Running) {
    char Buf[4096];
    ssize_t N = ::read(STDIN_FILENO, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR && !TermRequested)
        continue;
      break; // SIGTERM (or a hard stdin error): drain and exit 0.
    }
    if (N == 0)
      break; // EOF.
    In.append(Buf, static_cast<size_t>(N));
    std::string Item;
    for (;;) {
      net::LineBuffer::Item Kind = In.next(Item);
      if (Kind == net::LineBuffer::Item::None)
        break;
      if (Kind == net::LineBuffer::Item::Oversized) {
        ReplyErr(Status::error(ErrorCode::TooLarge,
                               "request is " + Item + " bytes; limit is " +
                                   std::to_string(MaxRequest)));
        continue;
      }
      if (!HandleLine(Item)) {
        Running = false;
        break;
      }
    }
    if (TermRequested)
      break;
  }
  // Common drain: every acknowledged add is already fsynced, so closing
  // the WAL cleanly plus the final metrics dump is the whole shutdown.
  DumpMetrics();
  Core.shutdownDrain();
  return 0;
}
