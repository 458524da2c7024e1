//===- bench/repl_bench.cpp - Replication catch-up trajectory bench -------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the replication catch-up path end to end: an in-process
/// primary (net/Server.h over a Unix socket, snapshot + WAL armed) takes
/// a stream of acknowledged adds with one mid-stream checkpoint, then a
/// follower cold-bootstraps over the `replicate` handshake — snapshot
/// ship for the checkpointed prefix, WAL-record tail for the rest — and
/// the bench clocks the wall time from first byte to checksum-verified
/// convergence (`verify` replies equal on both sockets).
///
/// The baseline is the alternative a failed-over deployment actually
/// faces: a fresh from-scratch solve of the same base system plus the
/// same add lines. Correctness is cross-checked, not assumed — a sample
/// of `ls` answers served by the caught-up follower must checksum-equal
/// the fresh solve's local answers, or the run fails (exit 1).
///
///   repl_bench                       print the summary table
///   repl_bench --emit_trajectory     also append a timestamped run to
///                                    BENCH_repl.json (or
///                                    --emit_trajectory=PATH)
///
/// Environment: POCE_BENCH_SCALE scales the workload. Trajectory entries
/// carry the CPU count, compiler and build type: both servers' threads
/// and the replication tail share this host's CPUs, so the catch-up time
/// includes scheduler queueing that a two-host deployment would not see.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "net/Client.h"
#include "net/Replication.h"
#include "net/Server.h"
#include "serve/GraphSnapshot.h"
#include "serve/QueryEngine.h"
#include "serve/ServerCore.h"
#include "setcon/ConstraintFile.h"
#include "support/Metrics.h"
#include "support/PRNG.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace poce;

namespace {

uint64_t nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Same shape as serve_bench's base system: Vars copy-connected with
/// address-of edges through ref() so replayed adds and queries both have
/// real propagation work. Deterministic in Seed.
std::string makeBaseSystem(uint32_t Vars, uint32_t Cons, uint64_t Seed) {
  PRNG Rng(Seed);
  uint32_t Locs = std::max<uint32_t>(4, Vars / 4);
  std::string Text = "cons ref + + -\n";
  for (uint32_t L = 0; L != Locs; ++L)
    Text += "cons l" + std::to_string(L) + "\n";
  for (uint32_t V = 0; V != Vars; ++V)
    Text += "var v" + std::to_string(V) + "\n";
  for (uint32_t C = 0; C != Cons; ++C) {
    uint32_t A = static_cast<uint32_t>(Rng.nextBelow(Vars));
    uint32_t B = static_cast<uint32_t>(Rng.nextBelow(Vars));
    if (Rng.nextBelow(3) == 0) {
      uint32_t L = static_cast<uint32_t>(Rng.nextBelow(Locs));
      Text += "ref(l" + std::to_string(L) + ", v" + std::to_string(A) +
              ", v" + std::to_string(A) + ") <= v" + std::to_string(B) +
              "\n";
    } else {
      Text += "v" + std::to_string(A) + " <= v" + std::to_string(B) + "\n";
    }
  }
  return Text;
}

serve::SolverBundle buildBundle(const std::string &Text,
                                std::string &Error) {
  serve::SolverBundle Bundle;
  Bundle.Constructors = std::make_unique<ConstructorTable>();
  Bundle.Terms = std::make_unique<TermTable>(*Bundle.Constructors);
  Bundle.Solver = std::make_unique<ConstraintSolver>(
      *Bundle.Terms, makeConfig(GraphForm::Inductive, CycleElim::Online));
  ConstraintSystemFile System;
  Status Parsed = System.parse(Text);
  if (!Parsed) {
    Error = Parsed.toString();
    return Bundle;
  }
  System.emit(*Bundle.Solver);
  Bundle.Solver->finalize();
  return Bundle;
}

std::string mustAsk(net::LineClient &Client, const std::string &Line) {
  std::string Reply;
  Status Got = Client.request(Line, Reply);
  if (!Got.ok()) {
    std::fprintf(stderr, "repl_bench: '%s': %s\n", Line.c_str(),
                 Got.toString().c_str());
    std::exit(1);
  }
  return Reply;
}

uint64_t fnv1a(uint64_t Hash, const std::string &Text) {
  for (unsigned char C : Text) {
    Hash ^= C;
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

uint64_t fileSize(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string TrajectoryPath;
  for (int I = 1; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--emit_trajectory") == 0)
      TrajectoryPath = "BENCH_repl.json";
    else if (std::strncmp(Argv[I], "--emit_trajectory=", 18) == 0)
      TrajectoryPath = Argv[I] + 18;
    else {
      std::fprintf(stderr, "usage: repl_bench [--emit_trajectory[=PATH]]\n");
      return 1;
    }
  }

  double Scale = 1.0;
  if (const char *Env = std::getenv("POCE_BENCH_SCALE"))
    Scale = std::atof(Env);
  if (Scale <= 0)
    Scale = 1.0;

  const uint32_t Vars = std::max<uint32_t>(16, uint32_t(1200 * Scale));
  const uint32_t Cons = std::max<uint32_t>(8, uint32_t(900 * Scale));
  const uint32_t Records = std::max<uint32_t>(8, uint32_t(600 * Scale));
  const uint64_t Seed = 0x706f6365u;

  const char *Tmp = std::getenv("TMPDIR");
  std::string Work = std::string(Tmp ? Tmp : "/tmp") + "/poce_repl_bench." +
                     std::to_string(::getpid());
  std::string PrimSnap = Work + ".prim.snap";
  std::string PrimWal = Work + ".prim.wal";
  std::string PrimSock = Work + ".prim.sock";
  std::string FolSnap = Work + ".fol.snap";
  std::string FolWal = Work + ".fol.wal";
  std::string FolSock = Work + ".fol.sock";
  for (const std::string &P : {PrimSnap, PrimWal, FolSnap, FolWal})
    ::unlink(P.c_str());

  std::string BaseText = makeBaseSystem(Vars, Cons, Seed);
  std::string Error;
  serve::SolverBundle PrimBundle = buildBundle(BaseText, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "repl_bench: workload: %s\n", Error.c_str());
    return 1;
  }

  serve::ServerCoreConfig PrimConfig;
  PrimConfig.SnapshotPath = PrimSnap;
  PrimConfig.WalPath = PrimWal;
  serve::ServerCore Prim(std::move(PrimBundle), /*CacheCapacity=*/512,
                         PrimConfig);
  if (!Prim.valid()) {
    std::fprintf(stderr, "repl_bench: %s\n", Prim.initError().c_str());
    return 1;
  }
  Status Recovered = Prim.recover(0);
  if (!Recovered.ok()) {
    std::fprintf(stderr, "repl_bench: %s\n", Recovered.toString().c_str());
    return 1;
  }

  net::NetServerOptions PrimOpts;
  PrimOpts.UnixPath = PrimSock;
  net::NetServer PrimServer(Prim, PrimOpts);
  Status Ready = PrimServer.init();
  if (!Ready.ok()) {
    std::fprintf(stderr, "repl_bench: %s\n", Ready.toString().c_str());
    return 1;
  }
  int PrimExit = -1;
  std::thread PrimLoop([&] { PrimExit = PrimServer.run(); });

  std::printf("# repl_bench: vars=%u base_cons=%u records=%u scale=%.2f\n",
              Vars, Cons, Records, Scale);

  // Feed phase: Records acknowledged adds over the socket, with one
  // explicit checkpoint half way through so the follower's bootstrap
  // exercises both halves of the catch-up path — snapshot bytes for the
  // checkpointed prefix, replayed WAL records for the tail.
  std::vector<std::string> AddedLines;
  AddedLines.reserve(Records);
  {
    net::LineClient Writer;
    if (!Writer.connectUnix(PrimSock).ok()) {
      std::fprintf(stderr, "repl_bench: writer connect failed\n");
      return 1;
    }
    PRNG Rng(Seed + 1);
    for (uint32_t K = 0; K != Records; ++K) {
      std::string Line;
      if (K % 2 == 0) {
        Line = "cons a" + std::to_string(K);
      } else if (K % 8 == 3) {
        Line = "v" + std::to_string(Rng.nextBelow(Vars)) + " <= v" +
               std::to_string(Rng.nextBelow(Vars));
      } else {
        Line = "a" + std::to_string(K - 1) + " <= v" +
               std::to_string(Rng.nextBelow(Vars));
      }
      if (mustAsk(Writer, "add " + Line) != "ok added") {
        std::fprintf(stderr, "repl_bench: add '%s' refused\n",
                     Line.c_str());
        return 1;
      }
      AddedLines.push_back(Line);
      if (K == Records / 2 &&
          mustAsk(Writer, "checkpoint").rfind("ok ", 0) != 0) {
        std::fprintf(stderr, "repl_bench: mid-stream checkpoint failed\n");
        return 1;
      }
    }
  }

  // Baseline: the from-scratch alternative — parse and solve the base
  // system plus every streamed line in one pass.
  std::string FullText = BaseText;
  for (const std::string &Line : AddedLines)
    FullText += Line + "\n";
  uint64_t FreshStart = nowUs();
  serve::SolverBundle FreshBundle = buildBundle(FullText, Error);
  uint64_t FreshUs = nowUs() - FreshStart;
  if (!Error.empty()) {
    std::fprintf(stderr, "repl_bench: fresh solve: %s\n", Error.c_str());
    return 1;
  }
  serve::QueryEngine Fresh(std::move(FreshBundle));
  if (!Fresh.valid()) {
    std::fprintf(stderr, "repl_bench: cross-check engine: %s\n",
                 Fresh.initError().c_str());
    return 1;
  }

  // Timed catch-up: cold bootstrap over the socket, recover from the
  // shipped snapshot, then tail WAL records until `verify` agrees.
  uint64_t CatchupStart = nowUs();
  Status Boot = net::ReplicationClient::coldBootstrap(
      /*TcpSpec=*/"", PrimSock, FolSnap, /*DeadlineMs=*/30000);
  if (!Boot.ok()) {
    std::fprintf(stderr, "repl_bench: bootstrap: %s\n",
                 Boot.toString().c_str());
    return 1;
  }

  serve::SolverBundle FolBundle;
  uint64_t FolBase = 0;
  Status Loaded = serve::GraphSnapshot::load(FolSnap, FolBundle, &FolBase);
  if (!Loaded.ok()) {
    std::fprintf(stderr, "repl_bench: %s\n", Loaded.toString().c_str());
    return 1;
  }
  FolBundle.Solver->finalize();
  serve::ServerCoreConfig FolConfig;
  FolConfig.SnapshotPath = FolSnap;
  FolConfig.WalPath = FolWal;
  serve::ServerCore Fol(std::move(FolBundle), /*CacheCapacity=*/512,
                        FolConfig);
  if (!Fol.valid()) {
    std::fprintf(stderr, "repl_bench: %s\n", Fol.initError().c_str());
    return 1;
  }
  Status FolRecovered = Fol.recover(FolBase);
  if (!FolRecovered.ok()) {
    std::fprintf(stderr, "repl_bench: %s\n",
                 FolRecovered.toString().c_str());
    return 1;
  }

  net::NetServerOptions FolOpts;
  FolOpts.UnixPath = FolSock;
  FolOpts.ReadOnly = true;
  net::NetServer FolServer(Fol, FolOpts);
  net::ReplicationClient::Options ReplOpts;
  ReplOpts.UnixPath = PrimSock;
  ReplOpts.InitialBase = Fol.walBaseId();
  ReplOpts.InitialSeq = Fol.walRecords();
  ReplOpts.TickMs = 50;
  ReplOpts.JitterSeed = 17;
  net::ReplicationClient Repl(FolServer, ReplOpts);
  Ready = FolServer.init();
  if (!Ready.ok()) {
    std::fprintf(stderr, "repl_bench: follower: %s\n",
                 Ready.toString().c_str());
    return 1;
  }
  int FolExit = -1;
  std::thread FolLoop([&] { FolExit = FolServer.run(); });
  Repl.start();

  net::LineClient PrimCheck, FolCheck;
  if (!PrimCheck.connectUnix(PrimSock).ok() ||
      !FolCheck.connectUnix(FolSock).ok()) {
    std::fprintf(stderr, "repl_bench: verify connect failed\n");
    return 1;
  }
  bool Converged = false;
  uint64_t ConvergeDeadline = nowUs() + 120 * 1000 * 1000ULL;
  while (nowUs() < ConvergeDeadline) {
    std::string PrimSum = mustAsk(PrimCheck, "verify");
    std::string FolSum = mustAsk(FolCheck, "verify");
    if (PrimSum == FolSum) {
      Converged = true;
      break;
    }
    if (std::getenv("POCE_REPL_BENCH_DEBUG"))
      std::fprintf(stderr, "debug: prim '%s' fol '%s' applied=%llu\n",
                   PrimSum.c_str(), FolSum.c_str(),
                   (unsigned long long)MetricsRegistry::global()
                       .counter("poce_repl_records_applied_total")
                       .value());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  uint64_t CatchupUs = nowUs() - CatchupStart;
  if (!Converged) {
    std::fprintf(stderr, "repl_bench: follower never converged\n");
    return 1;
  }

  // Correctness: the caught-up follower's served answers must match the
  // fresh solve, variable for variable.
  uint64_t ServedSum = 14695981039346656037ULL;
  uint64_t FreshSum = 14695981039346656037ULL;
  uint32_t SampleStep = std::max<uint32_t>(1, Vars / 256);
  for (uint32_t V = 0; V < Vars; V += SampleStep) {
    std::string Name = "v" + std::to_string(V);
    std::string Served = mustAsk(FolCheck, "ls " + Name);
    uint32_t Var = Fresh.varOf(Name);
    std::string Local =
        Var == serve::QueryEngine::NotFound
            ? std::string("err")
            : "ok " + serve::render::renderSet(Fresh.ls(Var));
    ServedSum = fnv1a(ServedSum, Served);
    FreshSum = fnv1a(FreshSum, Local);
  }
  bool ChecksumMatch = ServedSum == FreshSum;

  MetricsRegistry &Registry = MetricsRegistry::global();
  uint64_t Applied =
      Registry.counter("poce_repl_records_applied_total").value();
  uint64_t SnapBytes = fileSize(FolSnap);

  Repl.stop();
  std::string Bye = mustAsk(FolCheck, "shutdown");
  FolLoop.join();
  if (Bye != "ok shutting_down" || FolExit != 0) {
    std::fprintf(stderr,
                 "repl_bench: follower shutdown failed (reply '%s', "
                 "exit %d)\n",
                 Bye.c_str(), FolExit);
    return 1;
  }
  Bye = mustAsk(PrimCheck, "shutdown");
  PrimLoop.join();
  if (Bye != "ok shutting_down" || PrimExit != 0) {
    std::fprintf(stderr,
                 "repl_bench: primary shutdown failed (reply '%s', "
                 "exit %d)\n",
                 Bye.c_str(), PrimExit);
    return 1;
  }

  double CatchupS = double(CatchupUs) / 1e6;
  double FreshS = double(FreshUs) / 1e6;
  double Speedup = CatchupUs > 0 ? FreshS / CatchupS : 0;
  std::printf("catch-up:     %.3fs to converged `verify` "
              "(bootstrap %llu snapshot bytes, %llu records applied)\n",
              CatchupS, (unsigned long long)SnapBytes,
              (unsigned long long)Applied);
  std::printf("fresh solve:  %.3fs for the same base + %u streamed "
              "lines\n",
              FreshS, Records);
  std::printf("catch-up vs fresh solve: %.2fx\n", Speedup);
  std::printf("answers vs fresh solve: %s\n",
              ChecksumMatch ? "checksums match" : "MISMATCH");

  for (const std::string &P : {PrimSnap, PrimWal, FolSnap, FolWal})
    ::unlink(P.c_str());
  if (!ChecksumMatch)
    return 1;

  if (!TrajectoryPath.empty()) {
    std::string Run;
    bench::appendf(
        Run,
        "\"scale\": %.2f,\n"
        "   \"entries\": [\n"
        "    {\"name\": \"repl_catchup\", \"vars\": %u, \"base_cons\": "
        "%u,\n"
        "     \"records\": %u, \"snapshot_bytes\": %llu,\n"
        "     \"records_applied\": %llu, \"catchup_s\": %.6f,\n"
        "     \"fresh_solve_s\": %.6f, \"speedup_vs_fresh\": %.3f,\n"
        "     \"answers_checksum_match\": %s}\n"
        "   ]",
        Scale, Vars, Cons, Records,
        (unsigned long long)SnapBytes, (unsigned long long)Applied,
        CatchupS, FreshS, Speedup, ChecksumMatch ? "true" : "false");
    if (!bench::appendTrajectoryRun(TrajectoryPath, "repl", "repl_bench",
                                    Run))
      return 1;
    std::printf("# appended repl_bench run to %s\n",
                TrajectoryPath.c_str());
  }
  return 0;
}
