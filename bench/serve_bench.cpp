//===- bench/serve_bench.cpp - Socket serving load generator --------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Load generator for the network serving layer: starts an in-process
/// socket-mode server (net/Server.h) over a Unix-domain socket, hammers
/// it with closed-loop reader clients while one writer client streams
/// adds, and reports client-observed throughput and latency percentiles
/// (p50/p99/p999). Because reads execute against RCU-published views and
/// writes flow through the single writer lane, the interesting numbers
/// are the read latencies *while adds are in flight* — the design claim
/// is that they do not spike.
///
/// Correctness is cross-checked, not assumed: after the load phase the
/// serving answers for a variable sample are compared — via checksum —
/// against a fresh from-scratch solve of the base system plus the exact
/// add lines the writer sent. A mismatch fails the run (exit 1).
///
///   serve_bench                      print the summary table
///   serve_bench --emit_trajectory    also append a timestamped run to
///                                    BENCH_micro_solver.json (or
///                                    --emit_trajectory=PATH)
///
/// Environment: POCE_BENCH_SCALE scales the workload, POCE_SERVE_CLIENTS
/// the reader count. Trajectory entries record the client count next to
/// the CPU count, compiler and build type every run carries: the server
/// answers reads on its event-loop thread, and when the clients, that
/// thread and the writer outnumber the CPUs, tail latencies include
/// scheduler queueing, not just server work.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "net/Client.h"
#include "net/Server.h"
#include "serve/QueryEngine.h"
#include "serve/ServerCore.h"
#include "setcon/ConstraintFile.h"
#include "support/Metrics.h"
#include "support/PRNG.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
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

/// A base system in constraint-file text: Vars copy-connected with
/// address-of edges through ref() so ls/pts/alias queries all have real
/// work to do. Deterministic in Seed.
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

/// One request with client-side timing; aborts the process on transport
/// errors (a load generator has nothing useful to do with them).
std::string timedAsk(net::LineClient &Client, const std::string &Line,
                     std::vector<uint64_t> *LatenciesUs) {
  uint64_t Start = nowUs();
  std::string Reply;
  Status Got = Client.request(Line, Reply);
  if (!Got.ok()) {
    std::fprintf(stderr, "serve_bench: '%s': %s\n", Line.c_str(),
                 Got.toString().c_str());
    std::exit(1);
  }
  if (LatenciesUs)
    LatenciesUs->push_back(nowUs() - Start);
  return Reply;
}

uint64_t percentile(const std::vector<uint64_t> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(P * static_cast<double>(Sorted.size()));
  return Sorted[std::min(Rank, Sorted.size() - 1)];
}

uint64_t fnv1a(uint64_t Hash, const std::string &Text) {
  for (unsigned char C : Text) {
    Hash ^= C;
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string TrajectoryPath;
  for (int I = 1; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--emit_trajectory") == 0)
      TrajectoryPath = "BENCH_micro_solver.json";
    else if (std::strncmp(Argv[I], "--emit_trajectory=", 18) == 0)
      TrajectoryPath = Argv[I] + 18;
    else {
      std::fprintf(stderr, "usage: serve_bench [--emit_trajectory[=PATH]]\n");
      return 1;
    }
  }

  double Scale = 1.0;
  if (const char *Env = std::getenv("POCE_BENCH_SCALE"))
    Scale = std::atof(Env);
  if (Scale <= 0)
    Scale = 1.0;
  unsigned Readers = 3;
  if (const char *Env = std::getenv("POCE_SERVE_CLIENTS"))
    Readers = std::max(1, std::atoi(Env));

  const uint32_t Vars = std::max<uint32_t>(16, uint32_t(1200 * Scale));
  const uint32_t Cons = std::max<uint32_t>(8, uint32_t(900 * Scale));
  const uint32_t Adds = std::max<uint32_t>(4, uint32_t(150 * Scale));
  const uint32_t QueriesPerReader =
      std::max<uint32_t>(16, uint32_t(1500 * Scale));
  const uint64_t Seed = 0x706f6365u;

  std::string BaseText = makeBaseSystem(Vars, Cons, Seed);
  std::string Error;
  serve::SolverBundle Bundle = buildBundle(BaseText, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "serve_bench: workload: %s\n", Error.c_str());
    return 1;
  }

  serve::ServerCore Core(std::move(Bundle), /*CacheCapacity=*/512, {});
  if (!Core.valid()) {
    std::fprintf(stderr, "serve_bench: %s\n", Core.initError().c_str());
    return 1;
  }
  Status Recovered = Core.recover(0);
  if (!Recovered.ok()) {
    std::fprintf(stderr, "serve_bench: %s\n", Recovered.toString().c_str());
    return 1;
  }

  const char *Tmp = std::getenv("TMPDIR");
  std::string SockPath = std::string(Tmp ? Tmp : "/tmp") +
                         "/poce_serve_bench." +
                         std::to_string(::getpid()) + ".sock";
  net::NetServerOptions Opts;
  Opts.UnixPath = SockPath;
  net::NetServer Server(Core, Opts);
  Status Ready = Server.init();
  if (!Ready.ok()) {
    std::fprintf(stderr, "serve_bench: %s\n", Ready.toString().c_str());
    return 1;
  }
  int ExitCode = -1;
  std::thread Loop([&] { ExitCode = Server.run(); });

  std::printf("# serve_bench: vars=%u base_cons=%u adds=%u readers=%u "
              "scale=%.2f\n",
              Vars, Cons, Adds, Readers, Scale);

  // Load phase: Readers closed-loop query clients + one writer client.
  // The writer's add lines are recorded verbatim for the cross-check.
  std::vector<std::string> AddedLines;
  AddedLines.reserve(Adds * 2);
  std::vector<std::vector<uint64_t>> ReaderLat(Readers);
  std::vector<uint64_t> WriterLat;
  std::atomic<bool> WriterDone{false};
  uint64_t BenchStart = nowUs();

  std::thread WriterThread([&] {
    net::LineClient W;
    if (!W.connectUnix(SockPath).ok())
      std::exit(1);
    PRNG Rng(Seed + 1);
    for (uint32_t K = 0; K != Adds; ++K) {
      std::string Tag = "a" + std::to_string(K);
      uint32_t Target = static_cast<uint32_t>(Rng.nextBelow(Vars));
      std::string Decl = "cons " + Tag;
      std::string Edge = Tag + " <= v" + std::to_string(Target);
      if (timedAsk(W, "add " + Decl, &WriterLat) != "ok added" ||
          timedAsk(W, "add " + Edge, &WriterLat) != "ok added") {
        std::fprintf(stderr, "serve_bench: add rejected\n");
        std::exit(1);
      }
      AddedLines.push_back(Decl);
      AddedLines.push_back(Edge);
    }
    WriterDone.store(true, std::memory_order_release);
  });

  std::vector<std::thread> ReaderThreads;
  for (unsigned R = 0; R != Readers; ++R) {
    ReaderThreads.emplace_back([&, R] {
      net::LineClient C;
      if (!C.connectUnix(SockPath).ok())
        std::exit(1);
      PRNG Rng(Seed + 100 + R);
      for (uint32_t Q = 0; Q != QueriesPerReader; ++Q) {
        uint32_t A = static_cast<uint32_t>(Rng.nextBelow(Vars));
        uint32_t B = static_cast<uint32_t>(Rng.nextBelow(Vars));
        switch (Rng.nextBelow(3)) {
        case 0:
          timedAsk(C, "ls v" + std::to_string(A), &ReaderLat[R]);
          break;
        case 1:
          timedAsk(C, "pts v" + std::to_string(A), &ReaderLat[R]);
          break;
        default:
          timedAsk(C,
                   "alias v" + std::to_string(A) + " v" + std::to_string(B),
                   &ReaderLat[R]);
          break;
        }
      }
    });
  }

  WriterThread.join();
  for (std::thread &T : ReaderThreads)
    T.join();
  double WallSeconds = double(nowUs() - BenchStart) / 1e6;

  // Cross-check: a fresh solve of base + the exact added lines must give
  // byte-identical answers for a variable sample. Checksum both sides.
  std::string FullText = BaseText;
  for (const std::string &Line : AddedLines)
    FullText += Line + "\n";
  serve::SolverBundle FreshBundle = buildBundle(FullText, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "serve_bench: cross-check solve: %s\n",
                 Error.c_str());
    return 1;
  }
  serve::QueryEngine Fresh(std::move(FreshBundle));
  if (!Fresh.valid()) {
    std::fprintf(stderr, "serve_bench: cross-check engine: %s\n",
                 Fresh.initError().c_str());
    return 1;
  }

  net::LineClient Checker;
  if (!Checker.connectUnix(SockPath).ok()) {
    std::fprintf(stderr, "serve_bench: cross-check connect failed\n");
    return 1;
  }
  uint64_t ServedSum = 14695981039346656037ULL;
  uint64_t FreshSum = 14695981039346656037ULL;
  uint32_t SampleStep = std::max<uint32_t>(1, Vars / 256);
  for (uint32_t V = 0; V < Vars; V += SampleStep) {
    std::string Name = "v" + std::to_string(V);
    std::string Served = timedAsk(Checker, "ls " + Name, nullptr);
    uint32_t Var = Fresh.varOf(Name);
    std::string Local =
        Var == serve::QueryEngine::NotFound
            ? std::string("err")
            : "ok " + serve::render::renderSet(Fresh.ls(Var));
    ServedSum = fnv1a(ServedSum, Served);
    FreshSum = fnv1a(FreshSum, Local);
  }
  bool ChecksumMatch = ServedSum == FreshSum;

  // Server-side concurrency counters (same process, same registry).
  MetricsRegistry &Registry = MetricsRegistry::global();
  uint64_t ReadsDuringAdd =
      Registry.counter("poce_net_reads_during_write_total").value();
  uint64_t Publishes =
      Registry.counter("poce_net_view_publishes_total").value();

  std::string Bye = timedAsk(Checker, "shutdown", nullptr);
  Loop.join();
  if (Bye != "ok shutting_down" || ExitCode != 0) {
    std::fprintf(stderr, "serve_bench: shutdown failed (reply '%s', "
                         "exit %d)\n",
                 Bye.c_str(), ExitCode);
    return 1;
  }

  std::vector<uint64_t> All;
  for (const std::vector<uint64_t> &L : ReaderLat)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());
  std::sort(WriterLat.begin(), WriterLat.end());
  uint64_t TotalQueries = All.size();
  double Qps = WallSeconds > 0 ? double(TotalQueries) / WallSeconds : 0;

  std::printf("read queries:  %llu in %.3fs (%.0f req/s)\n",
              (unsigned long long)TotalQueries, WallSeconds, Qps);
  std::printf("read latency:  p50=%lluus p99=%lluus p999=%lluus\n",
              (unsigned long long)percentile(All, 0.50),
              (unsigned long long)percentile(All, 0.99),
              (unsigned long long)percentile(All, 0.999));
  std::printf("write latency: p50=%lluus p99=%lluus (%u adds)\n",
              (unsigned long long)percentile(WriterLat, 0.50),
              (unsigned long long)percentile(WriterLat, 0.99), Adds * 2);
  std::printf("reads while a writer batch was in flight: %llu; view "
              "publishes: %llu\n",
              (unsigned long long)ReadsDuringAdd,
              (unsigned long long)Publishes);
  std::printf("answers vs fresh solve: %s\n",
              ChecksumMatch ? "checksums match" : "MISMATCH");
  if (!ChecksumMatch)
    return 1;

  if (!TrajectoryPath.empty()) {
    std::string Run;
    bench::appendf(
        Run,
        "\"clients\": %u, \"scale\": %.2f,\n"
        "   \"entries\": [\n"
        "    {\"name\": \"serve_mixed\", \"vars\": %u, \"base_cons\": %u,\n"
        "     \"queries\": %llu, \"adds\": %u, \"wall_s\": %.6f,\n"
        "     \"qps\": %.1f, \"p50_us\": %llu, \"p99_us\": %llu,\n"
        "     \"p999_us\": %llu, \"write_p99_us\": %llu,\n"
        "     \"reads_during_add\": %llu, \"publishes\": %llu,\n"
        "     \"answers_checksum_match\": %s}\n"
        "   ]",
        Readers, Scale, Vars, Cons,
        (unsigned long long)TotalQueries, Adds * 2, WallSeconds, Qps,
        (unsigned long long)percentile(All, 0.50),
        (unsigned long long)percentile(All, 0.99),
        (unsigned long long)percentile(All, 0.999),
        (unsigned long long)percentile(WriterLat, 0.99),
        (unsigned long long)ReadsDuringAdd, (unsigned long long)Publishes,
        ChecksumMatch ? "true" : "false");
    if (!bench::appendTrajectoryRun(TrajectoryPath, "micro_solver",
                                    "serve_bench", Run))
      return 1;
    std::printf("# appended serve_bench run to %s\n",
                TrajectoryPath.c_str());
  }
  return 0;
}
