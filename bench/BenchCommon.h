//===- bench/BenchCommon.h - Shared benchmark harness code ------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the table/figure reproduction benches: environment
/// knobs, suite preparation, and measured configuration runs.
///
/// Environment variables:
///   POCE_BENCH_SCALE    scale factor on benchmark sizes   (default 1.0)
///   POCE_BENCH_MAXAST   skip benchmarks above this size   (default 0 = all)
///   POCE_BENCH_REPEATS  timing repeats, best-of-N         (default 1;
///                       the paper reports best of 3)
///   POCE_BENCH_MAXWORK  abort cap on plain (no-elimination) runs
///                       (default 150000000; 0 = unlimited). Runs that hit
///                       the cap are reported with a ">" prefix, like the
///                       paper's oracle runs that "failed" on three
///                       programs.
///   POCE_BENCH_THREADS  execution lanes for suite preparation and the
///                       thread-scaling entries (default 1; 0 = one per
///                       hardware thread). Measured solves themselves stay
///                       sequential so per-config timings remain
///                       comparable.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_BENCH_BENCHCOMMON_H
#define POCE_BENCH_BENCHCOMMON_H

#include "andersen/Andersen.h"
#include "setcon/Oracle.h"
#include "support/Format.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "workload/Suite.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>

namespace poce {
namespace bench {

struct BenchEnv {
  double Scale = 1.0;
  uint32_t MaxAst = 0;
  unsigned Repeats = 1;
  uint64_t PlainMaxWork = 150000000;
  unsigned Threads = 1;

  static BenchEnv fromEnv() {
    BenchEnv Env;
    if (const char *Scale = std::getenv("POCE_BENCH_SCALE"))
      Env.Scale = std::atof(Scale);
    if (const char *MaxAst = std::getenv("POCE_BENCH_MAXAST"))
      Env.MaxAst = static_cast<uint32_t>(std::atoll(MaxAst));
    if (const char *Repeats = std::getenv("POCE_BENCH_REPEATS"))
      Env.Repeats = static_cast<unsigned>(std::atoi(Repeats));
    if (const char *MaxWork = std::getenv("POCE_BENCH_MAXWORK"))
      Env.PlainMaxWork = static_cast<uint64_t>(std::atoll(MaxWork));
    if (const char *Threads = std::getenv("POCE_BENCH_THREADS"))
      Env.Threads = static_cast<unsigned>(std::atoi(Threads));
    if (Env.Repeats < 1)
      Env.Repeats = 1;
    Env.Threads = ThreadPool::resolveThreads(Env.Threads);
    return Env;
  }

  void print() const {
    std::string MaxAstNote =
        MaxAst ? " max-ast=" + std::to_string(MaxAst) : std::string();
    std::printf("# scale=%.2f repeats=%u plain-work-cap=%llu threads=%u%s\n",
                Scale, Repeats, (unsigned long long)PlainMaxWork, Threads,
                MaxAstNote.c_str());
  }
};

/// The paper's configuration \p Form / \p Elim on the eager worklist
/// schedule. The paper benches measure the online discipline the paper
/// describes, each addition closed before the next, so their counters
/// and EXPERIMENTS.md do not move with SolverOptions' default (wave).
inline SolverOptions paperConfig(GraphForm Form, CycleElim Elim,
                                 uint64_t Seed = 0x706f6365ULL) {
  SolverOptions Options = makeConfig(Form, Elim, Seed);
  Options.Closure = ClosureMode::Worklist;
  return Options;
}

/// One prepared suite entry, with its oracle (built lazily).
struct SuiteEntry {
  std::unique_ptr<workload::PreparedProgram> Program;
  ConstructorTable Constructors;
  Oracle WitnessOracle;
  bool OracleBuilt = false;

  const Oracle &oracle() {
    if (!OracleBuilt) {
      SolverOptions Base =
          paperConfig(GraphForm::Inductive, CycleElim::Online);
      WitnessOracle = buildOracle(
          andersen::makeGenerator(Program->Unit), Constructors, Base);
      OracleBuilt = true;
    }
    return WitnessOracle;
  }
};

inline std::vector<std::unique_ptr<SuiteEntry>>
prepareSuite(const BenchEnv &Env) {
  std::vector<workload::ProgramSpec> Specs =
      workload::paperSuite(Env.Scale, Env.MaxAst);
  // Generation + parsing of the suite inputs are independent pure
  // functions of each spec; prepare them concurrently when the env asks
  // for threads. Entry order (and everything downstream) is unaffected.
  std::vector<std::unique_ptr<SuiteEntry>> Prepared(Specs.size());
  ThreadPool Pool(Env.Threads);
  Pool.parallelFor(
      Specs.size(),
      [&](size_t I, unsigned) {
        Prepared[I] = std::make_unique<SuiteEntry>();
        Prepared[I]->Program = workload::prepareProgram(Specs[I]);
      },
      /*Grain=*/1);

  std::vector<std::unique_ptr<SuiteEntry>> Entries;
  for (std::unique_ptr<SuiteEntry> &Entry : Prepared) {
    if (!Entry->Program->Ok) {
      std::fprintf(stderr, "warning: benchmark '%s' failed to parse; "
                           "skipping\n",
                   Entry->Program->Spec.Name.c_str());
      continue;
    }
    Entries.push_back(std::move(Entry));
  }
  return Entries;
}

/// One measured run: analysis result of the last repeat plus the best
/// wall-clock seconds over all repeats.
struct MeasuredRun {
  andersen::AnalysisResult Result;
  double BestSeconds = 0;
  bool Capped = false; ///< The work cap stopped the run early.
};

inline MeasuredRun runConfig(SuiteEntry &Entry, GraphForm Form,
                             CycleElim Elim, const BenchEnv &Env) {
  SolverOptions Options = paperConfig(Form, Elim);
  if (Elim == CycleElim::None)
    Options.MaxWork = Env.PlainMaxWork;
  const Oracle *WitnessOracle =
      Elim == CycleElim::Oracle ? &Entry.oracle() : nullptr;

  MeasuredRun Run;
  for (unsigned Repeat = 0; Repeat != Env.Repeats; ++Repeat) {
    Run.Result = andersen::runAnalysis(Entry.Program->Unit,
                                       Entry.Constructors, Options,
                                       WitnessOracle,
                                       /*ExtractPointsTo=*/false);
    double Seconds = Run.Result.AnalysisSeconds;
    if (Repeat == 0 || Seconds < Run.BestSeconds)
      Run.BestSeconds = Seconds;
    if (Run.Result.Stats.Aborted)
      break; // No point repeating a capped run.
  }
  Run.Capped = Run.Result.Stats.Aborted;
  return Run;
}

/// Formats a capped value with a ">" marker.
inline std::string capped(uint64_t Value, bool Capped) {
  return (Capped ? ">" : "") + formatGrouped(Value);
}
inline std::string cappedTime(double Seconds, bool Capped) {
  return (Capped ? ">" : "") + formatDouble(Seconds, 3);
}

/// The figure benches all report the same three bitvector hot-path
/// counters — the SF run's difference-propagation pair and the IF run's
/// least-solution union words (SolverStats::hotPathCounters order). These
/// two helpers build the header and data cells so the column list lives
/// in one place.
inline void appendHotPathHeaders(std::vector<std::string> &Header,
                                 const std::string &SFTag,
                                 const std::string &IFTag) {
  auto Counters = SolverStats().hotPathCounters();
  Header.push_back(SFTag + "-" + Counters[0].Label);
  Header.push_back(SFTag + "-" + Counters[1].Label);
  Header.push_back(IFTag + "-" + Counters[2].Label);
}

inline void appendHotPathCells(std::vector<std::string> &Row,
                               const MeasuredRun &SF, const MeasuredRun &IF) {
  auto SFCounters = SF.Result.Stats.hotPathCounters();
  auto IFCounters = IF.Result.Stats.hotPathCounters();
  Row.push_back(capped(SFCounters[0].Value, SF.Capped));
  Row.push_back(capped(SFCounters[1].Value, SF.Capped));
  Row.push_back(capped(IFCounters[2].Value, IF.Capped));
}

/// Returns the prior runs of the trajectory JSON at \p Path as the inner
/// text of its "runs" array (comma-joined objects, no brackets), or ""
/// when the file is missing/empty. A pre-runs-format file (top-level
/// "entries") is kept verbatim as the first run.
inline std::string readPriorRuns(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return "";
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Old = Buffer.str();

  auto trim = [](std::string S) {
    size_t B = S.find_first_not_of(" \t\r\n");
    size_t E = S.find_last_not_of(" \t\r\n");
    return B == std::string::npos ? std::string() : S.substr(B, E - B + 1);
  };

  size_t RunsPos = Old.find("\"runs\"");
  if (RunsPos != std::string::npos) {
    size_t Open = Old.find('[', RunsPos);
    size_t Close = Old.rfind(']');
    if (Open == std::string::npos || Close == std::string::npos ||
        Close <= Open)
      return "";
    return trim(Old.substr(Open + 1, Close - Open - 1));
  }
  if (Old.find("\"entries\"") != std::string::npos)
    return trim(Old); // Flat single-run format: migrate as the first run.
  return "";
}

/// UTC timestamp for trajectory run records.
inline std::string utcTimestamp() {
  char Out[32];
  std::time_t Now = std::time(nullptr);
  std::strftime(Out, sizeof(Out), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&Now));
  return Out;
}

/// printf-style append to \p Out. Trajectory runs are built in memory
/// and written only once complete, so a failed run leaves the file as it
/// was.
[[gnu::format(printf, 2, 3)]] inline void appendf(std::string &Out,
                                                  const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Sized;
  va_copy(Sized, Args);
  int N = std::vsnprintf(nullptr, 0, Fmt, Sized);
  va_end(Sized);
  if (N > 0) {
    size_t Old = Out.size();
    Out.resize(Old + N + 1);
    std::vsnprintf(&Out[Old], N + 1, Fmt, Args);
    Out.resize(Old + N);
  }
  va_end(Args);
}

/// Appends one run to the trajectory JSON at \p Path, keeping its prior
/// runs: `{"bench": Bench, "runs": [..., {run}]}`. The run object opens
/// with what every run records — timestamp, \p Mode, and the machine it
/// ran on (CPUs available to the process as `nproc` counts them, compiler,
/// and the CMake build type bench/CMakeLists.txt passes as
/// POCE_BUILD_TYPE) — followed by \p Fields, the caller's own members as
/// JSON text without the enclosing braces. Returns false, with a message
/// on stderr, if the file cannot be written.
inline bool appendTrajectoryRun(const std::string &Path, const char *Bench,
                                const char *Mode, const std::string &Fields) {
  cpu_set_t Cpus;
  unsigned Nproc = sched_getaffinity(0, sizeof(Cpus), &Cpus) == 0
                       ? static_cast<unsigned>(CPU_COUNT(&Cpus))
                       : ThreadPool::resolveThreads(0);
#ifdef __clang__
  const char *Compiler = "clang " __clang_version__;
#else
  const char *Compiler = "gcc " __VERSION__;
#endif

  std::string Prior = readPriorRuns(Path);
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                 Path.c_str());
    return false;
  }
  std::fprintf(File, "{\n  \"bench\": \"%s\",\n  \"runs\": [\n", Bench);
  if (!Prior.empty())
    std::fprintf(File, "%s,\n", Prior.c_str());
  std::fprintf(File,
               "  {\"timestamp\": \"%s\", \"mode\": \"%s\",\n"
               "   \"nproc\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\",\n"
               "   %s}\n  ]\n}\n",
               utcTimestamp().c_str(), Mode, Nproc, Compiler, POCE_BUILD_TYPE,
               Fields.c_str());
  if (std::fclose(File) != 0) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  return true;
}

} // namespace bench
} // namespace poce

#endif // POCE_BENCH_BENCHCOMMON_H
