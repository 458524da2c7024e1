//===- perfbench/main.cpp - End-to-end benchmark driver -------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark. One invocation runs one workload with one
/// seed for a fixed measuring time, checks every answer against an oracle
/// that does not share the measured path, and prints the metrics as the
/// last stdout line (one JSON object). See perfbench/README.md for the
/// workloads, the metrics, and what each metric is expected to move.
///
///   poce_perfbench --workload pointsto_batch|serve_read|serve_edit
///                  --seed N --seconds S --trace 0|1
///                  --scserved PATH --out-dir DIR [--commit ID]
///
/// The benchmark drives each layer only through its public functions (in
/// process) or through the scserved binary (over a Unix socket). Load is
/// a closed loop from this one process. With --trace 1 the same seeded
/// inputs are replayed in process with one span per layer call, and the
/// per-layer metrics are printed instead of the end-to-end ones.
///
//===----------------------------------------------------------------------===//

#include "Render.h"
#include "ServedProcess.h"
#include "Spans.h"

#include "andersen/Andersen.h"
#include "andersen/ConstraintGen.h"
#include "net/Client.h"
#include "net/ReadView.h"
#include "serve/GraphSnapshot.h"
#include "serve/QueryEngine.h"
#include "serve/ServerCore.h"
#include "serve/Wal.h"
#include "setcon/ConstraintFile.h"
#include "support/PRNG.h"
#include "workload/Suite.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace poce;
using namespace poce::perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Fixed parameters of the workloads
//===----------------------------------------------------------------------===//

/// The suite program served by serve_read and serve_edit.
constexpr const char *ServedProgram = "flex-2.4.7";
/// Read lanes of the served process, and client connections per workload.
constexpr unsigned ServerLanes = 2;
constexpr unsigned ReadClients = 2;
constexpr unsigned EditWriters = 2;
constexpr unsigned EditReaders = 1;
/// Base lines each serve_edit writer cycles through (disjoint sets).
constexpr unsigned LinesPerWriter = 96;
/// Set-up repetitions per untraced run (setup_s is their median): the
/// batch set-up is short, so it repeats more often.
constexpr unsigned SetupRepeats = 7;
constexpr unsigned BatchSetupRepeats = 11;
/// Seconds of alternating in-process analyses of the served program after
/// its load phase.
constexpr double ServedSolveSeconds = 3;
/// Variables re-checked against the oracle after the serve_edit load.
constexpr unsigned EditCheckSample = 256;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t State = Seed * 0x9e3779b97f4a7c15ULL ^ Salt;
  return splitMix64(State);
}

uint64_t fnv1a(uint64_t Hash, const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= P[I];
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

/// Linear-interpolated percentile (P in [0, 1]).
double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = P * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Rank - double(Lo));
}

double sum(const std::vector<double> &Values) {
  double Total = 0;
  for (double V : Values)
    Total += V;
  return Total;
}

double selfPeakRssMb() {
  struct rusage Usage;
  ::getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

/// Read metrics of one measuring window.
struct ReadWindow {
  double Qps, P50Us, P90Us;
};

/// The statistic the socket read figures report over their measuring
/// windows: the 20th percentile for lower-is-better values, the 80th for
/// higher-is-better ones. A shared host slows each CPU in bursts that only
/// ever add time, so near-best windows repeat far better across runs than
/// the median window does. In-process work (analyses, batch reads) reports
/// its best repetition outright, as the paper's best-of-three does.
constexpr double RobustQuantile = 0.2;

ReadWindow robustWindow(const std::vector<ReadWindow> &Windows) {
  std::vector<double> Qps, P50, P90;
  for (const ReadWindow &W : Windows) {
    Qps.push_back(W.Qps);
    P50.push_back(W.P50Us);
    P90.push_back(W.P90Us);
  }
  return {percentile(Qps, 1 - RobustQuantile),
          percentile(P50, RobustQuantile), percentile(P90, RobustQuantile)};
}

ReadWindow readWindow(const std::vector<double> &LatNs, double Seconds) {
  return {double(LatNs.size()) / Seconds, percentile(LatNs, 0.50) / 1e3,
          percentile(LatNs, 0.90) / 1e3};
}

/// Pins the calling thread to one of the CPUs it may run on, by slot, and
/// restores the original mask when destroyed. The in-process analyses move
/// through the CPUs slot by slot: on a shared host each CPU is slowed in
/// bursts of its own, and a thread the scheduler leaves on a slowed CPU
/// would make the best repetition of a whole run slow.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&Original);
    if (::sched_getaffinity(0, sizeof(Original), &Original) != 0)
      return;
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Original))
        Cpus.push_back(Cpu);
  }
  ~CpuRotation() {
    if (!Cpus.empty())
      ::sched_setaffinity(0, sizeof(Original), &Original);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void pin(size_t Slot) {
    if (Cpus.size() < 2)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Slot % Cpus.size()], &One);
    ::sched_setaffinity(0, sizeof(One), &One);
  }

  size_t size() const { return Cpus.size(); }

private:
  cpu_set_t Original;
  std::vector<int> Cpus;
};

//===----------------------------------------------------------------------===//
// Run report
//===----------------------------------------------------------------------===//

struct Report {
  uint64_t Attempted = 0;
  std::atomic<uint64_t> Failed{0};
  std::mutex NotesMutex;
  std::vector<std::string> Notes; ///< First failures, for the log.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  std::vector<std::string> Record; ///< Run-record lines.

  void fail(const std::string &Why) {
    Failed.fetch_add(1);
    std::lock_guard<std::mutex> Lock(NotesMutex);
    if (Notes.size() < 16)
      Notes.push_back(Why);
  }
  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void note(const std::string &Line) { Record.push_back(Line); }
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Scserved;
  std::string OutDir = ".bench_out";
  std::string Commit = "unknown";
};

//===----------------------------------------------------------------------===//
// Programs: generation, parsing, analysis
//===----------------------------------------------------------------------===//

/// The paper's Table 1 suite, with each program's generation seed derived
/// from the benchmark seed.
std::vector<workload::ProgramSpec> seededSuite(uint64_t Seed) {
  std::vector<workload::ProgramSpec> Specs = workload::paperSuite();
  for (workload::ProgramSpec &Spec : Specs)
    Spec.Seed = mixSeed(Seed, Spec.Seed);
  return Specs;
}

struct Program {
  std::string Name;
  std::unique_ptr<minic::TranslationUnit> Unit;
};

bool prepareProgram(const workload::ProgramSpec &Spec, SpanRecorder *Rec,
                    Program &Out, Report &R) {
  std::string Source;
  {
    ScopedSpan Span(Rec, "workload.generate");
    Source = workload::generateProgram(Spec);
  }
  Out.Name = Spec.Name;
  Out.Unit = std::make_unique<minic::TranslationUnit>();
  std::vector<std::string> Errors;
  bool Ok;
  {
    ScopedSpan Span(Rec, "minic.parse");
    Ok = andersen::parseSource(Source, *Out.Unit, &Errors, Spec.Name);
  }
  if (!Ok)
    R.fail("parse of " + Spec.Name + " failed: " +
           (Errors.empty() ? std::string("?") : Errors.front()));
  return Ok;
}

/// One analysis configuration and the span names of its layer calls.
struct Config {
  const char *Tag; ///< "if" / "sf": the metric-name suffix.
  SolverOptions Options;
  const char *AnalysisSpan, *SolveSpan, *FinalizeSpan;
};

const Config &ifOnline() {
  static const Config C{"if",
                        makeConfig(GraphForm::Inductive, CycleElim::Online),
                        "analysis.if", "andersen.solve_if",
                        "setcon.finalize_if"};
  return C;
}

const Config &sfOnline() {
  static const Config C{"sf",
                        makeConfig(GraphForm::Standard, CycleElim::Online),
                        "analysis.sf", "andersen.solve_sf",
                        "setcon.finalize_sf"};
  return C;
}

/// One analysis of one program under one configuration.
struct Analysis {
  double SolveNs = 0; ///< ConstraintGenerator::run + finalize.
  SolverStats Stats;
  /// Per location: hash of its sorted points-to location ids.
  std::vector<uint64_t> PointsTo;
  std::vector<double> ReadNs; ///< One entry per location read.
  double ReadBlockNs = 0;
};

/// Analyses \p Unit under \p C (the paper's "analysis time": constraint
/// generation + closure + least solution, parsing excluded), then reads
/// every location's points-to set in process.
Analysis analyse(const minic::TranslationUnit &Unit, const Config &C,
                 SpanRecorder *Rec, uint64_t Op) {
  Analysis Out;
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, C.Options);
  andersen::ConstraintGenerator Generator(Solver);
  {
    const uint64_t Start = nowNs();
    ScopedSpan Whole(Rec, C.AnalysisSpan, Op);
    {
      ScopedSpan Span(Rec, C.SolveSpan, Op);
      Generator.run(Unit);
    }
    {
      ScopedSpan Span(Rec, C.FinalizeSpan, Op);
      Solver.finalize();
    }
    Out.SolveNs = static_cast<double>(nowNs() - Start);
  }
  Out.Stats = Solver.stats();

  const std::vector<andersen::Location> &Locs = Generator.locations();
  Out.PointsTo.reserve(Locs.size());
  Out.ReadNs.reserve(Locs.size());
  ScopedSpan Reads(Rec, "setcon.pts_reads", Op);
  const uint64_t BlockStart = nowNs();
  std::vector<uint32_t> Targets;
  for (const andersen::Location &Loc : Locs) {
    const uint64_t Start = nowNs();
    Targets.clear();
    for (ExprId Term : Solver.leastSolution(Loc.Content)) {
      andersen::LocationId Target = Generator.locationOfRefTerm(Term);
      if (Target != andersen::ConstraintGenerator::NotFound)
        Targets.push_back(Target);
    }
    std::sort(Targets.begin(), Targets.end());
    Targets.erase(std::unique(Targets.begin(), Targets.end()), Targets.end());
    Out.ReadNs.push_back(static_cast<double>(nowNs() - Start));
    Out.PointsTo.push_back(fnv1a(14695981039346656037ULL, Targets.data(),
                                 Targets.size() * sizeof(uint32_t)));
  }
  Out.ReadBlockNs = static_cast<double>(nowNs() - BlockStart);
  return Out;
}

/// The SolverStats counters the per-layer table reports, per config.
void reportSolverCounters(Report &R, const Config &C, const SolverStats &S) {
  std::string P = "setcon.";
  std::string Suffix = std::string("_") + C.Tag;
  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den ? double(Num) / double(Den) : 0.0;
  };
  R.metric(P + "work" + Suffix, double(S.Work), "count");
  R.metric(P + "work_useful_ratio" + Suffix,
           S.Work ? 1.0 - Ratio(S.RedundantAdds, S.Work) : 0.0, "ratio");
  R.metric(P + "cycle_searches" + Suffix, double(S.CycleSearches), "count");
  R.metric(P + "cycle_search_steps" + Suffix, double(S.CycleSearchSteps),
           "count");
  R.metric(P + "vars_eliminated" + Suffix, double(S.VarsEliminated), "count");
  R.metric(P + "cycle_hit_ratio" + Suffix,
           Ratio(S.CyclesCollapsed, S.CycleSearches), "ratio");
  if (C.Options.Form == GraphForm::Standard) {
    R.metric(P + "delta_propagations_sf", double(S.DeltaPropagations),
             "count");
    R.metric(P + "delta_useful_ratio_sf",
             S.DeltaPropagations
                 ? 1.0 - Ratio(S.PropagationsPruned, S.DeltaPropagations)
                 : 0.0,
             "ratio");
  } else {
    R.metric(P + "ls_union_words_if", double(S.LSUnionWords), "count");
  }
}

//===----------------------------------------------------------------------===//
// Tracing summary shared by the traced runs
//===----------------------------------------------------------------------===//

/// Coverage of the \p Parents spans by their direct children: the share of
/// the parents' total time no child covers, and the smallest per-span
/// coverage (both in percent).
std::pair<double, double> coverage(const SpanRecorder &Rec,
                                   const std::set<std::string> &Parents) {
  double Total = 0, Covered = 0, MinPct = 100;
  for (const SpanRecorder::Span &S : Rec.spans()) {
    if (!Parents.count(S.Name))
      continue;
    double Dur = double(S.EndNs - S.StartNs);
    Total += Dur;
    Covered += double(S.ChildNs);
    if (Dur > 0)
      MinPct = std::min(MinPct, 100.0 * double(S.ChildNs) / Dur);
  }
  double Unattributed = Total > 0 ? 100.0 * (Total - Covered) / Total : 0;
  return {Unattributed, Total > 0 ? MinPct : 0.0};
}

double spanSumMs(const SpanRecorder &Rec, const char *Name) {
  return sum(Rec.durations(Name)) / 1e6;
}

double spanP50Us(const SpanRecorder &Rec, const char *Name) {
  return median(Rec.durations(Name)) / 1e3;
}

void finishTrace(const Options &O, const SpanRecorder &Rec, Report &R,
                 const std::set<std::string> &Parents, double OverheadPct) {
  std::pair<double, double> Cov = coverage(Rec, Parents);
  R.metric("trace.unattributed_pct", Cov.first, "%");
  R.metric("trace.min_coverage_pct", Cov.second, "%");
  R.metric("trace.overhead_pct", OverheadPct, "%");
  R.metric("trace.spans", double(Rec.spans().size()), "count");
  R.note("self time per span name (ms):");
  for (const auto &Entry : Rec.selfTimes())
    R.note("  " + Entry.first + " " + std::to_string(Entry.second / 1e6));
  std::string Path = O.OutDir + "/spans-" + O.Workload + "-" +
                     std::to_string(O.Seed) + ".json";
  if (!Rec.writeChromeTrace(Path))
    R.fail("cannot write " + Path);
  else
    R.note("spans written to " + Path);
}

//===----------------------------------------------------------------------===//
// pointsto_batch
//===----------------------------------------------------------------------===//

void runBatch(const Options &O, Report &R) {
  std::vector<workload::ProgramSpec> Specs = seededSuite(O.Seed);
  SpanRecorder Recorder;
  SpanRecorder *Rec = O.Trace ? &Recorder : nullptr;

  // Set-up: generate and parse the 27 programs (repeated, one CPU after
  // another; median).
  std::vector<Program> Programs;
  std::vector<double> SetupS;
  {
    CpuRotation Cpus;
    for (unsigned Rep = 0; Rep != (O.Trace ? 1 : BatchSetupRepeats); ++Rep) {
      Programs.clear();
      Cpus.pin(Rep);
      const uint64_t Start = nowNs();
      for (const workload::ProgramSpec &Spec : Specs) {
        Programs.emplace_back();
        if (!prepareProgram(Spec, Rec, Programs.back(), R))
          return;
      }
      SetupS.push_back(double(nowNs() - Start) / 1e9);
    }
  }
  R.note("programs: " + std::to_string(Programs.size()) + " (Table 1 suite)");

  // Reference answers and counters, from the first complete pass: every
  // later pass must reproduce them, and IF must equal SF per location.
  std::vector<std::vector<uint64_t>> RefPts(Programs.size());
  std::vector<uint64_t> RefWorkIf(Programs.size()), RefWorkSf(Programs.size());
  SolverStats SuiteIf, SuiteSf;
  auto Check = [&](size_t I, const Analysis &If, const Analysis &Sf,
                   bool First) {
    R.Attempted += 2;
    if (If.PointsTo != Sf.PointsTo)
      R.fail(Programs[I].Name + ": IF-Online and SF-Online points-to differ");
    if (If.Stats.Aborted || Sf.Stats.Aborted)
      R.fail(Programs[I].Name + ": solve aborted");
    if (First) {
      RefPts[I] = If.PointsTo;
      RefWorkIf[I] = If.Stats.Work;
      RefWorkSf[I] = Sf.Stats.Work;
      SuiteIf += If.Stats;
      SuiteSf += Sf.Stats;
    } else if (If.PointsTo != RefPts[I] || If.Stats.Work != RefWorkIf[I] ||
               Sf.Stats.Work != RefWorkSf[I]) {
      R.fail(Programs[I].Name + ": a repeated analysis changed its answer");
    }
  };

  std::vector<std::vector<double>> IfNs(Programs.size()),
      SfNs(Programs.size());
  uint64_t Op = 0;

  if (!O.Trace) {
    // The first pass is also the reference the later passes must repeat;
    // taking each program's best pass discounts its cold start.
    const uint64_t Deadline = nowNs() + uint64_t(O.Seconds * 1e9);
    unsigned Passes = 0;
    CpuRotation Cpus;
    // Read figures per analysis (program x config): each one's best pass.
    std::vector<ReadWindow> BestReads(2 * Programs.size(),
                                      ReadWindow{0, 1e300, 1e300});
    double BestQps = 0;
    while (Passes == 0 || nowNs() < Deadline) {
      uint64_t PassReads = 0;
      double PassReadNs = 0;
      for (size_t I = 0; I != Programs.size(); ++I) {
        // Each pass moves every program to the next CPU.
        Cpus.pin(I + Passes);
        Analysis If = analyse(*Programs[I].Unit, ifOnline(), nullptr, 0);
        Cpus.pin(I + Passes + Cpus.size() / 2);
        Analysis Sf = analyse(*Programs[I].Unit, sfOnline(), nullptr, 0);
        IfNs[I].push_back(If.SolveNs);
        SfNs[I].push_back(Sf.SolveNs);
        for (unsigned K = 0; K != 2; ++K) {
          const Analysis &A = K ? Sf : If;
          ReadWindow W = readWindow(A.ReadNs, A.ReadBlockNs / 1e9);
          ReadWindow &Best = BestReads[2 * I + K];
          Best = {0, std::min(Best.P50Us, W.P50Us),
                  std::min(Best.P90Us, W.P90Us)};
          PassReads += A.ReadNs.size();
          PassReadNs += A.ReadBlockNs;
        }
        Check(I, If, Sf, Passes == 0);
      }
      R.Attempted += PassReads;
      BestQps = std::max(BestQps, double(PassReads) / (PassReadNs / 1e9));
      ++Passes;
    }
    R.note("timed passes: " + std::to_string(Passes));
    double SolveIf = 0, SolveSf = 0;
    for (size_t I = 0; I != Programs.size(); ++I) {
      SolveIf += *std::min_element(IfNs[I].begin(), IfNs[I].end()) / 1e9;
      SolveSf += *std::min_element(SfNs[I].begin(), SfNs[I].end()) / 1e9;
    }
    R.metric("setup_s", median(SetupS), "s");
    R.metric("peak_rss_mb", selfPeakRssMb(), "MB");
    R.metric("solve_if_s", SolveIf, "s");
    R.metric("solve_sf_s", SolveSf, "s");
    // In-process reads are CPU-bound like the analyses, so they take the
    // best pass too; the latency figures are the median over the 54
    // analyses, so a few programs' largest points-to sets (which vary with
    // the generation seed) do not decide them.
    std::vector<double> P50, P90;
    for (const ReadWindow &W : BestReads) {
      P50.push_back(W.P50Us);
      P90.push_back(W.P90Us);
    }
    R.metric("read_qps", BestQps, "req/s");
    R.metric("read_p50_us", median(P50), "us");
    R.metric("read_p90_us", median(P90), "us");
    return;
  }

  // Traced run: each analysis runs untraced and traced back to back (the
  // order alternates per program), so the gap between them is the
  // tracing overhead. Spans and counters come from the traced one.
  const uint64_t Deadline = nowNs() + uint64_t(O.Seconds * 1e9);
  double UntracedNs = 0, TracedNs = 0;
  unsigned Passes = 0;
  while (Passes == 0 || nowNs() < Deadline) {
    for (size_t I = 0; I != Programs.size(); ++I) {
      const minic::TranslationUnit &Unit = *Programs[I].Unit;
      Analysis Traced[2];
      const Config *Configs[2] = {&ifOnline(), &sfOnline()};
      for (unsigned K = 0; K != 2; ++K) {
        bool TracedFirst = (I + K) % 2 == 0;
        for (unsigned Turn = 0; Turn != 2; ++Turn) {
          bool IsTraced = (Turn == 0) == TracedFirst;
          Analysis A = analyse(Unit, *Configs[K], IsTraced ? Rec : nullptr,
                               IsTraced ? ++Op : 0);
          (IsTraced ? TracedNs : UntracedNs) += A.SolveNs;
          if (IsTraced)
            Traced[K] = std::move(A);
        }
      }
      Check(I, Traced[0], Traced[1], Passes == 0);
    }
    ++Passes;
  }
  R.note("traced passes: " + std::to_string(Passes));

  // Layer times are per pass: per-program medians over the traced
  // analyses, summed over the suite, like solve_*_s.
  auto PerPassMs = [&](const char *Name) {
    std::vector<double> All = Rec->durations(Name);
    double Total = 0;
    for (size_t I = 0; I != Programs.size(); ++I) {
      std::vector<double> Samples;
      for (size_t P = I; P < All.size(); P += Programs.size())
        Samples.push_back(All[P]);
      Total += median(Samples);
    }
    return Total / 1e6;
  };
  R.metric("workload.generate_ms", spanSumMs(Recorder, "workload.generate"),
           "ms");
  R.metric("minic.parse_ms", spanSumMs(Recorder, "minic.parse"), "ms");
  R.metric("andersen.solve_if_ms", PerPassMs("andersen.solve_if"), "ms");
  R.metric("andersen.solve_sf_ms", PerPassMs("andersen.solve_sf"), "ms");
  R.metric("setcon.finalize_if_ms", PerPassMs("setcon.finalize_if"), "ms");
  R.metric("setcon.finalize_sf_ms", PerPassMs("setcon.finalize_sf"), "ms");
  reportSolverCounters(R, ifOnline(), SuiteIf);
  reportSolverCounters(R, sfOnline(), SuiteSf);
  R.metric("setcon.cone_vars", 0, "count");
  for (const char *Name :
       {"serve.add_apply_us", "serve.retract_apply_us", "serve.wal_append_us",
        "serve.serialize_us", "net.view_build_us", "net.view_query_us",
        "net.wire_us", "write.add_p50_us", "write.add_p90_us",
        "write.retract_p50_us", "write.retract_p90_us"})
    R.metric(Name, 0, "us");
  for (const char *Name : {"net.view_publishes", "net.reads_during_write"})
    R.metric(Name, 0, "count");
  for (const char *Name :
       {"program.view_publish_mean_us", "program.wal_append_mean_us",
        "program.serialize_mean_us"})
    R.metric(Name, 0, "us");
  finishTrace(O, Recorder, R, {"analysis.if", "analysis.sf"},
              UntracedNs > 0 ? 100.0 * (TracedNs - UntracedNs) / UntracedNs
                             : 0);
}

//===----------------------------------------------------------------------===//
// Served program: set-up shared by serve_read and serve_edit
//===----------------------------------------------------------------------===//

struct ServedSystem {
  Program Prog;
  RenderedSystem System;
  std::vector<std::string> LocNames; ///< Each location's content variable.
  std::vector<uint32_t> NonEmpty;    ///< LocNames indices with pts != {}.
  std::vector<std::string> LsReply, PtsReply; ///< Oracle answers.
  ConstraintSystemFile OracleFile;
  serve::SolverBundle Oracle; ///< Fresh SF-Plain solve, settled.
  std::string ScsPath, SocketPath, WalPath, LogPath;
};

serve::SolverBundle solveText(const ConstraintSystemFile &File,
                              const SolverOptions &Opts) {
  serve::SolverBundle Bundle;
  Bundle.Constructors = std::make_unique<ConstructorTable>();
  Bundle.Terms = std::make_unique<TermTable>(*Bundle.Constructors);
  Bundle.Solver = std::make_unique<ConstraintSolver>(*Bundle.Terms, Opts);
  File.emit(*Bundle.Solver);
  Bundle.Solver->materializeAllViews();
  return Bundle;
}

/// The oracle's answer to one read request, in the text scserved renders.
std::string oracleAnswer(const ServedSystem &S, const std::string &Verb,
                         uint32_t X, uint32_t Y) {
  const ConstraintSolver &Solver = *S.Oracle.Solver;
  if (Verb == "ls")
    return S.LsReply[X];
  if (Verb == "pts")
    return S.PtsReply[X];
  uint32_t VX = S.OracleFile.varIndex(S.LocNames[X]);
  uint32_t VY = S.OracleFile.varIndex(S.LocNames[Y]);
  return Solver.aliasConst(VX, VY) ? "ok true" : "ok false";
}

/// One seeded read request over the served program's locations. `alias`
/// takes its first operand from locations with a non-empty points-to set,
/// so the answer cannot depend on which cycle representatives the served
/// configuration picked.
struct ReadRequest {
  const char *Verb;
  uint32_t X, Y;
  std::string line(const ServedSystem &S) const {
    std::string Line = std::string(Verb) + " " + S.LocNames[X];
    if (std::strcmp(Verb, "alias") == 0)
      Line += " " + S.LocNames[Y];
    return Line;
  }
};

ReadRequest nextRead(PRNG &Rng, const ServedSystem &S) {
  ReadRequest Req;
  uint32_t N = static_cast<uint32_t>(S.LocNames.size());
  switch (Rng.nextBelow(3)) {
  case 0:
    Req = {"ls", uint32_t(Rng.nextBelow(N)), 0};
    break;
  case 1:
    Req = {"pts", uint32_t(Rng.nextBelow(N)), 0};
    break;
  default:
    Req = {"alias", S.NonEmpty[Rng.nextBelow(S.NonEmpty.size())],
           uint32_t(Rng.nextBelow(N))};
    break;
  }
  return Req;
}

uint64_t readerSeed(uint64_t Seed, unsigned Reader) {
  return mixSeed(Seed, 0x7265616400ULL + Reader);
}

/// Generates, parses, and renders the served program, solves the oracle,
/// and starts scserved on it. Returns false (after recording a failure)
/// if any step fails.
bool setUpServed(const Options &O, bool WithWal, SpanRecorder *Rec,
                 ServedSystem &S, ServedProcess &Server, Report &R) {
  // The served program keeps its Table 1 generation seed: one program's
  // cost varies too much between generation seeds for the serve metrics
  // to compare across runs, so the benchmark seed drives the requests.
  workload::ProgramSpec Spec;
  for (const workload::ProgramSpec &Candidate : workload::paperSuite())
    if (Candidate.Name == ServedProgram)
      Spec = Candidate;
  if (!prepareProgram(Spec, Rec, S.Prog, R))
    return false;

  {
    ScopedSpan Span(Rec, "setup.render");
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms, ifOnline().Options);
    andersen::ConstraintGenerator Generator(Solver);
    Generator.run(*S.Prog.Unit);
    S.System = renderBaseSystem(Solver);
    S.LocNames.clear();
    for (const andersen::Location &Loc : Generator.locations())
      S.LocNames.push_back(varName(Loc.Content));
  }
  {
    std::ofstream Out(S.ScsPath, std::ios::trunc);
    Out << S.System.Text;
    if (!Out.good()) {
      R.fail("cannot write " + S.ScsPath);
      return false;
    }
  }

  {
    ScopedSpan Span(Rec, "setup.oracle");
    S.OracleFile = ConstraintSystemFile();
    Status Parsed = S.OracleFile.parse(S.System.Text);
    if (!Parsed) {
      R.fail("rendered system does not parse: " + Parsed.toString());
      return false;
    }
    S.Oracle = solveText(S.OracleFile,
                         makeConfig(GraphForm::Standard, CycleElim::None));
    const ConstraintSolver &Solver = *S.Oracle.Solver;
    S.LsReply.clear();
    S.PtsReply.clear();
    S.NonEmpty.clear();
    for (uint32_t I = 0; I != S.LocNames.size(); ++I) {
      VarId Var = S.OracleFile.varIndex(S.LocNames[I]);
      const std::vector<ExprId> &LS =
          Solver.leastSolutionViewConst(Solver.repConst(Var));
      S.LsReply.push_back(
          "ok " + serve::render::renderSet(serve::render::lsItems(Solver, LS)));
      S.PtsReply.push_back("ok " + serve::render::renderSet(
                                       serve::render::ptsItems(Solver, LS)));
      if (!LS.empty())
        S.NonEmpty.push_back(I);
    }
    if (S.NonEmpty.empty()) {
      R.fail("served program has no non-empty points-to set");
      return false;
    }
  }

  ScopedSpan Span(Rec, "setup.server_start");
  ::unlink(S.SocketPath.c_str());
  std::vector<std::string> Args = {
      "--config=if-online", "--unix=" + S.SocketPath,
      "--net-lanes=" + std::to_string(ServerLanes)};
  if (WithWal) {
    ::unlink(S.WalPath.c_str());
    Args.push_back("--wal=" + S.WalPath);
  }
  Args.push_back(S.ScsPath);
  Status Started = Server.start(O.Scserved, Args, S.LogPath, 60000);
  if (!Started) {
    R.fail("scserved: " + Started.toString());
    return false;
  }
  return true;
}

/// Client-observed latencies of one load phase.
struct LoadResult {
  std::vector<double> ReadNs, AddNs, RetractNs;
  std::vector<double> ReadEndS; ///< Completion of each read, from start.
  double Seconds = 0;
  std::vector<uint64_t> ReadsPerClient;
  std::vector<uint64_t> PairsPerWriter;
};

/// Sends \p Line, records its latency, and returns the reply ("" on a
/// transport error, which is recorded as a failure).
std::string ask(net::LineClient &Client, const std::string &Line,
                std::vector<double> &LatNs, Report &R) {
  std::string Reply;
  const uint64_t Start = nowNs();
  Status Got = Client.request(Line, Reply);
  LatNs.push_back(double(nowNs() - Start));
  if (!Got.ok()) {
    R.fail("transport error on '" + Line + "': " + Got.toString());
    return "";
  }
  return Reply;
}

bool wellFormedRead(const std::string &Reply) {
  if (Reply == "ok true" || Reply == "ok false")
    return true;
  return Reply.size() >= 5 && Reply.compare(0, 4, "ok {") == 0 &&
         Reply.back() == '}';
}

/// The base lines each serve_edit writer edits: distinct texts, disjoint
/// between writers, chosen by the seed.
std::vector<std::vector<std::string>> editLines(const ServedSystem &S,
                                                uint64_t Seed) {
  std::vector<std::string> Unique;
  std::set<std::string> Seen;
  for (const std::string &Line : S.System.ConstraintLines)
    if (Seen.insert(Line).second)
      Unique.push_back(Line);
  PRNG Rng(mixSeed(Seed, 0x6564697400ULL));
  for (size_t I = Unique.size(); I > 1; --I)
    std::swap(Unique[I - 1], Unique[Rng.nextBelow(I)]);
  std::vector<std::vector<std::string>> Out(EditWriters);
  for (unsigned W = 0; W != EditWriters; ++W)
    for (unsigned K = 0; K != LinesPerWriter; ++K)
      Out[W].push_back(Unique[(W * LinesPerWriter + K) % Unique.size()]);
  return Out;
}

/// The closed-loop load phase: \p Readers reader connections (checked
/// exactly against the oracle when \p Exact) and \p Writers writer
/// connections repeating retract+add pairs over their own base lines.
LoadResult runLoad(const Options &O, const ServedSystem &S, unsigned Readers,
                   unsigned Writers, bool Exact, Report &R) {
  LoadResult Out;
  std::vector<std::vector<double>> ReadLat(Readers), ReadEnd(Readers),
      AddLat(Writers), RetractLat(Writers);
  Out.ReadsPerClient.assign(Readers, 0);
  Out.PairsPerWriter.assign(Writers, 0);
  std::vector<std::vector<std::string>> Lines = editLines(S, O.Seed);
  std::atomic<bool> Stop{false};
  const uint64_t Start = nowNs();
  const uint64_t Deadline = Start + uint64_t(O.Seconds * 1e9);

  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != Writers; ++W)
    Threads.emplace_back([&, W] {
      net::LineClient Client;
      if (!Client.connectUnix(S.SocketPath).ok()) {
        R.fail("writer cannot connect");
        return;
      }
      for (uint64_t K = 0; nowNs() < Deadline && !Stop.load(); ++K) {
        const std::string &Line = Lines[W][K % Lines[W].size()];
        std::string Retracted =
            ask(Client, "retract " + Line, RetractLat[W], R);
        std::string Added = ask(Client, "add " + Line, AddLat[W], R);
        if (Retracted != "ok retracted" || Added != "ok added") {
          R.fail("edit of '" + Line + "' answered '" + Retracted + "' / '" +
                 Added + "'");
          Stop.store(true);
          return;
        }
        ++Out.PairsPerWriter[W];
      }
    });
  for (unsigned C = 0; C != Readers; ++C)
    Threads.emplace_back([&, C] {
      net::LineClient Client;
      if (!Client.connectUnix(S.SocketPath).ok()) {
        R.fail("reader cannot connect");
        return;
      }
      PRNG Rng(readerSeed(O.Seed, C));
      while (nowNs() < Deadline && !Stop.load()) {
        ReadRequest Req = nextRead(Rng, S);
        std::string Reply = ask(Client, Req.line(S), ReadLat[C], R);
        ReadEnd[C].push_back(double(nowNs() - Start) / 1e9);
        ++Out.ReadsPerClient[C];
        bool Ok = Exact ? Reply == oracleAnswer(S, Req.Verb, Req.X, Req.Y)
                        : wellFormedRead(Reply);
        if (!Ok)
          R.fail("'" + Req.line(S) + "' answered '" + Reply.substr(0, 80) +
                 "'");
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Out.Seconds = double(nowNs() - Start) / 1e9;
  for (unsigned C = 0; C != Readers; ++C) {
    Out.ReadNs.insert(Out.ReadNs.end(), ReadLat[C].begin(), ReadLat[C].end());
    Out.ReadEndS.insert(Out.ReadEndS.end(), ReadEnd[C].begin(),
                        ReadEnd[C].end());
  }
  for (unsigned W = 0; W != Writers; ++W) {
    Out.AddNs.insert(Out.AddNs.end(), AddLat[W].begin(), AddLat[W].end());
    Out.RetractNs.insert(Out.RetractNs.end(), RetractLat[W].begin(),
                         RetractLat[W].end());
  }
  R.Attempted += Out.ReadNs.size() + Out.AddNs.size() + Out.RetractNs.size();
  return Out;
}

/// Scrapes `<name>_sum` / `<name>_count` of one histogram from a metrics
/// reply, returning the mean (0 when absent or empty).
double histogramMean(const std::string &Metrics, const std::string &Name) {
  auto Value = [&](const std::string &Key) {
    size_t Pos = Metrics.find("\n" + Key + " ");
    return Pos == std::string::npos
               ? 0.0
               : std::strtod(Metrics.c_str() + Pos + Key.size() + 2, nullptr);
  };
  double Count = Value(Name + "_count");
  return Count > 0 ? Value(Name + "_sum") / Count : 0;
}

double counterValue(const std::string &Metrics, const std::string &Name) {
  size_t Pos = Metrics.find("\n" + Name + " ");
  return Pos == std::string::npos
             ? 0.0
             : std::strtod(Metrics.c_str() + Pos + Name.size() + 2, nullptr);
}

/// Post-load check for serve_edit: every writer restored its lines, so a
/// seeded sample of variables must answer exactly as the base oracle.
void checkSample(const Options &O, const ServedSystem &S, Report &R) {
  net::LineClient Client;
  if (!Client.connectUnix(S.SocketPath).ok()) {
    R.fail("checker cannot connect");
    return;
  }
  PRNG Rng(mixSeed(O.Seed, 0x636865636bULL));
  for (unsigned K = 0; K != EditCheckSample; ++K) {
    uint32_t X = uint32_t(Rng.nextBelow(S.LocNames.size()));
    for (const char *Verb : {"ls", "pts"}) {
      std::string Line = std::string(Verb) + " " + S.LocNames[X];
      std::string Reply;
      ++R.Attempted;
      if (!Client.request(Line, Reply).ok() ||
          Reply != oracleAnswer(S, Verb, X, 0))
        R.fail("after edits, '" + Line + "' differs from a fresh solve");
    }
  }
}

/// In-process analyses of the served program (after the server stopped),
/// alternating IF-Online and SF-Online for ServedSolveSeconds: the best
/// analysis time per config, in seconds.
std::pair<double, double> solveServed(const ServedSystem &S, SpanRecorder *Rec,
                                      Report &R) {
  std::vector<double> IfNs, SfNs;
  const uint64_t Deadline = nowNs() + uint64_t(ServedSolveSeconds * 1e9);
  CpuRotation Cpus;
  for (unsigned K = 0; K < 3 || nowNs() < Deadline; ++K) {
    Cpus.pin(2 * K);
    Analysis If = analyse(*S.Prog.Unit, ifOnline(), Rec, 2 * K + 1);
    Cpus.pin(2 * K + 1);
    Analysis Sf = analyse(*S.Prog.Unit, sfOnline(), Rec, 2 * K + 2);
    R.Attempted += 2;
    if (If.PointsTo != Sf.PointsTo)
      R.fail("served program: IF-Online and SF-Online points-to differ");
    IfNs.push_back(If.SolveNs);
    SfNs.push_back(Sf.SolveNs);
    if (K == 0 && Rec) {
      reportSolverCounters(R, ifOnline(), If.Stats);
      reportSolverCounters(R, sfOnline(), Sf.Stats);
    }
  }
  auto Summary = [](const char *Tag, const std::vector<double> &Ns) {
    return std::string(Tag) + " n=" + std::to_string(Ns.size()) +
           " min/p20/p50/max ms=" + std::to_string(percentile(Ns, 0) / 1e6) +
           "/" + std::to_string(percentile(Ns, 0.2) / 1e6) + "/" +
           std::to_string(percentile(Ns, 0.5) / 1e6) + "/" +
           std::to_string(percentile(Ns, 1) / 1e6);
  };
  R.note("served-program analyses: " + Summary("if", IfNs) + "; " +
         Summary("sf", SfNs));
  return {*std::min_element(IfNs.begin(), IfNs.end()) / 1e9,
          *std::min_element(SfNs.begin(), SfNs.end()) / 1e9};
}

/// Replays every reader's request sequence of the load phase against an
/// in-process view, checking each answer against the oracle; returns the
/// tracing overhead (traced vs untraced replay time) in percent.
double replayReads(const Options &O, const ServedSystem &S,
                   const net::ReadView &View, const LoadResult &Load,
                   SpanRecorder &Rec, Report &R) {
  // Every request runs untraced and traced back to back, the order
  // alternating, so neither side gets the warmer caches.
  double Elapsed[2] = {0, 0};
  uint64_t Op = 0;
  for (unsigned C = 0; C != Load.ReadsPerClient.size(); ++C) {
    PRNG Rng(readerSeed(O.Seed, C));
    for (uint64_t K = 0; K != Load.ReadsPerClient[C]; ++K) {
      ReadRequest Req = nextRead(Rng, S);
      std::string Line = Req.line(S);
      ++Op;
      for (unsigned Turn = 0; Turn != 2; ++Turn) {
        bool Traced = (Turn + K) % 2 == 1;
        const uint64_t Start = nowNs();
        std::string Reply;
        {
          ScopedSpan Span(Traced ? &Rec : nullptr, "net.view_query", Op);
          serve::Request Parsed = serve::parseRequest(Line);
          uint32_t X = View.varOf(Parsed.Arg1);
          if (Parsed.Verb == "alias")
            Reply = View.alias(X, View.varOf(Parsed.Arg2));
          else if (Parsed.Verb == "ls")
            Reply = View.ls(X);
          else
            Reply = View.pts(X);
        }
        Elapsed[Traced] += double(nowNs() - Start);
        if (Traced && Reply != oracleAnswer(S, Req.Verb, Req.X, Req.Y))
          R.fail("in-process '" + Line + "' differs from the oracle");
      }
    }
  }
  return Elapsed[0] > 0 ? 100.0 * (Elapsed[1] - Elapsed[0]) / Elapsed[0] : 0;
}

/// The serve_edit write path replayed in process: per write, the WAL
/// append (+fsync) of the same record on a scratch log, the ServerCore
/// apply, the snapshot serialization, and the view build.
std::shared_ptr<const net::ReadView>
replayWrites(const Options &O, const ServedSystem &S, const LoadResult &Load,
             SpanRecorder &Rec, Report &R, std::vector<double> &ConeVars) {
  serve::SolverBundle Bundle = solveText(S.OracleFile, ifOnline().Options);
  serve::ServerCore Core(std::move(Bundle), 256, serve::ServerCoreConfig());
  serve::WriteAheadLog Wal;
  std::string WalPath = O.OutDir + "/scratch.wal";
  ::unlink(WalPath.c_str());
  if (!Core.valid() || !Core.recover(0).ok() || !Wal.open(WalPath).ok()) {
    R.fail("in-process write path could not start");
    return nullptr;
  }
  std::vector<std::vector<std::string>> Lines = editLines(S, O.Seed);
  std::shared_ptr<const net::ReadView> View;
  const uint64_t Deadline = nowNs() + uint64_t(O.Seconds * 1e9);
  uint64_t Op = 0, Epoch = 0;
  std::vector<uint8_t> Bytes;
  for (uint64_t K = 0; nowNs() < Deadline; ++K) {
    bool Any = false;
    for (unsigned W = 0; W != Lines.size(); ++W) {
      if (K >= Load.PairsPerWriter[W])
        continue;
      Any = true;
      const std::string &Line = Lines[W][K % Lines[W].size()];
      for (bool Retract : {true, false}) {
        std::string Payload = Line;
        if (Retract) {
          std::string Canon;
          if (!Core.engine().checkRetract(Line, &Canon).ok()) {
            R.fail("in-process retract of '" + Line + "' rejected");
            return View;
          }
          Payload = serve::WalRetractPrefix + Canon;
        }
        uint64_t ConeBefore =
            Core.engine().solver().stats().ConeVarsRecomputed;
        ++Op;
        ScopedSpan Write(&Rec, "serve.write", Op);
        Status St;
        {
          ScopedSpan Span(&Rec, "serve.wal_append", Op);
          St = Wal.append(Payload);
        }
        if (St.ok()) {
          ScopedSpan Span(&Rec, Retract ? "serve.retract_apply"
                                        : "serve.add_apply",
                          Op);
          St = Retract ? Core.retractLine(Line) : Core.addLine(Line);
        }
        if (St.ok()) {
          ScopedSpan Span(&Rec, "serve.serialize", Op);
          St = Core.serializeState(Bytes);
        }
        if (St.ok()) {
          ScopedSpan Span(&Rec, "net.view_build", Op);
          Expected<std::shared_ptr<const net::ReadView>> Built =
              net::ReadView::build(Bytes, ++Epoch);
          if (Built.ok())
            View = *Built;
          else
            St = Built.status();
        }
        ++R.Attempted;
        if (!St.ok()) {
          R.fail("in-process write failed: " + St.toString());
          return View;
        }
        if (Retract)
          ConeVars.push_back(double(
              Core.engine().solver().stats().ConeVarsRecomputed - ConeBefore));
      }
    }
    if (!Any)
      break;
  }
  Wal.close();
  ::unlink(WalPath.c_str());
  if (!View) {
    Core.serializeState(Bytes);
    Expected<std::shared_ptr<const net::ReadView>> Built =
        net::ReadView::build(Bytes, 0);
    if (Built.ok())
      View = *Built;
  }
  return View;
}

void runServe(const Options &O, Report &R) {
  const bool Edit = O.Workload == "serve_edit";
  SpanRecorder Recorder;
  SpanRecorder *Rec = O.Trace ? &Recorder : nullptr;
  ServedSystem S;
  std::string Dir = O.OutDir + "/run-" + std::to_string(::getpid());
  ::mkdir(Dir.c_str(), 0755);
  S.ScsPath = Dir + "/served.scs";
  S.SocketPath = Dir + "/served.sock";
  S.WalPath = Dir + "/served.wal";
  S.LogPath = Dir + "/scserved.log";

  // Set-up (repeated; median): generate, parse, render, oracle solve,
  // server ready. Servers of earlier repetitions are stopped untimed.
  std::vector<double> SetupS;
  ServedProcess Server;
  for (unsigned Rep = 0; Rep != (O.Trace ? 1 : SetupRepeats); ++Rep) {
    if (Server.running()) {
      Status Stopped = Server.shutdown(S.SocketPath, 10000);
      if (!Stopped)
        R.fail(Stopped.toString());
    }
    const uint64_t Start = nowNs();
    if (!setUpServed(O, Edit, Rec, S, Server, R))
      return;
    SetupS.push_back(double(nowNs() - Start) / 1e9);
  }
  R.note("served: " + std::string(ServedProgram) + " vars=" +
         std::to_string(S.OracleFile.varNames().size()) + " lines=" +
         std::to_string(S.System.ConstraintLines.size()) + " bytes=" +
         std::to_string(S.System.Text.size()) + " locations=" +
         std::to_string(S.LocNames.size()));

  LoadResult Load = runLoad(O, S, Edit ? EditReaders : ReadClients,
                            Edit ? EditWriters : 0, !Edit, R);
  if (Edit)
    checkSample(O, S, R);
  std::string Metrics;
  {
    net::LineClient Client;
    if (!Client.connectUnix(S.SocketPath).ok() ||
        !Client.request("metrics", Metrics).ok())
      R.fail("metrics request failed");
  }
  double PeakRss = Server.peakRssMb();
  Status Stopped = Server.shutdown(S.SocketPath, 10000);
  if (!Stopped)
    R.fail(Stopped.toString());
  R.note("load: " + std::to_string(Load.ReadNs.size()) + " reads, " +
         std::to_string(Load.AddNs.size()) + " adds, " +
         std::to_string(Load.RetractNs.size()) + " retracts in " +
         std::to_string(Load.Seconds) + " s");
  if (Edit)
    R.note("writes (client): add p50=" +
           std::to_string(percentile(Load.AddNs, 0.5) / 1e3) +
           "us p90=" + std::to_string(percentile(Load.AddNs, 0.9) / 1e3) +
           "us; retract p50=" +
           std::to_string(percentile(Load.RetractNs, 0.5) / 1e3) +
           "us p90=" + std::to_string(percentile(Load.RetractNs, 0.9) / 1e3) +
           "us");

  std::pair<double, double> Solve = solveServed(S, Rec, R);

  if (!O.Trace) {
    R.metric("setup_s", median(SetupS), "s");
    R.metric("peak_rss_mb", PeakRss, "MB");
    R.metric("solve_if_s", Solve.first, "s");
    R.metric("solve_sf_s", Solve.second, "s");
    // Ten equal windows of the load phase.
    constexpr unsigned NumWindows = 10;
    std::vector<std::vector<double>> Lat(NumWindows);
    for (size_t I = 0; I != Load.ReadNs.size(); ++I)
      Lat[std::min<size_t>(NumWindows - 1,
                           size_t(Load.ReadEndS[I] / O.Seconds * NumWindows))]
          .push_back(Load.ReadNs[I]);
    std::vector<ReadWindow> Windows;
    for (const std::vector<double> &W : Lat)
      Windows.push_back(readWindow(W, O.Seconds / NumWindows));
    std::string Line = "read windows (qps/p50/p90 us):";
    for (const ReadWindow &W : Windows)
      Line += " " + std::to_string(int(W.Qps)) + "/" +
              std::to_string(int(W.P50Us)) + "/" + std::to_string(int(W.P90Us));
    R.note(Line);
    ReadWindow Reads = robustWindow(Windows);
    R.metric("read_qps", Reads.Qps, "req/s");
    R.metric("read_p50_us", Reads.P50Us, "us");
    R.metric("read_p90_us", Reads.P90Us, "us");
    return;
  }

  // Traced replay in process.
  std::vector<double> ConeVars;
  std::shared_ptr<const net::ReadView> View;
  if (Edit) {
    View = replayWrites(O, S, Load, Recorder, R, ConeVars);
  } else {
    ScopedSpan Span(Rec, "setup.view_build");
    serve::SolverBundle Bundle = solveText(S.OracleFile, ifOnline().Options);
    std::vector<uint8_t> Bytes;
    if (serve::GraphSnapshot::serialize(*Bundle.Solver, Bytes).ok()) {
      Expected<std::shared_ptr<const net::ReadView>> Built =
          net::ReadView::build(Bytes, 0);
      if (Built.ok())
        View = *Built;
    }
  }
  double Overhead = 0;
  if (!View)
    R.fail("no in-process view to replay reads on");
  else
    Overhead = replayReads(O, S, *View, Load, Recorder, R);

  R.metric("workload.generate_ms", spanSumMs(Recorder, "workload.generate"),
           "ms");
  R.metric("minic.parse_ms", spanSumMs(Recorder, "minic.parse"), "ms");
  R.metric("andersen.solve_if_ms",
           median(Recorder.durations("andersen.solve_if")) / 1e6, "ms");
  R.metric("andersen.solve_sf_ms",
           median(Recorder.durations("andersen.solve_sf")) / 1e6, "ms");
  R.metric("setcon.finalize_if_ms",
           median(Recorder.durations("setcon.finalize_if")) / 1e6, "ms");
  R.metric("setcon.finalize_sf_ms",
           median(Recorder.durations("setcon.finalize_sf")) / 1e6, "ms");
  R.metric("setcon.cone_vars", ConeVars.empty() ? 0 : sum(ConeVars) /
                                                          ConeVars.size(),
           "count");
  R.metric("serve.add_apply_us", spanP50Us(Recorder, "serve.add_apply"), "us");
  R.metric("serve.retract_apply_us",
           spanP50Us(Recorder, "serve.retract_apply"), "us");
  R.metric("serve.wal_append_us", spanP50Us(Recorder, "serve.wal_append"),
           "us");
  R.metric("serve.serialize_us", spanP50Us(Recorder, "serve.serialize"), "us");
  R.metric("net.view_build_us", spanP50Us(Recorder, "net.view_build"), "us");
  double QueryP50 = spanP50Us(Recorder, "net.view_query");
  R.metric("net.view_query_us", QueryP50, "us");
  R.metric("net.wire_us", percentile(Load.ReadNs, 0.5) / 1e3 - QueryP50, "us");
  R.metric("write.add_p50_us", percentile(Load.AddNs, 0.5) / 1e3, "us");
  R.metric("write.add_p90_us", percentile(Load.AddNs, 0.9) / 1e3, "us");
  R.metric("write.retract_p50_us", percentile(Load.RetractNs, 0.5) / 1e3,
           "us");
  R.metric("write.retract_p90_us", percentile(Load.RetractNs, 0.9) / 1e3,
           "us");
  // The server's own counts, from its `metrics` verb. Publishes include the
  // startup view.
  R.metric("net.view_publishes",
           counterValue(Metrics, "poce_net_view_publishes_total"), "count");
  R.metric("net.reads_during_write",
           counterValue(Metrics, "poce_net_reads_during_write_total"),
           "count");
  R.metric("program.view_publish_mean_us",
           histogramMean(Metrics, "poce_net_view_publish_us"), "us");
  R.metric("program.wal_append_mean_us",
           histogramMean(Metrics, "poce_wal_append_us"), "us");
  R.metric("program.serialize_mean_us",
           histogramMean(Metrics, "poce_snapshot_serialize_us"), "us");
  finishTrace(O, Recorder, R,
              Edit ? std::set<std::string>{"serve.write"}
                   : std::set<std::string>{"analysis.if", "analysis.sf"},
              Overhead);
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Value = Argv[I + 1];
    if (Key == "--workload")
      O.Workload = Value;
    else if (Key == "--seed")
      O.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      O.Seconds = std::atof(Value.c_str());
    else if (Key == "--trace")
      O.Trace = Value == "1";
    else if (Key == "--scserved")
      O.Scserved = Value;
    else if (Key == "--out-dir")
      O.OutDir = Value;
    else if (Key == "--commit")
      O.Commit = Value;
    else
      return false;
  }
  return Argc % 2 == 1 && O.Seconds > 0 &&
         (O.Workload == "pointsto_batch" || O.Workload == "serve_read" ||
          O.Workload == "serve_edit") &&
         (O.Workload == "pointsto_batch" || !O.Scserved.empty());
}

std::string jsonEscape(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: poce_perfbench --workload "
                 "pointsto_batch|serve_read|serve_edit --seed N --seconds S "
                 "--trace 0|1 [--scserved PATH] [--out-dir DIR] "
                 "[--commit ID]\n");
    return 2;
  }
  ::mkdir(O.OutDir.c_str(), 0755);

  Report R;
  const unsigned Clients =
      O.Workload == "pointsto_batch"
          ? 0
          : (O.Workload == "serve_edit" ? EditWriters + EditReaders
                                        : ReadClients);
  R.note("run: workload=" + O.Workload + " seed=" + std::to_string(O.Seed) +
         " seconds=" + std::to_string(O.Seconds) +
         " trace=" + (O.Trace ? "1" : "0") +
         " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " compiler=\"" + POCE_PERFBENCH_COMPILER + "\"" +
         " build=" + POCE_PERFBENCH_BUILD_TYPE + " commit=" + O.Commit +
         " server_lanes=" +
         std::to_string(O.Workload == "pointsto_batch" ? 0 : ServerLanes) +
         " clients=" + std::to_string(Clients) +
         " loop=closed (one process; each client sends its next request "
         "after the reply)");

  if (O.Workload == "pointsto_batch")
    runBatch(O, R);
  else
    runServe(O, R);

  const bool Correct = R.Failed.load() == 0;
  if (!Correct)
    for (const std::string &Note : R.Notes)
      std::fprintf(stderr, "perfbench: FAILED: %s\n", Note.c_str());

  // The run record, to stdout and to a file beside the spans.
  std::string Json = "{\"correct\": " +
                     std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(std::max<uint64_t>(1, R.Attempted)) +
                     ", \"failed\": " + std::to_string(R.Failed.load()) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g", R.Metrics[I].second.first);
    Json += (I ? ", \"" : "\"") + R.Metrics[I].first + "\": {\"value\": " +
            Value + ", \"unit\": \"" + R.Metrics[I].second.second + "\"}";
  }
  Json += "}}";
  std::string RecordPath = O.OutDir + "/record-" + O.Workload + "-" +
                           std::to_string(O.Seed) + "-" +
                           (O.Trace ? "1" : "0") + ".json";
  if (std::FILE *File = std::fopen(RecordPath.c_str(), "w")) {
    std::fprintf(File, "{\"record\": [");
    for (size_t I = 0; I != R.Record.size(); ++I)
      std::fprintf(File, "%s\"%s\"", I ? ", " : "",
                   jsonEscape(R.Record[I]).c_str());
    std::fprintf(File, "],\n \"result\": %s}\n", Json.c_str());
    std::fclose(File);
  }
  for (const std::string &Line : R.Record)
    std::printf("# %s\n", Line.c_str());
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
