//===- tests/metrics_test.cpp - Metrics registry and trace spans ----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
//
// The observability substrate: counter/gauge/histogram semantics, the
// log-bucket math and its quantile error bound against the exact
// ceil-rank percentile, the Prometheus and JSON renderings, the Chrome
// trace-event collector, and the solver's one closure sample per drain.
//
//===----------------------------------------------------------------------===//

#include "setcon/ConstraintFile.h"
#include "setcon/ConstraintSolver.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

using namespace poce;

namespace {

//===----------------------------------------------------------------------===//
// Exact ceil-rank percentile (the percentileMicros bugfix)
//===----------------------------------------------------------------------===//

TEST(PercentileTest, EmptyIsZero) {
  EXPECT_EQ(exactPercentile({}, 0.50), 0u);
  EXPECT_EQ(exactPercentile({}, 0.99), 0u);
}

TEST(PercentileTest, SingleSampleIsThatSample) {
  std::vector<uint64_t> One{42};
  EXPECT_EQ(exactPercentile(One, 0.50), 42u);
  EXPECT_EQ(exactPercentile(One, 0.99), 42u);
  EXPECT_EQ(exactPercentile(One, 0.0), 42u); // Rank clamps to 1.
}

TEST(PercentileTest, MedianOfTwoIsTheSmaller) {
  // ceil(0.5 * 2) = 1 -> the first element. The old floor nearest-rank
  // picked index 1 (the larger element), over-reporting p50 by up to the
  // full spread of the sample.
  std::vector<uint64_t> Two{10, 1000};
  EXPECT_EQ(exactPercentile(Two, 0.50), 10u);
  EXPECT_EQ(exactPercentile(Two, 0.99), 1000u);
}

TEST(PercentileTest, HundredSamplesHitTheCeilRank) {
  std::vector<uint64_t> Sorted(100);
  for (size_t I = 0; I != Sorted.size(); ++I)
    Sorted[I] = (I + 1) * 10; // 10, 20, ..., 1000.
  EXPECT_EQ(exactPercentile(Sorted, 0.50), 500u);  // ceil(50) = rank 50.
  EXPECT_EQ(exactPercentile(Sorted, 0.99), 990u);  // ceil(99) = rank 99.
  EXPECT_EQ(exactPercentile(Sorted, 1.0), 1000u);  // rank 100.
  EXPECT_EQ(exactPercentile(Sorted, 0.001), 10u);  // ceil(0.1) = rank 1.
}

//===----------------------------------------------------------------------===//
// Histogram bucket math
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketIndexIsBitWidth) {
  EXPECT_EQ(Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(Histogram::bucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX),
            Histogram::NumBuckets - 1);
}

TEST(HistogramTest, BucketBoundsContainTheirValues) {
  // Every value v lands in a bucket whose upper bound is >= v and (for
  // v >= 1) < 2v — the invariant behind the quantile error bound.
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(2), uint64_t(7),
                     uint64_t(1000), uint64_t(123456789)}) {
    unsigned Index = Histogram::bucketIndex(V);
    uint64_t Upper = Histogram::bucketUpperBound(Index);
    EXPECT_GE(Upper, V);
    if (V >= 1 && Upper != UINT64_MAX) {
      EXPECT_LT(Upper, 2 * V);
    }
    if (Index > 0) {
      EXPECT_GT(V, Histogram::bucketUpperBound(Index - 1));
    }
  }
}

TEST(HistogramTest, CountSumMaxAndEmptyQuantile) {
  Histogram H;
  EXPECT_EQ(H.quantile(0.50), 0u);
  H.record(5);
  H.record(9);
  H.record(0);
  HistogramSnapshot Snap = H.snapshot();
  EXPECT_EQ(Snap.Count, 3u);
  EXPECT_EQ(Snap.Sum, 14u);
  EXPECT_EQ(Snap.Max, 9u);
}

TEST(HistogramTest, QuantileWithinTwoTimesExact) {
  // The parity contract with the removed sort-the-ring percentiles: for
  // any sample set, the histogram estimate q of percentile P satisfies
  // exact <= q < 2 * exact (exact >= 1).
  std::mt19937_64 Rng(7);
  Histogram H;
  std::vector<uint64_t> Samples;
  for (int I = 0; I != 5000; ++I) {
    // Latency-shaped: mostly small with a heavy tail.
    uint64_t V = 1 + (Rng() % 100);
    if (Rng() % 50 == 0)
      V = 1000 + (Rng() % 100000);
    Samples.push_back(V);
    H.record(V);
  }
  std::sort(Samples.begin(), Samples.end());
  for (double P : {0.50, 0.90, 0.99, 1.0}) {
    uint64_t Exact = exactPercentile(Samples, P);
    uint64_t Estimate = H.quantile(P);
    EXPECT_GE(Estimate, Exact) << "P=" << P;
    EXPECT_LT(Estimate, 2 * Exact) << "P=" << P;
  }
}

TEST(HistogramTest, MaxCapsTheTopQuantile) {
  Histogram H;
  H.record(1000); // Bucket [512, 1023]: upper bound 1023.
  EXPECT_EQ(H.quantile(1.0), 1000u); // min(1023, Max) = the exact max.
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  Histogram H;
  constexpr int PerThread = 20000;
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&H] {
      for (int I = 0; I != PerThread; ++I)
        H.record(static_cast<uint64_t>(I % 1024));
    });
  for (std::thread &T : Threads)
    T.join();
  HistogramSnapshot Snap = H.snapshot();
  EXPECT_EQ(Snap.Count, 4u * PerThread);
  EXPECT_EQ(Snap.Max, 1023u);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, CountersGaugesAndLookupStability) {
  MetricsRegistry R;
  Counter &C = R.counter("poce_test_events_total", "events");
  C.inc();
  C.inc(4);
  EXPECT_EQ(C.value(), 5u);
  // Same name returns the same object.
  EXPECT_EQ(&R.counter("poce_test_events_total"), &C);

  Gauge &G = R.gauge("poce_test_depth", "depth");
  G.set(7);
  G.add(-2);
  EXPECT_EQ(G.value(), 5u);

  std::vector<MetricSample> Snap = R.snapshot();
  ASSERT_EQ(Snap.size(), 2u);
  // std::map iteration: name-sorted.
  EXPECT_EQ(Snap[0].Name, "poce_test_depth");
  EXPECT_EQ(Snap[1].Name, "poce_test_events_total");
}

TEST(MetricsRegistryTest, ResetZeroesValuesKeepsRegistrations) {
  MetricsRegistry R;
  R.counter("c").inc(3);
  R.gauge("g").set(9);
  R.histogram("h").record(100);
  R.reset();
  EXPECT_EQ(R.counter("c").value(), 0u);
  EXPECT_EQ(R.gauge("g").value(), 0u);
  EXPECT_EQ(R.histogram("h").count(), 0u);
  EXPECT_EQ(R.snapshot().size(), 3u);
}

TEST(MetricsRegistryTest, TimingToggleRoundTrips) {
  bool Was = MetricsRegistry::timingEnabled();
  MetricsRegistry::setTimingEnabled(true);
  EXPECT_TRUE(MetricsRegistry::timingEnabled());
  MetricsRegistry::setTimingEnabled(false);
  EXPECT_FALSE(MetricsRegistry::timingEnabled());
  MetricsRegistry::setTimingEnabled(Was);
}

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

/// Structural lint of the Prometheus text format: every non-comment line
/// is `name[{label}] value`, every series has a preceding # TYPE, and
/// histogram bucket counts are cumulative ending in +Inf == _count.
void lintPrometheus(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  std::string LastTyped;
  uint64_t LastCumulative = 0;
  bool SawInf = false;
  uint64_t InfValue = 0;
  while (std::getline(In, Line)) {
    ASSERT_FALSE(Line.empty()) << "blank line in exposition";
    if (Line.rfind("# TYPE ", 0) == 0) {
      std::istringstream Fields(Line);
      std::string Hash, Type, Name, Kind;
      Fields >> Hash >> Type >> Name >> Kind;
      EXPECT_TRUE(Kind == "counter" || Kind == "gauge" ||
                  Kind == "histogram")
          << Line;
      LastTyped = Name;
      LastCumulative = 0;
      SawInf = false;
      continue;
    }
    if (Line.rfind("#", 0) == 0)
      continue; // HELP or other comment.
    size_t Space = Line.find_last_of(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    std::string Series = Line.substr(0, Space);
    std::string Value = Line.substr(Space + 1);
    EXPECT_FALSE(Value.empty()) << Line;
    for (char C : Value)
      EXPECT_TRUE(C >= '0' && C <= '9') << Line;
    std::string Base = Series.substr(0, Series.find('{'));
    // Strip histogram suffixes to match against the # TYPE name.
    for (const char *Suffix : {"_bucket", "_sum", "_count"}) {
      size_t At = Base.rfind(Suffix);
      if (At != std::string::npos &&
          At + std::string(Suffix).size() == Base.size() &&
          Base.substr(0, At) == LastTyped)
        Base = Base.substr(0, At);
    }
    EXPECT_EQ(Base, LastTyped) << "series without preceding # TYPE: "
                               << Line;
    if (Series.find("_bucket{") != std::string::npos) {
      uint64_t Count = std::stoull(Value);
      EXPECT_GE(Count, LastCumulative) << "non-cumulative bucket: " << Line;
      LastCumulative = Count;
      if (Series.find("le=\"+Inf\"") != std::string::npos) {
        SawInf = true;
        InfValue = Count;
      }
    }
    if (Series.size() > 6 &&
        Series.compare(Series.size() - 6, 6, "_count") == 0 && SawInf) {
      EXPECT_EQ(std::stoull(Value), InfValue)
          << "_count != +Inf bucket: " << Line;
    }
  }
}

TEST(MetricsRegistryTest, PrometheusRenderingLints) {
  MetricsRegistry R;
  R.counter("poce_test_ops_total", "ops").inc(12);
  R.gauge("poce_test_live", "live vars").set(34);
  Histogram &H = R.histogram("poce_test_lat_us", "latency");
  for (uint64_t V : {1, 5, 9, 100, 4000})
    H.record(V);
  std::string Text = R.renderPrometheus();
  EXPECT_NE(Text.find("# TYPE poce_test_ops_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE poce_test_lat_us histogram"),
            std::string::npos);
  EXPECT_NE(Text.find("poce_test_lat_us_bucket{le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(Text.find("poce_test_lat_us_sum 4115"), std::string::npos);
  EXPECT_NE(Text.find("poce_test_lat_us_count 5"), std::string::npos);
  lintPrometheus(Text);
}

TEST(MetricsRegistryTest, JsonRenderingHasAllSections) {
  MetricsRegistry R;
  R.counter("c").inc(2);
  R.gauge("g").set(3);
  R.histogram("h").record(7);
  std::string Json = R.renderJson();
  EXPECT_NE(Json.find("\"counters\": {\"c\": 2}"), std::string::npos);
  EXPECT_NE(Json.find("\"gauges\": {\"g\": 3}"), std::string::npos);
  EXPECT_NE(Json.find("\"h\": {\"count\": 1, \"sum\": 7, \"max\": 7"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Trace spans
//===----------------------------------------------------------------------===//

TEST(TraceTest, DisarmedSpansAreFree) {
  ASSERT_FALSE(trace::enabled());
  uint64_t Before = trace::eventCount();
  {
    trace::Span S("never.recorded");
    trace::instant("also.never");
  }
  EXPECT_EQ(trace::eventCount(), Before);
}

TEST(TraceTest, ArmedSpansLandInChromeJson) {
  std::string Path = ::testing::TempDir() + "poce_trace_test.json";
  trace::arm(Path);
  {
    trace::Span S("test.span");
    volatile int Sink = 0;
    for (int I = 0; I != 1000; ++I)
      Sink = Sink + I;
  }
  trace::instant("test.instant");
  EXPECT_GE(trace::eventCount(), 2u);
  trace::disarm(); // Flushes and clears.
  EXPECT_FALSE(trace::enabled());

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Json = Buffer.str();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"test.span\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"test.instant\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"i\""), std::string::npos);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Solver closure samples
//===----------------------------------------------------------------------===//

TEST(ClosureMetricsTest, OneSamplePerCall) {
  // Every drain is one budget batch and records one closure sample: a
  // worklist add, a whole retraction (not one per replayed root), and
  // nothing for a close with nothing queued.
  std::string Text = "cons s\ncons t\nvar";
  for (unsigned I = 0; I != 200; ++I)
    Text += " C" + std::to_string(I);
  Text += "\ns <= C0\n";
  for (unsigned I = 0; I + 1 != 200; ++I)
    Text += "C" + std::to_string(I) + " <= C" + std::to_string(I + 1) + "\n";
  ConstraintSystemFile System;
  ASSERT_TRUE(System.parse(Text).ok());
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Options.Closure = ClosureMode::Worklist;
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, Options);
  System.emit(Solver);
  std::string Canon;
  ASSERT_TRUE(System.canonicalizeConstraint("t <= C0", Solver, Canon).ok());

  bool Was = MetricsRegistry::timingEnabled();
  MetricsRegistry::setTimingEnabled(true);
  Histogram &Closure =
      MetricsRegistry::global().histogram("poce_solver_closure_us");
  uint64_t Before = Closure.count();
  ASSERT_TRUE(System.addLine("t <= C0", Solver).ok());
  EXPECT_EQ(Closure.count() - Before, 1u);

  Before = Closure.count();
  ASSERT_TRUE(Solver.retract(Canon));
  EXPECT_EQ(Closure.count() - Before, 1u);

  Before = Closure.count();
  Solver.ensureClosed();
  EXPECT_EQ(Closure.count() - Before, 0u);
  MetricsRegistry::setTimingEnabled(Was);
  EXPECT_FALSE(Solver.stats().Aborted);
}

} // namespace
