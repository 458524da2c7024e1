//===- serve/Telemetry.h - Server-side telemetry rendering ------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve layer's telemetry surface, factored out of scserved's request
/// loop so the reply builders are unit-testable without a process: the
/// query-latency and checkpoint histograms, the registry export of solver
/// and engine counters, and the `stats` / `counters` / `metrics` reply
/// strings. scserved formats every telemetry reply through these
/// functions; tests call them directly against a local registry.
///
/// Reply-format compatibility: `stats` and `counters` keep the key=value
/// single-line shape the smoke tests grep (`cycles_collapsed=`,
/// `budget_aborts=`, `p99_us=`). `counters` percentiles now come from the
/// O(1)-insert log-bucket histogram instead of sorting a 64k latency ring
/// per request; the estimate q satisfies exact <= q < 2*exact.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SERVE_TELEMETRY_H
#define POCE_SERVE_TELEMETRY_H

#include "support/Metrics.h"

#include <cstdint>
#include <string>

namespace poce {
namespace serve {

class QueryEngine;

namespace telemetry {

/// Server-loop counters that live outside the QueryEngine (WAL and
/// checkpoint state owned by scserved's main loop).
struct ServerCounters {
  uint64_t WalReplayed = 0;
  uint64_t WalSkipped = 0;
  uint64_t Checkpoints = 0;
  uint64_t WalRecords = 0;
  uint64_t WalBytes = 0;
};

/// The read meter. Both front ends — the stdin loop and the socket read
/// lanes — record every ls/pts/alias request they answer (ok or err)
/// here: one count (poce_query_requests_total) and its end-to-end
/// latency (poce_query_latency_us), both in the global registry.
Counter &queryCounter();
Histogram &queryLatencyHistogram();

/// Wall time of one checkpoint: snapshot write + WAL reset + base
/// recapture (poce_checkpoint_us in the global registry).
Histogram &checkpointHistogram();

/// The `stats` verb's reply line (starts with "ok ").
std::string buildStatsReply(const QueryEngine &Engine,
                            const ServerCounters &Server);

/// The `counters` verb's reply line (starts with "ok "): the read count
/// from \p Queries, p50/p99 from \p Latency, and the engine's view-row
/// and mutation counters.
std::string buildCountersReply(const QueryEngine &Engine,
                               const Counter &Queries,
                               const Histogram &Latency);

/// Mirrors the engine's view-row and mutation counters and the
/// server-loop counters into \p Registry (poce_query_view_* /
/// poce_serve_* series).
/// Observe-only, like SolverStats::exportTo.
void exportServeMetrics(MetricsRegistry &Registry, const QueryEngine &Engine,
                        const ServerCounters &Server);

/// The `metrics` verb's full reply: an "ok metrics" header line, the
/// Prometheus text exposition of \p Registry (after exporting the solver
/// and serve counters into it), and a final "# EOF" line so clients of
/// the one-line protocol know where the multi-line payload ends.
std::string buildMetricsReply(MetricsRegistry &Registry, QueryEngine &Engine,
                              const ServerCounters &Server);

} // namespace telemetry
} // namespace serve
} // namespace poce

#endif // POCE_SERVE_TELEMETRY_H
