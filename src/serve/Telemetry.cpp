//===- serve/Telemetry.cpp - Server-side telemetry rendering --------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "serve/Telemetry.h"

#include "serve/QueryEngine.h"

using namespace poce;
using namespace poce::serve;

namespace poce {
namespace serve {
namespace telemetry {

Counter &queryCounter() {
  static Counter &C = MetricsRegistry::global().counter(
      "poce_query_requests_total", "ls/pts/alias requests answered");
  return C;
}

Histogram &queryLatencyHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_query_latency_us",
      "End-to-end microseconds per ls/pts/alias request");
  return H;
}

Histogram &checkpointHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_checkpoint_us",
      "Microseconds per checkpoint (snapshot write + WAL reset)");
  return H;
}

std::string buildStatsReply(const QueryEngine &Engine,
                            const ServerCounters &Server) {
  const SolverStats &S = Engine.solver().stats();
  const QueryEngine::Counters &C = Engine.counters();
  return "ok config=" + Engine.solver().options().configName() +
         " vars=" + std::to_string(S.VarsCreated) +
         " live=" + std::to_string(Engine.solver().numLiveVars()) +
         " work=" + std::to_string(S.Work) +
         " cycles_collapsed=" + std::to_string(S.CyclesCollapsed) +
         " vars_eliminated=" + std::to_string(S.VarsEliminated) +
         " offline_vars=" + std::to_string(S.OfflineCollapsedVars) +
         " hvn_labels=" + std::to_string(S.HVNLabels) +
         " budget_aborts=" + std::to_string(C.BudgetAborts) +
         " rollbacks=" + std::to_string(C.Rollbacks) +
         " retractions=" + std::to_string(S.Retractions) +
         " cone_vars=" + std::to_string(S.ConeVarsRecomputed) +
         " collapses_split=" + std::to_string(S.CollapsesSplit) +
         " wal_replayed=" + std::to_string(Server.WalReplayed) +
         " checkpoints=" + std::to_string(Server.Checkpoints) +
         " wal_records=" + std::to_string(Server.WalRecords) +
         " wal_bytes=" + std::to_string(Server.WalBytes);
}

std::string buildCountersReply(const QueryEngine &Engine,
                               const Counter &Queries,
                               const Histogram &Latency) {
  const QueryEngine::Counters &C = Engine.counters();
  HistogramSnapshot Snap = Latency.snapshot();
  return "ok queries=" + std::to_string(Queries.value()) +
         " rows_built=" + std::to_string(C.RowsBuilt) +
         " rows_reused=" + std::to_string(C.RowsReused) +
         " additions=" + std::to_string(C.Additions) +
         " p50_us=" + std::to_string(Snap.quantile(0.50)) +
         " p99_us=" + std::to_string(Snap.quantile(0.99));
}

void exportServeMetrics(MetricsRegistry &Registry, const QueryEngine &Engine,
                        const ServerCounters &Server) {
  const QueryEngine::Counters &C = Engine.counters();
  auto Set = [&Registry](const char *Name, const char *Help, uint64_t Value) {
    Registry.counter(Name, Help).set(Value);
  };
  // The front ends record the read meter live; touching it here keeps
  // both series in the exposition before the first read.
  (void)queryCounter();
  (void)queryLatencyHistogram();
  Set("poce_query_view_rows_built_total", "Solution rows rendered into views",
      C.RowsBuilt);
  Set("poce_query_view_rows_reused_total",
      "Solution rows a view kept unchanged from the previous view",
      C.RowsReused);
  Set("poce_serve_additions_total", "Constraint lines accepted",
      C.Additions);
  Set("poce_serve_budget_aborts_total", "Additions rejected by a budget",
      C.BudgetAborts);
  Set("poce_serve_rollbacks_total", "Pre-batch state restores",
      C.Rollbacks);
  Set("poce_serve_wal_replayed_total", "WAL lines replayed at startup",
      Server.WalReplayed);
  Set("poce_serve_wal_skipped_total", "Stale WAL lines skipped at startup",
      Server.WalSkipped);
  Set("poce_serve_checkpoints_total", "Checkpoints completed",
      Server.Checkpoints);
  Registry.gauge("poce_serve_wal_records", "Records in the open WAL")
      .set(Server.WalRecords);
  Registry.gauge("poce_serve_wal_bytes", "Bytes in the open WAL")
      .set(Server.WalBytes);
}

std::string buildMetricsReply(MetricsRegistry &Registry, QueryEngine &Engine,
                              const ServerCounters &Server) {
  Engine.solver().stats().exportTo(Registry);
  exportServeMetrics(Registry, Engine, Server);
  return "ok metrics\n" + Registry.renderPrometheus() + "# EOF";
}

} // namespace telemetry
} // namespace serve
} // namespace poce
