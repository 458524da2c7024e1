//===- net/Server.h - epoll front end for the serve protocol ----*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-client network front end: an edge-triggered epoll event
/// loop accepting TCP and/or Unix-domain connections that speak the same
/// newline verb protocol as scserved's stdin mode. Two kinds of thread
/// split the work so queries never block on adds:
///
///   - The *event-loop thread* owns every socket: accept, non-blocking
///     framed reads (net/Framing.h), reply flushing with EPOLLOUT
///     re-arm backpressure, idle timeouts, and graceful drain. It also
///     answers every ls/pts/alias line as it pops it, against the
///     immutable published ReadView (serve/ReadView.h, net/ReadView.h)
///     it pins once per dispatch, through the same metered read call as
///     the stdin loop (serve/Telemetry.h).
///   - A single *writer thread* owns the ServerCore — WAL append + apply,
///     save/checkpoint, stats/counters/metrics — and publishes its
///     engine's view after every batch that mutated the graph, *before*
///     acknowledging it (ack-after-publish), so a client that saw
///     `ok added` observes its constraint in every subsequent query:
///     read-your-writes without ever taking a lock on the read path.
///
/// Ordering: per-connection FIFO (a connection's requests are answered
/// in the order sent — a read behind a pending write waits for it via
/// head-of-line blocking on that connection only); cross-connection
/// reads never wait on writes.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_NET_SERVER_H
#define POCE_NET_SERVER_H

#include "net/Framing.h"
#include "net/ReadView.h"
#include "serve/ServerCore.h"
#include "support/Metrics.h"
#include "support/Status.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace poce {
namespace net {

struct NetServerOptions {
  std::string TcpSpec;  ///< "host:port" listener ("" = no TCP).
  std::string UnixPath; ///< Unix-socket listener path ("" = none).
  size_t MaxRequest = 64 * 1024; ///< Longest accepted request line.
  uint64_t IdleTimeoutMs = 0;    ///< Close idle connections (0 = never).
  std::string MetricsOut;        ///< JSON registry dump path ("" = off).
  uint64_t MetricsEvery = 64;    ///< Writer ops between dumps.
  /// Start as a read-only follower: add/save/checkpoint answer
  /// `err read_only` until a `promote` verb flips the server writable.
  bool ReadOnly = false;
  /// Cadence of `hb <seq>` heartbeats to registered replica
  /// connections (0 = no heartbeats).
  uint64_t HeartbeatMs = 500;
  /// Invoked (on the writer thread) when a `promote` verb succeeds, so
  /// the driver can stop its replication client.
  std::function<void()> OnPromote;
};

/// One serving process front end. Lifecycle: construct, init() (binds
/// listeners, publishes the startup view, starts the writer thread),
/// run() (blocks until `shutdown` or requestStop()), destruct.
///
/// Replication rides the same machinery. On a primary, a `replicate
/// <base> <seq>` handshake (writer lane) answers with a snapshot or a
/// record tail and flags the connection as a long-lived replica; the
/// core's ReplicationSink then turns every subsequent WAL append into an
/// `r <seq> <line>` event and every base re-stamp into a `rebase <base>`
/// event, staged in the same writer-ordered completion queue so a
/// replica never misses or double-sees a record, with `hb <seq>`
/// heartbeats from the loop thread in between. On a follower (ReadOnly),
/// the driver's ReplicationClient feeds the shipped stream back in
/// through applyReplicatedRecords/applyReplicaRebase/
/// applyReplicaBootstrap — internal writer jobs, so the single-writer
/// discipline and ack-after-publish hold for replicated applies too.
class NetServer {
public:
  NetServer(serve::ServerCore &Core, NetServerOptions Opts);
  ~NetServer();
  NetServer(const NetServer &) = delete;
  NetServer &operator=(const NetServer &) = delete;

  /// Binds listeners, creates the epoll/eventfd plumbing, publishes the
  /// startup view, and starts the writer thread.
  Status init();

  /// The TCP port actually bound (resolves an ephemeral ":0" request);
  /// 0 when no TCP listener was configured.
  uint16_t tcpPort() const { return TcpPort; }

  /// Event loop; returns the process exit code (0 on graceful drain).
  int run();

  /// Async-signal-safe drain request (the SIGTERM handler calls this):
  /// the loop stops accepting, finishes in-flight requests, flushes
  /// replies, closes the WAL, and run() returns 0.
  static void requestStop();

  /// \name Follower-side entry points (ReplicationClient thread)
  /// Synchronous: each enqueues an internal writer job and blocks until
  /// the writer lane has processed it (and published the new view, so
  /// an acked apply is visible to every subsequent query). Refused once
  /// the server is promoted or stopping.
  /// @{
  Status applyReplicatedRecords(
      std::vector<std::pair<uint64_t, std::string>> Records);
  Status applyReplicaRebase(uint64_t NewBase);
  Status applyReplicaBootstrap(std::vector<uint8_t> Bytes, uint64_t Base);
  /// @}

  /// True until a `promote` verb flips a ReadOnly server writable
  /// (always false for primaries).
  bool readOnly() const { return ReadOnlyNow.load(std::memory_order_acquire); }

private:
  struct Conn {
    int Fd = -1;
    uint64_t Gen = 0; ///< Guards completions against fd reuse.
    LineBuffer In;
    /// Parsed requests not yet dispatched: (oversized, text).
    std::deque<std::pair<bool, std::string>> Lines;
    std::string Out;          ///< Reply bytes not yet written.
    bool AwaitingWriter = false; ///< Head-of-line: a writer op is out.
    bool WantWrite = false;      ///< EPOLLOUT is armed.
    bool PeerClosed = false;     ///< Read side saw EOF.
    bool CloseAfterFlush = false;
    /// Exempt from the idle sweep: a quiet tailing follower is healthy,
    /// not abandoned.
    bool LongLived = false;
    bool IsReplica = false; ///< Receives r/rebase/hb stream events.
    uint64_t NextSeq = 0;   ///< Next record index this replica expects.
    uint64_t LastHbMs = 0;  ///< Last heartbeat (or registration) time.
    uint64_t LastActiveMs = 0;

    explicit Conn(size_t MaxLine) : In(MaxLine) {}
  };

  /// Completion latch for the synchronous follower-side entry points.
  struct InternalWait {
    std::mutex M;
    std::condition_variable Cv;
    bool Done = false;
    Status Result;
  };

  struct WriterJob {
    enum class Kind : uint8_t {
      Client,        ///< Req: a verb line from a connection.
      ReplApply,     ///< Records: apply shipped (seq, line) records.
      ReplRebase,    ///< Base: mirror a primary checkpoint.
      ReplBootstrap, ///< Bytes+Base: replace state with a snapshot.
    };
    Kind Kind = Kind::Client;
    int Fd = 0;
    uint64_t Gen = 0;
    serve::Request Req; ///< Parsed once, by dispatch().
    std::vector<std::pair<uint64_t, std::string>> Records;
    std::vector<uint8_t> Bytes;
    uint64_t Base = 0;
    std::shared_ptr<InternalWait> Wait; ///< Set for non-Client kinds.
  };

  struct Completion {
    enum class Kind : uint8_t {
      Reply,      ///< A verb reply for one connection.
      ReplRecord, ///< Broadcast `r <Seq> <Line>` to replicas.
      ReplRebase, ///< Broadcast `rebase <Base>` to replicas.
    };
    Kind Kind = Kind::Reply;
    int Fd = 0;
    uint64_t Gen = 0;
    std::string Reply;
    bool Shutdown = false; ///< The job was a handled `shutdown` verb.
    /// Reply to a successful `replicate` handshake: flag the connection
    /// as a long-lived replica expecting record ReplicaNextSeq next.
    bool MakeReplica = false;
    uint64_t ReplicaNextSeq = 0;
    uint64_t Seq = 0;  ///< ReplRecord: record index.
    uint64_t Base = 0; ///< ReplRebase: the re-stamped base id.
    std::string Line;  ///< ReplRecord: the record payload.
  };

  // Event-loop internals (loop thread only).
  Status addListener(int Fd);
  void acceptAll(int ListenFd);
  void readConn(Conn &C);
  void flushConn(Conn &C);
  void closeConn(int Fd);
  void dispatch();
  void applyCompletions();
  void sweepIdle();
  void heartbeatReplicas();
  bool quiescent() const;
  void beginDrain();
  uint64_t nowMs() const;

  // Writer thread.
  void writerLoop();
  /// Publishes the engine's current view (building it if a write made
  /// it stale).
  void publish();
  void handleClientJob(WriterJob &Job, Completion &Comp, bool &Mutated);
  Status runInternalJob(WriterJob &Job, bool &Mutated);
  Status submitInternal(WriterJob Job);

  serve::ServerCore &Core;
  NetServerOptions Opts;

  int EpollFd = -1;
  int WakeFd = -1; ///< eventfd: writer completions + stop requests.
  std::vector<int> ListenFds;
  uint16_t TcpPort = 0;
  std::map<int, Conn> Conns;
  uint64_t NextGen = 1;
  bool Draining = false;
  size_t ReplicaCount = 0;   ///< Registered replica connections.
  uint64_t ReplKnownSeq = 0; ///< Live record count advertised in `hb`.
  std::atomic<bool> ReadOnlyNow{false};

  ViewPublisher Publisher;

  // Writer queue (mutex-guarded handoff; WakeFd signals completions
  // back). Mutable so quiescent() can stay const.
  mutable std::mutex WriterMutex;
  std::condition_variable WriterCv;
  std::deque<WriterJob> Jobs;
  std::deque<Completion> Done;
  bool WriterStop = false;
  bool WriterBusy = false; ///< A writer batch is being processed.
  std::thread Writer;
  uint64_t WriterOps = 0;   ///< Writer-thread-local dump cadence count.
  /// Writer-thread-local staging for the in-flight batch: verb replies
  /// and the replication events the core's sink emits between them, in
  /// one generation-ordered sequence (a replica registered mid-batch
  /// sees exactly the events after its handshake).
  std::vector<Completion> WriterOut;

  // Metrics (registered in init; references are process-stable).
  Histogram *PublishHist = nullptr;
  Counter *ErrorsTotal = nullptr;
  Counter *ConnsTotal = nullptr;
  Counter *OversizedTotal = nullptr;
  Counter *IdleClosedTotal = nullptr;
  Counter *ReadsDuringWrite = nullptr;
  Counter *PublishesTotal = nullptr;
  Gauge *ConnsOpen = nullptr;
  Gauge *EpochGauge = nullptr;
  Gauge *FollowersGauge = nullptr;
  Counter *RecordsShipped = nullptr;
  Counter *SnapshotsShipped = nullptr;
};

} // namespace net
} // namespace poce

#endif // POCE_NET_SERVER_H
