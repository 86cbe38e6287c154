//===- Server.h - The acd verification daemon -------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived verification service behind the `acd` binary. One
/// process keeps the expensive state of a verification session resident —
/// interned HOL terms and axioms survive across requests, the abstraction
/// cache lives in memory in front of its entry directory, and a warm
/// ThreadPool skips per-run thread spawning — so a warm re-check of an
/// unchanged translation unit costs a cache probe and a render replay
/// instead of a process start.
///
/// Concurrency model: an acceptor thread hands each connection to its own
/// reader thread; `stats` / `ping` / `drain` are answered inline, while
/// `check` requests go through a bounded admission queue drained by a
/// fixed set of session workers (each runs one AutoCorres::run, which is
/// reentrant). A full queue is explicit backpressure: the request is
/// rejected immediately with `busy` + `retry_after_ms` instead of
/// stalling the connection. Clients that hang up while queued are
/// detected at dequeue (and at response delivery) and their slot is
/// simply freed — counted as `cancelled`, never leaked as in-flight.
///
/// Deadlines: a request carrying `timeout_ms` is watched from admission
/// by a watchdog thread. On expiry the watchdog answers
/// `deadline_exceeded` exactly once (an atomic Responded flag arbitrates
/// against the worker), frees a still-queued request's slot immediately,
/// and flags an in-flight request cancelled so the worker discards its
/// result instead of sending a second response.
///
/// Shutdown is graceful: beginDrain() (wired to SIGTERM by acd) refuses
/// new work with `draining`, lets queued + in-flight requests finish,
/// then tears the threads down. There is nothing to flush: every cache
/// entry was written through to its directory when it was computed.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SERVICE_SERVER_H
#define AC_SERVICE_SERVER_H

#include "core/AutoCorres.h"
#include "core/ResultCache.h"
#include "service/Metrics.h"
#include "service/Protocol.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ac::service {

/// Daemon configuration.
struct ServerOptions {
  /// Path of the Unix-domain listening socket ("" = no Unix listener;
  /// at least one of SocketPath / ListenAddr must be set).
  std::string SocketPath;
  /// TCP listen address as "host:port" ("" = no TCP listener). Port 0
  /// binds an ephemeral port — recover it with Server::tcpPort().
  std::string ListenAddr;
  /// Shared auth token required on TCP connections ("" = open). The
  /// first frame on an authenticated listener must be the auth op
  /// (docs/PROTOCOL.md "Authentication"); Unix-socket connections are
  /// never challenged — filesystem permissions are their auth.
  std::string AuthToken;
  /// Session workers: how many check requests run concurrently.
  unsigned Workers = 2;
  /// Admission queue capacity; a full queue rejects with `busy`.
  size_t QueueCapacity = 8;
  /// Default abstraction jobs per request (requests may override).
  /// 0 = AC_JOBS (1 when unset). Values != 1 run on the shared pool.
  unsigned Jobs = 0;
  /// Default cache directory for requests that don't name one; resolved
  /// through ResultCache::resolveDir. Even when resolution yields no
  /// disk directory the daemon still serves a memory-only tier.
  std::string CacheDir;
  /// The retry hint attached to `busy` rejections.
  unsigned RetryAfterMs = 50;
  /// Per-tenant token-bucket admission quota, in requests per second;
  /// 0 disables quotas. Requests naming a tenant consume one token;
  /// an empty bucket answers `shed` with a refill hint.
  unsigned TenantQuotaRps = 0;
  /// Token-bucket burst capacity per tenant; 0 = 2x TenantQuotaRps
  /// (minimum 1).
  unsigned TenantQuotaBurst = 0;
  /// Staleness shedding needs this many completed-request samples
  /// before it trusts the observed p99 service time; a cold daemon
  /// never sheds for staleness.
  unsigned ShedMinSamples = 16;
  /// When set, every check request flushes its pipeline trace to
  /// `<TraceDir>/<trace_id>.json` (Chrome trace-event format) after the
  /// response is sent. Strictly best-effort: an unwritable trace warns
  /// in the log and never fails the request. Note that with concurrent
  /// workers the span streams of overlapping requests interleave; the
  /// per-file rule profile and spans cover everything recorded since
  /// the previous flush.
  std::string TraceDir;
  /// When set, every check request exports a proof certificate claiming
  /// its freshly derived pipeline theorems to
  /// `<CertDir>/<trace_id>.acpc` (hol/Cert.h). The filename reuses the
  /// request's correlation id, which is already forced path-safe at
  /// admission (pathSafeTraceId) — a client id that could steer the
  /// path never reaches this composition. Best-effort like TraceDir: an
  /// unwritable certificate warns and never fails the request. Note
  /// that cache-replayed functions carry no live derivation and are
  /// skipped (CheckResponse `cert_skipped`); certify against a cold
  /// cache for full coverage.
  std::string CertDir;
};

/// The daemon. start() spawns the threads; beginDrain()/waitDrained()
/// (or stop(), which is both plus teardown) end the life cycle.
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and spawns acceptor + workers. False if the
  /// socket can't be bound.
  bool start();

  /// Stops admitting work: every subsequent check is refused with
  /// `draining`. Idempotent, callable from a signal-handling thread.
  void beginDrain();

  /// Blocks until the queue is empty and no request is in flight.
  void waitDrained();

  /// beginDrain() + waitDrained() + join all threads + remove the
  /// socket file. Called by the destructor if still running.
  void stop();

  bool draining() const { return Draining.load(); }
  const ServerOptions &options() const { return Opts; }
  ServiceMetrics &metrics() { return Metrics; }

  /// The TCP port actually bound (resolves an ephemeral ":0" listen
  /// address); 0 when no TCP listener is configured.
  uint16_t tcpPort() const { return TcpPort; }

  /// Live queue depth / in-flight gauges (for tests and stats).
  size_t queueDepth() const;
  size_t inFlight() const { return InFlight.load(); }

private:
  struct Conn;
  struct Request;

  void acceptLoop(support::Socket &L, bool RequireAuth);
  void connLoop(std::shared_ptr<Conn> C);
  void workerLoop();
  void watchdogLoop();

  /// Dispatches one decoded frame; false closes the connection (failed
  /// auth handshake).
  bool handleFrame(const std::shared_ptr<Conn> &C, const std::string &Raw);
  void handleCheck(const std::shared_ptr<Conn> &C, CheckRequest Req);
  support::Json statsJson();
  support::Json metricsJson();

  /// Runs the pipeline for one admitted request and sends the response.
  void runRequest(Request &R);

  /// The cache tier for \p RequestedDir (falling back to the server
  /// default): one long-lived ResultCache per resolved directory,
  /// created on first use; the "" key is the pure in-memory tier used
  /// when no disk cache is configured.
  core::ResultCache *cacheFor(const std::string &RequestedDir);

  /// Memory-tier entries across all caches (stats).
  size_t memCacheEntries();

  /// Entries served from cache directories after a memory miss, across
  /// all caches (stats) — how a restarted daemon proves it was refilled
  /// from disk, not recomputed.
  size_t diskHitsTotal();

  ServerOptions Opts;
  ServiceMetrics Metrics;

  support::Socket Listen;
  support::Socket ListenTcp;
  uint16_t TcpPort = 0;
  std::thread Acceptor;
  std::thread TcpAcceptor;
  std::thread Watchdog;
  std::vector<std::thread> SessionWorkers;

  std::mutex ConnsM;
  std::condition_variable ConnsCV; ///< signalled when a reader exits
  std::vector<std::shared_ptr<Conn>> Conns;

  mutable std::mutex QueueM;
  std::condition_variable QueueCV;  ///< workers wait for requests
  std::condition_variable DrainCV;  ///< waitDrained waits for empty+idle
  std::condition_variable WatchCV;  ///< watchdog tick / shutdown wake
  /// Two-class admission queue in one deque: interactive requests
  /// always precede bulk ones (insertion keeps the partition), so
  /// pop_front serves interactive first and FIFO within each class.
  std::deque<std::shared_ptr<Request>> Queue;
  /// Per-tenant token buckets (guarded by QueueM; refilled lazily at
  /// admission time).
  struct TenantBucket {
    double Tokens = 0;
    std::chrono::steady_clock::time_point Last;
  };
  std::map<std::string, TenantBucket> TenantBuckets;
  /// In-flight requests, registered by workers for the watchdog's
  /// deadline scan. Guarded by QueueM.
  std::vector<std::shared_ptr<Request>> Active;
  std::atomic<size_t> InFlight{0};

  std::mutex CachesM;
  std::map<std::string, std::unique_ptr<core::ResultCache>> Caches;

  /// Warm abstraction pool, shared by all concurrent sessions. Created
  /// lazily on the first parallel request.
  std::mutex PoolM;
  std::unique_ptr<support::ThreadPool> Pool;

  std::atomic<bool> Draining{false};
  std::atomic<bool> Stopping{false};
  bool Started = false;
};

} // namespace ac::service

#endif // AC_SERVICE_SERVER_H
