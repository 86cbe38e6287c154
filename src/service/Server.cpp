//===- Server.cpp ---------------------------------------------------------===//

#include "service/Server.h"

#include "service/CheckRunner.h"
#include "support/FaultInject.h"
#include "support/Log.h"
#include "support/RuleProfile.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sys/socket.h>
#include <unistd.h>

using namespace ac::service;
using namespace ac::core;
using ac::support::Json;
using ac::support::Socket;

namespace {

double secondsBetween(std::chrono::steady_clock::time_point A,
                      std::chrono::steady_clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

} // namespace

// Overload decision points, armed by the chaos drivers so each shed
// path is deterministically reachable: shed.stale forces the staleness
// verdict for an eligible request (bulk with a deadline), quota.reject
// forces the quota refusal for a request naming a tenant.
static const ac::support::FaultSite FaultShedStale("server.shed.stale");
static const ac::support::FaultSite
    FaultQuotaReject("server.quota.reject");

/// One client connection: the socket plus a write lock so the reader
/// thread (inline replies) and a session worker (check responses) never
/// interleave frames.
struct Server::Conn {
  Socket Sock;
  std::mutex WriteM;
  /// TCP connection on an authenticated listener that has not presented
  /// the token yet. Only the connection's reader thread touches it.
  bool NeedsAuth = false;

  explicit Conn(Socket S) : Sock(std::move(S)) {}

  bool send(const Json &J) {
    std::lock_guard<std::mutex> L(WriteM);
    return Sock.sendFrame(J.dump());
  }
};

/// One admitted check request, shared between the queue, the worker that
/// runs it, the watchdog that enforces its deadline, and the connection
/// thread that waits for completion.
struct Server::Request {
  std::shared_ptr<Conn> C;
  CheckRequest Req;
  std::chrono::steady_clock::time_point Admitted;
  /// Deadline, measured from admission; meaningful iff HasDeadline.
  std::chrono::steady_clock::time_point Deadline;
  bool HasDeadline = false;

  /// Exactly-once response arbitration between the worker and the
  /// watchdog: whoever flips this sends the (single) response frame.
  std::atomic<bool> Responded{false};
  /// Set by the watchdog at deadline; the worker's cooperative
  /// cancellation points (and its final send) observe it.
  std::atomic<bool> Cancelled{false};

  std::mutex M;
  std::condition_variable CV;
  bool Done = false;

  bool claimRespond() { return !Responded.exchange(true); }
  bool expired(std::chrono::steady_clock::time_point Now) const {
    return HasDeadline && Now >= Deadline;
  }

  void markDone() {
    std::lock_guard<std::mutex> L(M);
    Done = true;
    CV.notify_all();
  }
  void waitDone() {
    std::unique_lock<std::mutex> L(M);
    CV.wait(L, [&] { return Done; });
  }
};

Server::Server(ServerOptions O) : Opts(std::move(O)) {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
  if (Opts.QueueCapacity == 0)
    Opts.QueueCapacity = 1;
}

Server::~Server() { stop(); }

bool Server::start() {
  assert(!Started && "server started twice");
  if (!Opts.TraceDir.empty()) {
    // Best-effort, like all tracing: a trace dir that cannot be made
    // costs the traces (each flush warns), never the daemon.
    std::error_code EC;
    std::filesystem::create_directories(Opts.TraceDir, EC);
    if (EC)
      support::Log::warn("trace.dir_failed",
                         {{"path", Opts.TraceDir},
                          {"error", EC.message()}});
    // Collect from boot, so the first request's trace carries its
    // acd.request span like every later one. Rule fire counts ride
    // along in each trace's ruleProfile key; the profiler is cumulative
    // across requests (concurrent workers share it, like the span
    // buffers).
    support::RuleProfile::setEnabled(true);
    support::Trace::start();
  }
  if (!Opts.CertDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.CertDir, EC);
    if (EC)
      support::Log::warn("cert.dir_failed",
                         {{"path", Opts.CertDir},
                          {"error", EC.message()}});
  }
  if (Opts.SocketPath.empty() && Opts.ListenAddr.empty())
    return false; // nothing to listen on
  if (!Opts.SocketPath.empty()) {
    Listen = Socket::listenUnix(Opts.SocketPath);
    if (!Listen.valid())
      return false;
  }
  if (!Opts.ListenAddr.empty()) {
    std::string Host;
    uint16_t Port = 0;
    if (!support::parseHostPort(Opts.ListenAddr, Host, Port,
                                /*AllowPortZero=*/true))
      return false;
    ListenTcp = Socket::listenTcp(Host, Port);
    if (!ListenTcp.valid())
      return false;
    TcpPort = ListenTcp.boundPort();
  }
  Started = true;
  if (Listen.valid())
    Acceptor =
        std::thread([this] { acceptLoop(Listen, /*RequireAuth=*/false); });
  if (ListenTcp.valid())
    TcpAcceptor = std::thread(
        [this] { acceptLoop(ListenTcp, !Opts.AuthToken.empty()); });
  Watchdog = std::thread([this] { watchdogLoop(); });
  for (unsigned I = 0; I != Opts.Workers; ++I)
    SessionWorkers.emplace_back([this] { workerLoop(); });
  return true;
}

void Server::beginDrain() { Draining.store(true); }

void Server::waitDrained() {
  {
    std::unique_lock<std::mutex> L(QueueM);
    DrainCV.wait(L, [&] { return Queue.empty() && InFlight.load() == 0; });
  }
}

void Server::stop() {
  if (!Started)
    return;
  beginDrain();
  waitDrained();
  {
    std::lock_guard<std::mutex> L(QueueM);
    Stopping.store(true);
    QueueCV.notify_all();
    WatchCV.notify_all();
  }
  if (Acceptor.joinable())
    Acceptor.join();
  if (TcpAcceptor.joinable())
    TcpAcceptor.join();
  Watchdog.join();
  for (std::thread &W : SessionWorkers)
    W.join();
  SessionWorkers.clear();
  // Wake reader threads blocked in waitReadable and wait for each to
  // unregister itself; they hold shared ownership of their Conn, so the
  // sockets stay valid until the last reader is gone.
  {
    std::unique_lock<std::mutex> L(ConnsM);
    for (const std::shared_ptr<Conn> &C : Conns)
      ::shutdown(C->Sock.fd(), SHUT_RDWR);
    ConnsCV.wait(L, [&] { return Conns.empty(); });
  }
  Listen.close();
  ListenTcp.close();
  if (!Opts.SocketPath.empty())
    ::unlink(Opts.SocketPath.c_str());
  Started = false;
}

size_t Server::queueDepth() const {
  std::lock_guard<std::mutex> L(QueueM);
  return Queue.size();
}

//===----------------------------------------------------------------------===//
// Accepting and reading
//===----------------------------------------------------------------------===//

void Server::acceptLoop(Socket &L, bool RequireAuth) {
  while (!Stopping.load()) {
    if (!L.waitReadable(100))
      continue;
    Socket S = L.accept();
    if (!S.valid() || Stopping.load())
      continue;
    auto C = std::make_shared<Conn>(std::move(S));
    C->NeedsAuth = RequireAuth;
    {
      std::lock_guard<std::mutex> L(ConnsM);
      Conns.push_back(C);
    }
    // Reader threads are detached; stop() waits for Conns to empty, so
    // none can outlive the server.
    std::thread([this, C] { connLoop(C); }).detach();
  }
}

void Server::connLoop(std::shared_ptr<Conn> C) {
  while (!Stopping.load()) {
    if (!C->Sock.waitReadable(200)) {
      if (C->Sock.peerClosed())
        break;
      continue;
    }
    std::string Raw;
    if (!C->Sock.recvFrame(Raw))
      break; // EOF or framing error
    if (!handleFrame(C, Raw))
      break; // failed auth handshake — connection closed
  }
  std::lock_guard<std::mutex> L(ConnsM);
  for (size_t I = 0; I != Conns.size(); ++I)
    if (Conns[I] == C) {
      Conns.erase(Conns.begin() + I);
      break;
    }
  ConnsCV.notify_all();
}

bool Server::handleFrame(const std::shared_ptr<Conn> &C,
                         const std::string &Raw) {
  Json J;
  std::string Err;
  if (!Json::parse(Raw, J, Err)) {
    C->send(CheckResponse::error(ErrorCode::BadRequest,
                                 "malformed JSON: " + Err)
                .toJson());
    // A garbage first frame on an authenticated listener still drops
    // the connection — unauthenticated peers get exactly one frame.
    return !C->NeedsAuth;
  }
  if (J.has("v") && J.get("v").asInt() != ProtocolVersion) {
    C->send(CheckResponse::error(ErrorCode::BadRequest,
                                 "unsupported protocol version")
                .toJson());
    return !C->NeedsAuth;
  }
  const std::string &Op = J.get("op").asString();
  if (Op == "auth") {
    // Constant-time compare even when no token is configured, so an
    // open listener is timing-indistinguishable too.
    const std::string &Given = J.get("token").asString();
    bool Ok = constantTimeEqual(Given, Opts.AuthToken);
    if (!Ok) {
      Metrics.AuthFailed.fetch_add(1);
      support::Log::warn("auth.failed",
                         {{"reason", Given.empty() ? "missing token"
                                                   : "wrong token"}});
      C->send(CheckResponse::error(ErrorCode::AuthFailed,
                                   "auth token mismatch")
                  .toJson());
      return false; // close the connection
    }
    C->NeedsAuth = false;
    Json R = Json::object();
    R.set("ok", true);
    R.set("op", "auth");
    C->send(R);
    return true;
  }
  if (C->NeedsAuth) {
    Metrics.AuthFailed.fetch_add(1);
    support::Log::warn("auth.failed", {{"reason", "no auth handshake"},
                                       {"op", Op}});
    C->send(CheckResponse::error(ErrorCode::AuthFailed,
                                 "auth required before `" + Op + "`")
                .toJson());
    return false; // close the connection
  }
  if (Op == "ping") {
    Json R = Json::object();
    R.set("ok", true);
    R.set("op", "pong");
    C->send(R);
  } else if (Op == "stats") {
    C->send(statsJson());
  } else if (Op == "metrics") {
    C->send(metricsJson());
  } else if (Op == "drain") {
    beginDrain();
    Json R = Json::object();
    R.set("ok", true);
    R.set("draining", true);
    C->send(R);
  } else if (Op == "check") {
    CheckRequest Req;
    if (!CheckRequest::fromJson(J, Req, Err)) {
      C->send(CheckResponse::error(ErrorCode::BadRequest, Err).toJson());
      return true;
    }
    handleCheck(C, std::move(Req));
  } else {
    C->send(CheckResponse::error(ErrorCode::BadRequest,
                                 "unknown op `" + Op + "`")
                .toJson());
  }
  return true;
}

void Server::handleCheck(const std::shared_ptr<Conn> &C, CheckRequest Req) {
  auto R = std::make_shared<Request>();
  R->C = C;
  R->Req = std::move(Req);
  // A trace id names the per-request trace file under --trace-dir, so a
  // client-supplied id is only accepted when it cannot steer the path
  // (pathSafeTraceId); anything else is discarded and the daemon names
  // the request itself.
  if (!pathSafeTraceId(R->Req.TraceId)) {
    std::string Minted = mintTraceId("req");
    if (!R->Req.TraceId.empty())
      support::Log::warn("request.trace_id_replaced",
                         {{"trace_id", Minted},
                          {"reason", "client id not path-safe"}});
    R->Req.TraceId = std::move(Minted);
  }
  R->Admitted = std::chrono::steady_clock::now();
  if (R->Req.TimeoutMs) {
    R->HasDeadline = true;
    R->Deadline =
        R->Admitted + std::chrono::milliseconds(R->Req.TimeoutMs);
  }
  auto reject = [&](ErrorCode E, const char *Msg, unsigned RetryMs) {
    Metrics.Rejected.fetch_add(1);
    support::Log::warn("request.rejected",
                       {{"trace_id", R->Req.TraceId},
                        {"error", errorCodeName(E)}});
    CheckResponse Resp = CheckResponse::error(E, Msg, RetryMs);
    Resp.TraceId = R->Req.TraceId;
    C->send(Resp.toJson());
  };
  // A shed answer refuses the request before it enters the queue, like
  // reject, but with its own typed code and counters so overload
  // behaviour is observable separately from capacity backpressure.
  auto shed = [&](const char *Reason, const std::string &Msg,
                  unsigned RetryMs) {
    Metrics.Shed.fetch_add(1);
    Metrics.noteTenantShed(R->Req.Tenant);
    support::Log::warn("request.shed",
                       {{"trace_id", R->Req.TraceId},
                        {"tenant", R->Req.Tenant},
                        {"priority", priorityName(R->Req.Prio)},
                        {"reason", Reason}});
    CheckResponse Resp = CheckResponse::error(ErrorCode::Shed, Msg, RetryMs);
    Resp.TraceId = R->Req.TraceId;
    C->send(Resp.toJson());
  };
  {
    std::lock_guard<std::mutex> L(QueueM);
    if (Draining.load()) {
      reject(ErrorCode::Draining, "daemon is draining", 0);
      return;
    }
    // Per-tenant token bucket. A new tenant starts with a full bucket;
    // refill is lazy, at admission time, off the admission clock.
    if (!R->Req.Tenant.empty()) {
      bool Forced = FaultQuotaReject.fire();
      if (Opts.TenantQuotaRps || Forced) {
        double Rate = Opts.TenantQuotaRps ? Opts.TenantQuotaRps : 1.0;
        double Burst = Opts.TenantQuotaBurst
                           ? Opts.TenantQuotaBurst
                           : std::max(1.0, 2.0 * Rate);
        TenantBucket &B = TenantBuckets[R->Req.Tenant];
        if (B.Last.time_since_epoch().count() == 0)
          B.Tokens = Burst;
        else
          B.Tokens = std::min(
              Burst, B.Tokens + secondsBetween(B.Last, R->Admitted) * Rate);
        B.Last = R->Admitted;
        if (Forced || B.Tokens < 1.0) {
          Metrics.QuotaRejected.fetch_add(1);
          unsigned RetryMs = static_cast<unsigned>(
              std::max(1.0, (1.0 - std::min(B.Tokens, 1.0)) / Rate * 1e3));
          shed("tenant quota",
               "tenant `" + R->Req.Tenant + "` over admission quota",
               RetryMs);
          return;
        }
        B.Tokens -= 1.0;
      }
    }
    // Staleness shedding: a bulk request whose whole deadline budget is
    // below the observed p99 service time would only time out in queue;
    // answer `shed` now so the client can replan instead of waiting.
    // Interactive work is never shed, and a cold daemon (too few
    // samples) never sheds either.
    if (R->Req.Prio == Priority::Bulk && R->HasDeadline) {
      bool Forced = FaultShedStale.fire();
      double P99Ms = Metrics.TotalH.quantile(0.99) * 1e3;
      bool Stale =
          Metrics.TotalH.count() >= Opts.ShedMinSamples &&
          static_cast<double>(R->Req.TimeoutMs) < P99Ms;
      if (Forced || Stale) {
        shed("stale bulk",
             "deadline budget below observed p99 service time", 0);
        return;
      }
    }
    // Bulk admission stops at 3/4 of the queue: the reserved headroom
    // keeps a bulk flood from ever filling the slots an interactive
    // burst needs.
    size_t Cap = Opts.QueueCapacity;
    if (R->Req.Prio == Priority::Bulk)
      Cap = std::max<size_t>(1, Cap - Cap / 4);
    if (Queue.size() >= Cap) {
      reject(ErrorCode::Busy, "admission queue full", Opts.RetryAfterMs);
      return;
    }
    Metrics.Received.fetch_add(1);
    Metrics.noteTenantAdmitted(R->Req.Tenant);
    // Logged before the queue push: once a worker can claim the
    // request, its lifecycle lines may land at any moment, and the log
    // must read received -> completed/failed for every trace id.
    support::Log::info(
        "request.received",
        {{"trace_id", R->Req.TraceId},
         {"source_bytes", static_cast<uint64_t>(R->Req.Source.size())},
         {"priority", priorityName(R->Req.Prio)},
         {"timeout_ms", R->Req.TimeoutMs}});
    // Two-class queue in one deque: interactive requests insert before
    // the first bulk one (FIFO within each class), so pop_front always
    // serves interactive first.
    if (R->Req.Prio == Priority::Interactive) {
      auto It = std::find_if(Queue.begin(), Queue.end(),
                             [](const std::shared_ptr<Request> &Q) {
                               return Q->Req.Prio == Priority::Bulk;
                             });
      Queue.insert(It, R);
    } else {
      Queue.push_back(R);
    }
    QueueCV.notify_one();
  }
  // One outstanding check per connection: block this reader until the
  // worker has sent (or abandoned) the response, so frames never race.
  R->waitDone();
}

//===----------------------------------------------------------------------===//
// Session workers
//===----------------------------------------------------------------------===//

void Server::workerLoop() {
  for (;;) {
    std::shared_ptr<Request> R;
    {
      std::unique_lock<std::mutex> L(QueueM);
      QueueCV.wait(L, [&] { return Stopping.load() || !Queue.empty(); });
      if (Queue.empty())
        return; // stopping, nothing left
      R = Queue.front();
      Queue.pop_front();
      Metrics.noteInFlight(InFlight.fetch_add(1) + 1);
      Active.push_back(R);
    }
    runRequest(*R);
    R->markDone();
    {
      std::lock_guard<std::mutex> L(QueueM);
      for (size_t I = 0; I != Active.size(); ++I)
        if (Active[I] == R) {
          Active.erase(Active.begin() + I);
          break;
        }
      InFlight.fetch_sub(1);
      DrainCV.notify_all();
    }
  }
}

//===----------------------------------------------------------------------===//
// Deadline watchdog
//===----------------------------------------------------------------------===//

void Server::watchdogLoop() {
  for (;;) {
    std::vector<std::shared_ptr<Request>> Expired;
    {
      std::unique_lock<std::mutex> L(QueueM);
      // A 10 ms tick bounds deadline slack; stop() wakes us early. A
      // dedicated CV so we never steal a worker's QueueCV notify_one.
      WatchCV.wait_for(L, std::chrono::milliseconds(10));
      if (Stopping.load())
        return;
      auto Now = std::chrono::steady_clock::now();
      // Still-queued requests past deadline: free the slot right away —
      // timed-out work must not occupy admission capacity.
      for (size_t I = 0; I < Queue.size();) {
        if (Queue[I]->expired(Now)) {
          Expired.push_back(Queue[I]);
          Queue.erase(Queue.begin() + I);
        } else {
          ++I;
        }
      }
      // In-flight requests are answered at the deadline too; the worker
      // keeps running (AutoCorres::run is not preemptible) but its
      // result is discarded and the client unblocked now.
      for (const std::shared_ptr<Request> &R : Active)
        if (R->expired(Now) && !R->Responded.load())
          Expired.push_back(R);
      if (!Expired.empty())
        DrainCV.notify_all();
    }
    // Send outside QueueM: a slow client socket must not stall admission.
    for (const std::shared_ptr<Request> &R : Expired) {
      R->Cancelled.store(true);
      if (!R->claimRespond())
        continue; // the worker beat us to the send
      Metrics.DeadlineExceeded.fetch_add(1);
      support::Log::warn("request.deadline_exceeded",
                         {{"trace_id", R->Req.TraceId},
                          {"timeout_ms", R->Req.TimeoutMs}});
      CheckResponse Resp = CheckResponse::error(
          ErrorCode::DeadlineExceeded,
          "deadline of " + std::to_string(R->Req.TimeoutMs) +
              " ms exceeded");
      Resp.TraceId = R->Req.TraceId;
      // Keep the received = completed + failed + cancelled partition
      // exact: a delivered deadline answer is a failed request, an
      // undeliverable one means the client already hung up.
      if (R->C->send(Resp.toJson()))
        Metrics.Failed.fetch_add(1);
      else
        Metrics.Cancelled.fetch_add(1);
      double TotalS =
          secondsBetween(R->Admitted, std::chrono::steady_clock::now());
      Metrics.TotalH.record(TotalS);
      Metrics.noteExemplar(R->Req.TraceId, TotalS, /*WaitS=*/0);
      R->markDone();
    }
  }
}

void Server::runRequest(Request &R) {
  // The client may have hung up while the request sat in the queue;
  // don't burn a session on a response nobody will read. (Claim the
  // response so the watchdog doesn't answer a dead connection either.)
  if (R.C->Sock.peerClosed()) {
    if (R.claimRespond()) {
      Metrics.Cancelled.fetch_add(1);
      support::Log::info("request.cancelled",
                         {{"trace_id", R.Req.TraceId},
                          {"reason", "client hung up while queued"}});
    }
    return;
  }
  // Already past deadline at dequeue (e.g. it expired between two
  // watchdog ticks while queued): answer without running.
  if (R.expired(std::chrono::steady_clock::now())) {
    if (R.claimRespond()) {
      Metrics.DeadlineExceeded.fetch_add(1);
      support::Log::warn("request.deadline_exceeded",
                         {{"trace_id", R.Req.TraceId},
                          {"timeout_ms", R.Req.TimeoutMs}});
      CheckResponse Resp = CheckResponse::error(
          ErrorCode::DeadlineExceeded,
          "deadline of " + std::to_string(R.Req.TimeoutMs) +
              " ms exceeded");
      Resp.TraceId = R.Req.TraceId;
      if (R.C->send(Resp.toJson()))
        Metrics.Failed.fetch_add(1);
      else
        Metrics.Cancelled.fetch_add(1);
    }
    return;
  }
  double WaitS = secondsBetween(R.Admitted, std::chrono::steady_clock::now());
  Metrics.WaitH.record(WaitS);

  // Install the request's trace context for this worker thread: its
  // spans stamp the trace id, with acd.request as the root.
  support::TraceContextScope TScope(R.Req.TraceId);
  support::Span ReqSpan("acd.request");
  if (!R.Req.Tenant.empty())
    ReqSpan.arg("tenant", R.Req.Tenant);
  ReqSpan.arg("priority", priorityName(R.Req.Prio));
  // The queue wait ended on this thread just now; backdate its start so
  // the admission-to-dequeue gap is visible as a child of acd.request.
  if (support::Trace::enabled()) {
    uint64_t EndNs = support::Trace::nowNs();
    auto WaitNs = static_cast<uint64_t>(WaitS * 1e9);
    std::vector<std::pair<std::string, std::string>> Args;
    if (!R.Req.TraceId.empty())
      Args.emplace_back("trace_id", R.Req.TraceId);
    Args.emplace_back("span", std::to_string(support::Trace::nextSpanId()));
    if (uint64_t P = ReqSpan.id())
      Args.emplace_back("parent", std::to_string(P));
    support::Trace::record("acd.queue_wait",
                           EndNs > WaitNs ? EndNs - WaitNs : 0, EndNs,
                           std::move(Args));
  }

  // Chunked so the watchdog's cancellation lands mid-delay: this delay
  // is the tests' stand-in for a long pipeline phase, and it doubles as
  // the worker's cooperative cancellation point.
  for (unsigned Slept = 0;
       Slept < R.Req.DebugDelayMs && !R.Cancelled.load(); Slept += 5)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (R.Cancelled.load())
    return; // the watchdog answered at the deadline

  CheckContext Ctx;
  Ctx.Jobs = R.Req.Jobs ? R.Req.Jobs
                        : (Opts.Jobs ? Opts.Jobs
                                     : support::ThreadPool::defaultJobs());
  Ctx.SharedCache = cacheFor(R.Req.CacheDir);
  // Per-request certificate, named by the correlation id exactly like
  // per-request traces. The id was forced path-safe at admission, so
  // this composition cannot be steered out of CertDir.
  if (!Opts.CertDir.empty())
    Ctx.CertPath = Opts.CertDir + "/" + R.Req.TraceId + ".acpc";
  if (Ctx.Jobs > 1) {
    std::lock_guard<std::mutex> L(PoolM);
    if (!Pool)
      Pool = std::make_unique<support::ThreadPool>(Ctx.Jobs);
    Ctx.SharedPool = Pool.get();
  }

  // Per-request tracing: spans recorded during this run (and, with
  // concurrent workers, any overlapping run) flush to one file named by
  // the request's correlation id.
  bool Tracing = !Opts.TraceDir.empty();

  CheckResponse Resp = runCheck(R.Req, Ctx);

  // Exactly-once: if the deadline fired while we ran, the watchdog has
  // already answered `deadline_exceeded` — discard this result.
  if (!R.claimRespond()) {
    if (Tracing)
      support::Trace::reset();
    return;
  }

  if (Resp.Ok) {
    Metrics.ParseH.record(Resp.ParseSeconds);
    Metrics.AbstractH.record(Resp.AbstractWallSeconds);
    Metrics.ParseCpuMicros.fetch_add(
        static_cast<uint64_t>(Resp.ParseCpuSeconds * 1e6));
    Metrics.AbstractCpuMicros.fetch_add(
        static_cast<uint64_t>(Resp.AbstractCpuSeconds * 1e6));
    Metrics.CacheHits.fetch_add(Resp.CacheHits);
    Metrics.CacheMisses.fetch_add(Resp.CacheMisses);
    Metrics.CacheInvalidations.fetch_add(Resp.CacheInvalidations);
  }
  bool Delivered = R.C->send(Resp.toJson());
  double TotalS = secondsBetween(R.Admitted, std::chrono::steady_clock::now());
  if (!Delivered) {
    Metrics.Cancelled.fetch_add(1);
    support::Log::info("request.cancelled",
                       {{"trace_id", R.Req.TraceId},
                        {"reason", "response undeliverable"}});
  } else if (Resp.Ok) {
    Metrics.Completed.fetch_add(1);
    support::Log::info("request.completed",
                       {{"trace_id", R.Req.TraceId},
                        {"functions", Resp.NumFunctions},
                        {"cache_hits", Resp.CacheHits},
                        {"total_ms", TotalS * 1e3}});
  } else {
    Metrics.Failed.fetch_add(1);
    support::Log::error("request.failed",
                        {{"trace_id", R.Req.TraceId},
                         {"error", errorCodeName(Resp.Err)},
                         {"message", Resp.Message}});
  }
  Metrics.TotalH.record(TotalS);
  Metrics.noteExemplar(R.Req.TraceId, TotalS, WaitS);
  // Land the request span before a per-request flush drains the buffers.
  ReqSpan.end();

  if (Tracing) {
    std::string Path = Opts.TraceDir + "/" + R.Req.TraceId + ".json";
    if (!support::Trace::flushReset(Path))
      support::Log::warn("trace.write_failed",
                         {{"trace_id", R.Req.TraceId}, {"path", Path}});
  }
}

//===----------------------------------------------------------------------===//
// Stats and cache tiers
//===----------------------------------------------------------------------===//

ac::support::Json Server::statsJson() {
  Json J =
      Metrics.toJson(queueDepth(), Opts.QueueCapacity, InFlight.load(),
                     Opts.Workers, memCacheEntries(), Draining.load());
  // Top-level rather than under "cache": the counter lives on the
  // ResultCache instances, not in ServiceMetrics' snapshot.
  J.set("disk_hits", static_cast<uint64_t>(diskHitsTotal()));
  return J;
}

ac::support::Json Server::metricsJson() {
  ServiceMetrics::Snapshot S =
      Metrics.snapshot(queueDepth(), Opts.QueueCapacity, InFlight.load(),
                       Opts.Workers, memCacheEntries(), Draining.load());
  Json R = Json::object();
  R.set("ok", true);
  R.set("content_type", "text/plain; version=0.0.4");
  R.set("body", S.toPrometheus());
  return R;
}

ResultCache *Server::cacheFor(const std::string &RequestedDir) {
  std::string Dir = ResultCache::resolveDir(
      RequestedDir.empty() ? Opts.CacheDir : RequestedDir);
  std::lock_guard<std::mutex> L(CachesM);
  std::unique_ptr<ResultCache> &Slot = Caches[Dir];
  if (!Slot)
    Slot = std::make_unique<ResultCache>(Dir);
  return Slot.get();
}

size_t Server::memCacheEntries() {
  std::lock_guard<std::mutex> L(CachesM);
  size_t N = 0;
  for (const auto &[Dir, Cache] : Caches)
    N += Cache->size();
  return N;
}

size_t Server::diskHitsTotal() {
  std::lock_guard<std::mutex> L(CachesM);
  size_t N = 0;
  for (const auto &[Dir, Cache] : Caches)
    N += Cache->diskHits();
  return N;
}
