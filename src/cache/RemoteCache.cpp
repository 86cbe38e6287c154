//===- RemoteCache.cpp ----------------------------------------------------===//

#include "cache/RemoteCache.h"

#include "service/Protocol.h"
#include "support/FaultInject.h"
#include "support/Fingerprint.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>

#include <sys/socket.h>
#include <unistd.h>

using namespace ac;
using namespace ac::cache;
using support::FaultSite;
using support::Fingerprint;
using support::Json;
using support::Socket;

// Fault sites at every new network/IO edge of the tier. Client-side
// failures degrade to a miss/drop; the store-side torn write proves the
// CRC path rejects a damaged entry at get() instead of serving it.
static const FaultSite FaultDial("remote.dial.fail");
static const FaultSite FaultGet("remote.get.fail");
static const FaultSite FaultPut("remote.put.fail");
static const FaultSite FaultStoreTorn("remotecache.store.torn");

//===----------------------------------------------------------------------===//
// RemoteCacheStore
//===----------------------------------------------------------------------===//

bool RemoteCacheStore::get(uint64_t Key, std::string &Blob) {
  Gets.fetch_add(1);
  std::lock_guard<std::mutex> L(M);
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return false;
  Hits.fetch_add(1);
  Blob = It->second;
  return true;
}

bool RemoteCacheStore::put(uint64_t Key, const std::string &Blob) {
  std::string Stored = Blob;
  // remotecache.store.torn: the store accepts the put but persists a
  // truncated image — a torn write inside the tier. The CRC validation
  // below happens on the *offered* bytes (they are intact); the torn
  // bytes are what a later get() serves, and the client's parse must
  // reject them as a miss.
  if (FaultStoreTorn.fire())
    Stored.resize(Stored.size() / 2);
  core::CachedFunc E;
  if (!core::parseCachedFunc(Blob, E) || E.Key != Key) {
    support::Log::warn("remotecache.put_rejected",
                       {{"key", Fingerprint::hex(Key)},
                        {"reason", "corrupt or mislabeled entry"}});
    return false;
  }
  std::lock_guard<std::mutex> L(M);
  Entries[Key] = std::move(Stored);
  Puts.fetch_add(1);
  return true;
}

size_t RemoteCacheStore::size() const {
  std::lock_guard<std::mutex> L(M);
  return Entries.size();
}

//===----------------------------------------------------------------------===//
// RemoteCacheServer
//===----------------------------------------------------------------------===//

struct RemoteCacheServer::Conn {
  Socket Sock;
  bool NeedsAuth = false;

  explicit Conn(Socket S) : Sock(std::move(S)) {}

  bool send(const Json &J) { return Sock.sendFrame(J.dump()); }
};

RemoteCacheServer::RemoteCacheServer(RemoteCacheServerOptions O)
    : Opts(std::move(O)) {}

RemoteCacheServer::~RemoteCacheServer() { stop(); }

bool RemoteCacheServer::start() {
  if (Opts.SocketPath.empty() && Opts.ListenAddr.empty())
    return false;
  if (Opts.TraceLive) {
    support::Trace::setRole("cache");
    support::Trace::start();
  }
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
  return true;
}

void RemoteCacheServer::stop() {
  if (!Started)
    return;
  Stopping.store(true);
  {
    std::lock_guard<std::mutex> L(DrainM);
    DrainCV.notify_all();
  }
  if (Acceptor.joinable())
    Acceptor.join();
  if (TcpAcceptor.joinable())
    TcpAcceptor.join();
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

void RemoteCacheServer::waitDrainRequested() {
  std::unique_lock<std::mutex> L(DrainM);
  DrainCV.wait(L, [&] { return Draining.load() || Stopping.load(); });
}

void RemoteCacheServer::acceptLoop(Socket &L, bool RequireAuth) {
  while (!Stopping.load()) {
    if (!L.waitReadable(100))
      continue;
    Socket S = L.accept();
    if (!S.valid() || Stopping.load())
      continue;
    auto C = std::make_shared<Conn>(std::move(S));
    C->NeedsAuth = RequireAuth;
    {
      std::lock_guard<std::mutex> G(ConnsM);
      Conns.push_back(C);
    }
    std::thread([this, C] { connLoop(C); }).detach();
  }
}

void RemoteCacheServer::connLoop(std::shared_ptr<Conn> C) {
  while (!Stopping.load()) {
    if (!C->Sock.waitReadable(200)) {
      if (C->Sock.peerClosed())
        break;
      continue;
    }
    std::string Raw;
    if (!C->Sock.recvFrame(Raw))
      break;
    if (!handleFrame(C, Raw))
      break;
  }
  std::lock_guard<std::mutex> L(ConnsM);
  for (size_t I = 0; I != Conns.size(); ++I)
    if (Conns[I] == C) {
      Conns.erase(Conns.begin() + I);
      break;
    }
  ConnsCV.notify_all();
}

static Json errorJson(const char *Code, const std::string &Msg) {
  Json R = Json::object();
  R.set("ok", false);
  R.set("error", Code);
  R.set("message", Msg);
  return R;
}

bool RemoteCacheServer::handleFrame(const std::shared_ptr<Conn> &C,
                                    const std::string &Raw) {
  Json J;
  std::string Err;
  if (!Json::parse(Raw, J, Err)) {
    C->send(errorJson("bad_request", "malformed JSON: " + Err));
    return !C->NeedsAuth;
  }
  if (J.has("v") && J.get("v").asInt() != service::ProtocolVersion) {
    C->send(errorJson("bad_request", "unsupported protocol version"));
    return !C->NeedsAuth;
  }
  const std::string &Op = J.get("op").asString();
  if (Op == "auth") {
    if (!service::constantTimeEqual(J.get("token").asString(),
                                    Opts.AuthToken)) {
      support::Log::warn("auth.failed", {{"daemon", "accached"}});
      C->send(errorJson("auth_failed", "auth token mismatch"));
      return false;
    }
    C->NeedsAuth = false;
    Json R = Json::object();
    R.set("ok", true);
    R.set("op", "auth");
    C->send(R);
    return true;
  }
  if (C->NeedsAuth) {
    support::Log::warn("auth.failed", {{"daemon", "accached"},
                                       {"reason", "no auth handshake"}});
    C->send(errorJson("auth_failed", "auth required before `" + Op + "`"));
    return false;
  }
  // Requests forwarded from a traced shard carry the trace context; the
  // store's spans chain under the shard's remote.get/remote.put span.
  uint64_t WireParent = 0;
  if (J.get("parent_span").isString())
    WireParent =
        std::strtoull(J.get("parent_span").asString().c_str(), nullptr, 10);
  support::TraceContextScope TScope(J.get("trace_id").asString(),
                                    WireParent);
  if (Op == "get") {
    uint64_t Key = 0;
    if (!Fingerprint::parseHex(J.get("key").asString(), Key)) {
      C->send(errorJson("bad_request", "get lacks a 16-hex `key`"));
      return true;
    }
    support::Span S("accached.get");
    S.arg("key", Fingerprint::hex(Key));
    Json R = Json::object();
    R.set("ok", true);
    std::string Blob;
    if (Store.get(Key, Blob)) {
      S.arg("hit", "1");
      R.set("found", true);
      R.set("entry", std::move(Blob));
    } else {
      S.arg("hit", "0");
      R.set("found", false);
    }
    S.end();
    C->send(R);
  } else if (Op == "put") {
    uint64_t Key = 0;
    if (!Fingerprint::parseHex(J.get("key").asString(), Key) ||
        !J.get("entry").isString()) {
      C->send(errorJson("bad_request", "put wants `key` and `entry`"));
      return true;
    }
    support::Span S("accached.put");
    S.arg("key", Fingerprint::hex(Key));
    bool Stored = Store.put(Key, J.get("entry").asString());
    S.end();
    Json R = Json::object();
    R.set("ok", true);
    R.set("stored", Stored);
    C->send(R);
  } else if (Op == "ping") {
    Json R = Json::object();
    R.set("ok", true);
    R.set("op", "pong");
    C->send(R);
  } else if (Op == "stats") {
    Json R = Json::object();
    R.set("ok", true);
    R.set("entries", static_cast<uint64_t>(Store.size()));
    R.set("gets", Store.gets());
    R.set("hits", Store.hits());
    R.set("puts", Store.puts());
    R.set("draining", Draining.load());
    C->send(R);
  } else if (Op == "metrics") {
    // The store's Prometheus block, role-labelled so a collector that
    // scrapes several daemons can tell the cache tier's samples apart.
    std::string Body;
    auto Counter = [&](const char *Name, const char *Help,
                       const char *Type, uint64_t V) {
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "# HELP %s %s\n# TYPE %s %s\n%s{role=\"cache\"} %llu\n",
                    Name, Help, Name, Type, Name,
                    static_cast<unsigned long long>(V));
      Body += Buf;
    };
    Counter("accached_entries", "Entries resident in the store.", "gauge",
            Store.size());
    Counter("accached_gets_total", "Get requests served.", "counter",
            Store.gets());
    Counter("accached_hits_total", "Get requests that found an entry.",
            "counter", Store.hits());
    Counter("accached_puts_total", "Entries accepted by put.", "counter",
            Store.puts());
    Json R = Json::object();
    R.set("ok", true);
    R.set("content_type", "text/plain; version=0.0.4");
    R.set("body", Body);
    C->send(R);
  } else if (Op == "trace_pull") {
    Json R = Json::object();
    R.set("ok", true);
    R.set("op", "trace_pull");
    R.set("pid", static_cast<uint64_t>(getpid()));
    R.set("role", support::Trace::role());
    R.set("body", support::Trace::exportJson(/*Reset=*/true));
    C->send(R);
  } else if (Op == "drain") {
    {
      std::lock_guard<std::mutex> L(DrainM);
      Draining.store(true);
      DrainCV.notify_all();
    }
    Json R = Json::object();
    R.set("ok", true);
    R.set("draining", true);
    C->send(R);
  } else {
    C->send(errorJson("bad_request", "unknown op `" + Op + "`"));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// RemoteCacheClient
//===----------------------------------------------------------------------===//

RemoteCacheClient::RemoteCacheClient(std::string A, std::string T)
    : Addr(std::move(A)), Token(std::move(T)) {}

bool RemoteCacheClient::ensureConnected() {
  if (Sock.valid())
    return true;
  if (FaultDial.fire())
    return false; // tier unreachable: every get is a miss, puts drop
  std::string Host;
  uint16_t Port = 0;
  if (support::parseHostPort(Addr, Host, Port))
    Sock = Socket::connectTcp(Host, Port);
  else
    Sock = Socket::connectUnix(Addr);
  if (!Sock.valid())
    return false;
  if (Token.empty())
    return true;
  Json Req = Json::object();
  Req.set("v", service::ProtocolVersion);
  Req.set("op", "auth");
  Req.set("token", Token);
  Json Resp;
  if (!roundTrip(Req, Resp) || !Resp.get("ok").asBool()) {
    Sock.close();
    return false;
  }
  return true;
}

bool RemoteCacheClient::roundTrip(const Json &Req, Json &Resp) {
  if (!Sock.sendFrame(Req.dump())) {
    Sock.close();
    return false;
  }
  std::string Raw;
  if (!Sock.recvFrame(Raw)) {
    Sock.close();
    return false;
  }
  std::string Err;
  if (!Json::parse(Raw, Resp, Err)) {
    Sock.close();
    return false;
  }
  return true;
}

bool RemoteCacheClient::get(uint64_t Key, core::CachedFunc &Out) {
  std::lock_guard<std::mutex> L(M);
  if (!ensureConnected())
    return false;
  if (FaultGet.fire()) {
    // The connection died mid-exchange; next call re-dials.
    Sock.close();
    return false;
  }
  // The round-trip span; its id rides along as parent_span so the
  // store's accached.get chains under it in a merged fleet trace.
  support::Span S("remote.get");
  S.arg("key", Fingerprint::hex(Key));
  Json Req = Json::object();
  Req.set("v", service::ProtocolVersion);
  Req.set("op", "get");
  Req.set("key", Fingerprint::hex(Key));
  if (S.active()) {
    const support::Trace::Context &TC = support::Trace::context();
    if (!TC.TraceId.empty())
      Req.set("trace_id", TC.TraceId);
    Req.set("parent_span", std::to_string(S.id()));
  }
  Json Resp;
  if (!roundTrip(Req, Resp))
    return false;
  if (!Resp.get("ok").asBool() || !Resp.get("found").asBool())
    return false;
  // The CRC inside the blob guards the whole store+transit path: a torn
  // store write or flipped bit parses false and is simply a miss.
  if (!core::parseCachedFunc(Resp.get("entry").asString(), Out) ||
      Out.Key != Key) {
    support::Log::warn("remotecache.entry_rejected",
                       {{"key", Fingerprint::hex(Key)},
                        {"reason", "CRC/parse failure; treating as miss"}});
    return false;
  }
  return true;
}

void RemoteCacheClient::put(const core::CachedFunc &E) {
  std::lock_guard<std::mutex> L(M);
  if (!ensureConnected())
    return;
  if (FaultPut.fire()) {
    Sock.close();
    return;
  }
  support::Span S("remote.put");
  S.arg("key", Fingerprint::hex(E.Key));
  Json Req = Json::object();
  Req.set("v", service::ProtocolVersion);
  Req.set("op", "put");
  Req.set("key", Fingerprint::hex(E.Key));
  Req.set("entry", core::serializeCachedFunc(E));
  if (S.active()) {
    const support::Trace::Context &TC = support::Trace::context();
    if (!TC.TraceId.empty())
      Req.set("trace_id", TC.TraceId);
    Req.set("parent_span", std::to_string(S.id()));
  }
  Json Resp;
  (void)roundTrip(Req, Resp); // best-effort: a dropped put is recomputed
}

bool RemoteCacheClient::ping() {
  std::lock_guard<std::mutex> L(M);
  if (!ensureConnected())
    return false;
  Json Req = Json::object();
  Req.set("v", service::ProtocolVersion);
  Req.set("op", "ping");
  Json Resp;
  return roundTrip(Req, Resp) && Resp.get("ok").asBool();
}

bool RemoteCacheClient::stats(Json &Out) {
  std::lock_guard<std::mutex> L(M);
  if (!ensureConnected())
    return false;
  Json Req = Json::object();
  Req.set("v", service::ProtocolVersion);
  Req.set("op", "stats");
  return roundTrip(Req, Out) && Out.get("ok").asBool();
}

