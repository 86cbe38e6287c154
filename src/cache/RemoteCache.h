//===- RemoteCache.h - Remote content-addressed cache tier ------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet's shared cache tier behind the `accached` daemon: a
/// content-addressed get/put store of serialized ResultCache entries,
/// spoken over the same length-prefixed JSON framing as the verification
/// service (docs/PROTOCOL.md "Remote cache"). One shard's cold miss
/// becomes every other shard's warm hit — the fleet analogue of the
/// interactive cache's "only re-verify what changed".
///
/// Three pieces:
///   - RemoteCacheStore: the in-process store (also driven directly by
///     tests and the bench, no sockets needed),
///   - RemoteCacheServer: the daemon loop (`tools/accached.cpp`),
///   - RemoteCacheClient: a core::RemoteTier implementation the shards
///     plug into their ResultCache (memory → disk → remote).
///
/// Entries travel and rest in the v2 on-disk record format with its
/// per-entry CRC-32 (core::serializeCachedFunc), so a torn store write
/// or a flipped bit in transit is caught by exactly the code path that
/// catches a torn disk cache — and is likewise just a miss.
///
//===----------------------------------------------------------------------===//

#ifndef AC_CACHE_REMOTECACHE_H
#define AC_CACHE_REMOTECACHE_H

#include "core/ResultCache.h"
#include "support/Json.h"
#include "support/Socket.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ac::cache {

/// The content-addressed blob store: key -> serialized entry. Fully
/// thread-safe; counters feed the `stats` op (and the fleet bench's
/// remote-hit-rate column).
class RemoteCacheStore {
public:
  /// The blob under \p Key. False on miss. Counts a get (and a hit).
  bool get(uint64_t Key, std::string &Blob);

  /// Stores \p Blob under \p Key after validating that it parses as a
  /// CRC-intact entry whose key matches — a corrupt or mislabeled blob
  /// is rejected, never served later. Counts a put only when stored.
  bool put(uint64_t Key, const std::string &Blob);

  uint64_t gets() const { return Gets.load(); }
  uint64_t hits() const { return Hits.load(); }
  uint64_t puts() const { return Puts.load(); }
  size_t size() const;

private:
  std::map<uint64_t, std::string> Entries;
  std::atomic<uint64_t> Gets{0}, Hits{0}, Puts{0};
  mutable std::mutex M;
};

/// accached daemon configuration.
struct RemoteCacheServerOptions {
  /// Unix listening socket ("" = none).
  std::string SocketPath;
  /// TCP listen address "host:port" ("" = none); port 0 = ephemeral.
  std::string ListenAddr;
  /// Shared auth token for TCP connections ("" = open).
  std::string AuthToken;
  /// Live fleet tracing: record get/put spans (role "cache") for the
  /// `trace_pull` op, chaining under the wire-carried trace context a
  /// shard's RemoteCacheClient sends with each round-trip.
  bool TraceLive = false;
};

/// The daemon: every op (get/put/ping/stats/drain) is answered inline by
/// the connection's reader thread — there is no work queue, the store is
/// the whole state.
class RemoteCacheServer {
public:
  explicit RemoteCacheServer(RemoteCacheServerOptions Opts);
  ~RemoteCacheServer();

  RemoteCacheServer(const RemoteCacheServer &) = delete;
  RemoteCacheServer &operator=(const RemoteCacheServer &) = delete;

  bool start();
  void stop();

  /// Blocks until a `drain` op arrives (or stop()). Lets the accached
  /// main thread park until asked to exit.
  void waitDrainRequested();

  bool draining() const { return Draining.load(); }
  uint16_t tcpPort() const { return TcpPort; }
  RemoteCacheStore &store() { return Store; }

private:
  struct Conn;

  void acceptLoop(support::Socket &L, bool RequireAuth);
  void connLoop(std::shared_ptr<Conn> C);
  /// False closes the connection (failed auth handshake).
  bool handleFrame(const std::shared_ptr<Conn> &C, const std::string &Raw);

  RemoteCacheServerOptions Opts;
  RemoteCacheStore Store;

  support::Socket Listen;
  support::Socket ListenTcp;
  uint16_t TcpPort = 0;
  std::thread Acceptor;
  std::thread TcpAcceptor;

  std::mutex ConnsM;
  std::condition_variable ConnsCV;
  std::vector<std::shared_ptr<Conn>> Conns;

  std::mutex DrainM;
  std::condition_variable DrainCV;
  std::atomic<bool> Draining{false};
  std::atomic<bool> Stopping{false};
  bool Started = false;
};

/// The shard-side tier: one connection to an accached daemon, lazily
/// dialed and re-dialed after any transport failure, every round-trip
/// serialized under a mutex (concurrent sessions share one tier). Every
/// failure shape — dial refused, torn reply, CRC mismatch — degrades to
/// a miss (get) or a drop (put); the fleet keeps verifying without its
/// cache tier, just colder.
class RemoteCacheClient : public core::RemoteTier {
public:
  /// \p Addr is "host:port" (TCP) or a filesystem path (Unix socket).
  /// \p Token authenticates TCP dials ("" = none).
  RemoteCacheClient(std::string Addr, std::string Token = "");

  bool get(uint64_t Key, core::CachedFunc &Out) override;
  void put(const core::CachedFunc &E) override;

  /// Liveness probe (dials if needed).
  bool ping();
  /// Fetches the daemon's `stats` payload.
  bool stats(support::Json &Out);

private:
  /// Dials (and authenticates) if not connected. Caller holds M.
  bool ensureConnected();
  /// One request/reply exchange; drops the connection on any failure so
  /// the next call re-dials. Caller holds M.
  bool roundTrip(const support::Json &Req, support::Json &Resp);

  std::string Addr, Token;
  support::Socket Sock;
  std::mutex M;
};

} // namespace ac::cache

#endif // AC_CACHE_REMOTECACHE_H
