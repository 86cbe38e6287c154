//===- Client.cpp ---------------------------------------------------------===//

#include "service/Client.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <random>
#include <thread>

using namespace ac::service;
using ac::support::Json;
using ac::support::Socket;

Client Client::connect(const std::string &SocketPath) {
  Client C;
  C.Sock = Socket::connectUnix(SocketPath);
  return C;
}

Client Client::connectTcp(const std::string &HostPort,
                          const std::string &Token, std::string &Err) {
  Client C;
  std::string Host;
  uint16_t Port = 0;
  if (!support::parseHostPort(HostPort, Host, Port)) {
    Err = "bad address `" + HostPort + "` (want host:port)";
    return C;
  }
  C.Sock = Socket::connectTcp(Host, Port);
  if (!C.Sock.valid()) {
    Err = "cannot connect to " + HostPort;
    return C;
  }
  if (Token.empty())
    return C;
  Json Req = Json::object();
  Req.set("v", ProtocolVersion);
  Req.set("op", "auth");
  Req.set("token", Token);
  Json Resp;
  if (!C.roundTrip(Req, Resp, Err)) {
    C.Sock.close();
    return C;
  }
  if (!Resp.get("ok").asBool()) {
    Err = "auth_failed: " + Resp.get("message").asString();
    C.Sock.close();
  }
  return C;
}

Client Client::dial(const Endpoint &At, const std::string &Token,
                    std::string &Err) {
  return At.Tcp ? connectTcp(At.Address, Token, Err) : connect(At.Address);
}

bool Client::roundTrip(const Json &Req, Json &Resp, std::string &Err) {
  if (!Sock.valid()) {
    Err = "not connected";
    return false;
  }
  if (!Sock.sendFrame(Req.dump())) {
    Err = "send failed (daemon gone?)";
    return false;
  }
  std::string Raw;
  if (!Sock.recvFrame(Raw)) {
    Err = "connection closed before a reply arrived";
    return false;
  }
  return Json::parse(Raw, Resp, Err);
}

bool Client::check(const CheckRequest &Req, CheckResponse &Out,
                   std::string &Err) {
  Json Resp;
  if (!roundTrip(Req.toJson(), Resp, Err))
    return false;
  return CheckResponse::fromJson(Resp, Out, Err);
}

uint64_t ac::service::retryBackoffMs(unsigned Attempt,
                                     unsigned RetryAfterMs) {
  uint64_t Base = RetryAfterMs ? RetryAfterMs : 10;
  return std::min<uint64_t>(Base << std::min(Attempt, 10u), 2000);
}

uint64_t ac::service::retryDelayMs(unsigned Attempt, unsigned RetryAfterMs,
                                   std::minstd_rand &Rng) {
  std::uniform_real_distribution<double> Jitter(0.75, 1.25);
  return static_cast<uint64_t>(
      static_cast<double>(retryBackoffMs(Attempt, RetryAfterMs)) *
      Jitter(Rng));
}

std::minstd_rand ac::service::retryRng() {
  if (const char *Seed = std::getenv("AC_RETRY_SEED")) {
    auto Tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
    return std::minstd_rand(
        static_cast<unsigned>(std::strtoul(Seed, nullptr, 10) ^ Tid));
  }
  return std::minstd_rand(std::random_device{}());
}

bool Client::checkRetry(const CheckRequest &Req, CheckResponse &Out,
                        std::string &Err, unsigned MaxAttempts,
                        unsigned MaxTotalMs) {
  // Jitter spreads resubmissions of clients that were all bounced off
  // the same full queue; without it they return in lockstep and collide
  // again (the daemon's retry_after_ms is identical for everyone).
  // AC_RETRY_SEED pins the stream so retry-bound tests are repeatable;
  // each thread still gets its own sequence position via the id mix.
  static thread_local std::minstd_rand RNG = retryRng();

  auto Start = std::chrono::steady_clock::now();
  auto elapsedMs = [&] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  };

  for (unsigned Attempt = 0;; ++Attempt) {
    if (!check(Req, Out, Err))
      return false;
    if (Out.Ok || Out.Err != ErrorCode::Busy ||
        Attempt + 1 >= MaxAttempts)
      return true;
    // Exponential backoff from the daemon's hint, capped per-sleep at
    // 2 s and in total at MaxTotalMs — a saturated daemon should fail
    // over (see CheckRunner::checkWithFallback), not stall forever.
    uint64_t Delay = retryDelayMs(Attempt, Out.RetryAfterMs, RNG);
    if (elapsedMs() + Delay >= MaxTotalMs)
      return true; // bounded: hand the last `busy` back to the caller
    std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
  }
}

bool Client::stats(Json &Out, std::string &Err) {
  Json Req = Json::object();
  Req.set("v", ProtocolVersion);
  Req.set("op", "stats");
  return roundTrip(Req, Out, Err) && Out.get("ok").asBool();
}

bool Client::metricsText(std::string &Out, std::string &Err) {
  Json Req = Json::object();
  Req.set("v", ProtocolVersion);
  Req.set("op", "metrics");
  Json Resp;
  if (!roundTrip(Req, Resp, Err))
    return false;
  if (!Resp.get("ok").asBool()) {
    Err = Resp.get("message").asString();
    return false;
  }
  Out = Resp.get("body").asString();
  return true;
}

bool Client::ping(std::string &Err) {
  Json Req = Json::object();
  Req.set("v", ProtocolVersion);
  Req.set("op", "ping");
  Json Resp;
  return roundTrip(Req, Resp, Err) && Resp.get("ok").asBool();
}

bool Client::drain(std::string &Err) {
  Json Req = Json::object();
  Req.set("v", ProtocolVersion);
  Req.set("op", "drain");
  Json Resp;
  return roundTrip(Req, Resp, Err) && Resp.get("ok").asBool();
}
