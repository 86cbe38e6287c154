//===- FleetSoakTest.cpp - Seeded fleet soak under churn ------------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet in miniature — one authenticated TCP acd writing through to
/// an accached remote tier — soaked with mixed bulk/interactive,
/// multi-tenant load while a seeded chaos schedule takes the cache
/// daemon through outages. Requests spread over several cache
/// directories, each its own memory + disk tier in front of the shared
/// store, so first touches keep consulting the remote tier while it
/// comes and goes. The whole schedule derives from one seed
/// (AC_SOAK_SEED, default pinned), so a failing run replays exactly.
///
/// The invariants are the fleet's overload contract:
///   - every request gets exactly one *typed* answer: success or a
///     protocol error code, never a transport error or a hang;
///   - every completed answer is byte-identical to the in-process
///     golden for its source — an outage may cost a recompute, never
///     bytes;
///   - no tenant starves: each tenant completes work despite quotas
///     and shedding;
///   - the daemon's stats surface stays coherent through the churn, and
///     its remote tier serves hits again once the store is back.
///
/// Whole-process SIGKILL soak — real processes, real signals — is
/// scripts/tier1.sh pass 11; this in-process twin runs under ASan in
/// every ctest invocation (label: fleet).
///
//===----------------------------------------------------------------------===//

#include "cache/RemoteCache.h"
#include "service/CheckRunner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ac;
using service::CheckRequest;
using service::CheckResponse;
using service::ErrorCode;
using service::Priority;

namespace {

std::string freshDir(const std::string &Tag) {
  std::string D = ::testing::TempDir() + "ac-fleetsoak-" +
                  std::to_string(::getpid()) + "/" + Tag;
  std::error_code EC;
  std::filesystem::remove_all(D, EC);
  std::filesystem::create_directories(D);
  return D;
}

/// The soak corpus: small, distinct sources so cache keys differ.
const std::array<const char *, 3> SoakSources = {
    "unsigned int soak_a(unsigned int x) { return x + 1u; }\n",
    "unsigned int soak_b(unsigned int x, unsigned int y) {\n"
    "  if (x < y) { return x; }\n"
    "  return y;\n"
    "}\n",
    "void soak_c(unsigned int *p) { *p = *p + 2u; }\n",
};

std::string respSnapshot(const CheckResponse &Resp) {
  std::string S;
  for (const service::FuncResult &F : Resp.Functions)
    S += F.Name + "\n" + F.FinalKey + "\n" + F.Render + "\n" + F.Pipeline +
         "\n";
  for (const std::string &D : Resp.Diagnostics)
    S += D + "\n";
  return S;
}

TEST(FleetSoak, SeededChurnYieldsTypedAnswersAndExactBytes) {
  unsigned Seed = 20260808;
  if (const char *S = std::getenv("AC_SOAK_SEED"))
    Seed = static_cast<unsigned>(std::strtoul(S, nullptr, 10));
  std::mt19937 Rng(Seed);
  SCOPED_TRACE("AC_SOAK_SEED=" + std::to_string(Seed));

  std::string Dir = freshDir("soak");

  // Goldens first: the byte oracle every completed answer is held to.
  std::array<std::string, SoakSources.size()> Golden;
  for (size_t I = 0; I != SoakSources.size(); ++I) {
    CheckRequest Req;
    Req.Source = SoakSources[I];
    CheckResponse Ref = service::runLocalCheck(Req);
    ASSERT_TRUE(Ref.Ok) << Ref.Message;
    Golden[I] = respSnapshot(Ref);
  }

  // The shared remote tier (restarted mid-soak by the chaos schedule),
  // then the one daemon over it. Its quota is high enough that no
  // tenant starves.
  cache::RemoteCacheServerOptions CO;
  CO.SocketPath = Dir + "/cached.sock";
  std::unique_ptr<cache::RemoteCacheServer> Cached(
      new cache::RemoteCacheServer(CO));
  ASSERT_TRUE(Cached->start());
  cache::RemoteCacheClient Remote(CO.SocketPath);
  const std::string Token = "soak-secret";
  service::ServerOptions SO;
  SO.SocketPath = "";
  SO.ListenAddr = "127.0.0.1:0";
  SO.AuthToken = Token;
  SO.Workers = 2;
  SO.QueueCapacity = 8;
  SO.TenantQuotaRps = 200;
  SO.CacheDir = Dir + "/tier-default";
  SO.Remote = &Remote;
  service::Server Srv(SO);
  ASSERT_TRUE(Srv.start());
  const std::string Addr = "127.0.0.1:" + std::to_string(Srv.tcpPort());

  // Mixed load: 4 clients, 3:1 bulk:interactive, three tenants, three
  // cache directories. Issue counts and the per-request mix all derive
  // from the seed.
  constexpr int ClientThreads = 4;
  constexpr int RequestsPerThread = 30;
  const std::array<const char *, 3> Tenants = {"t0", "t1", "t2"};
  constexpr unsigned CacheTiers = 3;

  std::atomic<uint64_t> Completed{0}, Refused{0}, Untyped{0}, Wrong{0};
  std::mutex TenantsM;
  std::map<std::string, uint64_t> TenantCompleted;

  // Per-thread RNGs forked off the master seed keep the schedule
  // deterministic regardless of thread interleaving.
  std::vector<std::thread> Clients;
  for (int T = 0; T != ClientThreads; ++T) {
    unsigned ThreadSeed = Rng();
    Clients.emplace_back([&, T, ThreadSeed] {
      std::mt19937 MyRng(ThreadSeed);
      std::string Err;
      service::Client C = service::Client::connectTcp(Addr, Token, Err);
      for (int I = 0; I != RequestsPerThread; ++I) {
        size_t Src = MyRng() % SoakSources.size();
        CheckRequest Req;
        Req.Source = SoakSources[Src];
        Req.Prio = (MyRng() % 4 != 0) ? Priority::Bulk
                                      : Priority::Interactive;
        Req.Tenant = Tenants[MyRng() % Tenants.size()];
        Req.CacheDir = Dir + "/tier" + std::to_string(MyRng() % CacheTiers);
        if (Req.Prio == Priority::Bulk)
          Req.TimeoutMs = 30000; // ample: sheds come from quota/churn
        Req.TraceId = "soak-" + std::to_string(T) + "-" + std::to_string(I);

        // The daemon never goes away, so the contract under test is
        // strict: one connection per client carries every answer.
        CheckResponse Resp;
        if (!C.check(Req, Resp, Err)) {
          Untyped.fetch_add(1);
          continue;
        }
        if (Resp.Ok) {
          Completed.fetch_add(1);
          if (respSnapshot(Resp) != Golden[Src])
            Wrong.fetch_add(1);
          std::lock_guard<std::mutex> L(TenantsM);
          TenantCompleted[Req.Tenant]++;
        } else if (Resp.Err == ErrorCode::Busy ||
                   Resp.Err == ErrorCode::Shed ||
                   Resp.Err == ErrorCode::DeadlineExceeded) {
          Refused.fetch_add(1);
        } else {
          ADD_FAILURE() << "unexpected typed error "
                        << service::errorCodeName(Resp.Err) << ": "
                        << Resp.Message;
          Untyped.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(MyRng() % 8));
      }
    });
  }

  // The chaos schedule: four seeded accached outages, each a stop, a
  // gap, and a restart on the same socket with an empty store. Runs
  // concurrently with the load.
  std::thread Chaos([&] {
    std::mt19937 ChaosRng(Seed ^ 0x5eed);
    for (int Round = 0; Round != 4; ++Round) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(40 + ChaosRng() % 60));
      Cached->stop();
      Cached.reset();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(60 + ChaosRng() % 80));
      Cached.reset(new cache::RemoteCacheServer(CO));
      ASSERT_TRUE(Cached->start())
          << "accached could not rebind its socket in round " << Round;
    }
  });

  for (std::thread &C : Clients)
    C.join();
  Chaos.join();

  // The contract: all issued requests were answered, typed; completed
  // answers carried exact bytes; nobody starved.
  uint64_t Issued =
      static_cast<uint64_t>(ClientThreads) * RequestsPerThread;
  EXPECT_EQ(Completed.load() + Refused.load() + Untyped.load(), Issued);
  EXPECT_EQ(Untyped.load(), 0u)
      << "some requests got transport errors instead of typed answers";
  EXPECT_EQ(Wrong.load(), 0u) << "churn changed answer bytes";
  EXPECT_GE(Completed.load(), Issued / 2)
      << "churn refused most of the load; the daemon never stabilised";
  {
    std::lock_guard<std::mutex> L(TenantsM);
    for (const char *T : Tenants)
      EXPECT_GE(TenantCompleted[T], 1u) << "tenant " << T << " starved";
  }

  // The stats surface survived the churn coherently.
  std::string Err;
  service::Client C = service::Client::connectTcp(Addr, Token, Err);
  ASSERT_TRUE(C.connected()) << Err;
  support::Json Stats;
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  EXPECT_GE(Stats.get("requests").get("completed").asInt(), 1);
  for (const char *T : Tenants)
    EXPECT_GE(Stats.get("tenants").get(T).get("admitted").asInt(), 1)
        << "tenant " << T << " missing from the stats ledger";
  ASSERT_TRUE(Stats.get("remote_hits").isNumber());
  int64_t HitsBefore = Stats.get("remote_hits").asInt();

  // Recovery: with the store back, a source first computed under one
  // cache directory is a remote hit under a fresh one — the tier
  // re-dialed after the outages and serves the exact bytes.
  for (const char *Tier : {"/probe-a", "/probe-b"}) {
    CheckRequest Req;
    Req.Source = SoakSources[0];
    Req.CacheDir = Dir + Tier;
    CheckResponse Resp;
    ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
    ASSERT_TRUE(Resp.Ok) << Resp.Message;
    EXPECT_EQ(respSnapshot(Resp), Golden[0]);
  }
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  EXPECT_GT(Stats.get("remote_hits").asInt(), HitsBefore)
      << "the remote tier never recovered from the outages";

  Srv.stop();
  if (Cached)
    Cached->stop();
}

} // namespace
