//===- FleetSoakTest.cpp - Seeded daemon soak under churn -----------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One authenticated TCP acd over a cache directory, soaked with mixed
/// bulk/interactive, multi-tenant load while a seeded chaos schedule
/// stops and restarts the daemon on the same port and damages entry
/// files under it. Every restart starts from a cold memory tier, so
/// requests after it read the directory — including the damaged files.
/// The whole schedule derives from one seed (AC_SOAK_SEED, default
/// pinned), so a failing run replays exactly.
///
/// The invariants are the daemon's overload and cache contract:
///   - every request gets a *typed* answer — success or a protocol
///     error code — once the client has re-dialed a restarted daemon;
///     no request is lost;
///   - every completed answer is byte-identical to the in-process
///     golden for its source — a restart or a damaged entry may cost a
///     recompute, never bytes;
///   - no tenant starves: each tenant completes work despite quotas
///     and shedding;
///   - after a restart, the directory serves: probe requests are disk
///     hits, and damaged entries were counted, recomputed and healed.
///
/// Whole-process SIGKILL soak — real processes, real signals — is
/// scripts/tier1.sh pass 11; this in-process twin runs under ASan in
/// every ctest invocation (label: fleet).
///
//===----------------------------------------------------------------------===//

#include "service/CheckRunner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
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

/// Damages one entry file under \p CacheDir, chosen by \p Rng: a
/// truncation (a torn write) or one flipped byte. Returns false when
/// there is no entry file yet.
bool damageOneEntry(const std::string &CacheDir, std::mt19937 &Rng) {
  std::vector<std::filesystem::path> Files;
  std::error_code EC;
  for (auto It = std::filesystem::recursive_directory_iterator(CacheDir, EC);
       !EC && It != std::filesystem::recursive_directory_iterator();
       It.increment(EC))
    if (It->is_regular_file() &&
        It->path().filename().string().find('.') == std::string::npos)
      Files.push_back(It->path());
  if (Files.empty())
    return false;
  std::sort(Files.begin(), Files.end()); // seed-stable choice
  const std::filesystem::path &Victim = Files[Rng() % Files.size()];
  std::string Bytes;
  {
    std::ifstream In(Victim, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In), {});
  }
  if (Bytes.empty())
    return false;
  if (Rng() % 2)
    Bytes.resize(Bytes.size() / 2);
  else
    Bytes[Rng() % Bytes.size()] ^= 0x10;
  std::ofstream Out(Victim, std::ios::binary | std::ios::trunc);
  Out << Bytes;
  return true;
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

  // The one daemon, restarted by the chaos schedule on the port its
  // first incarnation bound. Its quota is high enough that no tenant
  // starves.
  const std::string Token = "soak-secret";
  service::ServerOptions SO;
  SO.SocketPath = "";
  SO.ListenAddr = "127.0.0.1:0";
  SO.AuthToken = Token;
  SO.Workers = 2;
  SO.QueueCapacity = 8;
  SO.TenantQuotaRps = 200;
  SO.CacheDir = Dir + "/cache";
  std::unique_ptr<service::Server> Srv(new service::Server(SO));
  ASSERT_TRUE(Srv->start());
  SO.ListenAddr = "127.0.0.1:" + std::to_string(Srv->tcpPort());
  const std::string Addr = SO.ListenAddr;
  auto restart = [&] {
    Srv->stop();
    Srv.reset(new service::Server(SO));
    return Srv->start();
  };

  // Mixed load: 4 clients, 3:1 bulk:interactive, three tenants. Issue
  // counts and the per-request mix all derive from the seed.
  constexpr int ClientThreads = 4;
  constexpr int RequestsPerThread = 30;
  const std::array<const char *, 3> Tenants = {"t0", "t1", "t2"};

  std::atomic<uint64_t> Completed{0}, Refused{0}, Lost{0}, Wrong{0};
  std::mutex TenantsM;
  std::map<std::string, uint64_t> TenantCompleted;
  std::atomic<bool> LoadDone{false};

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
        if (Req.Prio == Priority::Bulk)
          Req.TimeoutMs = 30000; // ample: sheds come from quota/churn
        Req.TraceId = "soak-" + std::to_string(T) + "-" + std::to_string(I);

        // A restart closes the connection (or answers `draining` while
        // it drains): re-dial and resend, a bounded number of times.
        CheckResponse Resp;
        bool Answered = false;
        for (int Try = 0; Try != 100 && !Answered; ++Try) {
          if (!C.connected())
            C = service::Client::connectTcp(Addr, Token, Err);
          if (C.connected() && C.check(Req, Resp, Err) &&
              Resp.Err != ErrorCode::Draining) {
            Answered = true;
            break;
          }
          C = service::Client();
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (!Answered) {
          Lost.fetch_add(1);
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
          Lost.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(MyRng() % 8));
      }
    });
  }

  // The chaos schedule: four seeded rounds, each damaging one entry
  // file, then stopping the daemon and restarting it on the same port
  // over the same directory. Runs concurrently with the load.
  std::atomic<int> Damaged{0};
  std::thread Chaos([&] {
    std::mt19937 ChaosRng(Seed ^ 0x5eed);
    for (int Round = 0; Round != 4 && !LoadDone.load(); ++Round) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(40 + ChaosRng() % 60));
      if (damageOneEntry(SO.CacheDir, ChaosRng))
        Damaged.fetch_add(1);
      ASSERT_TRUE(restart()) << "acd could not rebind its port in round "
                             << Round;
    }
  });

  for (std::thread &C : Clients)
    C.join();
  LoadDone.store(true);
  Chaos.join();

  // The contract: all issued requests were answered, typed; completed
  // answers carried exact bytes; nobody starved.
  uint64_t Issued =
      static_cast<uint64_t>(ClientThreads) * RequestsPerThread;
  EXPECT_EQ(Completed.load() + Refused.load() + Lost.load(), Issued);
  EXPECT_EQ(Lost.load(), 0u)
      << "some requests never got a typed answer across the restarts";
  EXPECT_EQ(Wrong.load(), 0u) << "churn changed answer bytes";
  EXPECT_GE(Completed.load(), Issued / 2)
      << "churn refused most of the load; the daemon never stabilised";
  {
    std::lock_guard<std::mutex> L(TenantsM);
    for (const char *T : Tenants)
      EXPECT_GE(TenantCompleted[T], 1u) << "tenant " << T << " starved";
  }

  // Recovery, in three restarts. The first probe round heals whatever
  // the load left damaged. Then one entry is damaged: after the second
  // restart its probe is a counted drop and the other two are disk
  // hits. After the third, every probe is a disk hit. Every answer is
  // exact throughout.
  std::mt19937 ProbeRng(Seed ^ 0xfeed);
  for (int Round = 0; Round != 3; ++Round) {
    if (Round == 1) {
      ASSERT_TRUE(damageOneEntry(SO.CacheDir, ProbeRng));
    }
    ASSERT_TRUE(restart());
    std::string Err;
    service::Client C = service::Client::connectTcp(Addr, Token, Err);
    ASSERT_TRUE(C.connected()) << Err;
    unsigned Hits = 0, Dropped = 0;
    for (size_t I = 0; I != SoakSources.size(); ++I) {
      CheckRequest Req;
      Req.Source = SoakSources[I];
      CheckResponse Resp;
      ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
      ASSERT_TRUE(Resp.Ok) << Resp.Message;
      EXPECT_EQ(respSnapshot(Resp), Golden[I]);
      EXPECT_EQ(Resp.CacheHits + Resp.CacheDroppedEntries, 1u)
          << "source " << I << " neither hit nor met a damaged entry";
      Hits += Resp.CacheHits;
      Dropped += Resp.CacheDroppedEntries;
    }
    support::Json Stats;
    ASSERT_TRUE(C.stats(Stats, Err)) << Err;
    EXPECT_EQ(Stats.get("disk_hits").asInt(), static_cast<int64_t>(Hits));
    if (Round == 1) {
      EXPECT_EQ(Dropped, 1u) << "the damaged entry went unnoticed";
      EXPECT_EQ(Hits, SoakSources.size() - 1);
    } else if (Round == 2) {
      EXPECT_EQ(Dropped, 0u) << "the damaged entry was not healed";
      EXPECT_EQ(Hits, SoakSources.size());
    }
  }
  Srv->stop();
}

} // namespace
