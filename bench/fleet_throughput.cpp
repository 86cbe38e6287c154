//===- fleet_throughput.cpp - acd over a shared cache directory under load -===//
//
// Measures what the shared cache directory exists for: check throughput
// after a restart (deploy) wipes a daemon's memory tier. The workload is
// a stream of *distinct* translation units (a CI fleet checking many
// files), driven by dozens of concurrent clients over TCP, with every
// response byte-compared against a reference captured up front — zero
// correctness diffs is part of the pass criterion, not an afterthought.
//
// The headline comparison: a cold standalone daemon re-pays full
// verification for every request, while the same daemon restarted over
// the directory an earlier daemon wrote through to refills from its
// entry files. Both run the same worker count, so the requests/sec ratio
// between them — the speedup column — isolates the directory; the
// acceptance floor is 5x. Per pass we also report p50/p99 client
// latency, and for the directory pass the hit rate its responses
// reported.
//
// A second, overload-focused pass drives one deliberately small daemon
// (tiny queue) at 4x saturation with a 3:1 bulk:interactive mix,
// per-tenant quotas on. Pass criteria: interactive p99 within 2x of its
// unloaded value, at least 90% of sheds landing on bulk, zero starved
// tenants, and zero byte diffs among completed answers.
//
// Results are printed as a table and written to BENCH_fleet.json
// (linted by `aclint fleet`).
//
//===----------------------------------------------------------------------===//

#include "corpus/Synthetic.h"
#include "service/CheckRunner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Json.h"
#include "support/Log.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace ac;
using namespace ac::service;
using ac::support::Json;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(Q * (V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

/// The byte-identity snapshot: every spec, key, pipeline line and
/// diagnostic a response carries.
std::string snapshot(const CheckResponse &R) {
  std::string S;
  for (const FuncResult &F : R.Functions)
    S += "== " + F.Name + "\n" + F.FinalKey + "\n" + F.Render + "\n" +
         F.Pipeline + "\n";
  for (const std::string &D : R.Diagnostics)
    S += D + "\n";
  return S;
}

/// Dials a daemon's TCP listener (the benchmark's daemons run open).
Client dialTcp(const std::string &Addr) {
  std::string Err;
  return Client::connectTcp(Addr, "", Err);
}

/// One measured pass: C client threads drive the source pool against
/// the daemon at \p Addr, each source exactly once, byte-checking
/// against `Refs` (or capturing them).
struct PassResult {
  double Rps = 0, P50 = 0, P99 = 0;
  int Ok = 0, Diffs = 0, Requests = 0;
  /// Per-function cache hits and lookups summed over the responses.
  uint64_t Hits = 0, Lookups = 0;
  double hitRate() const {
    return Lookups ? static_cast<double>(Hits) / Lookups : 0.0;
  }
};

PassResult drivePool(const std::vector<std::string> &Pool,
                     const std::vector<std::string> &Refs, unsigned Clients,
                     const std::string &Addr,
                     std::vector<std::string> *CaptureRefs) {
  PassResult R;
  R.Requests = static_cast<int>(Pool.size());
  std::vector<std::thread> Ts;
  std::vector<std::vector<double>> Lat(Clients);
  std::atomic<int> Ok{0}, Diffs{0};
  std::atomic<uint64_t> Hits{0}, Lookups{0};
  auto T0 = Clock::now();
  for (unsigned CI = 0; CI != Clients; ++CI)
    Ts.emplace_back([&, CI] {
      Client C = dialTcp(Addr);
      for (size_t I = CI; I < Pool.size(); I += Clients) {
        CheckRequest Req;
        Req.Source = Pool[I];
        CheckResponse Resp;
        std::string Err;
        auto TR = Clock::now();
        bool Sent = C.checkRetry(Req, Resp, Err);
        Lat[CI].push_back(msSince(TR));
        if (!Sent || !Resp.Ok) {
          ++Diffs; // a lost request is a correctness diff, not a blip
          continue;
        }
        ++Ok;
        Hits += Resp.CacheHits;
        Lookups += Resp.CacheHits + Resp.CacheMisses;
        if (CaptureRefs)
          (*CaptureRefs)[I] = snapshot(Resp);
        else if (snapshot(Resp) != Refs[I])
          ++Diffs;
      }
    });
  for (std::thread &T : Ts)
    T.join();
  double Secs = msSince(T0) / 1e3;
  std::vector<double> AllMs;
  for (const std::vector<double> &L : Lat)
    AllMs.insert(AllMs.end(), L.begin(), L.end());
  R.Rps = Secs > 0 ? Ok.load() / Secs : 0;
  R.P50 = percentile(AllMs, 0.50);
  R.P99 = percentile(AllMs, 0.99);
  R.Ok = Ok.load();
  R.Diffs = Diffs.load();
  R.Hits = Hits.load();
  R.Lookups = Lookups.load();
  return R;
}

} // namespace

int main() {
  // Per-request logs from the in-process daemons would drown the table;
  // that includes the overload pass's `request.shed` warnings, which the
  // pass already counts in its own rows.
  support::Log::setLevel(support::LogLevel::Error);
  std::string Root =
      (std::filesystem::temp_directory_path() / "ac-fleet-bench").string();
  std::filesystem::remove_all(Root);
  std::filesystem::create_directories(Root);

  // The workload: a pool of distinct small translation units (the fleet
  // case is many files, not one file many times).
  constexpr unsigned PoolSize = 96, Clients = 32;
  std::vector<std::string> Pool;
  for (unsigned I = 0; I != PoolSize; ++I) {
    corpus::SyntheticSpec Spec;
    Spec.Name = "fleet" + std::to_string(I);
    Spec.TargetFunctions = 3;
    Spec.StatementsPerFunction = 14;
    Spec.Seed = I + 1;
    Pool.push_back(corpus::generateSyntheticProgram(Spec));
  }

  // Every measured pass runs one daemon the way `acd --socket none
  // --listen 127.0.0.1:0 --cache-dir D` does: TCP only, a cold memory
  // tier (as after a restart), and the same worker count, so the passes
  // differ only in whether directory D is warm.
  const std::string SharedDir = Root + "/shared";
  std::vector<std::string> Refs(PoolSize);
  auto runPass = [&](const std::string &Name, const std::string &CacheDir,
                     std::vector<std::string> *CaptureRefs,
                     PassResult &Out) {
    ServerOptions SO;
    SO.SocketPath = "";
    SO.ListenAddr = "127.0.0.1:0";
    SO.Workers = 2;
    SO.QueueCapacity = 32;
    SO.CacheDir = CacheDir;
    Server Srv(SO);
    if (!Srv.start()) {
      std::printf("cannot start the %s daemon\n", Name.c_str());
      return false;
    }
    Out = drivePool(Pool, Refs, Clients,
                    "127.0.0.1:" + std::to_string(Srv.tcpPort()),
                    CaptureRefs);
    Srv.stop();
    return true;
  };

  // Seed pass: a daemon over the shared directory computes the whole
  // pool cold, writing every entry through, and its responses become the
  // byte-identity reference for every later pass.
  PassResult Seed;
  if (!runPass("seed", SharedDir, &Refs, Seed))
    return 1;
  if (Seed.Ok != static_cast<int>(PoolSize)) {
    std::printf("seed pass failed: %d/%u ok\n", Seed.Ok, PoolSize);
    return 1;
  }
  // Spot-check the reference against the in-process pipeline: the
  // daemon-served bytes and a local run must agree before we benchmark.
  for (unsigned I = 0; I != PoolSize; I += PoolSize / 4) {
    CheckRequest Req;
    Req.Source = Pool[I];
    CheckResponse Local = runLocalCheck(Req);
    if (!Local.Ok || snapshot(Local) != Refs[I]) {
      std::printf("reference diverged from in-process run at source %u\n",
                  I);
      return 1;
    }
  }

  // Baseline: a cold standalone daemon over an empty directory
  // recomputes everything.
  PassResult Single;
  if (!runPass("single", Root + "/single", nullptr, Single))
    return 1;

  // The same daemon restarted over the directory the seed pass wrote
  // through: cold memory, warm entry files.
  PassResult Shared;
  if (!runPass("shared", SharedDir, nullptr, Shared))
    return 1;

  // Overload pass: the same warm pool against one deliberately small
  // daemon (2 workers, a 4-slot queue, per-tenant quotas on), first with
  // interactive load alone, then with 4x the client count by adding a
  // 3:1 bulk mix on top. The overload contract: the bulk flood is shed
  // (staleness + quota), not queued ahead of interactive work, so
  // interactive p99 stays within 2x of its unloaded value; at least 90%
  // of sheds land on bulk; every tenant still completes work; and
  // completed answers stay byte-identical to the reference.
  struct OverloadResult {
    double UnloadedP99 = 0, LoadedP99 = 0;
    uint64_t InteractiveOk = 0, BulkOk = 0;
    uint64_t ShedBulk = 0, ShedInteractive = 0, Busy = 0;
    int Diffs = 0, StarvedTenants = 0;
  } Ov;
  {
    ServerOptions SO;
    SO.SocketPath = "";
    SO.ListenAddr = "127.0.0.1:0";
    SO.Workers = 2;
    SO.QueueCapacity = 4;
    SO.RetryAfterMs = 2;
    // Quotas on, sized so the paced interactive tenants never hit
    // them: the sheds this pass measures come from bulk staleness.
    SO.TenantQuotaRps = 2000;
    SO.CacheDir = SharedDir;
    Server Srv(SO);
    if (!Srv.start()) {
      std::printf("cannot start the overload daemon\n");
      return 1;
    }
    const std::string Addr = "127.0.0.1:" + std::to_string(Srv.tcpPort());
    const std::array<const char *, 4> FgTenants = {"fg0", "fg1", "fg2",
                                                   "fg3"};
    const std::array<const char *, 4> BulkTenants = {"bulk0", "bulk1",
                                                     "bulk2", "bulk3"};
    std::mutex TenantsM;
    std::map<std::string, uint64_t> TenantOk;

    // One interactive client: paced (2 ms think time) so the
    // interactive load alone never saturates the daemon — the unloaded
    // p99 is a real latency floor, not another congestion measurement.
    auto interactiveClient = [&](unsigned Id, int Requests,
                                 std::vector<double> &Lat,
                                 std::atomic<uint64_t> &OkC,
                                 std::atomic<uint64_t> &ShedC,
                                 std::atomic<uint64_t> &BusyC,
                                 std::atomic<int> &DiffsC) {
      for (int I = 0; I != Requests; ++I) {
        size_t Src = (Id * 131 + static_cast<size_t>(I) * 17) % PoolSize;
        CheckRequest Req;
        Req.Source = Pool[Src];
        Req.Tenant = FgTenants[Id % FgTenants.size()];
        Client C = dialTcp(Addr);
        CheckResponse Resp;
        std::string Err;
        auto TR = Clock::now();
        bool Sent = C.check(Req, Resp, Err);
        double Ms = msSince(TR);
        if (!Sent) {
          ++DiffsC;
        } else if (Resp.Ok) {
          Lat.push_back(Ms);
          OkC.fetch_add(1);
          if (snapshot(Resp) != Refs[Src])
            ++DiffsC;
          std::lock_guard<std::mutex> L(TenantsM);
          TenantOk[Req.Tenant]++;
        } else if (Resp.Err == ErrorCode::Shed) {
          ShedC.fetch_add(1);
        } else if (Resp.Err == ErrorCode::Busy) {
          BusyC.fetch_add(1);
        } else {
          ++DiffsC; // interactive load must never see other errors here
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    };

    constexpr unsigned FgClients = 8;
    constexpr int FgRequests = 40;
    std::atomic<uint64_t> FgOk{0}, FgShed{0}, FgBusy{0};
    std::atomic<int> OvDiffs{0};

    // Phase 1: unloaded — interactive alone.
    {
      std::vector<std::vector<double>> Lat(FgClients);
      std::vector<std::thread> Ts;
      for (unsigned I = 0; I != FgClients; ++I)
        Ts.emplace_back([&, I] {
          interactiveClient(I, FgRequests, Lat[I], FgOk, FgShed, FgBusy,
                            OvDiffs);
        });
      for (std::thread &T : Ts)
        T.join();
      std::vector<double> All;
      for (const std::vector<double> &L : Lat)
        All.insert(All.end(), L.begin(), L.end());
      Ov.UnloadedP99 = percentile(All, 0.99);
    }

    // Teach the daemon that slow requests exist: a handful of held
    // requests (server-side debug delay) push the observed p99 service
    // time to tens of milliseconds, so a bulk deadline below it is
    // recognisably hopeless — the condition staleness shedding tests.
    {
      std::vector<std::thread> Ts;
      for (unsigned I = 0; I != 12; ++I)
        Ts.emplace_back([&, I] {
          corpus::SyntheticSpec Spec;
          Spec.Name = "ovslow" + std::to_string(I);
          Spec.TargetFunctions = 1;
          Spec.StatementsPerFunction = 4;
          Spec.Seed = 9000 + I;
          CheckRequest Req;
          Req.Source = corpus::generateSyntheticProgram(Spec);
          Req.DebugDelayMs = 30;
          Client C = dialTcp(Addr);
          CheckResponse Resp;
          std::string Err;
          C.checkRetry(Req, Resp, Err);
        });
      for (std::thread &T : Ts)
        T.join();
    }

    // Phase 2: 4x saturation — the same interactive load plus a 3:1
    // bulk flood. Half the bulk carries a 5 ms deadline (hopeless
    // against the ~30 ms observed p99: shed on sight), half an ample
    // one (queues into the bulk-capped slots, keeps bulk tenants fed).
    std::atomic<uint64_t> BulkOk{0}, BulkShed{0}, BulkBusy{0};
    double LoadedP99 = 0;
    {
      constexpr unsigned BulkClients = FgClients * 3; // 3:1 mix, 4x total
      constexpr int BulkRequests = 40;
      std::vector<std::vector<double>> Lat(FgClients);
      std::vector<std::thread> Ts;
      for (unsigned I = 0; I != FgClients; ++I)
        Ts.emplace_back([&, I] {
          interactiveClient(I, FgRequests, Lat[I], FgOk, FgShed, FgBusy,
                            OvDiffs);
        });
      for (unsigned B = 0; B != BulkClients; ++B)
        Ts.emplace_back([&, B] {
          for (int I = 0; I != BulkRequests; ++I) {
            size_t Src =
                (B * 37 + static_cast<size_t>(I) * 11) % PoolSize;
            CheckRequest Req;
            Req.Source = Pool[Src];
            Req.Prio = Priority::Bulk;
            Req.Tenant = BulkTenants[B % BulkTenants.size()];
            Req.TimeoutMs = (I % 2) ? 5u : 60000u;
            Client C = dialTcp(Addr);
            CheckResponse Resp;
            std::string Err;
            // Viable bulk behaves like a real batch client: bounded
            // busy retries. (checkRetry never retries `shed`, so a
            // tenant locked out by quota still registers as starved.)
            bool Sent = (I % 2) ? C.check(Req, Resp, Err)
                                : C.checkRetry(Req, Resp, Err, 6, 2000);
            if (!Sent) {
              ++OvDiffs;
            } else if (Resp.Ok) {
              BulkOk.fetch_add(1);
              if (snapshot(Resp) != Refs[Src])
                ++OvDiffs;
              std::lock_guard<std::mutex> L(TenantsM);
              TenantOk[Req.Tenant]++;
            } else if (Resp.Err == ErrorCode::Shed) {
              BulkShed.fetch_add(1);
            } else if (Resp.Err == ErrorCode::Busy ||
                       Resp.Err == ErrorCode::DeadlineExceeded) {
              BulkBusy.fetch_add(1);
            } else {
              ++OvDiffs;
            }
          }
        });
      for (std::thread &T : Ts)
        T.join();
      std::vector<double> All;
      for (const std::vector<double> &L : Lat)
        All.insert(All.end(), L.begin(), L.end());
      LoadedP99 = percentile(All, 0.99);
    }

    Ov.LoadedP99 = LoadedP99;
    Ov.InteractiveOk = FgOk.load();
    Ov.BulkOk = BulkOk.load();
    Ov.ShedBulk = BulkShed.load();
    Ov.ShedInteractive = FgShed.load();
    Ov.Busy = FgBusy.load() + BulkBusy.load();
    Ov.Diffs = OvDiffs.load();
    {
      std::lock_guard<std::mutex> L(TenantsM);
      for (const char *T : FgTenants)
        if (!TenantOk[T])
          ++Ov.StarvedTenants;
      for (const char *T : BulkTenants)
        if (!TenantOk[T])
          ++Ov.StarvedTenants;
    }

    Srv.stop();
  }

  double Speedup = Single.Rps > 0 ? Shared.Rps / Single.Rps : 0;
  std::printf("fleet throughput (%u distinct sources, %u concurrent "
              "clients, post-restart pass, 2 workers)\n",
              PoolSize, Clients);
  std::printf("  %-28s %8.1f req/s   p50 %7.2f ms   p99 %7.2f ms  "
              "(%d/%d ok)\n",
              "cold standalone acd", Single.Rps, Single.P50, Single.P99,
              Single.Ok, Single.Requests);
  std::printf("  %-28s %8.1f req/s   p50 %7.2f ms   p99 %7.2f ms  "
              "(%d/%d ok, hit rate %.2f)\n",
              "acd over warm shared dir", Shared.Rps, Shared.P50,
              Shared.P99, Shared.Ok, Shared.Requests, Shared.hitRate());
  std::printf("  speedup from the directory   %.1fx  (floor >= 5x)\n",
              Speedup);
  int TotalDiffs = Single.Diffs + Shared.Diffs + Ov.Diffs;
  if (TotalDiffs)
    std::printf("  FAIL: %d correctness diffs against the reference\n",
                TotalDiffs);

  // The overload verdict. The p99 bound gets a 1 ms floor so a
  // sub-millisecond unloaded measurement on a fast box does not turn
  // scheduler jitter into a failed bench.
  uint64_t ShedsTotal = Ov.ShedBulk + Ov.ShedInteractive;
  double BulkShedFrac =
      ShedsTotal ? static_cast<double>(Ov.ShedBulk) / ShedsTotal : 1.0;
  double P99Bound = 2.0 * std::max(Ov.UnloadedP99, 1.0);
  bool OvLatencyOk = Ov.LoadedP99 <= P99Bound;
  bool OvShedsOk = ShedsTotal >= 1 && BulkShedFrac >= 0.9;
  bool OvPass = OvLatencyOk && OvShedsOk && Ov.StarvedTenants == 0 &&
                Ov.Diffs == 0;
  std::printf("overload (4x saturation, 3:1 bulk:interactive, quotas on)\n");
  std::printf("  interactive p99              %7.2f ms unloaded -> %7.2f "
              "ms loaded  (bound %.2f ms)%s\n",
              Ov.UnloadedP99, Ov.LoadedP99, P99Bound,
              OvLatencyOk ? "" : "  FAIL");
  std::printf("  sheds                        %llu total, %.0f%% bulk  "
              "(floor 90%%)%s\n",
              static_cast<unsigned long long>(ShedsTotal),
              BulkShedFrac * 100, OvShedsOk ? "" : "  FAIL");
  std::printf("  completed                    %llu interactive, %llu bulk, "
              "%llu busy/deadline, %d starved tenant(s), %d diffs\n",
              static_cast<unsigned long long>(Ov.InteractiveOk),
              static_cast<unsigned long long>(Ov.BulkOk),
              static_cast<unsigned long long>(Ov.Busy), Ov.StarvedTenants,
              Ov.Diffs);

  auto passJson = [](const PassResult &P) {
    Json J = Json::object();
    J.set("requests_per_sec", P.Rps);
    J.set("p50_ms", P.P50);
    J.set("p99_ms", P.P99);
    J.set("ok", static_cast<int64_t>(P.Ok));
    J.set("requests", static_cast<int64_t>(P.Requests));
    J.set("diffs", static_cast<int64_t>(P.Diffs));
    return J;
  };
  Json Out = Json::object();
  Out.set("bench", "fleet_throughput");
  Out.set("sources", static_cast<uint64_t>(PoolSize));
  Out.set("concurrent_clients", static_cast<uint64_t>(Clients));
  Out.set("workers", 2);
  Out.set("baseline", passJson(Single));
  {
    Json R = passJson(Shared);
    R.set("hit_rate", Shared.hitRate());
    Out.set("shared_dir", std::move(R));
  }
  Out.set("speedup", Speedup);
  Out.set("target_speedup", 5);
  {
    Json OvJ = Json::object();
    OvJ.set("unloaded_interactive_p99_ms", Ov.UnloadedP99);
    OvJ.set("loaded_interactive_p99_ms", Ov.LoadedP99);
    OvJ.set("p99_bound_ms", P99Bound);
    OvJ.set("sheds_total", ShedsTotal);
    OvJ.set("sheds_bulk_fraction", BulkShedFrac);
    OvJ.set("interactive_ok", Ov.InteractiveOk);
    OvJ.set("bulk_ok", Ov.BulkOk);
    OvJ.set("busy_or_deadline", Ov.Busy);
    OvJ.set("starved_tenants", static_cast<int64_t>(Ov.StarvedTenants));
    OvJ.set("diffs", static_cast<int64_t>(Ov.Diffs));
    OvJ.set("pass", OvPass);
    Out.set("overload", std::move(OvJ));
  }
  {
    FILE *F = std::fopen("BENCH_fleet.json", "w");
    if (F) {
      std::string S = Out.dump();
      std::fwrite(S.data(), 1, S.size(), F);
      std::fputc('\n', F);
      std::fclose(F);
      std::printf("  wrote BENCH_fleet.json\n");
    }
  }
  std::filesystem::remove_all(Root);
  return (Speedup >= 5.0 && TotalDiffs == 0 && OvPass) ? 0 : 1;
}
