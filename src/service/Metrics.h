//===- Metrics.h - Live service observability -------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's observability surface, served by the `stats` request
/// (JSON) and the `metrics` request (Prometheus text exposition):
/// request-lifecycle counters, per-phase latency histograms
/// (p50/p90/p99 — queue wait, C parsing, abstraction, end-to-end),
/// per-phase cumulative CPU time, and cumulative abstraction-cache
/// accounting summed over every completed run (the per-run numbers live
/// in core::ACStats; here they accumulate for the life of the process).
///
/// Everything is atomics + thread-safe histograms, so workers record
/// without coordination and the stats handler reads a live snapshot.
/// Both renderers go through one Snapshot taken at a single instant, so
/// a stats frame never mixes an uptime sampled at time T with counters
/// sampled at T+dt.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SERVICE_METRICS_H
#define AC_SERVICE_METRICS_H

#include "support/Histogram.h"
#include "support/Json.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ac::service {

/// Counters and histograms for one daemon instance.
struct ServiceMetrics {
  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();

  /// Request lifecycle. `Received` counts admitted check requests;
  /// every admitted request ends in exactly one of Completed (ran,
  /// response delivered), Failed (ran, error response delivered — e.g.
  /// a C parse error), Cancelled (client hung up: the queue slot was
  /// freed without running, or the response was undeliverable), or
  /// DeadlineExceeded (the request's timeout_ms elapsed; the watchdog
  /// answered and any in-flight result was discarded). Rejected counts
  /// refusals that never entered the queue (Busy / Draining).
  std::atomic<uint64_t> Received{0};
  std::atomic<uint64_t> Completed{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<uint64_t> Cancelled{0};
  std::atomic<uint64_t> DeadlineExceeded{0};
  std::atomic<uint64_t> Rejected{0};
  /// TCP connections dropped for a wrong/missing auth token (these never
  /// reach admission, so they are counted separately from Rejected).
  std::atomic<uint64_t> AuthFailed{0};
  /// Load-shed refusals: bulk requests whose remaining deadline budget
  /// could not cover the observed p99 service time, plus per-tenant
  /// quota refusals. Like Rejected, shed requests never enter the queue.
  std::atomic<uint64_t> Shed{0};
  /// The quota-refusal subset of Shed.
  std::atomic<uint64_t> QuotaRejected{0};

  /// High-water mark of concurrently running check requests over the
  /// process lifetime; tells whether the configured worker count is
  /// ever actually saturated.
  std::atomic<uint64_t> InFlightPeak{0};

  /// Cumulative core::ACStats cache counters over all completed runs.
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<uint64_t> CacheMisses{0};
  std::atomic<uint64_t> CacheInvalidations{0};

  /// Cumulative per-phase CPU time over all completed runs, in
  /// microseconds — fed from the per-run thread-CPU clocks
  /// (CheckResponse::{Parse,Abstract}CpuSeconds), not wall time, so the
  /// abstract counter can exceed the abstract latency histogram's sum
  /// when runs use several workers. Unlike the latency histograms
  /// (per-request distributions), these answer "where has this daemon's
  /// lifetime gone" — the service-side analogue of core::ACStats phase
  /// seconds.
  std::atomic<uint64_t> ParseCpuMicros{0};
  std::atomic<uint64_t> AbstractCpuMicros{0};

  /// Per-phase latency. Wait is time spent queued before a worker picked
  /// the request up; Parse/Abstract split the pipeline; Total is
  /// admission-to-response.
  support::Histogram WaitH, ParseH, AbstractH, TotalH;

  /// Coarse `le` ladder of the true Prometheus histograms
  /// (acd_request_duration_seconds / acd_queue_wait_seconds), folded
  /// from the fine log buckets at render time. The +Inf bucket is
  /// implicit (== count).
  static constexpr double HistBounds[] = {0.001, 0.005, 0.01, 0.025,
                                          0.05,  0.1,   0.25, 0.5,
                                          1.0,   2.5,   5.0,  10.0};
  static constexpr size_t NumHistBounds =
      sizeof(HistBounds) / sizeof(HistBounds[0]);

  /// The most recent sample that landed in each coarse bucket, kept so
  /// the exposition can attach an exemplar trace id to slow buckets —
  /// "p99 regressed" becomes "open this trace". Index NumHistBounds is
  /// the +Inf bucket.
  struct Exemplar {
    std::string TraceId;
    double Seconds = 0;
  };
  mutable std::mutex ExemplarM;
  Exemplar TotalEx[NumHistBounds + 1];
  Exemplar WaitEx[NumHistBounds + 1];

  /// Records one finished request into the exemplar slots. \p TotalS /
  /// \p WaitS match what went into TotalH / WaitH for the same request.
  void noteExemplar(const std::string &TraceId, double TotalS, double WaitS);

  /// Per-tenant admission accounting. Tenants are discovered from
  /// request traffic, so this is a small mutex-guarded map rather than
  /// a fixed atomic set; the anonymous tenant ("") is not tracked.
  struct TenantCounters {
    uint64_t Admitted = 0; ///< entered the queue
    uint64_t Shed = 0;     ///< refused by quota or staleness shedding
  };
  mutable std::mutex TenantM;
  std::map<std::string, TenantCounters> Tenants;

  void noteTenantAdmitted(const std::string &Tenant) {
    if (Tenant.empty())
      return;
    std::lock_guard<std::mutex> L(TenantM);
    Tenants[Tenant].Admitted++;
  }
  void noteTenantShed(const std::string &Tenant) {
    if (Tenant.empty())
      return;
    std::lock_guard<std::mutex> L(TenantM);
    Tenants[Tenant].Shed++;
  }

  /// Raises InFlightPeak to \p N if it grew. Lock-free CAS max.
  void noteInFlight(uint64_t N) {
    uint64_t Cur = InFlightPeak.load(std::memory_order_relaxed);
    while (N > Cur &&
           !InFlightPeak.compare_exchange_weak(Cur, N,
                                               std::memory_order_relaxed)) {
    }
  }

  /// One histogram, read once.
  struct HistStat {
    uint64_t Count = 0;
    double SumS = 0, P50S = 0, P90S = 0, P99S = 0;
  };

  /// Everything a stats/metrics render needs, captured at one instant:
  /// the steady clock is sampled exactly once and every counter is read
  /// during the same pass, so the JSON and Prometheus views of a frame
  /// are internally consistent.
  struct Snapshot {
    double UptimeS = 0;
    bool Draining = false;
    unsigned Workers = 0;
    uint64_t QueueDepth = 0, QueueCapacity = 0;
    uint64_t InFlight = 0, InFlightPeak = 0;
    uint64_t Received = 0, Completed = 0, Failed = 0, Cancelled = 0,
             DeadlineExceeded = 0, Rejected = 0, AuthFailed = 0, Shed = 0,
             QuotaRejected = 0;
    /// Per-tenant counters, sorted by tenant name for render stability.
    struct TenantStat {
      std::string Name;
      uint64_t Admitted = 0, Shed = 0;
    };
    std::vector<TenantStat> Tenants;
    uint64_t CacheHits = 0, CacheMisses = 0, CacheInvalidations = 0,
             MemCacheEntries = 0;
    uint64_t ParseCpuMicros = 0, AbstractCpuMicros = 0;
    HistStat Wait, Parse, Abstract, Total;
    /// Cumulative counts per HistBounds entry (true-histogram form);
    /// the +Inf bucket is the matching HistStat's Count.
    uint64_t TotalBuckets[NumHistBounds] = {};
    uint64_t WaitBuckets[NumHistBounds] = {};
    std::vector<Exemplar> TotalExemplars, WaitExemplars;

    /// The `stats` response payload.
    support::Json toJson() const;

    /// Prometheus text exposition (version 0.0.4): `# HELP` / `# TYPE`
    /// headers plus one sample per counter/gauge, histogram quantiles
    /// as `{quantile="..."}` summary samples, and true histograms
    /// (cumulative `le` buckets with exemplar trace ids on buckets that
    /// hold one) for request latency and queue wait.
    std::string toPrometheus() const;
  };

  /// Captures a Snapshot. The queue/in-flight gauges are owned by the
  /// server and passed in.
  Snapshot snapshot(size_t QueueDepth, size_t QueueCapacity, size_t InFlight,
                    unsigned Workers, size_t MemCacheEntries,
                    bool Draining) const;

  /// Renders the `stats` response payload (snapshot() + toJson()).
  support::Json toJson(size_t QueueDepth, size_t QueueCapacity,
                       size_t InFlight, unsigned Workers,
                       size_t MemCacheEntries, bool Draining) const;
};

} // namespace ac::service

#endif // AC_SERVICE_METRICS_H
