//===- CheckRunner.h - One check request, one response ----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single implementation of "run one CheckRequest through the
/// pipeline and build its CheckResponse", shared by the daemon's session
/// workers and the client-side in-process fallback. Sharing it is what
/// makes graceful degradation honest: when `acc` cannot reach a daemon
/// (not running, crashed mid-frame, or past the request deadline) it
/// falls back to runLocalCheck() and produces a byte-identical response
/// payload — the golden-spec snapshots cannot tell the two paths apart.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SERVICE_CHECKRUNNER_H
#define AC_SERVICE_CHECKRUNNER_H

#include "service/Client.h"
#include "service/Protocol.h"

#include <string>

namespace ac::core {
class ResultCache;
} // namespace ac::core
namespace ac::support {
class ThreadPool;
} // namespace ac::support

namespace ac::service {

/// Execution context for one check: the daemon passes its long-lived
/// cache tier and warm pool; the in-process fallback passes neither and
/// lets the run own its cache (loaded from and saved to the same
/// directory the daemon would use, so warmth transfers between paths).
struct CheckContext {
  core::ResultCache *SharedCache = nullptr;
  support::ThreadPool *SharedPool = nullptr;
  /// Effective job count; 0 = AC_JOBS default.
  unsigned Jobs = 0;
  /// When set, the run flushes its pipeline trace here (best-effort;
  /// see support::Trace). Used by `acc --trace` on the local path —
  /// daemon-side per-request traces go through ServerOptions::TraceDir.
  std::string TracePath;
  /// When set, the run exports one proof certificate claiming every
  /// freshly derived pipeline theorem here (hol/Cert.h; best-effort).
  /// Used by `acc --cert` on the local path; the daemon derives a
  /// per-request path under ServerOptions::CertDir from the (path-safe)
  /// trace id.
  std::string CertPath;
  /// When set, the run writes per-function certificates keyed by the
  /// abstraction-cache fingerprint into this directory (`acc
  /// --cert-dir` on the local path).
  std::string CertDir;
};

/// Runs the pipeline for \p Req and builds the full response: function
/// payloads (specs only when want_specs), diagnostics, and per-run
/// stats. Never throws — a pipeline exception becomes an `internal`
/// error response, a translation failure a `parse_error`.
CheckResponse runCheck(const CheckRequest &Req, const CheckContext &Ctx);

/// The daemonless path: resolves the cache directory from the request
/// (falling back to AC_CACHE / AC_CACHE_DIR) and runs in-process.
CheckResponse runLocalCheck(const CheckRequest &Req);

/// Client policy: try the daemon at \p At, presenting \p Token on TCP
/// (with checkRetry's backpressure handling), and degrade to
/// runLocalCheck() when the daemon cannot serve the request —
/// unreachable, transport failure mid-request, draining, still busy
/// after bounded retries, over the request deadline, or an internal
/// daemon error. Typed request errors (`bad_request`, `parse_error`)
/// are *not* degraded: the local run would fail identically, so the
/// daemon's answer stands. Nor is a refused token (`auth_failed`): a
/// local run would hide the misconfiguration.
///
/// \p UsedFallback reports which path produced the response, and \p Note
/// carries a one-line human-readable reason when the fallback ran.
CheckResponse checkWithFallback(const Endpoint &At, const std::string &Token,
                                const CheckRequest &Req, bool &UsedFallback,
                                std::string &Note);

} // namespace ac::service

#endif // AC_SERVICE_CHECKRUNNER_H
