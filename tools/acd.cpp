//===- acd.cpp - The AutoCorres verification daemon ------------------------===//
//
// Long-lived verification service: keeps interned terms, the abstraction
// cache, and a warm worker pool resident across requests, and serves
// check/stats/ping/drain requests over a Unix-domain socket
// (docs/PROTOCOL.md). `acc` is the matching client.
//
//   acd --socket /tmp/acd.sock --workers 2 --queue 8 --jobs 4
//
// SIGTERM / SIGINT (or a client `drain` request) trigger a graceful
// drain: in-flight and queued requests finish, new work is refused, then
// the process exits 0. Cache entries need no flush: each one is written
// through to --cache-dir when it is computed, so several acd processes
// can share one directory and a SIGKILLed one loses nothing.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "support/Log.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

using namespace ac::service;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --socket PATH      listening Unix socket (default: acd.sock;\n"
      "                     `none` disables it for a TCP-only daemon)\n"
      "  --listen HOST:PORT additionally listen on TCP (port 0 picks an\n"
      "                     ephemeral port, printed at startup)\n"
      "  --auth-token-file F require the shared token in F on every TCP\n"
      "                     connection (first-frame auth handshake)\n"

      "  --workers N        concurrent check sessions (default: 2)\n"
      "  --queue N          admission queue capacity (default: 8)\n"
      "  --jobs N           default abstraction jobs per request\n"
      "                     (default: $AC_JOBS, 1 when unset)\n"
      "  --cache-dir DIR    default abstraction-cache directory (may be\n"
      "                     shared by several acd processes)\n"
      "  --retry-after-ms N backpressure retry hint (default: 50)\n"
      "  --tenant-quota-rps N per-tenant admission quota in requests/s\n"
      "                     (token bucket; default: 0 = no quotas)\n"
      "  --tenant-quota-burst N per-tenant burst capacity\n"
      "                     (default: 2x the quota rate)\n"
      "  --shed-min-samples N completed requests needed before stale\n"
      "                     bulk work is shed (default: 16)\n"
      "  --trace-dir DIR    write a Chrome trace JSON per request to\n"
      "                     DIR/<trace_id>.json (best-effort)\n"

      "  --cert-dir DIR     write a proof certificate per request to\n"
      "                     DIR/<trace_id>.acpc, checkable with `acpc`\n"
      "                     (best-effort)\n"
      "  --log-file PATH    append structured JSONL log lines to PATH\n"
      "                     (default: stderr; also $AC_LOG_FILE)\n"
      "  --log-level LVL    debug|info|warn|error|off (default: info;\n"
      "                     also $AC_LOG)\n",
      Argv0);
}

bool parseUnsigned(const char *S, unsigned &Out) {
  char *End = nullptr;
  unsigned long V = std::strtoul(S, &End, 10);
  if (!End || *End || V > 1u << 20)
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  Opts.SocketPath = "acd.sock";

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    unsigned N = 0;
    if (Arg == "--socket") {
      const char *V = Next();
      if (!V) {
        usage(argv[0]);
        return 2;
      }
      Opts.SocketPath = std::strcmp(V, "none") == 0 ? "" : V;
    } else if (Arg == "--listen") {
      const char *V = Next();
      if (!V) {
        usage(argv[0]);
        return 2;
      }
      Opts.ListenAddr = V;
    } else if (Arg == "--auth-token-file") {
      const char *V = Next();
      if (!V || !readTokenFile(V, Opts.AuthToken)) {
        std::fprintf(stderr, "acd: cannot read auth token file\n");
        return 2;
      }
    } else if (Arg == "--workers" && Next() && parseUnsigned(argv[I], N)) {
      Opts.Workers = N;
    } else if (Arg == "--queue" && Next() && parseUnsigned(argv[I], N)) {
      Opts.QueueCapacity = N;
    } else if (Arg == "--jobs" && Next() && parseUnsigned(argv[I], N)) {
      Opts.Jobs = N;
    } else if (Arg == "--cache-dir") {
      const char *V = Next();
      if (!V) {
        usage(argv[0]);
        return 2;
      }
      Opts.CacheDir = V;
    } else if (Arg == "--retry-after-ms" && Next() &&
               parseUnsigned(argv[I], N)) {
      Opts.RetryAfterMs = N;
    } else if (Arg == "--tenant-quota-rps" && Next() &&
               parseUnsigned(argv[I], N)) {
      Opts.TenantQuotaRps = N;
    } else if (Arg == "--tenant-quota-burst" && Next() &&
               parseUnsigned(argv[I], N)) {
      Opts.TenantQuotaBurst = N;
    } else if (Arg == "--shed-min-samples" && Next() &&
               parseUnsigned(argv[I], N)) {
      Opts.ShedMinSamples = N;
    } else if (Arg == "--trace-dir") {
      const char *V = Next();
      if (!V) {
        usage(argv[0]);
        return 2;
      }
      Opts.TraceDir = V;
    } else if (Arg == "--cert-dir") {
      const char *V = Next();
      if (!V) {
        usage(argv[0]);
        return 2;
      }
      Opts.CertDir = V;
    } else if (Arg == "--log-file") {
      const char *V = Next();
      if (!V || !ac::support::Log::setFile(V)) {
        std::fprintf(stderr, "acd: cannot open log file\n");
        return 2;
      }
    } else if (Arg == "--log-level") {
      const char *V = Next();
      ac::support::LogLevel Lv;
      if (!V || !ac::support::Log::parseLevel(V, Lv)) {
        usage(argv[0]);
        return 2;
      }
      ac::support::Log::setLevel(Lv);
    } else if (Arg == "--help" || Arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "acd: bad argument `%s`\n", Arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  // Block the shutdown signals in every thread the server will spawn;
  // the main thread collects them below with sigtimedwait, so a SIGTERM
  // turns into a drain instead of killing mid-request.
  sigset_t Sigs;
  sigemptyset(&Sigs);
  sigaddset(&Sigs, SIGTERM);
  sigaddset(&Sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &Sigs, nullptr);

  Server Srv(Opts);
  if (!Srv.start()) {
    std::fprintf(stderr, "acd: cannot listen on %s\n",
                 Opts.SocketPath.empty() ? Opts.ListenAddr.c_str()
                                         : Opts.SocketPath.c_str());
    return 1;
  }
  if (!Opts.SocketPath.empty())
    std::printf("acd: listening on %s (workers=%u queue=%zu)\n",
                Opts.SocketPath.c_str(), Srv.options().Workers,
                Srv.options().QueueCapacity);
  if (!Opts.ListenAddr.empty())
    std::printf("acd: listening on tcp port %u (workers=%u queue=%zu)\n",
                static_cast<unsigned>(Srv.tcpPort()), Srv.options().Workers,
                Srv.options().QueueCapacity);
  std::fflush(stdout);
  ac::support::Log::info(
      "daemon.started",
      {{"socket", Opts.SocketPath},
       {"listen", Opts.ListenAddr},
       {"workers", Srv.options().Workers},
       {"queue", static_cast<uint64_t>(Srv.options().QueueCapacity)}});

  // Wait for SIGTERM/SIGINT or a protocol-level drain request.
  timespec Tick{0, 200 * 1000 * 1000};
  while (!Srv.draining()) {
    int Sig = sigtimedwait(&Sigs, nullptr, &Tick);
    if (Sig == SIGTERM || Sig == SIGINT)
      break;
  }

  std::printf("acd: draining (finishing in-flight work)\n");
  std::fflush(stdout);
  Srv.stop(); // drain + teardown
  std::printf("acd: drained, bye\n");
  ac::support::Log::info("daemon.stopped", {});
  return 0;
}
