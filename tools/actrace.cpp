//===- actrace.cpp - Collect and merge fleet trace fragments --------------===//
//
// Pulls each process's trace fragment over the wire (`trace_pull`, which
// drains the remote buffers exactly once) and merges them into a single
// Chrome trace-event JSON: one pid lane per process labeled with its
// role, all timestamps rebased onto the earliest process's wall-clock
// anchor, spans chained across processes by trace_id/span/parent args.
//
//   actrace --out merged.json 127.0.0.1:7000 127.0.0.1:7001 ...
//
// Load the result in chrome://tracing or Perfetto, or gate its shape in
// CI with `aclint trace` / `aclint fleettrace`.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "support/TraceMerge.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using ac::service::Client;
using ac::support::Json;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] HOST:PORT [HOST:PORT ...]\n"
      "  --out FILE          write the merged trace here (default: stdout)\n"
      "  --auth-token-file F auth token presented to each daemon\n"
      "\n"
      "Each address is an acd or accached daemon; `trace_pull`\n"
      "drains its in-memory span buffer (boot the daemons with --trace).\n",
      Argv0);
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath;
  std::string Token;
  std::vector<std::string> Addrs;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--out") {
      const char *V = Next();
      if (!V) {
        usage(argv[0]);
        return 2;
      }
      OutPath = V;
    } else if (Arg == "--auth-token-file") {
      const char *V = Next();
      if (!V || !ac::service::readTokenFile(V, Token)) {
        std::fprintf(stderr, "actrace: cannot read auth token file\n");
        return 2;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "actrace: bad argument `%s`\n", Arg.c_str());
      usage(argv[0]);
      return 2;
    } else {
      Addrs.push_back(Arg);
    }
  }
  if (Addrs.empty()) {
    usage(argv[0]);
    return 2;
  }

  std::vector<std::string> Fragments;
  bool AllOk = true;
  for (const std::string &Addr : Addrs) {
    std::string Err;
    Client C = Client::connectTcp(Addr, Token, Err);
    Json Resp;
    if (!C.connected() || !C.tracePull(Resp, Err)) {
      std::fprintf(stderr, "actrace: %s: %s\n", Addr.c_str(),
                   Err.empty() ? "trace_pull failed" : Err.c_str());
      AllOk = false;
      continue;
    }
    std::fprintf(stderr, "actrace: %s: pid %lld role `%s`\n", Addr.c_str(),
                 static_cast<long long>(Resp.get("pid").asInt()),
                 Resp.get("role").asString().c_str());
    Fragments.push_back(Resp.get("body").asString());
  }
  if (Fragments.empty()) {
    std::fprintf(stderr, "actrace: no fragments collected\n");
    return 1;
  }

  std::string Merged, Err;
  if (!ac::support::mergeTraceFragments(Fragments, Merged, Err)) {
    std::fprintf(stderr, "actrace: merge failed: %s\n", Err.c_str());
    return 1;
  }

  if (OutPath.empty()) {
    std::fwrite(Merged.data(), 1, Merged.size(), stdout);
  } else {
    std::FILE *F = std::fopen(OutPath.c_str(), "w");
    if (!F || std::fwrite(Merged.data(), 1, Merged.size(), F) !=
                  Merged.size()) {
      std::fprintf(stderr, "actrace: cannot write %s\n", OutPath.c_str());
      if (F)
        std::fclose(F);
      return 1;
    }
    std::fclose(F);
    std::fprintf(stderr, "actrace: wrote %s (%zu fragments)\n",
                 OutPath.c_str(), Fragments.size());
  }
  return AllOk ? 0 : 1;
}
