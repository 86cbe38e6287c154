//===- aclint.cpp - Observability artifact lint ----------------------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Validates the artifacts the observability surface emits, so CI can
// assert their shape without a Chrome or Prometheus install:
//
//   aclint trace <file.json> [--require-span NAME]... [--min-wa N] [--min-hl N]
//               [--max-span-share NAME:PCT]...
//       The file parses as Chrome trace-event JSON (object form), every
//       event is a well-formed complete event, every --require-span name
//       occurs at least once, and the embedded ruleProfile carries at
//       least N word-abstraction / heap-abstraction rule rows. Each
//       --max-span-share asserts that the summed duration of spans with
//       that name is at most PCT percent of the whole trace extent —
//       the perf gate uses this to pin phase-share regressions.
//
//   aclint metrics <file> [--require NAME]...        ("-" reads stdin)
//       The file is Prometheus text exposition format 0.0.4: every
//       sample line is `name[{labels}] value`, every sample's metric has
//       a preceding # TYPE of a known kind, summary quantile samples and
//       _sum/_count attach to a declared summary. Each --require NAME
//       asserts at least one sample of that metric is present — the
//       tier-1 gate uses this to pin the overload counters
//       (acd_requests_shed_total and friends) into the exposition.
//
//   aclint fleet <file.json> [--min-speedup X] [--min-hit-rate R]
//       The file is a BENCH_fleet.json as written by bench/fleet_throughput:
//       a cold standalone baseline pass and a pass of the same daemon
//       restarted over a warm shared cache directory ("shared_dir"),
//       each with a positive requests/sec, ordered latency percentiles
//       and zero correctness diffs, the shared_dir pass with a hit rate
//       in [0,1]. --min-speedup bounds the shared_dir pass's speedup over
//       the baseline from below; --min-hit-rate bounds its hit rate.
//
//   aclint cert <file.acpc> [--min-claims N] [--require-meta KEY]...
//       The file has the proof-certificate *shape* (docs/PROTOCOL.md
//       "Certificates"): `acpc 1` header, every record line carries a
//       known tag, type/term/derivation/claim ids are dense and
//       sequential, the `end` trailer is the last line and its counts
//       match the records, and the file ends in a newline. This is a
//       lint, not a proof check — `acpc` re-derives the claims; aclint
//       only asserts the artifact is structurally sound (e.g. not
//       truncated by a torn write).
//
// Exit status: 0 clean, 1 lint findings (each printed on stderr), 2 usage.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using ac::support::Json;

namespace {

int Findings = 0;

void finding(const std::string &Msg) {
  std::fprintf(stderr, "aclint: %s\n", Msg.c_str());
  ++Findings;
}

bool readAll(const std::string &Path, std::string &Out) {
  if (Path == "-") {
    std::stringstream SS;
    SS << std::cin.rdbuf();
    Out = SS.str();
    return true;
  }
  std::ifstream In(Path, std::ios::binary);
  if (!In.good())
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

//===----------------------------------------------------------------------===//
// trace mode
//===----------------------------------------------------------------------===//

/// A `--max-span-share wordabs.fn:40` style bound, parsed up front.
struct SpanShareBound {
  std::string Name;
  double MaxPct;
};

int lintTrace(const std::string &Path,
              const std::vector<std::string> &RequiredSpans, int MinWA,
              int MinHL, const std::vector<SpanShareBound> &ShareBounds) {
  std::string Text;
  if (!readAll(Path, Text)) {
    finding("cannot read " + Path);
    return 1;
  }
  Json J;
  std::string Err;
  if (!Json::parse(Text, J, Err)) {
    finding(Path + ": not valid JSON: " + Err);
    return 1;
  }
  if (!J.isObject() || !J.get("traceEvents").isArray()) {
    finding(Path + ": no traceEvents array (not object-form Chrome JSON)");
    return 1;
  }

  std::set<std::string> Seen;
  std::map<std::string, double> SpanDur;
  double MinTs = 0, MaxEnd = 0;
  bool AnyEvent = false;
  size_t Idx = 0;
  for (const Json &E : J.get("traceEvents").items()) {
    std::string Where = Path + ": traceEvents[" + std::to_string(Idx++) + "]";
    if (!E.isObject()) {
      finding(Where + ": not an object");
      continue;
    }
    if (E.get("ph").asString() == "M") {
      // Metadata events (merged traces label pid lanes with these):
      // no ts/dur, but they must still say which process they name.
      if (!E.get("pid").isNumber())
        finding(Where + ": metadata event missing pid");
      if (!E.get("args").get("name").isString())
        finding(Where + ": metadata event missing args.name");
      continue;
    }
    if (!E.get("name").isString() || E.get("name").asString().empty())
      finding(Where + ": missing name");
    if (E.get("ph").asString() != "X")
      finding(Where + ": ph is not \"X\" (complete event)");
    if (!E.get("ts").isNumber() || E.get("ts").asNumber() < 0)
      finding(Where + ": bad ts");
    if (!E.get("dur").isNumber() || E.get("dur").asNumber() < 0)
      finding(Where + ": bad dur");
    if (!E.get("pid").isNumber() || !E.get("tid").isNumber())
      finding(Where + ": missing pid/tid");
    Seen.insert(E.get("name").asString());
    if (E.get("ts").isNumber() && E.get("dur").isNumber()) {
      double Ts = E.get("ts").asNumber(), Dur = E.get("dur").asNumber();
      SpanDur[E.get("name").asString()] += Dur;
      if (!AnyEvent || Ts < MinTs)
        MinTs = Ts;
      if (!AnyEvent || Ts + Dur > MaxEnd)
        MaxEnd = Ts + Dur;
      AnyEvent = true;
    }
  }

  for (const std::string &Name : RequiredSpans)
    if (!Seen.count(Name))
      finding(Path + ": required span `" + Name + "` never recorded");

  if (!ShareBounds.empty()) {
    double Extent = AnyEvent ? MaxEnd - MinTs : 0;
    if (Extent <= 0) {
      finding(Path + ": --max-span-share needs a non-empty trace");
    } else {
      for (const SpanShareBound &B : ShareBounds) {
        double Pct = 100.0 * SpanDur[B.Name] / Extent;
        char Buf[160];
        std::snprintf(Buf, sizeof(Buf), "%s: span `%s` is %.1f%% of the trace",
                      Path.c_str(), B.Name.c_str(), Pct);
        if (Pct > B.MaxPct)
          finding(std::string(Buf) + ", bound is " +
                  std::to_string(B.MaxPct) + "%");
        else
          std::fprintf(stderr, "aclint: ok: %s (bound %.1f%%)\n", Buf,
                       B.MaxPct);
      }
    }
  }

  if (MinWA > 0 || MinHL > 0) {
    const Json &RP = J.get("ruleProfile");
    if (!RP.isObject()) {
      finding(Path + ": no ruleProfile object");
    } else {
      int WA = 0, HL = 0;
      for (const auto &[Name, Stat] : RP.members()) {
        if (!Stat.isObject() || !Stat.get("fires").isNumber())
          finding(Path + ": ruleProfile." + Name + ": malformed row");
        if (Name.rfind("WA.", 0) == 0)
          ++WA;
        else if (Name.rfind("HL.", 0) == 0)
          ++HL;
      }
      if (WA < MinWA)
        finding(Path + ": ruleProfile has " + std::to_string(WA) +
                " word-abs rules, expected >= " + std::to_string(MinWA));
      if (HL < MinHL)
        finding(Path + ": ruleProfile has " + std::to_string(HL) +
                " heap-abs rules, expected >= " + std::to_string(MinHL));
    }
  }
  return Findings ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// metrics mode
//===----------------------------------------------------------------------===//

bool validMetricName(const std::string &N) {
  if (N.empty())
    return false;
  for (size_t I = 0; I != N.size(); ++I) {
    char C = N[I];
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              C == '_' || C == ':' || (I > 0 && C >= '0' && C <= '9');
    if (!Ok)
      return false;
  }
  return true;
}

int lintMetrics(const std::string &Path,
                const std::vector<std::string> &Require) {
  std::string Text;
  if (!readAll(Path, Text)) {
    finding("cannot read " + Path);
    return 1;
  }
  std::set<std::string> Typed, Summaries, Histograms, Sampled;
  std::istringstream Lines(Text);
  std::string Line;
  int LineNo = 0;
  while (std::getline(Lines, Line)) {
    ++LineNo;
    std::string Where = Path + ":" + std::to_string(LineNo);
    if (Line.empty())
      continue;
    if (Line.rfind("# TYPE ", 0) == 0) {
      std::istringstream T(Line.substr(7));
      std::string Name, Kind;
      T >> Name >> Kind;
      if (!validMetricName(Name))
        finding(Where + ": bad metric name in TYPE: " + Name);
      if (Kind != "counter" && Kind != "gauge" && Kind != "summary" &&
          Kind != "histogram" && Kind != "untyped")
        finding(Where + ": unknown TYPE kind: " + Kind);
      if (Typed.count(Name))
        finding(Where + ": duplicate TYPE for " + Name);
      Typed.insert(Name);
      if (Kind == "summary")
        Summaries.insert(Name);
      if (Kind == "histogram")
        Histograms.insert(Name);
      continue;
    }
    if (Line[0] == '#')
      continue; // HELP and free comments
    // An OpenMetrics exemplar rides after ` # ` on the sample line:
    // `name{...} value # {trace_id="..."} exemplar_value`. Split it off
    // and lint both halves.
    std::string Sample = Line;
    size_t ExPos = Line.find(" # ");
    if (ExPos != std::string::npos) {
      Sample = Line.substr(0, ExPos);
      std::string Ex = Line.substr(ExPos + 3);
      size_t Close = Ex.rfind("} ");
      if (Ex.empty() || Ex[0] != '{' || Close == std::string::npos) {
        finding(Where + ": malformed exemplar: " + Ex);
      } else {
        std::string EV = Ex.substr(Close + 2);
        char *EEnd = nullptr;
        std::strtod(EV.c_str(), &EEnd);
        if (EEnd == EV.c_str() || *EEnd != '\0')
          finding(Where + ": unparsable exemplar value: " + EV);
      }
    }
    size_t Sp = Sample.rfind(' ');
    if (Sp == std::string::npos) {
      finding(Where + ": sample line has no value: " + Sample);
      continue;
    }
    std::string Value = Sample.substr(Sp + 1);
    char *End = nullptr;
    std::strtod(Value.c_str(), &End);
    if (End == Value.c_str() || *End != '\0')
      finding(Where + ": unparsable sample value: " + Value);

    std::string Name = Sample.substr(0, Sample.find_first_of("{ "));
    if (!validMetricName(Name)) {
      finding(Where + ": bad metric name: " + Name);
      continue;
    }
    Sampled.insert(Name);
    // A summary's or histogram's _sum/_count samples belong to the
    // declared base; a histogram additionally owns its _bucket series.
    std::string Base = Name;
    for (const char *Suffix : {"_sum", "_count"}) {
      size_t L = Name.size(), SL = std::strlen(Suffix);
      if (L > SL && Name.compare(L - SL, SL, Suffix) == 0 &&
          (Summaries.count(Name.substr(0, L - SL)) ||
           Histograms.count(Name.substr(0, L - SL))))
        Base = Name.substr(0, L - SL);
    }
    {
      size_t L = Name.size(), SL = std::strlen("_bucket");
      if (L > SL && Name.compare(L - SL, SL, "_bucket") == 0 &&
          Histograms.count(Name.substr(0, L - SL))) {
        Base = Name.substr(0, L - SL);
        if (Sample.find("le=\"") == std::string::npos)
          finding(Where + ": histogram bucket without le label: " + Sample);
      }
    }
    Sampled.insert(Base); // --require on a histogram/summary base name
    if (!Typed.count(Base))
      finding(Where + ": sample without preceding TYPE: " + Name);
    if (Base == Name && Summaries.count(Name) &&
        Sample.find("quantile=\"") == std::string::npos)
      finding(Where + ": summary sample without quantile label: " + Sample);
    if (Base == Name && Histograms.count(Name))
      finding(Where + ": histogram base sample without a suffix: " + Sample);
  }
  if (Typed.empty())
    finding(Path + ": no metrics at all");
  for (const std::string &Name : Require)
    if (!Sampled.count(Name))
      finding(Path + ": required metric `" + Name + "` has no sample");
  return Findings ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// fleet mode
//===----------------------------------------------------------------------===//

/// Shape-checks one measured pass (the baseline or the shared_dir pass):
/// positive throughput, ordered percentiles, no lost requests.
void lintFleetPass(const std::string &Where, const Json &P) {
  if (!P.isObject()) {
    finding(Where + ": not an object");
    return;
  }
  if (!P.get("requests_per_sec").isNumber() ||
      P.get("requests_per_sec").asNumber() <= 0)
    finding(Where + ": requests_per_sec missing or not positive");
  if (!P.get("p50_ms").isNumber() || !P.get("p99_ms").isNumber())
    finding(Where + ": missing p50_ms/p99_ms");
  else if (P.get("p50_ms").asNumber() > P.get("p99_ms").asNumber())
    finding(Where + ": p50_ms exceeds p99_ms");
  if (!P.get("ok").isNumber() || !P.get("requests").isNumber())
    finding(Where + ": missing ok/requests counts");
  else if (P.get("ok").asNumber() != P.get("requests").asNumber())
    finding(Where + ": " + std::to_string(static_cast<long long>(
                               P.get("requests").asNumber() -
                               P.get("ok").asNumber())) +
            " requests lost");
  if (!P.get("diffs").isNumber() || P.get("diffs").asNumber() != 0)
    finding(Where + ": correctness diffs recorded");
}

int lintFleet(const std::string &Path, double MinSpeedup,
              double MinHitRate) {
  std::string Text;
  if (!readAll(Path, Text)) {
    finding("cannot read " + Path);
    return 1;
  }
  Json J;
  std::string Err;
  if (!Json::parse(Text, J, Err)) {
    finding(Path + ": not valid JSON: " + Err);
    return 1;
  }
  if (!J.isObject() || J.get("bench").asString() != "fleet_throughput") {
    finding(Path + ": not a fleet_throughput artifact");
    return 1;
  }
  lintFleetPass(Path + ": baseline", J.get("baseline"));
  const Json &Shared = J.get("shared_dir");
  lintFleetPass(Path + ": shared_dir", Shared);
  const Json &Hit = Shared.get("hit_rate");
  if (!Hit.isNumber() || Hit.asNumber() < 0 || Hit.asNumber() > 1)
    finding(Path + ": shared_dir: hit_rate not in [0,1]");
  else if (Hit.asNumber() < MinHitRate)
    finding(Path + ": shared_dir: hit_rate " +
            std::to_string(Hit.asNumber()) + " below bound " +
            std::to_string(MinHitRate));
  if (!J.get("speedup").isNumber())
    finding(Path + ": missing speedup");
  else if (J.get("speedup").asNumber() < MinSpeedup)
    finding(Path + ": speedup " +
            std::to_string(J.get("speedup").asNumber()) + " below bound " +
            std::to_string(MinSpeedup));
  return Findings ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// cert mode
//===----------------------------------------------------------------------===//

/// Splits one certificate line on single spaces (the format never emits
/// empty tokens).
std::vector<std::string> certTokens(const std::string &Line) {
  std::vector<std::string> Toks;
  size_t Pos = 0;
  while (Pos <= Line.size()) {
    size_t Sp = Line.find(' ', Pos);
    if (Sp == std::string::npos)
      Sp = Line.size();
    Toks.push_back(Line.substr(Pos, Sp - Pos));
    Pos = Sp + 1;
  }
  return Toks;
}

/// Strict decimal u64: digits only, no leading zeros (the writer never
/// produces them, and accepting them would let two spellings of one id
/// through a shape check).
bool certU64(const std::string &S, unsigned long long &Out) {
  if (S.empty() || (S.size() > 1 && S[0] == '0'))
    return false;
  Out = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    if (Out > (~0ull - (C - '0')) / 10)
      return false;
    Out = Out * 10 + (C - '0');
  }
  return true;
}

int lintCert(const std::string &Path, int MinClaims,
             const std::vector<std::string> &RequireMeta) {
  std::string Text;
  if (!readAll(Path, Text)) {
    finding("cannot read " + Path);
    return 1;
  }
  if (Text.empty() || Text.back() != '\n') {
    finding(Path + ": does not end in a newline (truncated?)");
    return 1;
  }

  std::set<std::string> MetaKeys;
  unsigned long long NTy = 0, NTm = 0, NDv = 0, NCl = 0;
  bool SawHeader = false, SawEnd = false;
  size_t LineNo = 0, Pos = 0;
  while (Pos < Text.size()) {
    size_t NL = Text.find('\n', Pos);
    std::string Line = Text.substr(Pos, NL - Pos);
    Pos = NL + 1;
    ++LineNo;
    std::string Where = Path + ":" + std::to_string(LineNo);
    if (!SawHeader) {
      if (Line != "acpc 1") {
        finding(Where + ": bad header (want `acpc 1`): " + Line);
        return 1;
      }
      SawHeader = true;
      continue;
    }
    if (SawEnd) {
      finding(Where + ": content after the `end` trailer");
      break;
    }
    std::vector<std::string> T = certTokens(Line);
    const std::string &Tag = T[0];
    // Dense-sequential id check for the id-carrying records: the next
    // id is always the count so far.
    auto denseId = [&](unsigned long long Expect) {
      unsigned long long Id = 0;
      if (T.size() < 2 || !certU64(T[1], Id))
        finding(Where + ": record lacks a numeric id: " + Line);
      else if (Id != Expect)
        finding(Where + ": id " + T[1] + " is not dense-sequential (want " +
                std::to_string(Expect) + ")");
    };
    if (Tag == "m") {
      if (T.size() != 3 || T[1].empty() || T[1][0] != ':' ||
          T[2].empty() || T[2][0] != ':')
        finding(Where + ": malformed meta record: " + Line);
      else
        MetaKeys.insert(T[1].substr(1));
    } else if (Tag == "y") {
      denseId(NTy++);
    } else if (Tag == "t") {
      denseId(NTm++);
    } else if (Tag == "d") {
      denseId(NDv++);
    } else if (Tag == "q") {
      ++NCl;
      unsigned long long Did = 0;
      if (T.size() != 4 || !certU64(T[1], Did) || Did >= NDv)
        finding(Where + ": claim does not reference an earlier derivation: " +
                Line);
    } else if (Tag == "end") {
      SawEnd = true;
      unsigned long long E[4] = {0, 0, 0, 0};
      bool Ok = T.size() == 5;
      for (int I = 0; Ok && I != 4; ++I)
        Ok = certU64(T[I + 1], E[I]);
      if (!Ok)
        finding(Where + ": malformed trailer: " + Line);
      else if (E[0] != NTy || E[1] != NTm || E[2] != NDv || E[3] != NCl)
        finding(Where + ": trailer counts disagree with records (spliced?)");
    } else {
      finding(Where + ": unknown record tag `" + Tag + "`");
    }
  }
  if (!SawHeader)
    finding(Path + ": empty certificate");
  if (SawHeader && !SawEnd)
    finding(Path + ": missing `end` trailer (truncated?)");
  if (MinClaims > 0 && NCl < static_cast<unsigned long long>(MinClaims))
    finding(Path + ": has " + std::to_string(NCl) + " claims, expected >= " +
            std::to_string(MinClaims));
  for (const std::string &Key : RequireMeta)
    if (!MetaKeys.count(Key))
      finding(Path + ": required meta key `" + Key + "` missing");
  return Findings ? 1 : 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: aclint trace <file.json> [--require-span NAME]...\n"
      "              [--min-wa N] [--min-hl N] [--max-span-share NAME:PCT]...\n"
      "       aclint metrics <file|-> [--require NAME]...\n"
      "       aclint fleet <file.json> [--min-speedup X] [--min-hit-rate R]\n"
      "       aclint cert <file.acpc> [--min-claims N] [--require-meta KEY]...\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 3)
    return usage();
  std::string Mode = argv[1], Path = argv[2];
  if (Mode == "metrics") {
    std::vector<std::string> Require;
    for (int I = 3; I < argc; ++I) {
      std::string A = argv[I];
      if (A == "--require" && I + 1 < argc)
        Require.push_back(argv[++I]);
      else
        return usage();
    }
    return lintMetrics(Path, Require);
  }
  if (Mode == "fleet") {
    double MinSpeedup = 0, MinHitRate = 0;
    for (int I = 3; I < argc; ++I) {
      std::string A = argv[I];
      auto needArg = [&](const char *Flag) -> const char * {
        if (I + 1 >= argc) {
          std::fprintf(stderr, "aclint: %s needs an argument\n", Flag);
          exit(2);
        }
        return argv[++I];
      };
      if (A == "--min-speedup")
        MinSpeedup = std::atof(needArg("--min-speedup"));
      else if (A == "--min-hit-rate")
        MinHitRate = std::atof(needArg("--min-hit-rate"));
      else
        return usage();
    }
    return lintFleet(Path, MinSpeedup, MinHitRate);
  }
  if (Mode == "cert") {
    int MinClaims = 0;
    std::vector<std::string> RequireMeta;
    for (int I = 3; I < argc; ++I) {
      std::string A = argv[I];
      auto needArg = [&](const char *Flag) -> const char * {
        if (I + 1 >= argc) {
          std::fprintf(stderr, "aclint: %s needs an argument\n", Flag);
          exit(2);
        }
        return argv[++I];
      };
      if (A == "--min-claims")
        MinClaims = std::atoi(needArg("--min-claims"));
      else if (A == "--require-meta")
        RequireMeta.push_back(needArg("--require-meta"));
      else
        return usage();
    }
    return lintCert(Path, MinClaims, RequireMeta);
  }
  if (Mode != "trace")
    return usage();
  std::vector<std::string> RequiredSpans;
  std::vector<SpanShareBound> ShareBounds;
  int MinWA = 0, MinHL = 0;
  for (int I = 3; I < argc; ++I) {
    std::string A = argv[I];
    auto needArg = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "aclint: %s needs an argument\n", Flag);
        exit(2);
      }
      return argv[++I];
    };
    if (A == "--require-span")
      RequiredSpans.push_back(needArg("--require-span"));
    else if (A == "--min-wa")
      MinWA = std::atoi(needArg("--min-wa"));
    else if (A == "--min-hl")
      MinHL = std::atoi(needArg("--min-hl"));
    else if (A == "--max-span-share") {
      std::string Spec = needArg("--max-span-share");
      size_t Colon = Spec.rfind(':');
      if (Colon == std::string::npos || Colon == 0) {
        std::fprintf(stderr, "aclint: --max-span-share wants NAME:PCT\n");
        return 2;
      }
      ShareBounds.push_back(
          {Spec.substr(0, Colon), std::atof(Spec.c_str() + Colon + 1)});
    } else
      return usage();
  }
  return lintTrace(Path, RequiredSpans, MinWA, MinHL, ShareBounds);
}
