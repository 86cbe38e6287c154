//===- acbench.cpp - Measurement driver of the repository benchmark -------===//
//
// One process per measurement: perfbench/run.py starts this binary with a
// subcommand, reads the `ready` line it prints once its inputs exist (the
// end of set-up, with the seconds set-up took), and takes the JSON object
// on its last stdout line. All timing here wraps calls into the modules'
// public entry points; nothing inside the program is instrumented.
//
//   acbench run     --tu T --seed N --jobs J [--cert F] [--render F]
//                   [--profile] [--setup-only]
//       One uncached core::AutoCorres::run of a synthetic TU. --profile
//       adds the rule profile, the time spent in each layer and one timed
//       core::computeFunctionKeys of the parsed program. --setup-only
//       stops after set-up (generating the TU).
//   acbench check   --cert F
//       The independent checker (tools/acpc_check.h) on one certificate.
//   acbench golden  --dir D
//       The five paper corpora against D/<name>.expected.
//   acbench recheck --seed N --seconds S --rate R --limit-ms L
//                   --workers W --pool-tus P --edits-per-tu E
//                   --share-unchanged U --share-edit V
//                   [--setup-only]
//       An open-loop stream of check requests to an in-process
//       service::Server over a Unix socket. --setup-only stops after
//       priming the server and prints the pool.
//
// T is one of sel4, capdl, echronos: the Table 5 presets of
// corpus/Synthetic.h with the generator seed derived from N.
//
//===----------------------------------------------------------------------===//

#include "core/AutoCorres.h"
#include "core/ResultCache.h"
#include "corpus/Sources.h"
#include "corpus/Synthetic.h"
#include "hol/Term.h"
#include "service/Client.h"
#include "service/Server.h"
#include "simpl/Program.h"
#include "support/Json.h"
#include "support/RuleProfile.h"

#include "acpc_check.h"

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace ac;
using support::Json;

//===----------------------------------------------------------------------===//
// Layer timing
//===----------------------------------------------------------------------===//
//
// CMakeLists.txt links this binary with `--wrap` for the five layer entry
// points, so every call to one of them, the calls AutoCorres::run makes
// included, enters the wrapper below, which times the real function.
// The symbols come from CMake as AC_SYM_<LAYER>; a changed signature
// leaves a `__real_` reference undefined and fails the link.

namespace {

enum Layer { Parse, L1, L2, HL, WA, NumLayers };
/// Set by `run --profile`; unarmed, a wrapper only forwards the call.
std::atomic<bool> LayersArmed{false};
std::atomic<uint64_t> LayerNs[NumLayers];

class LayerTimer {
public:
  explicit LayerTimer(Layer L)
      : L(L), On(LayersArmed.load(std::memory_order_relaxed)) {
    if (On)
      T0 = std::chrono::steady_clock::now();
  }
  LayerTimer(const LayerTimer &) = delete;
  LayerTimer &operator=(const LayerTimer &) = delete;
  ~LayerTimer() {
    if (On)
      LayerNs[L] += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - T0)
              .count());
  }

private:
  Layer L;
  bool On;
  std::chrono::steady_clock::time_point T0;
};

} // namespace

#define AC_REAL(Sym) __asm__("__real_" Sym)
#define AC_WRAP(Sym) __asm__("__wrap_" Sym)

using ParseResult = std::unique_ptr<simpl::SimplProgram>;
ParseResult realParse(const std::string &, DiagEngine &) AC_REAL(AC_SYM_PARSE);
ParseResult wrapParse(const std::string &, DiagEngine &) AC_WRAP(AC_SYM_PARSE);
ParseResult wrapParse(const std::string &Src, DiagEngine &Diags) {
  LayerTimer T(Parse);
  return realParse(Src, Diags);
}

monad::L1Result realL1(const simpl::SimplProgram &, const simpl::SimplFunc &)
    AC_REAL(AC_SYM_L1);
monad::L1Result wrapL1(const simpl::SimplProgram &, const simpl::SimplFunc &)
    AC_WRAP(AC_SYM_L1);
monad::L1Result wrapL1(const simpl::SimplProgram &P,
                       const simpl::SimplFunc &F) {
  LayerTimer T(L1);
  return realL1(P, F);
}

monad::L2Result realL2(const simpl::SimplProgram &, const simpl::SimplFunc &)
    AC_REAL(AC_SYM_L2);
monad::L2Result wrapL2(const simpl::SimplProgram &, const simpl::SimplFunc &)
    AC_WRAP(AC_SYM_L2);
monad::L2Result wrapL2(const simpl::SimplProgram &P,
                       const simpl::SimplFunc &F) {
  LayerTimer T(L2);
  return realL2(P, F);
}

// Member functions: the object is the first argument in the ABI.
heapabs::HLResult &realHL(heapabs::HeapAbstraction *, const simpl::SimplFunc &,
                          const monad::L2Result &, bool) AC_REAL(AC_SYM_HL);
heapabs::HLResult &wrapHL(heapabs::HeapAbstraction *, const simpl::SimplFunc &,
                          const monad::L2Result &, bool) AC_WRAP(AC_SYM_HL);
heapabs::HLResult &wrapHL(heapabs::HeapAbstraction *Self,
                          const simpl::SimplFunc &F, const monad::L2Result &R,
                          bool Lift) {
  LayerTimer T(HL);
  return realHL(Self, F, R, Lift);
}

using WAArgs = const std::vector<std::string> &;
using WATys = const std::vector<hol::TypeRef> &;
wordabs::WAResult &realWA(wordabs::WordAbstraction *, const std::string &,
                          const hol::TermRef &, WAArgs, WATys,
                          const wordabs::WAOptions &) AC_REAL(AC_SYM_WA);
wordabs::WAResult &wrapWA(wordabs::WordAbstraction *, const std::string &,
                          const hol::TermRef &, WAArgs, WATys,
                          const wordabs::WAOptions &) AC_WRAP(AC_SYM_WA);
wordabs::WAResult &wrapWA(wordabs::WordAbstraction *Self,
                          const std::string &Fn, const hol::TermRef &Body,
                          WAArgs Args, WATys Tys,
                          const wordabs::WAOptions &O) {
  LayerTimer T(WA);
  return realWA(Self, Fn, Body, Args, Tys, O);
}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "acbench: %s\n", Msg.c_str());
  std::exit(2);
}

/// `--key value` pairs and bare `--flag`s.
class Args {
public:
  Args(int Argc, char **Argv) {
    for (int I = 2; I < Argc; ++I) {
      std::string K = Argv[I];
      if (K.rfind("--", 0) != 0)
        die("unexpected argument `" + K + "`");
      K = K.substr(2);
      if (I + 1 < Argc && std::string(Argv[I + 1]).rfind("--", 0) != 0)
        Vals[K] = Argv[++I];
      else
        Vals[K] = "";
    }
  }
  bool has(const std::string &K) const { return Vals.count(K) != 0; }
  std::string str(const std::string &K, const std::string &Dflt = "") const {
    auto It = Vals.find(K);
    return It == Vals.end() ? Dflt : It->second;
  }
  std::string need(const std::string &K) const {
    if (!has(K) || Vals.at(K).empty())
      die("missing --" + K);
    return Vals.at(K);
  }
  uint64_t num(const std::string &K) const {
    std::string V = need(K);
    char *End = nullptr;
    unsigned long long N = std::strtoull(V.c_str(), &End, 10);
    if (!End || *End != '\0')
      die("--" + K + " needs a whole number, got `" + V + "`");
    return N;
  }
  double real(const std::string &K) const {
    std::string V = need(K);
    char *End = nullptr;
    double D = std::strtod(V.c_str(), &End);
    if (!End || *End != '\0' || !(D > 0))
      die("--" + K + " needs a positive number, got `" + V + "`");
    return D;
  }

private:
  std::map<std::string, std::string> Vals;
};

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

corpus::SyntheticSpec tuSpec(const std::string &Name, uint64_t Seed) {
  corpus::SyntheticSpec S;
  if (Name == "sel4")
    S = corpus::sel4Scale();
  else if (Name == "capdl")
    S = corpus::capdlScale();
  else if (Name == "echronos")
    S = corpus::echronosScale();
  else
    die("unknown --tu `" + Name + "`");
  // The generator seeds its xorshift state with `Seed | 1`, so seeds 2k
  // and 2k+1 would give the same TU; scramble the benchmark seed first.
  S.Seed = static_cast<unsigned>(splitmix(Seed) & 0x7fffffff);
  return S;
}

/// When the process's own code starts: this constructor runs before the
/// static initializers of the pipeline libraries, which have the default
/// priority, so set-up counts their work but not the kernel's exec and
/// the dynamic loader's.
Clock::time_point ProcessStart;
__attribute__((constructor(101))) void markProcessStart() {
  ProcessStart = Clock::now();
}

/// Marks the end of set-up for run.py with the seconds it took.
void ready() {
  std::printf("ready %.9f\n", secondsSince(ProcessStart));
  std::fflush(stdout);
}

void emit(const Json &J) {
  std::printf("%s\n", J.dump().c_str());
  std::fflush(stdout);
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  return Out.good();
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In.good())
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Everything a user sees from one run, in the golden-snapshot format of
/// tests/core/GoldenSpecTest.cpp: per function its final definition key,
/// rendered spec and composed theorem, then the diagnostic stream.
std::string snapshot(const core::AutoCorres &AC, const DiagEngine &Diags,
                     const std::vector<std::string> &Renders) {
  std::ostringstream OS;
  for (size_t I = 0; I != AC.order().size(); ++I) {
    const std::string &Name = AC.order()[I];
    const core::FuncOutput *F = AC.func(Name);
    OS << "== function: " << Name << "\n";
    OS << "final: " << F->finalKey() << "\n";
    OS << "-- spec\n" << Renders[I] << "\n";
    OS << "-- theorem\n" << F->pipelineProp() << "\n";
  }
  OS << "== diagnostics\n";
  for (const Diagnostic &D : Diags.diagnostics())
    OS << D.str() << "\n";
  return OS.str();
}

void addRuleProfile(Json &J) {
  uint64_t Fires = 0, Attempts = 0, SelfNs = 0;
  for (const auto &[Name, S] : support::RuleProfile::snapshot()) {
    Fires += S.Fires;
    Attempts += S.Fires + S.Misses;
    SelfNs += S.SelfNs;
  }
  J.set("rule_fires", Fires);
  J.set("rule_attempts", Attempts);
  J.set("rule_self_s", static_cast<double>(SelfNs) / 1e9);
}

//===----------------------------------------------------------------------===//
// run
//===----------------------------------------------------------------------===//

int cmdRun(const Args &A) {
  const std::string Tu = A.need("tu");
  const std::string Src =
      corpus::generateSyntheticProgram(tuSpec(Tu, A.num("seed")));
  core::ACOptions Opts;
  Opts.Jobs = static_cast<unsigned>(A.num("jobs"));
  Opts.CertPath = A.str("cert");
  if (Opts.Jobs == 0)
    die("--jobs must be at least 1");
  ready();
  if (A.has("setup-only")) {
    emit(Json::object());
    return 0;
  }

  if (A.has("profile")) {
    support::RuleProfile::setEnabled(true);
    LayersArmed = true;
  }
  const size_t Terms0 = hol::internedTermCount();
  DiagEngine Diags;
  auto T0 = Clock::now();
  auto AC = core::AutoCorres::run(Src, Diags, Opts);
  const double Wall = secondsSince(T0);
  if (!AC)
    die("pipeline failed on " + Tu + ":\n" + Diags.str());
  const size_t Terms1 = hol::internedTermCount();

  auto R0 = Clock::now();
  std::vector<std::string> Renders;
  Renders.reserve(AC->order().size());
  for (const std::string &Name : AC->order())
    Renders.push_back(AC->render(Name));
  const double RenderS = secondsSince(R0);

  if (A.has("render") &&
      !writeFile(A.str("render"), snapshot(*AC, Diags, Renders)))
    die("cannot write " + A.str("render"));

  const core::ACStats &St = AC->stats();
  Json J = Json::object();
  J.set("wall_s", Wall);
  J.set("cpu_s", St.ParserCpuSeconds + St.AutoCorresSeconds);
  J.set("jobs", St.Jobs);
  J.set("functions", St.NumFunctions);
  J.set("term_ratio", static_cast<double>(St.ACTermSizeTotal) /
                          St.ParserTermSizeTotal);
  J.set("spec_lines", St.ACSpecLines);
  J.set("cache_enabled", St.CacheEnabled);
  J.set("cert_claims", St.CertClaims);
  J.set("cert_skipped", St.CertSkipped);
  J.set("render_s", RenderS);
  J.set("terms_interned", static_cast<uint64_t>(Terms1 - Terms0));
  if (A.has("profile")) {
    addRuleProfile(J);
    const char *Names[NumLayers] = {"parse_s", "l1_s", "l2_s", "hl_s", "wa_s"};
    for (int L = 0; L != NumLayers; ++L)
      J.set(Names[L], static_cast<double>(LayerNs[L].load()) / 1e9);
    unsigned Lifted = 0, Abstracted = 0, Kept = 0;
    for (const std::string &Name : AC->order()) {
      Lifted += AC->func(Name)->HeapLifted;
      Kept += AC->func(Name)->WordAbstracted;
      Abstracted += AC->wordAbs().results().at(Name).Abstracted;
    }
    J.set("lifted_frac", double(Lifted) / St.NumFunctions);
    J.set("kept_frac", Abstracted ? double(Kept) / Abstracted : 0.0);
    // The keys the service's cache would look up for this program; the
    // run itself computes none, because its cache is off.
    auto F0 = Clock::now();
    auto Keys = core::computeFunctionKeys(AC->program(), {}, {});
    J.set("fingerprint_s", secondsSince(F0));
    if (Keys.size() != AC->order().size())
      die("computeFunctionKeys returned the wrong number of keys");
  }
  emit(J);
  return 0;
}

//===----------------------------------------------------------------------===//
// check
//===----------------------------------------------------------------------===//

struct CheckJob {
  const std::string *Text;
  acpc::Result Res;
  double Seconds = 0;
};

void *checkThread(void *P) {
  auto *Job = static_cast<CheckJob *>(P);
  auto T0 = Clock::now();
  Job->Res = acpc::check(*Job->Text);
  Job->Seconds = secondsSince(T0);
  return nullptr;
}

int cmdCheck(const Args &A) {
  const std::string Path = A.need("cert");
  std::string Text;
  if (!readFile(Path, Text))
    die("cannot read certificate " + Path);
  ready();

  // Re-derivation recurses to term depth; like tools/acpc.cpp, give the
  // checker a stack deep enough that its own depth cap is the limit.
  CheckJob Job{&Text, {}, 0};
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, 64u << 20);
  pthread_t T;
  if (pthread_create(&T, &Attr, checkThread, &Job) != 0)
    die("cannot start the checker thread");
  pthread_join(T, nullptr);
  pthread_attr_destroy(&Attr);

  const acpc::Result &R = Job.Res;
  std::string MetaFunctions;
  for (const auto &[K, V] : R.Meta)
    if (K == "functions")
      MetaFunctions = V;
  Json J = Json::object();
  J.set("ok", R.Ok);
  J.set("error", R.Ok ? std::string() : "line " + std::to_string(R.Line) +
                                            ": " + R.Error);
  J.set("check_s", Job.Seconds);
  J.set("bytes", static_cast<uint64_t>(Text.size()));
  J.set("records", R.Types + R.Terms + R.Derivs + R.ClaimCount);
  J.set("claims", R.ClaimCount);
  J.set("functions", MetaFunctions.empty()
                         ? -1.0
                         : std::strtod(MetaFunctions.c_str(), nullptr));
  emit(J);
  return 0;
}

//===----------------------------------------------------------------------===//
// golden
//===----------------------------------------------------------------------===//

int cmdGolden(const Args &A) {
  const std::string Dir = A.need("dir");
  const std::pair<const char *, const char *> Corpora[] = {
      {"max", corpus::maxSource()},
      {"gcd", corpus::gcdSource()},
      {"swap", corpus::swapSource()},
      {"midpoint", corpus::midpointSource()},
      {"reverse", corpus::reverseSource()},
  };
  ready();
  unsigned Matched = 0;
  Json Mismatched = Json::array();
  for (const auto &[Name, Source] : Corpora) {
    std::string Expected;
    if (!readFile(Dir + "/" + Name + ".expected", Expected))
      die("cannot read " + Dir + "/" + Name + ".expected");
    DiagEngine Diags;
    auto AC = core::AutoCorres::run(Source, Diags);
    std::string Actual = "<run failed>";
    if (AC) {
      std::vector<std::string> Renders;
      for (const std::string &F : AC->order())
        Renders.push_back(AC->render(F));
      Actual = snapshot(*AC, Diags, Renders);
    }
    if (Actual == Expected)
      ++Matched;
    else
      Mismatched.push(Name);
  }
  Json J = Json::object();
  J.set("corpora", static_cast<uint64_t>(std::size(Corpora)));
  J.set("matched", Matched);
  J.set("mismatched", Mismatched);
  emit(J);
  return 0;
}

//===----------------------------------------------------------------------===//
// recheck
//===----------------------------------------------------------------------===//

/// Adds one statement to a called `calc_N`/`bits_N` function of a
/// synthetic TU, so its key and those of its transitive callers change.
/// \p Variant picks the function and the added constant, so a pool TU's
/// edits are the same in every run.
std::string editOneFunction(const std::string &Src, unsigned Variant) {
  struct Site {
    size_t Return; ///< offset of the function's return statement
    bool IsCalc;
    bool Called;
  };
  std::vector<Site> Sites;
  for (bool IsCalc : {true, false}) {
    const std::string Head = IsCalc ? "unsigned calc_" : "unsigned bits_";
    for (size_t P = Src.find(Head); P != std::string::npos;
         P = Src.find(Head, P + 1)) {
      size_t NameEnd = Src.find('(', P);
      std::string Name = Src.substr(P + 9, NameEnd - (P + 9));
      size_t Ret = Src.find(IsCalc ? "  return acc;\n}" : "  return w + n;\n}",
                            NameEnd);
      if (Ret != std::string::npos)
        Sites.push_back({Ret, IsCalc,
                         Src.find(Name + "(", NameEnd) != std::string::npos});
    }
  }
  if (Sites.empty())
    die("synthetic TU has no calc_/bits_ function to edit");
  // Prefer functions with callers, so the edit re-keys them too.
  std::stable_partition(Sites.begin(), Sites.end(),
                        [](const Site &S) { return S.Called; });
  size_t Called = std::count_if(Sites.begin(), Sites.end(),
                                [](const Site &S) { return S.Called; });
  const Site &S = Sites[splitmix(Variant) % (Called ? Called : Sites.size())];
  const std::string K = std::to_string(1 + Variant % 9);
  std::string Out = Src;
  Out.insert(S.Return, S.IsCalc ? "  acc = acc + " + K + "u;\n"
                                : "  n = n + " + K + "u;\n");
  return Out;
}

struct Sample {
  double LatencyMs = 0; ///< completion minus due time
  double LateMs = 0;    ///< send minus due time
  double RttMs = 0;
  double ServerMs = 0;
  double ParseS = 0;
  double CpuS = 0;
  double RespKb = 0;
  unsigned Hits = 0, Lookups = 0, Invalidations = 0;
  bool Ok = false;
  bool Refused = false;
  bool Mismatch = false;
};

/// Linear interpolation between the two nearest ranks.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t I = static_cast<size_t>(Pos);
  if (I + 1 >= V.size())
    return V.back();
  return V[I] + (Pos - static_cast<double>(I)) * (V[I + 1] - V[I]);
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Concatenated renders of a response or of a reference run, compared
/// bytewise.
std::string joinRenders(const service::CheckResponse &R) {
  std::string S;
  for (const service::FuncResult &F : R.Functions)
    S += F.Name + "\n" + F.Render + "\n";
  return S;
}

int cmdRecheck(const Args &A) {
  const uint64_t Seed = A.num("seed");
  const double Seconds = A.real("seconds");
  const double Rate = A.real("rate");
  const double LimitMs = A.real("limit-ms");
  const unsigned Workers = static_cast<unsigned>(A.num("workers"));
  if (Workers == 0)
    die("--workers must be at least 1");
  // The request mix; perfbench/workloads.json records the values used.
  const unsigned PoolTus = static_cast<unsigned>(A.num("pool-tus"));
  const unsigned EditsPerPoolTu = static_cast<unsigned>(A.num("edits-per-tu"));
  const double ShareUnchanged = A.real("share-unchanged");
  const double ShareEdit = A.real("share-edit");
  if (PoolTus == 0 || EditsPerPoolTu == 0 ||
      ShareUnchanged + ShareEdit > 1)
    die("invalid request mix");

  // Inputs: the pool, its edited variants, then one fresh TU per `new`
  // request, all eChronos-scale. They share the generator's naming
  // scheme, so function names (calc_3, scan_7, ...) collide across TUs
  // with other bodies. The pool is the same in every run: how much its
  // TUs collide sets the cache's hit rate, and a pool drawn per seed
  // would swing the latencies more than the traffic does. For the same
  // reason the edits are the same in every run: which function an edit
  // touches sets how much of the call graph it invalidates. The seed
  // draws the traffic: which TU each request sends and the fresh TUs.
  std::vector<std::string> Sources;
  std::vector<std::string> PoolNames;
  for (unsigned I = 0; I != PoolTus; ++I) {
    uint64_t S = I + 1;
    Sources.push_back(corpus::generateSyntheticProgram(tuSpec("echronos", S)));
    PoolNames.push_back("echronos:" + std::to_string(S));
  }
  const size_t Pool = Sources.size();
  for (size_t I = 0; I != Pool; ++I)
    for (unsigned V = 0; V != EditsPerPoolTu; ++V)
      Sources.push_back(
          editOneFunction(Sources[I], V));

  struct Due {
    double AtS;
    size_t Src;
  };
  // Evenly spaced due times and exact shares of each request kind, with
  // the pool TUs and their edits used equally often, so every run offers
  // the same load. How many other pool TUs were checked since a TU's last
  // submission sets how many of its functions the name-keyed cache lost,
  // so a seeded order would let the seed move the hit rate. Instead the
  // unchanged resubmissions cycle through the pool in a fixed order, so
  // each comes back after the other pool TUs, and the edits and fresh TUs
  // (shuffled together) take one seeded slot in each of equal stretches
  // of the stream.
  const size_t Requests = static_cast<size_t>(Seconds * Rate);
  if (Requests == 0)
    die("--seconds times --rate must allow at least one request");
  const size_t Edits = static_cast<size_t>(Requests * ShareEdit + 0.5);
  const size_t Fresh = std::min(
      Requests - Edits,
      static_cast<size_t>(Requests * (1 - ShareUnchanged - ShareEdit) + 0.5));
  std::mt19937_64 Rng(splitmix(Seed ^ 0x7ec4ec4ULL));
  std::vector<size_t> Others;
  for (size_t I = 0; I != Edits; ++I)
    Others.push_back(Pool + I % (Pool * EditsPerPoolTu));
  for (size_t I = 0; I != Fresh; ++I) {
    Others.push_back(Sources.size());
    Sources.push_back(corpus::generateSyntheticProgram(
        tuSpec("echronos", Seed * 1000 + 500 + I)));
  }
  std::shuffle(Others.begin(), Others.end(), Rng);
  std::vector<size_t> Unchanged;
  for (size_t I = 0; Unchanged.size() < Requests - Others.size(); ++I)
    Unchanged.push_back(I % Pool);
  std::vector<bool> OtherSlot(Requests, false);
  for (size_t K = 0; K != Others.size(); ++K) {
    const size_t Lo = K * Requests / Others.size();
    const size_t Hi = (K + 1) * Requests / Others.size();
    OtherSlot[Lo + Rng() % (Hi - Lo)] = true;
  }
  std::vector<size_t> Order;
  for (size_t I = 0, O = 0, U = 0; I != Requests; ++I)
    Order.push_back(OtherSlot[I] ? Others[O++] : Unchanged[U++]);
  std::vector<Due> Schedule;
  for (size_t I = 0; I != Requests; ++I)
    Schedule.push_back({static_cast<double>(I) / Rate, Order[I]});

  service::ServerOptions SO;
  SO.SocketPath = "acd-" + std::to_string(getpid()) + ".sock";
  SO.Workers = Workers;
  SO.Jobs = 1;
  service::Server Srv(SO);
  if (!Srv.start())
    die("cannot start the server on " + SO.SocketPath);

  std::mutex FirstM;
  std::map<size_t, std::string> First; ///< source -> first served renders
  auto record = [&](size_t Src, const std::string &Renders) {
    std::lock_guard<std::mutex> L(FirstM);
    auto [It, New] = First.emplace(Src, Renders);
    return New || It->second == Renders;
  };

  // Prime the memory tier with every pool TU, unchanged.
  {
    service::Client C = service::Client::connect(SO.SocketPath);
    for (size_t I = 0; I != Pool; ++I) {
      service::CheckRequest Req;
      Req.Source = Sources[I];
      Req.Jobs = 1;
      service::CheckResponse Resp;
      std::string Err;
      if (!C.check(Req, Resp, Err) || !Resp.Ok)
        die("priming request failed: " + Err + Resp.Message);
      record(I, joinRenders(Resp));
    }
  }
  ready();
  Json PoolJ = Json::array();
  for (const std::string &P : PoolNames)
    PoolJ.push(P);
  if (A.has("setup-only")) {
    Srv.stop();
    Json J = Json::object();
    J.set("pool", PoolJ);
    emit(J);
    return 0;
  }

  const size_t Terms0 = hol::internedTermCount();
  std::vector<Sample> Samples(Schedule.size());
  std::atomic<size_t> Next{0};
  std::atomic<bool> TransportFailed{false};
  const Clock::time_point Start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> DoneAt(Schedule.size(), Start);
  auto sender = [&] {
    service::Client C = service::Client::connect(SO.SocketPath);
    for (size_t I = Next++; I < Schedule.size(); I = Next++) {
      const Clock::time_point DueAt =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(Schedule[I].AtS));
      std::this_thread::sleep_until(DueAt);
      service::CheckRequest Req;
      Req.Source = Sources[Schedule[I].Src];
      Req.Jobs = 1;
      service::CheckResponse Resp;
      std::string Err;
      const Clock::time_point Sent = Clock::now();
      bool Rt = C.connected() && C.check(Req, Resp, Err);
      const Clock::time_point Done = Clock::now();
      Sample &S = Samples[I];
      DoneAt[I] = Done;
      auto ms = [](Clock::duration D) {
        return std::chrono::duration<double, std::milli>(D).count();
      };
      S.LatencyMs = ms(Done - DueAt);
      S.LateMs = ms(Sent - DueAt);
      S.RttMs = ms(Done - Sent);
      if (!Rt) {
        TransportFailed = true;
        C = service::Client::connect(SO.SocketPath);
        continue;
      }
      S.Ok = Resp.Ok;
      S.Refused = Resp.Err == service::ErrorCode::Busy ||
                  Resp.Err == service::ErrorCode::Shed;
      if (!Resp.Ok)
        continue;
      S.ServerMs = (Resp.ParseSeconds + Resp.AbstractWallSeconds) * 1e3;
      S.ParseS = Resp.ParseSeconds;
      S.CpuS = Resp.ParseCpuSeconds + Resp.AbstractCpuSeconds;
      S.Hits = Resp.CacheHits;
      S.Lookups = Resp.CacheHits + Resp.CacheMisses;
      S.Invalidations = Resp.CacheInvalidations;
      S.Mismatch = !record(Schedule[I].Src, joinRenders(Resp));
      S.RespKb = static_cast<double>(Resp.toJson().dump().size()) / 1024.0;
    }
  };
  std::vector<std::thread> Senders;
  for (unsigned W = 0; W != Workers; ++W)
    Senders.emplace_back(sender);
  for (std::thread &T : Senders)
    T.join();
  const Clock::time_point End =
      *std::max_element(DoneAt.begin(), DoneAt.end());
  const double PeakRss = peakRssMb();
  const size_t Terms1 = hol::internedTermCount();
  Srv.stop();

  // Untimed reference: a cold in-process run of every source served.
  unsigned RefMismatch = 0;
  uint64_t TermAc = 0, TermParser = 0, SpecLines = 0;
  for (const auto &[Src, Served] : First) {
    DiagEngine Diags;
    core::ACOptions Opts;
    Opts.Jobs = 1;
    auto AC = core::AutoCorres::run(Sources[Src], Diags, Opts);
    std::string Ref;
    if (AC)
      for (const std::string &Name : AC->order())
        Ref += Name + "\n" + AC->render(Name) + "\n";
    if (!AC || Ref != Served)
      ++RefMismatch;
    if (AC && Src < Pool) {
      TermAc += AC->stats().ACTermSizeTotal;
      TermParser += AC->stats().ParserTermSizeTotal;
      SpecLines += AC->stats().ACSpecLines;
    }
  }

  std::vector<double> Lat, Late, Server, Wait, Parse, Kb;
  unsigned Failed = 0, Refused = 0, SloMiss = 0, Mismatch = 0;
  double Cpu = 0;
  uint64_t Hits = 0, Lookups = 0, Inval = 0;
  for (const Sample &S : Samples) {
    Lat.push_back(S.LatencyMs);
    Late.push_back(S.LateMs);
    if (!S.Ok || S.Mismatch)
      ++Failed;
    Refused += S.Refused;
    Mismatch += S.Mismatch;
    if (!S.Ok || S.LatencyMs > LimitMs)
      ++SloMiss;
    if (!S.Ok)
      continue;
    Server.push_back(S.ServerMs);
    Wait.push_back(S.RttMs - S.ServerMs);
    Parse.push_back(S.ParseS);
    Kb.push_back(S.RespKb);
    Cpu += S.CpuS;
    Hits += S.Hits;
    Lookups += S.Lookups;
    Inval += S.Invalidations;
  }
  const double N = static_cast<double>(Samples.size());
  double KbSum = 0;
  for (double K : Kb)
    KbSum += K;

  Json J = Json::object();
  J.set("requests", static_cast<uint64_t>(Samples.size()));
  J.set("fresh_tus", static_cast<uint64_t>(Fresh));
  J.set("distinct_sources", static_cast<uint64_t>(First.size()));
  J.set("failed", Failed);
  J.set("transport_failed", TransportFailed.load());
  J.set("render_mismatch", Mismatch);
  J.set("reference_mismatch", RefMismatch);
  J.set("refused_frac", N ? Refused / N : 0.0);
  J.set("slo_miss_frac", N ? SloMiss / N : 0.0);
  J.set("p50_ms", percentile(Lat, 0.50));
  J.set("p90_ms", percentile(Lat, 0.90));
  J.set("wall_s", std::chrono::duration<double>(End - Start).count());
  J.set("cpu_s", Cpu);
  J.set("peak_rss_mb", PeakRss);
  J.set("term_ratio", TermParser ? double(TermAc) / TermParser : 0.0);
  J.set("spec_lines", SpecLines);
  J.set("late_ms_p99", percentile(Late, 0.99));
  J.set("server_ms_p50", percentile(Server, 0.50));
  J.set("wait_ms_p50", percentile(Wait, 0.50));
  J.set("wait_ms_p99", percentile(Wait, 0.99));
  J.set("parse_s_p50", percentile(Parse, 0.50));
  J.set("resp_kb", Kb.empty() ? 0.0 : KbSum / Kb.size());
  J.set("cache_hit_frac", Lookups ? double(Hits) / Lookups : 0.0);
  J.set("cache_invalidations", Inval);
  J.set("terms_interned", static_cast<uint64_t>(Terms1 - Terms0));
  J.set("pool", PoolJ);
  emit(J);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    die("usage: acbench run|check|golden|recheck [--key value]...");
  const std::string Cmd = argv[1];
  Args A(argc, argv);
  if (Cmd == "run")
    return cmdRun(A);
  if (Cmd == "check")
    return cmdCheck(A);
  if (Cmd == "golden")
    return cmdGolden(A);
  if (Cmd == "recheck")
    return cmdRecheck(A);
  if (Cmd == "build-info") {
    Json J = Json::object();
    J.set("build_type", AC_BUILD_TYPE);
    J.set("cxx_flags", AC_CXX_FLAGS);
    emit(J);
    return 0;
  }
  die("unknown subcommand `" + Cmd + "`");
}
