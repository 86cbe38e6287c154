//===- phase_times.cpp - Per-phase pipeline timing -------------------------===//
//
// Where the Table 5 "AutoCorres takes longer than the parser" cost goes
// (the paper attributes it to the proof-producing abstraction phases).
//
// The table is span-driven: instead of hand-placed timers around
// re-implemented phase drivers (which measured phases in isolation and
// drifted from the real pipeline whenever it changed), one traced
// AutoCorres::run records the same AC_SPAN instrumentation every layer
// already carries, and the table aggregates Trace::summarize(). The
// bench and a Chrome trace of the same run can never disagree.
//
//   phase_times [corpus] [iterations]   (default: echronos, 3)
//
//===----------------------------------------------------------------------===//

#include "core/AutoCorres.h"
#include "corpus/Synthetic.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace ac;

namespace {

/// Pipeline-ordered presentation of the span names worth a row. Spans
/// not listed here (pool bookkeeping, umbrella scopes) still show up in
/// the "other traced" tail so nothing is silently dropped.
struct PhaseRow {
  const char *Span;
  const char *Label;
};

const PhaseRow Rows[] = {
    {"cparser.lex", "C lexing"},
    {"cparser.parse", "C parsing"},
    {"cparser.sema", "semantic analysis"},
    {"simpl.translate", "SIMPL translation"},
    {"cache.fingerprint", "cache fingerprinting"},
    {"monad.l1", "L1 conversion"},
    {"monad.l2", "L2 lifting"},
    {"heapabs.fn", "heap abstraction"},
    {"wordabs.fn", "word abstraction"},
    {"monad.peephole", "peephole polish"},
    {"core.compose", "theorem composition"},
    {"cache.save", "cache entry writes"},
};

/// Umbrella spans whose time is already split across the rows above;
/// counting them again would double-book the "other" tail.
bool isUmbrella(const std::string &Name) {
  return Name == "ac.run" || Name == "core.fn" || Name == "parse" ||
         Name == "pool.task";
}

} // namespace

int main(int argc, char **argv) {
  std::string Corpus = argc > 1 ? argv[1] : "echronos";
  unsigned Iters = argc > 2 ? static_cast<unsigned>(atoi(argv[2])) : 3;
  if (Iters == 0)
    Iters = 1;

  corpus::SyntheticSpec Spec;
  if (Corpus == "sel4")
    Spec = corpus::sel4Scale();
  else if (Corpus == "capdl")
    Spec = corpus::capdlScale();
  else if (Corpus == "piccolo")
    Spec = corpus::piccoloScale();
  else if (Corpus == "echronos")
    Spec = corpus::echronosScale();
  else {
    std::fprintf(stderr, "phase_times: unknown corpus `%s`\n",
                 Corpus.c_str());
    return 2;
  }
  std::string Src = corpus::generateSyntheticProgram(Spec);

  support::Trace::start();
  double WallS = 0;
  for (unsigned I = 0; I != Iters; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    DiagEngine Diags;
    auto AC = core::AutoCorres::run(Src, Diags);
    WallS +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    if (!AC) {
      std::fprintf(stderr, "phase_times: pipeline failed:\n%s\n",
                   Diags.str().c_str());
      return 1;
    }
  }
  support::Trace::stop();

  auto Summary = support::Trace::summarize();
  std::printf("phase_times: corpus=%s iterations=%u wall=%.3fs\n\n",
              Corpus.c_str(), Iters, WallS);
  std::printf("%-24s %8s %12s %7s\n", "phase", "spans", "total_ms",
              "%wall");
  double AccountedMs = 0;
  double WallMs = WallS * 1e3;
  for (const PhaseRow &Row : Rows) {
    auto It = Summary.find(Row.Span);
    if (It == Summary.end())
      continue;
    double Ms = static_cast<double>(It->second.TotalNs) / 1e6;
    AccountedMs += Ms;
    std::printf("%-24s %8llu %12.2f %6.1f%%\n", Row.Label,
                static_cast<unsigned long long>(It->second.Count), Ms,
                100.0 * Ms / WallMs);
    Summary.erase(It);
  }
  double OtherMs = 0;
  uint64_t OtherCount = 0;
  for (const auto &[Name, S] : Summary) {
    if (isUmbrella(Name))
      continue;
    OtherMs += static_cast<double>(S.TotalNs) / 1e6;
    OtherCount += S.Count;
  }
  if (OtherCount)
    std::printf("%-24s %8llu %12.2f %6.1f%%\n", "other traced",
                static_cast<unsigned long long>(OtherCount), OtherMs,
                100.0 * OtherMs / WallMs);
  std::printf("%-24s %8s %12.2f %6.1f%%\n", "accounted", "", AccountedMs,
              100.0 * AccountedMs / WallMs);
  return 0;
}
