//===- ExactCountersTest.cpp - Exact work-counter gate ----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins two counters of one cold eChronos-scale run at Jobs=1 to the exact
/// values in bench/baselines/echronos-counters.txt:
///
///   * terms_interned — the growth of hol::internedTermCount() over the
///     run, i.e. how many distinct term nodes the pipeline built;
///   * rule_fires — the summed support::RuleProfile fires of every rule.
///
/// Unlike wall time, both are deterministic at one job, so they gate on
/// any machine: a change that means to alter only the cost of the term
/// walks (memos, skip rules, sharing) must leave them equal, and a change
/// that builds extra nodes or fires extra rules shows here even when the
/// rendered output is still byte-identical. A change that alters either
/// count on purpose re-measures the run with this test's output and
/// updates the file in the same commit.
///
/// The binary holds this one test, so it runs in its own process and
/// counts from the same interned store every time.
///
//===----------------------------------------------------------------------===//

#include "core/AutoCorres.h"
#include "corpus/Synthetic.h"
#include "hol/Term.h"
#include "support/RuleProfile.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace ac;

#ifndef AC_BASELINE_DIR
#error "AC_BASELINE_DIR must point at the checked-in bench/baselines directory"
#endif

namespace {

/// `name value` lines of the baseline file; `#` starts a comment line.
std::map<std::string, uint64_t> readPins(const std::string &Path) {
  std::map<std::string, uint64_t> Pins;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Name;
    uint64_t Value = 0;
    if (LS >> Name >> Value)
      Pins[Name] = Value;
  }
  return Pins;
}

} // namespace

TEST(ExactCounters, EchronosColdJobs1) {
  const std::string Path =
      std::string(AC_BASELINE_DIR) + "/echronos-counters.txt";
  std::map<std::string, uint64_t> Pins = readPins(Path);
  ASSERT_EQ(Pins.count("terms_interned"), 1u) << Path;
  ASSERT_EQ(Pins.count("rule_fires"), 1u) << Path;

  // A cold, untraced, uncertified run whatever the environment says.
  ::setenv("AC_CACHE", "0", 1);
  ::unsetenv("AC_CACHE_DIR");
  ::unsetenv("AC_TRACE");
  ::unsetenv("AC_CERT");
  ::unsetenv("AC_CERT_DIR");
  ::unsetenv("AC_FAULTS");

  const std::string Src =
      corpus::generateSyntheticProgram(corpus::echronosScale());
  core::ACOptions Opts;
  Opts.Jobs = 1;
  support::RuleProfile::setEnabled(true);
  support::RuleProfile::reset();
  const size_t Terms0 = hol::internedTermCount();
  DiagEngine Diags;
  auto AC = core::AutoCorres::run(Src, Diags, Opts);
  ASSERT_TRUE(AC) << Diags.str();
  const uint64_t Terms = hol::internedTermCount() - Terms0;
  uint64_t Fires = 0;
  for (const auto &[Name, S] : support::RuleProfile::snapshot())
    Fires += S.Fires;

  EXPECT_EQ(Terms, Pins["terms_interned"])
      << "terms_interned moved; measured " << Terms;
  EXPECT_EQ(Fires, Pins["rule_fires"])
      << "rule_fires moved; measured " << Fires;
}
