//===- TraceTest.cpp - Pipeline span recorder -------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The span recorder behind AC_TRACE: nesting, multi-thread collection,
/// the Chrome trace-event JSON export (must parse, must carry the spans
/// and their attributes), rule-profile embedding, and the zero-cost
/// contract when tracing is off.
///
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/RuleProfile.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

using namespace ac::support;

namespace {

/// Fresh collection for every test: these tests own the process-wide
/// recorder state.
struct TraceTest : ::testing::Test {
  void SetUp() override {
    Trace::reset();
    Trace::start();
  }
  void TearDown() override {
    Trace::stop();
    Trace::reset();
    RuleProfile::setEnabled(false);
    RuleProfile::reset();
  }
};

Json parseTrace() {
  Json J;
  std::string Err;
  EXPECT_TRUE(Json::parse(Trace::exportJson(), J, Err)) << Err;
  return J;
}

/// Events named \p Name in a parsed export.
std::vector<Json> eventsNamed(const Json &J, const std::string &Name) {
  std::vector<Json> Out;
  for (const Json &E : J.get("traceEvents").items())
    if (E.get("name").asString() == Name)
      Out.push_back(E);
  return Out;
}

} // namespace

TEST_F(TraceTest, SpansRecordWithNesting) {
  {
    Span Outer("outer");
    Outer.arg("fn", std::string("max"));
    {
      AC_SPAN("inner");
    }
  }
  EXPECT_EQ(Trace::eventCount(), 2u);

  Json J = parseTrace();
  ASSERT_TRUE(J.get("traceEvents").isArray());
  auto Outer = eventsNamed(J, "outer");
  auto Inner = eventsNamed(J, "inner");
  ASSERT_EQ(Outer.size(), 1u);
  ASSERT_EQ(Inner.size(), 1u);

  // Complete events ("ph":"X") on the same thread; the inner span lies
  // within the outer one.
  EXPECT_EQ(Outer[0].get("ph").asString(), "X");
  EXPECT_EQ(Inner[0].get("ph").asString(), "X");
  EXPECT_EQ(Outer[0].get("tid").asInt(), Inner[0].get("tid").asInt());
  double OutS = Outer[0].get("ts").asNumber();
  double OutEnd = OutS + Outer[0].get("dur").asNumber();
  double InS = Inner[0].get("ts").asNumber();
  double InEnd = InS + Inner[0].get("dur").asNumber();
  EXPECT_LE(OutS, InS);
  EXPECT_LE(InEnd, OutEnd);

  // Attributes land in the event's args object.
  EXPECT_EQ(Outer[0].get("args").get("fn").asString(), "max");
}

TEST_F(TraceTest, MultiThreadSpansAllCollected) {
  const unsigned Threads = 8, PerThread = 50;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([] {
      for (unsigned I = 0; I != PerThread; ++I) {
        AC_SPAN("worker.step");
      }
    });
  for (std::thread &T : Ts)
    T.join();

  EXPECT_EQ(Trace::eventCount(), size_t(Threads) * PerThread);
  EXPECT_EQ(Trace::droppedEvents(), 0u);

  Json J = parseTrace();
  auto Steps = eventsNamed(J, "worker.step");
  EXPECT_EQ(Steps.size(), size_t(Threads) * PerThread);

  // Spans from distinct threads keep distinct tids.
  std::set<int64_t> Tids;
  for (const Json &E : Steps)
    Tids.insert(E.get("tid").asInt());
  EXPECT_EQ(Tids.size(), Threads);
}

TEST_F(TraceTest, ExportIsValidChromeJson) {
  {
    AC_SPAN("phase.a");
  }
  Json J = parseTrace();
  EXPECT_TRUE(J.isObject());
  EXPECT_TRUE(J.get("traceEvents").isArray());
  EXPECT_EQ(J.get("displayTimeUnit").asString(), "ms");
  for (const Json &E : J.get("traceEvents").items()) {
    EXPECT_TRUE(E.get("name").isString());
    EXPECT_EQ(E.get("cat").asString(), "ac");
    EXPECT_EQ(E.get("ph").asString(), "X");
    EXPECT_TRUE(E.get("ts").isNumber());
    EXPECT_TRUE(E.get("dur").isNumber());
    EXPECT_TRUE(E.get("pid").isNumber());
    EXPECT_TRUE(E.get("tid").isNumber());
  }
}

TEST_F(TraceTest, RuleProfileEmbedsInExport) {
  RuleProfile::setEnabled(true);
  RuleProfile::record("WA.test_rule", /*Fired=*/true, /*SelfNs=*/1000);
  RuleProfile::record("WA.test_rule", /*Fired=*/false, 0);

  Json J = parseTrace();
  ASSERT_TRUE(J.get("ruleProfile").isObject());
  const Json &R = J.get("ruleProfile").get("WA.test_rule");
  ASSERT_TRUE(R.isObject());
  EXPECT_EQ(R.get("fires").asInt(), 1);
  EXPECT_EQ(R.get("misses").asInt(), 1);
  EXPECT_EQ(R.get("ns").asInt(), 1000);
}

TEST_F(TraceTest, SummarizeAggregatesByName) {
  for (int I = 0; I != 3; ++I) {
    AC_SPAN("agg.phase");
  }
  auto S = Trace::summarize();
  ASSERT_TRUE(S.count("agg.phase"));
  EXPECT_EQ(S["agg.phase"].Count, 3u);
}

TEST_F(TraceTest, FlushWritesLoadableFile) {
  {
    AC_SPAN("flushed.span");
  }
  std::string Path = ::testing::TempDir() + "trace_test_flush.json";
  ASSERT_TRUE(Trace::flush(Path));

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  Json J;
  std::string Err;
  ASSERT_TRUE(Json::parse(SS.str(), J, Err)) << Err;
  EXPECT_EQ(eventsNamed(J, "flushed.span").size(), 1u);
  std::remove(Path.c_str());
}

TEST_F(TraceTest, FlushResetDrainsEvents) {
  {
    AC_SPAN("drained");
  }
  std::string Path = ::testing::TempDir() + "trace_test_flushreset.json";
  ASSERT_TRUE(Trace::flushReset(Path));
  EXPECT_EQ(Trace::eventCount(), 0u);
  std::remove(Path.c_str());
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  Trace::stop();
  Trace::reset();
  EXPECT_FALSE(Trace::enabled());
  {
    Span S("invisible");
    EXPECT_FALSE(S.active());
    S.arg("k", std::string("v")); // must be a no-op, not a crash
  }
  EXPECT_EQ(Trace::eventCount(), 0u);

  // The off-path is one relaxed load: a large burst must be far cheaper
  // than anything that allocates or locks. Bound it loosely enough for
  // loaded CI machines while still catching an accidentally-armed
  // hot path (recording 1M spans takes well over this budget).
  const int N = 1000000;
  auto T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != N; ++I) {
    AC_SPAN("off");
  }
  double S = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           T0)
                 .count();
  EXPECT_EQ(Trace::eventCount(), 0u);
  EXPECT_LT(S, 1.0);
}

TEST_F(TraceTest, ExplicitEndRecordsOnceBeforeScopeExit) {
  {
    Span S("early");
    S.arg("k", std::string("v"));
    S.end();
    // The event is already recorded — a flush/reset later in the same
    // scope (the run-local trace pattern) sees it.
    EXPECT_EQ(Trace::eventCount(), 1u);
    S.end();                         // idempotent
    S.arg("late", std::string("x")); // no-op after end()
  }
  // The destructor must not record a second copy.
  EXPECT_EQ(Trace::eventCount(), 1u);
  Json J = parseTrace();
  auto E = eventsNamed(J, "early");
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E[0].get("args").get("k").asString(), "v");
  EXPECT_FALSE(E[0].get("args").get("late").isString());
}

TEST_F(TraceTest, StopKeepsEventsUntilReset) {
  {
    AC_SPAN("kept");
  }
  Trace::stop();
  EXPECT_EQ(Trace::eventCount(), 1u);
  Trace::reset();
  EXPECT_EQ(Trace::eventCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Distributed trace context
//===----------------------------------------------------------------------===//

TEST_F(TraceTest, SpanIdsAreUniqueAndNonZero) {
  std::set<uint64_t> Ids;
  for (int I = 0; I != 1000; ++I) {
    uint64_t Id = Trace::nextSpanId();
    EXPECT_NE(Id, 0u);
    Ids.insert(Id);
  }
  EXPECT_EQ(Ids.size(), 1000u);
}

TEST_F(TraceTest, NestedSpansChainParentIds) {
  TraceContextScope Scope("ctx-test-1");
  uint64_t OuterId, InnerId;
  {
    Span Outer("chain.outer");
    OuterId = Outer.id();
    {
      Span Inner("chain.inner");
      InnerId = Inner.id();
    }
  }
  Json J = parseTrace();
  auto O = eventsNamed(J, "chain.outer");
  auto I = eventsNamed(J, "chain.inner");
  ASSERT_EQ(O.size(), 1u);
  ASSERT_EQ(I.size(), 1u);
  // Both spans stamp the scope's trace id; the inner one chains to the
  // outer (decimal-string ids — JSON numbers are doubles).
  EXPECT_EQ(O[0].get("args").get("trace_id").asString(), "ctx-test-1");
  EXPECT_EQ(I[0].get("args").get("trace_id").asString(), "ctx-test-1");
  EXPECT_EQ(O[0].get("args").get("span").asString(),
            std::to_string(OuterId));
  EXPECT_EQ(I[0].get("args").get("parent").asString(),
            std::to_string(OuterId));
  EXPECT_EQ(I[0].get("args").get("span").asString(),
            std::to_string(InnerId));
  // The root span has no parent arg (the scope installs none).
  EXPECT_FALSE(O[0].get("args").get("parent").isString());
}

TEST_F(TraceTest, ContextScopeInstallsTraceIdAndRestores) {
  EXPECT_TRUE(Trace::context().TraceId.empty());
  {
    Span Outer("scope.outer"); // an enclosing span the scope must hide
    TraceContextScope Scope("request-trace");
    EXPECT_EQ(Trace::context().TraceId, "request-trace");
    EXPECT_EQ(Trace::context().ParentSpan, 0u);
    {
      Span S("scope.child");
    }
  }
  EXPECT_TRUE(Trace::context().TraceId.empty());
  EXPECT_EQ(Trace::context().ParentSpan, 0u);
  Json J = parseTrace();
  auto C = eventsNamed(J, "scope.child");
  ASSERT_EQ(C.size(), 1u);
  EXPECT_EQ(C[0].get("args").get("trace_id").asString(), "request-trace");
  EXPECT_FALSE(C[0].get("args").get("parent").isString());
}
