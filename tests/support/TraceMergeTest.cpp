//===- TraceMergeTest.cpp - Fleet trace fragment merger ---------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The actrace merge step on synthetic fragments: per-process pid lanes
/// get process_name metadata from the fragment's role, timestamps rebase
/// onto the earliest wall-clock anchor, rule profiles and drop counters
/// sum, and malformed fragments fail loudly instead of producing a
/// silently partial trace.
///
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/TraceMerge.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ac::support;

namespace {

/// One synthetic single-event fragment, the shape Trace::exportJson
/// emits: a complete event on \p Pid at \p TsUs, a role, a wall-clock
/// anchor in microseconds.
std::string fragment(int Pid, const std::string &Role, double AnchorUs,
                     double TsUs, const std::string &TraceId,
                     const std::string &Span, const std::string &Parent) {
  Json E = Json::object();
  E.set("name", "synthetic.span");
  E.set("cat", "ac");
  E.set("ph", "X");
  E.set("ts", TsUs);
  E.set("dur", 10.0);
  E.set("pid", Pid);
  E.set("tid", 1);
  Json Args = Json::object();
  Args.set("trace_id", TraceId);
  Args.set("span", Span);
  if (!Parent.empty())
    Args.set("parent", Parent);
  E.set("args", std::move(Args));
  Json Events = Json::array();
  Events.push(std::move(E));
  Json Root = Json::object();
  Root.set("traceEvents", std::move(Events));
  Root.set("displayTimeUnit", "ms");
  Json RP = Json::object();
  Json R = Json::object();
  R.set("fires", 2);
  R.set("misses", 1);
  R.set("ns", 500);
  RP.set("WA.synthetic", std::move(R));
  Root.set("ruleProfile", std::move(RP));
  Json Other = Json::object();
  Other.set("role", Role);
  Other.set("anchorUnixUs", AnchorUs);
  Other.set("droppedEvents", 3);
  Root.set("otherData", std::move(Other));
  return Root.dump();
}

Json mergeOk(const std::vector<std::string> &Frags) {
  std::string Merged, Err;
  EXPECT_TRUE(mergeTraceFragments(Frags, Merged, Err)) << Err;
  Json J;
  EXPECT_TRUE(Json::parse(Merged, J, Err)) << Err;
  return J;
}

} // namespace

TEST(TraceMerge, PidLanesGetRoleNamesAndOneTimeline) {
  // Three processes; the client booted 1000 µs before the shard and
  // 2000 µs before the cache (wall-clock anchors).
  Json J = mergeOk({
      fragment(100, "client", 1000000, 50, "t-1", "101", ""),
      fragment(200, "shard", 1001000, 50, "t-1", "201", "101"),
      fragment(300, "cache", 1002000, 50, "t-1", "301", "201"),
  });
  ASSERT_TRUE(J.get("traceEvents").isArray());

  int Meta = 0, Spans = 0;
  double ClientTs = -1, ShardTs = -1, CacheTs = -1;
  for (const Json &E : J.get("traceEvents").items()) {
    if (E.get("ph").asString() == "M") {
      ++Meta;
      EXPECT_EQ(E.get("name").asString(), "process_name");
      const std::string &Role = E.get("args").get("name").asString();
      EXPECT_TRUE(Role == "client" || Role == "shard" || Role == "cache")
          << Role;
      continue;
    }
    ++Spans;
    double Ts = E.get("ts").asNumber();
    switch (static_cast<int>(E.get("pid").asNumber())) {
    case 100:
      ClientTs = Ts;
      break;
    case 200:
      ShardTs = Ts;
      break;
    case 300:
      CacheTs = Ts;
      break;
    }
  }
  EXPECT_EQ(Meta, 3);  // one lane label per process
  EXPECT_EQ(Spans, 3);
  // Rebased onto the earliest anchor: the shard's event lands 1000 µs
  // after the client's, the cache's 2000 µs after.
  EXPECT_DOUBLE_EQ(ClientTs, 50);
  EXPECT_DOUBLE_EQ(ShardTs, 1050);
  EXPECT_DOUBLE_EQ(CacheTs, 2050);
  EXPECT_EQ(J.get("otherData").get("mergedFragments").asInt(), 3);
}

TEST(TraceMerge, RuleProfilesAndDropCountersSum) {
  Json J = mergeOk({
      fragment(1, "shard", 0, 0, "t-2", "11", ""),
      fragment(2, "shard", 0, 0, "t-2", "12", "11"),
  });
  const Json &R = J.get("ruleProfile").get("WA.synthetic");
  ASSERT_TRUE(R.isObject());
  EXPECT_EQ(R.get("fires").asInt(), 4);
  EXPECT_EQ(R.get("misses").asInt(), 2);
  EXPECT_EQ(R.get("ns").asInt(), 1000);
  EXPECT_EQ(J.get("otherData").get("droppedEvents").asInt(), 6);
}

TEST(TraceMerge, EmptyFragmentsAreSkippedNotFatal) {
  Json J = mergeOk({
      "",
      fragment(7, "client", 0, 5, "t-3", "71", ""),
      "",
  });
  EXPECT_EQ(J.get("otherData").get("mergedFragments").asInt(), 1);
}

TEST(TraceMerge, MalformedFragmentFailsLoudly) {
  std::string Merged, Err;
  EXPECT_FALSE(mergeTraceFragments({"{not json"}, Merged, Err));
  EXPECT_FALSE(Err.empty());
  Err.clear();
  EXPECT_FALSE(mergeTraceFragments({"{\"noEvents\":1}"}, Merged, Err));
  EXPECT_NE(Err.find("traceEvents"), std::string::npos);
}
