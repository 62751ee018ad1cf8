#include "perfsight/stats.h"

#include <gtest/gtest.h>

#include <limits>

#include "perfsight/counters.h"
#include "perfsight/json_export.h"
#include "perfsight/topology.h"

namespace perfsight {
namespace {

TEST(CounterTest, Monotone) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(5);
  c.increment();
  EXPECT_EQ(c.value(), 6u);
}

TEST(IoTimeCounterTest, AccumulatesSimAndRawTime) {
  IoTimeCounter t;
  t.add(Duration::micros(3));
  t.add_nanos(500);
  EXPECT_EQ(t.nanos(), 3500u);
  EXPECT_EQ(t.total().ns(), 3500);
}

TEST(ScopedIoTimerTest, RecordsElapsedWallTime) {
  IoTimeCounter t;
  {
    ScopedIoTimer timer(t);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_GT(t.nanos(), 0u);
}

TEST(StatsRecordTest, GetAndSet) {
  StatsRecord r;
  r.set("rxPkts", 42);
  r.set("rxPkts", 43);  // overwrite
  r.set("txPkts", 7);
  EXPECT_EQ(r.get("rxPkts"), 43.0);
  EXPECT_EQ(r.get_or("missing", -1), -1.0);
  EXPECT_EQ(r.attrs.size(), 2u);
}

TEST(WireFormatTest, SerializesPaperFormat) {
  StatsRecord r;
  r.timestamp = SimTime::nanos(1234000);
  r.element = ElementId{"eth0"};
  r.attrs = {{"Rx bytes", 100}, {"Tx bytes", 200}};
  EXPECT_EQ(to_wire(r), "<1234000, eth0, (Rx bytes, 100), (Tx bytes, 200)>");
}

// NaN, ±inf and values outside long long's range must render without an
// undefined double->integer cast: built with -fsanitize=float-cast-overflow
// (the CI sanitizer job) this fails if a cast runs before its range check.
// The renderings themselves are pinned byte for byte.
TEST(NumberRenderingTest, NonFiniteAndHugeValues) {
  StatsRecord r;
  r.timestamp = SimTime::nanos(1);
  r.element = ElementId{"e"};
  r.attrs = {{"nan", std::numeric_limits<double>::quiet_NaN()},
             {"inf", std::numeric_limits<double>::infinity()},
             {"-inf", -std::numeric_limits<double>::infinity()},
             {"big", 1e300},
             {"-big", -1e300},
             {"min", -0x1p63},
             {"2^63", 0x1p63}};
  EXPECT_EQ(to_wire(r),
            "<1, e, (nan, nan), (inf, inf), (-inf, -inf), (big, 1e+300), "
            "(-big, -1e+300), (min, -9223372036854775808), "
            "(2^63, 9.22337204e+18)>");

  EXPECT_EQ(json::number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(json::number(-1e300), "-1.0000000000000001e+300");
  EXPECT_EQ(json::number(-0x1p63), "-9.2233720368547758e+18");
  EXPECT_EQ(json::number(8.0e15), "8000000000000000");
}

TEST(ProjectTest, SelectsRequestedAttrsInOrder) {
  StatsRecord r;
  r.attrs = {{"a", 1}, {"b", 2}, {"c", 3}};
  StatsRecord p = project(r, {"c", "a", "zz"});
  ASSERT_EQ(p.attrs.size(), 2u);
  EXPECT_EQ(p.attrs[0].name, "c");
  EXPECT_EQ(p.attrs[1].name, "a");
}

TEST(ChainTopologyTest, SuccessorsTransitive) {
  ChainTopology t;
  ElementId a{"a"}, b{"b"}, c{"c"}, nfs{"nfs"};
  t.add_edge(a, b);
  t.add_edge(b, c);
  t.add_edge(b, nfs);  // branch
  auto succ = t.successors(a);
  EXPECT_EQ(succ.size(), 3u);
  EXPECT_TRUE(succ.count(c));
  EXPECT_TRUE(succ.count(nfs));
  EXPECT_FALSE(succ.count(a));
}

TEST(ChainTopologyTest, PredecessorsTransitive) {
  ChainTopology t;
  ElementId a{"a"}, b{"b"}, c{"c"};
  t.add_edge(a, b);
  t.add_edge(b, c);
  auto pred = t.predecessors(c);
  EXPECT_EQ(pred.size(), 2u);
  EXPECT_TRUE(pred.count(a));
  EXPECT_TRUE(pred.count(b));
}

TEST(ChainTopologyTest, IsolatedNode) {
  ChainTopology t;
  ElementId x{"x"};
  t.add_node(x);
  EXPECT_TRUE(t.has_node(x));
  EXPECT_TRUE(t.successors(x).empty());
  EXPECT_TRUE(t.predecessors(x).empty());
}

}  // namespace
}  // namespace perfsight
