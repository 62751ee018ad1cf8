// Golden bytes for the wire codec (perfsight/wire.h).
//
// Every other wire test is a round trip, which a self-consistent layout
// change passes.  These pin the exact encoded bytes of fixed inputs, so any
// change to the on-wire layout of a PSB1 batch, a stream-data frame (both
// snapshot and delta encodings) or an INT report fails here.
#include <gtest/gtest.h>

#include <string>

#include "perfsight/wire.h"

namespace perfsight {
namespace {

std::string hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

QueryResponse response(const std::string& element, int64_t ts_ns,
                       std::vector<Attr> attrs) {
  QueryResponse r;
  r.record.timestamp = SimTime::nanos(ts_ns);
  r.record.element = ElementId{element};
  r.record.attrs = std::move(attrs);
  r.response_time = Duration::nanos(2500);
  return r;
}

QueryResponse missing(const std::string& element) {
  QueryResponse r;
  r.record.element = ElementId{element};
  r.quality = DataQuality::kMissing;
  r.fail_code = StatusCode::kUnavailable;
  r.attempts = 3;
  r.response_time = Duration::nanos(9000);
  return r;
}

TEST(WireGoldenTest, BatchWithFreshAndMissingResponse) {
  BatchResponse b;
  b.responses.push_back(
      response("m0/tun", 1234000, {{"rxPkts", 42}, {"capacityMbps", 0.5}}));
  b.responses.push_back(missing("m0/vm1"));
  b.channel_time = Duration::nanos(77000);
  b.unknown_ids = 1;
  EXPECT_EQ(hex(wire::encode_batch(b).value()),
            "5053423102000000c82c0100000000000100000046000000a69d300218428475"
            "50d4120000000000000001000000c40900000000000006006d302f74756e0200"
            "06007278506b747300000000000045400c0063617061636974794d6270730000"
            "00000000e03f2000000031fe394504bcb4b60000000000000000030303000000"
            "282300000000000006006d302f766d310000");
}

// A snapshot frame, then a delta frame against it that exercises every
// value mode (0 absolute, 1 double delta, 2 u32 delta, 3 unchanged), an
// elided schema, a changed schema and an element new in this window.
TEST(WireGoldenTest, StreamSnapshotAndDeltaFrames) {
  wire::StreamDataMsg snap;
  snap.agent = "m0";
  snap.seq = 1;
  snap.window_start = SimTime::nanos(1000000);
  snap.channel_time = Duration::nanos(4200);
  snap.responses.push_back(response(
      "a/x", 1000000,
      {{"rxPkts", 100}, {"gauge", 0.5}, {"type", 3}, {"big", 1e300}}));
  snap.responses.push_back(response("b/y", 1000000, {{"rxPkts", 7}}));
  snap.responses.push_back(missing("c/z"));

  wire::StreamDataMsg delta = snap;
  delta.seq = 2;
  delta.window_start = SimTime::nanos(2000000);
  delta.responses[0] = response(
      "a/x", 2000000,
      {{"rxPkts", 150}, {"gauge", 0.75}, {"type", 3}, {"big", 1.0}});
  delta.responses[1] =
      response("b/y", 2000000, {{"rxPkts", 8}, {"txPkts", 3}});
  delta.responses.push_back(response("d/w", 2000000, {{"vm", -1}}));

  const std::string s = wire::encode_stream_data(snap, nullptr).value();
  const std::string d = wire::encode_stream_data(delta, &snap).value();
  EXPECT_EQ(hex(s),
            "02006d30010000000000000040420f0000000000681000000000000003000000"
            "40420f0000000000000001000000c4090000000000000300612f780400000600"
            "7278506b747300000000000059400005006761756765000000000000e03f0004"
            "007479706500000000000008400003006269679c7500883ce4377e40420f0000"
            "000000000001000000c4090000000000000300622f7901000006007278506b74"
            "730000000000001c400000000000000000030303000000282300000000000003"
            "00632f7a0000");
  EXPECT_EQ(hex(d),
            "02006d30020000000000000080841e0000000000681000000000000004000000"
            "80841e0000000000000001000000c4090000000000000300612f780480023200"
            "000001000000000000d03f0300000000000000f03f80841e0000000000000001"
            "000000c4090000000000000300622f7902000206007278506b74730100000000"
            "06007478506b7473000000000000084000000000000000000303030000002823"
            "0000000000000300632f7a008080841e0000000000000001000000c409000000"
            "0000000300642f770100000200766d000000000000f0bf");
}

TEST(WireGoldenTest, IntReport) {
  wire::IntReportMsg m;
  m.agent = "int";
  m.tag = 0x1122334455667788ULL;
  m.start = SimTime::nanos(5000);
  m.end = SimTime::nanos(9000);
  m.dropped = true;
  m.hops.push_back({ElementId{"m0/pnic"}, 12, 3400, 0});
  m.hops.push_back({ElementId{"m0/vm1/tun"}, 0, 150, 1});
  EXPECT_EQ(hex(wire::encode_int_report(m).value()),
            "0300696e74887766554433221188130000000000002823000000000000010200"
            "07006d302f706e69630c00000000000000480d000000000000000a006d302f76"
            "6d312f74756e0000000000000000960000000000000001");
}

}  // namespace
}  // namespace perfsight
