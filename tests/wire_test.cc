// Property/fuzz battery for the wire codec (perfsight/wire.h).
//
// The damage contract under test: decoding arbitrary bytes never crashes
// and never yields a silently wrong record.  Whatever decode_batch returns
// is always a verified prefix of what was encoded; everything lost is
// reported through DecodeStats and, via reconcile(), surfaces as kMissing
// blind spots rather than a silently shrunken batch.  All randomness comes
// from seeded Pcg32 draws — every run is bit-reproducible.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "perfsight/agent.h"
#include "perfsight/wire.h"

namespace perfsight {
namespace {

std::string random_name(Pcg32& rng, size_t max_len) {
  const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789/_-.";
  std::string s;
  size_t len = rng.next_below(static_cast<uint32_t>(max_len)) + 1;
  for (size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.next_below(sizeof(alphabet) - 1)]);
  }
  return s;
}

QueryResponse random_response(Pcg32& rng) {
  QueryResponse r;
  r.record.timestamp = SimTime::nanos(static_cast<int64_t>(rng.next_u32()) *
                                      static_cast<int64_t>(rng.next_u32() % 7));
  r.record.element = ElementId{random_name(rng, 24)};
  size_t attrs = rng.next_below(8);
  for (size_t i = 0; i < attrs; ++i) {
    double v = rng.uniform(-1e12, 1e12);
    if (rng.next_below(10) == 0) v = 0.0;
    r.record.attrs.push_back({random_name(rng, 16), v});
  }
  r.response_time = Duration::nanos(rng.next_below(1u << 30));
  switch (rng.next_below(4)) {
    case 0: r.quality = DataQuality::kFresh; break;
    case 1: r.quality = DataQuality::kStale; break;
    case 2: r.quality = DataQuality::kTorn; break;
    default: r.quality = DataQuality::kMissing; break;
  }
  r.attempts = rng.next_below(5);
  r.fail_code = r.quality == DataQuality::kMissing
                    ? StatusCode::kUnavailable
                    : StatusCode::kOk;
  return r;
}

BatchResponse random_batch(Pcg32& rng, size_t max_frames) {
  BatchResponse b;
  size_t n = rng.next_below(static_cast<uint32_t>(max_frames) + 1);
  for (size_t i = 0; i < n; ++i) b.responses.push_back(random_response(rng));
  b.channel_time = Duration::nanos(rng.next_below(1u << 28));
  b.unknown_ids = rng.next_below(4);
  return b;
}

// Canonical byte form of one response — the equality yardstick everywhere
// below (covers every field the codec carries, including NaN-free floats).
// Every response built in this file is encodable, so .value() is safe.
std::string canon(const QueryResponse& r) {
  return wire::encode_frame(r).value();
}

TEST(WireCodecTest, RoundTripIdentity) {
  Pcg32 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    BatchResponse b = random_batch(rng, 12);
    std::string bytes = wire::encode_batch(b).value();

    wire::DecodeStats st;
    Result<BatchResponse> got = wire::decode_batch(bytes, &st);
    ASSERT_TRUE(got.ok()) << got.status().message();
    ASSERT_TRUE(st.complete());
    EXPECT_EQ(st.frames_expected, b.responses.size());
    EXPECT_EQ(st.frames_ok, b.responses.size());

    const BatchResponse& d = got.value();
    ASSERT_EQ(d.responses.size(), b.responses.size());
    for (size_t i = 0; i < b.responses.size(); ++i) {
      EXPECT_EQ(canon(d.responses[i]), canon(b.responses[i]));
    }
    EXPECT_EQ(d.channel_time.ns(), b.channel_time.ns());
    EXPECT_EQ(d.unknown_ids, b.unknown_ids);
    // Re-encoding the decoded batch reproduces the original bytes exactly.
    EXPECT_EQ(wire::encode_batch(d).value(), bytes);
  }
}

TEST(WireCodecTest, EmptyBatchRoundTrips) {
  BatchResponse b;
  b.channel_time = Duration::micros(7);
  std::string bytes = wire::encode_batch(b).value();
  wire::DecodeStats st;
  Result<BatchResponse> got = wire::decode_batch(bytes, &st);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(st.complete());
  EXPECT_TRUE(got.value().responses.empty());
  EXPECT_EQ(got.value().channel_time.ns(), b.channel_time.ns());
}

TEST(WireCodecTest, TruncationIsDetected) {
  Pcg32 rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    BatchResponse b = random_batch(rng, 6);
    std::string bytes = wire::encode_batch(b).value();
    if (bytes.size() < 2) continue;
    // Every strict prefix: never crash, never fabricate a record.
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      wire::DecodeStats st;
      Result<BatchResponse> got =
          wire::decode_batch(std::string_view(bytes.data(), cut), &st);
      if (!got.ok()) continue;  // header didn't survive — fine.
      ASSERT_LE(got.value().responses.size(), b.responses.size());
      for (size_t i = 0; i < got.value().responses.size(); ++i) {
        EXPECT_EQ(canon(got.value().responses[i]), canon(b.responses[i]))
            << "cut=" << cut << ": decoded frame " << i
            << " is not the original — silent corruption";
      }
      if (got.value().responses.size() < b.responses.size()) {
        EXPECT_TRUE(st.truncated || st.corrupt)
            << "cut=" << cut << " lost frames without flagging damage";
        EXPECT_FALSE(st.complete());
      }
    }
  }
}

TEST(WireCodecTest, BitFlipNeverYieldsWrongRecord) {
  Pcg32 rng(4242);
  int damaged_detected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    BatchResponse b = random_batch(rng, 8);
    std::string bytes = wire::encode_batch(b).value();
    if (bytes.empty()) continue;
    std::string mutated = bytes;
    size_t pos = rng.next_below(static_cast<uint32_t>(mutated.size()));
    mutated[pos] = static_cast<char>(
        static_cast<unsigned char>(mutated[pos]) ^
        (1u << rng.next_below(8)));

    wire::DecodeStats st;
    Result<BatchResponse> got = wire::decode_batch(mutated, &st);
    if (!got.ok()) {
      ++damaged_detected;  // header damage is a hard error — acceptable.
      continue;
    }
    // Every returned record must be byte-identical to the corresponding
    // original: a flipped bit may shrink the batch, never rewrite it.
    // (A flip in the header's aux fields can legally alter channel_time /
    // unknown_ids — those are not checksummed records — but frames are.)
    ASSERT_LE(got.value().responses.size(), b.responses.size());
    for (size_t i = 0; i < got.value().responses.size(); ++i) {
      EXPECT_EQ(canon(got.value().responses[i]), canon(b.responses[i]))
          << "trial " << trial << ": bit flip at byte " << pos
          << " produced a silently wrong record";
    }
    if (got.value().responses.size() < b.responses.size()) {
      EXPECT_TRUE(st.truncated || st.corrupt);
      ++damaged_detected;
    }
  }
  // The fuzz loop must actually exercise the damage paths.
  EXPECT_GT(damaged_detected, 50);
}

TEST(WireCodecTest, GarbageDecodesSafely) {
  Pcg32 rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::string junk;
    size_t len = rng.next_below(256);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.next_below(256)));
    }
    wire::DecodeStats st;
    Result<BatchResponse> got = wire::decode_batch(junk, &st);
    if (got.ok()) {
      // Random bytes that pass the magic check can only yield frames whose
      // checksums verify — astronomically unlikely, but structurally legal.
      EXPECT_TRUE(st.frames_ok == got.value().responses.size());
    }
    // And the single-frame entry point.
    size_t consumed = 0;
    (void)wire::decode_frame(junk, &consumed);
    EXPECT_LE(consumed, junk.size());
  }
}

TEST(WireCodecTest, DecodeFrameRejectsEveryTruncation) {
  Pcg32 rng(11);
  QueryResponse r = random_response(rng);
  std::string frame = wire::encode_frame(r).value();
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    size_t consumed = 0;
    Result<QueryResponse> got =
        wire::decode_frame(std::string_view(frame.data(), cut), &consumed);
    EXPECT_FALSE(got.ok()) << "truncated frame (cut=" << cut << ") decoded";
  }
  size_t consumed = 0;
  Result<QueryResponse> got = wire::decode_frame(frame, &consumed);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(canon(got.value()), canon(r));
}

TEST(WireCodecTest, ReconcileMapsDamageToMissing) {
  // Build a batch for three known ids, truncate after the first frame, and
  // check the lost ids come back as kMissing with the failure metadata the
  // sequential path would synthesize.
  std::vector<ElementId> ids = {ElementId{"el-a"}, ElementId{"el-b"},
                                ElementId{"el-c"}};
  BatchResponse b;
  for (const ElementId& id : ids) {
    QueryResponse r;
    r.record.element = id;
    r.record.timestamp = SimTime::micros(5);
    r.record.attrs = {{"rxPkts", 42.0}};
    r.response_time = Duration::micros(3);
    b.responses.push_back(r);
  }
  b.channel_time = Duration::micros(9);

  std::string bytes = wire::encode_batch(b).value();
  // Find the end of frame 1: header is fixed-size, then len-prefixed frames.
  size_t header_size = wire::encode_batch(BatchResponse{}).value().size();
  uint32_t payload_len;
  std::memcpy(&payload_len, bytes.data() + header_size, sizeof(payload_len));
  size_t first_frame_end =
      header_size + sizeof(uint32_t) + sizeof(uint64_t) + payload_len;
  ASSERT_LT(first_frame_end, bytes.size());

  wire::DecodeStats st;
  Result<BatchResponse> got = wire::decode_batch(
      std::string_view(bytes.data(), first_frame_end), &st);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().responses.size(), 1u);
  EXPECT_TRUE(st.truncated);
  EXPECT_FALSE(st.complete());

  BatchResponse healed = wire::reconcile(ids, got.value());
  ASSERT_EQ(healed.responses.size(), ids.size());
  EXPECT_EQ(canon(healed.responses[0]), canon(b.responses[0]));
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(healed.responses[i].record.element, ids[i]);
    EXPECT_EQ(healed.responses[i].quality, DataQuality::kMissing);
    EXPECT_EQ(healed.responses[i].fail_code, StatusCode::kUnavailable);
    EXPECT_EQ(healed.responses[i].attempts, 1u);
  }
  EXPECT_EQ(healed.degraded, ids.size() - 1);
  EXPECT_EQ(healed.channel_time.ns(), got.value().channel_time.ns());
}

// Regression (silent-truncation bugfix): encode used to clamp names >64 KiB
// and attr lists >65535 to fit the u16 prefixes — the frame checksummed fine
// but decoded to a record different from what was encoded.  The contract is
// now round-trip identity or an explicit error, never a shrunken record.
TEST(WireCodecTest, OversizeInputIsRejectedNotClamped) {
  // Element name one past the u16 limit.
  {
    QueryResponse r;
    r.record.element = ElementId{std::string(0x10000, 'n')};
    Result<std::string> frame = wire::encode_frame(r);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  }
  // Attr name past the limit.
  {
    QueryResponse r;
    r.record.element = ElementId{"el"};
    r.record.attrs.push_back({std::string(0x10000, 'a'), 1.0});
    ASSERT_FALSE(wire::encode_frame(r).ok());
  }
  // More attrs than the u16 count can carry.
  {
    QueryResponse r;
    r.record.element = ElementId{"el"};
    r.record.attrs.resize(0x10000, {"a", 1.0});
    ASSERT_FALSE(wire::encode_frame(r).ok());
  }
  // A batch containing one unencodable frame fails whole — never a batch
  // with a silently dropped or shrunken member.
  {
    BatchResponse b;
    QueryResponse ok_r;
    ok_r.record.element = ElementId{"fine"};
    QueryResponse bad;
    bad.record.element = ElementId{std::string(0x10000, 'x')};
    b.responses.push_back(ok_r);
    b.responses.push_back(bad);
    ASSERT_FALSE(wire::encode_batch(b).ok());
  }
  // At the boundary (exactly 0xffff), encode succeeds and round-trips
  // byte-identical.
  {
    QueryResponse r;
    r.record.element = ElementId{std::string(0xffff, 'b')};
    Result<std::string> frame = wire::encode_frame(r);
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    size_t consumed = 0;
    Result<QueryResponse> back = wire::decode_frame(frame.value(), &consumed);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(consumed, frame.value().size());
    EXPECT_EQ(back.value().record.element.name.size(), 0xffffu);
    EXPECT_EQ(canon(back.value()), frame.value());
  }
}

// Regression (unsigned-underflow bugfix): the primitive reads computed
// `bytes.size() - at` unsigned, so a caller that over-advanced `at` — the
// streaming transport's length-chain reader is exactly such a caller — saw a
// wrapped-around huge remainder instead of a refusal.
TEST(WireCodecTest, PrimitiveReadsGuardOffsetPastEnd) {
  const std::string bytes = "\x01\x02\x03\x04\x05\x06\x07\x08";
  const size_t offsets[] = {bytes.size() + 1, bytes.size() + 1000,
                            static_cast<size_t>(-1), bytes.size()};
  for (size_t start : offsets) {
    size_t at = start;
    uint8_t v8 = 0;
    uint16_t v16 = 0;
    uint32_t v32 = 0;
    uint64_t v64 = 0;
    EXPECT_FALSE(wire::get_u8(bytes, at, &v8)) << "at=" << start;
    EXPECT_EQ(at, start) << "failed read must not move the cursor";
    EXPECT_FALSE(wire::get_u16(bytes, at, &v16));
    EXPECT_FALSE(wire::get_u32(bytes, at, &v32));
    EXPECT_FALSE(wire::get_u64(bytes, at, &v64));
    EXPECT_EQ(at, start);
  }
  // In-range reads still work and advance.
  size_t at = 0;
  uint32_t v32 = 0;
  ASSERT_TRUE(wire::get_u32(bytes, at, &v32));
  EXPECT_EQ(at, 4u);
  EXPECT_EQ(v32, 0x04030201u);

  // Fuzz the decoder with frames whose length prefixes point past the end
  // in every combination the guard must absorb.
  Pcg32 rng(31337);
  for (int trial = 0; trial < 300; ++trial) {
    std::string junk;
    size_t len = wire::kFramePrefixSize + rng.next_below(64);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.next_below(256)));
    }
    // Force a huge payload_len some of the time.
    if (trial % 3 == 0) {
      uint32_t huge = 0xffffff00u + rng.next_below(256);
      std::memcpy(junk.data(), &huge, sizeof(huge));
    }
    size_t consumed = 0;
    Result<QueryResponse> got = wire::decode_frame(junk, &consumed);
    if (got.ok()) EXPECT_LE(consumed, junk.size());
  }
}

// The PSM1 control-message envelope: round trip + damage refusal for every
// message the transport speaks.
TEST(WireMessageTest, ControlMessagesRoundTrip) {
  wire::HelloMsg hello{"agent-7", {ElementId{"a"}, ElementId{"b/c"}},
                       987654321};
  std::string m = wire::encode_message(wire::MessageKind::kHello,
                                       wire::encode_hello(hello));
  size_t consumed = 0;
  Result<wire::Message> got = wire::decode_message(m, &consumed);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(consumed, m.size());
  EXPECT_EQ(got.value().kind, wire::MessageKind::kHello);
  Result<wire::HelloMsg> h = wire::decode_hello(got.value().body);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value().agent_name, "agent-7");
  ASSERT_EQ(h.value().elements.size(), 2u);
  EXPECT_EQ(h.value().elements[1].name, "b/c");
  EXPECT_EQ(h.value().clock_ns, 987654321);

  wire::BatchRequestMsg req{SimTime::millis(12),
                            {ElementId{"x"}, ElementId{"y"}},
                            /*trace_id=*/0xdeadbeefcafef00dULL,
                            /*parent_span=*/42};
  Result<wire::BatchRequestMsg> r = wire::decode_batch_request(
      wire::encode_batch_request(req));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().now.ns(), SimTime::millis(12).ns());
  ASSERT_EQ(r.value().ids.size(), 2u);
  EXPECT_EQ(r.value().trace_id, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(r.value().parent_span, 42u);

  wire::ErrorMsg err{StatusCode::kNotFound, "agent a: no element z"};
  Result<wire::ErrorMsg> ed = wire::decode_error(wire::encode_error(err));
  ASSERT_TRUE(ed.ok());
  EXPECT_EQ(ed.value().code, StatusCode::kNotFound);
  EXPECT_EQ(ed.value().message, "agent a: no element z");

  // Damage: every strict prefix of the envelope is refused, and a body bit
  // flip fails the checksum.
  for (size_t cut = 0; cut < m.size(); ++cut) {
    EXPECT_FALSE(wire::decode_message(std::string_view(m.data(), cut)).ok());
  }
  std::string flipped = m;
  flipped.back() = static_cast<char>(flipped.back() ^ 1);
  EXPECT_FALSE(wire::decode_message(flipped).ok());
}

// Fleet extensions ride BEHIND the original fields, and only when present:
// a single-agent hello and an unrouted request encode byte-identical to the
// pre-fleet protocol, so old and new peers interoperate in both directions.
TEST(WireMessageTest, FleetRosterAndRoutingRoundTripBackCompatible) {
  // Multi-agent hello: the roster round-trips, names and element sets.
  wire::HelloMsg fleet;
  fleet.agent_name = "primary";
  fleet.elements = {ElementId{"p/0"}, ElementId{"p/1"}};
  fleet.clock_ns = 1234;
  fleet.roster.push_back({"primary", fleet.elements});
  fleet.roster.push_back({"second", {ElementId{"s/0"}}});
  fleet.roster.push_back({"third", {}});
  Result<wire::HelloMsg> fd = wire::decode_hello(wire::encode_hello(fleet));
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fd.value().agent_name, "primary");
  ASSERT_EQ(fd.value().roster.size(), 3u);
  EXPECT_EQ(fd.value().roster[1].name, "second");
  ASSERT_EQ(fd.value().roster[1].elements.size(), 1u);
  EXPECT_EQ(fd.value().roster[1].elements[0].name, "s/0");
  EXPECT_TRUE(fd.value().roster[2].elements.empty());

  // Single-agent hello: the roster section is NOT emitted — the bytes are
  // exactly the pre-roster encoding, and decode yields an empty roster.
  wire::HelloMsg solo;
  solo.agent_name = "primary";
  solo.elements = fleet.elements;
  solo.clock_ns = 1234;
  wire::HelloMsg solo_with_self = solo;
  solo_with_self.roster.push_back({"primary", solo.elements});
  EXPECT_EQ(wire::encode_hello(solo_with_self), wire::encode_hello(solo));
  Result<wire::HelloMsg> sd = wire::decode_hello(wire::encode_hello(solo));
  ASSERT_TRUE(sd.ok());
  EXPECT_TRUE(sd.value().roster.empty());

  // A torn roster section is damage, not an empty roster.
  std::string torn = wire::encode_hello(fleet);
  torn.resize(torn.size() - 3);
  EXPECT_FALSE(wire::decode_hello(torn).ok());

  // Routed batch request: the agent name rides behind the trace context.
  wire::BatchRequestMsg routed{SimTime::millis(5),
                               {ElementId{"x"}},
                               /*trace_id=*/1,
                               /*parent_span=*/2,
                               /*agent=*/"second"};
  Result<wire::BatchRequestMsg> rd =
      wire::decode_batch_request(wire::encode_batch_request(routed));
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd.value().agent, "second");

  // Unrouted: not one extra byte versus the old format, and the old decoder
  // semantics (empty agent = primary) fall out of decode.
  wire::BatchRequestMsg unrouted = routed;
  unrouted.agent.clear();
  const std::string old_format = wire::encode_batch_request(unrouted);
  EXPECT_LT(old_format.size(), wire::encode_batch_request(routed).size());
  Result<wire::BatchRequestMsg> od = wire::decode_batch_request(old_format);
  ASSERT_TRUE(od.ok());
  EXPECT_TRUE(od.value().agent.empty());
  // Trailing garbage after the agent field is damage, not ignored.
  EXPECT_FALSE(
      wire::decode_batch_request(wire::encode_batch_request(routed) + "!")
          .ok());
}

// Harvested trace rings cross the wire losslessly — span links, durations,
// value bits and both strings — and the decoder refuses structural damage.
TEST(WireMessageTest, TraceDataRoundTripsAndRefusesDamage) {
  wire::TraceDataMsg td;
  td.process = "agent-7";
  TraceEvent point;
  point.t = SimTime::micros(5);
  point.kind = TraceEventKind::kDrop;
  point.value = 3.5;
  point.element = "mbox0";
  point.detail = "tail drop";
  td.events.push_back(point);
  TraceEvent span;
  span.t = SimTime::micros(9);
  span.kind = TraceEventKind::kSpanServerBatch;
  span.value = 64;
  span.element = "agent-7/serve";
  span.detail = "batch";
  span.span_id = (uint64_t(0x00a7) << 48) | 17;
  span.parent_span = 3;
  span.dur = Duration::micros(250);
  td.events.push_back(span);

  const std::string body = wire::encode_trace_data(td);
  Result<wire::TraceDataMsg> got = wire::decode_trace_data(body);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().process, "agent-7");
  ASSERT_EQ(got.value().events.size(), 2u);
  const TraceEvent& p = got.value().events[0];
  EXPECT_EQ(p.t.ns(), SimTime::micros(5).ns());
  EXPECT_EQ(p.kind, TraceEventKind::kDrop);
  EXPECT_EQ(p.value, 3.5);
  EXPECT_EQ(p.element, "mbox0");
  EXPECT_EQ(p.detail, "tail drop");
  EXPECT_FALSE(p.is_span());
  const TraceEvent& s = got.value().events[1];
  EXPECT_EQ(s.span_id, span.span_id);
  EXPECT_EQ(s.parent_span, 3u);
  EXPECT_EQ(s.dur.ns(), Duration::micros(250).ns());
  EXPECT_TRUE(s.is_span());

  // An empty harvest is legal (nothing recorded since the last drain).
  wire::TraceDataMsg empty;
  empty.process = "agent-7";
  Result<wire::TraceDataMsg> e =
      wire::decode_trace_data(wire::encode_trace_data(empty));
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.value().events.empty());

  // Damage: every strict prefix is refused, trailing bytes are refused, an
  // out-of-range event kind is refused, and a corrupted event count cannot
  // force a huge reserve.
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(
        wire::decode_trace_data(std::string_view(body.data(), cut)).ok());
  }
  EXPECT_FALSE(wire::decode_trace_data(body + "x").ok());
  std::string bad_kind = body;
  // kind byte of event 0 sits after process string + u32 count + i64 t.
  const size_t kind_at = 2 + td.process.size() + 4 + 8;
  bad_kind[kind_at] = static_cast<char>(0xee);
  EXPECT_FALSE(wire::decode_trace_data(bad_kind).ok());
  std::string bad_count = body;
  const uint32_t huge = 0xfffffff0u;
  std::memcpy(bad_count.data() + 2 + td.process.size(), &huge, sizeof(huge));
  EXPECT_FALSE(wire::decode_trace_data(bad_count).ok());

  // And the envelope accepts the two new kinds.
  for (wire::MessageKind k : {wire::MessageKind::kTraceHarvest,
                              wire::MessageKind::kTraceData}) {
    Result<wire::Message> menv =
        wire::decode_message(wire::encode_message(k, body));
    ASSERT_TRUE(menv.ok());
    EXPECT_EQ(menv.value().kind, k);
  }
}

TEST(WireCodecTest, ChecksumIsFnv1a64) {
  // Pin the hash so the wire format can't silently change: standard FNV-1a
  // test vectors.
  EXPECT_EQ(wire::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(wire::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(wire::fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(wire::kMagic, 0x31425350u);
}

// --- kSubscribe / kStreamData codec ------------------------------------------

wire::StreamDataMsg random_stream_frame(Pcg32& rng, uint64_t seq) {
  wire::StreamDataMsg m;
  m.agent = random_name(rng, 12);
  m.seq = seq;
  m.window_start = SimTime::nanos(static_cast<int64_t>(rng.next_u32()) * 100);
  m.channel_time = Duration::nanos(rng.next_below(1u << 26));
  size_t n = rng.next_below(6);
  for (size_t i = 0; i < n; ++i) m.responses.push_back(random_response(rng));
  return m;
}

// The next window of the same stream: same elements, counters advanced by
// small integral deltas — the shape the delta coder is built for.
wire::StreamDataMsg next_window(Pcg32& rng, const wire::StreamDataMsg& prev) {
  wire::StreamDataMsg m = prev;
  m.seq = prev.seq + 1;
  m.window_start = prev.window_start + Duration::millis(100);
  for (QueryResponse& r : m.responses) {
    r.record.timestamp = m.window_start;
    for (Attr& a : r.record.attrs) {
      a.value += static_cast<double>(rng.next_below(100000));
    }
  }
  return m;
}

// Canonical byte form of one stream frame: its all-absolute encoding.  Two
// frames are equal iff their snapshots are byte-equal — covers agent, seq,
// window, channel time, and every record bit.
std::string canon_stream(const wire::StreamDataMsg& m) {
  return wire::encode_stream_data(m, nullptr).value();
}

TEST(StreamCodecTest, SubscribeRoundTrips) {
  Pcg32 rng(808);
  for (int trial = 0; trial < 50; ++trial) {
    wire::SubscribeMsg s;
    s.agent = trial % 5 == 0 ? "" : random_name(rng, 20);
    s.from_seq = (static_cast<uint64_t>(rng.next_u32()) << 32) | rng.next_u32();
    s.window_ns = static_cast<int64_t>(rng.next_u32());
    Result<wire::SubscribeMsg> got =
        wire::decode_subscribe(wire::encode_subscribe(s));
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got.value().agent, s.agent);
    EXPECT_EQ(got.value().from_seq, s.from_seq);
    EXPECT_EQ(got.value().window_ns, s.window_ns);
  }
}

TEST(StreamCodecTest, RoundTripIdentitySnapshotAndDeltaChains) {
  Pcg32 rng(6060);
  for (int trial = 0; trial < 60; ++trial) {
    // Snapshot (no base) round-trips.
    wire::StreamDataMsg f1 = random_stream_frame(rng, 1);
    Result<std::string> b1 = wire::encode_stream_data(f1, nullptr);
    ASSERT_TRUE(b1.ok()) << b1.status().message();
    Result<wire::StreamDataMsg> d1 = wire::decode_stream_data(b1.value(), nullptr);
    ASSERT_TRUE(d1.ok()) << d1.status().message();
    EXPECT_EQ(canon_stream(d1.value()), canon_stream(f1));

    // A chain of delta-coded windows round-trips frame by frame, and the
    // delta form really is smaller than the snapshot form for counter-like
    // updates (that is the point of push mode).
    wire::StreamDataMsg prev = f1;
    size_t delta_bytes = 0, snapshot_bytes = 0;
    for (int k = 0; k < 4; ++k) {
      wire::StreamDataMsg cur = next_window(rng, prev);
      Result<std::string> body = wire::encode_stream_data(cur, &prev);
      ASSERT_TRUE(body.ok()) << body.status().message();
      Result<wire::StreamDataMsg> got =
          wire::decode_stream_data(body.value(), &prev);
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(canon_stream(got.value()), canon_stream(cur))
          << "trial " << trial << " chain step " << k;
      delta_bytes += body.value().size();
      snapshot_bytes += canon_stream(cur).size();
      prev = cur;
    }
    if (!f1.responses.empty()) EXPECT_LE(delta_bytes, snapshot_bytes);
  }
}

TEST(StreamCodecTest, EveryPrefixTruncationNeverSilentlyWrong) {
  Pcg32 rng(71);
  for (int trial = 0; trial < 25; ++trial) {
    wire::StreamDataMsg f1 = random_stream_frame(rng, 1);
    wire::StreamDataMsg f2 = next_window(rng, f1);
    for (const bool delta : {false, true}) {
      const wire::StreamDataMsg* prev = delta ? &f1 : nullptr;
      const wire::StreamDataMsg& m = delta ? f2 : f1;
      std::string bytes = wire::encode_stream_data(m, prev).value();
      for (size_t cut = 0; cut < bytes.size(); ++cut) {
        Result<wire::StreamDataMsg> got = wire::decode_stream_data(
            std::string_view(bytes.data(), cut), prev);
        // A strict prefix must never decode to anything but the original
        // (and with a fixed record count in the header it should fail).
        if (got.ok()) {
          EXPECT_EQ(canon_stream(got.value()), canon_stream(m))
              << "cut=" << cut << " fabricated a frame";
        }
      }
    }
  }
}

TEST(StreamCodecTest, BitFlipOnEnvelopedFrameNeverSilentlyWrong) {
  Pcg32 rng(4343);
  int damaged_detected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    wire::StreamDataMsg f1 = random_stream_frame(rng, 1);
    wire::StreamDataMsg f2 = next_window(rng, f1);
    const bool delta = trial % 2 != 0;
    const wire::StreamDataMsg& sent = delta ? f2 : f1;
    std::string body =
        wire::encode_stream_data(sent, delta ? &f1 : nullptr).value();
    std::string msg = wire::encode_message(wire::MessageKind::kStreamData, body);
    size_t pos = rng.next_below(static_cast<uint32_t>(msg.size()));
    msg[pos] = static_cast<char>(static_cast<unsigned char>(msg[pos]) ^
                                 (1u << rng.next_below(8)));

    Result<wire::Message> env = wire::decode_message(msg);
    if (!env.ok() || env.value().kind != wire::MessageKind::kStreamData) {
      ++damaged_detected;  // checksum/framing caught it (or re-kinded it)
      continue;
    }
    Result<wire::StreamDataMsg> got =
        wire::decode_stream_data(env.value().body, delta ? &f1 : nullptr);
    if (!got.ok()) {
      ++damaged_detected;
      continue;
    }
    // The envelope checksum passed and the frame decoded: it must BE the
    // original, bit for bit.
    EXPECT_EQ(canon_stream(got.value()), canon_stream(sent))
        << "trial " << trial << ": flip at byte " << pos
        << " survived the checksum AND the frame decode";
  }
  EXPECT_GT(damaged_detected, 250);
}

TEST(StreamCodecTest, DeltaWithoutBaseIsStructuralDamage) {
  // Construct a frame guaranteed to carry delta-mode attrs (integral
  // counters advance by an exactly-representable step).
  wire::StreamDataMsg f1;
  f1.agent = "a0";
  f1.seq = 1;
  f1.window_start = SimTime::millis(100);
  QueryResponse r;
  r.record.timestamp = f1.window_start;
  r.record.element = ElementId{"m0/pnic"};
  r.record.attrs = {{"rxPkts", 12000.0}, {"dropPkts", 800.0}};
  f1.responses.push_back(r);
  wire::StreamDataMsg f2 = f1;
  f2.seq = 2;
  f2.window_start = SimTime::millis(200);
  f2.responses[0].record.timestamp = f2.window_start;
  f2.responses[0].record.attrs = {{"rxPkts", 24000.0}, {"dropPkts", 1600.0}};

  std::string delta_body = wire::encode_stream_data(f2, &f1).value();
  // With the base, the delta frame reconstructs exactly.
  Result<wire::StreamDataMsg> with_base =
      wire::decode_stream_data(delta_body, &f1);
  ASSERT_TRUE(with_base.ok());
  EXPECT_EQ(canon_stream(with_base.value()), canon_stream(f2));
  // The delta form must actually be in play for this test to mean anything.
  ASSERT_LT(delta_body.size(), canon_stream(f2).size());

  // Without the base the same bytes are structural damage, never a guess.
  Result<wire::StreamDataMsg> without_base =
      wire::decode_stream_data(delta_body, nullptr);
  ASSERT_FALSE(without_base.ok());
  EXPECT_NE(without_base.status().message().find("delta without base"),
            std::string::npos)
      << without_base.status().message();
}

// --- kIntReport codec --------------------------------------------------------

wire::IntReportMsg random_int_report(Pcg32& rng) {
  wire::IntReportMsg m;
  m.agent = rng.next_below(6) == 0 ? "" : random_name(rng, 20);
  m.tag = (static_cast<uint64_t>(rng.next_u32()) << 32) | rng.next_u32();
  m.start = SimTime::nanos(static_cast<int64_t>(rng.next_u32()));
  m.end = m.start + Duration::nanos(rng.next_below(1u << 20));
  m.dropped = rng.next_below(4) == 0;
  size_t hops = rng.next_below(9);
  for (size_t i = 0; i < hops; ++i) {
    wire::IntHopWire h;
    h.element = ElementId{random_name(rng, 24)};
    h.queue_pkts = rng.next_below(1u << 16);
    h.io_time_ns = static_cast<int64_t>(rng.next_below(1u << 24));
    h.flags = (m.dropped && i + 1 == hops) ? 1 : 0;
    m.hops.push_back(h);
  }
  return m;
}

std::string canon_int(const wire::IntReportMsg& m) {
  return wire::encode_int_report(m).value();
}

TEST(IntReportCodecTest, RoundTripIdentity) {
  Pcg32 rng(2727);
  for (int trial = 0; trial < 100; ++trial) {
    wire::IntReportMsg m = random_int_report(rng);
    Result<std::string> body = wire::encode_int_report(m);
    ASSERT_TRUE(body.ok()) << body.status().message();
    Result<wire::IntReportMsg> got = wire::decode_int_report(body.value());
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got.value().agent, m.agent);
    EXPECT_EQ(got.value().tag, m.tag);
    EXPECT_EQ(got.value().start, m.start);
    EXPECT_EQ(got.value().end, m.end);
    EXPECT_EQ(got.value().dropped, m.dropped);
    ASSERT_EQ(got.value().hops.size(), m.hops.size());
    EXPECT_EQ(canon_int(got.value()), canon_int(m)) << "trial " << trial;
  }
}

TEST(IntReportCodecTest, EveryPrefixTruncationFails) {
  Pcg32 rng(929);
  for (int trial = 0; trial < 25; ++trial) {
    wire::IntReportMsg m = random_int_report(rng);
    std::string bytes = wire::encode_int_report(m).value();
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      Result<wire::IntReportMsg> got =
          wire::decode_int_report(std::string_view(bytes.data(), cut));
      // The layout is fully length-pinned (string lengths + hop count), so
      // no strict prefix can be a valid report.
      EXPECT_FALSE(got.ok()) << "trial " << trial << " cut=" << cut
                             << " decoded a truncated report";
    }
    // Trailing garbage is damage too.
    Result<wire::IntReportMsg> longer = wire::decode_int_report(bytes + "x");
    EXPECT_FALSE(longer.ok());
  }
}

TEST(IntReportCodecTest, BitFlipOnEnvelopedReportNeverSilentlyWrong) {
  Pcg32 rng(1717);
  int damaged_detected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    wire::IntReportMsg sent = random_int_report(rng);
    std::string body = wire::encode_int_report(sent).value();
    std::string msg =
        wire::encode_message(wire::MessageKind::kIntReport, body);
    size_t pos = rng.next_below(static_cast<uint32_t>(msg.size()));
    msg[pos] = static_cast<char>(static_cast<unsigned char>(msg[pos]) ^
                                 (1u << rng.next_below(8)));

    Result<wire::Message> env = wire::decode_message(msg);
    if (!env.ok() || env.value().kind != wire::MessageKind::kIntReport) {
      ++damaged_detected;
      continue;
    }
    Result<wire::IntReportMsg> got =
        wire::decode_int_report(env.value().body);
    if (!got.ok()) {
      ++damaged_detected;
      continue;
    }
    EXPECT_EQ(canon_int(got.value()), canon_int(sent))
        << "trial " << trial << ": flip at byte " << pos
        << " survived the checksum AND the report decode";
  }
  EXPECT_GT(damaged_detected, 250);
}

TEST(IntReportCodecTest, ReservedFlagBitsAreStructuralDamage) {
  wire::IntReportMsg m;
  m.agent = "a0/int";
  m.tag = 7;
  m.start = SimTime::millis(100);
  m.end = SimTime::millis(101);
  wire::IntHopWire h;
  h.element = ElementId{"m0/pnic"};
  h.queue_pkts = 12;
  h.io_time_ns = 500;
  m.hops.push_back(h);
  std::string bytes = wire::encode_int_report(m).value();
  // Message flags byte sits after agent (2 + len) + tag(8) + times(16).
  const size_t msg_flags_at = 2 + m.agent.size() + 8 + 16;
  for (int bit = 1; bit < 8; ++bit) {
    std::string bad = bytes;
    bad[msg_flags_at] =
        static_cast<char>(static_cast<unsigned char>(bad[msg_flags_at]) |
                          (1u << bit));
    EXPECT_FALSE(wire::decode_int_report(bad).ok()) << "msg bit " << bit;
  }
  // Hop flags is the last byte of the body.
  for (int bit = 1; bit < 8; ++bit) {
    std::string bad = bytes;
    bad.back() = static_cast<char>(
        static_cast<unsigned char>(bad.back()) | (1u << bit));
    EXPECT_FALSE(wire::decode_int_report(bad).ok()) << "hop bit " << bit;
  }
  // Oversize inputs are rejected, never clamped.
  wire::IntReportMsg big = m;
  big.agent.assign(70000, 'x');
  EXPECT_FALSE(wire::encode_int_report(big).ok());
}

TEST(StreamCodecTest, PeekPinsSeqAgentWindowAndCount) {
  Pcg32 rng(512);
  wire::StreamDataMsg prev;
  bool has_prev = false;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    wire::StreamDataMsg m =
        has_prev ? next_window(rng, prev) : random_stream_frame(rng, 1);
    std::string body =
        wire::encode_stream_data(m, has_prev ? &prev : nullptr).value();
    Result<wire::StreamFrameInfo> info = wire::peek_stream_data(body);
    ASSERT_TRUE(info.ok()) << info.status().message();
    EXPECT_EQ(info.value().agent, m.agent);
    EXPECT_EQ(info.value().seq, m.seq);
    EXPECT_EQ(info.value().window_start, m.window_start);
    EXPECT_EQ(info.value().record_count, m.responses.size());
    prev = m;
    has_prev = true;
  }
  // Peek on garbage never crashes and never invents a frame.
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk;
    size_t len = rng.next_below(64);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.next_below(256)));
    }
    (void)wire::peek_stream_data(junk);  // must not crash
  }
}

}  // namespace
}  // namespace perfsight
