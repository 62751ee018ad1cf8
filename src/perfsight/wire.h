// Length-prefixed binary framing for agent→controller batch responses, plus
// the request/hello/error envelopes the socket transport speaks.
//
// The in-process batch path (Agent::query_batch) amortises channel round
// trips; a *remote* controller needs the same amortisation across a real
// socket.  This codec frames a BatchResponse — each element's StatsRecord
// qualified with DataQuality / attempts / modelled latency — so one write()
// carries a whole batch and the receiving side can stream-decode it.
//
// Stream layout (all integers little-endian):
//
//   batch  := header frame*
//   header := u32 magic ("PSB1") | u32 frame_count | u64 channel_time_ns |
//             u32 unknown_ids
//   frame  := u32 payload_len | u64 fnv1a64(payload) | payload
//   payload:= i64 timestamp_ns | u8 quality | u8 fail_code | u32 attempts |
//             i64 response_time_ns | u16 name_len | name bytes |
//             u16 attr_count | { u16 len | name bytes | f64 value }*
//
// Control messages (requests, the connect-time hello, and error replies)
// travel in a separate checksummed envelope:
//
//   message := u32 magic ("PSM1") | u8 kind | u32 body_len |
//              u64 fnv1a64(body) | body
//
// Damage contract (what the property/fuzz suite locks down): decoding
// arbitrary bytes never crashes and never yields a silently wrong record.
// Every frame is guarded by a checksum over its payload; a frame that fails
// the checksum — or whose length prefix runs past the buffer — poisons the
// remainder of the stream (the length chain is untrustworthy past it), so
// the decoder stops and reports how much survived.  Callers map the damage
// to DataQuality with reconcile(): every element they asked for comes back,
// lost ones as kMissing blind spots.
//
// The encode side upholds the mirror contract: input that cannot travel
// losslessly (names longer than a u16, more than 65535 attrs, a payload
// past the structural cap) is *rejected* with a Status — never clamped to
// fit.  A frame that encodes always decodes back byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "perfsight/agent.h"
#include "perfsight/trace.h"

namespace perfsight::wire {

inline constexpr uint32_t kMagic = 0x31425350;         // "PSB1"
inline constexpr uint32_t kMessageMagic = 0x314d5350;  // "PSM1"

// Structural sizes the stream transport's length-chain reader walks.
inline constexpr size_t kBatchHeaderSize = 4 + 4 + 8 + 4;
inline constexpr size_t kFramePrefixSize = 4 + 8;  // payload_len + checksum
inline constexpr size_t kMessagePrefixSize = 4 + 1 + 4 + 8;
// A single frame (or message body) larger than this is structural damage,
// not data: it caps what a corrupted length prefix can make a reader trust.
inline constexpr uint32_t kMaxPayload = 1u << 24;

// FNV-1a 64-bit, the frame integrity check.
uint64_t fnv1a64(std::string_view bytes);

// --- bounds-checked primitive reads -----------------------------------------
// Little-endian reads used by the decoder and by the stream transport's
// length-chain reader.  Safe for ANY `at`, including `at > bytes.size()`
// (the guard is explicit — no unsigned `size() - at` underflow): they return
// false and leave `at` unchanged when fewer than sizeof(T) bytes remain.
bool get_u8(std::string_view bytes, size_t& at, uint8_t* v);
bool get_u16(std::string_view bytes, size_t& at, uint16_t* v);
bool get_u32(std::string_view bytes, size_t& at, uint32_t* v);
bool get_u64(std::string_view bytes, size_t& at, uint64_t* v);

// One element response as a self-delimiting frame.  Fails (instead of
// truncating) when a name exceeds 64 KiB, the record has more than 65535
// attrs, or the payload would exceed kMaxPayload — a successful encode is
// guaranteed to decode back byte-identical.
Result<std::string> encode_frame(const QueryResponse& r);
// Header plus one frame per response, in the batch's (element-id) order.
// Fails if any response is unencodable; never emits a shrunken batch.
Result<std::string> encode_batch(const BatchResponse& b);

// What the decoder saw, beyond the records themselves.
struct DecodeStats {
  size_t frames_expected = 0;  // header's frame count
  size_t frames_ok = 0;        // frames that decoded and verified
  bool truncated = false;      // stream ended mid-frame (or before count)
  bool corrupt = false;        // checksum/structure failure; decoding stopped
  size_t trailing_bytes = 0;   // bytes left after the last expected frame

  bool complete() const {
    return !truncated && !corrupt && frames_ok == frames_expected &&
           trailing_bytes == 0;
  }
};

// Decodes the frame at the head of `bytes`; `*consumed` receives how many
// bytes the frame occupied.  Fails (without crashing) on truncation,
// checksum mismatch, or structural damage.
Result<QueryResponse> decode_frame(std::string_view bytes, size_t* consumed);

// Decodes a whole batch.  Only a bad header is a hard error; damaged frames
// degrade: the responses that verified are returned (always a prefix of the
// encoded sequence) and `stats` says what was lost.
Result<BatchResponse> decode_batch(std::string_view bytes,
                                   DecodeStats* stats = nullptr);

// Maps wire damage to DataQuality: returns one response per id in
// `sorted_ids` (ascending element-id order, matching query_batch output).
// Ids whose frames were lost to truncation/corruption come back as
// kMissing responses — a damaged stream degrades to visible blind spots
// instead of silently shrinking the batch.
BatchResponse reconcile(const std::vector<ElementId>& sorted_ids,
                        const BatchResponse& decoded);

// --- transport control messages ---------------------------------------------
// Everything except batch responses (which stream as raw PSB1 above) rides
// the PSM1 envelope.  Bodies are checksummed; decoders are total functions
// over arbitrary bytes.

// Values 3 and 5 are retired (they carried a single-element request and its
// response before every fetch became a batch) and are never reassigned: a
// server receiving either closes the connection like any unknown kind.
enum class MessageKind : uint8_t {
  kHello = 1,           // server → client on accept: agent name + element ids
  kBatchRequest = 2,    // client → server: query_batch(ids, now)
  kListElements = 4,    // client → server: re-fetch the hello element set
  kError = 6,           // server → client: Status code + message
  kTraceHarvest = 7,    // client → server: drain your trace rings to me
  kTraceData = 8,       // server → client: drained spans (also piggybacked
                        // after a batch reply when the request was traced)
  kSubscribe = 9,       // client → server: push me this agent's windows
  kStreamData = 10,     // server → client: one captured window (push mode)
  kIntReport = 11,      // harvester → controller: one in-band telemetry
                        // flight (per-hop metadata stack)
};

const char* to_string(MessageKind k);

struct Message {
  MessageKind kind = MessageKind::kError;
  std::string body;
};

// Wraps `body` in the PSM1 envelope.
std::string encode_message(MessageKind kind, std::string_view body);
// Decodes the message at the head of `bytes`; `*consumed` receives its full
// size.  Fails on truncation, bad magic/kind, oversize body, or checksum
// mismatch.
Result<Message> decode_message(std::string_view bytes,
                               size_t* consumed = nullptr);

// Connect-time handshake: which agent is on the far end and what it serves,
// plus a sample of the server's span clock (monotonic wall nanoseconds) —
// the client samples its own clock around the handshake and derives the
// clock-offset estimate that aligns harvested trace timestamps.
//
// A fleet server (one event loop hosting many agents) appends its roster
// after the base fields.  The base fields always describe the PRIMARY agent
// (the first registered), so a client that predates rosters keeps working:
// it reads the primary and ignores nothing (single-agent hellos carry no
// roster section and are byte-identical to the pre-roster encoding).  A
// roster-aware client binds to any named entry and routes its requests by
// stamping that name on the request envelope.
struct HelloMsg {
  std::string agent_name;           // primary agent (single-agent fallback)
  std::vector<ElementId> elements;  // primary's ids, ascending
  int64_t clock_ns = 0;             // server span clock at hello encode time

  struct AgentInfo {
    std::string name;
    std::vector<ElementId> elements;  // ascending element-id order
  };
  // Every hosted agent, registration order (roster[0] == the primary).
  // Empty on a single-agent hello; encode emits the roster section only
  // when it names more than one agent.
  std::vector<AgentInfo> roster;

  // Element-set epoch: a fingerprint of the advertised roster (agent names
  // + element ids).  A reconnecting client compares epochs to decide
  // whether the element set changed while it was away — equal epochs skip
  // the diff entirely.  0 means "not advertised" (pre-epoch server);
  // encode emits the trailing epoch section only when nonzero, so legacy
  // hellos stay byte-identical.  The 8-byte trailer is unambiguous: a
  // roster section is at least 16 bytes (u32 count + two entries of
  // name-length + id-count prefixes), so exactly 8 trailing bytes can only
  // be an epoch.
  uint64_t epoch = 0;
};
std::string encode_hello(const HelloMsg& h);
Result<HelloMsg> decode_hello(std::string_view body);

// query_batch over the wire: the requested ids plus the (simulated) query
// timestamp, so the remote agent samples the same instant the controller
// asked for.  The trace context rides along: with trace_id != 0 the server
// records a serve span whose parent is `parent_span` (the controller
// scatter span) and piggybacks its drained rings after the batch reply;
// with trace_id == 0 the reply is byte-identical to an untraced run.
struct BatchRequestMsg {
  SimTime now;
  std::vector<ElementId> ids;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  // Fleet routing: which hosted agent this batch is for.  Empty — the old
  // single-agent request format, not one extra wire byte — routes to the
  // server's primary agent.
  std::string agent;
};
std::string encode_batch_request(const BatchRequestMsg& r);
Result<BatchRequestMsg> decode_batch_request(std::string_view body);

// Drained trace rings crossing the wire (kTraceData): the producing
// process's name plus its events, timestamps still on that process's span
// clock (the receiver applies its hello-derived clock offset at export).
struct TraceDataMsg {
  std::string process;
  std::vector<TraceEvent> events;
};
std::string encode_trace_data(const TraceDataMsg& t);
Result<TraceDataMsg> decode_trace_data(std::string_view body);

// A Status carried verbatim, so remote failures reproduce the exact message
// text the in-process path would have produced.
struct ErrorMsg {
  StatusCode code = StatusCode::kUnavailable;
  std::string message;
};
std::string encode_error(const ErrorMsg& e);
Result<ErrorMsg> decode_error(std::string_view body);

// --- push-mode streaming (kSubscribe / kStreamData) --------------------------
// Inverts the collection direction: instead of the controller pulling a
// sweep per diagnosis window, an agent-side publisher captures every element
// once per window and ships the capture as a kStreamData frame.  Frames
// carry a per-stream sequence number (1-based, monotonically increasing for
// the lifetime of the publisher) so a receiver detects dropped windows,
// reconnect gaps and campaign outages as seq jumps and repairs them with
// targeted pull sweeps (streaming.h).

// Opens a stream: push me `agent`'s windows from `from_seq` on.  The first
// frame after a subscribe is always a full snapshot (every attr absolute),
// so a resubscribing client can rebase its delta state without history.
struct SubscribeMsg {
  std::string agent;      // roster entry to stream ("" = primary)
  uint64_t from_seq = 0;  // resume hint; 0 = whatever the publisher is at
  int64_t window_ns = 0;  // requested cadence (informational; the publisher
                          // owns the actual capture schedule)
};
std::string encode_subscribe(const SubscribeMsg& s);
Result<SubscribeMsg> decode_subscribe(std::string_view body);

// One captured window: the publishing agent's full element set in ascending
// element-id order, each element a QueryResponse exactly as query_batch
// produced it at the window boundary.
//
// Attr values travel delta-coded against the previous frame of the same
// stream when that is bit-exact, absolute otherwise: each attr carries a
// mode byte (0 = absolute IEEE-754 bits as u64, 1 = IEEE-754 delta bits as
// u64, 2 = non-negative integral delta as u32, 3 = unchanged with no
// payload, where prev + delta reconstructs the current value exactly — the
// encoder checks the round trip in double arithmetic and falls back to
// absolute when addition would lose bits), and a record whose attr names
// match the previous frame's same element sets the schema-elision bit in
// its attr count and omits the name strings entirely.  Counters between
// consecutive windows differ by small integral deltas and tags/gauges sit
// still, so modes 2/3 plus elided schemas dominate steady state, which is
// what makes push-mode cheap on the wire; the
// exactness guard is what keeps streamed bytes losslessly reconstructible,
// so streamed diagnosis can be byte-identical to sweep diagnosis.  A frame
// that arrives after a seq gap MUST NOT be delta-decoded against stale
// state — the receiver repairs the missed windows first (restoring the
// delta base) and only then applies the frame.
struct StreamDataMsg {
  std::string agent;           // publishing agent (roster name)
  uint64_t seq = 0;            // per-stream sequence number, starts at 1
  SimTime window_start;        // capture timestamp (the window boundary)
  Duration channel_time;       // modelled channel cost of the capture batch
  std::vector<QueryResponse> responses;  // ascending element-id order
};

// `prev` is the previous frame of the same stream (null: encode everything
// absolute — the snapshot form a subscribe answer uses).  Fails, never
// clamps, on unencodable input, like encode_frame.
Result<std::string> encode_stream_data(const StreamDataMsg& m,
                                       const StreamDataMsg* prev);
// Decodes against the same `prev` the encoder used.  A delta-mode attr with
// no base in `prev` is structural damage ("delta without base"), never a
// silently wrong value.  `delta_without_base` (optional) is set true when
// the failure is exactly that missing base — with `prev == nullptr` this
// means the frame is delta-coded and the receiver needs a snapshot to
// resync (StreamCache turns it into ApplyResult::needs_snapshot), whereas
// with a live base it is genuine damage.
Result<StreamDataMsg> decode_stream_data(std::string_view body,
                                         const StreamDataMsg* prev,
                                         bool* delta_without_base = nullptr);

// Header-only decode: agent, seq and window timestamp without touching the
// records.  Receivers use it to check the sequence number *before*
// committing to a delta decode (a gapped frame must wait for repair).
struct StreamFrameInfo {
  std::string agent;
  uint64_t seq = 0;
  SimTime window_start;
  uint32_t record_count = 0;
};
Result<StreamFrameInfo> peek_stream_data(std::string_view body);

// --- in-band telemetry reports (kIntReport) ----------------------------------
// One sampled packet's completed metadata stack crossing a process boundary
// (harvester → controller).  In-process harvesting bypasses the envelope;
// the codec is also what prices INT overhead (report bytes per flight).
//
//   body := u16-str agent | u64 tag | i64 start_ns | i64 end_ns | u8 flags |
//           u16 hop_count | hop*
//   hop  := u16-str element | u64 queue_pkts | i64 io_time_ns | u8 flags
//
// Message flags bit 0: the flight ended in a drop-tail.  Hop flags bit 0:
// the drop happened at this hop.  All other flag bits must be zero — a
// flipped bit is structural damage, never a silently different flight.

struct IntHopWire {
  ElementId element;
  uint64_t queue_pkts = 0;
  int64_t io_time_ns = 0;
  uint8_t flags = 0;  // bit 0: drop-tail at this hop
};

struct IntReportMsg {
  std::string agent;  // harvest key (the StreamCache agent key for INT)
  uint64_t tag = 0;   // flight id
  SimTime start;      // ingress tag time
  SimTime end;        // harvest / drop time
  bool dropped = false;
  std::vector<IntHopWire> hops;
};

// Fails (never clamps) on a name over 64 KiB, more than 65535 hops, or a
// body past kMaxPayload — a report that encodes decodes back identical.
Result<std::string> encode_int_report(const IntReportMsg& m);
// Total over arbitrary bytes: truncation (any strict prefix), trailing
// bytes, and reserved flag bits all fail loudly.
Result<IntReportMsg> decode_int_report(std::string_view body);

}  // namespace perfsight::wire
