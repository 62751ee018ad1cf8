#include "perfsight/wire.h"

#include <algorithm>
#include <cstring>

namespace perfsight::wire {

namespace {

// Little-endian append helper.  memcpy keeps it alignment- and
// strict-aliasing-safe; on LE hosts the compiler folds it to plain moves.
template <typename T>
void put(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

// Reads a T at `at` and advances past it.  The `at > size` guard is
// explicit: `bytes.size() - at` is unsigned, and a caller that over-advanced
// `at` (the streaming transport reader walks length chains from untrusted
// prefixes) must get `false`, not a wrapped-around huge remainder.
template <typename T>
bool get(std::string_view bytes, size_t& at, T* v) {
  if (at > bytes.size() || bytes.size() - at < sizeof(T)) return false;
  std::memcpy(v, bytes.data() + at, sizeof(T));
  at += sizeof(T);
  return true;
}

uint64_t double_bits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// A count read off the wire is damage when `count` items of at least
// `min_size` bytes each cannot fit in what is left after `at`: this caps
// what a corrupted count can make a decoder reserve.
bool count_fits(std::string_view bytes, size_t at, size_t count,
                size_t min_size) {
  return count <= (bytes.size() - at) / min_size + 1;
}

bool get_string(std::string_view bytes, size_t& at, std::string* s) {
  uint16_t len = 0;
  if (!get(bytes, at, &len)) return false;
  if (at > bytes.size() || bytes.size() - at < len) return false;
  s->assign(bytes.data() + at, len);
  at += len;
  return true;
}

// Strings longer than a u16 cannot travel.  The public encoders validate
// with check_u16_len before building, so reaching this with an oversize
// string is a programmer error; clamping instead would yield a frame that
// checksums fine but decodes to a different record.
void put_string(std::string& out, const std::string& s) {
  PS_CHECK(s.size() <= 0xffff);
  put(out, static_cast<uint16_t>(s.size()));
  out.append(s.data(), s.size());
}

Status check_u16_len(const std::string& s, const char* what) {
  if (s.size() <= 0xffff) return Status::ok();
  return Status::invalid_argument(std::string("wire: ") + what +
                                  " exceeds 64 KiB: " + s.substr(0, 64));
}

// --- the record codec --------------------------------------------------------
// One §4.2 record as both PSB1 frame payloads and stream-data frames carry it:
//   header := i64 timestamp_ns | u8 quality | u8 fail_code | u32 attempts |
//             i64 response_time_ns | u16-str element
// followed by a u16 attr count and the attrs, whose encoding each message
// kind owns (PSB1: name + value bits; stream: delta modes, see below).

constexpr size_t kMinRecordHeaderSize = 8 + 1 + 1 + 4 + 8 + 2;

// Validates what the record codec cannot carry: names longer than a u16 and
// more than `max_attrs` attributes (`codec` names the limit in the error).
Status check_encodable(const QueryResponse& r, size_t max_attrs,
                       const char* codec) {
  Status st = check_u16_len(r.record.element.name, "element name");
  if (!st.is_ok()) return st;
  if (r.record.attrs.size() > max_attrs) {
    return Status::invalid_argument(
        "wire: element " + r.record.element.name + " has " +
        std::to_string(r.record.attrs.size()) + " attrs (" + codec +
        " limit " + std::to_string(max_attrs) + ")");
  }
  for (const Attr& a : r.record.attrs) {
    st = check_u16_len(a.name, "attr name");
    if (!st.is_ok()) return st;
  }
  return Status::ok();
}

void put_record_header(std::string& out, const QueryResponse& r) {
  put<int64_t>(out, r.record.timestamp.ns());
  put<uint8_t>(out, static_cast<uint8_t>(r.quality));
  put<uint8_t>(out, static_cast<uint8_t>(r.fail_code));
  put<uint32_t>(out, r.attempts);
  put<int64_t>(out, r.response_time.ns());
  put_string(out, r.record.element.name);
}

// False on truncation or an out-of-range quality / fail code.
bool get_record_header(std::string_view bytes, size_t& at, QueryResponse* r) {
  int64_t ts = 0, rt = 0;
  uint8_t quality = 0, fail_code = 0;
  std::string name;
  if (!get(bytes, at, &ts) || !get(bytes, at, &quality) ||
      !get(bytes, at, &fail_code) || !get(bytes, at, &r->attempts) ||
      !get(bytes, at, &rt) || !get_string(bytes, at, &name) ||
      quality > static_cast<uint8_t>(DataQuality::kReplica) ||
      fail_code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return false;
  }
  r->record.timestamp = SimTime::nanos(ts);
  r->record.element = ElementId{std::move(name)};
  r->quality = static_cast<DataQuality>(quality);
  r->fail_code = static_cast<StatusCode>(fail_code);
  r->response_time = Duration::nanos(rt);
  return true;
}

// PSB1 payload := header | u16 attr_count | { u16-str name | u64 bits }*
constexpr size_t kMinPsb1AttrSize = 2 + 8;
// A frame with an empty element name and no attrs.
constexpr size_t kMinFrameSize = kFramePrefixSize + kMinRecordHeaderSize + 2;

// Appends `r` as one frame to `out`, in place: the prefix is reserved, the
// payload written behind it, then its length and checksum are back-patched.
// The one PSB1 encoder — encode_frame is its batch of one.  On failure
// `out` is left as it was.
Status append_frame(std::string& out, const QueryResponse& r) {
  Status st = check_encodable(r, 0xffff, "wire");
  if (!st.is_ok()) return st;
  const size_t start = out.size();
  out.append(kFramePrefixSize, '\0');
  put_record_header(out, r);
  put<uint16_t>(out, static_cast<uint16_t>(r.record.attrs.size()));
  for (const Attr& a : r.record.attrs) {
    put_string(out, a.name);
    put(out, double_bits(a.value));
  }
  const size_t len = out.size() - start - kFramePrefixSize;
  if (len > kMaxPayload) {
    out.resize(start);
    return Status::invalid_argument(
        "wire: frame payload for element " + r.record.element.name + " is " +
        std::to_string(len) + " bytes (cap " + std::to_string(kMaxPayload) +
        ")");
  }
  const uint32_t len32 = static_cast<uint32_t>(len);
  const uint64_t sum =
      fnv1a64(std::string_view(out).substr(start + kFramePrefixSize));
  std::memcpy(out.data() + start, &len32, sizeof(len32));
  std::memcpy(out.data() + start + sizeof(len32), &sum, sizeof(sum));
  return Status::ok();
}

// Decodes one payload; false on structural damage (a verified checksum
// makes that unreachable in practice, but the decoder must not trust it).
bool decode_payload(std::string_view payload, QueryResponse* r) {
  size_t at = 0;
  uint16_t n = 0;
  if (!get_record_header(payload, at, r) || !get(payload, at, &n) ||
      !count_fits(payload, at, n, kMinPsb1AttrSize)) {
    return false;
  }
  r->record.attrs.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    Attr a;
    uint64_t bits = 0;
    if (!get_string(payload, at, &a.name) || !get(payload, at, &bits)) {
      return false;
    }
    a.value = bits_double(bits);
    r->record.attrs.push_back(std::move(a));
  }
  return at == payload.size();  // trailing payload bytes = damage
}

bool decode_id_list(std::string_view body, size_t& at,
                    std::vector<ElementId>* ids) {
  uint32_t count = 0;
  if (!get(body, at, &count)) return false;
  // An id needs at least its 2-byte length prefix.
  if (!count_fits(body, at, count, 2)) return false;
  ids->clear();
  ids->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    if (!get_string(body, at, &name)) return false;
    ids->push_back(ElementId{std::move(name)});
  }
  return true;
}

void put_id_list(std::string& out, const std::vector<ElementId>& ids) {
  put<uint32_t>(out, static_cast<uint32_t>(ids.size()));
  for (const ElementId& id : ids) put_string(out, id.name);
}

}  // namespace

uint64_t fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool get_u8(std::string_view bytes, size_t& at, uint8_t* v) {
  return get(bytes, at, v);
}
bool get_u16(std::string_view bytes, size_t& at, uint16_t* v) {
  return get(bytes, at, v);
}
bool get_u32(std::string_view bytes, size_t& at, uint32_t* v) {
  return get(bytes, at, v);
}
bool get_u64(std::string_view bytes, size_t& at, uint64_t* v) {
  return get(bytes, at, v);
}

Result<std::string> encode_frame(const QueryResponse& r) {
  std::string out;
  Status st = append_frame(out, r);
  if (!st.is_ok()) return st;
  return out;
}

Result<std::string> encode_batch(const BatchResponse& b) {
  if (b.responses.size() > 0xffffffffULL) {
    return Status::invalid_argument("wire: batch frame count exceeds u32");
  }
  std::string out;
  put<uint32_t>(out, kMagic);
  put<uint32_t>(out, static_cast<uint32_t>(b.responses.size()));
  put<uint64_t>(out, static_cast<uint64_t>(b.channel_time.ns()));
  put<uint32_t>(out, static_cast<uint32_t>(b.unknown_ids));
  for (size_t i = 0; i < b.responses.size(); ++i) {
    Status st = append_frame(out, b.responses[i]);
    if (!st.is_ok()) return st;
    // Size the buffer once, off the first frame: a batch's records are
    // alike, so the rest rarely regrow it.
    if (i == 0) out.reserve(kBatchHeaderSize + (out.size() - kBatchHeaderSize) *
                                                   b.responses.size());
  }
  return out;
}

Result<QueryResponse> decode_frame(std::string_view bytes, size_t* consumed) {
  *consumed = 0;
  size_t at = 0;
  uint32_t len = 0;
  uint64_t sum = 0;
  if (!get(bytes, at, &len) || !get(bytes, at, &sum)) {
    return Status::invalid_argument("wire frame truncated in prefix");
  }
  if (len > kMaxPayload || bytes.size() - at < len) {
    return Status::invalid_argument("wire frame truncated in payload");
  }
  std::string_view payload = bytes.substr(at, len);
  if (fnv1a64(payload) != sum) {
    return Status::invalid_argument("wire frame checksum mismatch");
  }
  QueryResponse r;
  if (!decode_payload(payload, &r)) {
    return Status::invalid_argument("wire frame structurally damaged");
  }
  *consumed = kFramePrefixSize + len;
  return r;
}

Result<BatchResponse> decode_batch(std::string_view bytes,
                                   DecodeStats* stats) {
  DecodeStats local;
  DecodeStats& st = stats != nullptr ? *stats : local;
  st = DecodeStats{};

  size_t at = 0;
  uint32_t magic = 0, count = 0, unknown = 0;
  uint64_t channel_ns = 0;
  if (bytes.size() < kBatchHeaderSize) {
    return Status::invalid_argument("wire batch shorter than header");
  }
  get(bytes, at, &magic);
  if (magic != kMagic) {
    return Status::invalid_argument("wire batch bad magic");
  }
  get(bytes, at, &count);
  get(bytes, at, &channel_ns);
  get(bytes, at, &unknown);
  st.frames_expected = count;

  BatchResponse out;
  out.channel_time = Duration::nanos(static_cast<int64_t>(channel_ns));
  out.unknown_ids = unknown;
  // No more frames than the bytes can hold: a corrupt count must not size
  // the reservation.
  out.responses.reserve(
      std::min<size_t>(count, (bytes.size() - at) / kMinFrameSize));
  for (uint32_t i = 0; i < count; ++i) {
    size_t consumed = 0;
    Result<QueryResponse> r = decode_frame(bytes.substr(at), &consumed);
    if (!r.ok()) {
      // Truncation if the bytes simply ran out; corruption otherwise.  Either
      // way the length chain past this point is untrustworthy: stop.
      if (at >= bytes.size()) {
        st.truncated = true;
      } else {
        st.corrupt = true;
      }
      return out;
    }
    at += consumed;
    ++st.frames_ok;
    if (r.value().quality != DataQuality::kFresh) ++out.degraded;
    out.responses.push_back(std::move(r).take());
  }
  st.trailing_bytes = bytes.size() - at;
  return out;
}

BatchResponse reconcile(const std::vector<ElementId>& sorted_ids,
                        const BatchResponse& decoded) {
  BatchResponse out;
  out.channel_time = decoded.channel_time;
  out.unknown_ids = decoded.unknown_ids;
  size_t ri = 0;
  for (const ElementId& id : sorted_ids) {
    while (ri < decoded.responses.size() &&
           decoded.responses[ri].record.element < id) {
      ++ri;
    }
    if (ri < decoded.responses.size() &&
        decoded.responses[ri].record.element == id) {
      out.responses.push_back(decoded.responses[ri]);
      ++ri;
    } else {
      // Frame lost on the wire: the element stays visible as a blind spot.
      QueryResponse miss;
      miss.record.element = id;
      miss.quality = DataQuality::kMissing;
      miss.attempts = 1;
      miss.fail_code = StatusCode::kUnavailable;
      out.responses.push_back(std::move(miss));
    }
  }
  for (const QueryResponse& r : out.responses) {
    if (r.quality != DataQuality::kFresh) ++out.degraded;
  }
  return out;
}

// --- transport control messages ---------------------------------------------

const char* to_string(MessageKind k) {
  switch (k) {
    case MessageKind::kHello:
      return "hello";
    case MessageKind::kBatchRequest:
      return "batch_request";
    case MessageKind::kListElements:
      return "list_elements";
    case MessageKind::kError:
      return "error";
    case MessageKind::kTraceHarvest:
      return "trace_harvest";
    case MessageKind::kTraceData:
      return "trace_data";
    case MessageKind::kSubscribe:
      return "subscribe";
    case MessageKind::kStreamData:
      return "stream_data";
    case MessageKind::kIntReport:
      return "int_report";
  }
  return "?";
}

std::string encode_message(MessageKind kind, std::string_view body) {
  PS_CHECK(body.size() <= kMaxPayload);
  std::string out;
  out.reserve(kMessagePrefixSize + body.size());
  put<uint32_t>(out, kMessageMagic);
  put<uint8_t>(out, static_cast<uint8_t>(kind));
  put<uint32_t>(out, static_cast<uint32_t>(body.size()));
  put<uint64_t>(out, fnv1a64(body));
  out.append(body.data(), body.size());
  return out;
}

Result<Message> decode_message(std::string_view bytes, size_t* consumed) {
  if (consumed != nullptr) *consumed = 0;
  size_t at = 0;
  uint32_t magic = 0, len = 0;
  uint8_t kind = 0;
  uint64_t sum = 0;
  if (!get(bytes, at, &magic) || !get(bytes, at, &kind) ||
      !get(bytes, at, &len) || !get(bytes, at, &sum)) {
    return Status::invalid_argument("wire message truncated in prefix");
  }
  if (magic != kMessageMagic) {
    return Status::invalid_argument("wire message bad magic");
  }
  if (kind < static_cast<uint8_t>(MessageKind::kHello) ||
      kind > static_cast<uint8_t>(MessageKind::kIntReport)) {
    return Status::invalid_argument("wire message unknown kind");
  }
  if (len > kMaxPayload || bytes.size() - at < len) {
    return Status::invalid_argument("wire message truncated in body");
  }
  std::string_view body = bytes.substr(at, len);
  if (fnv1a64(body) != sum) {
    return Status::invalid_argument("wire message checksum mismatch");
  }
  if (consumed != nullptr) *consumed = kMessagePrefixSize + len;
  Message m;
  m.kind = static_cast<MessageKind>(kind);
  m.body.assign(body.data(), body.size());
  return m;
}

std::string encode_hello(const HelloMsg& h) {
  std::string body;
  put_string(body, h.agent_name);
  put_id_list(body, h.elements);
  put<int64_t>(body, h.clock_ns);
  // The roster section only exists when there is genuinely a fleet behind
  // the endpoint: single-agent hellos stay byte-identical to the pre-roster
  // encoding, so a roster-unaware peer decodes them unchanged.
  if (h.roster.size() > 1) {
    put<uint32_t>(body, static_cast<uint32_t>(h.roster.size()));
    for (const HelloMsg::AgentInfo& a : h.roster) {
      put_string(body, a.name);
      put_id_list(body, a.elements);
    }
  }
  // Element-set epoch, appended last and only when advertised: a pre-epoch
  // hello stays byte-identical, and the 8-byte trailer cannot be mistaken
  // for a roster section (which is at least 16 bytes).
  if (h.epoch != 0) put<uint64_t>(body, h.epoch);
  return body;
}

Result<HelloMsg> decode_hello(std::string_view body) {
  HelloMsg h;
  size_t at = 0;
  if (!get_string(body, at, &h.agent_name) ||
      !decode_id_list(body, at, &h.elements) ||
      !get(body, at, &h.clock_ns)) {
    return Status::invalid_argument("wire hello structurally damaged");
  }
  if (at == body.size()) return h;  // single-agent hello: no roster section
  if (body.size() - at == 8) {
    // Exactly one u64 left: the epoch trailer of a single-agent hello (a
    // roster section is at least 16 bytes, so this cannot be one).
    if (!get(body, at, &h.epoch)) {
      return Status::invalid_argument("wire hello structurally damaged");
    }
    return h;
  }
  uint32_t count = 0;
  if (!get(body, at, &count)) {
    return Status::invalid_argument("wire hello structurally damaged");
  }
  // A roster entry costs at least its name length prefix (2) plus an id
  // count (4).
  if (!count_fits(body, at, count, 6)) {
    return Status::invalid_argument("wire hello structurally damaged");
  }
  h.roster.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HelloMsg::AgentInfo a;
    if (!get_string(body, at, &a.name) ||
        !decode_id_list(body, at, &a.elements)) {
      return Status::invalid_argument("wire hello structurally damaged");
    }
    h.roster.push_back(std::move(a));
  }
  if (at != body.size()) {
    // The only valid thing after a roster is the 8-byte epoch trailer.
    if (body.size() - at != 8 || !get(body, at, &h.epoch)) {
      return Status::invalid_argument("wire hello structurally damaged");
    }
  }
  return h;
}

std::string encode_batch_request(const BatchRequestMsg& r) {
  std::string body;
  put<int64_t>(body, r.now.ns());
  put_id_list(body, r.ids);
  put<uint64_t>(body, r.trace_id);
  put<uint64_t>(body, r.parent_span);
  // Routing name only when bound to a named agent: unbound requests stay
  // byte-identical to the pre-fleet format, which is also what routes them
  // to the primary agent on the far end.
  if (!r.agent.empty()) put_string(body, r.agent);
  return body;
}

Result<BatchRequestMsg> decode_batch_request(std::string_view body) {
  BatchRequestMsg r;
  size_t at = 0;
  int64_t now_ns = 0;
  if (!get(body, at, &now_ns) || !decode_id_list(body, at, &r.ids) ||
      !get(body, at, &r.trace_id) || !get(body, at, &r.parent_span)) {
    return Status::invalid_argument("wire batch request structurally damaged");
  }
  if (at != body.size() &&
      (!get_string(body, at, &r.agent) || at != body.size())) {
    return Status::invalid_argument("wire batch request structurally damaged");
  }
  r.now = SimTime::nanos(now_ns);
  return r;
}

// --- trace data --------------------------------------------------------------
// event := i64 t_ns | u8 kind | u64 value_bits | u64 span_id |
//          u64 parent_span | i64 dur_ns | u16-str element | u16-str detail

namespace {
// Fixed-width portion of an encoded event: its two strings may be empty but
// each still costs a 2-byte length prefix.
constexpr size_t kMinEventSize = 8 + 1 + 8 + 8 + 8 + 8 + 2 + 2;
}  // namespace

std::string encode_trace_data(const TraceDataMsg& t) {
  std::string body;
  put_string(body, t.process);
  put<uint32_t>(body, static_cast<uint32_t>(t.events.size()));
  for (const TraceEvent& e : t.events) {
    put<int64_t>(body, e.t.ns());
    put<uint8_t>(body, static_cast<uint8_t>(e.kind));
    put(body, double_bits(e.value));
    put<uint64_t>(body, e.span_id);
    put<uint64_t>(body, e.parent_span);
    put<int64_t>(body, e.dur.ns());
    put_string(body, e.element);
    put_string(body, e.detail);
  }
  return body;
}

Result<TraceDataMsg> decode_trace_data(std::string_view body) {
  TraceDataMsg t;
  size_t at = 0;
  uint32_t count = 0;
  if (!get_string(body, at, &t.process) || !get(body, at, &count)) {
    return Status::invalid_argument("wire trace data structurally damaged");
  }
  if (!count_fits(body, at, count, kMinEventSize)) {
    return Status::invalid_argument("wire trace data structurally damaged");
  }
  t.events.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    TraceEvent e;
    int64_t t_ns = 0, dur_ns = 0;
    uint8_t kind = 0;
    uint64_t bits = 0;
    if (!get(body, at, &t_ns) || !get(body, at, &kind) ||
        !get(body, at, &bits) || !get(body, at, &e.span_id) ||
        !get(body, at, &e.parent_span) || !get(body, at, &dur_ns) ||
        !get_string(body, at, &e.element) ||
        !get_string(body, at, &e.detail) ||
        kind > static_cast<uint8_t>(TraceEventKind::kSpanServerSingle)) {
      return Status::invalid_argument("wire trace data structurally damaged");
    }
    e.t = SimTime::nanos(t_ns);
    e.kind = static_cast<TraceEventKind>(kind);
    e.value = bits_double(bits);
    e.dur = Duration::nanos(dur_ns);
    t.events.push_back(std::move(e));
  }
  if (at != body.size()) {
    return Status::invalid_argument("wire trace data structurally damaged");
  }
  return t;
}

std::string encode_error(const ErrorMsg& e) {
  std::string body;
  put<uint8_t>(body, static_cast<uint8_t>(e.code));
  body += e.message;
  return body;
}

Result<ErrorMsg> decode_error(std::string_view body) {
  ErrorMsg e;
  size_t at = 0;
  uint8_t code = 0;
  if (!get(body, at, &code) ||
      code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::invalid_argument("wire error message structurally damaged");
  }
  e.code = static_cast<StatusCode>(code);
  e.message.assign(body.data() + at, body.size() - at);
  return e;
}

// --- push-mode streaming -----------------------------------------------------
// body   := u16-str agent | u64 seq | i64 window_start_ns |
//           i64 channel_time_ns | u32 record_count | record*
// record := header (the record codec above) | u16 attr_count |
//           { u8 mode [| u16-str name] [| payload] }*
// attr_count bit 15 is the schema-elision flag: when set, this record's
// attr names (and order) are inherited from the previous frame's same
// element and the per-attr name strings are omitted — steady-state
// telemetry re-ships identical schemas every window, and the names are
// most of the record.  The low 15 bits are the count (stream cap 32767).
// Value payload by mode: 0 = u64 absolute IEEE-754 bits; 1 = u64 IEEE-754
// delta bits vs the previous frame's same (element, attr); 2 = u32
// non-negative integral delta vs the same base; 3 = unchanged (no payload,
// the base value verbatim).  Deltas are emitted only when prev + delta
// reproduces the value bit-exactly, preferring 3, then 2, then 1.

namespace {

// Fixed-width portion of an encoded stream record (header + attr count),
// and of an attr: an unchanged attr of an elided schema is its mode byte.
constexpr size_t kMinStreamRecordSize = kMinRecordHeaderSize + 2;
constexpr size_t kMinStreamAttrSize = 1;

// The previous frame's response for `element`, or null.  Frames keep
// ascending element-id order, so this is a binary search.
const QueryResponse* prev_response(const StreamDataMsg* prev,
                                   const ElementId& element) {
  if (prev == nullptr) return nullptr;
  auto it = std::lower_bound(
      prev->responses.begin(), prev->responses.end(), element,
      [](const QueryResponse& r, const ElementId& id) {
        return r.record.element < id;
      });
  if (it == prev->responses.end() || !(it->record.element == element)) {
    return nullptr;
  }
  return &*it;
}

Status stream_damaged() {
  return Status::invalid_argument("wire stream data structurally damaged");
}

}  // namespace

std::string encode_subscribe(const SubscribeMsg& s) {
  std::string body;
  put_string(body, s.agent);
  put<uint64_t>(body, s.from_seq);
  put<int64_t>(body, s.window_ns);
  return body;
}

Result<SubscribeMsg> decode_subscribe(std::string_view body) {
  SubscribeMsg s;
  size_t at = 0;
  if (!get_string(body, at, &s.agent) || !get(body, at, &s.from_seq) ||
      !get(body, at, &s.window_ns) || at != body.size()) {
    return Status::invalid_argument("wire subscribe structurally damaged");
  }
  return s;
}

Result<std::string> encode_stream_data(const StreamDataMsg& m,
                                       const StreamDataMsg* prev) {
  Status st = check_u16_len(m.agent, "agent name");
  if (!st.is_ok()) return st;
  for (const QueryResponse& r : m.responses) {
    st = check_encodable(r, 0x7fff, "stream");
    if (!st.is_ok()) return st;
  }
  std::string body;
  put_string(body, m.agent);
  put<uint64_t>(body, m.seq);
  put<int64_t>(body, m.window_start.ns());
  put<int64_t>(body, m.channel_time.ns());
  put<uint32_t>(body, static_cast<uint32_t>(m.responses.size()));
  for (const QueryResponse& r : m.responses) {
    put_record_header(body, r);
    const QueryResponse* base = prev_response(prev, r.record.element);
    // Schema elision: when the base record carries the same attr names in
    // the same order — the steady state — the names are omitted entirely.
    bool same_schema =
        base != nullptr && base->record.attrs.size() == r.record.attrs.size();
    for (size_t i = 0; same_schema && i < r.record.attrs.size(); ++i) {
      same_schema = base->record.attrs[i].name == r.record.attrs[i].name;
    }
    uint16_t count_field = static_cast<uint16_t>(r.record.attrs.size());
    if (same_schema) count_field |= 0x8000;
    put<uint16_t>(body, count_field);
    for (size_t i = 0; i < r.record.attrs.size(); ++i) {
      const Attr& a = r.record.attrs[i];
      // Delta only when the receiver's reconstruction (base + delta, in
      // double arithmetic) is bit-exact; counters between adjacent windows
      // are, NaNs / wildly rescaled gauges are not and travel absolute.
      // Unchanged values (gauges, type/vm tags) ship zero payload bytes
      // (mode 3); small non-negative integral deltas — the overwhelmingly
      // common counter advance — four (mode 2) instead of eight.
      uint8_t mode = 0;
      uint64_t bits = double_bits(a.value);
      std::optional<double> pv;
      if (same_schema) {
        pv = base->record.attrs[i].value;
      } else if (base != nullptr) {
        pv = base->record.get(a.name);
      }
      if (pv.has_value()) {
        if (double_bits(*pv) == double_bits(a.value)) {
          mode = 3;
        } else {
          const double delta = a.value - *pv;
          if (double_bits(*pv + delta) == double_bits(a.value)) {
            // Range check before the cast: a double outside [0, 2^32)
            // converted to uint32_t is undefined behaviour.
            if (delta >= 0 && delta < 4294967296.0 &&
                static_cast<double>(static_cast<uint32_t>(delta)) == delta) {
              mode = 2;
              bits = static_cast<uint32_t>(delta);
            } else {
              mode = 1;
              bits = double_bits(delta);
            }
          }
        }
      }
      put<uint8_t>(body, mode);
      if (!same_schema) put_string(body, a.name);
      if (mode == 3) {
        // no payload
      } else if (mode == 2) {
        put<uint32_t>(body, static_cast<uint32_t>(bits));
      } else {
        put<uint64_t>(body, bits);
      }
    }
  }
  if (body.size() > kMaxPayload) {
    return Status::invalid_argument(
        "wire: stream frame of " + std::to_string(body.size()) +
        " bytes exceeds the structural cap");
  }
  return body;
}

Result<StreamFrameInfo> peek_stream_data(std::string_view body) {
  StreamFrameInfo info;
  size_t at = 0;
  int64_t window_ns = 0, channel_ns = 0;
  if (!get_string(body, at, &info.agent) || !get(body, at, &info.seq) ||
      !get(body, at, &window_ns) || !get(body, at, &channel_ns) ||
      !get(body, at, &info.record_count)) {
    return stream_damaged();
  }
  if (!count_fits(body, at, info.record_count, kMinStreamRecordSize)) {
    return stream_damaged();
  }
  info.window_start = SimTime::nanos(window_ns);
  return info;
}

Result<StreamDataMsg> decode_stream_data(std::string_view body,
                                         const StreamDataMsg* prev,
                                         bool* delta_without_base) {
  if (delta_without_base != nullptr) *delta_without_base = false;
  StreamDataMsg m;
  size_t at = 0;
  int64_t window_ns = 0, channel_ns = 0;
  uint32_t count = 0;
  if (!get_string(body, at, &m.agent) || !get(body, at, &m.seq) ||
      !get(body, at, &window_ns) || !get(body, at, &channel_ns) ||
      !get(body, at, &count)) {
    return stream_damaged();
  }
  if (!count_fits(body, at, count, kMinStreamRecordSize)) {
    return stream_damaged();
  }
  m.window_start = SimTime::nanos(window_ns);
  m.channel_time = Duration::nanos(channel_ns);
  m.responses.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    QueryResponse r;
    uint16_t attrs = 0;
    if (!get_record_header(body, at, &r) || !get(body, at, &attrs)) {
      return stream_damaged();
    }
    const QueryResponse* base = prev_response(prev, r.record.element);
    const bool same_schema = (attrs & 0x8000) != 0;
    attrs &= 0x7fff;
    // Elided schema without its base record (or with a base of a different
    // shape) is the same class of damage as a delta without its base.
    if (same_schema &&
        (base == nullptr || base->record.attrs.size() != attrs)) {
      if (delta_without_base != nullptr) *delta_without_base = true;
      return Status::invalid_argument("wire stream data delta without base");
    }
    if (!count_fits(body, at, attrs, kMinStreamAttrSize)) {
      return stream_damaged();
    }
    r.record.attrs.reserve(attrs);
    for (uint16_t j = 0; j < attrs; ++j) {
      uint8_t mode = 0;
      Attr a;
      if (!get(body, at, &mode) || mode > 3 ||
          (!same_schema && !get_string(body, at, &a.name))) {
        return stream_damaged();
      }
      if (same_schema) a.name = base->record.attrs[j].name;
      uint64_t bits = 0;
      if (mode == 3) {
        // unchanged: no payload bytes
      } else if (mode == 2) {
        uint32_t small = 0;
        if (!get(body, at, &small)) return stream_damaged();
        bits = small;
      } else if (!get(body, at, &bits)) {
        return stream_damaged();
      }
      if (mode == 0) {
        a.value = bits_double(bits);
      } else {
        // Delta without its base is damage, never a silently wrong value:
        // a receiver that missed a window must repair before applying.
        std::optional<double> pv =
            same_schema ? std::optional<double>(base->record.attrs[j].value)
            : base != nullptr ? base->record.get(a.name)
                              : std::nullopt;
        if (!pv.has_value()) {
          if (delta_without_base != nullptr) *delta_without_base = true;
          return Status::invalid_argument(
              "wire stream data delta without base");
        }
        if (mode == 3) {
          a.value = *pv;
        } else {
          a.value = mode == 2 ? *pv + static_cast<double>(bits)
                              : *pv + bits_double(bits);
        }
      }
      r.record.attrs.push_back(std::move(a));
    }
    m.responses.push_back(std::move(r));
  }
  if (at != body.size()) {
    return stream_damaged();
  }
  return m;
}

// --- in-band telemetry reports -----------------------------------------------
// body := u16-str agent | u64 tag | i64 start_ns | i64 end_ns | u8 flags |
//         u16 hop_count | hop*
// hop  := u16-str element | u64 queue_pkts | i64 io_time_ns | u8 flags

namespace {

// Fixed-width portion of an encoded hop.
constexpr size_t kMinIntHopSize = 2 + 8 + 8 + 1;
// Fixed-width portion of an encoded report, hops excluded.
constexpr size_t kMinIntReportSize = 2 + 8 + 8 + 8 + 1 + 2;

}  // namespace

Result<std::string> encode_int_report(const IntReportMsg& m) {
  Status st = check_u16_len(m.agent, "agent name");
  if (!st.is_ok()) return st;
  if (m.hops.size() > 0xffff) {
    return Status::invalid_argument(
        "wire: int report of " + std::to_string(m.hops.size()) +
        " hops exceeds the structural cap");
  }
  std::string body;
  put_string(body, m.agent);
  put<uint64_t>(body, m.tag);
  put<int64_t>(body, m.start.ns());
  put<int64_t>(body, m.end.ns());
  put<uint8_t>(body, m.dropped ? 1 : 0);
  put<uint16_t>(body, static_cast<uint16_t>(m.hops.size()));
  for (const IntHopWire& h : m.hops) {
    st = check_u16_len(h.element.name, "element name");
    if (!st.is_ok()) return st;
    if (h.flags > 1) {
      return Status::invalid_argument(
          "wire: int hop carries reserved flag bits");
    }
    put_string(body, h.element.name);
    put<uint64_t>(body, h.queue_pkts);
    put<int64_t>(body, h.io_time_ns);
    put<uint8_t>(body, h.flags);
  }
  if (body.size() > kMaxPayload) {
    return Status::invalid_argument(
        "wire: int report of " + std::to_string(body.size()) +
        " bytes exceeds the structural cap");
  }
  return body;
}

std::optional<size_t> int_report_size(const IntReportShape& shape) {
  if (shape.agent_bytes > 0xffff || shape.hops > 0xffff ||
      shape.longest_hop_name > 0xffff) {
    return std::nullopt;
  }
  const size_t size = kMinIntReportSize + shape.agent_bytes +
                      shape.hops * kMinIntHopSize + shape.hop_name_bytes;
  if (size > kMaxPayload) return std::nullopt;
  return size;
}

Result<IntReportMsg> decode_int_report(std::string_view body) {
  IntReportMsg m;
  size_t at = 0;
  int64_t start_ns = 0, end_ns = 0;
  uint8_t flags = 0;
  uint16_t count = 0;
  if (!get_string(body, at, &m.agent) || !get(body, at, &m.tag) ||
      !get(body, at, &start_ns) || !get(body, at, &end_ns) ||
      !get(body, at, &flags) || flags > 1 || !get(body, at, &count)) {
    return Status::invalid_argument("wire int report structurally damaged");
  }
  if (!count_fits(body, at, count, kMinIntHopSize)) {
    return Status::invalid_argument("wire int report structurally damaged");
  }
  m.start = SimTime::nanos(start_ns);
  m.end = SimTime::nanos(end_ns);
  m.dropped = flags != 0;
  m.hops.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    IntHopWire h;
    std::string name;
    if (!get_string(body, at, &name) || !get(body, at, &h.queue_pkts) ||
        !get(body, at, &h.io_time_ns) || !get(body, at, &h.flags) ||
        h.flags > 1) {
      return Status::invalid_argument("wire int report structurally damaged");
    }
    h.element = ElementId{std::move(name)};
    m.hops.push_back(std::move(h));
  }
  if (at != body.size()) {
    return Status::invalid_argument("wire int report structurally damaged");
  }
  return m;
}

}  // namespace perfsight::wire
