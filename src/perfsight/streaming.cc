#include "perfsight/streaming.h"

#include <algorithm>
#include <utility>

#include "perfsight/stats.h"

namespace perfsight {

const char* to_string(StreamCache::Provenance p) {
  switch (p) {
    case StreamCache::Provenance::kStreamed:
      return "streamed";
    case StreamCache::Provenance::kRepaired:
      return "repaired";
    case StreamCache::Provenance::kInband:
      return "inband";
  }
  return "?";
}

// --- StreamPublisher ---------------------------------------------------------

StreamPublisher::StreamPublisher(AgentClient* agent, const FaultPlan* plan)
    : agent_(agent), plan_(plan), ids_(agent->element_ids()) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

Result<StreamPublisher::Published> StreamPublisher::publish(SimTime at,
                                                            ThreadPool* pool) {
  BatchResponse batch = agent_->query_batch(ids_, at, pool);

  wire::StreamDataMsg msg;
  msg.agent = agent_->name();
  msg.seq = seq_ + 1;
  msg.window_start = at;
  msg.channel_time = batch.channel_time;
  msg.responses = std::move(batch.responses);

  Result<std::string> body =
      wire::encode_stream_data(msg, has_prev_ ? &prev_ : nullptr);
  if (!body.ok()) return body.status();

  seq_ = msg.seq;
  prev_ = std::move(msg);
  has_prev_ = true;

  Published p;
  p.seq = seq_;
  p.body = std::move(body.value());
  p.dropped = plan_ != nullptr && plan_->stream_drop(agent_->name(), seq_);
  if (p.dropped) ++dropped_;
  return p;
}

// --- StreamCache -------------------------------------------------------------

void StreamCache::store_locked(Stream& s, SimTime window_start,
                               Provenance provenance,
                               std::vector<QueryResponse> responses) {
  Window& w = s.windows[window_start.ns()];
  w.provenance = provenance;
  w.responses = std::move(responses);
  if (retention_ > 0) {
    while (s.windows.size() > retention_) {
      s.windows.erase(s.windows.begin());
      ++stats_.windows_pruned;
    }
  }
}

bool StreamCache::beyond_horizon_locked(const Stream& s,
                                        int64_t window_ns) const {
  // A window older than everything retained would be inserted only to be
  // pruned back out — or worse, evict a live window to make room.  Only a
  // full cache has a horizon; a filling one accepts any boundary.
  return retention_ > 0 && s.windows.size() >= retention_ &&
         !s.windows.empty() && window_ns < s.windows.begin()->first;
}

Result<StreamCache::ApplyResult> StreamCache::apply(std::string_view body) {
  Result<wire::StreamFrameInfo> info = wire::peek_stream_data(body);
  if (!info.ok()) return info.status();

  std::lock_guard<std::mutex> lock(mu_);
  Stream& s = streams_[info.value().agent];

  ApplyResult r;
  r.seq = info.value().seq;
  r.expected = s.expected;
  r.window_start = info.value().window_start;

  // A fresh (or reset) stream accepts any seq — the first frame after a
  // subscribe is a snapshot, which may join a publisher mid-stream.
  const bool fresh = !s.has_prev;
  if (!fresh && r.seq > s.expected) {
    ++stats_.gaps;
    if (m_gaps_ != nullptr) m_gaps_->increment();
    r.missed = r.seq - s.expected;
    return r;  // applied == false: caller repairs, then re-applies
  }
  const bool regressed = !fresh && r.seq < s.expected;

  // A regressed stream lost its base (the publisher restarted): the frame
  // must stand alone, so decode it snapshot-style.  Delta attrs then fail
  // with "delta without base" instead of applying against the wrong world.
  const wire::StreamDataMsg* base = (fresh || regressed) ? nullptr : &s.prev;
  bool no_base = false;
  Result<wire::StreamDataMsg> decoded =
      wire::decode_stream_data(body, base, &no_base);
  if (!decoded.ok()) {
    if (no_base && base == nullptr) {
      // Not damage: a well-formed delta frame met a stream with no base to
      // decode it against — a fresh/reset cache joining mid-stream, or a
      // restarted publisher's epoch entered at a delta frame.  Answer
      // needs_snapshot (stream state untouched) so the caller resyncs via
      // StreamPublisher::force_snapshot or a resubscribe, instead of the
      // permanent decode-error loop a hard Status would cause here.
      ++stats_.snapshot_requests;
      r.regressed = regressed;
      r.needs_snapshot = true;
      return r;
    }
    return decoded.status();
  }
  wire::StreamDataMsg msg = std::move(decoded.value());

  if (regressed) {
    ++stats_.resets;
    r.regressed = true;
  }
  s.expected = r.seq + 1;
  store_locked(s, msg.window_start, Provenance::kStreamed, msg.responses);
  s.prev = std::move(msg);
  s.has_prev = true;

  ++stats_.frames_applied;
  stats_.bytes_applied += body.size();
  if (m_frames_ != nullptr) m_frames_->increment();
  if (m_bytes_ != nullptr) m_bytes_->add(body.size());
  r.applied = true;
  return r;
}

void StreamCache::repair(const std::string& agent, SimTime window_start,
                         const BatchResponse& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  Stream& s = streams_[agent];

  if (beyond_horizon_locked(s, window_start.ns())) {
    // Resurrecting a window past the retention horizon would transiently
    // push windows.size() over retention_ and skew windows_pruned; worse,
    // rebasing the delta cursor onto ancient data would corrupt every later
    // in-order decode.  Drop the stale backfill whole.
    ++stats_.repairs_clamped;
    return;
  }

  store_locked(s, window_start, Provenance::kRepaired, batch.responses);

  // The repaired window becomes the delta base: the next in-order frame was
  // encoded against the publisher's capture of this same boundary, and the
  // fault plan's purity makes the pull's attr bits identical to it.
  wire::StreamDataMsg base;
  base.agent = agent;
  base.seq = s.expected;
  base.window_start = window_start;
  base.channel_time = batch.channel_time;
  base.responses = batch.responses;
  s.prev = std::move(base);
  s.has_prev = true;
  ++s.expected;

  ++stats_.repairs;
  if (m_repairs_ != nullptr) m_repairs_->increment();
}

void StreamCache::ingest(const std::string& agent, SimTime window_start,
                         Provenance p, std::vector<QueryResponse> responses) {
  std::sort(responses.begin(), responses.end(),
            [](const QueryResponse& a, const QueryResponse& b) {
              return a.record.element < b.record.element;
            });
  std::lock_guard<std::mutex> lock(mu_);
  Stream& s = streams_[agent];
  if (beyond_horizon_locked(s, window_start.ns())) {
    ++stats_.repairs_clamped;
    return;
  }
  // Side-door windows (in-band telemetry) never touch the seq/delta cursor:
  // they live on their own agent key and carry no wire base to rebase onto.
  store_locked(s, window_start, p, std::move(responses));
}

void StreamCache::reset_stream(const std::string& agent) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(agent);
  if (it == streams_.end()) return;
  it->second.has_prev = false;
  it->second.expected = 1;
  ++stats_.resets;
}

std::optional<QueryResponse> StreamCache::find(const std::string& agent,
                                               const ElementId& id,
                                               SimTime window_start) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = streams_.find(agent);
  if (sit == streams_.end()) return std::nullopt;
  auto wit = sit->second.windows.find(window_start.ns());
  if (wit == sit->second.windows.end()) return std::nullopt;
  const std::vector<QueryResponse>& rs = wit->second.responses;
  auto rit = std::lower_bound(
      rs.begin(), rs.end(), id,
      [](const QueryResponse& r, const ElementId& want) {
        return r.record.element < want;
      });
  if (rit == rs.end() || !(rit->record.element == id)) return std::nullopt;
  return *rit;
}

bool StreamCache::window_present(const std::string& agent,
                                 SimTime window_start) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = streams_.find(agent);
  return sit != streams_.end() &&
         sit->second.windows.count(window_start.ns()) > 0;
}

std::optional<StreamCache::Provenance> StreamCache::window_provenance(
    const std::string& agent, SimTime window_start) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = streams_.find(agent);
  if (sit == streams_.end()) return std::nullopt;
  auto wit = sit->second.windows.find(window_start.ns());
  if (wit == sit->second.windows.end()) return std::nullopt;
  return wit->second.provenance;
}

uint64_t StreamCache::next_seq(const std::string& agent) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = streams_.find(agent);
  return sit == streams_.end() ? 1 : sit->second.expected;
}

void StreamCache::set_retention(size_t windows) {
  std::lock_guard<std::mutex> lock(mu_);
  retention_ = windows;
}

StreamCache::Stats StreamCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void StreamCache::set_metrics(MetricsRegistry* m) {
  std::lock_guard<std::mutex> lock(mu_);
  m_frames_ = &m->counter("perfsight_stream_frames_applied_total",
                          "Stream frames absorbed into the window cache");
  m_gaps_ = &m->counter("perfsight_stream_gaps_total",
                        "Stream frames refused for a sequence gap");
  m_repairs_ = &m->counter("perfsight_stream_repairs_total",
                           "Windows backfilled by targeted repair pulls");
  m_bytes_ = &m->counter("perfsight_stream_bytes_applied_total",
                         "Encoded stream bytes accepted into the cache");
}

// --- StreamCacheAgent --------------------------------------------------------

StreamCacheAgent::StreamCacheAgent(const StreamCache* cache,
                                   std::string agent_name,
                                   std::vector<ElementId> elements)
    : cache_(cache), name_(std::move(agent_name)), ids_(std::move(elements)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  for (const ElementId& id : ids_) known_[id] = true;
}

StreamCacheAgent::StreamCacheAgent(const StreamCache* cache,
                                   const AgentClient& like)
    : StreamCacheAgent(cache, like.name(), like.element_ids()) {}

bool StreamCacheAgent::has_element(const ElementId& id) const {
  return known_.count(id) > 0;
}

BatchResponse StreamCacheAgent::query_batch(const std::vector<ElementId>& ids,
                                            SimTime now, ThreadPool*) {
  std::vector<ElementId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  BatchResponse out;
  for (const ElementId& id : sorted) {
    if (known_.count(id) == 0) {
      ++out.unknown_ids;
      continue;
    }
    std::optional<QueryResponse> r = cache_->find(name_, id, now);
    if (!r.has_value()) {
      // Degrade like a lost wire frame: a visible kMissing blind spot.
      QueryResponse miss;
      miss.record.timestamp = now;
      miss.record.element = id;
      miss.quality = DataQuality::kMissing;
      miss.attempts = 1;
      miss.fail_code = StatusCode::kUnavailable;
      out.responses.push_back(std::move(miss));
      ++out.degraded;
      continue;
    }
    if (r->quality != DataQuality::kFresh) ++out.degraded;
    out.responses.push_back(std::move(*r));
  }
  return out;  // channel_time stays zero: paid once, at capture
}

// --- StreamPipeline ----------------------------------------------------------

void StreamPipeline::add_agent(AgentClient* agent) {
  entries_.push_back(Entry{agent, StreamPublisher(agent, plan_)});
}

Status StreamPipeline::pump(SimTime at, ThreadPool* pool) {
  for (Entry& e : entries_) {
    Result<StreamPublisher::Published> pub = e.pub.publish(at, pool);
    if (!pub.ok()) return pub.status();
    if (pub.value().dropped) {
      // The watchdog path: this boundary produced no frame, so repair now —
      // a pull at the same instant — before the world moves on.  Purity of
      // the fault plan makes the pull reproduce the dropped capture.
      BatchResponse b = e.agent->query_batch(e.pub.elements(), at, pool);
      cache_->repair(e.agent->name(), at, b);
      continue;
    }
    bytes_published_ += pub.value().body.size();
    Result<StreamCache::ApplyResult> applied = cache_->apply(pub.value().body);
    if (!applied.ok()) return applied.status();
    if (!applied.value().applied && applied.value().needs_snapshot) {
      // The cache lost its delta base (reset, or a restarted publisher's
      // epoch): republish this boundary as a snapshot.  The fault plan's
      // purity makes the re-capture bit-identical, and a fresh/regressed
      // stream accepts the bumped seq.
      e.pub.force_snapshot();
      Result<StreamPublisher::Published> again = e.pub.publish(at, pool);
      if (!again.ok()) return again.status();
      bytes_published_ += again.value().body.size();
      applied = cache_->apply(again.value().body);
      if (!applied.ok()) return applied.status();
    }
    if (!applied.value().applied) {
      return Status::failed_precondition(
          "stream pipeline: unexpected gap for agent " + e.agent->name());
    }
  }
  return Status::ok();
}

uint64_t StreamPipeline::frames_dropped() const {
  uint64_t n = 0;
  for (const Entry& e : entries_) n += e.pub.frames_dropped();
  return n;
}

// --- StreamSubscriber --------------------------------------------------------

Status StreamSubscriber::connect(transport::WallDuration deadline,
                                 uint64_t from_seq, Duration window) {
  close();
  Result<transport::Socket> s = transport::connect(ep_, deadline);
  if (!s.ok()) return s.status();
  sock_ = std::move(s.value());

  Result<std::string> raw = transport::read_message_bytes(sock_, deadline);
  if (!raw.ok()) {
    close();
    return raw.status();
  }
  Result<wire::Message> msg = wire::decode_message(raw.value());
  if (!msg.ok()) {
    close();
    return msg.status();
  }
  if (msg.value().kind != wire::MessageKind::kHello) {
    close();
    return Status::unavailable(
        std::string("stream subscribe: expected hello, got ") +
        wire::to_string(msg.value().kind));
  }
  Result<wire::HelloMsg> hello = wire::decode_hello(msg.value().body);
  if (!hello.ok()) {
    close();
    return hello.status();
  }
  hello_ = std::move(hello.value());

  wire::SubscribeMsg sub;
  sub.agent = bind_;
  sub.from_seq = from_seq;
  sub.window_ns = window.ns();
  Status sent = sock_.send_all(
      wire::encode_message(wire::MessageKind::kSubscribe,
                           wire::encode_subscribe(sub)),
      deadline);
  if (!sent.is_ok()) close();
  return sent;
}

Result<std::string> StreamSubscriber::next_body(
    transport::WallDuration deadline) {
  if (!sock_.valid()) {
    return Status::unavailable("stream subscriber: not connected");
  }
  Result<std::string> raw = transport::read_message_bytes(sock_, deadline);
  if (!raw.ok()) return raw.status();
  Result<wire::Message> msg = wire::decode_message(raw.value());
  if (!msg.ok()) return msg.status();
  if (msg.value().kind == wire::MessageKind::kError) {
    Result<wire::ErrorMsg> err = wire::decode_error(msg.value().body);
    if (err.ok()) return Status(err.value().code, err.value().message);
    return Status::unavailable("stream subscriber: undecodable server error");
  }
  if (msg.value().kind != wire::MessageKind::kStreamData) {
    return Status::unavailable(
        std::string("stream subscriber: unexpected ") +
        wire::to_string(msg.value().kind));
  }
  return std::move(msg.value().body);
}

void StreamSubscriber::close() { sock_.close(); }

}  // namespace perfsight
