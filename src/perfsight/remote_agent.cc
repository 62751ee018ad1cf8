#include "perfsight/remote_agent.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "perfsight/trace.h"
#include "perfsight/wire.h"

namespace perfsight {

namespace {

// Transport lifecycle trace events hang off a synthetic element, like the
// controller's scatter events.
const ElementId& transport_trace_id() {
  static const ElementId kId{"transport"};
  return kId;
}

// The event loop's poll() timeout: how promptly stop(), accept backoff
// expiry and per-connection I/O deadlines are noticed.
constexpr int kServePollMs = 200;

// Accept-error backoff bounds: a persistent accept failure (EMFILE, ...)
// must not hot-spin the serve thread, but recovery after the condition
// clears should be prompt.
constexpr int kAcceptBackoffMinMs = 10;
constexpr int kAcceptBackoffMaxMs = 1000;

// Compact a partially-drained write queue once the sent prefix crosses
// this, so a long-lived pipelining connection cannot grow it unboundedly.
constexpr size_t kWriteCompactBytes = 64 * 1024;

std::chrono::nanoseconds to_wall(Duration d) {
  return std::chrono::nanoseconds(d.ns());
}

}  // namespace

// --- RemoteAgentServer -------------------------------------------------------

RemoteAgentServer::RemoteAgentServer(std::vector<Agent*> agents,
                                     transport::Endpoint ep)
    : agents_(std::move(agents)), ep_(std::move(ep)) {
  PS_CHECK(!agents_.empty());
  for (Agent* a : agents_) PS_CHECK(a != nullptr);
  trace_recorder_.set_enabled(true);
}

void RemoteAgentServer::set_metrics(MetricsRegistry* m) {
  PS_CHECK(!running_);  // the serve thread reads the pointer unlocked
  if (m == nullptr) {
    m_accept_errors_ = nullptr;
    return;
  }
  m_accept_errors_ = &m->counter(
      "perfsight_transport_accept_errors_total",
      "Listener accept failures that were real errors (EMFILE, ...), each "
      "backing the accept path off instead of hot-spinning",
      "endpoint=\"" + prom_escape(ep_.to_string()) + "\"");
}

Status RemoteAgentServer::start() {
  PS_CHECK(!thread_.joinable());
  Result<transport::Listener> l = transport::Listener::listen(ep_);
  if (!l.ok()) return l.status();
  listener_ = std::move(l).take();
  ep_ = listener_.bound_endpoint();  // ephemeral tcp port resolved
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { serve(); });
  return Status::ok();
}

void RemoteAgentServer::stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  listener_.close();
  running_ = false;
}

void RemoteAgentServer::inject_truncate_next_batch(size_t bytes) {
  std::lock_guard<std::mutex> lock(inject_mu_);
  truncate_next_ = bytes;
}

void RemoteAgentServer::inject_corrupt_next_batch(size_t index) {
  std::lock_guard<std::mutex> lock(inject_mu_);
  corrupt_next_ = index;
}

void RemoteAgentServer::inject_drop_next_reply() {
  std::lock_guard<std::mutex> lock(inject_mu_);
  drop_next_ = true;
}

void RemoteAgentServer::inject_skip_next_publish() {
  std::lock_guard<std::mutex> lock(inject_mu_);
  skip_next_publish_ = true;
}

void RemoteAgentServer::request_publish(SimTime at) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  pending_publishes_.push_back(at);
}

void RemoteAgentServer::publish_tick(
    SimTime at, std::vector<std::unique_ptr<Conn>>& conns) {
  bool skip = false;
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    skip = skip_next_publish_;
    skip_next_publish_ = false;
  }
  for (Agent* agent : agents_) {
    bool subscribed = false;
    for (const auto& c : conns) {
      if (!c->dead && c->sub_agent == agent->name()) {
        subscribed = true;
        break;
      }
    }
    // No subscribers: no capture, no seq advance, zero stream bytes.
    if (!subscribed) continue;

    // One capture and one seq per agent per boundary, shared by every
    // subscriber — gap detection works across connections.
    const uint64_t seq = ++stream_seq_[agent->name()];
    BatchResponse b = agent->query_batch(agent->element_ids(), at);
    wire::StreamDataMsg msg;
    msg.agent = agent->name();
    msg.seq = seq;
    msg.window_start = at;
    msg.channel_time = b.channel_time;
    msg.responses = std::move(b.responses);

    for (auto& c : conns) {
      if (c->dead || c->sub_agent != agent->name()) continue;
      if (skip) {
        // Injected transport loss: the capture was paid and the delta chain
        // must stay coherent, so a connection that already has a base
        // advances it (the client repairs the missed window with a pull
        // whose bytes, by fault-plan purity, equal this capture).  A fresh
        // connection keeps waiting for its snapshot — its first *sent*
        // frame must stand alone.
        if (c->stream_prev != nullptr) *c->stream_prev = msg;
        continue;
      }
      // Delta against THIS connection's last frame; a fresh subscriber has
      // no base yet, so its first frame is automatically a snapshot.
      Result<std::string> body =
          wire::encode_stream_data(msg, c->stream_prev.get());
      if (!body.ok()) {
        c->dead = true;
        continue;
      }
      c->wbuf += wire::encode_message(wire::MessageKind::kStreamData,
                                      body.value());
      if (c->stream_prev == nullptr) {
        c->stream_prev = std::make_unique<wire::StreamDataMsg>();
      }
      *c->stream_prev = msg;
      stream_frames_.fetch_add(1, std::memory_order_relaxed);
      if (!flush_writes(*c)) c->dead = true;
    }
  }
}

int64_t RemoteAgentServer::clock_ns() const {
  return transport::span_clock_ns() +
         clock_skew_ns_.load(std::memory_order_relaxed);
}

std::string RemoteAgentServer::trace_data_bytes(const std::string& process) {
  wire::TraceDataMsg td;
  td.process = process;
  td.events = trace_recorder_.drain();
  return wire::encode_message(wire::MessageKind::kTraceData,
                              wire::encode_trace_data(td));
}

std::string RemoteAgentServer::hello_bytes() const {
  wire::HelloMsg hello;
  hello.agent_name = agents_.front()->name();
  hello.elements = agents_.front()->element_ids();  // already ascending
  hello.clock_ns = clock_ns();
  if (agents_.size() > 1) {
    hello.roster.reserve(agents_.size());
    for (Agent* a : agents_) {
      hello.roster.push_back({a->name(), a->element_ids()});
    }
  }
  // Element-set epoch: a fingerprint over every hosted agent's name and
  // element ids.  A reconnecting client compares it against the epoch it
  // cached — equal means the element set is unchanged and the reconnect
  // diff can be skipped entirely.
  std::string fp;
  for (Agent* a : agents_) {
    fp += a->name();
    fp += '\0';
    for (const ElementId& id : a->element_ids()) {
      fp += id.name;
      fp += '\n';
    }
  }
  hello.epoch = wire::fnv1a64(fp);
  if (hello.epoch == 0) hello.epoch = 1;  // 0 is "not advertised" on the wire
  return wire::encode_message(wire::MessageKind::kHello,
                              wire::encode_hello(hello));
}

Agent* RemoteAgentServer::route(const std::string& agent) {
  if (agent.empty()) return agents_.front();  // old request format: primary
  for (Agent* a : agents_) {
    if (a->name() == agent) return a;
  }
  return nullptr;
}

// One pollfd set over listener + every live connection; everything below
// runs on the single serve thread, so connection state needs no locks.
void RemoteAgentServer::serve() {
  std::vector<std::unique_ptr<Conn>> conns;
  // Accept-error backoff: while a real accept failure is fresh, the
  // listener fd sits out of the poll set until `accept_resume`.
  transport::Clock::time_point accept_resume{};
  int accept_backoff_ms = 0;

  std::vector<struct pollfd> fds;
  while (!stop_) {
    const bool accepting = transport::Clock::now() >= accept_resume;
    fds.clear();
    // fd -1 is legal and ignored by poll(): keeps index i+1 <-> conns[i].
    fds.push_back({accepting ? listener_.fd() : -1, POLLIN, 0});
    for (const auto& c : conns) {
      short events = POLLIN;
      if (c->woff < c->wbuf.size()) events |= POLLOUT;
      fds.push_back({c->sock.fd(), events, 0});
    }
    ::poll(fds.data(), fds.size(), kServePollMs);
    if (stop_) break;

    // Service the existing connections first (indices still line up with
    // the pollfd set built above), then reap, then accept.
    const size_t served = conns.size();
    const auto now = transport::Clock::now();
    for (size_t i = 0; i < served; ++i) {
      Conn& c = *conns[i];
      const short re = fds[i + 1].revents;
      if (re & POLLNVAL) {
        c.dead = true;
        continue;
      }
      // POLLHUP/POLLERR still go through the read path first: a half-closed
      // peer may have final requests buffered; a vanished peer just gets
      // reaped when the read reports EOF.
      if (!c.dead && (re & (POLLIN | POLLHUP | POLLERR))) {
        for (;;) {
          Result<size_t> got = c.sock.read_some(&c.rbuf);
          if (!got.ok()) {
            c.dead = true;  // peer closed or hard socket error
            break;
          }
          if (got.value() == 0) break;  // drained to EAGAIN
        }
        if (!c.dead && !drain_messages(c)) c.dead = true;
        // Anchor the partial-read deadline at the first buffered byte: a
        // peer trickling a message one byte per poll tick cannot hold the
        // buffer open forever.
        if (c.rbuf.empty()) {
          c.read_since = transport::Clock::time_point{};
        } else if (c.read_since == transport::Clock::time_point{}) {
          c.read_since = now;
        }
      }
      if (!c.dead && c.woff < c.wbuf.size() && !flush_writes(c)) c.dead = true;
      if (!c.dead && c.close_after_flush && c.woff >= c.wbuf.size()) {
        c.dead = true;  // injected torn stream fully flushed: cut it
      }
      if (!c.dead) {
        // Per-connection I/O deadline: a stalled partial read or a write
        // queue making no progress costs the connection, not the loop.
        const auto zero = transport::Clock::time_point{};
        if ((c.read_since != zero && now - c.read_since > io_deadline_) ||
            (c.write_since != zero && now - c.write_since > io_deadline_)) {
          c.dead = true;
        }
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& c) {
                                 return c->dead;
                               }),
                conns.end());

    // Push-mode boundaries requested since the last tick: capture once per
    // subscribed agent per boundary and queue the frames.
    std::vector<SimTime> publishes;
    {
      std::lock_guard<std::mutex> lock(publish_mu_);
      publishes.swap(pending_publishes_);
    }
    for (SimTime at : publishes) publish_tick(at, conns);
    if (!publishes.empty()) {
      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const std::unique_ptr<Conn>& c) {
                                   return c->dead;
                                 }),
                  conns.end());
    }

    if (accepting && (fds[0].revents & POLLIN)) {
      // Drain every pending connection; a zero deadline makes accept()
      // report "nothing pending" as kDeadlineExceeded.
      for (;;) {
        Result<transport::Socket> a =
            listener_.accept(transport::WallDuration(0));
        if (!a.ok()) {
          if (a.status().code() == StatusCode::kDeadlineExceeded) break;
          // A real accept error (EMFILE, ...): count it and take the
          // listener out of the poll set for a bounded backoff so the loop
          // keeps serving live connections instead of hot-spinning.
          accept_errors_.fetch_add(1, std::memory_order_relaxed);
          if (m_accept_errors_ != nullptr) m_accept_errors_->increment();
          accept_backoff_ms =
              accept_backoff_ms == 0
                  ? kAcceptBackoffMinMs
                  : std::min(accept_backoff_ms * 2, kAcceptBackoffMaxMs);
          accept_resume = transport::Clock::now() +
                          std::chrono::milliseconds(accept_backoff_ms);
          break;
        }
        accept_backoff_ms = 0;
        auto c = std::make_unique<Conn>();
        c->sock = std::move(a).take();
        c->sock.set_nonblocking(true);
        c->wbuf = hello_bytes();
        if (flush_writes(*c)) conns.push_back(std::move(c));
      }
    }
    live_connections_.store(conns.size(), std::memory_order_relaxed);
  }
  conns.clear();  // closes every socket
  live_connections_.store(0, std::memory_order_relaxed);
}

// Parses and dispatches every complete PSM1 message buffered in c.rbuf,
// leaving any trailing partial message in place for the next read.
// Returns false when the connection must close (framing damage, protocol
// confusion, or an injected fault).
bool RemoteAgentServer::drain_messages(Conn& c) {
  while (c.rbuf.size() >= wire::kMessagePrefixSize) {
    // Validate the prefix before waiting on the body: bad magic or an
    // oversize length means the stream is not (or no longer) PSM1, and
    // waiting for more bytes could never repair it.
    size_t at = 0;
    uint32_t magic = 0;
    uint8_t kind = 0;
    uint32_t body_len = 0;
    if (!wire::get_u32(c.rbuf, at, &magic) || magic != wire::kMessageMagic ||
        !wire::get_u8(c.rbuf, at, &kind) ||
        !wire::get_u32(c.rbuf, at, &body_len) ||
        body_len > wire::kMaxPayload) {
      return false;
    }
    const size_t total = wire::kMessagePrefixSize + body_len;
    if (c.rbuf.size() < total) break;  // partial: wait for more bytes
    Result<wire::Message> msg =
        wire::decode_message(std::string_view(c.rbuf).substr(0, total));
    if (!msg.ok()) return false;  // checksum failure: framing untrustworthy
    const bool keep = handle_message(c, msg.value());
    c.rbuf.erase(0, total);
    if (!keep) return false;
  }
  return true;
}

// Dispatches one decoded control message, queueing any reply on c.wbuf.
// Returns false to close the connection.  Dispatch is synchronous on the
// serve thread — agent queries are in-memory reads, so one slow peer's
// *socket* can stall nobody (writes queue), and query cost itself is the
// same for every transport.
bool RemoteAgentServer::handle_message(Conn& c, const wire::Message& msg) {
  switch (msg.kind) {
    case wire::MessageKind::kBatchRequest: {
      Result<wire::BatchRequestMsg> req = wire::decode_batch_request(msg.body);
      if (!req.ok()) return false;
      // Fleet routing: an explicitly named agent must exist; the empty
      // (pre-roster) form routes to the primary.  An unknown name closes
      // the connection — bindings are validated at connect time, so this
      // only happens when the server's agent set changed under the client,
      // and a reconnect re-runs that validation.
      Agent* agent = route(req.value().agent);
      if (agent == nullptr) return false;
      // A traced request (trace_id != 0) gets a serve span — span-clock
      // timestamps, parented to the span id off the wire — and installs
      // that span as the context the agent's own spans hang from.
      const uint64_t trace_id = req.value().trace_id;
      const int64_t serve_t0 = clock_ns();
      const uint64_t serve_span =
          trace_id != 0 ? next_span_id(span_domain_for(agent->name())) : 0;
      BatchResponse b;
      {
        ScopedTraceContext span_ctx(TraceContext{trace_id, serve_span});
        b = agent->query_batch(req.value().ids, req.value().now);
      }
      if (trace_id != 0) {
        trace_recorder_.record_span(
            ElementId{agent->name() + "/serve"}, SimTime::nanos(serve_t0),
            TraceEventKind::kSpanServerBatch,
            Duration::nanos(clock_ns() - serve_t0), serve_span,
            req.value().parent_span,
            static_cast<double>(req.value().ids.size()), "batch");
      }
      Result<std::string> bytes = wire::encode_batch(b);
      // The agent produced this response; if it cannot travel, that is a
      // programming error (oversize names never enter via add_element).
      PS_CHECK(bytes.ok());
      std::string payload = std::move(bytes).take();

      // Consume any armed damage.
      std::optional<size_t> truncate;
      std::optional<size_t> corrupt;
      bool drop = false;
      {
        std::lock_guard<std::mutex> lock(inject_mu_);
        truncate = truncate_next_;
        corrupt = corrupt_next_;
        drop = drop_next_;
        truncate_next_.reset();
        corrupt_next_.reset();
        drop_next_ = false;
      }
      batches_served_.fetch_add(1, std::memory_order_relaxed);
      if (drop) return false;  // close without a reply
      if (corrupt && !payload.empty()) {
        payload[*corrupt % payload.size()] ^= 0x20;
      }
      if (truncate) {
        // Queue the torn prefix, then cut the connection once it flushes:
        // the peer observes a stream that dies mid-frame.
        c.wbuf.append(payload, 0, std::min(*truncate, payload.size()));
        c.close_after_flush = true;
        return true;
      }
      c.wbuf += payload;
      // Piggyback fast path: a traced request earns the drained rings
      // right behind the batch.  Untraced requests get not one extra
      // byte — the disabled-mode reply stays byte-identical.
      if (trace_id != 0) c.wbuf += trace_data_bytes(agent->name());
      return true;
    }
    case wire::MessageKind::kListElements:
      c.wbuf += hello_bytes();
      return true;
    case wire::MessageKind::kTraceHarvest:
      c.wbuf += trace_data_bytes(agents_.front()->name());
      return true;
    case wire::MessageKind::kSubscribe: {
      Result<wire::SubscribeMsg> req = wire::decode_subscribe(msg.body);
      if (!req.ok()) return false;
      // Same routing contract as batch requests: "" = primary, an unknown
      // name closes the connection (bindings are validated at connect).
      Agent* agent = route(req.value().agent);
      if (agent == nullptr) return false;
      c.sub_agent = agent->name();
      c.stream_prev.reset();  // first frame to this connection: snapshot
      return true;
    }
    default:
      return false;  // a client speaking server->client kinds is confused
  }
}

// Pushes queued bytes with nonblocking writes.  Returns false on a hard
// socket error; EAGAIN leaves the remainder queued (poll will report
// POLLOUT) and starts the write-stall clock.
bool RemoteAgentServer::flush_writes(Conn& c) {
  const size_t before = c.woff;
  while (c.woff < c.wbuf.size()) {
    Result<size_t> n =
        c.sock.write_some(std::string_view(c.wbuf).substr(c.woff));
    if (!n.ok()) return false;
    if (n.value() == 0) break;  // socket buffer full
    c.woff += n.value();
  }
  if (c.woff >= c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
    c.write_since = transport::Clock::time_point{};
  } else {
    // Still queued: the stall clock measures time since the last forward
    // progress, so it re-arms on progress and on first arming — never on a
    // tick that moved nothing (that would defeat the deadline).
    if (c.woff != before || c.write_since == transport::Clock::time_point{}) {
      c.write_since = transport::Clock::now();
    }
    if (c.woff >= kWriteCompactBytes) {
      c.wbuf.erase(0, c.woff);
      c.woff = 0;
    }
  }
  return true;
}

// --- RemoteAgent -------------------------------------------------------------

const std::string& RemoteAgent::name() const {
  // Set once by the first successful connect(), before the adapter is
  // handed to a controller; immutable afterwards.
  return name_;
}

bool RemoteAgent::has_element(const ElementId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return element_set_.count(id) > 0;
}

std::vector<ElementId> RemoteAgent::element_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return elements_;
}

std::vector<std::string> RemoteAgent::roster_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return roster_names_;
}

void RemoteAgent::set_retry_policy(RetryPolicy p) {
  std::lock_guard<std::mutex> lock(mu_);
  retry_ = p;
}

void RemoteAgent::set_breaker_config(CircuitBreakerConfig c) {
  std::lock_guard<std::mutex> lock(mu_);
  breaker_cfg_ = c;
}

void RemoteAgent::set_deadline(transport::WallDuration d) {
  std::lock_guard<std::mutex> lock(mu_);
  deadline_ = d;
}

void RemoteAgent::set_metrics(MetricsRegistry* m) {
  std::lock_guard<std::mutex> lock(mu_);
  if (m == nullptr) {
    m_connects_ = m_reconnects_ = m_batches_ = m_damaged_ = nullptr;
    return;
  }
  const std::string label = "agent=\"" + prom_escape(name_) + "\"";
  m_connects_ = &m->counter("perfsight_transport_connects_total",
                            "Successful dial+hello handshakes", label);
  m_reconnects_ = &m->counter("perfsight_transport_reconnects_total",
                              "Connections re-established after loss", label);
  m_batches_ = &m->counter("perfsight_transport_batches_total",
                           "Batch round trips attempted over the socket",
                           label);
  m_damaged_ = &m->counter("perfsight_transport_damaged_batches_total",
                           "Batches that arrived short or corrupt", label);
}

BreakerState RemoteAgent::breaker_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_state_;
}

RemoteAgent::TransportStats RemoteAgent::transport_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<RemoteAgent::RosterDiff> RemoteAgent::drain_roster_diffs() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RosterDiff> out = std::move(roster_diffs_);
  roster_diffs_.clear();
  return out;
}

std::vector<ElementId> RemoteAgent::departed_elements() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ElementId> out(departed_.begin(), departed_.end());
  std::sort(out.begin(), out.end());
  return out;
}

Status RemoteAgent::connect() {
  std::lock_guard<std::mutex> lock(mu_);
  return connect_locked(SimTime());
}

int64_t RemoteAgent::clock_offset_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_offset_ns_;
}

Status RemoteAgent::read_trace_data_locked() {
  Result<std::string> raw = transport::read_message_bytes(sock_, deadline_);
  if (!raw.ok()) {
    drop_connection_locked();
    return raw.status();
  }
  Result<wire::Message> msg = wire::decode_message(raw.value());
  if (!msg.ok() || msg.value().kind != wire::MessageKind::kTraceData) {
    drop_connection_locked();  // stream framing is no longer trustworthy
    return Status::unavailable("transport: expected trace data from " +
                               ep_.to_string());
  }
  Result<wire::TraceDataMsg> td = wire::decode_trace_data(msg.value().body);
  if (!td.ok()) {
    drop_connection_locked();
    return td.status();
  }
  TraceRecorder& g = TraceRecorder::global();
  if (g.enabled() && !td.value().events.empty()) {
    g.add_remote_lane(td.value().process, clock_offset_ns_,
                      std::move(td.value().events));
  }
  return Status::ok();
}

Status RemoteAgent::harvest_trace() {
  std::lock_guard<std::mutex> lock(mu_);
  Status st = ensure_connected_locked(SimTime());
  if (!st.is_ok()) return st;
  Status sent = sock_.send_all(
      wire::encode_message(wire::MessageKind::kTraceHarvest, ""), deadline_);
  if (!sent.is_ok()) {
    drop_connection_locked();
    return sent;
  }
  return read_trace_data_locked();
}

void RemoteAgent::drop_connection_locked() { sock_.close(); }

void RemoteAgent::note_connect_failure_locked() {
  ++consecutive_failures_;
  if (breaker_state_ == BreakerState::kHalfOpen ||
      consecutive_failures_ >= breaker_cfg_.failure_threshold) {
    breaker_state_ = BreakerState::kOpen;
    breaker_opened_at_ = transport::Clock::now();
  }
}

Status RemoteAgent::connect_locked(SimTime now) {
  // Bracket the dial + hello with local span-clock samples: the server's
  // clock_ns rode in the hello, so `remote - midpoint(c0, c1)` estimates
  // the remote-minus-local clock offset (NTP's classic symmetric-delay
  // assumption), good to about half the handshake round trip.
  const int64_t c0 = transport::span_clock_ns();
  Result<transport::Socket> s = transport::connect(ep_, deadline_);
  if (!s.ok()) return s.status();
  transport::Socket sock = std::move(s).take();

  Result<std::string> raw = transport::read_message_bytes(sock, deadline_);
  if (!raw.ok()) return raw.status();
  Result<wire::Message> msg = wire::decode_message(raw.value());
  if (!msg.ok() || msg.value().kind != wire::MessageKind::kHello) {
    return Status::unavailable("transport: peer did not send a hello");
  }
  Result<wire::HelloMsg> hello = wire::decode_hello(msg.value().body);
  if (!hello.ok()) return hello.status();
  wire::HelloMsg h = std::move(hello).take();

  // Resolve which roster entry this adapter is bound to.  Unbound (empty
  // bind_) means the primary — the hello's base fields, exactly what a
  // pre-roster client reads.  A named binding must exist on the far end;
  // a miss is a config error, not a transient, so no retry is owed.
  std::string selected_name = h.agent_name;
  std::vector<ElementId> selected_elements = std::move(h.elements);
  std::vector<std::string> roster;
  if (h.roster.empty()) {
    roster.push_back(h.agent_name);
  } else {
    roster.reserve(h.roster.size());
    for (const wire::HelloMsg::AgentInfo& a : h.roster) {
      roster.push_back(a.name);
    }
  }
  if (!bind_.empty() && bind_ != selected_name) {
    bool found = false;
    for (wire::HelloMsg::AgentInfo& a : h.roster) {
      if (a.name == bind_) {
        selected_name = a.name;
        selected_elements = std::move(a.elements);
        found = true;
        break;
      }
    }
    if (!found) {
      std::string names;
      for (const std::string& n : roster) {
        if (!names.empty()) names += ", ";
        names += n;
      }
      return Status::failed_precondition(
          "transport: endpoint " + ep_.to_string() + " does not host agent '" +
          bind_ + "' (roster: " + names + ")");
    }
  }
  if (!name_.empty() && selected_name != name_) {
    return Status::failed_precondition(
        "transport: endpoint " + ep_.to_string() + " now serves agent '" +
        selected_name + "', expected '" + name_ + "'");
  }

  const int64_t c1 = transport::span_clock_ns();
  clock_offset_ns_ = h.clock_ns - (c0 + (c1 - c0) / 2);

  const bool first = name_.empty();

  // Reconnect-aware hello diff: compare the fresh advertisement against the
  // cached element set.  An unchanged epoch proves the set identical and
  // skips the walk; otherwise removed ids become departed (answered locally
  // as "departed at reconnect" blind spots until they re-appear) and added
  // ids are servable immediately — no full redial.  The delta is queued for
  // the deployment layer.
  if (!first && h.epoch != 0 && h.epoch == epoch_) {
    ++stats_.epoch_skips;
  } else if (!first) {
    RosterDiff diff;
    diff.old_epoch = epoch_;
    diff.new_epoch = h.epoch;
    // Both sets are ascending (hellos advertise sorted ids); a two-pointer
    // walk yields both deltas.
    size_t oi = 0, ni = 0;
    while (oi < elements_.size() || ni < selected_elements.size()) {
      if (ni >= selected_elements.size() ||
          (oi < elements_.size() && elements_[oi] < selected_elements[ni])) {
        diff.removed.push_back(elements_[oi++]);
      } else if (oi >= elements_.size() ||
                 selected_elements[ni] < elements_[oi]) {
        diff.added.push_back(selected_elements[ni++]);
      } else {
        ++oi;
        ++ni;
      }
    }
    for (const ElementId& id : diff.removed) departed_.insert(id);
    for (const ElementId& id : diff.added) departed_.erase(id);
    if (!diff.added.empty() || !diff.removed.empty()) {
      trace_event(transport_trace_id(), now, TraceEventKind::kTransportDamaged,
                  static_cast<double>(diff.removed.size()),
                  "elements departed at reconnect");
      roster_diffs_.push_back(std::move(diff));
    }
  }
  epoch_ = h.epoch;

  name_ = selected_name;
  roster_names_ = std::move(roster);
  elements_ = std::move(selected_elements);
  element_set_.clear();
  element_set_.insert(elements_.begin(), elements_.end());
  sock_ = std::move(sock);

  ++stats_.connects;
  if (!first) ++stats_.reconnects;
  // The breaker is re-armed per the diff, not globally: the connection-level
  // breaker closes (the dial just succeeded), while departed elements stay
  // individually fast-failed above until a later hello re-adds them.
  consecutive_failures_ = 0;
  breaker_state_ = BreakerState::kClosed;
  if (m_connects_ != nullptr) m_connects_->increment();
  if (!first && m_reconnects_ != nullptr) m_reconnects_->increment();
  trace_event(transport_trace_id(), now,
              first ? TraceEventKind::kTransportConnect
                    : TraceEventKind::kTransportReconnect,
              static_cast<double>(stats_.connects), name_);
  return Status::ok();
}

Status RemoteAgent::ensure_connected_locked(SimTime now) {
  if (sock_.valid()) return Status::ok();

  // Breaker gate: while open, skip the dial timeout entirely until the
  // cooldown (wall clock) expires; the next query then probes half-open.
  if (breaker_state_ == BreakerState::kOpen) {
    auto since = transport::Clock::now() - breaker_opened_at_;
    if (since < to_wall(breaker_cfg_.cooldown)) {
      ++stats_.fast_fails;
      return Status::unavailable("transport: breaker open for " +
                                 ep_.to_string());
    }
    breaker_state_ = BreakerState::kHalfOpen;
  }

  const uint32_t attempts = std::max<uint32_t>(1, retry_.max_attempts);
  Duration backoff = retry_.initial_backoff;
  Status last = Status::unavailable("transport: never attempted");
  for (uint32_t a = 1; a <= attempts; ++a) {
    Status st = connect_locked(now);
    if (st.is_ok()) return st;
    last = st;
    if (a < attempts) {
      std::this_thread::sleep_for(to_wall(backoff));
      backoff = Duration::nanos(std::min<int64_t>(
          static_cast<int64_t>(static_cast<double>(backoff.ns()) *
                               retry_.backoff_multiplier),
          retry_.max_backoff.ns()));
    }
  }
  note_connect_failure_locked();
  return last;
}

BatchResponse RemoteAgent::total_loss_locked(
    const std::vector<ElementId>& sorted_known, size_t unknown) const {
  BatchResponse decoded;  // empty: every known id reconciles to kMissing
  BatchResponse out = wire::reconcile(sorted_known, decoded);
  out.unknown_ids = unknown;
  return out;
}

BatchResponse RemoteAgent::finish_batch_locked(
    BatchResponse out, const std::vector<ElementId>& departed_hit,
    SimTime now) const {
  if (departed_hit.empty()) return out;
  // Two-pointer merge of two ascending sequences: the wire responses and
  // the locally synthesized departures.  kFailedPrecondition is the marker
  // the controller turns into the "departed at reconnect" Status — no
  // channel attempt was spent, the roster is the authority.
  std::vector<QueryResponse> merged;
  merged.reserve(out.responses.size() + departed_hit.size());
  size_t ri = 0;
  for (const ElementId& id : departed_hit) {
    while (ri < out.responses.size() && out.responses[ri].record.element < id) {
      merged.push_back(std::move(out.responses[ri++]));
    }
    QueryResponse gone;
    gone.record.element = id;
    gone.record.timestamp = now;
    gone.quality = DataQuality::kMissing;
    gone.attempts = 1;
    gone.fail_code = StatusCode::kFailedPrecondition;
    merged.push_back(std::move(gone));
    ++out.degraded;
  }
  while (ri < out.responses.size()) {
    merged.push_back(std::move(out.responses[ri++]));
  }
  out.responses = std::move(merged);
  return out;
}

BatchResponse RemoteAgent::query_batch(const std::vector<ElementId>& ids,
                                       SimTime now, ThreadPool* /*pool*/) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.batches;
  if (m_batches_ != nullptr) m_batches_->increment();

  // Sort + dedupe like the in-process agent, and split known/unknown from
  // the hello cache — on a total transport loss, ids the agent never served
  // must stay *absent* (the controller's not_found path), not turn into
  // kMissing blind spots.
  std::vector<ElementId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  // Departed ids never travel the wire: the reconnect hello already proved
  // the far end dropped them, so they are answered locally as blind spots
  // (finish_batch_locked) and stripped from the request.
  std::vector<ElementId> departed_hit;
  if (!departed_.empty()) {
    auto keep = std::remove_if(sorted.begin(), sorted.end(),
                               [&](const ElementId& id) {
                                 if (departed_.count(id) == 0) return false;
                                 departed_hit.push_back(id);
                                 return true;
                               });
    sorted.erase(keep, sorted.end());
  }

  std::vector<ElementId> known;
  known.reserve(sorted.size());
  for (const ElementId& id : sorted) {
    if (element_set_.count(id) > 0) known.push_back(id);
  }
  const size_t unknown = sorted.size() - known.size();

  Status st = ensure_connected_locked(now);
  if (!st.is_ok()) {
    return finish_batch_locked(total_loss_locked(known, unknown), departed_hit,
                               now);
  }

  // The caller's trace context rides the envelope; {0, 0} (untraced) keeps
  // the request — and the server's reply — byte-identical to a build
  // without tracing.
  const TraceContext ctx = current_trace_context();
  const std::string request = wire::encode_message(
      wire::MessageKind::kBatchRequest,
      wire::encode_batch_request(
          {now, sorted, ctx.trace_id, ctx.span_id, bind_}));
  const int64_t trip_t0 = transport::span_clock_ns();

  // Queries are idempotent reads, so a connection that died *before any
  // reply byte arrived* earns exactly one reconnect + resend.  Once reply
  // bytes exist, no resend: the surviving prefix is reconciled instead
  // (resending could double modelled channel time and tear determinism).
  transport::BatchReadResult read;
  for (int attempt = 0;; ++attempt) {
    Status sent = sock_.send_all(request, deadline_);
    if (sent.is_ok()) {
      read = transport::read_batch(sock_, deadline_);
      if (read.clean()) break;
      if (!read.bytes.empty()) break;  // partial reply: reconcile below
    }
    drop_connection_locked();
    if (attempt >= 1) {
      return finish_batch_locked(total_loss_locked(known, unknown),
                                 departed_hit, now);
    }
    Status re = ensure_connected_locked(now);
    if (!re.is_ok()) {
      return finish_batch_locked(total_loss_locked(known, unknown),
                                 departed_hit, now);
    }
    trace_event(transport_trace_id(), now, TraceEventKind::kTransportReconnect,
                1.0, "resend");
  }

  wire::DecodeStats dstats;
  Result<BatchResponse> decoded = wire::decode_batch(read.bytes, &dstats);
  if (!decoded.ok()) {
    // Header never made it whole (or is garbage): nothing usable arrived.
    drop_connection_locked();
    ++stats_.damaged;
    if (m_damaged_ != nullptr) m_damaged_->increment();
    return finish_batch_locked(total_loss_locked(known, unknown), departed_hit,
                               now);
  }

  if (read.clean() && dstats.complete()) {
    // The common path: the batch crossed byte-identical; hand it through
    // untouched (responses, channel time, unknown count, degraded tally all
    // came off the wire).
    if (ctx.active()) {
      trace_span(transport_trace_id(), now, TraceEventKind::kSpanTransportTrip,
                 Duration::nanos(transport::span_clock_ns() - trip_t0),
                 next_span_id(), ctx.span_id,
                 static_cast<double>(sorted.size()), name_);
      // A traced request always has trace data piggybacked right behind the
      // batch; pull it off the stream so the connection stays framed.  A
      // loss here costs the lane (recoverable by harvest), not the batch.
      read_trace_data_locked();
    }
    return finish_batch_locked(std::move(decoded).take(), departed_hit, now);
  }

  // Torn or corrupt stream: the connection's framing is gone, so drop it,
  // and reconcile what survived.  Expected set = known request ids plus
  // anything the server actually answered (covers elements added remotely
  // since the hello).
  drop_connection_locked();
  ++stats_.damaged;
  if (m_damaged_ != nullptr) m_damaged_->increment();

  std::vector<ElementId> expected = known;
  for (const QueryResponse& r : decoded.value().responses) {
    expected.push_back(r.record.element);
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());

  BatchResponse out = wire::reconcile(expected, decoded.value());
  const double lost =
      static_cast<double>(expected.size() - decoded.value().responses.size());
  trace_event(transport_trace_id(), now, TraceEventKind::kTransportDamaged,
              lost, name_);
  return finish_batch_locked(std::move(out), departed_hit, now);
}

}  // namespace perfsight
