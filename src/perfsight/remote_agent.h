// Remote agents: PerfSight's per-server agent behind a real socket (§3,
// §4.2–4.3 — the architecture is distributed; this is where the repo's
// bytes first cross a process boundary).
//
// Two halves:
//
//   RemoteAgentServer — the fleet server that runs on the agents' machine.
//   One poll()-driven event-loop thread owns the listener plus every live
//   connection, so many controllers can dial one host concurrently — no
//   connection ever waits in the backlog behind another being served.  Each
//   connection is a small state machine: hello queued on accept, request
//   bytes accumulated nonblocking into a partial-read buffer until a whole
//   PSM1 message lands, dispatch, replies drained through a per-connection
//   write queue with deadline-bounded backpressure.  The server hosts MANY
//   served agents: the hello advertises the roster, batch requests route by
//   the agent name on their envelope, and requests without one (old
//   clients) fall back to the primary (first-registered) agent.  A batch is
//   the only fetch the server answers; a message of a retired or unknown
//   kind closes the connection.
//
//   RemoteAgent — the controller-side adapter.  It implements AgentClient
//   over one connection to a server, so the controller's scatter-gather path
//   (controller.cc) treats socket-backed and in-process agents identically.
//   Constructed with an agent name it binds to that roster entry and stamps
//   the name on every request; constructed bare it speaks the old
//   single-agent protocol and gets the primary.  It implements query_batch
//   only: a single fetch is the AgentClient default (a batch of one), kept
//   virtual so a decorator such as perfbench's TimedAgent can time it.
//
// The contract the differential suite (transport_test) holds this pair to:
// on a clean stream, every byte of a BatchResponse — records, qualities,
// attempts, fail codes, channel time, unknown-id count — crosses unchanged,
// so controller output over sockets is byte-identical to in-process.  On a
// damaged stream (torn connection, corrupt frame), the surviving prefix is
// decoded and wire::reconcile turns the lost frames into kMissing blind
// spots with StatusCode::kUnavailable — the controller merge then produces
// the same "unavailable after N attempt(s)" text a local channel failure
// would, while ids the agent never had keep their not_found text (they are
// absent from the reconcile set, not missing from it).
//
// Failure handling reuses PR 3's RetryPolicy/CircuitBreakerConfig machinery
// with a wall-clock interpretation: reconnects back off exponentially
// (initial_backoff × backoff_multiplier^k, capped at max_backoff, slept on
// the OS clock), and after `failure_threshold` consecutive connect failures
// the breaker opens — queries fast-fail to all-kMissing without paying a
// dial timeout until `cooldown` (wall clock) expires and a half-open probe
// reconnects.
//
// Tracing across the socket (trace.h): when the calling thread carries an
// active TraceContext, the adapter stamps its trace id + parent span onto
// the request envelope, records a client-side kSpanTransportTrip span, and
// reads the server's piggybacked trace data after a clean batch reply.  The
// server records a kSpanServerBatch span (span-clock timestamps) into its
// own TraceRecorder for every traced request, parented
// to the span id off the wire.  With no active context the request carries
// trace_id 0 and the server's reply bytes are identical to an untraced
// build — tracing never perturbs the differential contract.  The hello
// handshake carries the server's span clock; the adapter brackets the
// handshake with its own clock samples and keeps the midpoint offset
// estimate that to_chrome_trace() uses to align harvested lanes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "perfsight/agent.h"
#include "perfsight/metrics.h"
#include "perfsight/trace.h"
#include "perfsight/transport.h"

namespace perfsight {

namespace wire {
struct Message;        // wire.h; only referenced, never stored, in this header
struct StreamDataMsg;  // wire.h; held by pointer (per-connection delta base)
}

// --- server stub -------------------------------------------------------------

class RemoteAgentServer {
 public:
  // Serves `agent` (not owned; must outlive the server) on `ep`.
  RemoteAgentServer(Agent* agent, transport::Endpoint ep)
      : RemoteAgentServer(std::vector<Agent*>{agent}, std::move(ep)) {}

  // Fleet form: one event-loop thread serves every agent in `agents`
  // (none owned; all must outlive the server; at least one required).
  // agents[0] is the primary — the one old-format requests route to and
  // the one the hello's base fields describe.
  RemoteAgentServer(std::vector<Agent*> agents, transport::Endpoint ep);
  ~RemoteAgentServer() { stop(); }
  RemoteAgentServer(const RemoteAgentServer&) = delete;
  RemoteAgentServer& operator=(const RemoteAgentServer&) = delete;

  // Binds + starts the serve thread.  After success, endpoint() carries the
  // resolved address (ephemeral tcp ports are filled in).
  Status start();
  // Stops the serve thread, closes every live connection and the listener.
  // Idempotent.
  void stop();
  bool running() const { return running_; }
  const transport::Endpoint& endpoint() const { return ep_; }

  uint64_t batches_served() const {
    return batches_served_.load(std::memory_order_relaxed);
  }
  // Accept failures that were real errors (EMFILE, ENFILE, ...), not idle
  // timeouts.  Each one also backs the accept path off exponentially so a
  // persistent error cannot hot-spin the serve thread at 100% CPU.
  uint64_t accept_errors() const {
    return accept_errors_.load(std::memory_order_relaxed);
  }
  // Live multiplexed connections (tests; racy by nature).
  size_t live_connections() const {
    return live_connections_.load(std::memory_order_relaxed);
  }

  // Per-connection I/O budget: a connection holding a partial request for
  // longer than this, or failing to drain its reply queue for longer than
  // this (backpressure), is closed.  Call before start().
  void set_io_deadline(transport::WallDuration d) { io_deadline_ = d; }

  // Creates perfsight_transport_accept_errors_total (labeled by endpoint)
  // in `m`.  Call before start(); the serve thread reads the pointer.
  void set_metrics(MetricsRegistry* m);

  // The server-side flight recorder: serve spans for traced requests land
  // here and leave via harvest / piggyback.  Always enabled; it only fills
  // when clients send traced requests.
  TraceRecorder& trace_recorder() { return trace_recorder_; }

  // Shifts this server's view of the span clock (tests: prove the client's
  // hello-derived offset estimate really corrects skewed remote lanes).
  void set_clock_skew_ns(int64_t skew_ns) {
    clock_skew_ns_.store(skew_ns, std::memory_order_relaxed);
  }

  // --- push-mode streaming (kSubscribe / kStreamData) ----------------------
  // Captures one window at `at` for every agent with at least one subscribed
  // connection and queues the kStreamData frames on those connections' write
  // buffers.  Callable from any thread: the serve loop (which owns the
  // connections) performs the capture + enqueue on its next tick, so a
  // subscriber sees the frame within one poll interval.  With no subscribers
  // the request is free — nothing is captured and not one stream byte is
  // queued, keeping unsubscribed deployments byte-identical.  Per-agent
  // sequence numbers advance once per published window (shared by every
  // subscriber of that agent), giving clients cross-connection gap
  // detection; each connection's first frame is a full snapshot.
  void request_publish(SimTime at);
  // Stream frames enqueued to subscribers (all connections, all agents).
  uint64_t stream_frames_published() const {
    return stream_frames_.load(std::memory_order_relaxed);
  }

  // --- damage injection (tests) --------------------------------------------
  // Each arms the *next* batch reply, once.  Truncate sends only the first
  // `bytes` of the encoded batch and then kills the connection (a torn
  // stream); corrupt XORs the byte at `index` (a checksum failure); drop
  // closes the connection without replying at all.
  void inject_truncate_next_batch(size_t bytes);
  void inject_corrupt_next_batch(size_t index);
  void inject_drop_next_reply();
  // Arms the next publish tick, once: sequence numbers advance but no frame
  // is sent — every subscriber observes a gap it must repair.
  void inject_skip_next_publish();

 private:
  // One multiplexed connection's state machine.  Owned exclusively by the
  // serve thread; no locks.
  struct Conn {
    transport::Socket sock;
    std::string rbuf;        // partial-read buffer: bytes toward a message
    std::string wbuf;        // reply bytes awaiting the socket buffer
    size_t woff = 0;         // bytes of wbuf already sent
    bool close_after_flush = false;  // injected truncate: torn stream
    bool dead = false;               // marked for reaping this tick
    // Deadline anchors: when the current partial read / undrained write
    // started.  time_point{} (epoch) = nothing pending.
    transport::Clock::time_point read_since{};
    transport::Clock::time_point write_since{};
    // Push-mode subscription: non-empty = resolved agent name this
    // connection subscribed to.  `stream_prev` is the delta base — the last
    // frame queued on THIS connection (null until the snapshot goes out).
    std::string sub_agent;
    std::unique_ptr<wire::StreamDataMsg> stream_prev;
  };

  void serve();
  // Drains request_publish() boundaries: one capture per subscribed agent
  // per boundary, frames delta-coded per connection.  Serve thread only.
  void publish_tick(SimTime at, std::vector<std::unique_ptr<Conn>>& conns);
  // Parses + dispatches every complete message in c.rbuf.  False when the
  // connection must close (protocol damage, injected drop, dead peer).
  bool drain_messages(Conn& c);
  // Dispatches one decoded message; replies append to c.wbuf.  False = close.
  bool handle_message(Conn& c, const wire::Message& msg);
  // Flushes c.wbuf as far as the socket buffer allows.  False = dead peer
  // or write deadline exceeded (backpressure bound).
  bool flush_writes(Conn& c);
  // Roster lookup: "" = primary, unknown name = nullptr.
  Agent* route(const std::string& agent_name);
  std::string hello_bytes() const;
  // This server's span clock: transport::span_clock_ns() plus the test skew.
  int64_t clock_ns() const;
  // PSM1 kTraceData message draining trace_recorder_, attributed to
  // `process` (the routed agent's name).
  std::string trace_data_bytes(const std::string& process);

  std::vector<Agent*> agents_;  // agents_[0] is the primary
  transport::Endpoint ep_;
  transport::Listener listener_;
  transport::WallDuration io_deadline_{5000};
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> batches_served_{0};
  std::atomic<uint64_t> accept_errors_{0};
  std::atomic<size_t> live_connections_{0};
  MetricsRegistry::CounterMetric* m_accept_errors_ = nullptr;
  TraceRecorder trace_recorder_;
  std::atomic<int64_t> clock_skew_ns_{0};

  // Push-mode state.  stream_seq_ is serve-thread-only; the pending queue
  // is the one cross-thread handoff (request_publish may be called from
  // anywhere).
  std::unordered_map<std::string, uint64_t> stream_seq_;
  std::mutex publish_mu_;
  std::vector<SimTime> pending_publishes_;
  std::atomic<uint64_t> stream_frames_{0};

  std::mutex inject_mu_;
  std::optional<size_t> truncate_next_;
  std::optional<size_t> corrupt_next_;
  bool drop_next_ = false;
  bool skip_next_publish_ = false;
};

// --- controller-side adapter -------------------------------------------------

class RemoteAgent : public AgentClient {
 public:
  // Bare: binds to whatever single agent (or fleet primary) the endpoint's
  // hello advertises — the pre-roster protocol, byte-identical on the wire.
  // With `agent`: binds to that roster entry of a fleet server and stamps
  // the name on every request so the event loop routes it.
  explicit RemoteAgent(transport::Endpoint ep, std::string agent = {})
      : ep_(std::move(ep)), bind_(std::move(agent)) {}

  // Dials the server and completes the hello handshake, caching the bound
  // agent's name and element set.  Must succeed before the adapter is
  // registered with a controller (name()/has_element() answer from the
  // cache).  Reconnects after that are automatic.  Fails with
  // kFailedPrecondition when a bound name is missing from the roster.
  Status connect();

  // Every agent the last hello advertised (primary first).  Lets a caller
  // discover a fleet server's roster through one dialed adapter and bind
  // further adapters by name (Deployment::add_remote_agents).
  std::vector<std::string> roster_names() const;

  const std::string& name() const override;
  bool has_element(const ElementId& id) const override;
  std::vector<ElementId> element_ids() const override;

  // One wire round trip per call.  `pool` is ignored — concurrency across
  // remote agents comes from the controller's fan-out; the connection itself
  // is serialized.  Never fails outright: transport loss degrades to
  // kMissing responses (see header comment).
  BatchResponse query_batch(const std::vector<ElementId>& ids, SimTime now,
                            ThreadPool* pool = nullptr) override;

  // Reconnect/backoff knobs (wall-clock interpretation; see header comment).
  void set_retry_policy(RetryPolicy p);
  void set_breaker_config(CircuitBreakerConfig c);
  // Per-read/connect wall-clock deadline.
  void set_deadline(transport::WallDuration d);
  // Creates the perfsight_transport_* counters (labeled by agent) in `m`.
  void set_metrics(MetricsRegistry* m);

  // Pulls the server's drained trace rings into the *global* TraceRecorder
  // as a remote lane (clock-offset attached).  The piggyback fast path makes
  // this unnecessary after clean traced batches; harvest catches spans from
  // sweeps whose piggyback was lost.
  Status harvest_trace();

  // Remote span clock minus local, estimated at the last hello handshake.
  int64_t clock_offset_ns() const;

  BreakerState breaker_state() const;

  struct TransportStats {
    uint64_t connects = 0;    // successful dial+hello handshakes
    uint64_t reconnects = 0;  // connects after the first
    uint64_t batches = 0;     // batch round trips attempted
    uint64_t damaged = 0;     // batches that came back short/corrupt
    uint64_t fast_fails = 0;  // queries skipped while the breaker was open
    uint64_t epoch_skips = 0;  // reconnects whose unchanged epoch skipped
                               // the element-set diff
  };
  TransportStats transport_stats() const;

  // One reconnect's element-set delta: what the fresh hello advertises for
  // the bound agent versus what this adapter cached at the previous
  // connection.  Removed ids become immediate "departed at reconnect"
  // blind spots; added ids are servable right away — no full redial, the
  // reconnect's hello already registered them.
  struct RosterDiff {
    uint64_t old_epoch = 0;  // 0: the previous hello predates epochs
    uint64_t new_epoch = 0;
    std::vector<ElementId> added;    // ascending
    std::vector<ElementId> removed;  // ascending
  };
  // Drains the diffs observed at reconnects, oldest first (empty when every
  // reconnect found the element set unchanged).  The Deployment layer reads
  // these to keep its registrations honest.
  std::vector<RosterDiff> drain_roster_diffs();
  // Elements that departed at some reconnect and have not re-appeared
  // (ascending).  Queries to them fail immediately with the
  // "departed at reconnect" status instead of travelling the wire.
  std::vector<ElementId> departed_elements() const;

 private:
  // All _locked members require mu_.
  Status connect_locked(SimTime now);
  // Breaker gate + RetryPolicy reconnect loop.  Ok when a live connection
  // is available.
  Status ensure_connected_locked(SimTime now);
  void drop_connection_locked();
  void note_connect_failure_locked();
  // All-blind-spots batch for a total transport loss (every known requested
  // id kMissing/kUnavailable, unknowns counted like the in-process agent).
  BatchResponse total_loss_locked(const std::vector<ElementId>& sorted_known,
                                  size_t unknown) const;
  // Merges synthesized "departed at reconnect" blind spots (ascending
  // `departed_hit`) into an ascending batch.  No-op for an empty hit list,
  // keeping the fault-free path byte-identical.
  BatchResponse finish_batch_locked(BatchResponse out,
                                    const std::vector<ElementId>& departed_hit,
                                    SimTime now) const;

  // Reads a piggybacked/harvested kTraceData message off the live socket
  // and merges it into the global recorder as a remote lane.
  Status read_trace_data_locked();

  transport::Endpoint ep_;
  std::string bind_;  // roster name to bind; empty = primary/single agent
  transport::WallDuration deadline_{2000};

  mutable std::mutex mu_;
  transport::Socket sock_;
  int64_t clock_offset_ns_ = 0;  // remote span clock minus local, per hello
  std::string name_;
  std::vector<std::string> roster_names_;    // from the last hello
  std::vector<ElementId> elements_;          // ascending, from the hello
  std::unordered_set<ElementId> element_set_;
  uint64_t epoch_ = 0;  // element-set epoch of the last hello (0: none)
  // Elements lost at a reconnect and not re-added since; queries to them
  // are answered locally with kFailedPrecondition (departed at reconnect).
  std::unordered_set<ElementId> departed_;
  std::vector<RosterDiff> roster_diffs_;  // pending drain_roster_diffs()
  RetryPolicy retry_;
  CircuitBreakerConfig breaker_cfg_;
  BreakerState breaker_state_ = BreakerState::kClosed;
  uint32_t consecutive_failures_ = 0;
  transport::Clock::time_point breaker_opened_at_{};
  TransportStats stats_;
  MetricsRegistry::CounterMetric* m_connects_ = nullptr;
  MetricsRegistry::CounterMetric* m_reconnects_ = nullptr;
  MetricsRegistry::CounterMetric* m_batches_ = nullptr;
  MetricsRegistry::CounterMetric* m_damaged_ = nullptr;
};

}  // namespace perfsight
