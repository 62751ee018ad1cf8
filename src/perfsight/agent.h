// The per-server PerfSight agent (§4.2).
//
// One agent runs on each physical server.  It owns a registry of the
// server's instrumented elements and, on demand, pulls counter values over
// element-specific channels and returns them in the unified record format.
// Pull-only by design: elements pay nothing while nobody is diagnosing.
//
// Channel latencies are modelled per kind (calibrated against Fig. 9:
// net-device file reads ≈2 ms; /proc, OVS, QEMU-log and middlebox-socket
// reads ≤500 µs) with a small deterministic jitter, so response-time
// behaviour can be studied in simulated time.
//
// Collection runtime (this layer's concurrency contract): the agent is
// safe to use from multiple threads — registry/RNG/histogram state is
// guarded by one internal mutex.  Every fetch is a batch: query_batch and
// poll_all share one plan → fan-out → merge core and differ only in trip
// accounting (one channel round trip per kind, or one per element).  Both
// accept an optional ThreadPool and fan the element collect() calls out
// across it; channel jitter is drawn *before* the fan-out, in element-id
// order, and results are merged back by element id, so their output is
// byte-identical at any pool size.  Element objects are
// not owned: a remove_element racing an in-flight poll only deregisters the
// element — the poll may still observe it once, and the caller must keep
// the StatsSource alive until in-flight polls drain.
//
// Fault tolerance: an optional FaultPlan (faults.h) makes channels fail —
// transiently, by timing out, by serving stale or torn records, or by
// crashing the whole agent.  The query paths absorb those failures with a
// RetryPolicy (bounded attempts, exponential backoff with deterministic
// jitter, a per-element deadline budget in simulated time) and a per-channel
// circuit breaker that fast-fails queries to a kind that keeps failing until
// a cooldown expires and a half-open probe succeeds.  Every fault decision,
// retry, backoff draw and breaker transition happens in the sequential
// planning phase — before any fan-out, in element-id order — so the
// byte-identical parallel-vs-sequential contract holds under faults too.
// With no plan installed the fault path is never entered and behaviour is
// bit-for-bit the pre-fault agent.
#pragma once

#include <array>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "perfsight/faults.h"
#include "perfsight/metrics.h"
#include "perfsight/stats.h"
#include "perfsight/stats_source.h"
#include "perfsight/trace.h"

namespace perfsight {

// Modelled one-way agent→element→agent fetch latency for a channel kind.
struct ChannelLatencyModel {
  Duration base;
  Duration jitter;  // uniform [0, jitter) added per query
};

ChannelLatencyModel default_latency(ChannelKind kind);

struct QueryResponse {
  StatsRecord record;
  Duration response_time;  // modelled element-fetch latency (incl. retries)
  DataQuality quality = DataQuality::kFresh;
  uint32_t attempts = 1;  // channel attempts made (0: breaker fast-fail)
  // Why a kMissing response failed (meaningful only when quality is
  // kMissing): callers rebuild the Status with query_failure_status.
  StatusCode fail_code = StatusCode::kOk;
};

// The Status a failed element query surfaces, shared by query_attrs and
// the controller's scatter-gather merge so both produce byte-identical
// error messages.
Status query_failure_status(const std::string& agent_name, const ElementId& id,
                            uint32_t attempts, StatusCode code);

// Result of one batched fetch (query_batch): the per-element records plus
// the total modelled channel time actually paid — one round trip per
// channel kind present in the batch, not one per element.  Under faults,
// elements whose retries exhausted still appear in `responses` with
// DataQuality::kMissing (empty attrs), so callers see their blind spots.
struct BatchResponse {
  std::vector<QueryResponse> responses;  // ordered by element id
  Duration channel_time;                 // sum of the per-kind round trips
  size_t unknown_ids = 0;                // requested ids not registered
  size_t degraded = 0;                   // responses that are not kFresh
};

// How the query paths absorb channel failures.  The default (one attempt,
// no deadline) is exactly the pre-fault behaviour: a failure surfaces
// immediately and nothing extra is drawn from the RNG.
struct RetryPolicy {
  uint32_t max_attempts = 1;  // total attempts (1 = no retry)
  Duration initial_backoff = Duration::micros(200);
  double backoff_multiplier = 2.0;
  Duration max_backoff = Duration::millis(50);
  // Backoff jitter fraction: each backoff is scaled by a uniform draw in
  // [1, 1 + jitter_frac), taken from the agent RNG during the sequential
  // planning phase (like channel jitter, pre-fan-out in element-id order).
  double jitter_frac = 0.5;
  // Per-attempt deadline: a timed-out attempt costs at most this much
  // modelled time.  Zero = the fault plan's full timeout spike is paid.
  Duration attempt_timeout;
  // Per-element budget within one sweep, in simulated time.  An element's
  // whole retry chain (channel time + backoff) is clamped to this; hitting
  // it fails the element with kDeadlineExceeded.  Zero = unbounded.
  Duration element_budget;
};

// Per-channel-kind circuit breaker: after `failure_threshold` consecutive
// failures the breaker opens and queries over that kind fast-fail without
// paying channel time; after `cooldown` the next query runs as a half-open
// probe whose outcome closes or re-opens the breaker.
struct CircuitBreakerConfig {
  uint32_t failure_threshold = 5;
  Duration cooldown = Duration::millis(20);
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };
const char* to_string(BreakerState s);

// The query surface the controller scatters over.  In-process `Agent`
// implements it directly; `RemoteAgent` (remote_agent.h) implements it over
// a socket speaking the PSB1/PSM1 wire codec.  The contract both uphold:
// query_batch returns one response per *known* requested id in ascending
// element-id order (unknown ids are counted, not returned), and failures
// carry the attempts/fail_code a caller needs to reconstruct the exact
// Status via query_failure_status — so the controller merge is
// byte-identical whichever implementation sits behind it.  query_batch is
// the only fetch an implementation provides; query_attrs is a batch of one.
//
// Tracing: when the calling thread carries an active TraceContext
// (trace.h), implementations record span events under it — the in-process
// agent an agent-batch span with one channel-trip span per kind, the
// remote adapter a transport round-trip span, and the remote *server* a
// serve span in its own process parented to the caller's span id off the
// wire.  With no context (or tracing disabled) both record nothing and the
// remote conversation is byte-identical.
class AgentClient {
 public:
  virtual ~AgentClient() = default;

  virtual const std::string& name() const = 0;
  virtual bool has_element(const ElementId& id) const = 0;
  virtual std::vector<ElementId> element_ids() const = 0;

  // Fetches a projection of one element: a batch of one, then project.  An
  // unknown id is not_found; a kMissing answer is query_failure_status.
  // Virtual only so a decorator can observe single fetches (perfbench's
  // TimedAgent times them); agent implementations do not override it.
  virtual Result<QueryResponse> query_attrs(
      const ElementId& id, const std::vector<std::string>& attrs, SimTime now);

  // Batched fetch: one channel round trip per channel kind in the batch.
  // `pool` is advisory (in-process agents fan collect() out; a remote agent
  // has its own concurrency and may ignore it).
  virtual BatchResponse query_batch(const std::vector<ElementId>& ids,
                                    SimTime now, ThreadPool* pool = nullptr) = 0;
};

// Running totals of the fault machinery, per agent.  Scraped into the
// MetricsRegistry exposition; read under the agent lock via fault_stats().
struct AgentFaultStats {
  uint64_t faults_injected = 0;   // fault-plan decisions != kNone
  uint64_t retries = 0;           // attempts after the first
  uint64_t exhausted = 0;         // queries that failed every attempt
  uint64_t deadline_hits = 0;     // element budgets exceeded
  uint64_t stale_served = 0;      // queries answered from the last-good record
  uint64_t torn_reads = 0;        // records delivered with attrs missing
  uint64_t breaker_opened = 0;    // closed/half-open -> open transitions
  uint64_t breaker_closed = 0;    // half-open -> closed transitions
  uint64_t breaker_fast_fails = 0;  // queries skipped while open
  uint64_t crashes = 0;           // whole-agent crash/restarts absorbed

  bool any() const {
    return faults_injected || retries || exhausted || deadline_hits ||
           stale_served || torn_reads || breaker_opened || breaker_closed ||
           breaker_fast_fails || crashes;
  }
};

class Agent : public AgentClient {
 public:
  explicit Agent(std::string name, uint64_t seed = 1)
      : name_(std::move(name)), rng_(seed) {}

  const std::string& name() const override { return name_; }

  // Registers an element; not owned.  Fails if the id is already taken.
  Status add_element(const StatsSource* source);

  // Deregisters an element (VM teardown / element migration).  Fails if the
  // id is unknown; the Monitor simply stops producing points for it.
  Status remove_element(const ElementId& id);

  bool has_element(const ElementId& id) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return sources_.count(id) > 0;
  }
  std::vector<ElementId> element_ids() const override;

  // Batched fetch: one channel round trip amortized across every requested
  // element sharing a channel kind (a real agent reads one /proc file and
  // parses many counters out of it).  Unknown ids are skipped and counted.
  // With a parallel `pool`, collect() calls fan out across workers; output
  // is byte-identical to the pool-less call.
  BatchResponse query_batch(const std::vector<ElementId>& ids, SimTime now,
                            ThreadPool* pool = nullptr) override;

  // Fetches every element on this server (one poll sweep, Fig. 16
  // workload); per-element channel cost.  With a parallel `pool` the
  // collect() calls fan out; jitter is pre-drawn in element-id order and
  // results merge by id, so output is byte-identical at any pool size.
  std::vector<QueryResponse> poll_all(SimTime now, ThreadPool* pool = nullptr);

  // Overrides the latency model for a channel kind (tests / calibration).
  void set_latency(ChannelKind kind, ChannelLatencyModel m) {
    std::lock_guard<std::mutex> lock(mu_);
    latency_override_[static_cast<size_t>(kind)] = m;
    has_override_[static_cast<size_t>(kind)] = true;
  }

  // --- fault tolerance ------------------------------------------------------
  // Installs a fault plan (not owned; null disables injection).  With no
  // plan the fault path is never entered.
  void set_fault_plan(const FaultPlan* plan) {
    std::lock_guard<std::mutex> lock(mu_);
    plan_ = plan;
  }
  void set_retry_policy(RetryPolicy p) {
    std::lock_guard<std::mutex> lock(mu_);
    retry_ = p;
  }
  void set_breaker_config(CircuitBreakerConfig c) {
    std::lock_guard<std::mutex> lock(mu_);
    breaker_cfg_ = c;
  }
  // Adaptive per-element budgets: derive the retry budget from the observed
  // per-kind channel-latency p99 (× max attempts) instead of the fixed
  // element_budget constant, clamped to the configured budget (the sweep
  // deadline) when one is set.  Off by default; the fixed-constant path is
  // byte-identical when disabled.
  void set_adaptive_budget(bool on) {
    std::lock_guard<std::mutex> lock(mu_);
    adaptive_budget_ = on;
  }
  BreakerState breaker_state(ChannelKind kind) const {
    std::lock_guard<std::mutex> lock(mu_);
    return breakers_[static_cast<size_t>(kind)].state;
  }
  AgentFaultStats fault_stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fstats_;
  }

  // Self-profiling: distribution of modelled channel delays this agent has
  // paid, per channel kind (the live Fig. 9 data).  Always on; one observe
  // per channel round trip.  Read when no poll is in flight.
  const LatencyHistogram& channel_latency(ChannelKind kind) const {
    return channel_hist_[static_cast<size_t>(kind)];
  }

 private:
  struct PlannedQuery {
    ElementId id;
    const StatsSource* source = nullptr;
    ChannelKind kind = ChannelKind::kNetDeviceFile;
    Duration delay;  // total modelled channel time incl. retries/backoff
    DataQuality quality = DataQuality::kFresh;
    uint32_t attempts = 1;
    uint64_t torn_salt = 0;
    bool failed = false;
    StatusCode fail_code = StatusCode::kUnavailable;
    bool serve_stale = false;
    StatsRecord stale_record;  // snapshot of last-good at planning time
  };

  // Trace events decided while holding mu_ are staged and emitted after
  // unlock (the recorder has its own lock; keep the order fixed).
  struct PendingTrace {
    ElementId id;
    SimTime t;
    TraceEventKind kind = TraceEventKind::kAgentRetry;
    double value = 0;
    const char* detail = "";
  };

  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    uint32_t consecutive_failures = 0;
    SimTime opened_at;
  };

  // The shared core of query_batch (`ids` non-null: unknown ids counted,
  // one round trip per channel kind) and poll_all (`ids` null: every
  // element, one round trip per element).  Plans every outcome under mu_ in
  // element-id order, fans collect() out over `pool`, then observes the
  // channel histograms and emits trace events per trip actually paid.
  BatchResponse collect(const std::vector<ElementId>* ids, SimTime now,
                        ThreadPool* pool);
  Duration channel_delay_locked(ChannelKind kind);
  // Consumes crashes the plan scheduled since the last query: last-good
  // records are lost, every element's counters restart from zero on its
  // next collect.
  void absorb_crashes_locked(SimTime now, std::vector<PendingTrace>* traces);
  // Models the full retry chain of one element query: fault decisions,
  // channel delays, backoff, budget clamp, breaker bookkeeping.  Must run
  // with mu_ held, pre-fan-out, in element-id order.  When `shared_first`
  // is set the first attempt rides a batch's per-kind round trip instead of
  // drawing its own delay.  When `agent_down` is set (a scheduled campaign
  // window covers `now`), every attempt fails unavailable without
  // consulting the Bernoulli draw — delays, backoff and breakers behave as
  // for real transient failures, so outcomes match in both trip modes.
  void plan_outcome_locked(PlannedQuery& q, SimTime now, bool shared_first,
                           Duration shared_delay, bool agent_down,
                           std::vector<PendingTrace>* traces);
  // Post-collect bookkeeping in fault mode: applies crash counter resets
  // and (when the plan can serve stale reads) refreshes the last-good
  // record.  Callers skip it entirely when neither applies, so an inert
  // plan adds no per-element locking or copying.
  void apply_fault_bookkeeping(const ElementId& id, StatsRecord& record,
                               bool track_last_good);
  void emit_pending(const std::vector<PendingTrace>& traces);

  std::string name_;
  mutable std::mutex mu_;  // guards rng_, sources_, overrides, hists
  Pcg32 rng_;
  std::unordered_map<ElementId, const StatsSource*> sources_;
  std::array<ChannelLatencyModel, kNumChannelKinds> latency_override_ = {};
  std::array<bool, kNumChannelKinds> has_override_ = {};
  std::array<LatencyHistogram, kNumChannelKinds> channel_hist_ = {};
  // Fault machinery (all under mu_): plan, policy, per-kind breakers,
  // last-good records for stale serving, crash reset bookkeeping, tallies.
  const FaultPlan* plan_ = nullptr;
  RetryPolicy retry_;
  bool adaptive_budget_ = false;
  CircuitBreakerConfig breaker_cfg_;
  std::array<Breaker, kNumChannelKinds> breakers_ = {};
  std::unordered_map<ElementId, StatsRecord> last_good_;
  std::unordered_set<ElementId> pending_reset_;
  std::unordered_map<ElementId, std::vector<Attr>> reset_offset_;
  SimTime last_crash_check_;
  AgentFaultStats fstats_;
};

}  // namespace perfsight
