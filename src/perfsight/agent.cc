#include "perfsight/agent.h"

#include <algorithm>

#include "perfsight/trace.h"

namespace perfsight {

const char* to_string(ChannelKind k) {
  switch (k) {
    case ChannelKind::kNetDeviceFile:
      return "net_device";
    case ChannelKind::kProcFs:
      return "procfs";
    case ChannelKind::kOvsChannel:
      return "ovs_channel";
    case ChannelKind::kQemuLog:
      return "qemu_log";
    case ChannelKind::kGuestProc:
      return "guest_proc";
    case ChannelKind::kMbSocket:
      return "mb_socket";
  }
  return "unknown";
}

ChannelLatencyModel default_latency(ChannelKind kind) {
  using namespace literals;
  // Calibrated to Fig. 9: net-device file reads ~2 ms; everything else
  // completes within 500 us.
  switch (kind) {
    case ChannelKind::kNetDeviceFile:
      return {Duration::micros(1900), Duration::micros(400)};
    case ChannelKind::kProcFs:
      return {Duration::micros(120), Duration::micros(60)};
    case ChannelKind::kOvsChannel:
      return {Duration::micros(350), Duration::micros(120)};
    case ChannelKind::kQemuLog:
      return {Duration::micros(400), Duration::micros(100)};
    case ChannelKind::kGuestProc:
      return {Duration::micros(250), Duration::micros(100)};
    case ChannelKind::kMbSocket:
      return {Duration::micros(180), Duration::micros(80)};
  }
  return {Duration::micros(500), Duration::micros(100)};
}

Status query_failure_status(const std::string& agent_name, const ElementId& id,
                            uint32_t attempts, StatusCode code) {
  std::string m = "agent " + agent_name + ": element " + id.name;
  if (code == StatusCode::kFailedPrecondition) {
    // The element vanished from the agent's advertised set between
    // connections (reconnect-aware hello diff); no attempts were spent on a
    // channel, the roster itself is the authority.
    m += " departed at reconnect";
    return Status::failed_precondition(std::move(m));
  }
  if (attempts == 0) {
    m += " skipped: circuit open";
  } else if (code == StatusCode::kDeadlineExceeded) {
    m += " deadline exceeded after " + std::to_string(attempts) + " attempt(s)";
  } else {
    m += " unavailable after " + std::to_string(attempts) + " attempt(s)";
  }
  return code == StatusCode::kDeadlineExceeded
             ? Status::deadline_exceeded(std::move(m))
             : Status::unavailable(std::move(m));
}

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "?";
}

Status Agent::add_element(const StatsSource* source) {
  PS_CHECK(source != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = sources_.emplace(source->id(), source);
  (void)it;
  if (!inserted) {
    return Status::invalid_argument("duplicate element id: " +
                                    source->id().name);
  }
  return Status::ok();
}

Status Agent::remove_element(const ElementId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sources_.erase(id) == 0) {
    return Status::not_found("agent " + name_ + ": no element " + id.name);
  }
  return Status::ok();
}

std::vector<ElementId> Agent::element_ids() const {
  std::vector<ElementId> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ids.reserve(sources_.size());
    for (const auto& [id, src] : sources_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Duration Agent::channel_delay_locked(ChannelKind kind) {
  ChannelLatencyModel m = has_override_[static_cast<size_t>(kind)]
                              ? latency_override_[static_cast<size_t>(kind)]
                              : default_latency(kind);
  return m.base + m.jitter * rng_.next_double();
}

void Agent::emit_pending(const std::vector<PendingTrace>& traces) {
  for (const PendingTrace& p : traces) {
    trace_event(p.id, p.t, p.kind, p.value, p.detail);
  }
}

void Agent::absorb_crashes_locked(SimTime now,
                                  std::vector<PendingTrace>* traces) {
  if (plan_ == nullptr || now <= last_crash_check_) return;
  size_t n = plan_->crashes_between(name_, last_crash_check_, now);
  last_crash_check_ = now;
  if (n == 0) return;
  // The whole agent restarted: in-memory state is gone and every element's
  // counters read from zero on the next collect (the Monitor's negative-
  // delta reset detection absorbs the discontinuity).
  fstats_.crashes += n;
  last_good_.clear();
  reset_offset_.clear();
  pending_reset_.clear();
  for (const auto& [id, src] : sources_) {
    (void)src;
    pending_reset_.insert(id);
  }
  for (Breaker& b : breakers_) b = Breaker{};
  if (trace_enabled() && traces != nullptr) {
    traces->push_back(PendingTrace{ElementId{name_}, now,
                                   TraceEventKind::kAgentCrashRestart,
                                   static_cast<double>(n), "counters reset"});
  }
}

void Agent::plan_outcome_locked(PlannedQuery& q, SimTime now,
                                bool shared_first, Duration shared_delay,
                                bool agent_down,
                                std::vector<PendingTrace>* traces) {
  const size_t ki = static_cast<size_t>(q.kind);
  Breaker& br = breakers_[ki];
  const bool tracing = trace_enabled() && traces != nullptr;
  const ElementId breaker_id{name_ + "/" + to_string(q.kind)};

  if (br.state == BreakerState::kOpen) {
    if (now - br.opened_at < breaker_cfg_.cooldown) {
      // Fast fail: known-dead channel, no modelled time paid, no RNG drawn.
      q.failed = true;
      q.quality = DataQuality::kMissing;
      q.attempts = 0;
      q.delay = Duration::nanos(0);
      q.fail_code = StatusCode::kUnavailable;
      ++fstats_.breaker_fast_fails;
      return;
    }
    br.state = BreakerState::kHalfOpen;
    if (tracing) {
      traces->push_back(PendingTrace{breaker_id, now,
                                     TraceEventKind::kBreakerStateChange,
                                     static_cast<double>(static_cast<int>(
                                         BreakerState::kHalfOpen)),
                                     "half_open"});
    }
  }

  Duration elapsed;
  const uint32_t max_attempts = std::max<uint32_t>(1, retry_.max_attempts);
  Duration budget = retry_.element_budget;
  if (adaptive_budget_) {
    // Budget derived from this kind's observed latency distribution: p99 of
    // the modelled channel delays paid so far × the attempt cap, never
    // looser than the configured budget (the sweep deadline) when one is
    // set.  No observations yet → the configured budget stands.
    const double p99 = channel_hist_[ki].approx_quantile(0.99);
    if (p99 > 0) {
      Duration derived =
          Duration::seconds(p99) * static_cast<double>(max_attempts);
      if (budget.ns() == 0 || derived < budget) budget = derived;
    }
  }
  // Hoisted once per element: when the effective spec cannot fire, the
  // per-attempt decision hash is skipped entirely (decide() would return
  // kNone anyway), keeping an installed-but-inert plan near-free.
  const ChannelFaultSpec* fspec =
      plan_ != nullptr ? &plan_->spec_for(q.id, q.kind) : nullptr;
  const bool may_fault = fspec != nullptr && fspec->any();
  uint32_t attempt = 1;
  bool success = false;
  StatusCode last_code = StatusCode::kUnavailable;
  for (;; ++attempt) {
    Duration d = (attempt == 1 && shared_first) ? shared_delay
                                                : channel_delay_locked(q.kind);
    // A scheduled outage window makes every attempt fail like a transient
    // error — the schedule is the authority, no Bernoulli draw consulted,
    // so the same plan at the same simulated time fails identically in the
    // batch and poll paths.
    FaultDecision dec;
    if (may_fault && !agent_down) dec = plan_->decide(q.id, q.kind, now, attempt);
    if (dec.kind != FaultKind::kNone) ++fstats_.faults_injected;
    bool attempt_failed = agent_down;
    DataQuality quality = DataQuality::kFresh;
    if (agent_down) last_code = StatusCode::kUnavailable;
    switch (dec.kind) {
      case FaultKind::kNone:
        break;
      case FaultKind::kStale: {
        auto lg = last_good_.find(q.id);
        if (lg != last_good_.end()) {
          q.serve_stale = true;
          q.stale_record = lg->second;
          quality = DataQuality::kStale;
        } else {
          attempt_failed = true;  // nothing cached to serve: acts transient
          last_code = StatusCode::kUnavailable;
        }
        break;
      }
      case FaultKind::kTorn:
        q.torn_salt = dec.torn_salt;
        quality = DataQuality::kTorn;
        break;
      case FaultKind::kTimeout:
        d = plan_->timeout_spike();
        if (retry_.attempt_timeout.ns() > 0 && retry_.attempt_timeout < d) {
          d = retry_.attempt_timeout;
        }
        attempt_failed = true;
        last_code = StatusCode::kDeadlineExceeded;
        break;
      case FaultKind::kTransient:
        attempt_failed = true;
        last_code = StatusCode::kUnavailable;
        break;
    }
    if (budget.ns() > 0 && elapsed + d > budget) {
      // Budget clamp: the sweep never runs past its deadline; the element
      // is reported missing rather than late.
      elapsed = budget;
      q.fail_code = StatusCode::kDeadlineExceeded;
      ++fstats_.deadline_hits;
      break;
    }
    elapsed += d;
    if (!attempt_failed) {
      success = true;
      q.quality = quality;
      if (quality == DataQuality::kStale) ++fstats_.stale_served;
      if (quality == DataQuality::kTorn) ++fstats_.torn_reads;
      break;
    }
    if (attempt >= max_attempts) {
      q.fail_code = last_code;
      ++fstats_.exhausted;
      break;
    }
    // Exponential backoff with deterministic jitter, drawn pre-fan-out from
    // the same RNG stream as the channel jitter.
    Duration backoff = retry_.initial_backoff;
    for (uint32_t i = 1; i < attempt; ++i) {
      backoff = backoff * retry_.backoff_multiplier;
    }
    if (retry_.max_backoff.ns() > 0 && retry_.max_backoff < backoff) {
      backoff = retry_.max_backoff;
    }
    if (retry_.jitter_frac > 0) {
      backoff = backoff * (1.0 + retry_.jitter_frac * rng_.next_double());
    }
    if (budget.ns() > 0 && elapsed + backoff >= budget) {
      elapsed = budget;
      q.fail_code = StatusCode::kDeadlineExceeded;
      ++fstats_.deadline_hits;
      break;
    }
    elapsed += backoff;
    ++fstats_.retries;
    if (tracing) {
      traces->push_back(PendingTrace{q.id, now + elapsed,
                                     TraceEventKind::kAgentRetry,
                                     static_cast<double>(attempt),
                                     to_string(dec.kind)});
    }
  }
  q.delay = elapsed;
  q.attempts = attempt;
  q.failed = !success;
  if (q.failed) q.quality = DataQuality::kMissing;

  if (success) {
    br.consecutive_failures = 0;
    if (br.state == BreakerState::kHalfOpen) {
      br.state = BreakerState::kClosed;
      ++fstats_.breaker_closed;
      if (tracing) {
        traces->push_back(PendingTrace{
            breaker_id, now, TraceEventKind::kBreakerStateChange,
            static_cast<double>(static_cast<int>(BreakerState::kClosed)),
            "closed"});
      }
    }
  } else {
    ++br.consecutive_failures;
    const bool reopen = br.state == BreakerState::kHalfOpen;
    const bool trip = br.state == BreakerState::kClosed &&
                      br.consecutive_failures >= breaker_cfg_.failure_threshold;
    if (reopen || trip) {
      br.state = BreakerState::kOpen;
      br.opened_at = now;
      ++fstats_.breaker_opened;
      if (tracing) {
        traces->push_back(PendingTrace{
            breaker_id, now, TraceEventKind::kBreakerStateChange,
            static_cast<double>(static_cast<int>(BreakerState::kOpen)),
            "open"});
      }
    }
  }
}

void Agent::apply_fault_bookkeeping(const ElementId& id, StatsRecord& record,
                                    bool track_last_good) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_reset_.erase(id) > 0) {
    // First collect after a crash: capture the current monotone counter
    // values as offsets so the element appears to restart from zero.
    std::vector<Attr> offsets;
    for (const Attr& a : record.attrs) {
      if (is_monotone_counter(a.name)) offsets.push_back(a);
    }
    reset_offset_[id] = std::move(offsets);
  }
  auto it = reset_offset_.find(id);
  if (it != reset_offset_.end()) {
    for (Attr& a : record.attrs) {
      for (const Attr& o : it->second) {
        if (o.name == a.name) {
          a.value = a.value >= o.value ? a.value - o.value : 0;
          break;
        }
      }
    }
  }
  if (track_last_good) last_good_[id] = record;
}

Result<QueryResponse> AgentClient::query_attrs(
    const ElementId& id, const std::vector<std::string>& attrs, SimTime now) {
  BatchResponse b = query_batch({id}, now);
  if (b.responses.empty()) {
    return Status::not_found("agent " + name() + ": no element " + id.name);
  }
  QueryResponse r = std::move(b.responses.front());
  if (r.quality == DataQuality::kMissing) {
    return query_failure_status(name(), id, r.attempts, r.fail_code);
  }
  r.record = project(r.record, attrs);
  return r;
}

BatchResponse Agent::query_batch(const std::vector<ElementId>& ids,
                                 SimTime now, ThreadPool* pool) {
  return collect(&ids, now, pool);
}

std::vector<QueryResponse> Agent::poll_all(SimTime now, ThreadPool* pool) {
  return collect(nullptr, now, pool).responses;
}

BatchResponse Agent::collect(const std::vector<ElementId>* ids, SimTime now,
                             ThreadPool* pool) {
  const bool per_kind = ids != nullptr;
  BatchResponse batch;
  std::vector<PlannedQuery> plan;
  std::array<bool, kNumChannelKinds> kind_used = {};
  std::array<Duration, kNumChannelKinds> kind_delay = {};
  bool track_last_good = false, bookkeep = false;
  std::vector<PendingTrace> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    absorb_crashes_locked(now, &pending);
    const bool fault_mode = plan_ != nullptr;
    bool down = false;
    if (fault_mode) {
      track_last_good = plan_->serves_stale();
      bookkeep = track_last_good || !pending_reset_.empty() ||
                 !reset_offset_.empty();
      down = plan_->has_campaign() && plan_->agent_down(name_, now);
    }
    auto add = [&plan](const ElementId& id, const StatsSource* src) {
      PlannedQuery q;
      q.id = id;
      q.source = src;
      q.kind = src->channel_kind();
      plan.push_back(std::move(q));
    };
    if (per_kind) {
      plan.reserve(ids->size());
      for (const ElementId& id : *ids) {
        auto it = sources_.find(id);
        if (it == sources_.end()) {
          ++batch.unknown_ids;
          continue;
        }
        add(id, it->second);
        // A kind whose breaker is open (and still cooling down) gets no
        // round trip at all; its elements fast-fail cheaply in planning.
        const size_t k = static_cast<size_t>(plan.back().kind);
        const bool fast_fail = breakers_[k].state == BreakerState::kOpen &&
                               now - breakers_[k].opened_at <
                                   breaker_cfg_.cooldown;
        if (!fast_fail) kind_used[k] = true;
      }
      // One round trip per channel kind present, drawn in kind order so the
      // RNG stream is independent of the requested id order and pool size.
      for (size_t k = 0; k < kNumChannelKinds; ++k) {
        if (!kind_used[k]) continue;
        kind_delay[k] = channel_delay_locked(static_cast<ChannelKind>(k));
        batch.channel_time += kind_delay[k];
      }
    } else {
      plan.reserve(sources_.size());
      for (const auto& [id, src] : sources_) add(id, src);
    }
    std::sort(plan.begin(), plan.end(),
              [](const PlannedQuery& a, const PlannedQuery& b) {
                return a.id < b.id;
              });
    // Fault decisions and retry chains, planned in element-id order before
    // the fan-out.  Per kind, the first attempt of each element rides its
    // kind's shared round trip and retries pay their own trips on top; per
    // element, every attempt draws its own delay.
    for (PlannedQuery& q : plan) {
      const size_t k = static_cast<size_t>(q.kind);
      plan_outcome_locked(q, now, kind_used[k], kind_delay[k], down, &pending);
      if (!per_kind) {
        batch.channel_time += q.delay;
      } else if (fault_mode && q.delay > kind_delay[k]) {
        batch.channel_time += q.delay - kind_delay[k];
      }
    }
  }
  emit_pending(pending);

  batch.responses.resize(plan.size());
  std::vector<QueryResponse>& out = batch.responses;
  parallel_for_or_inline(pool, plan.size(), [&](size_t i) {
    PlannedQuery& q = plan[i];
    QueryResponse& r = out[i];
    r.response_time = q.delay;
    r.quality = q.quality;
    r.attempts = q.attempts;
    if (q.failed) {
      r.fail_code = q.fail_code;
      // Blind spot: keep the element visible with an empty record so the
      // diagnosis layer sees the hole instead of silently skipping it.
      r.record.timestamp = now;
      r.record.element = q.id;
      return;
    }
    if (q.serve_stale) {
      r.record = std::move(q.stale_record);
      return;
    }
    r.record = q.source->collect(now);
    if (bookkeep) apply_fault_bookkeeping(q.id, r.record, track_last_good);
    if (q.quality == DataQuality::kTorn) {
      r.record = apply_torn_read(r.record, q.torn_salt);
    }
  });
  for (const QueryResponse& r : batch.responses) {
    if (r.quality != DataQuality::kFresh) ++batch.degraded;
  }

  // Merge step, sequential on the caller: one histogram observe and one
  // trace pair per channel round trip actually paid, in deterministic order
  // (kind order per kind, element-id order per element).  Breaker
  // fast-fails (attempts == 0) paid no channel time and are not observed.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (per_kind) {
      for (size_t k = 0; k < kNumChannelKinds; ++k) {
        if (kind_used[k]) channel_hist_[k].observe(kind_delay[k].sec());
      }
    } else {
      for (const PlannedQuery& q : plan) {
        if (q.attempts == 0) continue;
        channel_hist_[static_cast<size_t>(q.kind)].observe(q.delay.sec());
      }
    }
  }
  if (!trace_enabled()) return batch;
  if (!per_kind) {
    for (const PlannedQuery& q : plan) {
      if (q.attempts > 0) {
        trace_event(q.id, now, TraceEventKind::kAgentQueryIssued, 0,
                    to_string(q.kind));
      }
      if (q.failed) {
        trace_event(q.id, now + q.delay, TraceEventKind::kAgentQueryFailed,
                    static_cast<double>(q.attempts), to_string(q.kind));
      } else {
        trace_event(q.id, now + q.delay, TraceEventKind::kAgentQueryCompleted,
                    q.delay.us(), to_string(q.kind));
      }
    }
    return batch;
  }
  const ElementId batch_id{name_ + "/batch"};
  // With an active trace context (a traced scatter above us — installed by
  // the controller's fan-out worker or a remote server's serve loop), the
  // batch also records its span subtree: one kSpanAgentBatch covering the
  // slowest channel trip, one kSpanChannelTrip child per kind paid.
  const TraceContext ctx = current_trace_context();
  const uint64_t batch_span = ctx.active() ? next_span_id() : 0;
  Duration slowest;
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    if (!kind_used[k]) continue;
    size_t group = 0;
    for (const PlannedQuery& q : plan) {
      if (static_cast<size_t>(q.kind) == k) ++group;
    }
    trace_event(batch_id, now, TraceEventKind::kAgentQueryIssued,
                static_cast<double>(group),
                to_string(static_cast<ChannelKind>(k)));
    trace_event(batch_id, now + kind_delay[k],
                TraceEventKind::kAgentQueryCompleted, kind_delay[k].us(),
                to_string(static_cast<ChannelKind>(k)));
    if (ctx.active()) {
      trace_span(batch_id, now, TraceEventKind::kSpanChannelTrip,
                 kind_delay[k], next_span_id(), batch_span,
                 static_cast<double>(group),
                 to_string(static_cast<ChannelKind>(k)));
      if (kind_delay[k] > slowest) slowest = kind_delay[k];
    }
  }
  if (ctx.active()) {
    trace_span(batch_id, now, TraceEventKind::kSpanAgentBatch, slowest,
               batch_span, ctx.span_id, static_cast<double>(plan.size()),
               name_);
  }
  // Blind spots must be visible in the flight recorder: unknown ids and
  // non-fresh responses degrade the batch.
  if (batch.unknown_ids > 0 || batch.degraded > 0) {
    trace_event(batch_id, now, TraceEventKind::kAgentBatchDegraded,
                static_cast<double>(batch.unknown_ids + batch.degraded),
                "unknown or degraded elements");
  }
  return batch;
}

}  // namespace perfsight
