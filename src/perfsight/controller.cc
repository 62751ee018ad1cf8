#include "perfsight/controller.h"

#include <algorithm>
#include <unordered_set>

#include "perfsight/trace.h"

namespace perfsight {

namespace {
// Trace events of the scatter-gather layer hang off a synthetic element:
// the fan-out is controller-wide, not owned by any dataplane element.
const ElementId& controller_trace_id() {
  static const ElementId kId{"controller"};
  return kId;
}

// The Fig. 6 interval utilities: sample every id, advance one shared window,
// sample again, then fold each element's two records.  A failed sample
// surfaces its Status (the first sample's failure wins); `quality`, when
// non-null, receives the worse of the two qualities (kMissing on failure).
template <typename T, typename Fold>
std::vector<Result<T>> two_sample(const Controller& c, TenantId tenant,
                                  const std::vector<ElementId>& ids,
                                  const std::vector<std::string>& attrs,
                                  Duration window,
                                  std::vector<DataQuality>* quality,
                                  ThreadPool* pool, Fold fold) {
  auto s1 = c.get_attr_many(tenant, ids, attrs, pool);
  c.advance(window);
  auto s2 = c.get_attr_many(tenant, ids, attrs, pool);
  if (quality != nullptr) quality->assign(ids.size(), DataQuality::kMissing);
  std::vector<Result<T>> out;
  out.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!s1[i].ok()) {
      out.push_back(s1[i].status());
      continue;
    }
    if (!s2[i].ok()) {
      out.push_back(s2[i].status());
      continue;
    }
    if (quality != nullptr) {
      (*quality)[i] = worse(s1[i].value().quality, s2[i].value().quality);
    }
    out.push_back(fold(s1[i].value().record, s2[i].value().record));
  }
  return out;
}

// The single-element utilities are the many-element ones over one id.
template <typename T>
Result<T> first_of(std::vector<Result<T>> many,
                   const std::vector<DataQuality>& q, DataQuality* quality) {
  if (quality != nullptr) *quality = q.front();
  return std::move(many.front());
}
}  // namespace

Status Controller::register_element(TenantId tenant, const ElementId& id,
                                    AgentClient* agent) {
  PS_CHECK(agent != nullptr);
  if (!agent->has_element(id)) {
    return Status::not_found("agent " + agent->name() +
                             " does not serve element " + id.name);
  }
  vnet_[tenant][id] = agent;
  return Status::ok();
}

Status Controller::register_mirror(TenantId tenant, const ElementId& id,
                                   AgentClient* agent) {
  PS_CHECK(agent != nullptr);
  if (!agent->has_element(id)) {
    return Status::not_found("agent " + agent->name() +
                             " does not serve element " + id.name);
  }
  mirror_[tenant][id] = agent;
  return Status::ok();
}

AgentClient* Controller::mirror_of(TenantId tenant, const ElementId& id) const {
  auto tit = mirror_.find(tenant);
  if (tit == mirror_.end()) return nullptr;
  auto eit = tit->second.find(id);
  return eit == tit->second.end() ? nullptr : eit->second;
}

const std::vector<ElementId>& Controller::middleboxes(TenantId tenant) const {
  static const std::vector<ElementId> kEmpty;
  auto it = tenant_mbs_.find(tenant);
  return it == tenant_mbs_.end() ? kEmpty : it->second;
}

const ChainTopology& Controller::chain(TenantId tenant) const {
  static const ChainTopology kEmpty;
  auto it = tenant_chain_.find(tenant);
  return it == tenant_chain_.end() ? kEmpty : it->second;
}

std::vector<ElementId> Controller::elements_of(TenantId tenant) const {
  std::vector<ElementId> out;
  auto it = vnet_.find(tenant);
  if (it == vnet_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [id, agent] : it->second) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ElementId> Controller::stack_elements_for(TenantId tenant) const {
  std::vector<ElementId> out;
  auto it = vnet_.find(tenant);
  if (it == vnet_.end()) return out;
  std::unordered_set<AgentClient*> machines;
  for (const auto& [id, agent] : it->second) machines.insert(agent);
  for (AgentClient* agent : machines) {
    auto sit = stack_elements_.find(agent);
    if (sit == stack_elements_.end()) continue;
    out.insert(out.end(), sit->second.begin(), sit->second.end());
  }
  std::sort(out.begin(), out.end());
  // A mirrored element is registered as a stack element on its primary AND
  // its replica agent; the scan set is a set — without this, quorum-served
  // elements count twice in loss rankings and coverage denominators.
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

AgentClient* Controller::locate(TenantId tenant, const ElementId& id) const {
  auto tit = vnet_.find(tenant);
  if (tit != vnet_.end()) {
    auto eit = tit->second.find(id);
    if (eit != tit->second.end()) return eit->second;
  }
  // Stack elements are shared infrastructure, not owned by any tenant;
  // resolve them by asking the agents directly.
  for (AgentClient* a : agents_) {
    if (a->has_element(id)) return a;
  }
  return nullptr;
}

void Controller::set_metrics(MetricsRegistry* m) {
  metrics_ = m;
  if (m == nullptr) {
    m_queries_ = m_scatters_ = m_scatter_agents_ = nullptr;
    m_batch_channel_s_ = nullptr;
    return;
  }
  // Created once here: instrument creation mutates the registry's family
  // vectors (not thread-safe), but the instruments themselves have stable
  // addresses, so the query paths only touch these pointers — under
  // cost_mu_.
  m_queries_ =
      &m->counter("perfsight_controller_queries_total",
                  "Element queries the controller issued", "path=\"batch\"");
  m_scatters_ = &m->counter("perfsight_controller_batch_scatters_total",
                            "Controller queries fanned out as agent batches");
  m_scatter_agents_ =
      &m->counter("perfsight_controller_batch_agents_total",
                  "Per-agent batches issued by scatter-gather fan-outs");
  m_batch_channel_s_ =
      &m->histogram("perfsight_controller_batch_channel_seconds",
                    "Modelled channel time per scatter-gather fan-out");
}

Result<Controller::QualifiedRecord> Controller::get_attr_q(
    TenantId tenant, const ElementId& id,
    const std::vector<std::string>& attrs) const {
  return std::move(scatter_gather(tenant, {id}, attrs, pool_).front());
}

Result<StatsRecord> Controller::get_attr(
    TenantId tenant, const ElementId& id,
    const std::vector<std::string>& attrs) const {
  Result<QualifiedRecord> q = get_attr_q(tenant, id, attrs);
  if (!q.ok()) return q.status();
  return std::move(q).take().record;
}

Result<DataRate> Controller::get_throughput(TenantId tenant,
                                            const ElementId& id,
                                            Duration window,
                                            DataQuality* quality) const {
  std::vector<DataQuality> q;
  return first_of(get_throughput_many(tenant, {id}, window, &q), q, quality);
}

Result<int64_t> Controller::get_pkt_loss(TenantId tenant, const ElementId& id,
                                         Duration window,
                                         DataQuality* quality) const {
  std::vector<DataQuality> q;
  return first_of(get_pkt_loss_many(tenant, {id}, window, &q), q, quality);
}

Result<double> Controller::get_avg_pkt_size(TenantId tenant,
                                            const ElementId& id,
                                            Duration window,
                                            DataQuality* quality) const {
  std::vector<DataQuality> q;
  return first_of(get_avg_pkt_size_many(tenant, {id}, window, &q), q,
                  quality);
}

// --- scatter-gather ---------------------------------------------------------

std::vector<Result<Controller::QualifiedRecord>> Controller::scatter_gather(
    TenantId tenant, const std::vector<ElementId>& ids,
    const std::vector<std::string>& attrs, ThreadPool* pool) const {
  std::vector<Result<QualifiedRecord>> out(
      ids.size(),
      Result<QualifiedRecord>(Status::unavailable("unresolved scatter slot")));

  // Group the ids by owning agent.  Groups keep first-appearance order;
  // each group's id list is sorted and deduplicated (query_batch answers in
  // ascending id order), with every input slot the id must fill remembered.
  struct Group {
    AgentClient* agent = nullptr;
    std::unordered_map<ElementId, std::vector<size_t>> slots;
    std::vector<ElementId> sorted_ids;
  };
  struct Round {
    std::vector<Group> groups;
    std::unordered_map<AgentClient*, size_t> group_of;
    void add(AgentClient* agent, const ElementId& id, size_t slot) {
      auto [it, fresh] = group_of.try_emplace(agent, groups.size());
      if (fresh) {
        groups.emplace_back();
        groups.back().agent = agent;
      }
      groups[it->second].slots[id].push_back(slot);
    }
  };
  Round primary;
  for (size_t i = 0; i < ids.size(); ++i) {
    AgentClient* agent = locate(tenant, ids[i]);
    if (agent == nullptr) {
      out[i] = Status::not_found("no agent serves element " + ids[i].name);
      continue;
    }
    primary.add(agent, ids[i], i);
  }

  // One timestamp for the whole fan-out: every per-agent batch samples the
  // same instant (only the interval utilities advance time).
  const SimTime now = now_();
  trace_event(controller_trace_id(), now, TraceEventKind::kControllerScatter,
              static_cast<double>(ids.size()), "scatter");

  // Root of this sweep's span tree.  Each pool worker re-installs the
  // context (thread-locals do not cross the fan-out boundary), so agent
  // batch spans — and, over sockets, the remote server's serve spans — all
  // parent to this scatter span.
  const bool traced = trace_enabled();
  const TraceContext scatter_ctx =
      traced ? TraceContext{next_span_id(), next_span_id()} : TraceContext{};

  // Fan a round's agents out over the pool.  query_batch gets no pool of
  // its own: a worker blocking inside a nested parallel_for on the same
  // pool can deadlock, and the per-agent batch is already one channel
  // round trip per kind — the win is agent-level parallelism.
  auto fan_out = [&](std::vector<Group>& groups) {
    for (Group& g : groups) {
      g.sorted_ids.reserve(g.slots.size());
      for (const auto& [id, slots] : g.slots) g.sorted_ids.push_back(id);
      std::sort(g.sorted_ids.begin(), g.sorted_ids.end());
    }
    std::vector<BatchResponse> br(groups.size());
    parallel_for_or_inline(pool, groups.size(), [&](size_t gi) {
      ScopedTraceContext span_ctx(scatter_ctx);
      br[gi] = groups[gi].agent->query_batch(groups[gi].sorted_ids, now);
    });
    return br;
  };
  const std::vector<Group>& groups = primary.groups;
  const std::vector<BatchResponse> br = fan_out(primary.groups);

  // Gather: merge per-agent responses back into input slots, sequentially,
  // in group order.  Response lists are ascending by element id; ids absent
  // from a list were unknown to the agent and surface as not_found.
  uint64_t ok_slots = 0;
  size_t served = 0;
  Duration total_channel;
  // Quorum second round: kMissing slots whose element has a registered
  // replica are collected per mirror agent and retried below, before their
  // blind spots stand.
  Round replica;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& g = groups[gi];
    const std::vector<QueryResponse>& resp = br[gi].responses;
    total_channel = total_channel + br[gi].channel_time;
    size_t ri = 0;
    for (const ElementId& id : g.sorted_ids) {
      while (ri < resp.size() && resp[ri].record.element < id) ++ri;
      const std::vector<size_t>& slots = g.slots.at(id);
      if (ri >= resp.size() || !(resp[ri].record.element == id)) {
        Status miss = Status::not_found("agent " + g.agent->name() +
                                        ": no element " + id.name);
        for (size_t s : slots) out[s] = miss;
        continue;
      }
      const QueryResponse& r = resp[ri];
      ++ri;
      if (r.quality == DataQuality::kMissing) {
        // Retries exhausted / budget hit / breaker open / departed: the
        // failure's Status stays the answer unless a replica can serve the
        // element below.
        Status fail =
            query_failure_status(g.agent->name(), id, r.attempts, r.fail_code);
        for (size_t s : slots) out[s] = fail;
        AgentClient* mirror = mirror_.empty() ? nullptr : mirror_of(tenant, id);
        if (mirror != nullptr) {
          for (size_t s : slots) replica.add(mirror, id, s);
        }
        continue;
      }
      QualifiedRecord q{project(r.record, attrs), r.quality};
      for (size_t s : slots) {
        out[s] = q;
        ++ok_slots;
      }
      ++served;
    }
  }

  // The mirror round mirrors the primary round: one batch per replica
  // agent, fanned over the pool, merged by ascending element id.  A replica
  // answer replaces the blind spot annotated kReplica; a replica failure
  // leaves the primary's Status in place (byte-identical to no mirror).
  const std::vector<Group>& mgroups = replica.groups;
  if (!mgroups.empty()) {
    const std::vector<BatchResponse> mbr = fan_out(replica.groups);
    for (size_t gi = 0; gi < mgroups.size(); ++gi) {
      const Group& g = mgroups[gi];
      const std::vector<QueryResponse>& resp = mbr[gi].responses;
      total_channel = total_channel + mbr[gi].channel_time;
      size_t ri = 0;
      for (const ElementId& id : g.sorted_ids) {
        while (ri < resp.size() && resp[ri].record.element < id) ++ri;
        if (ri >= resp.size() || !(resp[ri].record.element == id)) continue;
        const QueryResponse& r = resp[ri];
        ++ri;
        if (r.quality == DataQuality::kMissing) continue;
        QualifiedRecord q{project(r.record, attrs),
                          worse(DataQuality::kReplica, r.quality)};
        for (size_t s : g.slots.at(id)) {
          out[s] = q;
          ++ok_slots;
        }
        ++served;
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    queries_issued_ += ok_slots;
    channel_time_ns_ += total_channel.ns();
    if (m_queries_ != nullptr) m_queries_->add(ok_slots);
    if (m_scatters_ != nullptr) m_scatters_->increment();
    if (m_scatter_agents_ != nullptr) {
      m_scatter_agents_->add(groups.size() + mgroups.size());
    }
    if (m_batch_channel_s_ != nullptr) {
      m_batch_channel_s_->observe(static_cast<double>(total_channel.ns()) /
                                  1e9);
    }
  }
  trace_event(controller_trace_id(), now, TraceEventKind::kControllerGather,
              static_cast<double>(served), "gather");
  if (traced) {
    // The scatter span covers the whole fan-out; its duration is the
    // modelled channel time the sweep consumed (deterministic, unlike the
    // wall clock the pool happens to deliver).
    trace_span(controller_trace_id(), now, TraceEventKind::kSpanScatter,
               total_channel, scatter_ctx.span_id, /*parent_span=*/0,
               static_cast<double>(ids.size()), "scatter");
  }
  return out;
}

std::vector<Result<Controller::QualifiedRecord>> Controller::get_attr_many(
    TenantId tenant, const std::vector<ElementId>& ids,
    const std::vector<std::string>& attrs, ThreadPool* pool_override) const {
  if (ids.empty()) return {};  // nothing to fetch: no scatter counted or traced
  return scatter_gather(tenant, ids, attrs,
                        pool_override != nullptr ? pool_override : pool_);
}

std::vector<Result<DataRate>> Controller::get_throughput_many(
    TenantId tenant, const std::vector<ElementId>& ids, Duration window,
    std::vector<DataQuality>* quality, ThreadPool* pool_override) const {
  return two_sample<DataRate>(
      *this, tenant, ids, {attr::kTxBytes}, window, quality, pool_override,
      [](const StatsRecord& r1, const StatsRecord& r2) {
        const double db =
            r2.get_or(attr::kTxBytes, 0) - r1.get_or(attr::kTxBytes, 0);
        return rate_of(static_cast<uint64_t>(std::max(0.0, db)),
                       r2.timestamp - r1.timestamp);
      });
}

std::vector<Result<int64_t>> Controller::get_pkt_loss_many(
    TenantId tenant, const std::vector<ElementId>& ids, Duration window,
    std::vector<DataQuality>* quality, ThreadPool* pool_override) const {
  return two_sample<int64_t>(
      *this, tenant, ids, {attr::kRxPkts, attr::kTxPkts, attr::kDropPkts},
      window, quality, pool_override,
      [](const StatsRecord& r1, const StatsRecord& r2) {
        // An explicit drop counter is more precise than the paper's in-out
        // delta when queues are draining or filling.
        if (r1.get(attr::kDropPkts) && r2.get(attr::kDropPkts)) {
          return static_cast<int64_t>(*r2.get(attr::kDropPkts) -
                                      *r1.get(attr::kDropPkts));
        }
        const double d1 =
            r1.get_or(attr::kRxPkts, 0) - r1.get_or(attr::kTxPkts, 0);
        const double d2 =
            r2.get_or(attr::kRxPkts, 0) - r2.get_or(attr::kTxPkts, 0);
        return static_cast<int64_t>(d2 - d1);
      });
}

std::vector<Result<double>> Controller::get_avg_pkt_size_many(
    TenantId tenant, const std::vector<ElementId>& ids, Duration window,
    std::vector<DataQuality>* quality, ThreadPool* pool_override) const {
  return two_sample<double>(
      *this, tenant, ids, {attr::kTxBytes, attr::kTxPkts}, window, quality,
      pool_override, [](const StatsRecord& r1, const StatsRecord& r2) {
        const double db =
            r2.get_or(attr::kTxBytes, 0) - r1.get_or(attr::kTxBytes, 0);
        const double dp =
            r2.get_or(attr::kTxPkts, 0) - r1.get_or(attr::kTxPkts, 0);
        return dp <= 0 ? 0.0 : db / dp;
      });
}

}  // namespace perfsight
