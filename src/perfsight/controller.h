// The PerfSight controller (§4.3) and the basic utility routines of Fig. 6.
//
// The controller sits between diagnostic applications and the per-server
// agents: it resolves (tenant, element) to the owning agent, forwards
// attribute queries, and implements the interval-based utilities
// GetThroughput / GetPktLoss / GetAvgPktSize by taking two counter samples
// separated by a measurement window.  "Sleeping" for the window means
// advancing simulated time, so the controller is handed an AdvanceFn by the
// scenario (in a real deployment it would be wall-clock sleep).
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "perfsight/agent.h"
#include "perfsight/metrics.h"
#include "perfsight/stats.h"
#include "perfsight/topology.h"

namespace perfsight {

// Advances the world by `d` and returns the new time ("sleep(T)" in Fig. 6).
using AdvanceFn = std::function<SimTime(Duration)>;
// Returns the current time.
using NowFn = std::function<SimTime()>;

class Controller {
 public:
  Controller(AdvanceFn advance, NowFn now)
      : advance_(std::move(advance)), now_(std::move(now)) {}

  // --- registration (performed by the deployment layer) -----------------
  // Agents register through the AgentClient surface: the controller never
  // cares whether an agent is in-process (Agent) or on the far end of a
  // socket (RemoteAgent) — the scatter-gather path is identical.
  void register_agent(AgentClient* agent) { agents_.push_back(agent); }

  // Maps a tenant's element to the agent serving it.
  Status register_element(TenantId tenant, const ElementId& id,
                          AgentClient* agent);

  // Declares `agent` a read replica for a tenant's element (quorum reads):
  // when the primary fails — retries exhausted, breaker open, transport
  // lost, element departed — the scatter-gather merge asks the replica
  // before declaring a blind spot.  A replica answer is
  // annotated DataQuality::kReplica so coverage reports distinguish it from
  // a fresh primary read; a double failure keeps the PRIMARY's failure
  // Status (byte-identical to the unmirrored run).  The replica must serve
  // the element.
  Status register_mirror(TenantId tenant, const ElementId& id,
                         AgentClient* agent);

  // Declares `id` part of the virtualization stack on `agent`'s machine
  // (Algorithm 1 scans these).
  void register_stack_element(AgentClient* agent, const ElementId& id) {
    stack_elements_[agent].push_back(id);
  }

  // Declares `id` a middlebox of `tenant` and records chain edges.
  void register_middlebox(TenantId tenant, const ElementId& id) {
    tenant_mbs_[tenant].push_back(id);
    tenant_chain_[tenant].add_node(id);
  }
  void add_chain_edge(TenantId tenant, const ElementId& from,
                      const ElementId& to) {
    tenant_chain_[tenant].add_edge(from, to);
  }

  // --- lookup -------------------------------------------------------------
  const std::vector<ElementId>& middleboxes(TenantId tenant) const;
  const ChainTopology& chain(TenantId tenant) const;
  std::vector<ElementId> elements_of(TenantId tenant) const;
  // Every virtualization-stack element on every machine hosting a tenant
  // element (the scan set of Algorithm 1).
  std::vector<ElementId> stack_elements_for(TenantId tenant) const;
  const std::vector<AgentClient*>& agents() const { return agents_; }

  SimTime now() const { return now_(); }
  SimTime advance(Duration d) const { return advance_(d); }

  // --- scatter-gather configuration -----------------------------------------
  // Collection pool the scatter-gather fan-out runs over (one task per
  // owning agent).  Not owned; null — the default — visits agents
  // sequentially.  The deployment layer wires its pool in.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  // Metrics sink for the perfsight_controller_batch_* series.  Instruments
  // are created once here (stable addresses) so the hot paths never touch
  // the registry's family vectors; not owned.
  void set_metrics(MetricsRegistry* m);

  // --- self-profiling --------------------------------------------------------
  // Cumulative cost of the queries this controller has issued: how many,
  // and how much modelled channel time they spent (the per-query latencies
  // of Fig. 9, summed — batched queries add one amortised round trip per
  // channel kind, which is the saving).  Diagnosis applications read deltas
  // around a run to report what the run itself cost.  The two tallies are
  // kept under one mutex so a snapshot is never torn: the old pair of
  // independent relaxed atomics let a reader observe the query count of one
  // sweep with the channel time of another.
  struct CostSnapshot {
    uint64_t queries = 0;
    Duration channel_time;
  };
  CostSnapshot cost() const {
    std::lock_guard<std::mutex> lock(cost_mu_);
    return CostSnapshot{queries_issued_, Duration::nanos(channel_time_ns_)};
  }
  uint64_t queries_issued() const { return cost().queries; }
  Duration channel_time() const { return cost().channel_time; }

  // --- Fig. 6 interfaces ----------------------------------------------------
  // A record plus the collection layer's judgement of how trustworthy it is
  // (fault-tolerant collection: stale and torn records still flow, annotated).
  struct QualifiedRecord {
    StatsRecord record;
    DataQuality quality = DataQuality::kFresh;
  };

  // GETATTR(tenantID, elementID, attributes): a scatter-gather of one.
  Result<StatsRecord> get_attr(TenantId tenant, const ElementId& id,
                               const std::vector<std::string>& attrs) const;
  // As get_attr, but carries the per-record DataQuality so diagnosis layers
  // can annotate their verdicts with coverage / blind spots.
  Result<QualifiedRecord> get_attr_q(TenantId tenant, const ElementId& id,
                                     const std::vector<std::string>& attrs)
      const;

  // The interval utilities take two samples (the _many versions over one
  // id); when `quality` is non-null it receives the worse of the two
  // samples' qualities (worst-case honesty: a rate computed from one stale
  // endpoint is itself stale), kMissing when a sample failed.

  // GETTHROUGHPUT: output rate of the element over window T.
  Result<DataRate> get_throughput(TenantId tenant, const ElementId& id,
                                  Duration window,
                                  DataQuality* quality = nullptr) const;

  // GETPKTLOSS: growth of (inPkts - outPkts) over window T.  For elements
  // exposing an explicit drop counter, the drop delta (more precise when
  // queues are draining/filling); otherwise the in-out delta of the paper.
  Result<int64_t> get_pkt_loss(TenantId tenant, const ElementId& id,
                               Duration window,
                               DataQuality* quality = nullptr) const;

  // GETAVGPKTSIZE: bytes per packet observed over window T.
  Result<double> get_avg_pkt_size(TenantId tenant, const ElementId& id,
                                  Duration window,
                                  DataQuality* quality = nullptr) const;

  // --- scatter-gather fan-ins ----------------------------------------------
  // GETATTR over many elements at once: groups the ids by owning agent,
  // issues one AgentClient::query_batch per agent (amortising channel round
  // trips per kind), fans the agents out over the pool, and merges the
  // responses back into input order.  Output is byte-identical to a
  // per-element GetAttr loop: same records, same qualities, same Status
  // text for failures.  `pool_override`, when non-null, wins over set_pool
  // (detectors pass their own pool through).
  std::vector<Result<QualifiedRecord>> get_attr_many(
      TenantId tenant, const std::vector<ElementId>& ids,
      const std::vector<std::string>& attrs,
      ThreadPool* pool_override = nullptr) const;

  // Interval utilities over many elements: two batched sweeps around one
  // shared window advance, then per-element math.  `quality`, when
  // non-null, receives one entry per id (worse of the two samples; kMissing
  // for failed elements).
  std::vector<Result<DataRate>> get_throughput_many(
      TenantId tenant, const std::vector<ElementId>& ids, Duration window,
      std::vector<DataQuality>* quality = nullptr,
      ThreadPool* pool_override = nullptr) const;
  std::vector<Result<int64_t>> get_pkt_loss_many(
      TenantId tenant, const std::vector<ElementId>& ids, Duration window,
      std::vector<DataQuality>* quality = nullptr,
      ThreadPool* pool_override = nullptr) const;
  std::vector<Result<double>> get_avg_pkt_size_many(
      TenantId tenant, const std::vector<ElementId>& ids, Duration window,
      std::vector<DataQuality>* quality = nullptr,
      ThreadPool* pool_override = nullptr) const;

 private:
  AgentClient* locate(TenantId tenant, const ElementId& id) const;
  // The registered read replica, or null.
  AgentClient* mirror_of(TenantId tenant, const ElementId& id) const;
  // The one collection path: one Result per id, in input order.
  std::vector<Result<QualifiedRecord>> scatter_gather(
      TenantId tenant, const std::vector<ElementId>& ids,
      const std::vector<std::string>& attrs, ThreadPool* pool) const;

  AdvanceFn advance_;
  NowFn now_;
  // get_attr is logically const (a read); the cost bookkeeping is not state
  // the read depends on.  One mutex guards both tallies and the metric
  // bumps so snapshots are never torn (see cost()).
  mutable std::mutex cost_mu_;
  mutable uint64_t queries_issued_ = 0;
  mutable int64_t channel_time_ns_ = 0;
  ThreadPool* pool_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  // Instruments cached at set_metrics time: creation mutates the registry's
  // family vectors (not thread-safe), but the instruments themselves have
  // stable addresses, so the hot paths only ever touch these pointers —
  // under cost_mu_.
  MetricsRegistry::CounterMetric* m_queries_ = nullptr;
  MetricsRegistry::CounterMetric* m_scatters_ = nullptr;
  MetricsRegistry::CounterMetric* m_scatter_agents_ = nullptr;
  LatencyHistogram* m_batch_channel_s_ = nullptr;
  std::vector<AgentClient*> agents_;
  std::unordered_map<TenantId, std::unordered_map<ElementId, AgentClient*>>
      vnet_;
  std::unordered_map<TenantId, std::unordered_map<ElementId, AgentClient*>>
      mirror_;
  std::unordered_map<AgentClient*, std::vector<ElementId>> stack_elements_;
  std::unordered_map<TenantId, std::vector<ElementId>> tenant_mbs_;
  std::unordered_map<TenantId, ChainTopology> tenant_chain_;
};

}  // namespace perfsight
