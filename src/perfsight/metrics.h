// Uniform metrics exposition for operators (§4.3's "diagnostic applications"
// made scrapeable).
//
// A MetricsRegistry pulls every registered agent's elements through the
// normal query path and renders the counters as Prometheus text-format
// gauges, alongside *self-profiling* series that answer "what does
// diagnosis itself cost":
//
//   * per-agent, per-channel-kind latency histograms (every Agent::query
//     observes its modelled channel delay — the Fig. 9 distribution, live);
//   * controller scatter-gather, transport and stream-cache counters;
//   * end-to-end Algorithm 1/2 diagnosis-latency histograms (the detectors
//     observe measurement window + channel time per run);
//   * flight-recorder health (events recorded / overwritten).
//
// Exposition is pull-only: each subsystem keeps its own tallies behind its
// own lock, and expose() reads them through the subsystem's accessor at
// scrape time.  Nothing is pushed into the registry, so a value exposed is
// always the value the accessor returns.
//
// The exposition is plain text over expose(): embed it behind any HTTP
// handler or dump it to a file — no dependency on a metrics client library.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"

namespace perfsight {

class Agent;
class AgentClient;
class ContentionDetector;
class Controller;
class FaultPlan;
class RemoteAgent;
class RemoteAgentServer;
class RootCauseAnalyzer;
class StreamCache;
class ThreadPool;

// Prometheus-style metrics registry: element scraping via agents plus the
// self-profiling series of every registered subsystem.  Nothing registered
// is owned; each must outlive the registry's last expose().
class MetricsRegistry {
 public:
  // Agents scraped on every expose().
  void add_agent(Agent* agent) { agents_.push_back(agent); }
  size_t num_agents() const { return agents_.size(); }

  // Socket-backed (or otherwise adapter-wrapped) agents, scraped through
  // AgentClient::query_batch — the exact path the controller uses, so a
  // remote agent's element gauges match its in-process twin's attribute for
  // attribute.  Scraped after the in-process agents, in registration order.
  void add_agent_client(AgentClient* client) {
    agent_clients_.push_back(client);
  }
  size_t num_agent_clients() const { return agent_clients_.size(); }

  // --- self-profiling subsystems, read at scrape time ----------------------
  // perfsight_controller_*: Controller::cost(), summed over controllers.
  void add_controller(const Controller* c) { controllers_.push_back(c); }
  // perfsight_transport_{connects,reconnects,batches,damaged_batches}_total
  // labeled by agent: RemoteAgent::transport_stats().
  void add_transport(const RemoteAgent* r) { transports_.push_back(r); }
  // perfsight_transport_accept_errors_total labeled by endpoint:
  // RemoteAgentServer::accept_errors().
  void add_server(const RemoteAgentServer* s) { servers_.push_back(s); }
  // perfsight_stream_*: StreamCache::stats(), summed over caches.
  void add_stream_cache(const StreamCache* c) { caches_.push_back(c); }
  // perfsight_{contention,rootcause}_diagnosis_seconds: each detector's
  // diagnosis_latency(), summed per algorithm into one series.  A family
  // appears once its algorithm has run.
  void add_detector(const ContentionDetector* d) { contention_.push_back(d); }
  void add_detector(const RootCauseAnalyzer* a) { rootcause_.push_back(a); }

  // Collection pool used by expose() to scrape agents concurrently (one
  // task per agent; each agent's RNG is its own, so output is byte-identical
  // to the sequential scrape).  Null, the default, scrapes sequentially.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  // Fault plan driving the agents, if any; not owned.  With a plan armed
  // and fault counters moving, expose() adds per-agent-per-kind breaker
  // gauges (perfsight_agent_breaker_state: 0 closed, 1 open, 2 half-open)
  // and, when the plan carries a scheduled campaign, a
  // perfsight_fault_campaign_active gauge.  Fault-free exposition is
  // byte-identical to the pre-fault format.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }

  // Renders the full exposition: every element attribute of every agent
  // (in-process and client-wrapped) as perfsight_element_stat gauges (the
  // scrape itself travels the modelled channels, feeding the agents'
  // latency histograms), each agent's per-channel latency histograms, the
  // registered subsystems' series, and the global flight-recorder health
  // counters — including, when any trace rings exist, per-ring occupancy/
  // capacity/overwrite gauges so a ring quietly discarding events shows up
  // on a dashboard instead of only in a shorter trace.  Every family gets
  // one HELP/TYPE pair followed by all of its samples.
  std::string expose(SimTime now) const;

 private:
  std::vector<Agent*> agents_;
  std::vector<AgentClient*> agent_clients_;
  std::vector<const Controller*> controllers_;
  std::vector<const RemoteAgent*> transports_;
  std::vector<const RemoteAgentServer*> servers_;
  std::vector<const StreamCache*> caches_;
  std::vector<const ContentionDetector*> contention_;
  std::vector<const RootCauseAnalyzer*> rootcause_;
  ThreadPool* pool_ = nullptr;
  const FaultPlan* fault_plan_ = nullptr;
};

// Escapes a Prometheus label value (backslash, quote, newline).
std::string prom_escape(const std::string& s);

}  // namespace perfsight
