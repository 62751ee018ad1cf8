#include "perfsight/metrics.h"

#include <cstdio>
#include <utility>

#include "common/threadpool.h"
#include "perfsight/agent.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/faults.h"
#include "perfsight/json_export.h"
#include "perfsight/remote_agent.h"
#include "perfsight/rootcause.h"
#include "perfsight/streaming.h"
#include "perfsight/trace.h"

namespace perfsight {

std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {

// --- every family the registry renders ---------------------------------------
struct FamilyDef {
  const char* name;
  const char* type;
  const char* help;
};

constexpr FamilyDef kElementStat{
    "perfsight_element_stat", "gauge",
    "Element attribute scraped via the owning agent's channel"};
constexpr FamilyDef kChannelLatency{
    "perfsight_agent_channel_latency_seconds", "histogram",
    "Modelled agent-to-element fetch latency per channel kind"};
constexpr FamilyDef kFaultEvents{
    "perfsight_agent_fault_events_total", "counter",
    "Channel faults injected and absorbed by the agent's retry/breaker "
    "machinery"};
constexpr FamilyDef kBreakerState{
    "perfsight_agent_breaker_state", "gauge",
    "Circuit breaker position per channel kind (0 closed, 1 open, 2 "
    "half-open)"};
constexpr FamilyDef kCampaignActive{
    "perfsight_fault_campaign_active", "gauge",
    "Whether any scheduled outage window covers the current time"};
constexpr FamilyDef kControllerQueries{
    "perfsight_controller_queries_total", "counter",
    "Element queries the controller issued"};
constexpr FamilyDef kControllerScatters{
    "perfsight_controller_batch_scatters_total", "counter",
    "Controller queries fanned out as agent batches"};
constexpr FamilyDef kControllerAgentBatches{
    "perfsight_controller_batch_agents_total", "counter",
    "Per-agent batches issued by scatter-gather fan-outs"};
constexpr FamilyDef kTransportConnects{
    "perfsight_transport_connects_total", "counter",
    "Successful dial+hello handshakes"};
constexpr FamilyDef kTransportReconnects{
    "perfsight_transport_reconnects_total", "counter",
    "Connections re-established after loss"};
constexpr FamilyDef kTransportBatches{
    "perfsight_transport_batches_total", "counter",
    "Batch round trips attempted over the socket"};
constexpr FamilyDef kTransportDamaged{
    "perfsight_transport_damaged_batches_total", "counter",
    "Batches that arrived short or corrupt"};
constexpr FamilyDef kAcceptErrors{
    "perfsight_transport_accept_errors_total", "counter",
    "Listener accept failures that were real errors (EMFILE, ...), each "
    "backing the accept path off instead of hot-spinning"};
constexpr FamilyDef kStreamFrames{
    "perfsight_stream_frames_applied_total", "counter",
    "Stream frames absorbed into the window cache"};
constexpr FamilyDef kStreamGaps{"perfsight_stream_gaps_total", "counter",
                                "Stream frames refused for a sequence gap"};
constexpr FamilyDef kStreamRepairs{
    "perfsight_stream_repairs_total", "counter",
    "Windows backfilled by targeted repair pulls"};
constexpr FamilyDef kStreamBytes{
    "perfsight_stream_bytes_applied_total", "counter",
    "Encoded stream bytes accepted into the cache"};
constexpr FamilyDef kBatchChannel{
    "perfsight_controller_batch_channel_seconds", "histogram",
    "Modelled channel time per scatter-gather fan-out"};
constexpr FamilyDef kContentionDiagnosis{
    "perfsight_contention_diagnosis_seconds", "histogram",
    "End-to-end Algorithm 1 cost: measurement window plus modelled channel "
    "time"};
constexpr FamilyDef kRootCauseDiagnosis{
    "perfsight_rootcause_diagnosis_seconds", "histogram",
    "End-to-end Algorithm 2 cost: measurement window plus modelled channel "
    "time"};
constexpr FamilyDef kTraceEvents{"perfsight_trace_events_total", "counter",
                                 "Events recorded by the flight recorder"};
constexpr FamilyDef kTraceDropped{"perfsight_trace_dropped_events_total",
                                  "counter", "Events overwritten in full rings"};
constexpr FamilyDef kRingEvents{"perfsight_trace_ring_events", "gauge",
                                "Live events in the element's trace ring"};
constexpr FamilyDef kRingCapacity{"perfsight_trace_ring_capacity", "gauge",
                                  "Ring capacity for the element"};
constexpr FamilyDef kRingDropped{
    "perfsight_trace_ring_dropped_events_total", "counter",
    "Events the ring overwrote before they were exported"};

std::string le_label(size_t bucket) {
  if (bucket >= LatencyHistogram::kBoundsSec.size()) return "+Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", LatencyHistogram::kBoundsSec[bucket]);
  return buf;
}

// The families of one scrape, in first-use order.  However late a sample
// is added, it renders under its family's one HELP/TYPE pair, next to the
// family's other samples.
class Exposition {
 public:
  // The sample text of `def`'s family; the family is declared on first use
  // and rendered even if it never gets a sample.
  std::string& family(const FamilyDef& def) {
    for (auto& [d, samples] : families_) {
      if (d == &def) return samples;
    }
    families_.emplace_back(&def, std::string());
    return families_.back().second;
  }

  void sample(const FamilyDef& def, const std::string& labels,
              const std::string& value) {
    std::string& out = family(def);
    out += def.name;
    if (!labels.empty()) out += "{" + labels + "}";
    out += " " + value + "\n";
  }
  void counter(const FamilyDef& def, const std::string& labels, uint64_t v) {
    sample(def, labels, std::to_string(v));
  }
  void histogram(const FamilyDef& def, const std::string& labels,
                 const LatencyHistogram& h) {
    std::string& out = family(def);
    const std::string name = def.name;
    uint64_t cumulative = 0;
    for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      cumulative += h.bucket_count(i);
      out += name + "_bucket{" + labels + (labels.empty() ? "" : ",") +
             "le=\"" + le_label(i) + "\"} " + std::to_string(cumulative) +
             "\n";
    }
    const std::string braced = labels.empty() ? "" : "{" + labels + "}";
    out += name + "_sum" + braced + " " + json::number(h.sum()) + "\n";
    out += name + "_count" + braced + " " + std::to_string(h.count()) + "\n";
  }

  std::string render() const {
    std::string out;
    for (const auto& [def, samples] : families_) {
      out += std::string("# HELP ") + def->name + " " + def->help + "\n";
      out += std::string("# TYPE ") + def->name + " " + def->type + "\n";
      out += samples;
    }
    return out;
  }

 private:
  std::vector<std::pair<const FamilyDef*, std::string>> families_;
};

std::string element_stat_lines(const std::string& agent,
                               const std::vector<QueryResponse>& responses) {
  std::string out;
  for (const QueryResponse& resp : responses) {
    const StatsRecord& r = resp.record;
    for (const Attr& at : r.attrs) {
      out += "perfsight_element_stat{agent=\"" + prom_escape(agent) +
             "\",element=\"" + prom_escape(r.element.name) + "\",attr=\"" +
             prom_escape(at.name) + "\"} " + json::number(at.value) + "\n";
    }
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::expose(SimTime now) const {
  Exposition ex;

  // --- element counters, scraped through the agents ------------------------
  if (!agents_.empty() || !agent_clients_.empty()) {
    // One scrape task per agent: each agent polls its own elements (own
    // RNG, own histograms) into a private buffer; buffers concatenate in
    // registration order, so the exposition is byte-identical whether the
    // agents were scraped serially or across the pool.
    std::vector<std::string> blocks(agents_.size());
    parallel_for_or_inline(pool_, agents_.size(), [&](size_t i) {
      blocks[i] = element_stat_lines(agents_[i]->name(),
                                     agents_[i]->poll_all(now));
    });
    std::string& stats = ex.family(kElementStat);
    for (const std::string& blk : blocks) stats += blk;

    // Client-wrapped agents scrape through query_batch — over a socket this
    // is the full wire round trip, so the scrape proves the remote path,
    // and a transport loss degrades to kMissing records (no attrs, so the
    // element simply emits no gauges this scrape).
    for (AgentClient* c : agent_clients_) {
      stats += element_stat_lines(
          c->name(), c->query_batch(c->element_ids(), now).responses);
    }
  }

  if (!agents_.empty()) {
    // --- agent self-profiling: channel latency distributions ---------------
    ex.family(kChannelLatency);
    for (Agent* a : agents_) {
      for (size_t k = 0; k < kNumChannelKinds; ++k) {
        const auto kind = static_cast<ChannelKind>(k);
        const LatencyHistogram h = a->channel_latency(kind);
        if (h.count() == 0) continue;
        ex.histogram(kChannelLatency,
                     "agent=\"" + prom_escape(a->name()) + "\",channel=\"" +
                         to_string(kind) + "\"",
                     h);
      }
    }

    // --- agent fault machinery -----------------------------------------------
    // Emitted only for agents whose fault counters have moved: with no fault
    // plan installed the exposition stays byte-identical to the pre-fault
    // format.  The live breaker position per agent x channel kind rides
    // along, so a dashboard can tell "open right now" from "opened at some
    // point".
    for (Agent* a : agents_) {
      const AgentFaultStats fs = a->fault_stats();
      if (!fs.any()) continue;
      const std::string agent = "agent=\"" + prom_escape(a->name()) + "\"";
      for (const auto& [kind, v] :
           {std::pair<const char*, uint64_t>{"faults_injected",
                                             fs.faults_injected},
            {"retries", fs.retries},
            {"exhausted", fs.exhausted},
            {"deadline_hits", fs.deadline_hits},
            {"stale_served", fs.stale_served},
            {"torn_reads", fs.torn_reads},
            {"breaker_opened", fs.breaker_opened},
            {"breaker_closed", fs.breaker_closed},
            {"breaker_fast_fails", fs.breaker_fast_fails},
            {"crashes", fs.crashes}}) {
        ex.counter(kFaultEvents, agent + ",kind=\"" + kind + "\"", v);
      }
      for (size_t k = 0; k < kNumChannelKinds; ++k) {
        const auto channel = static_cast<ChannelKind>(k);
        ex.sample(kBreakerState,
                  agent + ",channel=\"" + to_string(channel) + "\"",
                  std::to_string(static_cast<int>(a->breaker_state(channel))));
      }
    }
  }

  // --- scheduled fault campaigns ---------------------------------------------
  // Emitted only when the armed plan carries a campaign (windowed outages /
  // host outages / rolling upgrades), so plans of pure Bernoulli faults —
  // and fault-free runs — keep their exact exposition.
  if (fault_plan_ != nullptr && fault_plan_->has_campaign()) {
    ex.sample(kCampaignActive, "", fault_plan_->campaign_active(now) ? "1" : "0");
  }

  // --- registered subsystems: counters, then histograms ----------------------
  // Unlabeled families sum over every registered instance, so two
  // controllers (or caches, or detectors) on one registry share one series.
  LatencyHistogram batch_channel;
  if (!controllers_.empty()) {
    uint64_t queries = 0, scatters = 0, agent_batches = 0;
    for (const Controller* c : controllers_) {
      const Controller::CostSnapshot cost = c->cost();
      queries += cost.queries;
      scatters += cost.scatters;
      agent_batches += cost.agent_batches;
      batch_channel.merge(cost.batch_channel);
    }
    ex.counter(kControllerQueries, "path=\"batch\"", queries);
    ex.counter(kControllerScatters, "", scatters);
    ex.counter(kControllerAgentBatches, "", agent_batches);
  }
  for (const RemoteAgent* r : transports_) {
    const RemoteAgent::TransportStats ts = r->transport_stats();
    const std::string agent = "agent=\"" + prom_escape(r->name()) + "\"";
    ex.counter(kTransportConnects, agent, ts.connects);
    ex.counter(kTransportReconnects, agent, ts.reconnects);
    ex.counter(kTransportBatches, agent, ts.batches);
    ex.counter(kTransportDamaged, agent, ts.damaged);
  }
  for (const RemoteAgentServer* s : servers_) {
    ex.counter(kAcceptErrors,
               "endpoint=\"" + prom_escape(s->endpoint().to_string()) + "\"",
               s->accept_errors());
  }
  if (!caches_.empty()) {
    StreamCache::Stats sum;
    for (const StreamCache* c : caches_) {
      const StreamCache::Stats st = c->stats();
      sum.frames_applied += st.frames_applied;
      sum.gaps += st.gaps;
      sum.repairs += st.repairs;
      sum.bytes_applied += st.bytes_applied;
    }
    ex.counter(kStreamFrames, "", sum.frames_applied);
    ex.counter(kStreamGaps, "", sum.gaps);
    ex.counter(kStreamRepairs, "", sum.repairs);
    ex.counter(kStreamBytes, "", sum.bytes_applied);
  }
  if (!controllers_.empty()) ex.histogram(kBatchChannel, "", batch_channel);
  LatencyHistogram algo1, algo2;
  for (const ContentionDetector* d : contention_) {
    algo1.merge(d->diagnosis_latency());
  }
  for (const RootCauseAnalyzer* a : rootcause_) {
    algo2.merge(a->diagnosis_latency());
  }
  if (algo1.count() > 0) ex.histogram(kContentionDiagnosis, "", algo1);
  if (algo2.count() > 0) ex.histogram(kRootCauseDiagnosis, "", algo2);

  // --- flight-recorder health ------------------------------------------------
  const TraceRecorder& tr = TraceRecorder::global();
  ex.counter(kTraceEvents, "", tr.total_events());
  ex.counter(kTraceDropped, "", tr.dropped_events());

  // --- per-ring occupancy ----------------------------------------------------
  // Emitted only when rings exist, so a binary that never traced keeps the
  // exact exposition it had before rings were surfaced.
  for (const TraceRecorder::RingStats& r : tr.ring_stats()) {
    const std::string element = "element=\"" + prom_escape(r.element) + "\"";
    ex.sample(kRingEvents, element, std::to_string(r.size));
    ex.sample(kRingCapacity, element, std::to_string(r.capacity));
    ex.counter(kRingDropped, element, r.dropped_events);
  }
  return ex.render();
}

}  // namespace perfsight
