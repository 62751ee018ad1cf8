// Metrics exposition tests: histogram mechanics, Prometheus text rendering,
// agent scraping, the subsystems' self-profiling series, and scrapes racing
// live collection.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/deployment.h"
#include "common/threadpool.h"
#include "perfsight/agent.h"
#include "perfsight/contention.h"
#include "perfsight/faults.h"
#include "perfsight/controller.h"
#include "perfsight/hotpath.h"
#include "perfsight/metrics.h"
#include "perfsight/monitor.h"
#include "perfsight/remote_agent.h"
#include "perfsight/rootcause.h"
#include "perfsight/streaming.h"
#include "perfsight/trace.h"
#include "sim/simulator.h"
#include "support/prom_check.h"
#include "vm/machine.h"

namespace perfsight {
namespace {

TEST(LatencyHistogramTest, BucketsCountAndSum) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.approx_quantile(0.5), 0);

  h.observe(0.5e-6);  // <= 1us -> bucket 0
  h.observe(2e-3);    // <= 4ms -> bucket 6
  h.observe(100.0);   // beyond the last bound -> +Inf bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum(), 100.0 + 2e-3 + 0.5e-6, 1e-9);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(6), 1u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
}

TEST(LatencyHistogramTest, QuantileFollowsBucketBounds) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.observe(2e-6);   // bucket le=4e-6
  for (int i = 0; i < 10; ++i) h.observe(0.1);    // bucket le=256e-3
  EXPECT_DOUBLE_EQ(h.approx_quantile(0.5), 4e-6);
  EXPECT_DOUBLE_EQ(h.approx_quantile(0.99), 256e-3);
}

TEST(MetricsRegistryTest, ExposesPerRingOccupancyWhenRingsExist) {
  // No rings: the per-ring families stay out of the exposition entirely
  // (keeps the no-trace scrape shape stable), while flight-recorder health
  // is always present.
  {
    MetricsRegistry reg;
    std::string text = reg.expose(SimTime::millis(0));
    EXPECT_TRUE(prom_check::well_formed(text));
    EXPECT_EQ(text.find("perfsight_trace_ring_events"), std::string::npos);
    EXPECT_NE(text.find("# TYPE perfsight_trace_events_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("perfsight_trace_dropped_events_total"),
              std::string::npos);
  }

  ScopedTraceRecorder tracing(/*ring_capacity=*/4);
  for (int i = 0; i < 6; ++i) {  // 2 overwrites on "hot", none on "cold"
    TraceRecorder::global().record(ElementId{"hot"}, SimTime::millis(i),
                                   TraceEventKind::kDrop, i);
  }
  TraceRecorder::global().record(ElementId{"cold"}, SimTime::millis(0),
                                 TraceEventKind::kDrop, 0);

  MetricsRegistry reg;
  std::string text = reg.expose(SimTime::millis(10));
  EXPECT_TRUE(prom_check::well_formed(text));
  EXPECT_NE(text.find("perfsight_trace_ring_events{element=\"hot\"} 4"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("perfsight_trace_ring_capacity{element=\"hot\"} 4"),
            std::string::npos);
  EXPECT_NE(
      text.find("perfsight_trace_ring_dropped_events_total{element=\"hot\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("perfsight_trace_ring_dropped_events_total{element=\"cold\"} 0"),
      std::string::npos);
  // The aggregate counters agree with the per-ring breakdown.
  EXPECT_NE(text.find("perfsight_trace_events_total 7"), std::string::npos);
  EXPECT_NE(text.find("perfsight_trace_dropped_events_total 2"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ScrapesAgentsAndChannelHistograms) {
  Agent agent("agent-m0");
  ElementStats stats;
  stats.pkts_in.add(42);
  HotpathStatsSource src(ElementId{"mb0"}, &stats);
  ASSERT_TRUE(agent.add_element(&src).is_ok());

  MetricsRegistry reg;
  reg.add_agent(&agent);
  ASSERT_EQ(reg.num_agents(), 1u);

  std::string text = reg.expose(SimTime::seconds(1));
  EXPECT_TRUE(prom_check::well_formed(text));
  // Element gauges travelled the agent's channel...
  EXPECT_NE(text.find("perfsight_element_stat{agent=\"agent-m0\","
                      "element=\"mb0\",attr=\"rxPkts\"} 42"),
            std::string::npos)
      << text;
  // ...so the scrape itself fed the per-channel latency histogram.
  EXPECT_NE(text.find("perfsight_agent_channel_latency_seconds_bucket{"
                      "agent=\"agent-m0\",channel="),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("perfsight_agent_channel_latency_seconds_count"),
            std::string::npos);
  EXPECT_GE(agent.channel_latency(ChannelKind::kMbSocket).count(), 1u);
}

TEST(MetricsRegistryTest, DiagnosisLatencyHistogramObservesRuns) {
  sim::Simulator sim(Duration::millis(1));
  vm::PhysicalMachine machine("m0", dp::StackParams{}, &sim);
  cluster::Deployment dep(&sim);
  for (int i = 0; i < 2; ++i) {
    int v = machine.add_vm({"vm" + std::to_string(i), 1.0});
    machine.set_sink_app(v);
    FlowSpec f;
    f.id = FlowId{static_cast<uint32_t>(i + 1)};
    f.packet_size = 1500;
    machine.route_flow_to_vm(f, v);
    machine.add_ingress_source("s" + std::to_string(i), f,
                               DataRate::gbps(1.6));
  }
  machine.add_mem_hog("hog")->set_demand_bytes_per_sec(60e9);
  Agent* agent = dep.add_agent("agent-m0");
  dep.attach(&machine, agent);
  const TenantId tenant{1};
  ASSERT_TRUE(dep.assign(tenant, machine.tun(0)->id(), agent).is_ok());
  sim.run_for(Duration::seconds(1));

  ContentionDetector detector(dep.controller(), RuleBook::standard());
  detector.set_loss_threshold(100);
  dep.metrics()->add_detector(&detector);
  // Registered but never run: the family stays out of the exposition.
  const std::string before = dep.metrics()->expose(sim.now());
  EXPECT_TRUE(prom_check::well_formed(before));
  EXPECT_EQ(before.find("perfsight_contention_diagnosis_seconds"),
            std::string::npos);
  const Duration window = Duration::seconds(1);
  (void)detector.diagnose(tenant, window, machine.aux_signals());

  const LatencyHistogram h = detector.diagnosis_latency();
  EXPECT_EQ(h.count(), 1u);
  // Cost = sweep window + modelled channel time, so it exceeds the window.
  EXPECT_GT(h.sum(), window.sec());

  std::string text = dep.metrics()->expose(sim.now());
  EXPECT_TRUE(prom_check::well_formed(text));
  EXPECT_NE(text.find("perfsight_contention_diagnosis_seconds_count 1"),
            std::string::npos)
      << text;

  // A second Algorithm 1 detector adds to the same series.
  ContentionDetector second(dep.controller(), RuleBook::standard());
  second.set_loss_threshold(100);
  dep.metrics()->add_detector(&second);
  (void)second.diagnose(tenant, window, machine.aux_signals());
  text = dep.metrics()->expose(sim.now());
  EXPECT_TRUE(prom_check::well_formed(text));
  EXPECT_NE(text.find("perfsight_contention_diagnosis_seconds_count 2"),
            std::string::npos)
      << text;

  // Algorithm 2 gets its own series, read from the analyzer.
  RootCauseAnalyzer analyzer(dep.controller());
  dep.metrics()->add_detector(&analyzer);
  (void)analyzer.analyze(tenant, window);
  EXPECT_EQ(analyzer.diagnosis_latency().count(), 1u);
  text = dep.metrics()->expose(sim.now());
  EXPECT_TRUE(prom_check::well_formed(text));
  EXPECT_NE(text.find("perfsight_rootcause_diagnosis_seconds_count 1"),
            std::string::npos)
      << text;
}

// With a campaign covering the scrape, both agents' fault counters move:
// each fault family renders once with both agents' samples, and the exposed
// counts are the agents' fault_stats().
TEST(MetricsRegistryTest, FaultFamiliesCoverEveryFaultedAgent) {
  ElementStats stats;
  stats.pkts_in.add(5);
  FaultPlan plan(4);
  MetricsRegistry reg;
  reg.set_fault_plan(&plan);
  std::vector<std::unique_ptr<HotpathStatsSource>> sources;
  std::vector<std::unique_ptr<Agent>> agents;
  for (int a = 0; a < 2; ++a) {
    const std::string name = "agent-f" + std::to_string(a);
    agents.push_back(std::make_unique<Agent>(name, a + 1));
    sources.push_back(std::make_unique<HotpathStatsSource>(
        ElementId{"f" + std::to_string(a) + "/el0"}, &stats));
    ASSERT_TRUE(agents.back()->add_element(sources.back().get()).is_ok());
    agents.back()->set_fault_plan(&plan);
    plan.schedule_outage(name, SimTime::seconds(1), SimTime::seconds(2));
    reg.add_agent(agents.back().get());
  }

  const std::string text = reg.expose(SimTime::millis(1500));
  EXPECT_TRUE(prom_check::well_formed(text)) << text;
  EXPECT_NE(text.find("perfsight_fault_campaign_active 1\n"),
            std::string::npos);
  for (const auto& a : agents) {
    const AgentFaultStats fs = a->fault_stats();
    EXPECT_GE(fs.exhausted, 1u);
    EXPECT_NE(text.find("perfsight_agent_fault_events_total{agent=\"" +
                        a->name() + "\",kind=\"exhausted\"} " +
                        std::to_string(fs.exhausted) + "\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("perfsight_agent_breaker_state{agent=\"" + a->name() +
                        "\",channel=\"" + to_string(ChannelKind::kMbSocket) +
                        "\"}"),
              std::string::npos);
  }
}

// The four perfsight_stream_* counters read StreamCache::stats() at scrape
// time: an in-order frame, a gap, its repair and the re-applied frame.
TEST(MetricsRegistryTest, StreamCacheCountersEqualItsStats) {
  Agent agent("agent-s");
  ElementStats stats;
  stats.pkts_in.add(7);
  HotpathStatsSource src(ElementId{"s0"}, &stats);
  ASSERT_TRUE(agent.add_element(&src).is_ok());
  StreamPublisher pub(&agent);
  StreamCache cache;
  MetricsRegistry reg;
  reg.add_stream_cache(&cache);

  std::vector<std::string> bodies;
  for (int w = 1; w <= 3; ++w) {
    Result<StreamPublisher::Published> p = pub.publish(SimTime::seconds(w));
    ASSERT_TRUE(p.ok()) << p.status().message();
    bodies.push_back(p.value().body);
  }
  ASSERT_TRUE(cache.apply(bodies[0]).value().applied);
  ASSERT_FALSE(cache.apply(bodies[2]).value().applied);  // window 2 missed
  cache.repair("agent-s", SimTime::seconds(2),
               agent.query_batch(pub.elements(), SimTime::seconds(2)));
  ASSERT_TRUE(cache.apply(bodies[2]).value().applied);

  const StreamCache::Stats st = cache.stats();
  EXPECT_EQ(st.frames_applied, 2u);
  EXPECT_EQ(st.gaps, 1u);
  EXPECT_EQ(st.repairs, 1u);
  const std::string text = reg.expose(SimTime::seconds(3));
  EXPECT_TRUE(prom_check::well_formed(text));
  auto has = [&](const std::string& line) {
    return text.find(line + "\n") != std::string::npos;
  };
  EXPECT_TRUE(has("perfsight_stream_frames_applied_total " +
                  std::to_string(st.frames_applied)))
      << text;
  EXPECT_TRUE(has("perfsight_stream_gaps_total " + std::to_string(st.gaps)));
  EXPECT_TRUE(
      has("perfsight_stream_repairs_total " + std::to_string(st.repairs)));
  EXPECT_TRUE(has("perfsight_stream_bytes_applied_total " +
                  std::to_string(st.bytes_applied)));
  EXPECT_TRUE(has("# TYPE perfsight_stream_gaps_total counter"));
}

// Scrapes race a controller scatter over in-process agents and socket-backed
// agents: every value expose() reads must come through a locked accessor.
// Run under TSan in CI.
TEST(MetricsChurnTest, ExposeRacesControllerScatter) {
  const SimTime now = SimTime::seconds(1);
  ElementStats stats;
  stats.pkts_in.add(3);
  std::vector<std::unique_ptr<HotpathStatsSource>> sources;
  std::vector<std::unique_ptr<Agent>> agents;
  for (int a = 0; a < 3; ++a) {
    agents.push_back(std::make_unique<Agent>("agent-" + std::to_string(a)));
    for (int e = 0; e < 3; ++e) {
      sources.push_back(std::make_unique<HotpathStatsSource>(
          ElementId{"a" + std::to_string(a) + "/el" + std::to_string(e)},
          &stats));
      ASSERT_TRUE(agents.back()->add_element(sources.back().get()).is_ok());
    }
  }
  // agent-2 lives behind a server; the controller reaches it over tcp.
  RemoteAgentServer server(agents[2].get(),
                           transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());
  RemoteAgent remote(server.endpoint());
  ASSERT_TRUE(remote.connect().is_ok());

  Controller controller([now](Duration) { return now; }, [now] { return now; });
  ThreadPool pool(2);
  controller.set_pool(&pool);
  const TenantId tenant{1};
  std::vector<ElementId> ids;
  AgentClient* clients[] = {agents[0].get(), agents[1].get(), &remote};
  for (AgentClient* c : clients) {
    controller.register_agent(c);
    for (const ElementId& id : c->element_ids()) {
      ASSERT_TRUE(controller.register_element(tenant, id, c).is_ok());
      ids.push_back(id);
    }
  }

  MetricsRegistry reg;
  reg.add_agent(agents[0].get());
  reg.add_agent(agents[1].get());
  reg.add_agent_client(&remote);
  reg.add_controller(&controller);
  reg.add_transport(&remote);
  reg.add_server(&server);

  std::atomic<bool> stop{false};
  std::thread scatter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto got = controller.get_attr_many(tenant, ids, {attr::kRxPkts});
      EXPECT_EQ(got.size(), ids.size());
    }
  });
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(prom_check::well_formed(reg.expose(now)));
  }
  stop.store(true);
  scatter.join();

  // Quiescent: the exposed counts are the accessors' counts.
  const std::string text = reg.expose(now);
  const Controller::CostSnapshot cost = controller.cost();
  EXPECT_NE(text.find("perfsight_controller_queries_total{path=\"batch\"} " +
                      std::to_string(cost.queries) + "\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("perfsight_transport_batches_total{agent=\"agent-2\"} " +
                      std::to_string(remote.transport_stats().batches) + "\n"),
            std::string::npos);
  server.stop();
}

TEST(PromEscapeTest, EscapesLabelValues) {
  EXPECT_EQ(prom_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

}  // namespace
}  // namespace perfsight
