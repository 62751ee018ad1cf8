// The fleet-server differential gate: ONE poll()-driven event-loop thread
// hosting MANY agents, dialed by MANY concurrent controllers, must produce
// controller output byte-identical to the same controllers talking to the
// agents in-process.  Covers tcp + unix endpoints, traced + untraced
// requests, the pre-roster (old-format) fallback to the primary agent, the
// Deployment::add_remote_agents discovery path, and a churn variant racing
// connects/disconnects against live batches (TSan's beat).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/deployment.h"
#include "common/threadpool.h"
#include "perfsight/agent.h"
#include "perfsight/controller.h"
#include "perfsight/remote_agent.h"
#include "perfsight/trace.h"
#include "perfsight/transport.h"
#include "perfsight/wire.h"
#include "sim/simulator.h"
#include "support/oracles.h"

namespace perfsight {
namespace {

using transport::WallDuration;

std::string unique_unix_path() {
  static std::atomic<int> counter{0};
  return "/tmp/ps-fleet-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// Constant-valued element: concurrent controllers must read identical bytes
// no matter how their queries interleave on the event loop, so nothing here
// moves during a test.
class ConstSource : public StatsSource {
 public:
  ConstSource(std::string id, ChannelKind kind, std::vector<Attr> attrs)
      : id_{std::move(id)}, kind_(kind), attrs_(std::move(attrs)) {}
  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return kind_; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = attrs_;
    return r;
  }

 private:
  ElementId id_;
  ChannelKind kind_;
  std::vector<Attr> attrs_;
};

// `agents` machines behind ONE fleet server (one event-loop thread).
struct Fleet {
  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::unique_ptr<ConstSource>> sources;
  std::vector<std::vector<ElementId>> ids_of;  // per agent, creation order
  std::vector<ElementId> all_ids;
  std::unique_ptr<RemoteAgentServer> server;

  Fleet(size_t n_agents, size_t per_agent, bool unix_mode) {
    const ChannelKind kinds[] = {ChannelKind::kProcFs, ChannelKind::kMbSocket,
                                 ChannelKind::kNetDeviceFile,
                                 ChannelKind::kOvsChannel};
    std::vector<Agent*> raw;
    for (size_t a = 0; a < n_agents; ++a) {
      agents.push_back(
          std::make_unique<Agent>("fleet-" + std::to_string(a), a + 1));
      ids_of.emplace_back();
      for (size_t e = 0; e < per_agent; ++e) {
        const size_t i = a * per_agent + e;
        auto s = std::make_unique<ConstSource>(
            "f" + std::to_string(a) + "/el" + std::to_string(e), kinds[i % 4],
            std::vector<Attr>{
                {attr::kRxPkts, static_cast<double>(1000 * (i + 1))},
                {attr::kTxPkts, static_cast<double>(900 * (i + 1))},
                {attr::kDropPkts, static_cast<double>(i % 7)},
                {attr::kVm, static_cast<double>(i % 3)}});
        EXPECT_TRUE(agents.back()->add_element(s.get()).is_ok());
        ids_of.back().push_back(s->id());
        all_ids.push_back(s->id());
        sources.push_back(std::move(s));
      }
      raw.push_back(agents.back().get());
    }
    const transport::Endpoint ep =
        unix_mode ? transport::Endpoint::unix_path(unique_unix_path())
                  : transport::Endpoint::tcp("127.0.0.1", 0);
    server = std::make_unique<RemoteAgentServer>(raw, ep);
    EXPECT_TRUE(server->start().is_ok());
  }
};

std::string fmt(const Result<Controller::QualifiedRecord>& r) {
  if (!r.ok()) {
    return "ERR(" + std::to_string(static_cast<int>(r.status().code())) +
           ") " + r.status().message() + "\n";
  }
  return "OK " + to_wire(r.value().record) + " q=" +
         to_string(r.value().quality) + "\n";
}

// The workload every controller runs: a fleet-wide multi-attr sweep
// (including an id nobody serves) plus single-element reads (batches of
// one) off the first and last elements.  Folded to a string so
// byte-identity is one EXPECT_EQ.
std::string run_fleet_script(const Fleet& fleet,
                             const std::vector<AgentClient*>& clients) {
  SimTime now;
  Controller c(
      [&now](Duration d) {
        now = now + d;
        return now;
      },
      [&now] { return now; });
  const TenantId tenant{1};
  for (size_t a = 0; a < clients.size(); ++a) {
    c.register_agent(clients[a]);
    for (const ElementId& id : fleet.ids_of[a]) {
      EXPECT_TRUE(c.register_element(tenant, id, clients[a]).is_ok());
    }
  }

  std::string out;
  std::vector<ElementId> ids = fleet.all_ids;
  ids.push_back(ElementId{"ghost"});
  for (const auto& r : c.get_attr_many(
           tenant, ids, {attr::kRxPkts, attr::kDropPkts, attr::kVm})) {
    out += fmt(r);
  }
  out += fmt(c.get_attr_q(tenant, fleet.all_ids.front(), {attr::kRxPkts}));
  out += fmt(c.get_attr_q(tenant, fleet.all_ids.back(), {attr::kDropPkts}));
  return out;
}

// In-process oracle: the same reads as run_fleet_script, answered by the
// reference GetAttr loop over the raw Agents (no controller involved).
std::string oracle_of(const Fleet& fleet) {
  oracle::OwnerMap owner;
  for (size_t a = 0; a < fleet.agents.size(); ++a) {
    for (const ElementId& id : fleet.ids_of[a]) {
      owner[id] = fleet.agents[a].get();
    }
  }
  std::string out;
  std::vector<ElementId> ids = fleet.all_ids;
  ids.push_back(ElementId{"ghost"});
  for (const auto& r : oracle::reference_get_attr(
           owner, {}, ids, {attr::kRxPkts, attr::kDropPkts, attr::kVm},
           SimTime{})) {
    out += fmt(r);
  }
  out += fmt(oracle::reference_get_attr(owner, {}, {fleet.all_ids.front()},
                                        {attr::kRxPkts}, SimTime{})
                 .front());
  out += fmt(oracle::reference_get_attr(owner, {}, {fleet.all_ids.back()},
                                        {attr::kDropPkts}, SimTime{})
                 .front());
  return out;
}

// One controller's socket-backed client set: an adapter per agent, each
// bound to its roster name, all dialing the SAME endpoint.
std::vector<std::unique_ptr<RemoteAgent>> dial_fleet(const Fleet& fleet) {
  std::vector<std::unique_ptr<RemoteAgent>> remotes;
  for (const auto& a : fleet.agents) {
    remotes.push_back(
        std::make_unique<RemoteAgent>(fleet.server->endpoint(), a->name()));
    EXPECT_TRUE(remotes.back()->connect().is_ok());
  }
  return remotes;
}

// --- the differential gate ---------------------------------------------------

// 16 agents on one event-loop thread, 3 controllers querying concurrently
// (48 multiplexed connections), every controller's output byte-identical to
// the in-process oracle — twice, so reply interleaving across rounds is
// covered too.
TEST(FleetMuxTest, SixteenAgentsServeConcurrentControllersByteIdentical) {
  Fleet fleet(16, 3, /*unix_mode=*/false);
  const std::string oracle = oracle_of(fleet);

  constexpr int kControllers = 3;
  std::vector<std::string> got(kControllers * 2);
  std::vector<std::thread> controllers;
  for (int t = 0; t < kControllers; ++t) {
    controllers.emplace_back([&, t] {
      auto remotes = dial_fleet(fleet);
      std::vector<AgentClient*> clients;
      for (auto& r : remotes) clients.push_back(r.get());
      for (int round = 0; round < 2; ++round) {
        got[t * 2 + round] = run_fleet_script(fleet, clients);
      }
    });
  }
  for (auto& t : controllers) t.join();

  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], oracle) << "controller run " << i << " diverged";
  }
  EXPECT_GE(fleet.server->batches_served(), 16u * kControllers * 2);
  EXPECT_EQ(fleet.server->accept_errors(), 0u);
}

// The same contract over a unix-domain socket endpoint.
TEST(FleetMuxTest, UnixSocketFleetMatchesOracle) {
  Fleet fleet(16, 2, /*unix_mode=*/true);
  const std::string oracle = oracle_of(fleet);

  std::vector<std::string> got(2);
  std::vector<std::thread> controllers;
  for (int t = 0; t < 2; ++t) {
    controllers.emplace_back([&, t] {
      auto remotes = dial_fleet(fleet);
      std::vector<AgentClient*> clients;
      for (auto& r : remotes) clients.push_back(r.get());
      got[t] = run_fleet_script(fleet, clients);
    });
  }
  for (auto& t : controllers) t.join();
  EXPECT_EQ(got[0], oracle);
  EXPECT_EQ(got[1], oracle);
}

// Traced requests keep the records byte-identical (the trace rides separate
// piggyback messages, never inside the batch) and every routed agent's
// serve span comes home attributed to that agent's lane.
TEST(FleetMuxTest, TracedFleetBatchesStayByteIdenticalAndShipServeSpans) {
  Fleet fleet(4, 2, /*unix_mode=*/false);
  const std::string oracle = oracle_of(fleet);

  ScopedTraceRecorder scoped;
  auto remotes = dial_fleet(fleet);
  std::vector<AgentClient*> clients;
  for (auto& r : remotes) clients.push_back(r.get());
  // No pool: the scatter visits agents sequentially, so each piggyback
  // drains exactly the serve span its own batch recorded.
  EXPECT_EQ(run_fleet_script(fleet, clients), oracle);

  // A single fetch is a batch of one: under an active caller context it
  // records a one-item serve span like any batch.
  {
    ScopedTraceContext ctx(TraceContext{77, 5});
    Result<QueryResponse> r = remotes[1]->query_attrs(
        fleet.ids_of[1].front(), {attr::kRxPkts}, SimTime::millis(2));
    ASSERT_TRUE(r.ok()) << r.status().message();
  }
  ASSERT_TRUE(remotes[0]->harvest_trace().is_ok());

  const std::vector<TraceRecorder::RemoteLane> lanes =
      scoped.recorder().remote_lanes();
  size_t batch_spans = 0;
  size_t one_item_spans = 0;
  for (const TraceRecorder::RemoteLane& lane : lanes) {
    // Lane attribution is always a hosted agent: the routed agent's name on
    // piggybacks, the primary's on harvests.
    EXPECT_EQ(lane.process.rfind("fleet-", 0), 0u) << lane.process;
    for (const TraceEvent& e : lane.events) {
      if (e.kind != TraceEventKind::kSpanServerBatch) continue;
      ++batch_spans;
      if (e.value == 1.0) ++one_item_spans;
    }
  }
  // One per routed sweep batch, plus three batches of one: the script's
  // two get_attr_q reads (traced scatters of one) and the query_attrs.
  EXPECT_EQ(batch_spans, fleet.agents.size() + 3);
  EXPECT_EQ(one_item_spans, 3u);
}

// --- protocol compatibility --------------------------------------------------

// A bare (pre-roster) adapter dialing a fleet server binds the primary and
// still sees the full roster; binding a name the server does not host is a
// config error naming the roster, not a retryable transient.
TEST(FleetMuxTest, BareAdapterGetsPrimaryAndBadBindingNamesTheRoster) {
  Fleet fleet(3, 1, /*unix_mode=*/false);

  RemoteAgent bare(fleet.server->endpoint());
  ASSERT_TRUE(bare.connect().is_ok());
  EXPECT_EQ(bare.name(), "fleet-0");  // the primary
  EXPECT_EQ(bare.element_ids(), fleet.ids_of[0]);
  const std::vector<std::string> roster = bare.roster_names();
  ASSERT_EQ(roster.size(), 3u);
  EXPECT_EQ(roster[0], "fleet-0");
  EXPECT_EQ(roster[2], "fleet-2");
  // Old-format requests (no agent on the envelope) route to the primary.
  BatchResponse b = bare.query_batch(fleet.ids_of[0], SimTime::millis(1));
  ASSERT_EQ(b.responses.size(), fleet.ids_of[0].size());
  EXPECT_EQ(b.responses[0].quality, DataQuality::kFresh);

  RemoteAgent wrong(fleet.server->endpoint(), "nobody");
  Status st = wrong.connect();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("does not host agent 'nobody'"),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("fleet-1"), std::string::npos) << st.message();

  // A single-agent server keeps the pre-roster hello: the roster a bare
  // adapter reports is just that agent.
  Agent solo("solo", 1);
  ConstSource s0("solo/el0", ChannelKind::kProcFs, {{attr::kRxPkts, 1.0}});
  ASSERT_TRUE(solo.add_element(&s0).is_ok());
  RemoteAgentServer server(&solo, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());
  RemoteAgent single(server.endpoint());
  ASSERT_TRUE(single.connect().is_ok());
  EXPECT_EQ(single.roster_names(), std::vector<std::string>{"solo"});
}

// Deployment::add_remote_agents: one endpoint spec discovers the roster and
// registers a bound adapter per hosted agent with the control plane.
TEST(FleetMuxTest, DeploymentBindsWholeRosterFromOneEndpoint) {
  Fleet fleet(16, 1, /*unix_mode=*/false);

  sim::Simulator sim;
  cluster::Deployment dep(&sim);
  Result<std::vector<RemoteAgent*>> bound =
      dep.add_remote_agents(fleet.server->endpoint().to_string());
  ASSERT_TRUE(bound.ok()) << bound.status().message();
  ASSERT_EQ(bound.value().size(), 16u);
  const TenantId tenant{1};
  for (size_t a = 0; a < bound.value().size(); ++a) {
    EXPECT_EQ(bound.value()[a]->name(), "fleet-" + std::to_string(a));
    for (const ElementId& id : fleet.ids_of[a]) {
      ASSERT_TRUE(dep.assign_remote(tenant, id, bound.value()[a]).is_ok());
    }
  }

  std::string out;
  for (const auto& r : dep.controller()->get_attr_many(
           tenant, fleet.all_ids, {attr::kRxPkts, attr::kDropPkts})) {
    out += fmt(r);
  }
  oracle::OwnerMap owner;
  for (size_t a = 0; a < fleet.agents.size(); ++a) {
    for (const ElementId& id : fleet.ids_of[a]) {
      owner[id] = fleet.agents[a].get();
    }
  }
  std::string oracle;
  for (const auto& r : oracle::reference_get_attr(
           owner, {}, fleet.all_ids, {attr::kRxPkts, attr::kDropPkts},
           sim.now())) {
    oracle += fmt(r);
  }
  EXPECT_EQ(out, oracle);
  // A typo'd binding through the Deployment front door fails loudly.
  EXPECT_EQ(dep.add_remote_agent(fleet.server->endpoint().to_string(), "nope")
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// --- churn (TSan's beat) -----------------------------------------------------

// Connections appearing and dying mid-stream while bound adapters keep
// querying: the event loop's accept path, reaping path and dispatch path
// all race, and nothing may tear a live controller's bytes.
TEST(FleetChurnTest, ConnectionChurnRacesFleetBatches) {
  Fleet fleet(4, 2, /*unix_mode=*/false);
  auto remotes = dial_fleet(fleet);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Steady controllers: every batch must come back whole.
  for (size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t a = t; a < remotes.size(); a += 2) {
          BatchResponse b =
              remotes[a]->query_batch(fleet.ids_of[a], SimTime::millis(1));
          EXPECT_EQ(b.responses.size(), fleet.ids_of[a].size());
        }
      }
    });
  }
  // Churner: dial, one query, hang up — forever.
  threads.emplace_back([&] {
    size_t a = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      RemoteAgent ephemeral(fleet.server->endpoint(),
                            fleet.agents[a % fleet.agents.size()]->name());
      if (ephemeral.connect().is_ok()) {
        (void)ephemeral.query_batch(fleet.ids_of[a % fleet.ids_of.size()],
                                    SimTime::millis(1));
      }
      ++a;
    }
  });
  // Server-side load: the agents' own poll path racing remote dispatch.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& a : fleet.agents) (void)a->poll_all(SimTime());
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : threads) t.join();

  for (auto& r : remotes) {
    RemoteAgent::TransportStats stats = r->transport_stats();
    EXPECT_EQ(stats.damaged, 0u);
  }
  EXPECT_EQ(fleet.server->accept_errors(), 0u);
}

}  // namespace
}  // namespace perfsight
