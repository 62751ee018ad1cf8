// Controller scatter-gather: every multi-element query path must produce
// byte-identical output to the sequential oracle (a reference GetAttr loop
// over agents fetched one element per round trip) whether per-agent batches
// merge inline or fan out over a thread pool of any size — with or without
// a wire-codec loopback, and under a seeded fault plan.  Plus the
// cost-bookkeeping fix (mutex instead of torn atomics) and a TSan churn
// target for the shared pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "perfsight/agent.h"
#include "perfsight/alert.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/metrics.h"
#include "perfsight/faults.h"
#include "perfsight/monitor.h"
#include "perfsight/rootcause.h"
#include "perfsight/trace.h"
#include "support/oracles.h"
#include "support/prom_check.h"

namespace perfsight {
namespace {

// A scriptable element whose counters the rig moves as time advances.
class ScriptedSource : public StatsSource {
 public:
  ScriptedSource(std::string id, ChannelKind kind)
      : id_{std::move(id)}, kind_(kind) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return kind_; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = attrs;
    return r;
  }

  std::vector<Attr> attrs;

 private:
  ElementId id_;
  ChannelKind kind_;
};

// How the rig's controller reaches its agents: directly, or through one of
// the test oracles' decorators.
enum class Clients { kDirect, kSequential, kWireLoopback };

// A multi-agent cluster driven by a manual clock: `agents` machines, each
// hosting `per_agent` packet-path elements (Algorithm 1 food) plus one
// middlebox, the middleboxes chained across machines (Algorithm 2 food).
class ScatterRig {
 public:
  ScatterRig(size_t agents, size_t per_agent,
             Clients clients = Clients::kDirect)
      : controller_([this](Duration d) { return advance(d); },
                    [this] { return now_; }) {
    const ChannelKind kinds[] = {ChannelKind::kProcFs, ChannelKind::kMbSocket,
                                 ChannelKind::kNetDeviceFile,
                                 ChannelKind::kOvsChannel};
    for (size_t a = 0; a < agents; ++a) {
      agents_.push_back(
          std::make_unique<Agent>("agent-" + std::to_string(a), a + 1));
      AgentClient* agent = agents_.back().get();
      if (clients == Clients::kSequential) {
        wrappers_.push_back(
            std::make_unique<oracle::SequentialAgent>(agent));
        agent = wrappers_.back().get();
      } else if (clients == Clients::kWireLoopback) {
        wrappers_.push_back(
            std::make_unique<oracle::WireLoopbackAgent>(agent));
        agent = wrappers_.back().get();
      }
      controller_.register_agent(agent);
      for (size_t e = 0; e < per_agent; ++e) {
        const size_t i = a * per_agent + e;
        auto s = std::make_unique<ScriptedSource>(
            "a" + std::to_string(a) + "/el" + std::to_string(e),
            kinds[i % 4]);
        s->attrs = {{attr::kRxPkts, static_cast<double>(1000 * i)},
                    {attr::kTxPkts, static_cast<double>(900 * i)},
                    {attr::kDropPkts, static_cast<double>(10 * i)},
                    {attr::kTxBytes, static_cast<double>(150000 * (i + 1))},
                    {attr::kType,
                     static_cast<double>(static_cast<int>(ElementKind::kTun))},
                    {attr::kVm, static_cast<double>(i % 3)}};
        EXPECT_TRUE(agents_.back()->add_element(s.get()).is_ok());
        EXPECT_TRUE(
            controller_.register_element(tenant_, s->id(), agent).is_ok());
        controller_.register_stack_element(agent, s->id());
        owner_[s->id()] = agent;
        elements_.push_back(s->id());
        sources_.push_back(std::move(s));
      }
      auto mb = std::make_unique<ScriptedSource>("mb" + std::to_string(a),
                                                 ChannelKind::kMbSocket);
      mb->attrs = {{attr::kInBytes, 0},
                   {attr::kInTimeNs, 0},
                   {attr::kOutBytes, 0},
                   {attr::kOutTimeNs, 0},
                   {attr::kCapacityMbps, 1000}};
      EXPECT_TRUE(agents_.back()->add_element(mb.get()).is_ok());
      EXPECT_TRUE(
          controller_.register_element(tenant_, mb->id(), agent).is_ok());
      owner_[mb->id()] = agent;
      controller_.register_middlebox(tenant_, mb->id());
      if (a > 0) {
        controller_.add_chain_edge(tenant_, mbs_.back()->id(), mb->id());
      }
      mbs_.push_back(mb.get());
      sources_.push_back(std::move(mb));
    }
  }

  SimTime advance(Duration d) {
    now_ = now_ + d;
    const double dt_sec = d.sec();
    size_t i = 0;
    for (auto& s : sources_) {
      for (Attr& a : s->attrs) {
        if (a.name == attr::kRxPkts) a.value += (1000 + i) * dt_sec;
        if (a.name == attr::kTxPkts) a.value += (900 + i) * dt_sec;
        if (a.name == attr::kDropPkts) a.value += (3 + i % 5) * dt_sec;
        if (a.name == attr::kTxBytes) a.value += 150000 * dt_sec;
      }
      ++i;
    }
    // Middlebox chain: mb0 moves at full capacity, later boxes slower and
    // slower — a classic overloaded-box signature for Algorithm 2.
    for (size_t m = 0; m < mbs_.size(); ++m) {
      const double mbps = 1000.0 / (m + 1);
      for (Attr& a : mbs_[m]->attrs) {
        if (a.name == attr::kInBytes || a.name == attr::kOutBytes) {
          a.value += mbps * 1e6 / 8 * dt_sec;
        }
        if (a.name == attr::kInTimeNs || a.name == attr::kOutTimeNs) {
          a.value += static_cast<double>(d.ns());
        }
      }
    }
    return now_;
  }

  void install_faults(const FaultPlan* plan, const RetryPolicy& retry) {
    for (auto& a : agents_) {
      a->set_fault_plan(plan);
      a->set_retry_policy(retry);
    }
  }

  SimTime now_;
  Controller controller_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<std::unique_ptr<AgentClient>> wrappers_;
  oracle::OwnerMap owner_;  // element -> the client the controller uses
  std::vector<std::unique_ptr<ScriptedSource>> sources_;
  std::vector<ScriptedSource*> mbs_;
  std::vector<ElementId> elements_;  // packet-path elements, creation order
  const TenantId tenant_{1};
};

std::string fmt(const Result<Controller::QualifiedRecord>& r) {
  if (!r.ok()) {
    return "ERR(" + std::to_string(static_cast<int>(r.status().code())) +
           ") " + r.status().message() + "\n";
  }
  return "OK " + to_wire(r.value().record) + " q=" +
         to_string(r.value().quality) + "\n";
}

template <typename T>
std::string fmt_val(const Result<T>& r, DataQuality q) {
  if (!r.ok()) {
    return "ERR(" + std::to_string(static_cast<int>(r.status().code())) +
           ") " + r.status().message() + "\n";
  }
  std::string v;
  if constexpr (std::is_same_v<T, DataRate>) {
    v = std::to_string(r.value().bits_per_sec());
  } else {
    v = std::to_string(r.value());
  }
  return "OK " + v + " q=" + to_string(q) + "\n";
}

// Runs the full diagnosis workload once and folds every output into one
// string.  The oracle run (`reference` set, over a kSequential rig) answers
// the GetAttr lines with the reference loop; the pooled / wire-looped runs
// must reproduce it byte-for-byte through the controller.
std::string run_script(ScatterRig& rig, ThreadPool* pool, bool reference) {
  Controller& c = rig.controller_;
  c.set_pool(pool);
  auto get_attr = [&](const std::vector<ElementId>& ids,
                      const std::vector<std::string>& attrs) {
    return reference ? oracle::reference_get_attr(rig.owner_, {}, ids, attrs,
                                                  rig.now_)
                     : c.get_attr_many(rig.tenant_, ids, attrs);
  };

  std::string out;

  // GetAttr fan-in over every tenant element, plus an id no agent serves.
  std::vector<ElementId> ids = c.elements_of(rig.tenant_);
  ids.push_back(ElementId{"ghost"});
  for (const auto& r :
       get_attr(ids, {attr::kRxPkts, attr::kTxPkts, attr::kDropPkts,
                      attr::kType, attr::kVm})) {
    out += fmt(r);
  }

  // Single-element GetAttr (also exercises the shared cost accounting).
  if (reference) {
    out += fmt(get_attr({rig.elements_.front()},
                        {attr::kRxPkts, attr::kTxPkts}).front());
  } else {
    out += fmt(c.get_attr_q(rig.tenant_, rig.elements_.front(),
                            {attr::kRxPkts, attr::kTxPkts}));
  }

  // Interval fan-ins: one shared window advance per utility.
  const std::vector<ElementId>& els = rig.elements_;
  std::vector<DataQuality> q;
  std::vector<Result<DataRate>> thr =
      c.get_throughput_many(rig.tenant_, els, Duration::millis(100), &q);
  for (size_t i = 0; i < thr.size(); ++i) out += fmt_val(thr[i], q[i]);
  std::vector<Result<int64_t>> loss =
      c.get_pkt_loss_many(rig.tenant_, els, Duration::millis(100), &q);
  for (size_t i = 0; i < loss.size(); ++i) out += fmt_val(loss[i], q[i]);
  std::vector<Result<double>> aps =
      c.get_avg_pkt_size_many(rig.tenant_, els, Duration::millis(100), &q);
  for (size_t i = 0; i < aps.size(); ++i) out += fmt_val(aps[i], q[i]);

  // Algorithm 1 over the stack scan set.
  ContentionDetector det(&c, RuleBook::standard());
  det.set_pool(pool);
  out += to_text(det.diagnose(rig.tenant_, Duration::millis(100)));

  // Algorithm 2 over the middlebox chain.
  RootCauseAnalyzer rca(&c);
  out += to_text(rca.analyze(rig.tenant_, Duration::millis(100)));

  // Alert-driven diagnosis: sample the monitor, then evaluate rules (the
  // breach scan rides the pool; firings run Algorithm 1/2 via the batch
  // path).
  Monitor mon(&c, rig.tenant_);
  mon.watch(rig.elements_.front(), attr::kDropPkts);
  mon.watch(rig.mbs_.front()->id(), attr::kInBytes);
  AlertWatcher watcher(&mon, &det, &rca);
  watcher.set_pool(pool);
  watcher.add_rule({"drops-any", rig.elements_.front(), attr::kDropPkts,
                    /*on_rate=*/false, /*threshold=*/1.0,
                    AlertRule::Action::kContention, Duration::millis(50),
                    Duration::seconds(1)});
  watcher.add_rule({"mb-busy", rig.mbs_.front()->id(), attr::kInBytes,
                    /*on_rate=*/false, /*threshold=*/1.0,
                    AlertRule::Action::kRootCause, Duration::millis(50),
                    Duration::seconds(1)});
  mon.sample();
  for (const Alert& a : watcher.check()) out += to_text(a);

  return out;
}

TEST(ScatterDifferentialTest, PooledPathsMatchSequentialOracle) {
  ScatterRig oracle_rig(4, 4, Clients::kSequential);
  const std::string oracle =
      run_script(oracle_rig, nullptr, /*reference=*/true);
  ASSERT_NE(oracle.find("=== Algorithm 1"), std::string::npos);
  ASSERT_NE(oracle.find("=== Algorithm 2"), std::string::npos);
  ASSERT_NE(oracle.find("ALERT ["), std::string::npos);
  ASSERT_NE(oracle.find("ERR(1) no agent serves element ghost"),
            std::string::npos);

  // Batched but inline (no pool).
  {
    ScatterRig rig(4, 4);
    EXPECT_EQ(run_script(rig, nullptr, false), oracle);
  }
  // Batched over pools of 1, 2 and 8 workers.
  for (size_t workers : {1u, 2u, 8u}) {
    ScatterRig rig(4, 4);
    ThreadPool pool(workers);
    EXPECT_EQ(run_script(rig, &pool, false), oracle)
        << "divergence at pool size " << workers;
  }
}

TEST(ScatterDifferentialTest, WireLoopbackIsTransparent) {
  ScatterRig plain_rig(3, 3);
  ThreadPool plain_pool(4);
  const std::string plain = run_script(plain_rig, &plain_pool, false);

  ScatterRig looped_rig(3, 3, Clients::kWireLoopback);
  ThreadPool looped_pool(4);
  EXPECT_EQ(run_script(looped_rig, &looped_pool, false), plain);
}

TEST(ScatterDifferentialTest, FaultPlanPreservesDifferential) {
  // Unbounded element budget: with a budget, backoff jitter (an RNG draw
  // whose order differs between the paths) could flip an element's success
  // into a deadline failure.  Everything else about an outcome is a pure
  // function of (seed, element, kind, time, attempt).
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.attempt_timeout = Duration::millis(1);

  auto make_plan = [] {
    FaultPlan plan(99);
    ChannelFaultSpec spec;
    spec.transient_p = 0.10;
    spec.timeout_p = 0.05;
    spec.stale_p = 0.10;
    spec.torn_p = 0.10;
    for (size_t k = 0; k < kNumChannelKinds; ++k) {
      plan.set_channel_faults(static_cast<ChannelKind>(k), spec);
    }
    plan.set_timeout_spike(Duration::millis(5));
    plan.schedule_crash("agent-1", SimTime::millis(150));
    return plan;
  };

  ScatterRig oracle_rig(4, 4, Clients::kSequential);
  FaultPlan oracle_plan = make_plan();
  oracle_rig.install_faults(&oracle_plan, retry);
  const std::string oracle = run_script(oracle_rig, nullptr, true);
  // The plan must actually bite for the differential to mean anything.
  ASSERT_TRUE(oracle.find("q=stale") != std::string::npos ||
              oracle.find("q=torn") != std::string::npos ||
              oracle.find("ERR(3)") != std::string::npos ||
              oracle.find("ERR(5)") != std::string::npos)
      << "fault plan produced no degradation; differential is vacuous";

  for (size_t workers : {1u, 2u, 8u}) {
    ScatterRig rig(4, 4);
    FaultPlan plan = make_plan();
    rig.install_faults(&plan, retry);
    ThreadPool pool(workers);
    EXPECT_EQ(run_script(rig, &pool, false), oracle)
        << "fault differential divergence at pool size " << workers;
  }
  // And with the wire loopback on top.
  {
    ScatterRig rig(4, 4, Clients::kWireLoopback);
    FaultPlan plan = make_plan();
    rig.install_faults(&plan, retry);
    ThreadPool pool(4);
    EXPECT_EQ(run_script(rig, &pool, false), oracle);
  }
}

TEST(ScatterObservabilityTest, ScatterEmitsTraceEventsAndMetrics) {
  ScopedTraceRecorder scoped;
  ScatterRig rig(2, 3);
  MetricsRegistry reg;
  reg.add_controller(&rig.controller_);
  ThreadPool pool(2);
  rig.controller_.set_pool(&pool);

  std::vector<ElementId> ids = rig.controller_.elements_of(rig.tenant_);
  auto got = rig.controller_.get_attr_many(rig.tenant_, ids,
                                           {attr::kRxPkts});
  ASSERT_EQ(got.size(), ids.size());

  size_t scatters = 0, gathers = 0;
  for (const TraceEvent& e :
       scoped.recorder().events_for(ElementId{"controller"})) {
    if (e.kind == TraceEventKind::kControllerScatter) {
      ++scatters;
      EXPECT_EQ(e.value, static_cast<double>(ids.size()));
    }
    if (e.kind == TraceEventKind::kControllerGather) {
      ++gathers;
      EXPECT_EQ(e.value, static_cast<double>(ids.size()));
    }
  }
  EXPECT_EQ(scatters, 1u);
  EXPECT_EQ(gathers, 1u);
  EXPECT_STREQ(to_string(TraceEventKind::kControllerScatter),
               "controller_scatter");
  EXPECT_STREQ(to_string(TraceEventKind::kControllerGather),
               "controller_gather");

  std::string exposed = reg.expose(rig.now_);
  EXPECT_TRUE(prom_check::well_formed(exposed));
  const Controller::CostSnapshot cost = rig.controller_.cost();
  EXPECT_EQ(cost.queries, rig.controller_.queries_issued());
  EXPECT_EQ(cost.scatters, 1u);
  EXPECT_EQ(cost.batch_channel.count(), 1u);
  EXPECT_NE(exposed.find("perfsight_controller_queries_total{path=\"batch\"} " +
                         std::to_string(rig.controller_.queries_issued()) +
                         "\n"),
            std::string::npos)
      << exposed;
  EXPECT_NE(exposed.find("perfsight_controller_batch_scatters_total 1\n"),
            std::string::npos);
  EXPECT_NE(exposed.find("perfsight_controller_batch_agents_total " +
                         std::to_string(cost.agent_batches) + "\n"),
            std::string::npos);
  EXPECT_NE(exposed.find("perfsight_controller_batch_channel_seconds_count 1\n"),
            std::string::npos);
}

TEST(ScatterCostTest, BatchingAmortizesChannelTimeWithoutChangingResults) {
  ScatterRig seq_rig(4, 6), bat_rig(4, 6);
  std::vector<ElementId> ids =
      seq_rig.controller_.elements_of(seq_rig.tenant_);

  // The sequential bill: one GetAttr (a scatter of one) per element.
  std::vector<Result<Controller::QualifiedRecord>> seq;
  for (const ElementId& id : ids) {
    seq.push_back(
        seq_rig.controller_.get_attr_q(seq_rig.tenant_, id, {attr::kRxPkts}));
  }
  auto bat = bat_rig.controller_.get_attr_many(bat_rig.tenant_, ids,
                                               {attr::kRxPkts});
  ASSERT_EQ(seq.size(), bat.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_TRUE(seq[i].ok());
    ASSERT_TRUE(bat[i].ok());
    EXPECT_EQ(to_wire(seq[i].value().record), to_wire(bat[i].value().record));
  }

  // Identical query tallies, strictly cheaper channel bill: the batch pays
  // one round trip per channel kind per agent, the loop one per element.
  Controller::CostSnapshot sc = seq_rig.controller_.cost();
  Controller::CostSnapshot bc = bat_rig.controller_.cost();
  EXPECT_EQ(sc.queries, ids.size());
  EXPECT_EQ(bc.queries, ids.size());
  EXPECT_LT(bc.channel_time.ns(), sc.channel_time.ns());
  EXPECT_GT(bc.channel_time.ns(), 0);
  // Accessors read through the same snapshot.
  EXPECT_EQ(bat_rig.controller_.queries_issued(), bc.queries);
  EXPECT_EQ(bat_rig.controller_.channel_time().ns(), bc.channel_time.ns());
}

// TSan target: concurrent get_attr_q / get_attr_many callers racing agent
// poll sweeps over one shared pool, with an AlertWatcher evaluating on the
// main thread — the cost bookkeeping (a const-method mutation) must be
// properly synchronized, not sneaked through a const hole.
TEST(ScatterChurnTest, ConcurrentScatterPollAndAlertEvaluation) {
  std::atomic<int64_t> clock_ns{0};
  Controller controller(
      [&clock_ns](Duration d) {
        return SimTime::nanos(clock_ns.fetch_add(d.ns()) + d.ns());
      },
      [&clock_ns] { return SimTime::nanos(clock_ns.load()); });

  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::unique_ptr<ScriptedSource>> sources;
  std::vector<ElementId> ids;
  const TenantId tenant{1};
  for (size_t a = 0; a < 3; ++a) {
    agents.push_back(std::make_unique<Agent>("agent-" + std::to_string(a)));
    controller.register_agent(agents.back().get());
    for (size_t e = 0; e < 4; ++e) {
      auto s = std::make_unique<ScriptedSource>(
          "a" + std::to_string(a) + "/el" + std::to_string(e),
          e % 2 == 0 ? ChannelKind::kProcFs : ChannelKind::kMbSocket);
      s->attrs = {{attr::kRxPkts, 100.0 * e}, {attr::kDropPkts, 5.0 * e}};
      ASSERT_TRUE(agents.back()->add_element(s.get()).is_ok());
      ASSERT_TRUE(
          controller.register_element(tenant, s->id(), agents.back().get())
              .is_ok());
      ids.push_back(s->id());
      sources.push_back(std::move(s));
    }
  }

  ThreadPool pool(4);
  controller.set_pool(&pool);
  MetricsRegistry reg;
  reg.add_controller(&controller);

  Monitor mon(&controller, tenant);
  mon.watch(ids.front(), attr::kDropPkts);
  ContentionDetector det(&controller, RuleBook::standard());
  AlertWatcher watcher(&mon, &det, nullptr);
  watcher.set_pool(&pool);
  // Action kNone: rule evaluation must not advance time (this test never
  // mutates the sources, so there is no cross-thread write to them).
  watcher.add_rule({"drops", ids.front(), attr::kDropPkts, /*on_rate=*/false,
                    /*threshold=*/0.0, AlertRule::Action::kNone,
                    Duration::millis(1), Duration::nanos(1)});

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto got = controller.get_attr_many(tenant, ids, {attr::kRxPkts});
      EXPECT_EQ(got.size(), ids.size());
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)controller.get_attr_q(tenant, ids.back(), {attr::kDropPkts});
      (void)controller.cost();
      (void)reg.expose(SimTime::nanos(clock_ns.load()));
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& a : agents) {
        (void)a->poll_all(SimTime::nanos(clock_ns.load()), &pool);
      }
    }
  });

  for (int round = 0; round < 50; ++round) {
    clock_ns.fetch_add(Duration::millis(1).ns());
    mon.sample();
    (void)watcher.check();
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  Controller::CostSnapshot cost = controller.cost();
  EXPECT_GT(cost.queries, 0u);
  EXPECT_GT(cost.channel_time.ns(), 0);
  EXPECT_FALSE(watcher.history().empty());
}

// --- duplicate and unsorted ids through the scatter-merge --------------------

// Four agents of six elements.  The even elements of agent a are mirrored on
// agent (a + 1) % 4, and agent-1 is down from 100 ms on: at the query time
// every agent-1 primary comes back kMissing, its even elements answered by
// agent-2 as replicas and its odd ones left as blind spots.  Each world is
// built from scratch, so the reference loop and the scatter never share
// agent state.
class MirrorWorld {
 public:
  static constexpr size_t kAgents = 4;
  static constexpr size_t kPerAgent = 6;

  explicit MirrorWorld(Clients clients)
      : controller_([this](Duration d) { return now_ = now_ + d; },
                    [this] { return now_; }) {
    plan_.schedule_rolling_upgrade({"agent-1"}, SimTime::millis(100),
                                   Duration::seconds(10));
    RetryPolicy retry;
    retry.max_attempts = 2;
    CircuitBreakerConfig no_breaker;
    no_breaker.failure_threshold = 1u << 30;
    std::vector<AgentClient*> clients_of;
    for (size_t a = 0; a < kAgents; ++a) {
      agents_.push_back(
          std::make_unique<Agent>("agent-" + std::to_string(a), a + 1));
      agents_.back()->set_fault_plan(&plan_);
      agents_.back()->set_retry_policy(retry);
      agents_.back()->set_breaker_config(no_breaker);
      AgentClient* client = agents_.back().get();
      if (clients == Clients::kWireLoopback) {
        wrappers_.push_back(std::make_unique<oracle::WireLoopbackAgent>(client));
        client = wrappers_.back().get();
      }
      clients_of.push_back(client);
      controller_.register_agent(client);
    }
    for (size_t a = 0; a < kAgents; ++a) {
      for (size_t e = 0; e < kPerAgent; ++e) {
        const size_t i = a * kPerAgent + e;
        auto s = std::make_unique<ScriptedSource>(
            "a" + std::to_string(a) + "/el" + std::to_string(e),
            static_cast<ChannelKind>(i % kNumChannelKinds));
        s->attrs = {{attr::kRxPkts, static_cast<double>(1000 * i)},
                    {attr::kTxPkts, static_cast<double>(900 * i)},
                    {attr::kVm, static_cast<double>(i % 3)}};
        EXPECT_TRUE(agents_[a]->add_element(s.get()).is_ok());
        EXPECT_TRUE(
            controller_.register_element(tenant_, s->id(), clients_of[a])
                .is_ok());
        owner_[s->id()] = clients_of[a];
        if (e % 2 == 0) {
          const size_t m = (a + 1) % kAgents;
          EXPECT_TRUE(agents_[m]->add_element(s.get()).is_ok());
          EXPECT_TRUE(
              controller_.register_mirror(tenant_, s->id(), clients_of[m])
                  .is_ok());
          mirror_[s->id()] = clients_of[m];
        }
        ids_.push_back(s->id());
        sources_.push_back(std::move(s));
      }
    }
  }

  SimTime now_ = SimTime::millis(150);
  FaultPlan plan_{11};
  Controller controller_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<std::unique_ptr<AgentClient>> wrappers_;
  std::vector<std::unique_ptr<ScriptedSource>> sources_;
  oracle::OwnerMap owner_, mirror_;
  std::vector<ElementId> ids_;  // every element, creation order
  const TenantId tenant_{1};
};

// A seeded id list mixing repeats, ghosts, agent-1 primaries (kMissing,
// with and without a mirror) and healthy elements; every third list is
// sorted descending, the rest left in draw order.
std::vector<ElementId> draw_ids(Pcg32& rng, const std::vector<ElementId>& all,
                                int trial) {
  std::vector<ElementId> ids;
  const size_t n = 1 + rng.next_below(40);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t kind = rng.next_below(10);
    if (kind == 0) {
      ids.push_back(ElementId{"ghost-" + std::to_string(rng.next_below(3))});
    } else if (kind <= 3 && !ids.empty()) {
      ids.push_back(ids[rng.next_below(static_cast<uint32_t>(ids.size()))]);
    } else {
      ids.push_back(all[rng.next_below(static_cast<uint32_t>(all.size()))]);
    }
  }
  if (trial % 3 == 0) std::sort(ids.rbegin(), ids.rend());
  return ids;
}

TEST(ScatterDifferentialTest, DuplicateAndUnsortedIdsMatchReferenceGetAttr) {
  const std::vector<std::vector<std::string>> attr_sets = {
      {attr::kRxPkts, attr::kTxPkts},
      {attr::kTxPkts, attr::kRxPkts, attr::kRxPkts},
      {attr::kVm, "noSuchAttr", attr::kRxPkts},
      {}};
  ThreadPool pool(3);
  size_t repeats = 0, replicas = 0, blind = 0, ghosts = 0;
  for (int trial = 0; trial < 60; ++trial) {
    MirrorWorld ref(Clients::kDirect), pooled(Clients::kDirect),
        looped(Clients::kWireLoopback);
    Pcg32 rng(5150 + trial);
    const std::vector<ElementId> ids = draw_ids(rng, ref.ids_, trial);
    const std::vector<std::string>& attrs =
        attr_sets[rng.next_below(static_cast<uint32_t>(attr_sets.size()))];

    std::string expect;
    for (const auto& r : oracle::reference_get_attr(ref.owner_, ref.mirror_,
                                                    ids, attrs, ref.now_)) {
      expect += fmt(r);
    }
    std::string got_pooled, got_looped;
    for (const auto& r :
         pooled.controller_.get_attr_many(pooled.tenant_, ids, attrs, &pool)) {
      got_pooled += fmt(r);
    }
    for (const auto& r :
         looped.controller_.get_attr_many(looped.tenant_, ids, attrs, &pool)) {
      got_looped += fmt(r);
    }
    EXPECT_EQ(got_pooled, expect) << "trial " << trial;
    EXPECT_EQ(got_looped, expect) << "trial " << trial;

    std::vector<ElementId> uniq = ids;
    std::sort(uniq.begin(), uniq.end());
    repeats += ids.size() -
               (std::unique(uniq.begin(), uniq.end()) - uniq.begin());
    auto count = [&expect](const std::string& needle) {
      size_t n = 0;
      for (size_t at = expect.find(needle); at != std::string::npos;
           at = expect.find(needle, at + 1)) {
        ++n;
      }
      return n;
    };
    replicas += count("q=replica");
    blind += count("ERR(") - count("ERR(1) no agent serves element ghost");
    ghosts += count("ERR(1) no agent serves element ghost");
  }
  // Every ingredient must actually occur for the differential to mean
  // anything.
  EXPECT_GT(repeats, 100u);
  EXPECT_GT(replicas, 20u);
  EXPECT_GT(blind, 20u);
  EXPECT_GT(ghosts, 20u);
}

}  // namespace
}  // namespace perfsight
