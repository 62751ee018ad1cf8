// Socket transport + remote-agent stub: the differential contract is that a
// controller talking to socket-backed agents produces byte-identical output
// to the same controller talking to in-process agents — on clean streams.
// On damaged streams (torn connection, corrupt frame, dropped reply) the
// lost frames must degrade to kMissing blind spots via wire::reconcile, with
// the same "unavailable after N attempt(s)" text a local channel failure
// produces, while ids no agent serves keep their not_found text.
#include "perfsight/transport.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/deployment.h"
#include "common/threadpool.h"
#include "perfsight/json_export.h"
#include "perfsight/agent.h"
#include "perfsight/alert.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/monitor.h"
#include "perfsight/remote_agent.h"
#include "perfsight/rootcause.h"
#include "perfsight/trace.h"
#include "perfsight/wire.h"
#include "support/oracles.h"
#include "sim/simulator.h"

namespace perfsight {
namespace {

using transport::WallDuration;

std::string unique_unix_path() {
  static std::atomic<int> counter{0};
  return "/tmp/ps-transport-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// A scriptable element whose counters the rig moves as time advances.  For
// remote rigs collect() runs on the server thread while the main thread
// advances the clock — the socket between them is not a happens-before edge,
// so the counters live behind a lock.
class ScriptedSource : public StatsSource {
 public:
  ScriptedSource(std::string id, ChannelKind kind)
      : id_{std::move(id)}, kind_(kind) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return kind_; }
  StatsRecord collect(SimTime now) const override {
    std::lock_guard<std::mutex> lock(mu_);
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = attrs_;
    return r;
  }

  void set_attrs(std::vector<Attr> a) {
    std::lock_guard<std::mutex> lock(mu_);
    attrs_ = std::move(a);
  }
  template <typename Fn>
  void mutate(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    fn(attrs_);
  }

 private:
  ElementId id_;
  ChannelKind kind_;
  mutable std::mutex mu_;
  std::vector<Attr> attrs_;
};

// The scatter-rig topology of controller_scatter_test, parameterized over
// how the controller reaches each agent: in-process pointer, in-process
// through the one-element-per-round-trip oracle, RemoteAgent over loopback
// tcp, or RemoteAgent over a unix-domain socket.
class TransportRig {
 public:
  enum class Mode { kInProcess, kSequential, kTcp, kUnix };

  TransportRig(size_t agents, size_t per_agent, Mode mode)
      : controller_([this](Duration d) { return advance(d); },
                    [this] { return now_; }) {
    const ChannelKind kinds[] = {ChannelKind::kProcFs, ChannelKind::kMbSocket,
                                 ChannelKind::kNetDeviceFile,
                                 ChannelKind::kOvsChannel};
    for (size_t a = 0; a < agents; ++a) {
      agents_.push_back(
          std::make_unique<Agent>("agent-" + std::to_string(a), a + 1));
      Agent* agent = agents_.back().get();

      // Populate the machine first: the server's hello snapshot must carry
      // the complete element set before any adapter dials in.
      std::vector<ScriptedSource*> elems;
      for (size_t e = 0; e < per_agent; ++e) {
        const size_t i = a * per_agent + e;
        auto s = std::make_unique<ScriptedSource>(
            "a" + std::to_string(a) + "/el" + std::to_string(e), kinds[i % 4]);
        s->set_attrs({{attr::kRxPkts, static_cast<double>(1000 * i)},
                      {attr::kTxPkts, static_cast<double>(900 * i)},
                      {attr::kDropPkts, static_cast<double>(10 * i)},
                      {attr::kTxBytes, static_cast<double>(150000 * (i + 1))},
                      {attr::kType, static_cast<double>(
                                        static_cast<int>(ElementKind::kTun))},
                      {attr::kVm, static_cast<double>(i % 3)}});
        EXPECT_TRUE(agent->add_element(s.get()).is_ok());
        elems.push_back(s.get());
        sources_.push_back(std::move(s));
      }
      auto mb = std::make_unique<ScriptedSource>("mb" + std::to_string(a),
                                                 ChannelKind::kMbSocket);
      mb->set_attrs({{attr::kInBytes, 0},
                     {attr::kInTimeNs, 0},
                     {attr::kOutBytes, 0},
                     {attr::kOutTimeNs, 0},
                     {attr::kCapacityMbps, 1000}});
      EXPECT_TRUE(agent->add_element(mb.get()).is_ok());
      mbs_.push_back(mb.get());
      sources_.push_back(std::move(mb));

      AgentClient* client = agent;
      if (mode == Mode::kSequential) {
        sequential_.push_back(std::make_unique<oracle::SequentialAgent>(agent));
        client = sequential_.back().get();
      } else if (mode != Mode::kInProcess) {
        transport::Endpoint ep =
            mode == Mode::kTcp
                ? transport::Endpoint::tcp("127.0.0.1", 0)
                : transport::Endpoint::unix_path(unique_unix_path());
        servers_.push_back(std::make_unique<RemoteAgentServer>(agent, ep));
        EXPECT_TRUE(servers_.back()->start().is_ok());
        remotes_.push_back(
            std::make_unique<RemoteAgent>(servers_.back()->endpoint()));
        EXPECT_TRUE(remotes_.back()->connect().is_ok());
        client = remotes_.back().get();
      }
      clients_.push_back(client);

      controller_.register_agent(client);
      for (ScriptedSource* s : elems) {
        EXPECT_TRUE(
            controller_.register_element(tenant_, s->id(), client).is_ok());
        controller_.register_stack_element(client, s->id());
        owner_[s->id()] = client;
        elements_.push_back(s->id());
      }
      EXPECT_TRUE(
          controller_.register_element(tenant_, mbs_.back()->id(), client)
              .is_ok());
      owner_[mbs_.back()->id()] = client;
      controller_.register_middlebox(tenant_, mbs_.back()->id());
      if (a > 0) {
        controller_.add_chain_edge(tenant_, mbs_[mbs_.size() - 2]->id(),
                                   mbs_.back()->id());
      }
    }
  }

  SimTime advance(Duration d) {
    now_ = now_ + d;
    const double dt_sec = d.sec();
    size_t i = 0;
    for (auto& s : sources_) {
      s->mutate([&](std::vector<Attr>& attrs) {
        for (Attr& a : attrs) {
          if (a.name == attr::kRxPkts) a.value += (1000 + i) * dt_sec;
          if (a.name == attr::kTxPkts) a.value += (900 + i) * dt_sec;
          if (a.name == attr::kDropPkts) a.value += (3 + i % 5) * dt_sec;
          if (a.name == attr::kTxBytes) a.value += 150000 * dt_sec;
        }
      });
      ++i;
    }
    for (size_t m = 0; m < mbs_.size(); ++m) {
      const double mbps = 1000.0 / (m + 1);
      mbs_[m]->mutate([&](std::vector<Attr>& attrs) {
        for (Attr& a : attrs) {
          if (a.name == attr::kInBytes || a.name == attr::kOutBytes) {
            a.value += mbps * 1e6 / 8 * dt_sec;
          }
          if (a.name == attr::kInTimeNs || a.name == attr::kOutTimeNs) {
            a.value += static_cast<double>(d.ns());
          }
        }
      });
    }
    return now_;
  }

  void install_faults(const FaultPlan* plan, const RetryPolicy& retry) {
    for (auto& a : agents_) {
      a->set_fault_plan(plan);
      a->set_retry_policy(retry);
    }
  }

  Agent* agent(size_t i) { return agents_[i].get(); }
  RemoteAgentServer* server(size_t i) { return servers_[i].get(); }
  RemoteAgent* remote(size_t i) { return remotes_[i].get(); }
  // This agent's packet-path element ids, creation order.
  std::vector<ElementId> elements_of_agent(size_t a, size_t per_agent) const {
    return {elements_.begin() + a * per_agent,
            elements_.begin() + (a + 1) * per_agent};
  }

  SimTime now_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<std::unique_ptr<ScriptedSource>> sources_;
  std::vector<std::unique_ptr<RemoteAgentServer>> servers_;
  std::vector<std::unique_ptr<RemoteAgent>> remotes_;
  std::vector<std::unique_ptr<oracle::SequentialAgent>> sequential_;
  std::vector<AgentClient*> clients_;
  oracle::OwnerMap owner_;  // element -> the client the controller uses
  std::vector<ScriptedSource*> mbs_;
  std::vector<ElementId> elements_;  // packet-path elements, creation order
  Controller controller_;
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

// The full diagnosis workload of controller_scatter_test, folded into one
// string: its run over kSequential with the reference GetAttr loop is the
// oracle every socket-backed run must reproduce byte-for-byte.
std::string run_script(TransportRig& rig, ThreadPool* pool, bool reference) {
  Controller& c = rig.controller_;
  c.set_pool(pool);
  auto get_attr = [&](const std::vector<ElementId>& ids,
                      const std::vector<std::string>& attrs) {
    return reference ? oracle::reference_get_attr(rig.owner_, {}, ids, attrs,
                                                  rig.now_)
                     : c.get_attr_many(rig.tenant_, ids, attrs);
  };

  std::string out;

  std::vector<ElementId> ids = c.elements_of(rig.tenant_);
  ids.push_back(ElementId{"ghost"});
  for (const auto& r :
       get_attr(ids, {attr::kRxPkts, attr::kTxPkts, attr::kDropPkts,
                      attr::kType, attr::kVm})) {
    out += fmt(r);
  }

  if (reference) {
    out += fmt(get_attr({rig.elements_.front()},
                        {attr::kRxPkts, attr::kTxPkts}).front());
  } else {
    out += fmt(c.get_attr_q(rig.tenant_, rig.elements_.front(),
                            {attr::kRxPkts, attr::kTxPkts}));
  }

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

  ContentionDetector det(&c, RuleBook::standard());
  det.set_pool(pool);
  out += to_text(det.diagnose(rig.tenant_, Duration::millis(100)));

  RootCauseAnalyzer rca(&c);
  out += to_text(rca.analyze(rig.tenant_, Duration::millis(100)));

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

// --- endpoint + socket primitives --------------------------------------------

TEST(EndpointTest, ParseAcceptsAndRejects) {
  Result<transport::Endpoint> ep =
      transport::Endpoint::parse("tcp:127.0.0.1:7070");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep.value().kind, transport::Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.value().host, "127.0.0.1");
  EXPECT_EQ(ep.value().port, 7070);
  EXPECT_EQ(ep.value().to_string(), "tcp:127.0.0.1:7070");

  Result<transport::Endpoint> u = transport::Endpoint::parse("unix:/tmp/x.s");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().kind, transport::Endpoint::Kind::kUnix);
  EXPECT_EQ(u.value().path, "/tmp/x.s");
  EXPECT_EQ(u.value().to_string(), "unix:/tmp/x.s");

  for (const char* bad :
       {"", "tcp:", "tcp:127.0.0.1", "tcp::7070", "tcp:127.0.0.1:",
        "tcp:127.0.0.1:notaport", "tcp:127.0.0.1:99999", "tcp:127.0.0.1:80x",
        "udp:1.2.3.4:1", "unix:"}) {
    EXPECT_FALSE(transport::Endpoint::parse(bad).ok()) << "'" << bad << "'";
  }
}

TEST(SocketTest, DeadlinesHoldAndPartialBytesSurvive) {
  Result<transport::Listener> l =
      transport::Listener::listen(transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(l.ok());
  transport::Listener listener = std::move(l).take();
  EXPECT_NE(listener.bound_endpoint().port, 0);  // ephemeral port resolved

  Result<transport::Socket> c =
      transport::connect(listener.bound_endpoint(), WallDuration(1000));
  ASSERT_TRUE(c.ok());
  transport::Socket client = std::move(c).take();
  Result<transport::Socket> a = listener.accept(WallDuration(1000));
  ASSERT_TRUE(a.ok());
  transport::Socket server = std::move(a).take();

  // No data: the read must come back in bounded time, empty-handed.
  std::string buf;
  Status st = client.recv_exact(4, &buf, WallDuration(50));
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(buf.empty());

  // Peer dies mid-message: the bytes that made it are the caller's to keep.
  ASSERT_TRUE(server.send_all("abc").is_ok());
  server.close();
  st = client.recv_exact(10, &buf, WallDuration(1000));
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(buf, "abc");
}

// --- the differential contract -----------------------------------------------

TEST(TransportDifferentialTest, SocketAgentsMatchInProcessOracle) {
  TransportRig oracle_rig(3, 3, TransportRig::Mode::kSequential);
  const std::string oracle =
      run_script(oracle_rig, nullptr, /*reference=*/true);
  ASSERT_NE(oracle.find("=== Algorithm 1"), std::string::npos);
  ASSERT_NE(oracle.find("=== Algorithm 2"), std::string::npos);
  ASSERT_NE(oracle.find("ALERT ["), std::string::npos);
  ASSERT_NE(oracle.find("ERR(1) no agent serves element ghost"),
            std::string::npos);

  // Batched over tcp, inline gather.
  {
    TransportRig rig(3, 3, TransportRig::Mode::kTcp);
    EXPECT_EQ(run_script(rig, nullptr, false), oracle);
  }
  // Batched over tcp, scatter across a pool.
  {
    TransportRig rig(3, 3, TransportRig::Mode::kTcp);
    ThreadPool pool(4);
    EXPECT_EQ(run_script(rig, &pool, false), oracle);
  }
  // Reference loop over tcp: one batch of one per element on the wire.
  {
    TransportRig rig(3, 3, TransportRig::Mode::kTcp);
    EXPECT_EQ(run_script(rig, nullptr, true), oracle);
  }
  // Batched over unix-domain sockets.
  {
    TransportRig rig(3, 3, TransportRig::Mode::kUnix);
    EXPECT_EQ(run_script(rig, nullptr, false), oracle);
  }
}

TEST(TransportDifferentialTest, AgentFaultPlanCrossesTheWireIntact) {
  // Faults at the *agent* (the modelled channels) still produce clean
  // streams: degraded qualities, fail codes and attempt counts are payload,
  // and must cross byte-identically.
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

  TransportRig oracle_rig(3, 3, TransportRig::Mode::kSequential);
  FaultPlan oracle_plan = make_plan();
  oracle_rig.install_faults(&oracle_plan, retry);
  const std::string oracle = run_script(oracle_rig, nullptr, true);
  ASSERT_TRUE(oracle.find("q=stale") != std::string::npos ||
              oracle.find("q=torn") != std::string::npos ||
              oracle.find("ERR(3)") != std::string::npos ||
              oracle.find("ERR(5)") != std::string::npos)
      << "fault plan produced no degradation; differential is vacuous";

  {
    TransportRig rig(3, 3, TransportRig::Mode::kTcp);
    FaultPlan plan = make_plan();
    rig.install_faults(&plan, retry);
    ThreadPool pool(2);
    EXPECT_EQ(run_script(rig, &pool, false), oracle);
  }
  {
    TransportRig rig(3, 3, TransportRig::Mode::kTcp);
    FaultPlan plan = make_plan();
    rig.install_faults(&plan, retry);
    EXPECT_EQ(run_script(rig, nullptr, true), oracle);
  }
}

// --- damaged streams ---------------------------------------------------------

TEST(TransportDamageTest, TornBatchBecomesBlindSpots) {
  ScopedTraceRecorder scoped;
  TransportRig rig(2, 3, TransportRig::Mode::kTcp);
  std::vector<ElementId> a0 = rig.elements_of_agent(0, 3);

  // Learn the first frame's wire size from a clean round trip, then tear
  // the next batch right after that frame: el0 survives, el1/el2 are lost.
  BatchResponse clean = rig.remote(0)->query_batch(a0, rig.now_);
  ASSERT_EQ(clean.responses.size(), 3u);
  const std::string f0 = wire::encode_frame(clean.responses[0]).value();
  rig.server(0)->inject_truncate_next_batch(wire::kBatchHeaderSize +
                                            f0.size());

  auto got = rig.controller_.get_attr_many(
      rig.tenant_, rig.elements_, {attr::kRxPkts, attr::kDropPkts});
  ASSERT_EQ(got.size(), 6u);
  EXPECT_TRUE(got[0].ok()) << got[0].status().message();  // a0/el0 survived
  for (size_t i : {1u, 2u}) {
    ASSERT_FALSE(got[i].ok()) << "a0/el" << i << " should be a blind spot";
    EXPECT_EQ(got[i].status().code(), StatusCode::kUnavailable);
    EXPECT_NE(got[i].status().message().find("unavailable after 1 attempt(s)"),
              std::string::npos)
        << got[i].status().message();
  }
  for (size_t i : {3u, 4u, 5u}) {
    EXPECT_TRUE(got[i].ok())
        << "agent-1 must be untouched: " << got[i].status().message();
  }
  EXPECT_EQ(rig.remote(0)->transport_stats().damaged, 1u);

  // Partial data feeds Algorithm 1's blind-spot accounting: coverage drops
  // below 100% and the report says which elements went unmeasured.
  rig.server(0)->inject_truncate_next_batch(wire::kBatchHeaderSize);
  ContentionDetector det(&rig.controller_, RuleBook::standard());
  std::string report =
      to_text(det.diagnose(rig.tenant_, Duration::millis(100)));
  EXPECT_NE(report.find("coverage"), std::string::npos) << report;

  // The torn connection heals on the next query.
  auto healed = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                              {attr::kRxPkts});
  for (const auto& r : healed) EXPECT_TRUE(r.ok()) << r.status().message();
  EXPECT_GE(rig.remote(0)->transport_stats().reconnects, 1u);

  // Lifecycle left a trail: connects at rig construction, damage events for
  // the torn batches.
  size_t connects = 0, damaged = 0;
  for (const TraceEvent& e :
       scoped.recorder().events_for(ElementId{"transport"})) {
    if (e.kind == TraceEventKind::kTransportConnect) ++connects;
    if (e.kind == TraceEventKind::kTransportDamaged) ++damaged;
  }
  EXPECT_EQ(connects, 2u);  // one per rig agent
  EXPECT_GE(damaged, 2u);
  EXPECT_STREQ(to_string(TraceEventKind::kTransportConnect),
               "transport_connect");
  EXPECT_STREQ(to_string(TraceEventKind::kTransportReconnect),
               "transport_reconnect");
  EXPECT_STREQ(to_string(TraceEventKind::kTransportDamaged),
               "transport_damaged");
}

TEST(TransportDamageTest, CorruptFrameReconcilesAndRecovers) {
  TransportRig rig(2, 3, TransportRig::Mode::kTcp);

  // Flip a byte inside the first frame's payload: the checksum fails, the
  // length chain past the frame is untrustworthy, and every element of
  // agent-0's batch degrades to a kMissing blind spot.
  rig.server(0)->inject_corrupt_next_batch(wire::kBatchHeaderSize +
                                           wire::kFramePrefixSize + 2);
  auto got = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                           {attr::kRxPkts});
  ASSERT_EQ(got.size(), 6u);
  for (size_t i : {0u, 1u, 2u}) {
    ASSERT_FALSE(got[i].ok());
    EXPECT_EQ(got[i].status().code(), StatusCode::kUnavailable);
    EXPECT_NE(got[i].status().message().find("unavailable after 1 attempt(s)"),
              std::string::npos);
  }
  for (size_t i : {3u, 4u, 5u}) EXPECT_TRUE(got[i].ok());
  EXPECT_EQ(rig.remote(0)->transport_stats().damaged, 1u);

  auto healed = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                              {attr::kRxPkts});
  for (const auto& r : healed) EXPECT_TRUE(r.ok()) << r.status().message();
}

TEST(TransportDamageTest, DroppedReplyResendsOnceInvisibly) {
  TransportRig rig(1, 3, TransportRig::Mode::kTcp);

  // The server closes without replying: zero reply bytes arrived, so the
  // idempotent read earns exactly one reconnect + resend and the caller
  // never notices.
  rig.server(0)->inject_drop_next_reply();
  auto got = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                           {attr::kRxPkts});
  ASSERT_EQ(got.size(), 3u);
  for (const auto& r : got) {
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().quality, DataQuality::kFresh);
  }
  RemoteAgent::TransportStats stats = rig.remote(0)->transport_stats();
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(stats.damaged, 0u);
}

// Message kind 3 (like 5) is retired and never reassigned: a peer still
// sending it is closed like any confused client, and a fresh connection is
// served as before.
TEST(TransportProtocolTest, RetiredKindClosesTheConnection) {
  TransportRig rig(1, 2, TransportRig::Mode::kTcp);
  const transport::Endpoint ep = rig.server(0)->endpoint();
  Result<transport::Socket> c = transport::connect(ep, WallDuration(1000));
  ASSERT_TRUE(c.ok());
  transport::Socket raw = std::move(c).take();
  ASSERT_TRUE(transport::read_message_bytes(raw, WallDuration(1000)).ok())
      << "no hello on accept";
  ASSERT_TRUE(raw.send_all(wire::encode_message(
                               static_cast<wire::MessageKind>(3), "retired"),
                           WallDuration(1000))
                  .is_ok());
  Result<std::string> reply =
      transport::read_message_bytes(raw, WallDuration(2000));
  ASSERT_FALSE(reply.ok()) << "the server answered a retired kind";
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable)
      << reply.status().message();

  RemoteAgent fresh(ep);
  ASSERT_TRUE(fresh.connect().is_ok());
  BatchResponse b = fresh.query_batch(rig.elements_, rig.now_);
  ASSERT_EQ(b.responses.size(), 2u);
  for (const QueryResponse& r : b.responses) {
    EXPECT_EQ(r.quality, DataQuality::kFresh) << r.record.element.name;
  }
}

// --- reconnect + breaker -----------------------------------------------------

TEST(TransportReconnectTest, ServerRestartHeals) {
  TransportRig rig(1, 2, TransportRig::Mode::kTcp);
  RetryPolicy rp;
  rp.max_attempts = 2;
  rp.initial_backoff = Duration::millis(1);
  rp.max_backoff = Duration::millis(2);
  rig.remote(0)->set_retry_policy(rp);
  rig.remote(0)->set_deadline(WallDuration(500));

  const transport::Endpoint ep = rig.server(0)->endpoint();
  rig.server(0)->stop();

  // Agent down: every element is a blind spot, not an exception.
  auto dark = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                            {attr::kRxPkts});
  ASSERT_EQ(dark.size(), 2u);
  for (const auto& r : dark) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }

  // A new server process on the same endpoint: the adapter reconnects on
  // the next query and data flows again.
  RemoteAgentServer revived(rig.agent(0), ep);
  ASSERT_TRUE(revived.start().is_ok());
  auto healed = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                              {attr::kRxPkts});
  for (const auto& r : healed) EXPECT_TRUE(r.ok()) << r.status().message();
  EXPECT_GE(rig.remote(0)->transport_stats().reconnects, 1u);
}

TEST(TransportBreakerTest, BreakerFastFailsThenHalfOpenProbeRecovers) {
  TransportRig rig(1, 2, TransportRig::Mode::kTcp);
  CircuitBreakerConfig cb;
  cb.failure_threshold = 2;
  cb.cooldown = Duration::millis(100);
  rig.remote(0)->set_breaker_config(cb);
  RetryPolicy rp;
  rp.max_attempts = 1;
  rig.remote(0)->set_retry_policy(rp);
  rig.remote(0)->set_deadline(WallDuration(500));

  const transport::Endpoint ep = rig.server(0)->endpoint();
  rig.server(0)->stop();
  std::vector<ElementId> ids = rig.elements_;

  // Two consecutive connect failures open the breaker...
  (void)rig.remote(0)->query_batch(ids, rig.now_);
  (void)rig.remote(0)->query_batch(ids, rig.now_);
  EXPECT_EQ(rig.remote(0)->breaker_state(), BreakerState::kOpen);

  // ...after which queries fast-fail without paying a dial timeout.
  BatchResponse fast = rig.remote(0)->query_batch(ids, rig.now_);
  ASSERT_EQ(fast.responses.size(), ids.size());
  for (const QueryResponse& r : fast.responses) {
    EXPECT_EQ(r.quality, DataQuality::kMissing);
    EXPECT_EQ(r.fail_code, StatusCode::kUnavailable);
  }
  EXPECT_GE(rig.remote(0)->transport_stats().fast_fails, 1u);

  // Cooldown over + server back: the half-open probe reconnects and closes
  // the breaker.
  RemoteAgentServer revived(rig.agent(0), ep);
  ASSERT_TRUE(revived.start().is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  BatchResponse back = rig.remote(0)->query_batch(ids, rig.now_);
  ASSERT_EQ(back.responses.size(), ids.size());
  for (const QueryResponse& r : back.responses) {
    EXPECT_EQ(r.quality, DataQuality::kFresh);
  }
  EXPECT_EQ(rig.remote(0)->breaker_state(), BreakerState::kClosed);
}

// --- observability + deployment ----------------------------------------------

TEST(TransportObservabilityTest, CountersCoverTheTransportLifecycle) {
  TransportRig rig(1, 2, TransportRig::Mode::kTcp);
  MetricsRegistry reg;
  rig.remote(0)->set_metrics(&reg);

  (void)rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                      {attr::kRxPkts});
  rig.server(0)->inject_corrupt_next_batch(wire::kBatchHeaderSize +
                                           wire::kFramePrefixSize + 2);
  (void)rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                      {attr::kRxPkts});
  (void)rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                      {attr::kRxPkts});  // reconnects

  std::string exposed = reg.expose(rig.now_);
  EXPECT_NE(exposed.find("perfsight_transport_connects_total"),
            std::string::npos);
  EXPECT_NE(exposed.find("perfsight_transport_reconnects_total"),
            std::string::npos);
  EXPECT_NE(exposed.find("perfsight_transport_batches_total"),
            std::string::npos);
  EXPECT_NE(exposed.find("perfsight_transport_damaged_batches_total"),
            std::string::npos);
  EXPECT_NE(exposed.find("agent=\"agent-0\""), std::string::npos);
}

TEST(DeploymentRemoteTest, AddRemoteAgentWiresIntoTheControlPlane) {
  // A standalone machine: one agent + server, off in its own "process".
  Agent agent("agent-r", 7);
  ScriptedSource src("r/el0", ChannelKind::kProcFs);
  src.set_attrs({{attr::kRxPkts, 1234.0}});
  ASSERT_TRUE(agent.add_element(&src).is_ok());
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());

  sim::Simulator sim(Duration::millis(1));
  cluster::Deployment dep(&sim);
  EXPECT_FALSE(dep.add_remote_agent("tcp:127.0.0.1:notaport").ok());
  Result<RemoteAgent*> r = dep.add_remote_agent(server.endpoint().to_string());
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_TRUE(dep.assign_remote(TenantId{1}, src.id(), r.value()).is_ok());

  auto got =
      dep.controller()->get_attr_q(TenantId{1}, src.id(), {attr::kRxPkts});
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_EQ(got.value().record.attrs.size(), 1u);
  EXPECT_EQ(got.value().record.attrs[0].value, 1234.0);
}

// Remote agents must feed the same element-stat exposition as in-process
// ones: add_agent_client() scrapes over the socket, and the stat lines the
// registry renders must be the ones an in-process registration would have
// produced for the identical machine.
TEST(TransportObservabilityTest, RemoteAgentMetricsMatchInProcessExposition) {
  TransportRig local(1, 2, TransportRig::Mode::kInProcess);
  TransportRig remote(1, 2, TransportRig::Mode::kTcp);

  MetricsRegistry lreg, rreg;
  lreg.add_agent(local.agent(0));
  rreg.add_agent_client(remote.remote(0));
  ASSERT_EQ(rreg.num_agent_clients(), 1u);

  auto stat_lines = [](const std::string& exposed) {
    std::vector<std::string> lines;
    size_t at = 0;
    while ((at = exposed.find("perfsight_element_stat{", at)) !=
           std::string::npos) {
      size_t end = exposed.find('\n', at);
      lines.push_back(exposed.substr(at, end - at));
      at = end;
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  const std::vector<std::string> want = stat_lines(lreg.expose(local.now_));
  const std::vector<std::string> got = stat_lines(rreg.expose(remote.now_));
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(got, want);
}

// --- fleet tracing -----------------------------------------------------------

// The tentpole end-to-end: a traced scatter over two socket-backed agents
// whose span clocks are skewed by seconds in opposite directions.  Every
// harvested serve span must (a) parent to the controller's scatter span id
// that travelled on the request envelope, and (b) come back to the local
// clock once the hello-estimated offset is subtracted.
TEST(FleetTracingTest, RemoteSpansResolveToScatterAcrossSkewedClocks) {
  Agent agent_a("agent-a", 1);
  Agent agent_b("agent-b", 2);
  ScriptedSource a0("a/el0", ChannelKind::kProcFs);
  ScriptedSource a1("a/el1", ChannelKind::kOvsChannel);
  ScriptedSource b0("b/el0", ChannelKind::kMbSocket);
  for (ScriptedSource* s : {&a0, &a1, &b0}) {
    s->set_attrs({{attr::kRxPkts, 42.0}});
  }
  ASSERT_TRUE(agent_a.add_element(&a0).is_ok());
  ASSERT_TRUE(agent_a.add_element(&a1).is_ok());
  ASSERT_TRUE(agent_b.add_element(&b0).is_ok());

  RemoteAgentServer sa(&agent_a, transport::Endpoint::tcp("127.0.0.1", 0));
  RemoteAgentServer sb(&agent_b, transport::Endpoint::tcp("127.0.0.1", 0));
  sa.set_clock_skew_ns(2'000'000'000);   // this machine runs 2 s ahead
  sb.set_clock_skew_ns(-3'000'000'000);  // this one 3 s behind
  ASSERT_TRUE(sa.start().is_ok());
  ASSERT_TRUE(sb.start().is_ok());

  ScopedTraceRecorder scoped;  // fleet tracing on for the whole test

  RemoteAgent ra(sa.endpoint());
  RemoteAgent rb(sb.endpoint());
  const int64_t wall0 = transport::span_clock_ns();
  ASSERT_TRUE(ra.connect().is_ok());
  ASSERT_TRUE(rb.connect().is_ok());
  // The hello handshake must have absorbed (nearly all of) the skew.
  EXPECT_NEAR(static_cast<double>(ra.clock_offset_ns()), 2e9, 2e8);
  EXPECT_NEAR(static_cast<double>(rb.clock_offset_ns()), -3e9, 2e8);

  SimTime now;
  Controller controller(
      [&now](Duration d) {
        now = now + d;
        return now;
      },
      [&now] { return now; });
  ThreadPool pool(2);
  controller.set_pool(&pool);
  const TenantId tenant{1};
  controller.register_agent(&ra);
  controller.register_agent(&rb);
  ASSERT_TRUE(controller.register_element(tenant, a0.id(), &ra).is_ok());
  ASSERT_TRUE(controller.register_element(tenant, a1.id(), &ra).is_ok());
  ASSERT_TRUE(controller.register_element(tenant, b0.id(), &rb).is_ok());

  auto got = controller.get_attr_many(tenant, {a0.id(), a1.id(), b0.id()},
                                      {attr::kRxPkts});
  ASSERT_EQ(got.size(), 3u);
  for (const auto& r : got) ASSERT_TRUE(r.ok()) << r.status().message();

  // The reply piggyback already shipped the serve spans; an explicit harvest
  // must find the rings drained (exactly-once) or pick up any leftovers.
  ASSERT_TRUE(ra.harvest_trace().is_ok());
  ASSERT_TRUE(rb.harvest_trace().is_ok());
  const int64_t wall1 = transport::span_clock_ns();

  TraceRecorder& rec = scoped.recorder();
  uint64_t scatter = 0;
  for (const TraceEvent& e : rec.events()) {
    if (e.kind == TraceEventKind::kSpanScatter) scatter = e.span_id;
  }
  ASSERT_NE(scatter, 0u);

  const std::vector<TraceRecorder::RemoteLane> lanes = rec.remote_lanes();
  ASSERT_EQ(lanes.size(), 2u);
  size_t serve_spans = 0;
  for (const TraceRecorder::RemoteLane& lane : lanes) {
    for (size_t i = 0; i < lane.events.size(); ++i) {
      const TraceEvent& e = lane.events[i];
      if (i > 0) {
        EXPECT_GE(e.t.ns(), lane.events[i - 1].t.ns());  // monotone per lane
      }
      if (e.kind != TraceEventKind::kSpanServerBatch) continue;
      ++serve_spans;
      EXPECT_EQ(e.parent_span, scatter)
          << lane.process << " serve span lost its scatter parent";
      // Offset-corrected, the serve span lands inside this test's wall-clock
      // window — seconds off if the skew were not being corrected.
      const int64_t corrected = e.t.ns() - lane.clock_offset_ns;
      EXPECT_GE(corrected, wall0 - 300'000'000);
      EXPECT_LE(corrected, wall1 + 300'000'000);
    }
  }
  EXPECT_EQ(serve_spans, 2u);  // one per agent batch

  const std::string json = to_chrome_trace(rec);
  ASSERT_TRUE(json::lint(json).is_ok()) << json::lint(json).message();
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("agent-a"), std::string::npos);
  EXPECT_NE(json.find("agent-b"), std::string::npos);
  EXPECT_NE(json.find("\"parent_span\":\"" + std::to_string(scatter) + "\""),
            std::string::npos);

  // CI artifact hook: when PERFSIGHT_TRACE_EXPORT names a path, leave the
  // merged multi-process trace there for upload.
  if (const char* path = std::getenv("PERFSIGHT_TRACE_EXPORT")) {
    std::ofstream f(path);
    f << json;
    ASSERT_TRUE(f.good()) << "failed to write " << path;
  }
}

// With no recorder installed, tracing must add zero bytes to the wire
// conversation: trace_id 0 travels on the envelope and the server answers
// with the payload alone.  The differential suite pins byte-identical
// replies; here we pin that no piggyback message follows them.
TEST(FleetTracingTest, DisabledTracingShipsNoTraceBytes) {
  Agent agent("agent-q", 3);
  ScriptedSource s0("q/el0", ChannelKind::kProcFs);
  s0.set_attrs({{attr::kRxPkts, 7.0}});
  ASSERT_TRUE(agent.add_element(&s0).is_ok());
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());

  RemoteAgent remote(server.endpoint());
  ASSERT_TRUE(remote.connect().is_ok());
  BatchResponse b = remote.query_batch({s0.id()}, SimTime::millis(1));
  ASSERT_EQ(b.responses.size(), 1u);
  EXPECT_EQ(b.responses[0].quality, DataQuality::kFresh);

  // The server recorded nothing traceable and shipped nothing: a harvest
  // finds empty rings, and the global recorder gained no lanes.
  ASSERT_TRUE(remote.harvest_trace().is_ok());
  EXPECT_EQ(TraceRecorder::global().num_remote_lanes(), 0u);
  RemoteAgent::TransportStats stats = remote.transport_stats();
  EXPECT_EQ(stats.damaged, 0u);  // no stray bytes misparsed as payload
}

// --- end-to-end I/O deadlines ------------------------------------------------

namespace {

void append_u32(std::string* s, uint32_t v) {
  for (int i = 0; i < 4; ++i) s->push_back(static_cast<char>(v >> (8 * i)));
}
void append_u64(std::string* s, uint64_t v) {
  for (int i = 0; i < 8; ++i) s->push_back(static_cast<char>(v >> (8 * i)));
}

// A structurally valid PSB1 batch of `frames` frames, `payload` bytes each.
// read_batch only walks the length chain, so checksums need not verify.
std::string synthetic_batch(uint32_t frames, uint32_t payload) {
  std::string b;
  append_u32(&b, wire::kMagic);
  append_u32(&b, frames);
  append_u64(&b, 0);  // channel_time_ns
  append_u32(&b, 0);  // unknown_ids
  for (uint32_t f = 0; f < frames; ++f) {
    append_u32(&b, payload);
    append_u64(&b, 0);  // checksum (not read_batch's concern)
    b.append(payload, 'x');
  }
  return b;
}

// A connected loopback socket pair for peer-misbehaviour tests.
struct SocketPair {
  transport::Socket client;
  transport::Socket server;
  static SocketPair make() {
    Result<transport::Listener> l = transport::Listener::listen(
        transport::Endpoint::unix_path(unique_unix_path()));
    EXPECT_TRUE(l.ok());
    transport::Listener listener = std::move(l).take();
    Result<transport::Socket> c =
        transport::connect(listener.bound_endpoint(), WallDuration(1000));
    EXPECT_TRUE(c.ok());
    Result<transport::Socket> a = listener.accept(WallDuration(1000));
    EXPECT_TRUE(a.ok());
    return {std::move(c).take(), std::move(a).take()};
  }
};

}  // namespace

// The regression the length-chain reader is held to: a peer that trickles a
// batch frame-by-frame, each gap shorter than the deadline, must cost the
// reader ONE deadline total — not frames × deadline.  (The old code handed
// every recv_exact a fresh relative budget, so a 16-frame batch dribbled at
// 50ms could hold a 300ms reader for ~1.5s.)
TEST(TransportDeadlineTest, TrickledBatchCostsOneDeadlineNotOnePerFrame) {
  SocketPair pair = SocketPair::make();
  const std::string batch = synthetic_batch(16, 64);

  std::atomic<bool> stop{false};
  std::thread dribbler([&] {
    // ~40-byte chunks every 50ms: every individual recv makes progress well
    // inside a 300ms window, but the whole batch takes ~1.5s.
    for (size_t at = 0; at < batch.size() && !stop; at += 40) {
      if (!pair.server.send_all(std::string_view(batch).substr(
              at, std::min<size_t>(40, batch.size() - at))).is_ok()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  const auto t0 = transport::Clock::now();
  transport::BatchReadResult read =
      transport::read_batch(pair.client, WallDuration(300));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      transport::Clock::now() - t0);
  stop = true;
  dribbler.join();

  EXPECT_FALSE(read.clean());
  EXPECT_EQ(read.status.code(), StatusCode::kDeadlineExceeded);
  // One budget, promptly enforced: far under the ~1.5s the dribble runs
  // (slack above 300ms only for scheduler noise, not per-frame restarts).
  EXPECT_LT(elapsed.count(), 900);
  // The bytes that made it are the caller's to reconcile.
  EXPECT_FALSE(read.bytes.empty());
}

// The complement: a slow-but-inside-budget peer is NOT penalized — the
// whole-batch budget only caps total time, it never fails a stream that
// finishes within it.
TEST(TransportDeadlineTest, SlowPeerInsideTheBudgetStillCompletes) {
  SocketPair pair = SocketPair::make();
  const std::string batch = synthetic_batch(8, 32);

  std::thread dribbler([&] {
    for (size_t at = 0; at < batch.size(); at += 64) {
      ASSERT_TRUE(pair.server.send_all(std::string_view(batch).substr(
          at, std::min<size_t>(64, batch.size() - at))).is_ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  transport::BatchReadResult read =
      transport::read_batch(pair.client, WallDuration(5000));
  dribbler.join();
  EXPECT_TRUE(read.clean());
  EXPECT_EQ(read.bytes, batch);
}

// Sends must be as deadline-correct as reads: a peer that never drains its
// receive buffer stalls send() at EAGAIN, and the old unbounded send_all
// would poll forever.  The deadline form returns kDeadlineExceeded with the
// partial-progress offset in the message.
TEST(TransportDeadlineTest, SendAllHonorsDeadlineAgainstAStalledPeer) {
  SocketPair pair = SocketPair::make();
  // Unix-socket buffers are a few hundred KB: 8MB cannot fit, and the peer
  // never reads, so the send MUST stall.
  const std::string payload(8 * 1024 * 1024, 'p');

  const auto t0 = transport::Clock::now();
  Status st = pair.client.send_all(payload, WallDuration(250));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      transport::Clock::now() - t0);

  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("send deadline"), std::string::npos) << st.message();
  EXPECT_LT(elapsed.count(), 1500);
}

// --- accept-error backoff ----------------------------------------------------

namespace {

// Highest open fd number (so RLIMIT_NOFILE can be clamped to allow exactly
// one more).
int max_open_fd() {
  int top = 2;
  for (int fd = 0; fd < 4096; ++fd) {
    if (::fcntl(fd, F_GETFD) != -1) top = fd;
  }
  return top;
}

struct FdLimitGuard {
  rlimit saved{};
  FdLimitGuard() { getrlimit(RLIMIT_NOFILE, &saved); }
  ~FdLimitGuard() { setrlimit(RLIMIT_NOFILE, &saved); }
};

}  // namespace

// A real accept error (EMFILE from fd exhaustion) must not hot-spin the
// serve thread: it counts on the accept_errors counter/metric, backs the
// listener off, and keeps serving live connections throughout.  When the
// famine lifts, the queued connection completes.
TEST(TransportAcceptBackoffTest, AcceptErrorCountsBacksOffAndRecovers) {
  Agent agent("solo", 1);
  ScriptedSource s0("solo/el0", ChannelKind::kProcFs);
  s0.set_attrs({{attr::kRxPkts, 5.0}});
  ASSERT_TRUE(agent.add_element(&s0).is_ok());

  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  MetricsRegistry metrics;
  server.set_metrics(&metrics);
  ASSERT_TRUE(server.start().is_ok());

  RemoteAgent first(server.endpoint());
  ASSERT_TRUE(first.connect().is_ok());
  EXPECT_EQ(server.accept_errors(), 0u);  // normal operation: clean counter

  Status starved_status = Status::unavailable("never dialed");
  {
    FdLimitGuard guard;
    // Leave room for exactly ONE more fd: the dialer's client socket takes
    // it, so the server-side accept of that connection fails with EMFILE.
    rlimit tight = guard.saved;
    tight.rlim_cur = static_cast<rlim_t>(max_open_fd() + 2);
    ASSERT_EQ(0, setrlimit(RLIMIT_NOFILE, &tight));

    RemoteAgent starved(server.endpoint());
    starved.set_deadline(WallDuration(8000));  // outlives max backoff easily
    std::thread dialer([&] { starved_status = starved.connect(); });

    // The kernel completes the TCP handshake into the backlog regardless,
    // so the listener polls readable and the serve loop hits EMFILE.
    const auto wait_until =
        transport::Clock::now() + std::chrono::seconds(5);
    while (server.accept_errors() == 0 &&
           transport::Clock::now() < wait_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(server.accept_errors(), 1u);

    // Backed off, not wedged: the established connection still gets served
    // while the listener sits out.
    BatchResponse b = first.query_batch({s0.id()}, SimTime::millis(1));
    ASSERT_EQ(b.responses.size(), 1u);
    EXPECT_EQ(b.responses[0].quality, DataQuality::kFresh);

    // Famine lifts (guard restores the limit); the queued connection must
    // now complete its handshake within the bounded backoff.
    ASSERT_EQ(0, setrlimit(RLIMIT_NOFILE, &guard.saved));
    dialer.join();
    EXPECT_TRUE(starved_status.is_ok()) << starved_status.message();
  }

  const uint64_t errors = server.accept_errors();
  EXPECT_GE(errors, 1u);
  const std::string text = metrics.expose(SimTime());
  EXPECT_NE(text.find("perfsight_transport_accept_errors_total"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE perfsight_transport_accept_errors_total counter"),
            std::string::npos);
}

// --- TSan churn --------------------------------------------------------------

// Remote scatter queries racing server-side poll sweeps: the adapter's
// connection state, the server's injection slots and the shared Agent all
// see concurrent traffic.  Sources are constant, so the only writes under
// test are the transport's own.
TEST(TransportChurnTest, RemoteQueriesRaceServerSidePolls) {
  TransportRig rig(2, 3, TransportRig::Mode::kTcp);
  ThreadPool pool(4);
  rig.controller_.set_pool(&pool);
  std::vector<ElementId> ids = rig.elements_;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto got =
          rig.controller_.get_attr_many(rig.tenant_, ids, {attr::kRxPkts});
      EXPECT_EQ(got.size(), ids.size());
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)rig.controller_.get_attr_q(rig.tenant_, ids.back(),
                                       {attr::kDropPkts});
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& a : rig.agents_) (void)a->poll_all(SimTime(), &pool);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : threads) t.join();

  RemoteAgent::TransportStats stats = rig.remote(0)->transport_stats();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.damaged, 0u);
}

}  // namespace
}  // namespace perfsight
