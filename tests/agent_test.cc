#include "perfsight/agent.h"

#include <gtest/gtest.h>

#include "perfsight/controller.h"
#include "perfsight/rulebook.h"

namespace perfsight {
namespace {

// A scriptable element: tests bump its counters between samples.
class FakeSource : public StatsSource {
 public:
  FakeSource(std::string id, ChannelKind kind)
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

TEST(AgentTest, QueryReturnsRecordWithLatency) {
  Agent agent("a0");
  FakeSource s("m0/pnic", ChannelKind::kNetDeviceFile);
  s.attrs = {{"rxPkts", 10}};
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  auto resp = agent.query_attrs(ElementId{"m0/pnic"}, {"rxPkts"},
                                SimTime::millis(1));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().record.get("rxPkts"), 10.0);
  // net_device channel: ~2 ms per Fig. 9.
  EXPECT_GT(resp.value().response_time.us(), 1000);
  EXPECT_LT(resp.value().response_time.us(), 3000);
}

TEST(AgentTest, NonNetDeviceChannelsAreSubMillisecond) {
  Agent agent("a0");
  FakeSource proc("m0/backlog", ChannelKind::kProcFs);
  FakeSource ovs("m0/vswitch", ChannelKind::kOvsChannel);
  FakeSource qemu("m0/vm0/qemu", ChannelKind::kQemuLog);
  FakeSource mb("m0/vm0/app", ChannelKind::kMbSocket);
  for (auto* s : {&proc, &ovs, &qemu, &mb}) {
    ASSERT_TRUE(agent.add_element(s).is_ok());
    auto resp = agent.query_attrs(s->id(), {}, SimTime{});
    ASSERT_TRUE(resp.ok());
    EXPECT_LT(resp.value().response_time.us(), 500) << s->id().name;
  }
}

TEST(AgentTest, DuplicateRegistrationRejected) {
  Agent agent("a0");
  FakeSource s1("x", ChannelKind::kProcFs), s2("x", ChannelKind::kProcFs);
  EXPECT_TRUE(agent.add_element(&s1).is_ok());
  EXPECT_FALSE(agent.add_element(&s2).is_ok());
}

TEST(AgentTest, UnknownElementNotFound) {
  Agent agent("a0");
  auto resp = agent.query_attrs(ElementId{"nope"}, {}, SimTime{});
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(resp.status().message(), "agent a0: no element nope");
}

TEST(AgentTest, QueryAttrsProjects) {
  Agent agent("a0");
  FakeSource s("e", ChannelKind::kProcFs);
  s.attrs = {{"a", 1}, {"b", 2}, {"c", 3}};
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  auto resp = agent.query_attrs(ElementId{"e"}, {"b"}, SimTime{});
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.value().record.attrs.size(), 1u);
  EXPECT_EQ(resp.value().record.attrs[0].name, "b");
}

TEST(AgentTest, PollAllCoversEveryElement) {
  Agent agent("a0");
  FakeSource a("a", ChannelKind::kProcFs), b("b", ChannelKind::kMbSocket);
  ASSERT_TRUE(agent.add_element(&a).is_ok());
  ASSERT_TRUE(agent.add_element(&b).is_ok());
  auto all = agent.poll_all(SimTime{});
  EXPECT_EQ(all.size(), 2u);
}

TEST(WireBatchTest, RoundTripsMultipleRecords) {
  std::vector<StatsRecord> records(3);
  for (int i = 0; i < 3; ++i) {
    records[i].timestamp = SimTime::millis(i);
    records[i].element = ElementId{"el" + std::to_string(i)};
    records[i].attrs = {{"v", static_cast<double>(i * 10)}};
  }
  std::string msg = to_wire_batch(records);
  Result<std::vector<StatsRecord>> back = from_wire_batch(msg);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 3u);
  EXPECT_EQ(back.value()[2].element.name, "el2");
  EXPECT_EQ(back.value()[2].get("v"), 20.0);
}

TEST(WireBatchTest, BlankLinesTolerated) {
  Result<std::vector<StatsRecord>> r =
      from_wire_batch("\n<1, a>\n\n<2, b>\n\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
}

TEST(WireBatchTest, CorruptLineFailsWholeBatch) {
  Result<std::vector<StatsRecord>> r =
      from_wire_batch("<1, a>\ngarbage\n<2, b>\n");
  EXPECT_FALSE(r.ok());
}

// --- Controller over fake agents ------------------------------------------

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : agent_("a0"),
        src_("m0/vm0/tun", ChannelKind::kNetDeviceFile),
        controller_([this](Duration d) { return advance(d); },
                    [this] { return now_; }) {
    src_.attrs = {{attr::kRxPkts, 0},
                  {attr::kTxPkts, 0},
                  {attr::kTxBytes, 0},
                  {attr::kDropPkts, 0}};
    EXPECT_TRUE(agent_.add_element(&src_).is_ok());
    controller_.register_agent(&agent_);
    EXPECT_TRUE(
        controller_.register_element(TenantId{1}, src_.id(), &agent_)
            .is_ok());
  }

  SimTime advance(Duration d) {
    now_ = now_ + d;
    if (on_advance_) on_advance_();
    return now_;
  }

  SimTime now_;
  Agent agent_;
  FakeSource src_;
  Controller controller_;
  std::function<void()> on_advance_;
};

TEST_F(ControllerTest, GetAttrResolvesTenantElement) {
  auto r = controller_.get_attr(TenantId{1}, src_.id(), {attr::kRxPkts});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().get(attr::kRxPkts), 0.0);
}

TEST_F(ControllerTest, GetThroughputUsesTwoSamples) {
  // 125000 bytes over 10 ms -> 100 Mbps.
  on_advance_ = [this] { src_.attrs[2].value += 125000; };
  auto r =
      controller_.get_throughput(TenantId{1}, src_.id(), Duration::millis(10));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().mbits_per_sec(), 100.0, 1e-6);
}

TEST_F(ControllerTest, GetPktLossPrefersDropCounter) {
  on_advance_ = [this] { src_.attrs[3].value += 42; };
  auto r =
      controller_.get_pkt_loss(TenantId{1}, src_.id(), Duration::millis(10));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST_F(ControllerTest, GetPktLossFallsBackToInMinusOut) {
  src_.attrs = {{attr::kRxPkts, 100}, {attr::kTxPkts, 100}};
  on_advance_ = [this] {
    src_.attrs[0].value += 50;  // in grows 50
    src_.attrs[1].value += 30;  // out grows 30 -> loss 20
  };
  auto r =
      controller_.get_pkt_loss(TenantId{1}, src_.id(), Duration::millis(10));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 20);
}

TEST_F(ControllerTest, GetAvgPktSize) {
  src_.attrs = {{attr::kTxBytes, 0}, {attr::kTxPkts, 0}};
  on_advance_ = [this] {
    src_.attrs[0].value += 150000;
    src_.attrs[1].value += 100;
  };
  auto r = controller_.get_avg_pkt_size(TenantId{1}, src_.id(),
                                        Duration::millis(10));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 1500.0, 1e-9);
}

TEST_F(ControllerTest, ChainRegistrationAndLookup) {
  ElementId lb{"lb"}, cf{"cf"}, server{"server"};
  controller_.register_middlebox(TenantId{1}, lb);
  controller_.register_middlebox(TenantId{1}, cf);
  controller_.register_middlebox(TenantId{1}, server);
  controller_.add_chain_edge(TenantId{1}, lb, cf);
  controller_.add_chain_edge(TenantId{1}, cf, server);
  EXPECT_EQ(controller_.middleboxes(TenantId{1}).size(), 3u);
  EXPECT_TRUE(controller_.chain(TenantId{1}).successors(lb).count(server));
}

// --- Rule book -----------------------------------------------------------

TEST(RuleBookTest, Table1ForwardMappings) {
  RuleBook rb = RuleBook::standard();
  auto has = [](const std::vector<ElementKind>& v, ElementKind k) {
    return std::find(v.begin(), v.end(), k) != v.end();
  };
  EXPECT_TRUE(has(rb.symptom_locations(ResourceKind::kIncomingBandwidth),
                  ElementKind::kPNic));
  EXPECT_TRUE(has(rb.symptom_locations(ResourceKind::kBacklogQueue),
                  ElementKind::kPCpuBacklog));
  EXPECT_TRUE(
      has(rb.symptom_locations(ResourceKind::kCpu), ElementKind::kTun));
  EXPECT_TRUE(has(rb.symptom_locations(ResourceKind::kMemoryBandwidth),
                  ElementKind::kTun));
  EXPECT_TRUE(
      has(rb.symptom_locations(ResourceKind::kVmLocal), ElementKind::kTun));
}

TEST(RuleBookTest, TunMultiVmIsAmbiguousUntilDisambiguated) {
  RuleBook rb = RuleBook::standard();
  auto cands = rb.candidates(ElementKind::kTun, LossSpread::kMultiVm);
  EXPECT_GE(cands.size(), 3u);  // CPU / membw / egress (+ mem space)

  AuxSignals aux;
  aux.host_cpu_utilization = 0.3;             // CPU not contended
  aux.nic_capacity = DataRate::gbps(10);
  aux.nic_tx_throughput = DataRate::gbps(2);  // NIC far from saturated
  aux.memory_pressure = false;
  auto refined = RuleBook::disambiguate(cands, aux);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_EQ(refined[0], ResourceKind::kMemoryBandwidth);
}

TEST(RuleBookTest, SingleVmTunIsVmBottleneck) {
  RuleBook rb = RuleBook::standard();
  auto cands = rb.candidates(ElementKind::kTun, LossSpread::kSingleVm);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0], ResourceKind::kVmLocal);
}

}  // namespace
}  // namespace perfsight
