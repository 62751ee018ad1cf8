// Golden failure texts of the single-element GetAttr path.  One table: each
// row drives Controller::get_attr_q against whichever AgentClient (in-process
// Agent, socket RemoteAgent, StreamCacheAgent) can produce the failure, and
// pins the exact Status code and message.  Operators grep these strings, and
// the controller merge reconstructs them from batch responses, so they must
// not drift when the collection path underneath changes.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfsight/agent.h"
#include "perfsight/controller.h"
#include "perfsight/faults.h"
#include "perfsight/remote_agent.h"
#include "perfsight/streaming.h"
#include "perfsight/transport.h"

namespace perfsight {
namespace {

class FixedSource : public StatsSource {
 public:
  FixedSource(std::string id, ChannelKind kind)
      : id_{std::move(id)}, kind_(kind) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return kind_; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = {{attr::kRxPkts, 42}};
    return r;
  }

 private:
  ElementId id_;
  ChannelKind kind_;
};

const TenantId kTenant{1};

// A controller on a manual clock, serving `id` from `client`.
struct World {
  SimTime now;
  Controller controller{[this](Duration d) { return now = now + d; },
                        [this] { return now; }};

  void serve(AgentClient* client, const ElementId& id) {
    controller.register_agent(client);
    EXPECT_TRUE(controller.register_element(kTenant, id, client).is_ok());
  }
  Status get(const ElementId& id) {
    Result<Controller::QualifiedRecord> r =
        controller.get_attr_q(kTenant, id, {attr::kRxPkts});
    return r.ok() ? Status::ok() : r.status();
  }
};

FaultPlan always(double transient_p, double timeout_p) {
  FaultPlan plan(5);
  ChannelFaultSpec spec;
  spec.transient_p = transient_p;
  spec.timeout_p = timeout_p;
  plan.set_channel_faults(ChannelKind::kProcFs, spec);
  plan.set_timeout_spike(Duration::millis(3));
  return plan;
}

CircuitBreakerConfig breaker(uint32_t threshold) {
  CircuitBreakerConfig cb;
  cb.failure_threshold = threshold;
  return cb;
}

RetryPolicy attempts(uint32_t n) {
  RetryPolicy p;
  p.max_attempts = n;
  return p;
}

// The element was registered with the controller, then left its agent.
Status unknown_element() {
  FixedSource s("m0/el0", ChannelKind::kProcFs);
  Agent agent("a0", 1);
  EXPECT_TRUE(agent.add_element(&s).is_ok());
  World w;
  w.serve(&agent, s.id());
  EXPECT_TRUE(agent.remove_element(s.id()).is_ok());
  return w.get(s.id());
}

// One failure opens the kind's breaker; the next query fast-fails.
Status breaker_open() {
  FixedSource s("m0/el0", ChannelKind::kProcFs);
  FaultPlan plan = always(1.0, 0);
  Agent agent("a0", 1);
  EXPECT_TRUE(agent.add_element(&s).is_ok());
  agent.set_fault_plan(&plan);
  agent.set_retry_policy(attempts(1));
  agent.set_breaker_config(breaker(1));
  World w;
  w.serve(&agent, s.id());
  w.now = SimTime::millis(1);
  EXPECT_EQ(w.get(s.id()).code(), StatusCode::kUnavailable);
  EXPECT_EQ(agent.breaker_state(ChannelKind::kProcFs), BreakerState::kOpen);
  w.now = SimTime::millis(2);
  return w.get(s.id());
}

// A window captured while every attempt failed, served back from the cache.
Status retries_exhausted() {
  FixedSource s("m0/el0", ChannelKind::kProcFs);
  FaultPlan plan = always(1.0, 0);
  Agent agent("a0", 1);
  EXPECT_TRUE(agent.add_element(&s).is_ok());
  agent.set_fault_plan(&plan);
  agent.set_retry_policy(attempts(3));
  agent.set_breaker_config(breaker(1u << 30));
  StreamCache cache;
  const SimTime at = SimTime::millis(100);
  cache.repair(agent.name(), at, agent.query_batch({s.id()}, at));
  StreamCacheAgent cached(&cache, agent);
  World w;
  w.serve(&cached, s.id());
  w.now = at;
  return w.get(s.id());
}

// Every attempt times out.
Status deadline_exceeded() {
  FixedSource s("m0/el0", ChannelKind::kProcFs);
  FaultPlan plan = always(0, 1.0);
  Agent agent("a0", 1);
  EXPECT_TRUE(agent.add_element(&s).is_ok());
  agent.set_fault_plan(&plan);
  agent.set_retry_policy(attempts(2));
  agent.set_breaker_config(breaker(1u << 30));
  World w;
  w.serve(&agent, s.id());
  w.now = SimTime::millis(1);
  return w.get(s.id());
}

// The server restarts without the element; the reconnect hello drops it.
Status departed_at_reconnect() {
  FixedSource el0("f/el0", ChannelKind::kProcFs);
  FixedSource el1("f/el1", ChannelKind::kProcFs);
  Agent gen1("fleet-0", 1);
  EXPECT_TRUE(gen1.add_element(&el0).is_ok());
  EXPECT_TRUE(gen1.add_element(&el1).is_ok());
  auto server1 = std::make_unique<RemoteAgentServer>(
      &gen1, transport::Endpoint::tcp("127.0.0.1", 0));
  EXPECT_TRUE(server1->start().is_ok());
  const transport::Endpoint ep = server1->endpoint();
  RemoteAgent client(ep);
  EXPECT_TRUE(client.connect().is_ok());
  World w;
  w.serve(&client, el0.id());

  server1->stop();
  Agent gen2("fleet-0", 1);
  EXPECT_TRUE(gen2.add_element(&el1).is_ok());
  RemoteAgentServer server2(&gen2, ep);
  EXPECT_TRUE(server2.start().is_ok());
  (void)client.query_batch({el1.id()}, SimTime::millis(1));  // settle the diff
  w.now = SimTime::millis(2);
  return w.get(el0.id());
}

TEST(CollectionGoldenTest, SingleElementFailureTextsArePinned) {
  struct Case {
    const char* name;
    std::function<Status()> run;
    StatusCode code;
    std::string message;
  };
  const Case cases[] = {
      {"unknown element", unknown_element, StatusCode::kNotFound,
       "agent a0: no element m0/el0"},
      {"breaker-open fast fail", breaker_open, StatusCode::kUnavailable,
       "agent a0: element m0/el0 skipped: circuit open"},
      {"retries exhausted", retries_exhausted, StatusCode::kUnavailable,
       "agent a0: element m0/el0 unavailable after 3 attempt(s)"},
      {"deadline exceeded", deadline_exceeded, StatusCode::kDeadlineExceeded,
       "agent a0: element m0/el0 deadline exceeded after 2 attempt(s)"},
      {"departed at reconnect", departed_at_reconnect,
       StatusCode::kFailedPrecondition,
       "agent fleet-0: element f/el0 departed at reconnect"},
  };
  for (const Case& c : cases) {
    const Status st = c.run();
    EXPECT_EQ(st.code(), c.code) << c.name << ": " << st.message();
    EXPECT_EQ(st.message(), c.message) << c.name;
  }
}

// A window the stream never delivered is a blind spot with the text a lost
// wire frame gets, whether it is read alone or in a batch.
TEST(CollectionGoldenTest, StreamCacheMissingWindowReadsAsBlindSpot) {
  FixedSource s("m0/el0", ChannelKind::kProcFs);
  Agent agent("a0", 1);
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  StreamCache cache;
  StreamCacheAgent cached(&cache, agent);
  World w;
  w.serve(&cached, s.id());
  w.now = SimTime::millis(100);
  const Status single = w.get(s.id());
  EXPECT_EQ(single.code(), StatusCode::kUnavailable);
  EXPECT_EQ(single.message(),
            "agent a0: element m0/el0 unavailable after 1 attempt(s)");
  auto many = w.controller.get_attr_many(kTenant, {s.id(), s.id()},
                                         {attr::kRxPkts});
  ASSERT_EQ(many.size(), 2u);
  for (const auto& r : many) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().message(), single.message());
  }
}

}  // namespace
}  // namespace perfsight
