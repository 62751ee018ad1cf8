// Push-mode streaming telemetry: the streamed-vs-sweep fidelity gate.
//
// The contract under test (streaming.h): a diagnosis stack fed from the
// materialized stream cache produces output BYTE-IDENTICAL to the same
// stack running pull sweeps against the live agents — same Algorithm 1/2
// rankings, same blind-spot/coverage annotations, same alert firings —
// clean, under a fault campaign with scheduled outages, with stream frames
// dropped in transit (gap → targeted pull repair), and at pool sizes 1 and
// 4.  The differential runs the same seeded scenario through worlds
// sharing the same pure time-keyed sources, concatenates every report into
// one transcript per world, and string-compares the transcripts against an
// oracle world whose agents answer one element per round trip.
//
// Also here: the StreamCache gap state machine (gap → repair → re-apply,
// publisher-restart rebase), the remote kSubscribe/kStreamData path end to
// end (snapshot-first, injected skip → client-visible gap, reconnect), the
// zero-bytes-when-unsubscribed guarantee, and a TSan churn variant racing
// subscriber reconnects against publish ticks.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.h"
#include "perfsight/agent.h"
#include "perfsight/alert.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/faults.h"
#include "perfsight/monitor.h"
#include "perfsight/remote_agent.h"
#include "perfsight/rootcause.h"
#include "perfsight/rulebook.h"
#include "perfsight/streaming.h"
#include "perfsight/transport.h"
#include "perfsight/wire.h"
#include "support/oracles.h"

namespace perfsight {
namespace {

constexpr TenantId kTenant{1};
const Duration kWindow = Duration::millis(100);

// A source whose attrs are a pure function of the query time.  Both worlds
// of a differential share the same FnSource objects: there is no state to
// mutate, so a capture at boundary t, a pull sweep at t, and a repair pull
// replaying t all read identical bits — from any thread.
class FnSource : public StatsSource {
 public:
  using Fn = std::function<std::vector<Attr>(SimTime)>;
  FnSource(std::string id, ChannelKind kind, Fn fn)
      : id_{std::move(id)}, kind_(kind), fn_(std::move(fn)) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return kind_; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = fn_(now);
    return r;
  }

 private:
  ElementId id_;
  ChannelKind kind_;
  Fn fn_;
};

// Windows elapsed at t (fractional).
double win(SimTime t) {
  return static_cast<double>(t.ns()) / static_cast<double>(kWindow.ns());
}

// Two machines.  m0's pNIC leaks 800 pkts per window (Algorithm 1 finds a
// shared-kind contention); m1 is healthy.  m0 also hosts a two-middlebox
// chain for Algorithm 2.  m1/pnic is mirrored onto a0, so an outage of a1
// exercises the quorum path while a1's TUNs become blind spots.
std::vector<std::unique_ptr<FnSource>> make_scenario() {
  auto counter = [](double per_window) {
    return [per_window](SimTime t) { return per_window * win(t); };
  };
  auto c = counter;  // brevity below
  std::vector<std::unique_ptr<FnSource>> out;
  auto add = [&](std::string name, ChannelKind kind,
                 std::vector<std::pair<std::string,
                                       std::function<double(SimTime)>>> fns) {
    out.push_back(std::make_unique<FnSource>(
        std::move(name), kind, [fns = std::move(fns)](SimTime t) {
          std::vector<Attr> attrs;
          attrs.reserve(fns.size());
          for (const auto& [k, f] : fns) attrs.push_back({k, f(t)});
          return attrs;
        }));
  };
  auto gauge = [](double v) { return [v](SimTime) { return v; }; };
  const double kPNicKind = static_cast<double>(ElementKind::kPNic);
  const double kTunKind = static_cast<double>(ElementKind::kTun);
  const double kMbKind = static_cast<double>(ElementKind::kMiddleboxApp);

  add("m0/pnic", ChannelKind::kNetDeviceFile,
      {{attr::kRxPkts, c(12000)}, {attr::kTxPkts, c(11200)},
       {attr::kDropPkts, c(800)}, {attr::kType, gauge(kPNicKind)},
       {attr::kVm, gauge(-1)}});
  add("m1/pnic", ChannelKind::kNetDeviceFile,
      {{attr::kRxPkts, c(9000)}, {attr::kTxPkts, c(9000)},
       {attr::kDropPkts, c(0)}, {attr::kType, gauge(kPNicKind)},
       {attr::kVm, gauge(-1)}});
  add("m0/vm0/tun", ChannelKind::kProcFs,
      {{attr::kRxPkts, c(6000)}, {attr::kTxPkts, c(6000)},
       {attr::kType, gauge(kTunKind)}, {attr::kVm, gauge(0)}});
  add("m0/vm1/tun", ChannelKind::kProcFs,
      {{attr::kRxPkts, c(5000)}, {attr::kTxPkts, c(5000)},
       {attr::kType, gauge(kTunKind)}, {attr::kVm, gauge(1)}});
  add("m1/vm0/tun", ChannelKind::kProcFs,
      {{attr::kRxPkts, c(4000)}, {attr::kTxPkts, c(4000)},
       {attr::kType, gauge(kTunKind)}, {attr::kVm, gauge(0)}});
  add("m1/vm1/tun", ChannelKind::kProcFs,
      {{attr::kRxPkts, c(3000)}, {attr::kTxPkts, c(3000)},
       {attr::kType, gauge(kTunKind)}, {attr::kVm, gauge(1)}});
  // mb0: input arrives faster than it drains (ReadBlocked side signal);
  // mb1 keeps up.  Capacity is a gauge.
  add("m0/mb0", ChannelKind::kMbSocket,
      {{attr::kInBytes, c(8e6)}, {attr::kInTimeNs, c(9e7)},
       {attr::kOutBytes, c(8e6)}, {attr::kOutTimeNs, c(9.5e7)},
       {attr::kCapacityMbps, gauge(1000)}, {attr::kType, gauge(kMbKind)},
       {attr::kVm, gauge(-1)}});
  add("m0/mb1", ChannelKind::kMbSocket,
      {{attr::kInBytes, c(8e6)}, {attr::kInTimeNs, c(6.3e7)},
       {attr::kOutBytes, c(8e6)}, {attr::kOutTimeNs, c(6.3e7)},
       {attr::kCapacityMbps, gauge(1000)}, {attr::kType, gauge(kMbKind)},
       {attr::kVm, gauge(-1)}});
  return out;
}

bool starts_with(const std::string& s, const std::string& p) {
  return s.rfind(p, 0) == 0;
}

// Exact (bit-level) attr equality: fidelity means identical doubles, not
// merely close ones.
void expect_attrs_eq(const std::vector<Attr>& got, const std::vector<Attr>& want,
                     const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name) << ctx;
    EXPECT_EQ(got[i].value, want[i].value) << ctx << " attr " << got[i].name;
  }
}

RetryPolicy lenient_retry() {
  RetryPolicy p;
  p.max_attempts = 2;
  return p;
}

CircuitBreakerConfig no_breakers() {
  return CircuitBreakerConfig{1u << 30, Duration::millis(20)};
}

// How a world's controller reaches its agents.
enum class Mode {
  kSequential,  // live agents, one element per round trip (the oracle)
  kPull,        // live agents, batched
  kStreamed,    // StreamCacheAgents fed by a StreamPipeline
};

// One world: a controller + two agents over the shared scenario sources.
class Rig {
 public:
  Rig(const std::vector<std::unique_ptr<FnSource>>& sources,
      const FaultPlan* plan, Mode mode, ThreadPool* pool)
      : streamed_(mode == Mode::kStreamed) {
    a0_ = std::make_unique<Agent>("a0", 11);
    a1_ = std::make_unique<Agent>("a1", 12);
    for (const auto& s : sources) {
      Agent* owner = starts_with(s->id().name, "m0/") ? a0_.get() : a1_.get();
      EXPECT_TRUE(owner->add_element(s.get()).is_ok());
      // a0 doubles as the read replica for m1/pnic.
      if (s->id().name == "m1/pnic") {
        EXPECT_TRUE(a0_->add_element(s.get()).is_ok());
      }
    }
    for (Agent* a : {a0_.get(), a1_.get()}) {
      a->set_fault_plan(plan);
      a->set_retry_policy(lenient_retry());
      a->set_breaker_config(no_breakers());
    }

    AgentClient* c0 = a0_.get();
    AgentClient* c1 = a1_.get();
    if (streamed_) {
      pipe_ = std::make_unique<StreamPipeline>(&cache_, plan);
      pipe_->add_agent(a0_.get());
      pipe_->add_agent(a1_.get());
      ca0_ = std::make_unique<StreamCacheAgent>(&cache_, *a0_);
      ca1_ = std::make_unique<StreamCacheAgent>(&cache_, *a1_);
      c0 = ca0_.get();
      c1 = ca1_.get();
    } else if (mode == Mode::kSequential) {
      sa0_ = std::make_unique<oracle::SequentialAgent>(a0_.get());
      sa1_ = std::make_unique<oracle::SequentialAgent>(a1_.get());
      c0 = sa0_.get();
      c1 = sa1_.get();
    }

    ctl_ = std::make_unique<Controller>(
        [this](Duration d) {
          now_ = now_ + d;
          return now_;
        },
        [this] { return now_; });
    ctl_->register_agent(c0);
    ctl_->register_agent(c1);
    for (const auto& s : sources) {
      AgentClient* owner = starts_with(s->id().name, "m0/") ? c0 : c1;
      EXPECT_TRUE(ctl_->register_element(kTenant, s->id(), owner).is_ok());
      const bool stack = s->id().name.find("pnic") != std::string::npos ||
                         s->id().name.find("tun") != std::string::npos;
      if (stack) ctl_->register_stack_element(owner, s->id());
    }
    EXPECT_TRUE(ctl_->register_mirror(kTenant, ElementId{"m1/pnic"}, c0).is_ok());
    ctl_->register_middlebox(kTenant, ElementId{"m0/mb0"});
    ctl_->register_middlebox(kTenant, ElementId{"m0/mb1"});
    ctl_->add_chain_edge(kTenant, ElementId{"m0/mb0"}, ElementId{"m0/mb1"});
    ctl_->set_pool(pool);
  }

  Controller& ctl() { return *ctl_; }
  void set_now(SimTime t) { now_ = t; }
  void pump(SimTime at, ThreadPool* pool) {
    ASSERT_TRUE(streamed_);
    Status st = pipe_->pump(at, pool);
    EXPECT_TRUE(st.is_ok()) << st.message();
  }
  const StreamCache& cache() const { return cache_; }
  StreamPipeline* pipe() { return pipe_.get(); }

 private:
  bool streamed_;
  SimTime now_;
  std::unique_ptr<Agent> a0_, a1_;
  StreamCache cache_;
  std::unique_ptr<StreamPipeline> pipe_;
  std::unique_ptr<StreamCacheAgent> ca0_, ca1_;
  std::unique_ptr<oracle::SequentialAgent> sa0_, sa1_;
  std::unique_ptr<Controller> ctl_;
};

// The identical diagnosis script both worlds run: per boundary k the
// streamed world pumps the window at kW first, then BOTH worlds replay
// diagnosis for the window [(k-1)W, kW] — one window behind the stream, so
// every sweep instant the detectors touch is already materialized.
std::string run_script(Rig& rig, bool streamed, ThreadPool* pool) {
  ContentionDetector det(&rig.ctl(), RuleBook::standard());
  det.set_loss_threshold(10);
  det.set_pool(pool);
  RootCauseAnalyzer rca(&rig.ctl());
  Monitor mon(&rig.ctl(), kTenant);
  mon.watch(ElementId{"m0/pnic"}, attr::kDropPkts);
  mon.watch(ElementId{"m1/pnic"}, attr::kRxPkts);
  mon.watch(ElementId{"m0/mb0"}, attr::kInBytes);
  AlertWatcher watcher(&mon, &det, &rca);
  watcher.set_pool(pool);
  AlertRule drops;
  drops.name = "pnic-drops";
  drops.element = ElementId{"m0/pnic"};
  drops.attr = attr::kDropPkts;
  drops.on_rate = true;
  drops.threshold = 5000;  // scenario leaks 8000 pkts/s
  drops.action = AlertRule::Action::kContention;
  drops.window = kWindow;
  drops.cooldown = Duration::millis(250);
  watcher.add_rule(drops);
  AlertRule inflow;
  inflow.name = "mb-inflow";
  inflow.element = ElementId{"m0/mb0"};
  inflow.attr = attr::kInBytes;
  inflow.on_rate = true;
  inflow.threshold = 1e7;  // scenario flows 8e7 B/s through mb0
  inflow.action = AlertRule::Action::kRootCause;
  inflow.window = kWindow;
  inflow.cooldown = Duration::millis(350);
  watcher.add_rule(inflow);

  // Diagnosis replays TWO windows behind the stream's live edge: each
  // alert-triggered diagnosis advances the clock by one window, and both
  // rules can fire in the same check(), so a cascade starting at (k-2)W
  // reaches at most kW — exactly the boundary just pumped.  The replay lag
  // must cover the furthest instant the diagnosis chain itself can touch.
  if (streamed) {
    rig.pump(SimTime{}, pool);
    rig.pump(SimTime::millis(100), pool);
  }
  std::string out;
  for (int k = 2; k <= 11; ++k) {
    const SimTime tk = SimTime::millis(100 * k);
    const SimTime tlo = SimTime::millis(100 * (k - 2));
    if (streamed) rig.pump(tk, pool);
    out += "== window " + std::to_string(k - 1) + " ==\n";
    rig.set_now(tlo);
    out += to_text(det.diagnose(kTenant, kWindow));
    rig.set_now(tlo);
    out += to_text(rca.analyze(kTenant, kWindow));
    rig.set_now(tlo);
    mon.sample(pool);
    for (const Alert& a : watcher.check()) out += to_text(a);
  }
  return out;
}

struct WorldRun {
  std::string transcript;
  StreamCache::Stats stream_stats;
  uint64_t frames_dropped = 0;
};

WorldRun run_world(const std::string& plan_spec, Mode mode,
                   size_t pool_size) {
  const bool streamed = mode == Mode::kStreamed;
  std::optional<FaultPlan> plan;
  if (!plan_spec.empty()) {
    plan = FaultPlan::parse(plan_spec);
    EXPECT_TRUE(plan.has_value()) << "unparseable plan: " << plan_spec;
  }
  auto sources = make_scenario();
  ThreadPool pool(pool_size);
  Rig rig(sources, plan ? &*plan : nullptr, mode, &pool);
  WorldRun r;
  r.transcript = run_script(rig, streamed, &pool);
  if (streamed) {
    r.stream_stats = rig.cache().stats();
    r.frames_dropped = rig.pipe()->frames_dropped();
  }
  return r;
}

// --- the fidelity gate -------------------------------------------------------

TEST(StreamingDifferentialTest, CleanScenarioByteIdentical) {
  const WorldRun pull1 = run_world("seed=11", Mode::kSequential, 1);
  ASSERT_FALSE(pull1.transcript.empty());
  // The healthy scenario must actually diagnose something, or the gate
  // proves nothing.
  EXPECT_NE(pull1.transcript.find("CONTENTION"), std::string::npos);
  EXPECT_NE(pull1.transcript.find("pnic-drops"), std::string::npos);
  for (size_t pool_size : {size_t{1}, size_t{4}}) {
    const WorldRun pull = run_world("seed=11", Mode::kPull, pool_size);
    const WorldRun stream = run_world("seed=11", Mode::kStreamed, pool_size);
    EXPECT_EQ(pull1.transcript, pull.transcript) << "pool=" << pool_size;
    EXPECT_EQ(pull.transcript, stream.transcript) << "pool=" << pool_size;
  }
}

TEST(StreamingDifferentialTest, FaultCampaignByteIdentical) {
  // Channel faults + dropped stream frames + a scheduled outage of a1
  // covering window boundaries 300/400ms.  The campaign grammar string is
  // the plan: both worlds parse the same spec.
  const std::string spec =
      "seed=11,transient=0.08,timeout=0.05,torn=0.05,stream_drop=0.3,"
      "outage=a1@300-500";
  const WorldRun pull1 = run_world(spec, Mode::kSequential, 1);
  // The campaign must actually bite: a1's unmirrored TUNs go dark, so the
  // reports carry blind-spot/coverage annotations.
  EXPECT_NE(pull1.transcript.find("blind spots"), std::string::npos);
  EXPECT_NE(pull1.transcript.find("missing"), std::string::npos);
  for (size_t pool_size : {size_t{1}, size_t{4}}) {
    const WorldRun pull = run_world(spec, Mode::kPull, pool_size);
    const WorldRun stream = run_world(spec, Mode::kStreamed, pool_size);
    EXPECT_EQ(pull1.transcript, pull.transcript) << "pool=" << pool_size;
    EXPECT_EQ(pull.transcript, stream.transcript) << "pool=" << pool_size;
    // With stream_drop=0.3 over 22 frames, some frames must be lost and
    // repaired by targeted pulls — the fidelity holds THROUGH the repair
    // path, not because no frame ever dropped.
    EXPECT_GT(stream.frames_dropped, 0u);
    EXPECT_EQ(stream.stream_stats.repairs, stream.frames_dropped);
    EXPECT_GT(stream.stream_stats.frames_applied, 0u);
  }
}

// --- cache gap state machine -------------------------------------------------

TEST(StreamCacheTest, GapRepairedByPullsThenReapplied) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  StreamPublisher pub(&a0);
  std::vector<std::string> bodies;
  for (int k = 1; k <= 5; ++k) {
    Result<StreamPublisher::Published> p =
        pub.publish(SimTime::millis(100 * k));
    ASSERT_TRUE(p.ok()) << p.status().message();
    bodies.push_back(p.value().body);
  }

  StreamCache cache;
  for (int i : {0, 1}) {
    Result<StreamCache::ApplyResult> r = cache.apply(bodies[i]);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_TRUE(r.value().applied);
  }
  // Frames 3 and 4 lost in transit; frame 5 arrives and betrays the gap.
  Result<StreamCache::ApplyResult> gap = cache.apply(bodies[4]);
  ASSERT_TRUE(gap.ok()) << gap.status().message();
  EXPECT_FALSE(gap.value().applied);
  EXPECT_EQ(gap.value().seq, 5u);
  EXPECT_EQ(gap.value().expected, 3u);
  EXPECT_EQ(gap.value().missed, 2u);
  EXPECT_EQ(cache.stats().gaps, 1u);
  EXPECT_FALSE(cache.window_present("a0", SimTime::millis(300)));

  // Repair the missed windows with targeted pulls at the same boundaries,
  // then the held frame applies.
  cache.repair("a0", SimTime::millis(300),
               a0.query_batch(ids, SimTime::millis(300)));
  cache.repair("a0", SimTime::millis(400),
               a0.query_batch(ids, SimTime::millis(400)));
  Result<StreamCache::ApplyResult> again = cache.apply(bodies[4]);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_TRUE(again.value().applied);
  EXPECT_EQ(cache.next_seq("a0"), 6u);

  // Provenance is honest; the records are not distinguishable.
  EXPECT_EQ(cache.window_provenance("a0", SimTime::millis(300)),
            StreamCache::Provenance::kRepaired);
  EXPECT_EQ(cache.window_provenance("a0", SimTime::millis(500)),
            StreamCache::Provenance::kStreamed);
  for (int ms : {100, 200, 300, 400, 500}) {
    const BatchResponse direct = a0.query_batch(ids, SimTime::millis(ms));
    ASSERT_EQ(direct.responses.size(), ids.size());
    for (const QueryResponse& want : direct.responses) {
      std::optional<QueryResponse> cached =
          cache.find("a0", want.record.element, SimTime::millis(ms));
      ASSERT_TRUE(cached.has_value()) << want.record.element.name << " @ " << ms;
      expect_attrs_eq(cached->record.attrs, want.record.attrs,
                      want.record.element.name + " @ " + std::to_string(ms));
    }
  }
}

TEST(StreamCacheTest, PublisherRestartRebasesViaSnapshot) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  for (const auto& s : sources) {
    if (starts_with(s->id().name, "m0/")) {
      ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    }
  }
  StreamCache cache;
  {
    StreamPublisher pub(&a0);
    for (int k = 1; k <= 3; ++k) {
      Result<StreamPublisher::Published> p =
          pub.publish(SimTime::millis(100 * k));
      ASSERT_TRUE(p.ok());
      Result<StreamCache::ApplyResult> r = cache.apply(p.value().body);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r.value().applied);
    }
  }
  // The publisher restarts: seq falls back to 1 and its first frame is a
  // snapshot, which rebases the stream instead of erroring.
  StreamPublisher restarted(&a0);
  Result<StreamPublisher::Published> p =
      restarted.publish(SimTime::millis(400));
  ASSERT_TRUE(p.ok());
  Result<StreamCache::ApplyResult> r = cache.apply(p.value().body);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(r.value().applied);
  EXPECT_TRUE(r.value().regressed);
  EXPECT_EQ(cache.stats().resets, 1u);
  EXPECT_EQ(cache.next_seq("a0"), 2u);
  // History survives the rebase.
  EXPECT_TRUE(cache.window_present("a0", SimTime::millis(200)));
  EXPECT_TRUE(cache.window_present("a0", SimTime::millis(400)));
}

TEST(StreamCacheTest, RepairBeyondRetentionHorizonIsClamped) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  StreamCache cache;
  cache.set_retention(3);
  StreamPublisher pub(&a0);
  for (int k = 1; k <= 8; ++k) {
    Result<StreamPublisher::Published> p =
        pub.publish(SimTime::millis(100 * k));
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(cache.apply(p.value().body).ok());
  }
  const uint64_t pruned_before = cache.stats().windows_pruned;
  const uint64_t next_before = cache.next_seq("a0");

  // A late watchdog repairs a boundary that has already aged past the
  // retention horizon (only 600..800 are retained).  The backfill must be
  // dropped whole: no resurrected window, no extra prune, no cursor damage.
  cache.repair("a0", SimTime::millis(200),
               a0.query_batch(ids, SimTime::millis(200)));
  EXPECT_FALSE(cache.window_present("a0", SimTime::millis(200)));
  EXPECT_EQ(cache.stats().windows_pruned, pruned_before);
  EXPECT_EQ(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().repairs_clamped, 1u);
  EXPECT_EQ(cache.next_seq("a0"), next_before);

  // The live edge is untouched: the next in-order frame still applies.
  Result<StreamPublisher::Published> p9 = pub.publish(SimTime::millis(900));
  ASSERT_TRUE(p9.ok());
  Result<StreamCache::ApplyResult> r9 = cache.apply(p9.value().body);
  ASSERT_TRUE(r9.ok()) << r9.status().message();
  EXPECT_TRUE(r9.value().applied);
  EXPECT_TRUE(cache.window_present("a0", SimTime::millis(900)));
}

TEST(StreamCacheTest, RestartedPublisherDeltaFrameResyncsViaSnapshot) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  StreamCache cache;
  {
    StreamPublisher pub(&a0);
    for (int k = 1; k <= 3; ++k) {
      Result<StreamPublisher::Published> p =
          pub.publish(SimTime::millis(100 * k));
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE(cache.apply(p.value().body).value().applied);
    }
  }

  // The publisher restarts with the same element set and its seq reset to
  // 1.  Its snapshot (seq 1) is lost in transit; what the subscriber first
  // sees of the new epoch is a DELTA frame (seq 2).  The old behavior was a
  // permanent failure loop: regressed -> decode without base -> hard error,
  // on every subsequent frame, forever.
  StreamPublisher restarted(&a0);
  ASSERT_TRUE(restarted.publish(SimTime::millis(400)).ok());  // lost
  Result<StreamPublisher::Published> delta =
      restarted.publish(SimTime::millis(500));
  ASSERT_TRUE(delta.ok());

  Result<StreamCache::ApplyResult> r = cache.apply(delta.value().body);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_FALSE(r.value().applied);
  EXPECT_TRUE(r.value().needs_snapshot);
  EXPECT_TRUE(r.value().regressed);
  EXPECT_EQ(cache.stats().snapshot_requests, 1u);
  // The stream cursor is untouched — no half-applied epoch.
  EXPECT_EQ(cache.next_seq("a0"), 4u);

  // The resync: the publisher re-keys the next frame as a snapshot, which
  // rebases the cache onto the new epoch.
  restarted.force_snapshot();
  Result<StreamPublisher::Published> snap =
      restarted.publish(SimTime::millis(600));
  ASSERT_TRUE(snap.ok());
  Result<StreamCache::ApplyResult> r2 = cache.apply(snap.value().body);
  ASSERT_TRUE(r2.ok()) << r2.status().message();
  EXPECT_TRUE(r2.value().applied);
  EXPECT_TRUE(r2.value().regressed);
  EXPECT_EQ(cache.next_seq("a0"), 4u);  // rebased onto the new epoch's seq 3

  // Deltas of the new epoch now flow, and every cached window carries
  // exactly the bits a direct pull at that boundary returns.
  Result<StreamPublisher::Published> next =
      restarted.publish(SimTime::millis(700));
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(cache.apply(next.value().body).value().applied);
  for (int ms : {100, 200, 300, 600, 700}) {
    const BatchResponse direct = a0.query_batch(ids, SimTime::millis(ms));
    ASSERT_EQ(direct.responses.size(), ids.size());
    for (const QueryResponse& want : direct.responses) {
      std::optional<QueryResponse> cached =
          cache.find("a0", want.record.element, SimTime::millis(ms));
      ASSERT_TRUE(cached.has_value())
          << want.record.element.name << " @ " << ms;
      expect_attrs_eq(cached->record.attrs, want.record.attrs,
                      want.record.element.name + " @ " + std::to_string(ms));
    }
  }
}

TEST(StreamPipelineTest, CacheResetMidStreamResyncsViaSnapshot) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  StreamCache cache;
  StreamPipeline pipe(&cache, nullptr);
  pipe.add_agent(&a0);
  ASSERT_TRUE(pipe.pump(SimTime::millis(100), nullptr).is_ok());
  ASSERT_TRUE(pipe.pump(SimTime::millis(200), nullptr).is_ok());

  // The cache loses its stream state mid-run (operator restart, failover to
  // a cold replica).  The next pump ships a delta the cache cannot decode;
  // the pipeline must resync via a snapshot republish, not error out.
  cache.reset_stream("a0");
  Status st = pipe.pump(SimTime::millis(300), nullptr);
  EXPECT_TRUE(st.is_ok()) << st.message();
  EXPECT_EQ(cache.stats().snapshot_requests, 1u);
  EXPECT_TRUE(cache.window_present("a0", SimTime::millis(300)));
  // And the stream continues delta-coded afterwards.
  ASSERT_TRUE(pipe.pump(SimTime::millis(400), nullptr).is_ok());
  for (int ms : {300, 400}) {
    const BatchResponse direct = a0.query_batch(ids, SimTime::millis(ms));
    for (const QueryResponse& want : direct.responses) {
      std::optional<QueryResponse> cached =
          cache.find("a0", want.record.element, SimTime::millis(ms));
      ASSERT_TRUE(cached.has_value())
          << want.record.element.name << " @ " << ms;
      expect_attrs_eq(cached->record.attrs, want.record.attrs,
                      want.record.element.name + " @ " + std::to_string(ms));
    }
  }
}

TEST(StreamCacheTest, RetentionPrunesOldestWindows) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  for (const auto& s : sources) {
    if (starts_with(s->id().name, "m0/")) {
      ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    }
  }
  StreamCache cache;
  cache.set_retention(3);
  StreamPublisher pub(&a0);
  for (int k = 1; k <= 8; ++k) {
    Result<StreamPublisher::Published> p =
        pub.publish(SimTime::millis(100 * k));
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(cache.apply(p.value().body).ok());
  }
  EXPECT_EQ(cache.stats().windows_pruned, 5u);
  EXPECT_FALSE(cache.window_present("a0", SimTime::millis(500)));
  EXPECT_TRUE(cache.window_present("a0", SimTime::millis(600)));
  EXPECT_TRUE(cache.window_present("a0", SimTime::millis(800)));
}

// --- remote kSubscribe / kStreamData ----------------------------------------

TEST(RemoteStreamingTest, UnsubscribedPublishesShipZeroBytes) {
  auto sources = make_scenario();
  Agent agent("ra", 5);
  for (const auto& s : sources) {
    if (starts_with(s->id().name, "m0/")) {
      ASSERT_TRUE(agent.add_element(s.get()).is_ok());
    }
  }
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());

  // Publish ticks with no subscriber capture nothing and send nothing —
  // a deployment that never subscribes pays zero stream bytes.
  server.request_publish(SimTime::millis(50));
  server.request_publish(SimTime::millis(100));
  EXPECT_EQ(server.stream_frames_published(), 0u);

  // A plain request/reply client on the same server still works (streaming
  // compiled in but unused does not disturb the pull path).
  StreamSubscriber sub(server.endpoint());
  ASSERT_TRUE(sub.connect(transport::WallDuration(2000)).is_ok());
  EXPECT_EQ(sub.hello().agent_name, "ra");
  server.request_publish(SimTime::millis(150));
  Result<std::string> body = sub.next_body(transport::WallDuration(5000));
  ASSERT_TRUE(body.ok()) << body.status().message();
  EXPECT_EQ(server.stream_frames_published(), 1u);
  server.stop();
}

TEST(RemoteStreamingTest, GapRepairRecoversByteEqualState) {
  auto sources = make_scenario();
  Agent agent("ra", 5);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(agent.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());
  StreamSubscriber sub(server.endpoint());
  ASSERT_TRUE(sub.connect(transport::WallDuration(2000)).is_ok());

  StreamCache cache;
  auto next_body = [&](int ms) {
    server.request_publish(SimTime::millis(ms));
    Result<std::string> body = sub.next_body(transport::WallDuration(5000));
    EXPECT_TRUE(body.ok()) << body.status().message();
    return body.ok() ? body.value() : std::string{};
  };

  ASSERT_TRUE(cache.apply(next_body(100)).value().applied);
  ASSERT_TRUE(cache.apply(next_body(200)).value().applied);
  server.inject_skip_next_publish();
  server.request_publish(SimTime::millis(300));  // seq 3 vanishes
  const std::string frame4 = next_body(400);
  Result<StreamCache::ApplyResult> gap = cache.apply(frame4);
  ASSERT_TRUE(gap.ok());
  EXPECT_FALSE(gap.value().applied);
  EXPECT_EQ(gap.value().missed, 1u);
  cache.repair("ra", SimTime::millis(300),
               agent.query_batch(ids, SimTime::millis(300)));
  Result<StreamCache::ApplyResult> again = cache.apply(frame4);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_TRUE(again.value().applied);

  // Reconnect: forget the delta base; the server's first frame to the new
  // connection is a snapshot and applies whatever its seq is.
  sub.close();
  StreamSubscriber sub2(server.endpoint());
  ASSERT_TRUE(sub2.connect(transport::WallDuration(2000)).is_ok());
  cache.reset_stream("ra");
  server.request_publish(SimTime::millis(500));
  Result<std::string> body5 = sub2.next_body(transport::WallDuration(5000));
  ASSERT_TRUE(body5.ok()) << body5.status().message();
  Result<StreamCache::ApplyResult> r5 = cache.apply(body5.value());
  ASSERT_TRUE(r5.ok()) << r5.status().message();
  EXPECT_TRUE(r5.value().applied);

  // Every cached window — streamed, repaired, post-reconnect — carries
  // exactly the bits a direct pull at that boundary returns.
  for (int ms : {100, 200, 300, 400, 500}) {
    const BatchResponse direct = agent.query_batch(ids, SimTime::millis(ms));
    ASSERT_EQ(direct.responses.size(), ids.size());
    for (const QueryResponse& want : direct.responses) {
      std::optional<QueryResponse> cached =
          cache.find("ra", want.record.element, SimTime::millis(ms));
      ASSERT_TRUE(cached.has_value()) << want.record.element.name << " @ " << ms;
      expect_attrs_eq(cached->record.attrs, want.record.attrs,
                      want.record.element.name + " @ " + std::to_string(ms));
    }
  }
  EXPECT_EQ(cache.window_provenance("ra", SimTime::millis(300)),
            StreamCache::Provenance::kRepaired);
  EXPECT_GT(server.stream_frames_published(), 0u);
  server.stop();
}

// TSan target: subscriber connect/read/close churn racing publish ticks.
// Run under ThreadSanitizer via --gtest_filter=*Churn*.
TEST(RemoteStreamingChurnTest, SubscriberReconnectRace) {
  auto sources = make_scenario();
  Agent agent("ra", 5);
  for (const auto& s : sources) {
    if (starts_with(s->id().name, "m0/")) {
      ASSERT_TRUE(agent.add_element(s.get()).is_ok());
    }
  }
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());

  std::atomic<bool> stop{false};
  std::atomic<int> published{0};
  std::thread publisher([&] {
    int ms = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      server.request_publish(SimTime::millis(ms += 10));
      published.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  StreamCache cache;
  int frames_seen = 0;
  for (int round = 0; round < 12; ++round) {
    StreamSubscriber sub(server.endpoint());
    if (!sub.connect(transport::WallDuration(2000)).is_ok()) continue;
    cache.reset_stream("ra");
    // Read a couple of frames, then drop the connection mid-stream.
    for (int i = 0; i < 3; ++i) {
      Result<std::string> body = sub.next_body(transport::WallDuration(2000));
      if (!body.ok()) break;
      Result<StreamCache::ApplyResult> r = cache.apply(body.value());
      if (r.ok() && r.value().applied) ++frames_seen;
    }
  }
  stop.store(true);
  publisher.join();
  EXPECT_GT(frames_seen, 0);
  EXPECT_GT(published.load(), 0);
  server.stop();
}

}  // namespace
}  // namespace perfsight
