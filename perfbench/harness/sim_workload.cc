// sim_diagnose: the simulator and in-band telemetry do most of the work.
//
// Eight Fig. 8-style packet-path machines (8 VMs each) and one Fig. 12
// middlebox chain share one simulator with 1 ms ticks.  Each machine is one
// tenant, diagnosed with Algorithm 1; the chain is a tenant diagnosed with
// Algorithm 2; the nine tenants take turns, one per window.  Every machine
// runs a seeded timeline of Fig. 8 injections and the chain a seeded
// timeline of Fig. 12 cases.  INT stamps 1-in-64 packets on every
// packet-path element; each window closes every machine's harvester, and a
// microburst triggers a targeted pull of the implicated elements.  The
// metrics registry is scraped once per simulated second.  No codec, no
// socket, one thread.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mbox/app.h"
#include "mbox/presets.h"
#include "mbox/stream.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/inband.h"
#include "perfsight/metrics.h"
#include "perfsight/rootcause.h"
#include "perfsight/streaming.h"
#include "sim/simulator.h"
#include "vm/machine.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace perfsight;
using namespace perfsight::literals;

constexpr int kMachines = 8;
constexpr int kVms = 8;
constexpr int kNumMb = 2;  // vm0, vm1 forward middlebox traffic
constexpr int kTenants = kMachines + 1;  // + the chain
constexpr int kWarmupWindows = 3 * kTenants;
constexpr int kExposeEveryWindows = 10;  // one simulated second
constexpr uint64_t kMicroburstDepthPkts = 3000;
// The schedule starts after warm-up and runs far past any run's end.
const SimTime kScheduleStart = SimTime::seconds(3.0);
const SimTime kScheduleEnd = SimTime::seconds(5000.0);
// Windows closer than this after a phase edge are not judged.  On the
// packet path a CPU squeeze first fills the TUN queues (up to ~0.6 s at the
// tenants' 200 Mbps) before the first packet drops, and queues drain after
// an injection stops; along the chain TCP backpressure needs seconds to
// propagate (the Fig. 12 scenarios settle 2 s before diagnosing).
const Duration kMachineSettle = Duration::seconds(1.0);
const Duration kChainSettle = Duration::seconds(2.0);

// The Fig. 8 injections, and what Table 1 says Algorithm 1 must report.
enum class Fault { kNone, kRxFlood, kEgressFlood, kTenantCpu, kTenantMem, kMbHog };
constexpr int kNumFaults = 5;

const char* to_text(Fault f) {
  switch (f) {
    case Fault::kNone: return "quiet";
    case Fault::kRxFlood: return "rx-flood";
    case Fault::kEgressFlood: return "egress-flood";
    case Fault::kTenantCpu: return "tenant-cpu";
    case Fault::kTenantMem: return "tenant-mem";
    case Fault::kMbHog: return "mb-hog";
  }
  return "?";
}

struct Expect {
  ElementKind location;
  bool contention;
};

Expect expected(Fault f) {
  switch (f) {
    case Fault::kRxFlood: return {ElementKind::kPNic, true};
    case Fault::kEgressFlood: return {ElementKind::kPCpuBacklog, true};
    case Fault::kTenantCpu: return {ElementKind::kTun, true};
    case Fault::kTenantMem: return {ElementKind::kTun, true};
    case Fault::kMbHog: return {ElementKind::kTun, false};
    case Fault::kNone: break;
  }
  return {ElementKind::kOther, false};
}

// The Fig. 12 cases.  The chain moves from one to the next with no quiet
// phase in between: Algorithm 2 always names the element that limits the
// chain, so a chain whose client offers less than the vNICs carry reports
// that client as Underloaded — there is no "no root cause" verdict to judge.
// kHealthy (client at 60 Mbps) is only the warm-up state.
enum class Case { kHealthy, kOverloadedServer, kUnderloadedClient, kBuggyNfs };
constexpr int kNumCases = 3;  // judged cases (kHealthy excluded)

const char* to_text(Case c) {
  switch (c) {
    case Case::kHealthy: return "healthy";
    case Case::kOverloadedServer: return "overloaded-server";
    case Case::kUnderloadedClient: return "underloaded-client";
    case Case::kBuggyNfs: return "buggy-nfs";
  }
  return "?";
}

template <typename K>
struct Phase {
  SimTime start;
  SimTime end;
  K what;
};

// Alternating quiet and injected phases with seeded lengths and kinds.
std::vector<Phase<Fault>> make_fault_timeline(Pcg32& rng) {
  std::vector<Phase<Fault>> out;
  auto len = [&](double lo, double hi) {
    return Duration::millis(static_cast<int64_t>(rng.uniform(lo, hi) * 1000));
  };
  for (SimTime t = kScheduleStart; t < kScheduleEnd;) {
    const SimTime q_end = t + len(2.0, 4.0);
    out.push_back({t, q_end, Fault::kNone});
    const auto f = static_cast<Fault>(1 + rng.next_below(kNumFaults));
    t = q_end + len(3.0, 5.0);
    out.push_back({q_end, t, f});
  }
  return out;
}

// The phase a window [t0, t1] is judged against, or null when the window
// lies before the schedule or within `settle` after a phase edge.
template <typename K>
const Phase<K>* judged_phase(const std::vector<Phase<K>>& tl, SimTime t0,
                             SimTime t1, Duration settle) {
  auto it = std::upper_bound(
      tl.begin(), tl.end(), t1,
      [](SimTime t, const Phase<K>& p) { return t < p.start; });
  if (it == tl.begin()) return nullptr;
  const Phase<K>& p = *(it - 1);
  if (t1 > p.end) return nullptr;
  if (t0 - settle < p.start) return nullptr;
  return &p;
}

// One Fig. 8 packet-path machine: 2 middlebox VMs with long-lived flows,
// tenant sink VMs with background traffic, plus idle injection machinery.
struct Machine {
  std::unique_ptr<vm::PhysicalMachine> m;
  vm::IngressSource* rx_flood = nullptr;
  dp::SourceApp* egress_flood = nullptr;
  std::vector<vm::CpuHog*> cpu_hogs;
  std::vector<vm::MemHog*> mem_hogs;
  vm::CpuHog* mb_hog = nullptr;
  std::unique_ptr<Agent> agent;
  std::unique_ptr<TimedAgent> timed;
  std::unique_ptr<inband::IntStamper> stamper;
  std::unique_ptr<inband::IntHarvester> harvester;
  TenantId tenant;
  std::vector<Phase<Fault>> timeline;

  void apply(Fault f, bool on) {
    switch (f) {
      case Fault::kRxFlood:
        rx_flood->set_rate(on ? DataRate::gbps(12) : DataRate::zero());
        break;
      case Fault::kEgressFlood:
        egress_flood->set_rate(on ? DataRate::gbps(2) : DataRate::zero());
        break;
      case Fault::kTenantCpu:
        for (auto* h : cpu_hogs) h->set_demand_cores(on ? 8.0 : 0.0);
        break;
      case Fault::kTenantMem:
        for (auto* h : mem_hogs) h->set_demand_bytes_per_sec(on ? 20e9 : 0);
        break;
      case Fault::kMbHog:
        mb_hog->set_demand_cores(on ? 1.0 : 0.0);
        break;
      case Fault::kNone:
        break;
    }
  }
};

std::unique_ptr<Machine> build_machine(int index, sim::Simulator* sim) {
  auto mc = std::make_unique<Machine>();
  dp::StackParams params;
  params.pnic_rate = 10_gbps;
  params.qemu_cost_per_pkt = 0.25e-6;
  mc->m = std::make_unique<vm::PhysicalMachine>("m" + std::to_string(index),
                                                params, sim);
  vm::PhysicalMachine& m = *mc->m;
  for (int i = 0; i < kVms; ++i) m.add_vm({"vm" + std::to_string(i), 1.0});

  uint32_t next_flow = 1;
  for (int i = 0; i < kNumMb; ++i) {
    FlowSpec in;
    in.id = FlowId{next_flow++};
    in.label = "mb" + std::to_string(i) + "-in";
    in.packet_size = 1500;
    FlowId out{next_flow++};
    dp::ForwardApp::Config fwd;
    fwd.capacity = DataRate::gbps(5);
    fwd.egress_flow = out;
    m.set_forward_app(i, fwd);
    m.route_flow_to_vm(in, i);
    m.route_flow_to_wire(out, in.label + "-out");
    m.add_ingress_source(in.label, in, 400_mbps);
  }
  for (int i = kNumMb; i < kVms; ++i) {
    if (i == 6) continue;  // vm6 is the egress flooder
    m.set_sink_app(i);
    FlowSpec f;
    f.id = FlowId{next_flow++};
    f.label = "tenant" + std::to_string(i);
    f.packet_size = 1500;
    m.route_flow_to_vm(f, i);
    m.add_ingress_source(f.label, f, 200_mbps);
  }
  FlowSpec flood;
  flood.id = FlowId{next_flow++};
  flood.label = "rx-flood";
  flood.packet_size = 1500;
  m.route_flow_to_vm(flood, 5);
  mc->rx_flood = m.add_ingress_source("rx-flood", flood, DataRate::zero());

  FlowSpec egress;
  egress.id = FlowId{next_flow++};
  egress.label = "tx-flood";
  egress.packet_size = 64;
  egress.direction = FlowDirection::kEgress;
  dp::SourceApp::Config src;
  src.flow = egress;
  src.rate = DataRate::zero();
  src.cost_per_pkt = 0.05e-6;
  mc->egress_flood = m.set_source_app(6, src);
  m.route_flow_to_wire(egress.id, "tx-flood-out");
  m.pin_flow_to_core(egress.id, 0);
  m.pin_flow_to_core(FlowId{1}, 0);

  for (int i = 2; i < 5; ++i) mc->cpu_hogs.push_back(m.add_vm_cpu_hog(i));
  for (int i = 0; i < 3; ++i) {
    mc->mem_hogs.push_back(m.add_mem_hog("tenant-mem-hog" + std::to_string(i)));
  }
  mc->mb_hog = m.add_vm_cpu_hog(0);

  // INT on every packet-path element; flights end at the guest sockets.
  mc->stamper = std::make_unique<inband::IntStamper>(
      inband::IntStamper::Config{/*sample_every=*/64, 16, 4096});
  mc->stamper->attach(*m.pnic());
  mc->stamper->attach(*m.napi());
  for (int i = 0; i < kVms; ++i) {
    mc->stamper->attach(*m.tun(i));
    mc->stamper->attach(*m.hyperio(i));
    mc->stamper->attach(*m.vnic(i));
    mc->stamper->attach(*m.guest_backlog(i));
    mc->stamper->set_harvest(mc->stamper->attach(*m.guest_socket(i)), true);
  }
  mc->stamper->enable_all(true);
  return mc;
}

class SimDiagnose final : public Instance {
 public:
  SimDiagnose(uint64_t seed, Tracer* tracer)
      : tracer_(tracer),
        sim_(Duration::millis(1)),
        controller_([this](Duration d) { return advance(d); },
                    [this] { return sim_.now(); }),
        detector_(&controller_, RuleBook::standard()),
        analyzer_(&controller_) {
    Pcg32 rng(seed, 0x51ed);
    for (int i = 0; i < kMachines; ++i) {
      machines_.push_back(build_machine(i, &sim_));
      Machine& mc = *machines_.back();
      mc.tenant = TenantId{static_cast<uint32_t>(i + 1)};
      mc.agent = std::make_unique<Agent>("agent-m" + std::to_string(i),
                                         seed * 31 + static_cast<uint64_t>(i));
      mc.timed = std::make_unique<TimedAgent>(mc.agent.get(), tracer_,
                                              "agent.batch");
      controller_.register_agent(mc.timed.get());
      for (const ElementId& id : mc.m->register_elements(mc.agent.get())) {
        controller_.register_stack_element(mc.timed.get(), id);
      }
      for (const ElementId& id : mc.agent->element_ids()) {
        PS_CHECK(controller_.register_element(mc.tenant, id, mc.timed.get())
                     .is_ok());
      }
      metrics_.add_agent(mc.agent.get());

      inband::IntHarvester::Config hcfg;
      hcfg.agent = mc.m->name() + "/int";
      hcfg.microburst_depth_pkts = kMicroburstDepthPkts;
      mc.harvester = std::make_unique<inband::IntHarvester>(
          mc.stamper.get(), &int_cache_, hcfg);
      Machine* mp = &mc;
      mc.harvester->set_on_microburst(
          [this, mp](const inband::IntHarvester::Microburst& b) {
            ScopedSpan span(tracer_, "inband.targeted_pull");
            ++targeted_pulls_;
            controller_.get_attr_many(mp->tenant, b.elements,
                                      {attr::kQueuePkts, attr::kDropPkts});
          });

      mc.timeline = make_fault_timeline(rng);
      for (const Phase<Fault>& p : mc.timeline) {
        if (p.what == Fault::kNone) continue;
        sim_.at(p.start, [mp, f = p.what] { mp->apply(f, true); });
        sim_.at(p.end, [mp, f = p.what] { mp->apply(f, false); });
      }
    }
    build_chain(seed);
    int_cache_.set_retention(4);
    // The stampers have no SimTime parameter on their hooks; give them the
    // clock once per tick.
    sim_.every(SimTime(), sim_.tick(), [this] {
      for (auto& mc : machines_) mc->stamper->set_now(sim_.now());
    });
  }

  void warm_up() override {
    for (int i = 0; i < kWarmupWindows; ++i) run_window(0);
  }

  void begin_measurement() override {
    harvest0_ = harvest_totals();
    stamp0_ = stamp_totals();
    targeted0_ = targeted_pulls_;
    queries0_ = controller_.queries_issued();
    batches0_ = agent_batches();
    degraded0_ = agent_degraded();
    problems0_ = problems_found_;
    analyses0_ = analyses_;
    windows0_ = windows_;
  }

  WindowOutcome run_window(uint64_t window_id) override {
    WindowOutcome out;
    const int k = static_cast<int>(windows_ % kTenants);
    ++windows_;
    const SimTime t0 = sim_.now();
    const int64_t adv0 = advance_ns_;
    int64_t d0 = 0, d1 = 0;
    if (k < kMachines) {
      Machine& mc = *machines_[k];
      ContentionReport r;
      {
        ScopedSpan span(tracer_, "contention.diagnose");
        tracer_->set_fanout_parent(span.id());
        d0 = now_ns();
        r = detector_.diagnose(mc.tenant, kWindow, mc.m->aux_signals());
        d1 = now_ns();
      }
      if (r.problem_found) ++problems_found_;
      if (window_id != 0) judge_machine(mc, r, t0, sim_.now(), &out);
    } else {
      RootCauseReport r;
      {
        ScopedSpan span(tracer_, "rootcause.analyze");
        tracer_->set_fanout_parent(span.id());
        d0 = now_ns();
        r = analyzer_.analyze(kChainTenant, kWindow);
        d1 = now_ns();
      }
      ++analyses_;
      if (window_id != 0) judge_chain(r, t0, sim_.now(), &out);
    }
    out.diagnosis_ns = (d1 - d0) - (advance_ns_ - adv0);
    for (auto& mc : machines_) {
      ScopedSpan span(tracer_, "inband.close_window");
      mc->harvester->close_window(t0);
    }
    if (windows_ % kExposeEveryWindows == 0) {
      ScopedSpan span(tracer_, "metrics.expose");
      expose_bytes_ = metrics_.expose(sim_.now()).size();
    }
    return out;
  }

  uint64_t records_delivered() const override {
    uint64_t n = chain_timed_->records();
    for (const auto& mc : machines_) n += mc->timed->records();
    return n;
  }

  double wire_bytes_per_record() const override { return 0; }

  void layer_metrics(const std::vector<Span>& spans,
                     const std::vector<int64_t>& self_ns,
                     Metrics* out) override {
    const double window_total = sum(span_durations(spans, "window"));
    auto share = [&](double ns) {
      return window_total > 0 ? ns / window_total : 0.0;
    };
    const double windows = static_cast<double>(windows_ - windows0_);
    const std::vector<double> ticks = span_durations(spans, "sim.tick");
    out->push_back({"sim.tick_ns_p50", percentile(ticks, 50), "ns"});
    out->push_back({"sim.tick_ns_p99", percentile(ticks, 99), "ns"});
    out->push_back({"sim.busy_share", share(sum(ticks)), "ratio"});
    out->push_back({"share.sim",
                    share(sum(span_self(spans, self_ns, "sim.tick")) +
                          sum(span_self(spans, self_ns, "advance"))),
                    "ratio"});

    const std::vector<double> closes =
        span_durations(spans, "inband.close_window");
    const inband::IntHarvester::Stats h = harvest_totals();
    const inband::IntStamper::Stats s = stamp_totals();
    out->push_back(
        {"inband.close_window_us_p50", percentile(closes, 50) / 1e3, "us"});
    out->push_back({"inband.flights_per_window",
                    static_cast<double>(h.flights_absorbed -
                                        harvest0_.flights_absorbed) /
                        windows,
                    "count"});
    const double started =
        static_cast<double>(s.flights_started - stamp0_.flights_started);
    out->push_back(
        {"inband.flight_yield",
         started > 0 ? static_cast<double>(s.flights_harvested -
                                           stamp0_.flights_harvested) /
                           started
                     : 0,
         "ratio"});
    out->push_back(
        {"inband.report_bytes_per_window",
         static_cast<double>(h.report_bytes - harvest0_.report_bytes) / windows,
         "bytes"});
    out->push_back({"inband.microbursts",
                    static_cast<double>(h.microbursts - harvest0_.microbursts),
                    "count"});
    out->push_back({"inband.targeted_pulls",
                    static_cast<double>(targeted_pulls_ - targeted0_),
                    "count"});
    out->push_back({"share.inband",
                    share(sum(span_self(spans, self_ns, "inband.close_window")) +
                          sum(span_self(spans, self_ns,
                                        "inband.targeted_pull"))),
                    "ratio"});

    const std::vector<double> batches = span_durations(spans, "agent.batch");
    const double traced_records = span_items(spans, "agent.batch");
    out->push_back({"agent.batches",
                    static_cast<double>(agent_batches() - batches0_), "count"});
    out->push_back({"agent.ns_per_record",
                    traced_records > 0 ? sum(batches) / traced_records : 0,
                    "ns"});
    out->push_back({"agent.batch_us_p99", percentile(batches, 99) / 1e3, "us"});
    out->push_back({"agent.records_degraded",
                    static_cast<double>(agent_degraded() - degraded0_),
                    "count"});
    out->push_back({"share.agent", share(sum(batches)), "ratio"});

    out->push_back({"controller.queries_per_window",
                    static_cast<double>(controller_.queries_issued() -
                                        queries0_) /
                        windows,
                    "count"});

    const std::vector<double> c_self =
        span_self(spans, self_ns, "contention.diagnose");
    out->push_back({"contention.self_us_p50", percentile(c_self, 50) / 1e3, "us"});
    out->push_back({"contention.self_us_p99", percentile(c_self, 99) / 1e3, "us"});
    out->push_back({"contention.problems_found",
                    static_cast<double>(problems_found_ - problems0_), "count"});
    out->push_back({"share.contention", share(sum(c_self)), "ratio"});

    const std::vector<double> r_self =
        span_self(spans, self_ns, "rootcause.analyze");
    out->push_back({"rootcause.self_us_p50", percentile(r_self, 50) / 1e3, "us"});
    out->push_back({"rootcause.analyses",
                    static_cast<double>(analyses_ - analyses0_), "count"});
    out->push_back({"share.rootcause", share(sum(r_self)), "ratio"});

    const std::vector<double> expose = span_durations(spans, "metrics.expose");
    out->push_back({"metrics.expose_us_p50", percentile(expose, 50) / 1e3, "us"});
    out->push_back(
        {"metrics.expose_bytes", static_cast<double>(expose_bytes_), "bytes"});
    out->push_back({"share.metrics", share(sum(expose)), "ratio"});
  }

 private:
  static constexpr TenantId kChainTenant{100};

  // The Fig. 12 chain: client -> LB -> CF1 -> server1, CF1 logging to NFS.
  void build_chain(uint64_t seed) {
    chain_ = std::make_unique<mbox::StreamMachine>(
        mbox::StreamMachineConfig{"c0", 8, 25.0e9, 16.0}, &sim_);
    auto vm = [&](const std::string& name) {
      mbox::StreamVmConfig cfg;
      cfg.name = name;
      cfg.vnic = 100_mbps;
      return chain_->add_vm(cfg);
    };
    mbox::StreamVm* v_client = vm("vm-client");
    mbox::StreamVm* v_lb = vm("vm-lb");
    mbox::StreamVm* v_cf1 = vm("vm-cf1");
    mbox::StreamVm* v_cf2 = vm("vm-cf2");
    mbox::StreamVm* v_nfs = vm("vm-nfs");
    mbox::StreamVm* v_s1 = vm("vm-s1");
    mbox::StreamVm* v_s2 = vm("vm-s2");
    auto conn = [&](const std::string& name, mbox::StreamVm* s,
                    mbox::StreamVm* d) {
      mbox::StreamConnConfig cfg;
      cfg.name = name;
      return chain_->connect(s, d, cfg);
    };
    mbox::StreamConn* c_client_lb = conn("client-lb", v_client, v_lb);
    mbox::StreamConn* c_lb_cf1 = conn("lb-cf1", v_lb, v_cf1);
    mbox::StreamConn* c_lb_cf2 = conn("lb-cf2", v_lb, v_cf2);
    mbox::StreamConn* c_cf1_s1 = conn("cf1-s1", v_cf1, v_s1);
    mbox::StreamConn* c_cf2_s2 = conn("cf2-s2", v_cf2, v_s2);
    mbox::StreamConn* c_cf1_nfs = conn("cf1-nfs", v_cf1, v_nfs);
    mbox::StreamConn* c_cf2_nfs = conn("cf2-nfs", v_cf2, v_nfs);

    client_ = chain_->add_app(v_client, "client",
                              mbox::presets::client(kHealthyOffer));
    client_->add_output(c_client_lb, 1.0);
    mbox::StreamApp* lb =
        chain_->add_app(v_lb, "lb", mbox::presets::load_balancer());
    lb->add_input(c_client_lb);
    lb->add_output(c_lb_cf1, 1.0);
    lb->add_output(c_lb_cf2, 0.0);
    mbox::StreamApp* cf1 =
        chain_->add_app(v_cf1, "cf1", mbox::presets::content_filter());
    cf1->add_input(c_lb_cf1);
    cf1->add_output(c_cf1_s1, 1.0);
    cf1->add_output(c_cf1_nfs, 0.1);
    mbox::StreamApp* cf2 =
        chain_->add_app(v_cf2, "cf2", mbox::presets::content_filter());
    cf2->add_input(c_lb_cf2);
    cf2->add_output(c_cf2_s2, 1.0);
    cf2->add_output(c_cf2_nfs, 0.1);
    server1_ = chain_->add_app(v_s1, "server1",
                               mbox::presets::server(kFastService));
    server1_->add_input(c_cf1_s1);
    mbox::StreamApp* server2 = chain_->add_app(
        v_s2, "server2", mbox::presets::server(kFastService));
    server2->add_input(c_cf2_s2);
    nfs_ = chain_->add_app(v_nfs, "nfs", mbox::presets::server(kFastService));
    nfs_->add_input(c_cf1_nfs);
    nfs_->add_input(c_cf2_nfs);

    chain_agent_ = std::make_unique<Agent>("agent-c0", seed * 31 + 97);
    chain_timed_ = std::make_unique<TimedAgent>(chain_agent_.get(), tracer_,
                                                "agent.batch");
    controller_.register_agent(chain_timed_.get());
    chain_->register_elements(chain_agent_.get());
    metrics_.add_agent(chain_agent_.get());
    for (mbox::StreamApp* app : {client_, lb, cf1, cf2, nfs_, server1_, server2}) {
      PS_CHECK(controller_
                   .register_element(kChainTenant, app->id(), chain_timed_.get())
                   .is_ok());
      controller_.register_middlebox(kChainTenant, app->id());
    }
    auto edge = [&](mbox::StreamApp* a, mbox::StreamApp* b) {
      controller_.add_chain_edge(kChainTenant, a->id(), b->id());
    };
    edge(client_, lb);
    edge(lb, cf1);
    edge(lb, cf2);
    edge(cf1, server1_);
    edge(cf2, server2);
    edge(cf1, nfs_);
    edge(cf2, nfs_);

    Pcg32 rng(seed, 0xc4a1);
    Case prev = Case::kHealthy;
    for (SimTime t = kScheduleStart; t < kScheduleEnd;) {
      // Each case differs from the one before it.
      Case c;
      do {
        c = static_cast<Case>(1 + rng.next_below(kNumCases));
      } while (c == prev);
      const SimTime end = t + Duration::millis(static_cast<int64_t>(
                                  rng.uniform(6.0, 10.0) * 1000));
      chain_timeline_.push_back({t, end, c});
      prev = c;
      t = end;
    }
    for (const Phase<Case>& p : chain_timeline_) {
      sim_.at(p.start, [this, c = p.what] { set_case(c); });
    }
  }

  void set_case(Case c) {
    client_->set_gen_rate(c == Case::kUnderloadedClient ? (15_mbps).bytes_per_sec()
                          : c == Case::kHealthy ? kHealthyOffer.bytes_per_sec()
                                                : 1e15);
    server1_->set_proc_rate(c == Case::kOverloadedServer
                                ? (30_mbps).bytes_per_sec()
                                : kFastService.bytes_per_sec());
    nfs_->set_proc_rate(c == Case::kBuggyNfs ? DataRate::mbps(1).bytes_per_sec()
                                             : kFastService.bytes_per_sec());
  }

  SimTime advance(Duration d) {
    const int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer_, "advance");
      if (tracer_->on()) {
        // Traced: one span per tick, so the tick-time distribution shows.
        const SimTime until = sim_.now() + d;
        while (sim_.now() < until) {
          ScopedSpan tick(tracer_, "sim.tick");
          sim_.run_for(sim_.tick());
        }
      } else {
        sim_.run_for(d);
      }
    }
    advance_ns_ += now_ns() - t0;
    return sim_.now();
  }

  void judge_machine(const Machine& mc, const ContentionReport& r, SimTime t0,
                     SimTime t1, WindowOutcome* out) {
    if (!r.blind_spots.empty()) {
      fail(out, mc.m->name() + ": " + std::to_string(r.blind_spots.size()) +
                    " blind spot(s)");
      return;
    }
    const Phase<Fault>* p = judged_phase(mc.timeline, t0, t1, kMachineSettle);
    if (p == nullptr) return;
    out->judged = true;
    bool ok;
    if (p->what == Fault::kNone) {
      ok = !r.problem_found;
    } else {
      const Expect e = expected(p->what);
      ok = r.problem_found && r.primary_location == e.location &&
           r.is_contention == e.contention;
    }
    if (!ok) {
      fail(out, mc.m->name() + " " + to_text(p->what) + " (since t=" +
                    std::to_string(p->start.sec()) + "s) at t=" +
                    std::to_string(t0.sec()) + "s: " + r.narrative);
    }
  }

  void judge_chain(const RootCauseReport& r, SimTime t0, SimTime t1,
                   WindowOutcome* out) {
    if (!r.blind_spots.empty()) {
      fail(out, "chain: blind spot(s)");
      return;
    }
    const Phase<Case>* p = judged_phase(chain_timeline_, t0, t1, kChainSettle);
    if (p == nullptr) return;
    out->judged = true;
    const mbox::StreamApp* want = p->what == Case::kOverloadedServer ? server1_
                                  : p->what == Case::kUnderloadedClient ? client_
                                                                        : nfs_;
    const bool ok =
        r.root_causes.size() == 1 && r.root_causes[0] == want->id();
    if (!ok) {
      fail(out, std::string("chain ") + to_text(p->what) + " (since t=" +
                    std::to_string(p->start.sec()) + "s) at t=" +
                    std::to_string(t0.sec()) + "s: " + r.narrative);
    }
  }

  static void fail(WindowOutcome* out, std::string why) {
    if (!out->failed) out->failure = std::move(why);
    out->failed = true;
  }

  inband::IntHarvester::Stats harvest_totals() const {
    inband::IntHarvester::Stats t;
    for (const auto& mc : machines_) {
      const inband::IntHarvester::Stats s = mc->harvester->stats();
      t.windows_closed += s.windows_closed;
      t.flights_absorbed += s.flights_absorbed;
      t.microbursts += s.microbursts;
      t.report_bytes += s.report_bytes;
    }
    return t;
  }
  inband::IntStamper::Stats stamp_totals() const {
    inband::IntStamper::Stats t;
    for (const auto& mc : machines_) {
      const inband::IntStamper::Stats s = mc->stamper->stats();
      t.flights_started += s.flights_started;
      t.flights_harvested += s.flights_harvested;
    }
    return t;
  }
  uint64_t agent_batches() const {
    uint64_t n = chain_timed_->batches();
    for (const auto& mc : machines_) n += mc->timed->batches();
    return n;
  }
  uint64_t agent_degraded() const {
    uint64_t n = chain_timed_->degraded();
    for (const auto& mc : machines_) n += mc->timed->degraded();
    return n;
  }
  static constexpr DataRate kHealthyOffer = DataRate::mbps(60);
  static constexpr DataRate kFastService = DataRate::mbps(10000);

  Tracer* tracer_;
  sim::Simulator sim_;
  Controller controller_;
  ContentionDetector detector_;
  RootCauseAnalyzer analyzer_;
  MetricsRegistry metrics_;
  StreamCache int_cache_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::unique_ptr<mbox::StreamMachine> chain_;
  mbox::StreamApp* client_ = nullptr;
  mbox::StreamApp* server1_ = nullptr;
  mbox::StreamApp* nfs_ = nullptr;
  std::unique_ptr<Agent> chain_agent_;
  std::unique_ptr<TimedAgent> chain_timed_;
  std::vector<Phase<Case>> chain_timeline_;

  int64_t advance_ns_ = 0;
  uint64_t windows_ = 0;
  uint64_t targeted_pulls_ = 0;
  uint64_t problems_found_ = 0;
  uint64_t analyses_ = 0;
  size_t expose_bytes_ = 0;
  // Baselines at begin_measurement().
  inband::IntHarvester::Stats harvest0_;
  inband::IntStamper::Stats stamp0_;
  uint64_t targeted0_ = 0, queries0_ = 0, batches0_ = 0, degraded0_ = 0;
  uint64_t problems0_ = 0, analyses0_ = 0, windows0_ = 0;
};

}  // namespace

std::unique_ptr<Instance> make_sim_diagnose(uint64_t seed, Tracer* tracer) {
  return std::make_unique<SimDiagnose>(seed, tracer);
}

}  // namespace perfbench
