// In-band telemetry (perfsight/inband.h): the INT differential and the
// stamping/harvest contracts.
//
// The load-bearing guarantee: with stamping disabled (or never attached)
// the packet path is BIT-IDENTICAL to a build without INT — same counters,
// same queue evolution, same collected records — and zero INT bytes exist
// anywhere.  With stamping enabled, the standard counters still never
// change (the tag is metadata riding the fluid simulation, not traffic);
// what changes is that completed flights exist, aggregate into kInband
// StreamCache windows in the agent-channel attr format, and an
// INT-observed microburst triggers a targeted pull over exactly the
// implicated elements.
#include "perfsight/inband.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dataplane/backlog.h"
#include "dataplane/pnic.h"
#include "dataplane/pumps.h"
#include "dataplane/queues.h"
#include "perfsight/agent.h"
#include "perfsight/controller.h"
#include "perfsight/streaming.h"
#include "perfsight/wire.h"
#include "support/oracles.h"

namespace perfsight {
namespace {

using dp::GuestBacklog;
using dp::GuestSocket;
using dp::GuestStack;
using dp::HypervisorIo;
using dp::NapiPoll;
using dp::PCpuBacklog;
using dp::PNic;
using dp::PortIn;
using dp::Tun;
using dp::VNic;

constexpr TenantId kTenant{1};

PacketBatch batch(uint32_t flow, uint64_t pkts, uint64_t size = 1500) {
  return PacketBatch{FlowId{flow}, pkts, pkts * size};
}

// Forwards the vswitch-side traffic into the TUN so the chain closes
// pNIC -> ... -> guest socket end to end.
struct ForwardPort : PortIn {
  PortIn* out = nullptr;
  void accept(PacketBatch b) override {
    if (out) out->accept(std::move(b));
  }
};

// The full per-VM chain from pumps_test, closed through a forwarding port.
struct ChainRig {
  ResourcePool cpu{"cpu", 8.0};
  ResourcePool mem{"mem", 25e9, PoolPolicy::kProportional};
  ResourcePool::ConsumerId softirq, qemu_cpu, qemu_mem, vcpu, backlog_mem;
  PNic pnic{ElementId{"pnic"}, {DataRate::gbps(10), 4096, 4096}};
  ForwardPort to_tun;
  std::unique_ptr<PCpuBacklog> backlog;
  Tun tun{ElementId{"tun"}, 0, QueueCaps{4096, 4 << 20}};
  VNic vnic{ElementId{"vnic"}, 0, 4096};
  GuestBacklog gbacklog{ElementId{"gb"}, 0, 4096};
  GuestSocket gsocket{ElementId{"gs"}, 0, 64 << 20};
  std::unique_ptr<NapiPoll> napi;
  std::unique_ptr<HypervisorIo> hyperio;
  std::unique_ptr<GuestStack> guest;
  SimTime now;

  ChainRig() {
    softirq = cpu.add_consumer({"softirq", 50.0, 2.0});
    qemu_cpu = cpu.add_consumer({"qemu", 1.0, 1.0});
    vcpu = cpu.add_consumer({"vcpu", 1.0, 1.0});
    backlog_mem = mem.add_consumer({"softirq-mem", 50.0, -1.0});
    qemu_mem = mem.add_consumer({"qemu-mem", 1.0, -1.0});
    backlog = std::make_unique<PCpuBacklog>(
        ElementId{"backlog"}, PCpuBacklog::Config{}, &cpu, softirq, &mem,
        backlog_mem, &to_tun);
    to_tun.out = &tun;
    napi = std::make_unique<NapiPoll>(ElementId{"napi"}, NapiPoll::Config{},
                                      &pnic, backlog.get(), &cpu, softirq);
    hyperio = std::make_unique<HypervisorIo>(
        ElementId{"qemu-io"}, 0, HypervisorIo::Config{}, &tun, &vnic,
        backlog.get(), &cpu, qemu_cpu, &mem, qemu_mem);
    guest = std::make_unique<GuestStack>("guest", GuestStack::Config{},
                                        &vnic, &gbacklog, &gsocket, &cpu,
                                        vcpu);
  }

  // Attach every stamping element; harvest at the guest socket.  Returns
  // nothing — slots live inside the stamper, elements keep back-pointers.
  void attach(inband::IntStamper& s) {
    s.attach(pnic);
    s.attach(*napi);
    s.attach(tun);
    s.attach(*hyperio);
    s.attach(vnic);
    s.attach(gbacklog);
    int gs_slot = s.attach(gsocket);
    s.set_harvest(gs_slot, true);
  }

  std::vector<dp::Element*> elements() {
    return {&pnic,  napi.get(), &tun,      hyperio.get(),
            &vnic, &gbacklog,  &gsocket};
  }

  void tick(inband::IntStamper* s = nullptr, Duration dt = Duration::millis(1)) {
    if (s) s->set_now(now);
    cpu.step(now, dt);
    mem.step(now, dt);
    backlog->step(now, dt);
    pnic.step(now, dt);
    napi->step(now, dt);
    hyperio->step(now, dt);
    guest->step(now, dt);
    // The middlebox application always keeps up: drain the socket buffer so
    // steady-state depths reflect in-flight occupancy, not unread backlog.
    gsocket.fetch(UINT64_MAX, UINT64_MAX);
    now = now + dt;
  }
};

// Canonical byte form of one element's collected record — exact equality,
// through the same codec the agent channels ship.
std::string canon(const dp::Element& e, SimTime at) {
  QueryResponse r;
  r.record = e.collect(at);
  r.quality = DataQuality::kFresh;
  r.attempts = 1;
  return wire::encode_frame(r).value();
}

// --- the INT differential ----------------------------------------------------

TEST(IntDifferentialTest, DisabledStampingIsBitIdenticalAndZeroBytes) {
  ChainRig bare;                      // no stamper at all
  ChainRig attached;                  // attached, every enable bit off
  ChainRig enabled;                   // attached and stamping
  inband::IntStamper off_stamper;
  inband::IntStamper on_stamper(inband::IntStamper::Config{1, 16, 4096});
  attached.attach(off_stamper);
  enabled.attach(on_stamper);
  on_stamper.enable_all(true);

  for (int t = 0; t < 40; ++t) {
    for (ChainRig* r : {&bare, &attached, &enabled}) {
      if (t < 30) r->pnic.offer_rx(batch(1, 120));
    }
    bare.tick();
    attached.tick(&off_stamper);
    enabled.tick(&on_stamper);
  }

  const SimTime at = bare.now;
  auto be = bare.elements();
  auto ae = attached.elements();
  auto ee = enabled.elements();
  for (size_t i = 0; i < be.size(); ++i) {
    // Disabled differential: byte-identical collection transcripts.
    EXPECT_EQ(canon(*ae[i], at), canon(*be[i], at))
        << ae[i]->id().name << " diverged with a disabled stamper";
    // Stamping carries no traffic: even ENABLED, every standard counter and
    // queue depth is bit-identical — the tag is pure metadata.
    EXPECT_EQ(canon(*ee[i], at), canon(*be[i], at))
        << ee[i]->id().name << " diverged with stamping enabled";
  }

  // Zero INT bytes with the bits off...
  const inband::IntStamper::Stats off = off_stamper.stats();
  EXPECT_EQ(off.pkts_seen, 0u);
  EXPECT_EQ(off.flights_started, 0u);
  EXPECT_EQ(off.hops_stamped, 0u);
  // ...and real flights with them on.
  const inband::IntStamper::Stats on = on_stamper.stats();
  EXPECT_GT(on.flights_started, 0u);
  EXPECT_GT(on.flights_harvested, 0u);
  EXPECT_GT(on.hops_stamped, on.flights_started);
}

TEST(IntStamperTest, SingleFlightWalksTheWholeChainInOrder) {
  ChainRig rig;
  inband::IntStamper stamper(inband::IntStamper::Config{1, 16, 4096});
  rig.attach(stamper);
  stamper.enable_all(true);

  // One batch, then idle ticks to drain it through to the guest socket.
  rig.pnic.offer_rx(batch(1, 100));
  for (int t = 0; t < 10; ++t) rig.tick(&stamper);

  std::vector<inband::Flight> flights = stamper.take_finished();
  ASSERT_EQ(flights.size(), 1u);
  const inband::Flight& f = flights[0];
  EXPECT_FALSE(f.dropped);
  EXPECT_GE(f.end.ns(), f.start.ns());
  std::vector<std::string> path;
  for (const inband::Hop& h : f.hops) {
    path.push_back(stamper.element(h.slot).name);
  }
  EXPECT_EQ(path, (std::vector<std::string>{"pnic", "napi", "tun", "qemu-io",
                                            "vnic", "gb", "gs"}));
  for (const inband::Hop& h : f.hops) EXPECT_FALSE(h.drop_tail);
  // The hypervisor copy hop attributed io-time to its own hop.
  EXPECT_GT(f.hops[3].io_time.ns(), 0);
  // vm attribution survives into the hop stack.
  EXPECT_EQ(f.hops[2].kind, ElementKind::kTun);
  EXPECT_EQ(f.hops[2].vm, 0);
}

TEST(IntStamperTest, ExactOneInNSampling) {
  inband::IntStamper stamper(inband::IntStamper::Config{64, 16, 1 << 20});
  int slot = stamper.register_element(ElementId{"e"}, ElementKind::kPNic, -1);
  stamper.enable(slot, true);
  uint64_t tags = 0;
  // 1000 batches x 16 pkts: 16000 pkts cross 250 sample boundaries.
  for (int i = 0; i < 1000; ++i) {
    if (stamper.maybe_tag(slot, batch(1, 16), 0) != 0) ++tags;
  }
  EXPECT_EQ(tags, 250u);
  EXPECT_EQ(stamper.stats().pkts_seen, 16000u);
  EXPECT_EQ(stamper.stats().flights_started, 250u);
  // The knob is live: 1-in-1 tags every batch.
  stamper.set_sample_every(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(stamper.maybe_tag(slot, batch(1, 3), 0), 0u);
  }
}

TEST(IntStamperTest, DropTailFinalizesFlightWithMarker) {
  inband::IntStamper stamper(inband::IntStamper::Config{1, 16, 64});
  int a = stamper.register_element(ElementId{"a"}, ElementKind::kPNic, -1);
  int b = stamper.register_element(ElementId{"b"}, ElementKind::kTun, 0);
  stamper.enable_all(true);
  stamper.set_now(SimTime::millis(5));
  uint64_t tag = stamper.maybe_tag(a, batch(1, 10), 3);
  ASSERT_NE(tag, 0u);
  stamper.set_now(SimTime::millis(6));
  stamper.stamp(b, tag, 4096);     // arrival at the full queue
  stamper.mark_dropped(b, tag, 4096);
  std::vector<inband::Flight> flights = stamper.take_finished();
  ASSERT_EQ(flights.size(), 1u);
  EXPECT_TRUE(flights[0].dropped);
  ASSERT_EQ(flights[0].hops.size(), 2u);
  EXPECT_FALSE(flights[0].hops[0].drop_tail);
  EXPECT_TRUE(flights[0].hops[1].drop_tail);   // marked, not duplicated
  EXPECT_EQ(flights[0].hops[1].queue_pkts, 4096u);
  EXPECT_EQ(flights[0].end, SimTime::millis(6));
  EXPECT_EQ(stamper.stats().flights_dropped, 1u);

  // Orphaned tags (lost to merges/trims) expire instead of leaking.
  uint64_t orphan = stamper.maybe_tag(a, batch(1, 10), 0);
  ASSERT_NE(orphan, 0u);
  stamper.set_now(SimTime::millis(600));
  stamper.expire(Duration::millis(500));
  EXPECT_EQ(stamper.stats().flights_expired, 1u);
  EXPECT_TRUE(stamper.take_finished().empty());
}

// --- harvest into the StreamCache -------------------------------------------

TEST(IntHarvesterTest, WindowsLandInCacheAsInbandProvenance) {
  inband::IntStamper stamper(inband::IntStamper::Config{4, 16, 1024});
  int a = stamper.register_element(ElementId{"m0/pnic"}, ElementKind::kPNic, -1);
  int b = stamper.register_element(ElementId{"m0/vm0/tun"}, ElementKind::kTun, 0);
  stamper.enable_all(true);
  stamper.set_harvest(b, true);

  StreamCache cache;
  inband::IntHarvester::Config hcfg;
  hcfg.agent = "a0/int";
  hcfg.microburst_depth_pkts = 0;
  inband::IntHarvester harvester(&stamper, &cache, hcfg);

  stamper.set_now(SimTime::millis(50));
  for (int i = 0; i < 8; ++i) {
    uint64_t tag = stamper.maybe_tag(a, batch(1, 4), 10 + i);
    if (tag == 0) continue;
    stamper.add_io_time(tag, Duration::micros(3));
    stamper.harvest(b, tag, 200);
  }
  const SimTime w = SimTime::millis(100);
  size_t absorbed = harvester.close_window(w);
  EXPECT_EQ(absorbed, 8u);
  EXPECT_GT(harvester.stats().report_bytes, 0u);

  ASSERT_TRUE(cache.window_present("a0/int", w));
  EXPECT_EQ(cache.window_provenance("a0/int", w),
            StreamCache::Provenance::kInband);

  // The records read back through the same AgentClient interface the
  // diagnosis stack uses, in the standard attr vocabulary.
  StreamCacheAgent agent(&cache, "a0/int",
                         {ElementId{"m0/pnic"}, ElementId{"m0/vm0/tun"}});
  Result<QueryResponse> pnic_r = agent.query_attrs(
      ElementId{"m0/pnic"},
      {attr::kQueuePkts, attr::kType, inband::kIntSamples,
       inband::kIntIoTimeNs},
      w);
  ASSERT_TRUE(pnic_r.ok()) << pnic_r.status().message();
  const StatsRecord& rec = pnic_r.value().record;
  EXPECT_EQ(rec.get_or(attr::kQueuePkts, -1), 17.0);   // peak arrival depth 10..17
  EXPECT_EQ(rec.get_or(attr::kType, -1),
            static_cast<double>(static_cast<int>(ElementKind::kPNic)));
  EXPECT_EQ(rec.get_or(inband::kIntSamples, -1), 8.0);
  EXPECT_EQ(rec.get_or(inband::kIntIoTimeNs, -1), 8 * 3000.0);
  Result<QueryResponse> tun_r = agent.query_attrs(
      ElementId{"m0/vm0/tun"}, {attr::kQueuePkts, attr::kVm}, w);
  ASSERT_TRUE(tun_r.ok());
  EXPECT_EQ(tun_r.value().record.get_or(attr::kQueuePkts, -1), 200.0);
  EXPECT_EQ(tun_r.value().record.get_or(attr::kVm, -1), 0.0);
}

TEST(IntHarvesterTest, MicroburstTriggersTargetedSweepOverImplicated) {
  inband::IntStamper stamper(inband::IntStamper::Config{1, 16, 1024});
  int a = stamper.register_element(ElementId{"m0/pnic"}, ElementKind::kPNic, -1);
  int b = stamper.register_element(ElementId{"m0/vm0/tun"}, ElementKind::kTun, 0);
  int c = stamper.register_element(ElementId{"m0/vm1/tun"}, ElementKind::kTun, 1);
  stamper.enable_all(true);
  stamper.set_harvest(b, true);
  stamper.set_harvest(c, true);

  inband::IntHarvester::Config hcfg;
  hcfg.agent = "int";
  hcfg.microburst_depth_pkts = 256;
  inband::IntHarvester harvester(&stamper, nullptr, hcfg);
  std::vector<inband::IntHarvester::Microburst> bursts;
  harvester.set_on_microburst(
      [&](const inband::IntHarvester::Microburst& m) { bursts.push_back(m); });

  // Steady traffic: shallow depths everywhere -> no trigger, zero targeted
  // queries — hybrid mode is free when nothing is wrong.
  for (int i = 0; i < 5; ++i) {
    uint64_t tag = stamper.maybe_tag(a, batch(1, 1), 4);
    stamper.harvest(b, tag, 8);
  }
  harvester.close_window(SimTime::millis(100));
  EXPECT_TRUE(bursts.empty());
  EXPECT_EQ(harvester.stats().microbursts, 0u);

  // A burst inside the next window: vm0's tun sees a deep excursion, vm1
  // stays shallow.  Only vm0's tun is implicated.
  for (int i = 0; i < 3; ++i) {
    uint64_t tag = stamper.maybe_tag(a, batch(1, 1), 4);
    stamper.harvest(b, tag, 900);
  }
  uint64_t tag = stamper.maybe_tag(a, batch(1, 1), 4);
  stamper.harvest(c, tag, 12);
  harvester.close_window(SimTime::millis(200));
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].window_start, SimTime::millis(200));
  EXPECT_EQ(bursts[0].peak_depth_pkts, 900u);
  ASSERT_EQ(bursts[0].elements.size(), 1u);
  EXPECT_EQ(bursts[0].elements[0].name, "m0/vm0/tun");
  EXPECT_EQ(harvester.stats().microbursts, 1u);
}

// Hybrid wiring end to end: the microburst callback issues a real targeted
// pull over just the implicated elements via Controller::get_attr_many.
TEST(IntHybridTest, TriggerDrivesControllerScatterOverImplicatedOnly) {
  ChainRig rig;
  Agent a0("a0", 11);
  for (dp::Element* e : rig.elements()) {
    ASSERT_TRUE(a0.add_element(e).is_ok());
  }
  SimTime ctl_now;
  Controller ctl([&](Duration d) { ctl_now = ctl_now + d; return ctl_now; },
                 [&] { return ctl_now; });
  ctl.register_agent(&a0);
  for (dp::Element* e : rig.elements()) {
    ASSERT_TRUE(ctl.register_element(kTenant, e->id(), &a0).is_ok());
  }

  inband::IntStamper stamper(inband::IntStamper::Config{1, 16, 4096});
  rig.attach(stamper);
  stamper.enable_all(true);
  StreamCache cache;
  inband::IntHarvester::Config hcfg;
  hcfg.agent = "a0/int";
  hcfg.microburst_depth_pkts = 300;
  inband::IntHarvester harvester(&stamper, &cache, hcfg);
  uint64_t targeted_queries = 0;
  harvester.set_on_microburst(
      [&](const inband::IntHarvester::Microburst& m) {
        std::vector<Result<Controller::QualifiedRecord>> got = ctl.get_attr_many(
            kTenant, m.elements, {attr::kQueuePkts, attr::kDropPkts});
        for (const Result<Controller::QualifiedRecord>& r : got) {
          EXPECT_TRUE(r.ok());
          ++targeted_queries;
        }
      });

  // Steady phase: modest traffic fully drained each tick.
  for (int t = 0; t < 20; ++t) {
    rig.pnic.offer_rx(batch(1, 60));
    rig.tick(&stamper);
  }
  harvester.close_window(SimTime::millis(100));
  EXPECT_EQ(targeted_queries, 0u);

  // Burst phase: a transient host-CPU squeeze (a co-located hog's worth of
  // stolen cycles) stalls the softirq/QEMU pumps so queues back up deep,
  // then the squeeze lifts and the excursion drains — all inside one
  // window, invisible to a boundary-sampling poll.
  rig.cpu.set_capacity_per_sec(0.05);
  for (int t = 0; t < 10; ++t) {
    rig.pnic.offer_rx(batch(1, 900, 300));
    rig.tick(&stamper);
  }
  rig.cpu.set_capacity_per_sec(8.0);
  for (int t = 0; t < 40; ++t) rig.tick(&stamper);
  harvester.close_window(SimTime::millis(200));
  EXPECT_GT(harvester.stats().microbursts, 0u);
  EXPECT_GT(targeted_queries, 0u);
}

// --- harvester vs the map-keyed oracle ---------------------------------------

// Two stampers fed the same seeded operations hand out the same tags and
// build the same flights; one is closed by IntHarvester, the other by the
// oracle, and every window must come out the same: cached records byte for
// byte, microbursts, and report bytes.
TEST(IntHarvesterDifferentialTest, MatchesMapKeyedOracleOverSeededFlights) {
  const inband::IntStamper::Config scfg{4, 6, 64};
  inband::IntStamper live(scfg);
  inband::IntStamper ref(scfg);
  std::vector<ElementId> ids;  // every distinct registered id
  std::vector<int> slots;
  std::vector<bool> harvest_slot;
  auto add = [&](const std::string& name, ElementKind kind, int vm,
                 bool harvest) {
    const int a = live.register_element(ElementId{name}, kind, vm);
    const int b = ref.register_element(ElementId{name}, kind, vm);
    ASSERT_EQ(a, b);
    for (inband::IntStamper* s : {&live, &ref}) {
      s->enable(a, true);
      s->set_harvest(a, harvest);
    }
    if (std::find(ids.begin(), ids.end(), ElementId{name}) == ids.end()) {
      ids.push_back(ElementId{name});
    }
    slots.push_back(a);
    harvest_slot.push_back(harvest);
  };
  add("m0/pnic", ElementKind::kPNic, -1, false);
  add("m0/napi", ElementKind::kNapi, -1, false);
  // Two slots share one id (registered apart, so their records must merge
  // across non-adjacent slots), with different kind/vm: last hop wins.
  add("m0/vm0/tun", ElementKind::kTun, 0, false);
  add("m0/vm1/tun", ElementKind::kTun, 1, false);
  add("m0/vm0/tun", ElementKind::kOther, 7, false);
  add("m0/vm0/gs", ElementKind::kGuestSocket, 0, true);
  add("m0/vm1/gs", ElementKind::kGuestSocket, 1, true);

  StreamCache live_cache, ref_cache;
  inband::IntHarvester::Config hcfg;
  hcfg.agent = "m0/int";
  hcfg.microburst_depth_pkts = 40;
  hcfg.expire_after = Duration::millis(150);
  inband::IntHarvester harvester(&live, &live_cache, hcfg);
  std::vector<inband::IntHarvester::Microburst> live_bursts;
  harvester.set_on_microburst(
      [&](const inband::IntHarvester::Microburst& m) {
        live_bursts.push_back(m);
      });
  oracle::IntWindowOracle oracle(&ref, &ref_cache, hcfg);

  Pcg32 rng(8080);
  SimTime now;
  // The same operation on both stampers, which must agree on its result.
  auto both = [&](const std::function<uint64_t(inband::IntStamper&)>& op) {
    const uint64_t a = op(live);
    const uint64_t b = op(ref);
    EXPECT_EQ(a, b);
    return a;
  };
  auto pick = [&](bool harvest) {
    for (;;) {
      size_t i = rng.next_below(static_cast<uint32_t>(slots.size()));
      if (harvest_slot[i] == harvest) return slots[i];
    }
  };

  for (int window = 0; window < 40; ++window) {
    if (window == 20) {
      // A slot registered between two windows; a new id and a third alias.
      add("m0/vm2/tun", ElementKind::kTun, 2, false);
      add("m0/vm1/tun", ElementKind::kVNic, 5, false);
    }
    const bool empty_window = window % 9 == 4;
    const int flights = empty_window ? 0 : static_cast<int>(rng.next_below(30));
    for (int f = 0; f < flights; ++f) {
      now = now + Duration::micros(rng.next_below(3000));
      for (inband::IntStamper* s : {&live, &ref}) s->set_now(now);
      PacketBatch b = batch(1, 1 + rng.next_below(8));
      const int ingress = pick(false);
      const uint64_t depth0 = rng.next_below(60);
      uint64_t tag = both([&](inband::IntStamper& s) {
        return s.maybe_tag(ingress, b, depth0);
      });
      if (tag == 0) continue;
      const uint32_t hops = rng.next_below(9);  // may exceed max_hops
      const uint32_t fate = rng.next_below(10);
      for (uint32_t h = 0; h < hops && tag != 0; ++h) {
        const int slot = pick(false);
        const uint64_t depth = rng.next_below(80);
        const Duration io = Duration::nanos(rng.next_below(5000));
        tag = both([&](inband::IntStamper& s) {
          return s.arrive(slot, tag, depth, io);
        });
        if (fate == 0 && rng.next_below(3) == 0) {
          // Drop-tail at the slot the flight just reached.
          both([&](inband::IntStamper& s) {
            s.mark_dropped(slot, tag, depth);
            return uint64_t{0};
          });
          tag = 0;
        }
      }
      if (tag == 0) continue;
      const int last = pick(true);
      const uint64_t depth = rng.next_below(80);
      if (fate == 1) {
        // Drop-tail at a harvest slot.
        both([&](inband::IntStamper& s) {
          s.mark_dropped(last, tag, depth);
          return uint64_t{0};
        });
      } else if (fate != 2) {  // fate 2: an orphan, left to expire
        EXPECT_EQ(both([&](inband::IntStamper& s) {
                    return s.arrive(last, tag, depth);
                  }),
                  0u);
      }
    }
    now = now + Duration::millis(100);
    for (inband::IntStamper* s : {&live, &ref}) s->set_now(now);
    const SimTime w = SimTime::millis(100 * window);
    const size_t absorbed = harvester.close_window(w);
    EXPECT_EQ(absorbed, oracle.close_window(w)) << "window " << window;
    if (empty_window) {
      EXPECT_EQ(absorbed, 0u) << "window " << window;
    }

    EXPECT_EQ(live_cache.window_present("m0/int", w),
              ref_cache.window_present("m0/int", w))
        << "window " << window;
    for (const ElementId& id : ids) {
      std::optional<QueryResponse> a = live_cache.find("m0/int", id, w);
      std::optional<QueryResponse> b = ref_cache.find("m0/int", id, w);
      ASSERT_EQ(a.has_value(), b.has_value())
          << id.name << " window " << window;
      if (a) {
        EXPECT_EQ(wire::encode_frame(*a).value(),
                  wire::encode_frame(*b).value())
            << id.name << " window " << window;
      }
    }
    EXPECT_EQ(harvester.stats().report_bytes, oracle.report_bytes)
        << "window " << window;
  }

  ASSERT_EQ(live_bursts.size(), oracle.bursts.size());
  for (size_t i = 0; i < live_bursts.size(); ++i) {
    EXPECT_EQ(live_bursts[i].window_start, oracle.bursts[i].window_start);
    EXPECT_EQ(live_bursts[i].elements, oracle.bursts[i].elements);
    EXPECT_EQ(live_bursts[i].peak_depth_pkts,
              oracle.bursts[i].peak_depth_pkts);
  }
  EXPECT_EQ(harvester.stats().microbursts, oracle.bursts.size());
  // The run exercised what it claims to: flights of every fate, bursts.
  const inband::IntStamper::Stats st = live.stats();
  EXPECT_GT(st.flights_harvested, 0u);
  EXPECT_GT(st.flights_dropped, 0u);
  EXPECT_GT(st.flights_expired, 0u);
  EXPECT_GT(st.hops_truncated, 0u);
  EXPECT_FALSE(live_bursts.empty());
}

// TSan target (--gtest_filter=*Churn*): INT harvest racing agent poll
// sweeps and streaming pumps over the same cache.  Traffic is stamped in a
// single-threaded phase; the race is collection-side.
TEST(IntChurnTest, HarvestRacesPollSweepsAndStreamPumps) {
  ChainRig rig;
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  for (dp::Element* e : rig.elements()) {
    ASSERT_TRUE(a0.add_element(e).is_ok());
    ids.push_back(e->id());
  }
  inband::IntStamper stamper(inband::IntStamper::Config{2, 16, 4096});
  rig.attach(stamper);
  stamper.enable_all(true);
  for (int t = 0; t < 40; ++t) {
    rig.pnic.offer_rx(batch(1, 200));
    rig.tick(&stamper);
  }

  StreamCache cache;
  inband::IntHarvester::Config hcfg;
  hcfg.agent = "a0/int";
  inband::IntHarvester harvester(&stamper, &cache, hcfg);
  StreamPipeline pipe(&cache, nullptr);
  pipe.add_agent(&a0);

  std::atomic<int> go{0};
  std::thread harvest_thread([&] {
    ++go;
    for (int i = 0; i < 60; ++i) {
      harvester.close_window(SimTime::millis(100 + i));
    }
  });
  std::thread sweep_thread([&] {
    ++go;
    for (int i = 0; i < 60; ++i) {
      BatchResponse b = a0.query_batch(ids, SimTime::millis(100 + i));
      EXPECT_EQ(b.responses.size(), ids.size());
    }
  });
  std::thread pump_thread([&] {
    ++go;
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE(pipe.pump(SimTime::millis(100 * (i + 1)), nullptr).is_ok());
    }
  });
  std::thread stamp_thread([&] {
    ++go;
    // Dataplane hooks racing the drain: tags opened and harvested live.
    int a = stamper.register_element(ElementId{"aux"}, ElementKind::kOther, -1);
    stamper.enable(a, true);
    stamper.set_harvest(a, true);
    for (int i = 0; i < 500; ++i) {
      uint64_t tag = stamper.maybe_tag(a, batch(2, 3), 1);
      if (tag != 0) stamper.harvest(a, tag, 2);
    }
  });
  harvest_thread.join();
  sweep_thread.join();
  pump_thread.join();
  stamp_thread.join();
  EXPECT_EQ(go.load(), 4);
  EXPECT_GT(cache.stats().frames_applied, 0u);
}

}  // namespace
}  // namespace perfsight
