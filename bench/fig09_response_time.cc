// Figure 9: response time between the agent and other components.
//
// The paper measures how quickly the per-server agent can fetch statistics
// over each element channel: net-device file reads (TUN, pNIC) take ~2 ms;
// everything else (QEMU log, backlog /proc, middlebox socket, OVS channel)
// completes within 500 us; the agent↔controller RTT is similar.  The
// channel latency models are calibrated to those numbers; this bench
// queries each channel kind 1000 times and reports the distribution.
#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "perfsight/agent.h"

using namespace perfsight;
using namespace perfsight::bench;

namespace {

class StubSource : public StatsSource {
 public:
  StubSource(std::string id, ChannelKind kind)
      : id_{std::move(id)}, kind_(kind) {}
  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return kind_; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = {{"rxPkts", 1}, {"txPkts", 1}, {"rxBytes", 1500}};
    return r;
  }

 private:
  ElementId id_;
  ChannelKind kind_;
};

struct Stats {
  double min_us, mean_us, max_us;
};

Stats measure(Agent& agent, const ElementId& id, int n) {
  std::vector<double> us;
  us.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto resp = agent.query_attrs(id, {}, SimTime::nanos(i));
    us.push_back(resp.value().response_time.us());
  }
  Stats s;
  s.min_us = *std::min_element(us.begin(), us.end());
  s.max_us = *std::max_element(us.begin(), us.end());
  double sum = 0;
  for (double v : us) sum += v;
  s.mean_us = sum / n;
  return s;
}

}  // namespace

int main() {
  heading("Figure 9: agent <-> component response time",
          "PerfSight (IMC'15) Fig. 9");
  Agent agent("agent-m0", /*seed=*/7);
  struct Probe {
    const char* label;
    StubSource src;
  };
  std::vector<Probe> probes;
  probes.push_back({"Agent-Qemu", {"m0/vm0/qemu-io", ChannelKind::kQemuLog}});
  probes.push_back({"Agent-Backlog", {"m0/pcpu-backlog", ChannelKind::kProcFs}});
  probes.push_back({"Agent-VM", {"m0/vm0/app", ChannelKind::kMbSocket}});
  probes.push_back({"Agent-pNIC", {"m0/pnic", ChannelKind::kNetDeviceFile}});
  probes.push_back({"Agent-TUN", {"m0/vm0/tun", ChannelKind::kNetDeviceFile}});
  probes.push_back({"Agent-vSwitch", {"m0/vswitch", ChannelKind::kOvsChannel}});
  for (Probe& p : probes) {
    Status st = agent.add_element(&p.src);
    PS_CHECK(st.is_ok());
  }

  row({"channel", "min(us)", "mean(us)", "max(us)"});
  double netdev_mean = 0, other_max = 0;
  for (Probe& p : probes) {
    Stats s = measure(agent, p.src.id(), 1000);
    row({p.label, fmt("%.0f", s.min_us), fmt("%.0f", s.mean_us),
         fmt("%.0f", s.max_us)});
    if (p.src.channel_kind() == ChannelKind::kNetDeviceFile) {
      netdev_mean = s.mean_us;
    } else {
      other_max = std::max(other_max, s.max_us);
    }
  }
  // Controller round trip: agent fetch + control-channel hop (modelled as
  // one more OVS-like exchange).
  note("Agent-Controller RTT ~ fetch latency + control hop (sub-ms)");

  shape_check(netdev_mean > 1500 && netdev_mean < 2500,
              "net-device file reads (pNIC/TUN) cost ~2 ms");
  shape_check(other_max < 500,
              "all other channels respond within 500 us");
  return 0;
}
