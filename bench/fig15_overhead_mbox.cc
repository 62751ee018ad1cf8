// Figure 15: time-counter overhead across middlebox kinds.
//
// The paper repeats the Table 2 experiment over different middleboxes —
// proxy, load balancer, cache, redundancy eliminator (SmartRE), IPS
// (Snort) — and finds the normalized throughput with time counters stays
// above 95% in every case.  This bench runs each kind's real per-packet
// work model flat out, with and without the time counters, and reports the
// normalized throughput (median of repetitions, to shed scheduler noise).
// It also checks that the payload-scanning IPS is measurably slower than
// pure forwarding (the proxy): a wall-clock comparison, so it lives here
// rather than in the unit tests.
#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "perfsight/hotpath.h"

using namespace perfsight;
using namespace perfsight::bench;

namespace {

double median_pps(const HotpathConfig& cfg, int reps, uint64_t packets) {
  std::vector<double> xs;
  xs.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    xs.push_back(run_hotpath(cfg, packets).pkts_per_sec());
  }
  std::nth_element(xs.begin(), xs.begin() + reps / 2, xs.end());
  return xs[reps / 2];
}

}  // namespace

int main() {
  heading("Figure 15: time-counter overhead within middleboxes",
          "PerfSight (IMC'15) Fig. 15 / Sec. 7.4");
  const MbWorkKind kinds[] = {MbWorkKind::kProxy, MbWorkKind::kLoadBalancer,
                              MbWorkKind::kCache, MbWorkKind::kRedundancyElim,
                              MbWorkKind::kIps};

  row({"middlebox", "plain(Mpps)", "counters(Mpps)", "normalized(%)"}, 16);
  bool all_above_90 = true;
  double proxy_pps = 0, ips_pps = 0;
  for (MbWorkKind kind : kinds) {
    HotpathConfig cfg;
    cfg.kind = kind;
    cfg.packet_bytes = 1500;
    cfg.simple_counters = true;
    cfg.time_counters = false;
    double base = median_pps(cfg, 15, 60000);
    if (kind == MbWorkKind::kProxy) proxy_pps = base;
    if (kind == MbWorkKind::kIps) ips_pps = base;
    cfg.time_counters = true;
    double instrumented = median_pps(cfg, 15, 60000);
    double normalized = instrumented / base * 100.0;
    all_above_90 = all_above_90 && normalized > 90.0;
    row({to_string(kind), fmt("%.2f", base / 1e6),
         fmt("%.2f", instrumented / 1e6), fmt("%.1f", normalized)},
        16);
  }
  shape_check(all_above_90,
              "normalized throughput stays high for every middlebox kind "
              "(paper: >95%)");
  shape_check(proxy_pps > ips_pps,
              "work kinds have distinct costs: proxy forwards faster than "
              "the payload-scanning IPS");
  return 0;
}
