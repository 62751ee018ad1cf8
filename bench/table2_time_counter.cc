// Table 2: throughput with/without time counters (plus §7.4's per-update
// counter costs).
//
// The paper runs an HTTP proxy in two regimes — ReadBlocked (client rate-
// limited; throughput set by the offered load) and Overloaded (TCP
// saturates the link; the proxy is the limit) — with and without PerfSight
// time counters, 100 repetitions each, reporting mean and variance.  The
// conclusion: < 2% throughput impact.
//
// This bench runs the real proxy hotpath on the host CPU: "Blocked" paces
// packet processing (throughput fixed by the pacing, counters only add
// latency headroom); "Overloaded" runs flat out (counters directly steal
// cycles).  Means and variances over 100 repetitions are reported in Mbps
// at 1500 B packets.
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "perfsight/hotpath.h"

using namespace perfsight;
using namespace perfsight::bench;

namespace {

constexpr uint32_t kPktBytes = 1500;
constexpr int kReps = 100;

// One "Overloaded" repetition: process packets as fast as possible.
double overloaded_mbps(bool time_counters) {
  HotpathConfig cfg;
  cfg.kind = MbWorkKind::kProxy;
  cfg.packet_bytes = kPktBytes;
  cfg.simple_counters = true;
  cfg.time_counters = time_counters;
  HotpathResult r = run_hotpath(cfg, 8000);
  return r.gbps(kPktBytes) * 1000.0;
}

// One "Blocked" repetition: pace batches so the offered load, not the CPU,
// sets throughput (like a rate-limited sender upstream).
double blocked_mbps(bool time_counters) {
  HotpathConfig cfg;
  cfg.kind = MbWorkKind::kProxy;
  cfg.packet_bytes = kPktBytes;
  cfg.simple_counters = true;
  cfg.time_counters = time_counters;
  using clock = std::chrono::steady_clock;
  auto start = clock::now();
  uint64_t packets = 0;
  // 40 batches of 100 packets, one batch per 800 us -> 125 Kpps offered,
  // well below the ~260 Kpps CPU limit, so pacing dominates.
  for (int batch = 0; batch < 40; ++batch) {
    HotpathResult r = run_hotpath(cfg, 100);
    packets += r.packets;
    auto deadline = start + std::chrono::microseconds(800 * (batch + 1));
    while (clock::now() < deadline) {
      // spin: a sleeping thread would add scheduler noise at this scale
    }
  }
  double secs = std::chrono::duration<double>(clock::now() - start).count();
  return static_cast<double>(packets) * kPktBytes * 8.0 / secs / 1e6;
}

struct MeanVar {
  double mean = 0, var = 0;
};

template <typename Fn>
MeanVar repeat(Fn&& fn, int reps) {
  std::vector<double> xs;
  xs.reserve(reps);
  for (int i = 0; i < reps; ++i) xs.push_back(fn());
  MeanVar mv;
  for (double x : xs) mv.mean += x;
  mv.mean /= reps;
  for (double x : xs) mv.var += (x - mv.mean) * (x - mv.mean);
  mv.var /= reps;
  return mv;
}

}  // namespace

int main() {
  heading("Table 2: throughput with/without time counters",
          "PerfSight (IMC'15) Table 2 / Sec. 7.4");

  // Per-update costs (paper: simple counters ~3 ns, time counters ~0.29 us).
  double simple_ns = measure_simple_counter_ns(2000000);
  double timer_ns = measure_time_counter_ns(200000);
  note("simple counter update: %.2f ns (paper: ~3 ns)", simple_ns);
  note("time counter update:   %.3f us (paper: ~0.29 us)", timer_ns / 1000.0);

  MeanVar b_off = repeat([] { return blocked_mbps(false); }, kReps);
  MeanVar b_on = repeat([] { return blocked_mbps(true); }, kReps);
  MeanVar o_off = repeat([] { return overloaded_mbps(false); }, kReps);
  MeanVar o_on = repeat([] { return overloaded_mbps(true); }, kReps);

  row({"experiment", "mean(Mbps)", "variance"}, 30);
  row({"1 Blocked, no counters", fmt("%.1f", b_off.mean),
       fmt("%.2f", b_off.var)},
      30);
  row({"2 Blocked, with counters", fmt("%.1f", b_on.mean),
       fmt("%.2f", b_on.var)},
      30);
  row({"3 Overloaded, no counters", fmt("%.1f", o_off.mean),
       fmt("%.2f", o_off.var)},
      30);
  row({"4 Overloaded, with counters", fmt("%.1f", o_on.mean),
       fmt("%.2f", o_on.var)},
      30);

  double blocked_impact = (b_off.mean - b_on.mean) / b_off.mean * 100;
  double overloaded_impact = (o_off.mean - o_on.mean) / o_off.mean * 100;
  note("throughput impact: blocked %.2f%%, overloaded %.2f%% (paper: <2%%)",
       blocked_impact, overloaded_impact);

  shape_check(simple_ns < 20, "simple counter update costs only a few ns");
  shape_check(timer_ns < 1000,
              "time counter update stays well below a microsecond");
  shape_check(timer_ns > simple_ns,
              "time counter update costs more than a simple counter update");
  shape_check(std::fabs(blocked_impact) < 3.0,
              "time counters barely affect a blocked (paced) middlebox");
  shape_check(std::fabs(overloaded_impact) < 5.0,
              "time counters cost <5% even when CPU-bound (paper <2%)");
  return 0;
}
