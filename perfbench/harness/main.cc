// perfbench_harness: runs one PerfSight workload for a fixed wall time and
// prints its metrics.
//
//   perfbench_harness --workload <sim_diagnose|fleet_pull|fleet_push>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// Set-up (build the topology, start the server, connect, warm up) is done
// kSetups times and its median reported as setup_s; the last copy is then
// driven by one closed loop for --seconds.  With --trace 0 the end-to-end
// metrics are printed; with --trace 1 the run alternates untraced and traced
// blocks of windows, derives the per-layer metrics from the traced blocks'
// spans, and writes the spans to .bench_out/<workload>-<seed>.trace.json.
// Every window's verdict is checked against the seeded schedule; the last
// line of output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfsight/wire.h"
#include "workload.h"

namespace perfbench {

// --- shared helpers -------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<double> span_durations(const std::vector<Span>& spans,
                                   const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.dur()));
    }
  }
  return out;
}

std::vector<double> span_self(const std::vector<Span>& spans,
                              const std::vector<int64_t>& self_ns,
                              const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(self_ns[s.id - 1]));
    }
  }
  return out;
}

double span_items(const std::vector<Span>& spans, const char* name) {
  double n = 0;
  for (const Span& s : spans) {
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
      n += static_cast<double>(s.items);
    }
  }
  return n;
}

double span_union(const std::vector<Span>& spans, const char* name) {
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const Span& s : spans) {
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
      iv.emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0;
  int64_t end = INT64_MIN;
  for (const auto& [a, b] : iv) {
    const int64_t from = std::max(a, end);
    if (b > from) covered += static_cast<double>(b - from);
    end = std::max(end, b);
  }
  return covered;
}

double sum(const std::vector<double>& v) {
  double t = 0;
  for (double x : v) t += x;
  return t;
}

perfsight::Result<perfsight::QueryResponse> TimedAgent::query_attrs(
    const perfsight::ElementId& id, const std::vector<std::string>& attrs,
    perfsight::SimTime now) {
  ScopedSpan span(tracer_, span_name_);
  auto r = inner_->query_attrs(id, attrs, now);
  if (r.ok()) records_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

perfsight::BatchResponse TimedAgent::query_batch(
    const std::vector<perfsight::ElementId>& ids, perfsight::SimTime now,
    perfsight::ThreadPool* pool) {
  perfsight::BatchResponse r;
  {
    ScopedSpan span(tracer_, span_name_);
    r = inner_->query_batch(ids, now, pool);
    if (span.id() != 0) tracer_->set_items(span.id(), r.responses.size());
  }
  records_.fetch_add(r.responses.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  degraded_.fetch_add(r.degraded, std::memory_order_relaxed);
  if (keep_.exchange(false)) {
    kept_ = r;
    kept_at_ = now;
    has_kept_ = true;
  }
  return r;
}

std::string canonical(const perfsight::BatchResponse& b) {
  std::string out = std::to_string(b.unknown_ids) + "/" +
                    std::to_string(b.degraded) + "/" +
                    std::to_string(b.responses.size()) + ":";
  for (perfsight::QueryResponse r : b.responses) {
    r.response_time = perfsight::Duration();
    auto enc = perfsight::wire::encode_frame(r);
    out += enc.ok() ? enc.value() : "<unencodable>";
  }
  return out;
}

namespace {

constexpr int kSetups = 5;
// Traced runs alternate untraced and traced blocks of this length, so the
// tracing overhead is measured on the same stretch of the schedule.
constexpr double kTraceBlockSec = 0.5;

// Every per-layer metric, in BENCHMARK.json order.  A workload fills in the
// ones its layers produce; the rest stay 0 (the layer is not on its path).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"sim.tick_ns_p50", "ns"},
    {"sim.tick_ns_p99", "ns"},
    {"sim.busy_share", "ratio"},
    {"inband.close_window_us_p50", "us"},
    {"inband.flights_per_window", "count"},
    {"inband.flight_yield", "ratio"},
    {"inband.report_bytes_per_window", "bytes"},
    {"inband.microbursts", "count"},
    {"inband.targeted_pulls", "count"},
    {"agent.batches", "count"},
    {"agent.ns_per_record", "ns"},
    {"agent.batch_us_p99", "us"},
    {"agent.records_degraded", "count"},
    {"remote_agent.batch_us_p50", "us"},
    {"remote_agent.batch_us_p99", "us"},
    {"remote_agent.ns_per_record", "ns"},
    {"remote_agent.reconnects", "count"},
    {"remote_agent.damaged_batches", "count"},
    {"remote_agent.server_batches", "count"},
    {"controller.straggler_us_p50", "us"},
    {"controller.queries_per_window", "count"},
    {"wire.encode_ns_per_record", "ns"},
    {"wire.decode_ns_per_record", "ns"},
    {"wire.bytes_per_record", "bytes"},
    {"streaming.frame_wait_us_p50", "us"},
    {"streaming.apply_ns_per_record", "ns"},
    {"streaming.lookup_ns_per_record", "ns"},
    {"streaming.bytes_per_frame", "bytes"},
    {"streaming.gaps", "count"},
    {"streaming.snapshot_share", "ratio"},
    {"contention.self_us_p50", "us"},
    {"contention.self_us_p99", "us"},
    {"contention.problems_found", "count"},
    {"rootcause.self_us_p50", "us"},
    {"rootcause.analyses", "count"},
    {"metrics.expose_us_p50", "us"},
    {"metrics.expose_bytes", "bytes"},
    {"share.sim", "ratio"},
    {"share.inband", "ratio"},
    {"share.agent", "ratio"},
    {"share.remote_agent", "ratio"},
    {"share.wire", "ratio"},
    {"share.streaming", "ratio"},
    {"share.contention", "ratio"},
    {"share.rootcause", "ratio"},
    {"share.metrics", "ratio"},
    {"trace.unaccounted_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// Threads of this process right now.
size_t thread_count() {
  std::error_code ec;
  size_t n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

double ms(double ns) { return ns / 1e6; }

void print_json(bool correct, uint64_t attempted, uint64_t failed,
                const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  Factory factory;
  if (args.workload == "sim_diagnose") {
    factory = make_sim_diagnose;
  } else if (args.workload == "fleet_pull") {
    factory = make_fleet_pull;
  } else if (args.workload == "fleet_push") {
    factory = make_fleet_push;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Tracer tracer;
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  for (int k = 0; k < kSetups; ++k) {
    inst.reset();
    const int64_t t0 = now_ns();
    inst = factory(args.seed, &tracer);
    inst->warm_up();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // --- the closed loop --------------------------------------------------------
  std::vector<double> window_ns, diag_ns;  // untraced windows
  uint64_t attempted = 0, failed = 0, judged = 0;
  uint64_t traced_windows = 0, untraced_windows = 0;
  int64_t traced_ns = 0, untraced_ns = 0;
  std::vector<std::string> failures;
  const uint64_t records0 = inst->records_delivered();
  const int64_t start = now_ns();
  const int64_t deadline =
      start + static_cast<int64_t>(args.seconds * 1e9);
  int64_t block_end = start;
  bool traced_block = true;  // flipped before the first window
  uint64_t window_id = 0;
  int64_t now = start;
  while (now < deadline) {
    if (args.trace && now >= block_end) {
      traced_block = !traced_block;
      tracer.set_on(traced_block);
      block_end = now + static_cast<int64_t>(kTraceBlockSec * 1e9);
    }
    const bool traced = args.trace && traced_block;
    ++window_id;
    tracer.set_trace_id(window_id);
    if (window_id == 1) inst->begin_measurement();
    const int64_t w0 = now_ns();
    WindowOutcome out;
    {
      ScopedSpan span(&tracer, "window");
      out = inst->run_window(window_id);
    }
    const int64_t w1 = now_ns();
    inst->after_window(&out);
    ++attempted;
    if (out.judged) ++judged;
    if (out.failed) {
      ++failed;
      if (failures.size() < 5) {
        failures.push_back("window " + std::to_string(window_id) + ": " +
                           out.failure);
      }
    }
    if (traced) {
      ++traced_windows;
      traced_ns += w1 - w0;
    } else {
      ++untraced_windows;
      untraced_ns += w1 - w0;
      window_ns.push_back(static_cast<double>(w1 - w0));
      diag_ns.push_back(static_cast<double>(out.diagnosis_ns));
    }
    now = now_ns();
  }
  tracer.set_on(false);
  const size_t threads = thread_count();
  const size_t connections = inst->connections();
  const double elapsed_s = static_cast<double>(now - start) / 1e9;
  const uint64_t records = inst->records_delivered() - records0;
  // Rates count the windows' own time, not the untimed checks between them.
  const double window_s = static_cast<double>(untraced_ns) / 1e9;

  // --- report -------------------------------------------------------------------
  const bool correct = failed == 0;
  std::printf("workload %s seed %llu: %llu windows in %.3f s, %llu judged, "
              "%llu failed\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted), elapsed_s,
              static_cast<unsigned long long>(judged),
              static_cast<unsigned long long>(failed));
  for (const std::string& f : failures) std::printf("  FAILED %s\n", f.c_str());
  std::printf("failed_ratio %.6f (%llu/%llu windows)\n",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("wire_bytes_per_record %.3f bytes\n",
              inst->wire_bytes_per_record());
  std::printf("threads %zu, server connections %zu\n", threads, connections);

  Metrics metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", percentile(setup_s, 50), "s"},
        {"windows_per_s", static_cast<double>(untraced_windows) / window_s,
         "1/s"},
        {"diagnosis_ms_mean", ms(sum(diag_ns) / static_cast<double>(diag_ns.size())),
         "ms"},
        {"records_per_s", static_cast<double>(records) / window_s, "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    for (const Metric& m : metrics) {
      std::printf("%-20s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    // Percentiles are printed but not reported as benchmark metrics.  The
    // host's speed moves between regimes for tens of seconds at a time; a
    // median then jumps between the regimes' modes from run to run, while
    // a mean moves only with the share of time spent in each.
    std::printf("%-20s %14.4f ms\n", "window_ms_p50", ms(percentile(window_ns, 50)));
    std::printf("%-20s %14.4f ms\n", "window_ms_p90", ms(percentile(window_ns, 90)));
    std::printf("%-20s %14.4f ms\n", "diagnosis_ms_p50", ms(percentile(diag_ns, 50)));
    std::printf("%-20s %14.4f ms\n", "diagnosis_ms_p90", ms(percentile(diag_ns, 90)));
    std::printf("window samples %zu\n", window_ns.size());
    std::printf("setup samples %d\n", kSetups);
  } else {
    const std::vector<Span> spans = tracer.spans();
    const std::vector<int64_t> self = self_times(spans);
    Metrics layer;
    inst->layer_metrics(spans, self, &layer);
    std::map<std::string, double> got;
    for (const Metric& m : layer) got[m.name] = m.value;
    const double window_total = sum(span_durations(spans, "window"));
    got["trace.unaccounted_share"] =
        window_total > 0 ? sum(span_self(spans, self, "window")) / window_total
                         : 0;
    const double wps_traced =
        traced_ns > 0 ? static_cast<double>(traced_windows) * 1e9 /
                            static_cast<double>(traced_ns)
                      : 0;
    const double wps_untraced =
        untraced_ns > 0 ? static_cast<double>(untraced_windows) * 1e9 /
                              static_cast<double>(untraced_ns)
                        : 0;
    got["trace.overhead_ratio"] =
        wps_untraced > 0 ? wps_traced / wps_untraced : 0;
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics.push_back(Metric{name, got.count(name) ? got[name] : 0, unit});
      std::printf("%-34s %14.4f %s\n", name, metrics.back().value, unit);
    }
    std::printf("traced windows %llu, untraced windows %llu, spans %zu "
                "(%llu dropped)\n",
                static_cast<unsigned long long>(traced_windows),
                static_cast<unsigned long long>(untraced_windows),
                spans.size(),
                static_cast<unsigned long long>(tracer.dropped()));
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string path = ".bench_out/" + args.workload + "-" +
                             std::to_string(args.seed) + ".trace.json";
    if (!tracer.write_chrome(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", path.c_str());
  }
  inst.reset();
  std::fflush(stdout);
  print_json(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <sim_diagnose|fleet_pull|fleet_push> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(args);
}
