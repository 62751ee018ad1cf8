// The harness every workload plugs into.
//
// A workload is built (set up) from its seed, warmed up, then driven by one
// closed loop: the next monitoring window starts when the previous
// diagnosis returns.  One monitoring window is 100 ms of the monitored
// system's time: the world advances, counters for the diagnosed scope are
// collected, one diagnosis (Algorithm 1 or 2) runs, and its verdict is
// judged against the seeded schedule.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "perfsight/agent.h"
#include "tracer.h"

namespace perfbench {

inline constexpr perfsight::Duration kWindow = perfsight::Duration::millis(100);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// What one window reports back to the harness.
struct WindowOutcome {
  int64_t diagnosis_ns = 0;  // diagnose/analyze wall time minus its advance
  bool judged = false;       // compared against the schedule
  bool failed = false;       // wrong verdict, blind spot, decode error, ...
  std::string failure;       // first failure text (for the report)
};

// One set-up copy of a workload.
class Instance {
 public:
  virtual ~Instance() = default;
  // Runs the warm-up windows (part of set-up time).
  virtual void warm_up() = 0;
  // Marks the start of the measured windows (counter baselines).
  virtual void begin_measurement() = 0;
  // One closed-loop monitoring window.
  virtual WindowOutcome run_window(uint64_t window_id) = 0;
  // Checks that need not be timed (oracle comparisons, codec replays), run
  // after the window's span has closed.  May mark the window failed.
  virtual void after_window(WindowOutcome* /*out*/) {}
  // Records delivered into diagnosis so far.
  virtual uint64_t records_delivered() const = 0;
  // Controller-side bytes received per delivered record (0 in-process).
  virtual double wire_bytes_per_record() const = 0;
  // Live socket connections into the workload's server (0 without one).
  virtual size_t connections() const { return 0; }
  // Per-layer metrics, from the finished span list plus the program's own
  // counters over the measured windows.
  virtual void layer_metrics(const std::vector<Span>& spans,
                             const std::vector<int64_t>& self_ns,
                             Metrics* out) = 0;
};

using Factory =
    std::function<std::unique_ptr<Instance>(uint64_t seed, Tracer* tracer)>;

std::unique_ptr<Instance> make_sim_diagnose(uint64_t seed, Tracer* tracer);
std::unique_ptr<Instance> make_fleet_pull(uint64_t seed, Tracer* tracer);
std::unique_ptr<Instance> make_fleet_push(uint64_t seed, Tracer* tracer);

// --- helpers shared by the workloads ------------------------------------------

// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);

// Durations (ns) of every span named `name`, and their self times.
std::vector<double> span_durations(const std::vector<Span>& spans,
                                   const char* name);
std::vector<double> span_self(const std::vector<Span>& spans,
                              const std::vector<int64_t>& self_ns,
                              const char* name);
double sum(const std::vector<double>& v);
// Wall time covered by at least one span named `name` (parallel spans
// count once).
double span_union(const std::vector<Span>& spans, const char* name);
// Summed work-item counts of every span named `name`.
double span_items(const std::vector<Span>& spans, const char* name);

// Times every call into the AgentClient it wraps (span "agent.batch" or
// the name given) and counts the records it hands to the controller.  The
// controller holds the decorator in place of the agent.
class TimedAgent : public perfsight::AgentClient {
 public:
  TimedAgent(perfsight::AgentClient* inner, Tracer* tracer,
             const char* span_name)
      : inner_(inner), tracer_(tracer), span_name_(span_name) {}

  const std::string& name() const override { return inner_->name(); }
  bool has_element(const perfsight::ElementId& id) const override {
    return inner_->has_element(id);
  }
  std::vector<perfsight::ElementId> element_ids() const override {
    return inner_->element_ids();
  }
  perfsight::Result<perfsight::QueryResponse> query_attrs(
      const perfsight::ElementId& id, const std::vector<std::string>& attrs,
      perfsight::SimTime now) override;
  perfsight::BatchResponse query_batch(
      const std::vector<perfsight::ElementId>& ids, perfsight::SimTime now,
      perfsight::ThreadPool* pool = nullptr) override;

  uint64_t records() const { return records_.load(); }
  uint64_t batches() const { return batches_.load(); }
  uint64_t degraded() const { return degraded_.load(); }

  // When armed, the next batch's response is copied out (oracle / codec
  // replay); take_kept() hands it over.
  void keep_next() { keep_.store(true); }
  bool has_kept() const { return has_kept_; }
  perfsight::BatchResponse take_kept() {
    has_kept_ = false;
    return std::move(kept_);
  }
  perfsight::SimTime kept_at() const { return kept_at_; }

 private:
  perfsight::AgentClient* inner_;
  Tracer* tracer_;
  const char* span_name_;
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<bool> keep_{false};
  // Written by the one thread that runs this agent's batch, read by the
  // main thread after the scatter joined.
  bool has_kept_ = false;
  perfsight::BatchResponse kept_;
  perfsight::SimTime kept_at_;
};

// Canonical bytes of a batch for oracle comparison: every response encoded
// with the wire codec, with the modelled channel jitter (response_time) and
// the batch channel time zeroed — jitter is the one quantity that is not a
// pure function of (seed, element, time).
std::string canonical(const perfsight::BatchResponse& b);

}  // namespace perfbench
