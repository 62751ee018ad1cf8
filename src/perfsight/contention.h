// Algorithm 1 (§5.1): detect contention and bottleneck middleboxes.
//
// Scans every virtualization-stack element on the machines hosting a
// tenant, measures each element's packet loss over a single shared window
// (one sample sweep, advance, second sweep — not one window per element),
// ranks elements by loss, and classifies:
//
//   * loss at a shared element (pNIC, pCPU backlog)            -> contention
//     for that element's resource among its users;
//   * loss at per-VM elements (TUNs) across multiple VMs        -> contention
//     for a shared resource (CPU / memory bandwidth / egress — the rule
//     book's ambiguous set, narrowed by auxiliary signals);
//   * loss confined to a single VM's datapath                   -> that VM is
//     a bottleneck (under-provisioned), not a victim of contention.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/threadpool.h"
#include "perfsight/controller.h"
#include "perfsight/histogram.h"
#include "perfsight/rulebook.h"

namespace perfsight {

struct ElementLossEntry {
  ElementId id;
  ElementKind kind = ElementKind::kOther;
  int vm = -1;  // owning VM, -1 for shared elements
  int64_t loss_pkts = 0;
};

struct ContentionReport {
  // An element the sweep could not measure reliably: its counters came back
  // stale, torn, or not at all (fault-tolerant collection).  Such elements
  // are excluded from the loss ranking — a stale counter pair yields a
  // bogus delta — and reported here instead, so the verdict is explicit
  // about where it is blind.
  struct BlindSpot {
    ElementId id;
    DataQuality quality = DataQuality::kMissing;
  };

  // All reliably-measured elements, sorted by descending loss
  // (Algorithm 1's output).
  std::vector<ElementLossEntry> ranked;
  bool problem_found = false;
  ElementKind primary_location = ElementKind::kOther;
  LossSpread spread = LossSpread::kNone;
  bool is_contention = false;  // vs single-VM bottleneck
  std::vector<int> affected_vms;
  std::vector<ResourceKind> candidate_resources;
  // Elements with degraded or missing data, in element-id order, and the
  // fraction of the scan set measured fresh (1.0 = full confidence).
  std::vector<BlindSpot> blind_spots;
  double coverage = 1.0;
  std::string narrative;
};

class ContentionDetector {
 public:
  ContentionDetector(const Controller* controller, RuleBook rulebook)
      : controller_(controller), rulebook_(std::move(rulebook)) {}

  // Minimum packet loss over the window to consider an element lossy
  // (filters measurement noise).
  void set_loss_threshold(int64_t pkts) { loss_threshold_ = pkts; }

  // Collection pool for the stack sweeps: the two sample sweeps fan their
  // per-element queries out across workers and merge by element index, so
  // the report is byte-identical to the sequential scan.  Optional; not
  // owned; null means sequential.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  ContentionReport diagnose(TenantId tenant, Duration window,
                            const AuxSignals& aux = {}) const;

  // Self-profiling: the end-to-end cost (measurement window + modelled
  // channel time) of every diagnose() so far.  A snapshot taken under the
  // detector's lock.
  LatencyHistogram diagnosis_latency() const {
    std::lock_guard<std::mutex> lock(latency_mu_);
    return latency_;
  }

 private:
  const Controller* controller_;
  RuleBook rulebook_;
  int64_t loss_threshold_ = 1;
  ThreadPool* pool_ = nullptr;
  mutable std::mutex latency_mu_;
  mutable LatencyHistogram latency_;
};

std::string to_text(const ContentionReport& report);

}  // namespace perfsight
