#include "perfsight/contention.h"

#include <algorithm>
#include <set>

#include "perfsight/trace.h"

namespace perfsight {

namespace {
const ElementId kAlgo1Id{"diagnosis/contention"};
}  // namespace

namespace {

struct Sample {
  double drops = 0;
  double in_pkts = 0;
  double out_pkts = 0;
  ElementKind kind = ElementKind::kOther;
  int vm = -1;
  bool valid = false;
  bool has_drop_counter = false;
  DataQuality quality = DataQuality::kMissing;  // kFresh once sampled cleanly
};

// The attribute set one contention sample needs; shared by the single-element
// and batched sampling paths.
std::vector<std::string> sample_attrs() {
  return {attr::kDropPkts, attr::kRxPkts, attr::kTxPkts, attr::kType,
          attr::kVm};
}

Sample to_sample(const Result<Controller::QualifiedRecord>& r) {
  Sample s;
  if (!r.ok()) return s;
  s.quality = r.value().quality;
  const StatsRecord& rec = r.value().record;
  s.has_drop_counter = rec.get(attr::kDropPkts).has_value();
  s.drops = rec.get_or(attr::kDropPkts, 0);
  s.in_pkts = rec.get_or(attr::kRxPkts, 0);
  s.out_pkts = rec.get_or(attr::kTxPkts, 0);
  s.kind = static_cast<ElementKind>(
      static_cast<int>(rec.get_or(attr::kType, static_cast<double>(static_cast<int>(ElementKind::kOther)))));
  s.vm = static_cast<int>(rec.get_or(attr::kVm, -1));
  s.valid = true;
  return s;
}

bool is_shared_kind(ElementKind k) {
  switch (k) {
    case ElementKind::kPNic:
    case ElementKind::kPCpuBacklog:
    case ElementKind::kNapi:
    case ElementKind::kVSwitch:
      return true;
    default:
      return false;
  }
}

}  // namespace

ContentionReport ContentionDetector::diagnose(TenantId tenant, Duration window,
                                              const AuxSignals& aux) const {
  const SimTime t0 = controller_->now();
  const Duration ch0 = controller_->channel_time();
  trace_event(kAlgo1Id, t0, TraceEventKind::kDiagnosisStarted,
              static_cast<double>(tenant.value()), "Algorithm 1 sweep");

  // Runs at every exit: observe what this diagnosis itself cost (the sweep
  // window plus the modelled channel time of every query it issued).
  auto finish = [&](const ContentionReport& r) {
    const SimTime t1 = controller_->now();
    const Duration cost = (t1 - t0) + (controller_->channel_time() - ch0);
    {
      std::lock_guard<std::mutex> lock(latency_mu_);
      latency_.observe(cost.sec());
    }
    trace_event(kAlgo1Id, t1, TraceEventKind::kDiagnosisCompleted, cost.ms(),
                r.problem_found ? "problem found" : "healthy");
  };

  ContentionReport report;
  std::vector<ElementId> elements = controller_->stack_elements_for(tenant);

  // One shared measurement window for the whole sweep.  Each sweep is one
  // scatter-gather fan-in: the controller groups the elements by owning
  // agent, issues one batch per agent over the pool, and merges results
  // back in element order — so the report below never depends on completion
  // order, and the per-element channel cost amortizes per channel kind.
  const std::vector<std::string> attrs = sample_attrs();
  std::vector<Sample> first(elements.size());
  std::vector<Sample> second(elements.size());
  auto sweep = [&](std::vector<Sample>& out) {
    std::vector<Result<Controller::QualifiedRecord>> got =
        controller_->get_attr_many(tenant, elements, attrs, pool_);
    for (size_t i = 0; i < elements.size(); ++i) out[i] = to_sample(got[i]);
  };
  sweep(first);
  controller_->advance(window);
  sweep(second);
  for (size_t i = 0; i < elements.size(); ++i) {
    const ElementId& e = elements[i];
    const Sample& s1 = first[i];
    const Sample& s2 = second[i];
    // A loss delta is only trustworthy when *both* endpoints were actually
    // measured (fresh primary or quorum replica): stale counters produce
    // bogus deltas and torn records may be missing the very counters the
    // delta needs.  Degraded elements become blind spots instead of ranked
    // entries.
    const DataQuality q = worse(s1.quality, s2.quality);
    if (!s1.valid || !s2.valid || !is_measured(q)) {
      report.blind_spots.push_back(ContentionReport::BlindSpot{e, q});
      continue;
    }
    ElementLossEntry entry;
    entry.id = e;
    entry.kind = s2.kind;
    entry.vm = s2.vm;
    if (s2.has_drop_counter) {
      entry.loss_pkts = static_cast<int64_t>(s2.drops - s1.drops);
    } else {
      // The paper's (in - out) growth, for elements without an explicit
      // drop counter.
      entry.loss_pkts = static_cast<int64_t>((s2.in_pkts - s2.out_pkts) -
                                             (s1.in_pkts - s1.out_pkts));
    }
    if (entry.loss_pkts < 0) entry.loss_pkts = 0;
    report.ranked.push_back(entry);
  }
  std::sort(report.ranked.begin(), report.ranked.end(),
            [](const ElementLossEntry& a, const ElementLossEntry& b) {
              if (a.loss_pkts != b.loss_pkts) return a.loss_pkts > b.loss_pkts;
              return a.id < b.id;
            });

  if (!elements.empty()) {
    report.coverage =
        static_cast<double>(elements.size() - report.blind_spots.size()) /
        static_cast<double>(elements.size());
  }
  // Appended to every narrative when the sweep had blind spots: a verdict
  // from partial data must say so.
  auto blind_note = [&]() -> std::string {
    if (report.blind_spots.empty()) return "";
    return "; " + std::to_string(report.blind_spots.size()) +
           " element(s) unmeasured (coverage " +
           std::to_string(static_cast<int>(report.coverage * 100 + 0.5)) +
           "%)";
  };

  if (report.ranked.empty() ||
      report.ranked.front().loss_pkts < loss_threshold_) {
    report.narrative = "no significant packet loss in the software dataplane" +
                       blind_note();
    finish(report);
    return report;
  }

  const ElementLossEntry& primary = report.ranked.front();
  report.problem_found = true;
  report.primary_location = primary.kind;

  // Spread: which VMs' per-VM elements (of the primary kind) are losing?
  std::set<int> vms;
  for (const ElementLossEntry& e : report.ranked) {
    if (e.kind == primary.kind && e.loss_pkts >= loss_threshold_ &&
        e.vm >= 0) {
      vms.insert(e.vm);
    }
  }
  report.affected_vms.assign(vms.begin(), vms.end());
  if (is_shared_kind(primary.kind)) {
    report.spread = LossSpread::kSharedElement;
    report.is_contention = true;
  } else if (vms.size() > 1) {
    report.spread = LossSpread::kMultiVm;
    report.is_contention = true;
  } else {
    report.spread = LossSpread::kSingleVm;
    report.is_contention = false;
  }

  report.candidate_resources =
      rulebook_.candidates(primary.kind, report.spread);
  report.candidate_resources =
      RuleBook::disambiguate(report.candidate_resources, aux);

  std::string where = to_string(primary.kind);
  report.narrative = "loss concentrated at " + where + " (" +
                     primary.id.name + ", " +
                     std::to_string(primary.loss_pkts) + " pkts); " +
                     (report.is_contention
                          ? std::string("contention across ") +
                                std::to_string(std::max<size_t>(
                                    vms.size(), report.is_contention ? 2 : 1)) +
                                " VMs"
                          : "bottleneck confined to one VM");
  report.narrative += blind_note();
  finish(report);
  return report;
}

std::string to_text(const ContentionReport& r) {
  std::string out;
  out += "=== Algorithm 1: contention / bottleneck report ===\n";
  if (!r.problem_found) {
    out += "  no significant loss detected\n";
    if (!r.blind_spots.empty()) {
      out += "  WARNING: verdict from partial data; " +
             std::to_string(r.blind_spots.size()) +
             " element(s) unmeasured (coverage " +
             std::to_string(static_cast<int>(r.coverage * 100 + 0.5)) +
             "%)\n";
    }
    return out;
  }
  out += "  primary drop location: ";
  out += to_string(r.primary_location);
  out += "  (spread: ";
  out += to_string(r.spread);
  out += ", classified as ";
  out += r.is_contention ? "CONTENTION" : "BOTTLENECK";
  out += ")\n  candidate resources:";
  for (ResourceKind res : r.candidate_resources) {
    out += " ";
    out += to_string(res);
  }
  out += "\n  ranked element losses:\n";
  for (const ElementLossEntry& e : r.ranked) {
    if (e.loss_pkts <= 0) continue;
    out += "    " + e.id.name + " [" + to_string(e.kind) +
           "]: " + std::to_string(e.loss_pkts) + " pkts\n";
  }
  if (!r.blind_spots.empty()) {
    out += "  blind spots (excluded from ranking, coverage " +
           std::to_string(static_cast<int>(r.coverage * 100 + 0.5)) + "%):\n";
    for (const ContentionReport::BlindSpot& b : r.blind_spots) {
      out += "    " + b.id.name + ": " + to_string(b.quality) + "\n";
    }
  }
  return out;
}

}  // namespace perfsight
