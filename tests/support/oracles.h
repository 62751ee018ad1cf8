// Test-only collection oracles.  Production has one collection path
// (AgentClient::query_batch under Controller::scatter_gather); the
// differential suites hold it to references that share none of its
// batching, codec or merge code:
//
//   * SequentialAgent answers each query_batch one element per inner round
//     trip, in request order, with no pool — what per-kind batching must be
//     indistinguishable from;
//   * WireLoopbackAgent passes every batch through the PSB1 codec, exactly
//     as a remote controller would receive it;
//   * reference_get_attr is GetAttr as a plain per-element loop over the
//     test rig's own owner and mirror maps;
//   * IntWindowOracle is IntHarvester::close_window aggregating into a
//     std::map keyed by element and pricing each flight by encoding it;
//   * reference_weighted_maxmin is the arbiter allocating its own buffers
//     on every call.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfsight/agent.h"
#include "perfsight/controller.h"
#include "perfsight/inband.h"
#include "perfsight/streaming.h"
#include "perfsight/wire.h"
#include "resources/maxmin.h"

namespace perfsight::oracle {

// Forwards the roster questions; subclasses decide how batches are fetched.
class ForwardingAgent : public AgentClient {
 public:
  explicit ForwardingAgent(AgentClient* inner) : inner_(inner) {}
  const std::string& name() const override { return inner_->name(); }
  bool has_element(const ElementId& id) const override {
    return inner_->has_element(id);
  }
  std::vector<ElementId> element_ids() const override {
    return inner_->element_ids();
  }

 protected:
  AgentClient* inner_;
};

class SequentialAgent : public ForwardingAgent {
 public:
  using ForwardingAgent::ForwardingAgent;
  BatchResponse query_batch(const std::vector<ElementId>& ids, SimTime now,
                            ThreadPool* /*pool*/ = nullptr) override {
    BatchResponse out;
    for (const ElementId& id : ids) {
      BatchResponse one = inner_->query_batch({id}, now);
      out.channel_time += one.channel_time;
      out.unknown_ids += one.unknown_ids;
      out.degraded += one.degraded;
      for (QueryResponse& r : one.responses) {
        out.responses.push_back(std::move(r));
      }
    }
    std::stable_sort(out.responses.begin(), out.responses.end(),
                     [](const QueryResponse& a, const QueryResponse& b) {
                       return a.record.element < b.record.element;
                     });
    return out;
  }
};

class WireLoopbackAgent : public ForwardingAgent {
 public:
  using ForwardingAgent::ForwardingAgent;
  BatchResponse query_batch(const std::vector<ElementId>& ids, SimTime now,
                            ThreadPool* pool = nullptr) override {
    BatchResponse b = inner_->query_batch(ids, now, pool);
    Result<std::string> bytes = wire::encode_batch(b);
    EXPECT_TRUE(bytes.ok()) << bytes.status().message();
    if (!bytes.ok()) return b;
    wire::DecodeStats st;
    Result<BatchResponse> decoded = wire::decode_batch(bytes.value(), &st);
    EXPECT_TRUE(decoded.ok() && st.complete()) << "lossless codec lost data";
    return decoded.ok() ? std::move(decoded).take() : b;
  }
};

using OwnerMap = std::unordered_map<ElementId, AgentClient*>;

// GetAttr per element, in input order: the owner's answer, else (for a
// collection failure) the mirror's answer annotated kReplica, else the
// owner's failure Status.
inline std::vector<Result<Controller::QualifiedRecord>> reference_get_attr(
    const OwnerMap& owner, const OwnerMap& mirror,
    const std::vector<ElementId>& ids, const std::vector<std::string>& attrs,
    SimTime now) {
  using Q = Controller::QualifiedRecord;
  std::vector<Result<Q>> out;
  for (const ElementId& id : ids) {
    auto o = owner.find(id);
    if (o == owner.end()) {
      out.push_back(Status::not_found("no agent serves element " + id.name));
      continue;
    }
    Result<QueryResponse> r = o->second->query_attrs(id, attrs, now);
    auto m = mirror.find(id);
    if (!r.ok() && r.status().code() != StatusCode::kNotFound &&
        m != mirror.end()) {
      Result<QueryResponse> mr = m->second->query_attrs(id, attrs, now);
      if (mr.ok()) {
        out.push_back(Q{mr.value().record,
                        worse(DataQuality::kReplica, mr.value().quality)});
        continue;
      }
    }
    if (!r.ok()) {
      out.push_back(r.status());
    } else {
      out.push_back(Q{r.value().record, r.value().quality});
    }
  }
  return out;
}

// Closes INT windows the way IntHarvester does, by the plainest means: one
// map per window keyed by ElementId (so slots sharing an id merge, last hop
// wins kind/vm), each flight priced by actually encoding its kIntReport.
class IntWindowOracle {
 public:
  IntWindowOracle(inband::IntStamper* stamper, StreamCache* cache,
                  inband::IntHarvester::Config cfg)
      : stamper_(stamper), cache_(cache), cfg_(std::move(cfg)) {}

  std::vector<inband::IntHarvester::Microburst> bursts;
  uint64_t report_bytes = 0;

  size_t close_window(SimTime window_start) {
    stamper_->expire(cfg_.expire_after);
    std::vector<inband::Flight> flights = stamper_->take_finished();
    struct PerElement {
      ElementKind kind = ElementKind::kOther;
      int vm = -1;
      uint64_t samples = 0;
      uint64_t peak_pkts = 0;
      uint64_t drop_tail = 0;
      int64_t io_ns = 0;
    };
    std::map<ElementId, PerElement> agg;
    for (const inband::Flight& f : flights) {
      wire::IntReportMsg m;
      m.agent = cfg_.agent;
      m.tag = f.tag;
      m.start = f.start;
      m.end = f.end;
      m.dropped = f.dropped;
      for (const inband::Hop& h : f.hops) {
        const ElementId id = stamper_->element(h.slot);
        m.hops.push_back(wire::IntHopWire{
            id, h.queue_pkts, h.io_time.ns(),
            static_cast<uint8_t>(h.drop_tail ? 1 : 0)});
        PerElement& pe = agg[id];
        pe.kind = h.kind;
        pe.vm = h.vm;
        ++pe.samples;
        pe.peak_pkts = std::max(pe.peak_pkts, h.queue_pkts);
        pe.io_ns += h.io_time.ns();
        if (h.drop_tail) ++pe.drop_tail;
      }
      Result<std::string> enc = wire::encode_int_report(m);
      if (enc.ok()) report_bytes += enc.value().size();
    }

    const uint64_t every = stamper_->config().sample_every;
    inband::IntHarvester::Microburst burst;
    burst.window_start = window_start;
    std::vector<QueryResponse> responses;
    for (const auto& [id, pe] : agg) {
      QueryResponse qr;
      qr.record.timestamp = window_start;
      qr.record.element = id;
      qr.record.attrs = {
          {attr::kQueuePkts, static_cast<double>(pe.peak_pkts)},
          {attr::kDropPkts, static_cast<double>(pe.drop_tail * every)},
          {attr::kInTimeNs, static_cast<double>(pe.io_ns)},
          {attr::kType, static_cast<double>(static_cast<int>(pe.kind))},
          {attr::kVm, static_cast<double>(pe.vm)},
          {inband::kIntSamples, static_cast<double>(pe.samples)},
          {inband::kIntQueuePeakPkts, static_cast<double>(pe.peak_pkts)},
          {inband::kIntIoTimeNs, static_cast<double>(pe.io_ns)},
          {inband::kIntDropTailFlights, static_cast<double>(pe.drop_tail)},
      };
      qr.quality = DataQuality::kFresh;
      qr.attempts = 1;
      responses.push_back(std::move(qr));
      if (cfg_.microburst_depth_pkts > 0 &&
          pe.peak_pkts >= cfg_.microburst_depth_pkts) {
        burst.elements.push_back(id);
        burst.peak_depth_pkts = std::max(burst.peak_depth_pkts, pe.peak_pkts);
      }
    }
    if (cache_ != nullptr && !responses.empty()) {
      cache_->ingest(cfg_.agent, window_start,
                     StreamCache::Provenance::kInband, std::move(responses));
    }
    if (!burst.elements.empty()) bursts.push_back(std::move(burst));
    return flights.size();
  }

 private:
  inband::IntStamper* stamper_;
  StreamCache* cache_;
  inband::IntHarvester::Config cfg_;
};

// weighted_maxmin with every buffer allocated per call.
inline std::vector<double> reference_weighted_maxmin(
    double capacity, const std::vector<Demand>& demands) {
  const size_t n = demands.size();
  std::vector<double> alloc(n, 0.0);
  if (n == 0 || capacity <= 0) return alloc;
  std::vector<double> want(n);
  for (size_t i = 0; i < n; ++i) {
    double w = std::max(0.0, demands[i].amount);
    if (demands[i].cap >= 0) w = std::min(w, demands[i].cap);
    want[i] = w;
  }
  std::vector<bool> done(n, false);
  double remaining = capacity;
  for (size_t pass = 0; pass < n; ++pass) {
    double active_weight = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!done[i] && want[i] > alloc[i]) {
        active_weight += std::max(1e-12, demands[i].weight);
      } else {
        done[i] = true;
      }
    }
    if (active_weight <= 0 || remaining <= 1e-12) break;
    double fill = remaining / active_weight;
    bool any_satisfied = false;
    double given_total = 0;
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      double w = std::max(1e-12, demands[i].weight);
      double offer = fill * w;
      double need = want[i] - alloc[i];
      double given = std::min(offer, need);
      alloc[i] += given;
      given_total += given;
      if (given >= need - 1e-12) {
        done[i] = true;
        any_satisfied = true;
      }
    }
    remaining -= given_total;
    if (!any_satisfied) break;
  }
  return alloc;
}

}  // namespace perfsight::oracle
