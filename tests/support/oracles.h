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
//     test rig's own owner and mirror maps.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfsight/agent.h"
#include "perfsight/controller.h"
#include "perfsight/wire.h"

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

}  // namespace perfsight::oracle
