// fleet_pull and fleet_push: the collection path does the work; there is no
// simulator.
//
// Four in-process Agents of 256 synthetic elements each sit behind one
// unix-socket RemoteAgentServer.  Every element's counters are a seeded
// closed-form function of time, so the "world" advances by moving a clock.
// Each element carries the counters Algorithm 1 reads plus a seeded draw of
// further stats.h attrs and operator-defined attrs.  A seeded timeline of
// loss episodes (shared-element contention, multi-VM contention, a
// single-VM bottleneck) alternates with quiet stretches.  One Algorithm 1
// runs over the whole fleet per window; the controller scatters over two
// pool workers.
//
//   fleet_pull: the controller queries four RemoteAgents (PSB1 batches over
//               four connections).
//   fleet_push: four StreamSubscribers receive one delta frame per agent per
//               window (request_publish at each boundary), frames go into a
//               StreamCache, and Algorithm 1 reads StreamCacheAgents one
//               window behind the publish frontier.
//
// Threads: main + 2 pool workers + the server's event loop.  Connections: 4.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "perfsight/agent.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/remote_agent.h"
#include "perfsight/streaming.h"
#include "perfsight/wire.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace perfsight;

constexpr int kAgents = 4;
constexpr int kElementsPerAgent = 256;
constexpr int kVmsPerAgent = 48;
constexpr size_t kPoolWorkers = 2;
constexpr int kWarmupWindows = 20;
// Push windows wait for the server's publish tick; fewer suffice.
constexpr int kPushWarmupWindows = 1;
// Every this many windows, the records diagnosis read are compared with the
// server's own agents queried in-process.
constexpr uint64_t kOracleEvery = 8;
const transport::WallDuration kIoDeadline{5000};
const TenantId kTenant{1};
const SimTime kScheduleStart = SimTime::seconds(2.0);
// Far past any run's end, even for a program many times faster than today.
const SimTime kScheduleEnd = SimTime::seconds(20000.0);

// Attrs an element may carry beyond the five Algorithm 1 reads.
const std::vector<const char*> kOptionalAttrs = {
    attr::kRxBytes,   attr::kTxBytes,    attr::kDropBytes, attr::kInTimeNs,
    attr::kOutTimeNs, attr::kQueuePkts,  attr::kQueueBytes,
    attr::kCapacityMbps, attr::kInBytes, attr::kOutBytes};
const std::vector<const char*> kOperatorAttrs = {
    "opFlowTableHits", "opFlowTableMisses", "opRingResizes", "opCryptoOps",
    "opNatEntries"};

// One loss episode: `rate` drop pkts/s at `element` during [start, end).
struct Loss {
  double start_s = 0;
  double end_s = 0;
  double rate = 0;
};

class SyntheticElement final : public StatsSource {
 public:
  SyntheticElement(ElementId id, ChannelKind channel, ElementKind kind, int vm,
                   Pcg32& rng)
      : id_(std::move(id)), channel_(channel), kind_(kind), vm_(vm) {
    rx_pps_ = rng.uniform(2e4, 4e5);
    const int optional = static_cast<int>(rng.next_below(6));  // 0..5
    std::vector<const char*> pool = kOptionalAttrs;
    for (int i = 0; i < optional; ++i) {
      const size_t k = rng.next_below(static_cast<uint32_t>(pool.size()));
      extra_.push_back({pool[k], rng.uniform(1, 1e4)});
      pool.erase(pool.begin() + static_cast<long>(k));
    }
    const int custom = 1 + static_cast<int>(rng.next_below(3));  // 1..3
    for (int i = 0; i < custom; ++i) {
      extra_.push_back({kOperatorAttrs[(static_cast<size_t>(i) + rng.next_below(5)) %
                                       kOperatorAttrs.size()],
                        rng.uniform(1, 1e3)});
    }
    // Operator names may repeat across draws; keep the first.
    std::set<std::string> seen;
    std::vector<Extra> unique;
    for (const Extra& e : extra_) {
      if (seen.insert(e.name).second) unique.push_back(e);
    }
    extra_ = std::move(unique);
  }

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return channel_; }
  // Episodes arrive in time order and never overlap on one element.
  void add_loss(Loss l) {
    done_before_.push_back(
        losses_.empty() ? 0.0
                        : done_before_.back() +
                              losses_.back().rate *
                                  (losses_.back().end_s - losses_.back().start_s));
    losses_.push_back(l);
  }

  StatsRecord collect(SimTime now) const override {
    const double t = now.sec();
    // Drops of every episode that started by t: the finished ones summed
    // ahead of time, the last one up to t.
    double drops = 0;
    auto it = std::upper_bound(
        losses_.begin(), losses_.end(), t,
        [](double x, const Loss& l) { return x < l.start_s; });
    if (it != losses_.begin()) {
      const size_t k = static_cast<size_t>(it - losses_.begin()) - 1;
      const Loss& l = losses_[k];
      drops = std::floor(done_before_[k] +
                         l.rate * (std::min(t, l.end_s) - l.start_s));
    }
    const double rx = std::floor(rx_pps_ * t);
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs.reserve(5 + extra_.size());
    r.attrs.push_back({attr::kType, static_cast<double>(static_cast<int>(kind_))});
    r.attrs.push_back({attr::kVm, static_cast<double>(vm_)});
    r.attrs.push_back({attr::kRxPkts, rx + drops});
    r.attrs.push_back({attr::kTxPkts, rx});
    r.attrs.push_back({attr::kDropPkts, drops});
    for (const Extra& e : extra_) {
      r.attrs.push_back({e.name, std::floor(e.per_sec * t)});
    }
    return r;
  }

 private:
  struct Extra {
    std::string name;
    double per_sec = 0;
  };
  ElementId id_;
  ChannelKind channel_;
  ElementKind kind_;
  int vm_;
  double rx_pps_ = 0;
  std::vector<Extra> extra_;
  std::vector<Loss> losses_;
  std::vector<double> done_before_;  // drops of the episodes before each
};

// What a loss episode must make Algorithm 1 report.
enum class Episode { kQuiet, kSharedNic, kSharedBacklog, kMultiVmTun, kSingleVmTun };
constexpr int kNumEpisodes = 4;

const char* to_text(Episode e) {
  switch (e) {
    case Episode::kQuiet: return "quiet";
    case Episode::kSharedNic: return "shared-pnic";
    case Episode::kSharedBacklog: return "shared-backlog";
    case Episode::kMultiVmTun: return "multi-vm-tun";
    case Episode::kSingleVmTun: return "single-vm-tun";
  }
  return "?";
}

struct Phase {
  SimTime start;
  SimTime end;
  Episode what = Episode::kQuiet;
  ElementKind location = ElementKind::kOther;
  bool contention = false;
};

// The fleet: agents, their elements, and the loss timeline.
struct Fleet {
  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::vector<std::unique_ptr<SyntheticElement>>> elements;
  std::vector<std::vector<ElementId>> ids;  // per agent, ascending
  std::vector<Phase> timeline;

  explicit Fleet(uint64_t seed) {
    Pcg32 rng(seed, 0xf1ee7);
    elements.resize(kAgents);
    ids.resize(kAgents);
    for (int a = 0; a < kAgents; ++a) {
      const std::string agent_name = "agent-" + std::to_string(a);
      agents.push_back(std::make_unique<Agent>(
          agent_name, seed * 131 + static_cast<uint64_t>(a)));
      const std::string host = "h" + std::to_string(a);
      auto add = [&](const std::string& suffix, ChannelKind ch, ElementKind k,
                     int vm) {
        elements[a].push_back(std::make_unique<SyntheticElement>(
            ElementId{host + "/" + suffix}, ch, k, vm, rng));
      };
      add("pnic", ChannelKind::kNetDeviceFile, ElementKind::kPNic, -1);
      add("backlog", ChannelKind::kProcFs, ElementKind::kPCpuBacklog, -1);
      add("napi", ChannelKind::kProcFs, ElementKind::kNapi, -1);
      add("vswitch", ChannelKind::kOvsChannel, ElementKind::kVSwitch, -1);
      // Per-VM elements fill the rest: a TUN for every VM, then the
      // hypervisor and guest elements round-robin.
      const ElementKind per_vm[] = {ElementKind::kHypervisorIo, ElementKind::kVNic,
                                    ElementKind::kGuestBacklog,
                                    ElementKind::kGuestSocket};
      const ChannelKind per_vm_ch[] = {ChannelKind::kQemuLog, ChannelKind::kGuestProc,
                                       ChannelKind::kGuestProc,
                                       ChannelKind::kGuestProc};
      for (int v = 0; v < kVmsPerAgent; ++v) {
        add("vm" + std::to_string(v) + "/tun", ChannelKind::kNetDeviceFile,
            ElementKind::kTun, a * kVmsPerAgent + v);
      }
      for (int i = 0; static_cast<int>(elements[a].size()) < kElementsPerAgent;
           ++i) {
        const int v = i % kVmsPerAgent;
        const int k = (i / kVmsPerAgent) % 4;
        add("vm" + std::to_string(v) + "/e" + std::to_string(i), per_vm_ch[k],
            per_vm[k], a * kVmsPerAgent + v);
      }
      for (const auto& e : elements[a]) {
        PS_CHECK(agents[a]->add_element(e.get()).is_ok());
        ids[a].push_back(e->id());
      }
      std::sort(ids[a].begin(), ids[a].end());
    }
    make_timeline(rng);
  }

  void make_timeline(Pcg32& rng) {
    SimTime t = kScheduleStart;
    auto ms = [&](double lo, double hi) {
      return Duration::millis(static_cast<int64_t>(rng.uniform(lo, hi) * 1000));
    };
    while (t < kScheduleEnd) {
      const SimTime q_end = t + ms(1.0, 2.0);
      timeline.push_back({t, q_end});
      Phase p;
      p.start = q_end;
      p.end = q_end + ms(1.5, 3.0);
      p.what = static_cast<Episode>(1 + rng.next_below(kNumEpisodes));
      const int a = static_cast<int>(rng.next_below(kAgents));
      auto& els = elements[a];
      auto lose = [&](SyntheticElement* e, double rate) {
        e->add_loss({p.start.sec(), p.end.sec(), rate});
      };
      switch (p.what) {
        case Episode::kSharedNic:
          lose(els[0].get(), rng.uniform(5e3, 5e4));
          p.location = ElementKind::kPNic;
          p.contention = true;
          break;
        case Episode::kSharedBacklog:
          lose(els[1].get(), rng.uniform(5e3, 5e4));
          p.location = ElementKind::kPCpuBacklog;
          p.contention = true;
          break;
        case Episode::kMultiVmTun: {
          const int n = 3 + static_cast<int>(rng.next_below(3));
          const int first = static_cast<int>(rng.next_below(kVmsPerAgent - n));
          for (int i = 0; i < n; ++i) {
            lose(els[4 + first + i].get(), rng.uniform(5e3, 5e4));
          }
          p.location = ElementKind::kTun;
          p.contention = true;
          break;
        }
        case Episode::kSingleVmTun:
          lose(els[4 + rng.next_below(kVmsPerAgent)].get(),
               rng.uniform(5e3, 5e4));
          p.location = ElementKind::kTun;
          p.contention = false;
          break;
        case Episode::kQuiet:
          break;
      }
      timeline.push_back(p);
      t = p.end;
    }
  }

  // The phase a window [t0, t1] is judged against, or null when an episode
  // edge falls inside it (a partial episode is not judged).
  const Phase* judged_phase(SimTime t0, SimTime t1) const {
    auto it = std::upper_bound(
        timeline.begin(), timeline.end(), t0,
        [](SimTime t, const Phase& p) { return t < p.start; });
    if (it == timeline.begin()) return nullptr;
    const Phase& p = *(it - 1);
    return t1 <= p.end ? &p : nullptr;
  }

  std::vector<Agent*> agent_ptrs() const {
    std::vector<Agent*> out;
    for (const auto& a : agents) out.push_back(a.get());
    return out;
  }
};

// A unix-socket path inside the working directory, unique per set-up.
std::string socket_path() {
  static int counter = 0;
  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  return ".bench_out/fleet-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

// Shared by both fleet workloads: the fleet, the server, the controller and
// the Algorithm 1 loop with its oracle.
class FleetBase : public Instance {
 public:
  // `replays_codec`: kept batches also go through the PSB1 codec (the pull
  // path's wire layer).
  FleetBase(uint64_t seed, Tracer* tracer, bool replays_codec)
      : tracer_(tracer),
        replays_codec_(replays_codec),
        fleet_(seed),
        server_(fleet_.agent_ptrs(), transport::Endpoint::unix_path(socket_path())),
        pool_(kPoolWorkers),
        controller_([this](Duration d) { return advance(d); },
                    [this] { return clock_; }),
        detector_(&controller_, RuleBook::standard()) {
    server_.set_io_deadline(kIoDeadline);
    PS_CHECK(server_.start().is_ok());
    controller_.set_pool(&pool_);
    detector_.set_pool(&pool_);
  }

  ~FleetBase() override {
    server_.stop();
    std::error_code ec;
    std::filesystem::remove(server_.endpoint().path, ec);
  }

  void begin_measurement() override {
    windows0_ = windows_;
    queries0_ = controller_.queries_issued();
    problems0_ = problems_found_;
    server_batches0_ = server_.batches_served();
  }

  uint64_t records_delivered() const override {
    uint64_t n = 0;
    for (const auto& t : timed_) n += t->records();
    return n;
  }

  size_t connections() const override { return server_.live_connections(); }

 protected:
  // Registers the clients the controller queries (one per agent, in agent
  // order) for the tenant's whole scan set.
  void register_clients(const char* span_name) {
    for (int a = 0; a < kAgents; ++a) {
      timed_.push_back(
          std::make_unique<TimedAgent>(clients_[a], tracer_, span_name));
      TimedAgent* t = timed_.back().get();
      controller_.register_agent(t);
      for (const ElementId& id : fleet_.ids[a]) {
        controller_.register_stack_element(t, id);
        PS_CHECK(controller_.register_element(kTenant, id, t).is_ok());
      }
    }
  }

  SimTime advance(Duration d) {
    const int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer_, "advance");
      clock_ = clock_ + d;
    }
    advance_ns_ += now_ns() - t0;
    return clock_;
  }

  // One Algorithm 1 over the fleet from the controller's current clock,
  // judged against the loss timeline.
  WindowOutcome diagnose(bool judge) {
    WindowOutcome out;
    ++windows_;
    oracle_window_ = judge && windows_ % kOracleEvery == 0;
    if (oracle_window_ || (judge && replays_codec_ && tracer_->on())) {
      for (auto& t : timed_) t->keep_next();
    }
    const SimTime t0 = clock_;
    const int64_t adv0 = advance_ns_;
    ContentionReport r;
    int64_t d0 = 0, d1 = 0;
    {
      ScopedSpan span(tracer_, "contention.diagnose");
      tracer_->set_fanout_parent(span.id());
      d0 = now_ns();
      r = detector_.diagnose(kTenant, kWindow);
      d1 = now_ns();
    }
    out.diagnosis_ns = (d1 - d0) - (advance_ns_ - adv0);
    if (r.problem_found) ++problems_found_;
    if (!judge) return out;
    if (!r.blind_spots.empty()) {
      fail(&out, std::to_string(r.blind_spots.size()) + " blind spot(s)");
      return out;
    }
    const Phase* p = fleet_.judged_phase(t0, clock_);
    if (p == nullptr) return out;
    out.judged = true;
    const bool ok = p->what == Episode::kQuiet
                        ? !r.problem_found
                        : r.problem_found && r.primary_location == p->location &&
                              r.is_contention == p->contention;
    if (!ok) {
      fail(&out, std::string(to_text(p->what)) + " at t=" +
                     std::to_string(t0.sec()) + "s: " + r.narrative);
    }
    return out;
  }

  // Sampled windows: the records diagnosis read must be byte-identical to
  // what the server's own agents return in-process for the same instant.
  void check_oracle(WindowOutcome* out) {
    for (int a = 0; a < kAgents; ++a) {
      TimedAgent& t = *timed_[a];
      if (!t.has_kept()) continue;
      const SimTime at = t.kept_at();
      const BatchResponse got = t.take_kept();
      if (oracle_window_) {
        const BatchResponse want = fleet_.agents[a]->query_batch(fleet_.ids[a], at);
        if (canonical(got) != canonical(want)) {
          fail(out, "agent-" + std::to_string(a) +
                        ": record differs from the in-process oracle");
        }
      }
      if (replays_codec_ && !replay_codec(got)) {
        fail(out, "agent-" + std::to_string(a) +
                      ": batch does not round-trip through the codec");
      }
    }
  }

  // The wire layer, replayed outside the window on the window's real
  // responses: its bytes per record and (traced) its encode/decode time.
  // False when the batch does not survive the round trip.
  bool replay_codec(const BatchResponse& b) {
    const int64_t e0 = now_ns();
    Result<std::string> enc = wire::encode_batch(b);
    const int64_t e1 = now_ns();
    if (!enc.ok()) return false;
    wire::DecodeStats stats;
    Result<BatchResponse> dec = wire::decode_batch(enc.value(), &stats);
    const int64_t e2 = now_ns();
    tracer_->add("wire.encode_batch", e0, e1, 0);
    tracer_->add("wire.decode_batch", e1, e2, 0);
    codec_records_ += b.responses.size();
    codec_bytes_ += enc.value().size();
    codec_encode_ns_ += e1 - e0;
    codec_decode_ns_ += e2 - e1;
    return dec.ok() && stats.complete() && canonical(dec.value()) == canonical(b);
  }

  static void fail(WindowOutcome* out, std::string why) {
    if (!out->failed) out->failure = std::move(why);
    out->failed = true;
  }

  // Metrics every fleet workload reports.
  void common_layer_metrics(const std::vector<Span>& spans,
                            const std::vector<int64_t>& self_ns,
                            const char* batch_span, Metrics* out) {
    const double window_total = sum(span_durations(spans, "window"));
    auto share = [&](double ns) {
      return window_total > 0 ? ns / window_total : 0.0;
    };
    const double windows = static_cast<double>(windows_ - windows0_);
    out->push_back({"controller.queries_per_window",
                    static_cast<double>(controller_.queries_issued() -
                                        queries0_) /
                        windows,
                    "count"});
    out->push_back({"controller.straggler_us_p50",
                    percentile(stragglers(spans, batch_span), 50) / 1e3, "us"});
    const std::vector<double> c_self =
        span_self(spans, self_ns, "contention.diagnose");
    out->push_back({"contention.self_us_p50", percentile(c_self, 50) / 1e3, "us"});
    out->push_back({"contention.self_us_p99", percentile(c_self, 99) / 1e3, "us"});
    out->push_back({"contention.problems_found",
                    static_cast<double>(problems_found_ - problems0_), "count"});
    out->push_back({"share.contention", share(sum(c_self)), "ratio"});
  }

  // Per scatter: slowest minus median batch duration.  A diagnosis makes
  // two sweeps of kAgents batches each; its batch spans are grouped by
  // parent and split in start order.
  static std::vector<double> stragglers(const std::vector<Span>& spans,
                                        const char* batch_span) {
    std::vector<std::vector<const Span*>> by_parent(spans.size() + 1);
    for (const Span& s : spans) {
      if (s.end_ns != 0 && s.parent != 0 &&
          std::string_view(s.name) == batch_span) {
        by_parent[s.parent].push_back(&s);
      }
    }
    std::vector<double> out;
    for (auto& group : by_parent) {
      if (group.size() < static_cast<size_t>(kAgents)) continue;
      std::sort(group.begin(), group.end(), [](const Span* a, const Span* b) {
        return a->start_ns < b->start_ns;
      });
      for (size_t i = 0; i + kAgents <= group.size(); i += kAgents) {
        std::vector<double> d;
        for (size_t j = i; j < i + kAgents; ++j) {
          d.push_back(static_cast<double>(group[j]->dur()));
        }
        out.push_back(*std::max_element(d.begin(), d.end()) - percentile(d, 50));
      }
    }
    return out;
  }

  double codec_bytes_per_record() const {
    return codec_records_ > 0 ? static_cast<double>(codec_bytes_) /
                                    static_cast<double>(codec_records_)
                              : 0;
  }

  Tracer* tracer_;
  const bool replays_codec_;
  Fleet fleet_;
  RemoteAgentServer server_;
  ThreadPool pool_;
  SimTime clock_ = SimTime::seconds(1.0);
  Controller controller_;
  ContentionDetector detector_;
  std::vector<AgentClient*> clients_;  // what the decorators wrap
  std::vector<std::unique_ptr<TimedAgent>> timed_;

  int64_t advance_ns_ = 0;
  uint64_t windows_ = 0;
  uint64_t problems_found_ = 0;
  bool oracle_window_ = false;
  uint64_t codec_records_ = 0, codec_bytes_ = 0;
  int64_t codec_encode_ns_ = 0, codec_decode_ns_ = 0;
  uint64_t windows0_ = 0, queries0_ = 0, problems0_ = 0, server_batches0_ = 0;
};

class FleetPull final : public FleetBase {
 public:
  FleetPull(uint64_t seed, Tracer* tracer)
      : FleetBase(seed, tracer, /*replays_codec=*/true) {
    for (int a = 0; a < kAgents; ++a) {
      remotes_.push_back(std::make_unique<RemoteAgent>(
          server_.endpoint(), fleet_.agents[a]->name()));
      remotes_.back()->set_deadline(kIoDeadline);
      PS_CHECK(remotes_.back()->connect().is_ok());
      clients_.push_back(remotes_.back().get());
    }
    register_clients("remote_agent.batch");
  }

  void warm_up() override {
    for (int i = 0; i < kWarmupWindows; ++i) diagnose(false);
  }

  WindowOutcome run_window(uint64_t) override {
    const uint64_t damaged0 = damaged();
    WindowOutcome out = diagnose(true);
    if (damaged() != damaged0) fail(&out, "damaged batch (decode error)");
    return out;
  }

  void after_window(WindowOutcome* out) override { check_oracle(out); }

  // Bytes the controller side received, counted from the codec's own
  // encodings of the sampled windows' responses.
  double wire_bytes_per_record() const override {
    return codec_bytes_per_record();
  }

  void layer_metrics(const std::vector<Span>& spans,
                     const std::vector<int64_t>& self_ns,
                     Metrics* out) override {
    common_layer_metrics(spans, self_ns, "remote_agent.batch", out);
    const double window_total = sum(span_durations(spans, "window"));
    const std::vector<double> b = span_durations(spans, "remote_agent.batch");
    const double items = span_items(spans, "remote_agent.batch");
    uint64_t reconnects = 0;
    for (const auto& r : remotes_) reconnects += r->transport_stats().reconnects;
    out->push_back({"remote_agent.batch_us_p50", percentile(b, 50) / 1e3, "us"});
    out->push_back({"remote_agent.batch_us_p99", percentile(b, 99) / 1e3, "us"});
    out->push_back(
        {"remote_agent.ns_per_record", items > 0 ? sum(b) / items : 0, "ns"});
    out->push_back(
        {"remote_agent.reconnects", static_cast<double>(reconnects), "count"});
    out->push_back({"remote_agent.damaged_batches",
                    static_cast<double>(damaged()), "count"});
    out->push_back({"remote_agent.server_batches",
                    static_cast<double>(server_.batches_served() -
                                        server_batches0_),
                    "count"});
    out->push_back({"share.remote_agent",
                    window_total > 0
                        ? span_union(spans, "remote_agent.batch") / window_total
                        : 0,
                    "ratio"});
    const double recs = static_cast<double>(codec_records_);
    out->push_back({"wire.encode_ns_per_record",
                    recs > 0 ? static_cast<double>(codec_encode_ns_) / recs : 0,
                    "ns"});
    out->push_back({"wire.decode_ns_per_record",
                    recs > 0 ? static_cast<double>(codec_decode_ns_) / recs : 0,
                    "ns"});
    out->push_back({"wire.bytes_per_record", codec_bytes_per_record(), "bytes"});
    // The codec work inside the window, estimated from the replay: each
    // delivered record was encoded by the server and decoded here once.
    const double per_record =
        recs > 0 ? static_cast<double>(codec_encode_ns_ + codec_decode_ns_) /
                       recs
                 : 0;
    out->push_back({"share.wire",
                    window_total > 0 ? per_record * items / window_total : 0,
                    "ratio"});
  }

 private:
  uint64_t damaged() const {
    uint64_t n = 0;
    for (const auto& r : remotes_) n += r->transport_stats().damaged;
    return n;
  }

  std::vector<std::unique_ptr<RemoteAgent>> remotes_;
};

class FleetPush final : public FleetBase {
 public:
  FleetPush(uint64_t seed, Tracer* tracer)
      : FleetBase(seed, tracer, /*replays_codec=*/false) {
    cache_.set_retention(8);
    for (int a = 0; a < kAgents; ++a) {
      subs_.push_back(std::make_unique<StreamSubscriber>(
          server_.endpoint(), fleet_.agents[a]->name()));
      PS_CHECK(subs_.back()->connect(kIoDeadline).is_ok());
      cache_agents_.push_back(std::make_unique<StreamCacheAgent>(
          &cache_, fleet_.agents[a]->name(), fleet_.ids[a]));
      clients_.push_back(cache_agents_.back().get());
    }
    register_clients("streaming.lookup");
    // The subscribe carries no acknowledgement: give the serve loop a
    // moment to read every subscription before the first publish request.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  void warm_up() override {
    // Two boundaries must be in the cache before the first diagnosis.
    pump(nullptr);
    pump(nullptr);
    for (int i = 0; i < kPushWarmupWindows; ++i) {
      pump(nullptr);
      behind_frontier();
      diagnose(false);
    }
  }

  void begin_measurement() override {
    FleetBase::begin_measurement();
    stats0_ = cache_.stats();
  }

  WindowOutcome run_window(uint64_t) override {
    WindowOutcome pumped;
    pump(&pumped);
    behind_frontier();
    WindowOutcome out = diagnose(true);
    if (pumped.failed) fail(&out, pumped.failure);
    return out;
  }

  void after_window(WindowOutcome* out) override {
    check_oracle(out);
    for (const std::string& body : kept_frames_) {
      ++frames_seen_;
      if (wire::decode_stream_data(body, nullptr).ok()) ++snapshots_seen_;
    }
    kept_frames_.clear();
  }

  // Stream bytes the cache accepted per record diagnosis read from it.
  double wire_bytes_per_record() const override {
    const uint64_t recs = records_delivered();
    return recs > 0 ? static_cast<double>(cache_.stats().bytes_applied) /
                          static_cast<double>(recs)
                    : 0;
  }

  void layer_metrics(const std::vector<Span>& spans,
                     const std::vector<int64_t>& self_ns,
                     Metrics* out) override {
    common_layer_metrics(spans, self_ns, "streaming.lookup", out);
    const double window_total = sum(span_durations(spans, "window"));
    const StreamCache::Stats s = cache_.stats();
    const std::vector<double> wait = span_durations(spans, "streaming.frame_wait");
    const std::vector<double> apply = span_durations(spans, "streaming.apply");
    const std::vector<double> lookup = span_durations(spans, "streaming.lookup");
    const double apply_items = span_items(spans, "streaming.apply");
    const double lookup_items = span_items(spans, "streaming.lookup");
    const uint64_t frames = s.frames_applied - stats0_.frames_applied;
    out->push_back(
        {"streaming.frame_wait_us_p50", percentile(wait, 50) / 1e3, "us"});
    out->push_back({"streaming.apply_ns_per_record",
                    apply_items > 0 ? sum(apply) / apply_items : 0, "ns"});
    out->push_back({"streaming.lookup_ns_per_record",
                    lookup_items > 0 ? sum(lookup) / lookup_items : 0, "ns"});
    out->push_back(
        {"streaming.bytes_per_frame",
         frames > 0 ? static_cast<double>(s.bytes_applied - stats0_.bytes_applied) /
                          static_cast<double>(frames)
                    : 0,
         "bytes"});
    out->push_back({"streaming.gaps", static_cast<double>(s.gaps - stats0_.gaps),
                    "count"});
    out->push_back({"streaming.snapshot_share",
                    frames_seen_ > 0 ? static_cast<double>(snapshots_seen_) /
                                           static_cast<double>(frames_seen_)
                                     : 0,
                    "ratio"});
    out->push_back({"share.streaming",
                    window_total > 0
                        ? (sum(span_durations(spans, "streaming.pump")) +
                           span_union(spans, "streaming.lookup")) /
                              window_total
                        : 0,
                    "ratio"});
  }

 private:
  // Publishes the next boundary and applies every agent's frame.
  void pump(WindowOutcome* out) {
    ScopedSpan span(tracer_, "streaming.pump");
    frontier_ = frontier_ + kWindow;
    server_.request_publish(frontier_);
    std::vector<std::string> bodies;
    {
      ScopedSpan wait(tracer_, "streaming.frame_wait");
      for (auto& sub : subs_) {
        Result<std::string> body = sub->next_body(kIoDeadline);
        if (!body.ok()) {
          if (out != nullptr) fail(out, "stream: " + body.status().to_string());
          return;
        }
        bodies.push_back(std::move(body).take());
      }
    }
    for (const std::string& body : bodies) {
      ScopedSpan apply(tracer_, "streaming.apply");
      Result<StreamCache::ApplyResult> r = cache_.apply(body);
      if (apply.id() != 0) tracer_->set_items(apply.id(), kElementsPerAgent);
      if (out == nullptr) continue;
      if (!r.ok()) {
        fail(out, "stream decode: " + r.status().to_string());
      } else if (!r.value().applied) {
        fail(out, "stream gap or resync at seq " +
                      std::to_string(r.value().seq));
      }
    }
    if (tracer_->on()) kept_frames_ = std::move(bodies);
  }

  // Diagnosis reads the window that ends one window behind the frontier.
  void behind_frontier() { clock_ = frontier_ - kWindow - kWindow; }

  StreamCache cache_;
  std::vector<std::unique_ptr<StreamSubscriber>> subs_;
  std::vector<std::unique_ptr<StreamCacheAgent>> cache_agents_;
  SimTime frontier_ = SimTime::seconds(1.0) - kWindow;
  StreamCache::Stats stats0_;
  std::vector<std::string> kept_frames_;
  uint64_t frames_seen_ = 0, snapshots_seen_ = 0;
};

}  // namespace

std::unique_ptr<Instance> make_fleet_pull(uint64_t seed, Tracer* tracer) {
  return std::make_unique<FleetPull>(seed, tracer);
}

std::unique_ptr<Instance> make_fleet_push(uint64_t seed, Tracer* tracer) {
  return std::make_unique<FleetPush>(seed, tracer);
}

}  // namespace perfbench
