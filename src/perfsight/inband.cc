#include "perfsight/inband.h"

#include <algorithm>
#include <utility>

#include "packet/batch.h"
#include "perfsight/agent.h"
#include "perfsight/stats.h"
#include "perfsight/streaming.h"
#include "perfsight/wire.h"

namespace perfsight::inband {

// --- IntStamper --------------------------------------------------------------

int IntStamper::register_element(const ElementId& id, ElementKind kind,
                                 int vm) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(Slot{id, kind, vm, false, false});
  return static_cast<int>(slots_.size()) - 1;
}

void IntStamper::enable(int slot, bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  if (valid_slot(slot)) slots_[static_cast<size_t>(slot)].enabled = on;
}

void IntStamper::enable_all(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& s : slots_) s.enabled = on;
}

void IntStamper::set_harvest(int slot, bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  if (valid_slot(slot)) slots_[static_cast<size_t>(slot)].harvest = on;
}

ElementId IntStamper::element(int slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  return valid_slot(slot) ? slots_[static_cast<size_t>(slot)].id : ElementId{};
}

size_t IntStamper::slot_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

void IntStamper::set_now(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  now_ = now;
}

void IntStamper::set_sample_every(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  cfg_.sample_every = n == 0 ? 1 : n;
}

void IntStamper::append_hop_locked(Flight& f, int slot, uint64_t queue_pkts) {
  if (f.hops.size() >= cfg_.max_hops) {
    ++stats_.hops_truncated;
    return;
  }
  const Slot& s = slots_[static_cast<size_t>(slot)];
  f.hops.push_back(Hop{slot, s.kind, s.vm, queue_pkts, Duration{}, false});
  ++stats_.hops_stamped;
}

void IntStamper::hop_locked(int slot, uint64_t tag, uint64_t queue_pkts,
                            Duration io_time, bool final_hop) {
  auto it = inflight_.find(tag);
  if (it == inflight_.end()) return;  // expired orphan: the tag outlived us
  Flight& f = it->second;
  append_hop_locked(f, slot, queue_pkts);
  if (!f.hops.empty()) f.hops.back().io_time += io_time;
  if (final_hop) {
    finalize_locked(tag, false);
  } else {
    f.end = now_;
  }
}

void IntStamper::finalize_locked(uint64_t tag, bool dropped) {
  auto it = inflight_.find(tag);
  if (it == inflight_.end()) return;
  it->second.dropped = dropped;
  it->second.end = now_;
  finished_.push_back(std::move(it->second));
  inflight_.erase(it);
  if (dropped) {
    ++stats_.flights_dropped;
  } else {
    ++stats_.flights_harvested;
  }
}

uint64_t IntStamper::maybe_tag(int slot, const PacketBatch& b,
                               uint64_t queue_pkts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_locked(slot)) return b.int_tag;
  if (b.packets == 0) return 0;
  const uint64_t n = cfg_.sample_every == 0 ? 1 : cfg_.sample_every;
  const uint64_t before = stats_.pkts_seen;
  stats_.pkts_seen += b.packets;
  // One flight per crossed sample boundary, at most one per batch: exact
  // 1-in-N over the admitted packet count, deterministic in arrival order.
  if (before / n == stats_.pkts_seen / n) return 0;
  if (inflight_.size() >= cfg_.max_inflight) return 0;
  const uint64_t tag = next_tag_++;
  Flight f;
  f.tag = tag;
  f.start = now_;
  f.end = now_;
  append_hop_locked(f, slot, queue_pkts);
  ++stats_.flights_started;
  inflight_.emplace(tag, std::move(f));
  return tag;
}

uint64_t IntStamper::arrive(int slot, uint64_t tag, uint64_t queue_pkts,
                            Duration io_time) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tag == 0 || !enabled_locked(slot)) return tag;
  const bool harvest = slots_[static_cast<size_t>(slot)].harvest;
  hop_locked(slot, tag, queue_pkts, io_time, harvest);
  // At a harvest slot the tag stops travelling, even an expired orphan's.
  return harvest ? 0 : tag;
}

void IntStamper::stamp(int slot, uint64_t tag, uint64_t queue_pkts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tag == 0 || !enabled_locked(slot)) return;
  hop_locked(slot, tag, queue_pkts, Duration{}, false);
}

void IntStamper::add_io_time(uint64_t tag, Duration d) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_.find(tag);
  if (it == inflight_.end() || it->second.hops.empty()) return;
  it->second.hops.back().io_time += d;
}

void IntStamper::mark_dropped(int slot, uint64_t tag, uint64_t queue_pkts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!valid_slot(slot) || tag == 0) return;
  auto it = inflight_.find(tag);
  if (it == inflight_.end()) return;
  Flight& f = it->second;
  if (!f.hops.empty() && f.hops.back().slot == slot) {
    // The arrival hop was already stamped; just mark it.
    f.hops.back().drop_tail = true;
  } else {
    append_hop_locked(f, slot, queue_pkts);
    if (!f.hops.empty()) f.hops.back().drop_tail = true;
  }
  finalize_locked(tag, true);
}

void IntStamper::harvest(int slot, uint64_t tag, uint64_t queue_pkts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tag == 0 || !enabled_locked(slot)) return;
  hop_locked(slot, tag, queue_pkts, Duration{}, true);
}

std::vector<Flight> IntStamper::take_finished() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Flight> out;
  out.swap(finished_);
  return out;
}

void IntStamper::expire(Duration max_age) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (now_ - it->second.start > max_age) {
      it = inflight_.erase(it);
      ++stats_.flights_expired;
    } else {
      ++it;
    }
  }
}

IntStamper::Stats IntStamper::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// --- IntHarvester ------------------------------------------------------------

IntHarvester::IntHarvester(IntStamper* stamper, StreamCache* cache, Config cfg)
    : stamper_(stamper), cache_(cache), cfg_(std::move(cfg)) {}

void IntHarvester::sync_slots() {
  const size_t n = stamper_->slot_count();
  if (n == slot_ids_.size()) return;
  for (size_t slot = slot_ids_.size(); slot < n; ++slot) {
    slot_ids_.push_back(stamper_->element(static_cast<int>(slot)));
  }
  std::vector<ElementId> ids = slot_ids_;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  records_.assign(ids.size(), Record{});
  for (size_t i = 0; i < ids.size(); ++i) records_[i].id = std::move(ids[i]);
  slot_record_.resize(n);
  for (size_t slot = 0; slot < n; ++slot) {
    auto it = std::lower_bound(
        records_.begin(), records_.end(), slot_ids_[slot],
        [](const Record& r, const ElementId& id) { return r.id < id; });
    slot_record_[slot] = static_cast<size_t>(it - records_.begin());
  }
}

size_t IntHarvester::close_window(SimTime window_start) {
  stamper_->expire(cfg_.expire_after);
  std::vector<Flight> flights = stamper_->take_finished();
  // Every hop of a taken flight names a slot registered before the take.
  sync_slots();
  ++stats_.windows_closed;
  stats_.flights_absorbed += flights.size();

  size_t touched = 0;
  for (const Flight& f : flights) {
    // Wire-cost accounting: what this flight's report costs as a kIntReport
    // body — the overhead figure the bench gates against BASELINE.json.
    wire::IntReportShape shape;
    shape.agent_bytes = cfg_.agent.size();
    shape.hops = f.hops.size();
    for (const Hop& h : f.hops) {
      const size_t slot = static_cast<size_t>(h.slot);
      const size_t name_bytes = slot_ids_[slot].name.size();
      shape.hop_name_bytes += name_bytes;
      shape.longest_hop_name = std::max(shape.longest_hop_name, name_bytes);

      Record& r = records_[slot_record_[slot]];
      if (r.samples == 0) ++touched;
      r.kind = h.kind;
      r.vm = h.vm;
      ++r.samples;
      if (h.queue_pkts > r.peak_pkts) r.peak_pkts = h.queue_pkts;
      r.io_ns += h.io_time.ns();
      if (h.drop_tail) ++r.drop_tail;
    }
    if (std::optional<size_t> bytes = wire::int_report_size(shape)) {
      stats_.report_bytes += *bytes;
    }
  }

  const uint64_t every = stamper_->config().sample_every;
  Microburst burst;
  burst.window_start = window_start;

  std::vector<QueryResponse> responses;
  responses.reserve(touched);
  for (Record& r : records_) {
    if (r.samples == 0) continue;
    QueryResponse qr;
    qr.record.timestamp = window_start;
    qr.record.element = r.id;
    // Standard names first, so rule books / alert rules written against the
    // agent channels read INT windows unchanged; int* raw aggregates after.
    // kDropPkts is the 1-in-N scaled estimate of packets lost where a
    // sampled flight tail-dropped.
    qr.record.attrs = {
        {attr::kQueuePkts, static_cast<double>(r.peak_pkts)},
        {attr::kDropPkts, static_cast<double>(r.drop_tail * every)},
        {attr::kInTimeNs, static_cast<double>(r.io_ns)},
        {attr::kType, static_cast<double>(static_cast<int>(r.kind))},
        {attr::kVm, static_cast<double>(r.vm)},
        {kIntSamples, static_cast<double>(r.samples)},
        {kIntQueuePeakPkts, static_cast<double>(r.peak_pkts)},
        {kIntIoTimeNs, static_cast<double>(r.io_ns)},
        {kIntDropTailFlights, static_cast<double>(r.drop_tail)},
    };
    qr.quality = DataQuality::kFresh;
    qr.attempts = 1;
    responses.push_back(std::move(qr));

    if (cfg_.microburst_depth_pkts > 0 &&
        r.peak_pkts >= cfg_.microburst_depth_pkts) {
      burst.elements.push_back(r.id);
      if (r.peak_pkts > burst.peak_depth_pkts) {
        burst.peak_depth_pkts = r.peak_pkts;
      }
    }
    r.samples = 0;
    r.peak_pkts = 0;
    r.drop_tail = 0;
    r.io_ns = 0;
  }

  if (cache_ != nullptr && !responses.empty()) {
    cache_->ingest(cfg_.agent, window_start, StreamCache::Provenance::kInband,
                   std::move(responses));
  }
  if (!burst.elements.empty()) {
    ++stats_.microbursts;
    if (on_microburst_) on_microburst_(burst);
  }
  return flights.size();
}

}  // namespace perfsight::inband
