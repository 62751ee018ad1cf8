// In-band telemetry (INT): the third collection backend, after pull sweeps
// and push-mode streaming.
//
// Polling and streaming both sample element counters at window boundaries,
// so anything that builds and drains *inside* a window — a microburst that
// fills a queue for 20 ms and is gone before the next sweep — leaves no
// boundary-visible trace.  INT closes that blind spot the way "Millions of
// Little Minions" does: the packets themselves carry the evidence.  A
// sampled packet (1-in-N at the ingress element) is tagged with a flight id;
// every participating element it traverses stamps a hop onto the flight's
// metadata stack — its stamper slot, queue depth at arrival, io-time spent,
// drop-tail marker — and the last element harvests the completed stack.
//
// Two classes split the work across the dataplane/collection boundary:
//
//  * IntStamper — the dataplane side.  Elements register for a slot and
//    keep a raw pointer + slot index (dp::Element::set_int_stamper); every
//    hook in the packet path is one stamper call gated on a per-slot enable
//    bit, so a disabled (or never-attached) stamper leaves the packet path
//    and every counter bit-identical to a build without INT.  Hops name
//    their slot, not the element: stamping copies no string.  Flights live
//    in a bounded in-flight table; completed (harvested or drop-tailed)
//    flights move to a finished list the harvester drains.
//
//  * IntHarvester — the collection side.  close_window(t) drains finished
//    flights, aggregates them per element (through a slot → element table
//    it rebuilds only when new slots register) into the same StatsRecord attr
//    format the agent channels produce (so Algorithms 1/2, the rule book
//    and the AlertWatcher consume INT records unchanged), and ingests one
//    window into a StreamCache under Provenance::kInband.  A queue-depth
//    excursion beyond the configured threshold fires the microburst
//    callback — the hybrid mode wires that callback to a targeted pull
//    sweep (Controller::get_attr_many) over just the implicated elements,
//    so steady traffic costs zero extra queries and a burst pays for
//    exactly one focused sweep.
//
// Overhead is bounded by construction: sampling is 1-in-N, the hop stack is
// capped, the in-flight table is capped, and a flight whose tag is lost in
// the fluid simulation (batch merges/trims) is expired, never leaked.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "perfsight/rulebook.h"

namespace perfsight {

class StreamCache;
struct PacketBatch;

namespace inband {

// Canonical INT attr names (exported alongside the standard counter names,
// which is what lets the existing diagnosis stack consume INT windows).
inline constexpr const char* kIntSamples = "intSamples";
inline constexpr const char* kIntQueuePeakPkts = "intQueuePeakPkts";
inline constexpr const char* kIntIoTimeNs = "intIoTimeNs";
inline constexpr const char* kIntDropTailFlights = "intDropTailFlights";

// One stamped hop of a flight's metadata stack.
struct Hop {
  int slot = -1;  // the stamping element; IntStamper::element(slot) names it
  ElementKind kind = ElementKind::kOther;
  int vm = -1;
  uint64_t queue_pkts = 0;  // occupancy of the element's queue at arrival
  Duration io_time;         // io-time attributed while held at this hop
  bool drop_tail = false;   // the tagged packet died in a tail drop here
};

// A sampled packet's journey, ingress tag to harvest (or drop).
struct Flight {
  uint64_t tag = 0;
  SimTime start;
  SimTime end;
  bool dropped = false;
  std::vector<Hop> hops;
};

class IntStamper {
 public:
  struct Config {
    uint64_t sample_every = 64;  // 1-in-N ingress packets starts a flight
    size_t max_hops = 16;        // per-flight hop-stack cap
    size_t max_inflight = 4096;  // in-flight table cap (orphan guard)
  };
  IntStamper() = default;
  explicit IntStamper(Config cfg) : cfg_(cfg) {}

  // --- registration ----------------------------------------------------------
  // Each participating element takes a slot.  Slots start disabled; a
  // disabled slot's hooks reduce to one guarded bool read.
  int register_element(const ElementId& id, ElementKind kind, int vm);
  // Convenience: register `e` (any dp::Element-shaped type) and hand it the
  // back-pointer.  Templated so ps_perfsight never depends on ps_dataplane.
  template <typename E>
  int attach(E& e) {
    int slot = register_element(e.id(), e.kind(), e.vm());
    e.set_int_stamper(this, slot);
    return slot;
  }
  void enable(int slot, bool on);
  void enable_all(bool on);
  // Flights finalize (and the element strips the tag) at a harvest slot —
  // normally the last element of the chain.
  void set_harvest(int slot, bool on);
  // The element registered at `slot` (empty for an unknown slot), and how
  // many slots exist.  Slots are append-only: a slot's element never
  // changes once registered.
  ElementId element(int slot) const;
  size_t slot_count() const;

  // --- clock -----------------------------------------------------------------
  // The stamper is not a Steppable; the driver advances its notion of "now"
  // once per tick so hooks (which have no SimTime parameter) stay cheap.
  void set_now(SimTime now);

  // --- packet-path hooks (called by the dataplane) ---------------------------
  // Ingress sampling: counts `b`'s packets against the 1-in-N knob and, on
  // crossing a sample boundary, opens a flight whose first hop is this slot
  // at `queue_pkts` depth.  Returns the tag the batch carries on: at a
  // disabled (or unknown) slot `b.int_tag` unchanged, otherwise the new tag
  // or 0 (not sampled, or in-flight table full).
  uint64_t maybe_tag(int slot, const PacketBatch& b, uint64_t queue_pkts);
  // A batch carrying `tag` arrives at `slot` and finds `queue_pkts` packets
  // ahead of it; `io_time` is what the element spends on it.  Stamps a hop
  // (or, at a harvest slot, stamps the final hop and finalizes the flight)
  // and returns the tag that travels on: 0 after a harvest, else `tag`.
  // A disabled or unknown slot, or tag 0, changes nothing.  This is the
  // per-element packet-path hook: one lock per tagged arrival.
  uint64_t arrive(int slot, uint64_t tag, uint64_t queue_pkts,
                  Duration io_time = Duration{});
  // arrive's two halves, for a caller that picks one: stamp appends a hop
  // to `tag`'s stack; harvest appends the final hop and finalizes the
  // flight whether or not `slot` is a harvest slot.  Both ignore a tag
  // that is unknown or expired.
  void stamp(int slot, uint64_t tag, uint64_t queue_pkts);
  void harvest(int slot, uint64_t tag, uint64_t queue_pkts);
  // Adds io-time to the flight's most recent hop.
  void add_io_time(uint64_t tag, Duration d);
  // The tagged packet tail-dropped at this slot: marks the stack and
  // finalizes the flight as dropped.
  void mark_dropped(int slot, uint64_t tag, uint64_t queue_pkts);

  // --- harvest side ----------------------------------------------------------
  // Drains the finished-flight list (harvested and dropped flights, in
  // completion order).
  std::vector<Flight> take_finished();
  // Finalizes nothing, forgets everything: in-flight entries older than
  // `max_age` are orphans (their tag died in a merge or a fluid trim) and
  // are dropped from the table.
  void expire(Duration max_age);

  struct Stats {
    uint64_t pkts_seen = 0;          // ingress packets counted for sampling
    uint64_t flights_started = 0;
    uint64_t hops_stamped = 0;       // hops appended across all flights
    uint64_t flights_harvested = 0;
    uint64_t flights_dropped = 0;    // finalized by a drop-tail
    uint64_t flights_expired = 0;    // orphaned tags aged out
    uint64_t hops_truncated = 0;     // hops refused by the max_hops cap
  };
  Stats stats() const;
  Config config() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cfg_;
  }
  void set_sample_every(uint64_t n);

 private:
  struct Slot {
    ElementId id;
    ElementKind kind = ElementKind::kOther;
    int vm = -1;
    bool enabled = false;
    bool harvest = false;
  };

  bool valid_slot(int slot) const {
    return slot >= 0 && static_cast<size_t>(slot) < slots_.size();
  }
  bool enabled_locked(int slot) const {
    return valid_slot(slot) && slots_[static_cast<size_t>(slot)].enabled;
  }
  void append_hop_locked(Flight& f, int slot, uint64_t queue_pkts);
  // Stamps `tag`'s hop at `slot` carrying `io_time`, then finalizes the
  // flight (`final_hop`) or moves its end to now.
  void hop_locked(int slot, uint64_t tag, uint64_t queue_pkts,
                  Duration io_time, bool final_hop);
  void finalize_locked(uint64_t tag, bool dropped);

  Config cfg_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  SimTime now_;
  uint64_t next_tag_ = 1;
  std::unordered_map<uint64_t, Flight> inflight_;
  std::vector<Flight> finished_;
  Stats stats_;
};

// Aggregates finished flights into per-window StatsRecords and feeds them
// to a StreamCache as Provenance::kInband windows.
class IntHarvester {
 public:
  struct Config {
    // StreamCache key for INT windows.  Callers use a dedicated key (e.g.
    // "a0/int") so INT windows never collide with the agent's streamed or
    // repaired windows.
    std::string agent = "int";
    // Queue-depth excursion (packets, per flight hop) that fires the
    // microburst trigger.  0 disables detection.
    uint64_t microburst_depth_pkts = 0;
    // Orphaned in-flight tags older than this are expired at each close.
    Duration expire_after = Duration::millis(500);
  };

  // `stamper` and `cache` are borrowed, not owned; `cache` may be null
  // (harvest aggregates and fires triggers but caches nothing).
  IntHarvester(IntStamper* stamper, StreamCache* cache, Config cfg);

  // An INT-observed queue-depth excursion inside one window.
  struct Microburst {
    SimTime window_start;
    std::vector<ElementId> elements;  // implicated elements, ascending
    uint64_t peak_depth_pkts = 0;
  };
  // Hybrid mode: the trigger typically issues a targeted pull sweep over
  // burst.elements via Controller::get_attr_many.  Called synchronously
  // from close_window, after the window is in the cache.
  using MicroburstFn = std::function<void(const Microburst&)>;
  void set_on_microburst(MicroburstFn fn) { on_microburst_ = std::move(fn); }

  // Closes the window that ends at `window_start` + one cadence: drains the
  // stamper, aggregates per element, ingests one kInband window keyed at
  // `window_start`, and fires the microburst trigger if any element's peak
  // depth crossed the threshold.  Returns the number of flights absorbed.
  size_t close_window(SimTime window_start);

  struct Stats {
    uint64_t windows_closed = 0;
    uint64_t flights_absorbed = 0;
    uint64_t microbursts = 0;
    // Wire cost of the harvested reports (each flight's kIntReport body
    // size, wire::int_report_size) — the "stamping overhead" the bench
    // gates.
    uint64_t report_bytes = 0;
  };
  Stats stats() const { return stats_; }

 private:
  // One window's aggregate of every hop stamped by one element.
  struct Record {
    ElementId id;
    ElementKind kind = ElementKind::kOther;  // the last hop's
    int vm = -1;                             // the last hop's
    uint64_t samples = 0;
    uint64_t peak_pkts = 0;
    uint64_t drop_tail = 0;
    int64_t io_ns = 0;
  };

  // Extends the slot tables to every slot the stamper has registered.  A
  // no-op unless the slot count grew; records hold no aggregates then.
  void sync_slots();

  IntStamper* stamper_;
  StreamCache* cache_;
  Config cfg_;
  MicroburstFn on_microburst_;
  Stats stats_;
  std::vector<ElementId> slot_ids_;    // slot → element
  std::vector<size_t> slot_record_;    // slot → index into records_
  // One per distinct element, ascending by id: slots that share an id
  // share a record, and records are emitted in this order.
  std::vector<Record> records_;
};

}  // namespace inband
}  // namespace perfsight
