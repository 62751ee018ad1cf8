// The three counter kinds PerfSight instruments elements with (§4.1):
// packet counters, byte counters, and I/O time counters.
//
// These are the *real* implementations whose overhead Table 2 and Fig. 15/16
// measure: a simple counter is one 64-bit add (≈ns), a time counter is two
// clock reads plus an add (≈0.1–0.3 µs with a syscall-free clocksource).
// The simulator's elements use the same types, accumulating simulated time
// instead of wall time for the I/O counters.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/units.h"

namespace perfsight {

// Monotone event counter (packets or bytes).  Not atomic: each element is
// only ever updated from the thread (or simulated context) that owns it;
// agents read with relaxed staleness, which the paper's design accepts by
// construction (statistics are sampled, not transactional).
class Counter {
 public:
  void add(uint64_t n) { value_ += n; }
  void increment() { ++value_; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Accumulated I/O time in nanoseconds.  Dual use:
//  * simulator elements call add(Duration) with simulated time;
//  * real hotpaths wrap a read/write in a ScopedIoTimer (wall time).
class IoTimeCounter {
 public:
  void add(Duration d) { ns_ += static_cast<uint64_t>(d.ns()); }
  void add_nanos(uint64_t ns) { ns_ += ns; }
  uint64_t nanos() const { return ns_; }
  Duration total() const { return Duration::nanos(static_cast<int64_t>(ns_)); }

 private:
  uint64_t ns_ = 0;
};

// RAII wall-clock timer for real I/O methods; this is the exact object the
// overhead benches instrument hot loops with.
class ScopedIoTimer {
 public:
  explicit ScopedIoTimer(IoTimeCounter& counter)
      : counter_(counter), start_(std::chrono::steady_clock::now()) {}
  ScopedIoTimer(const ScopedIoTimer&) = delete;
  ScopedIoTimer& operator=(const ScopedIoTimer&) = delete;
  ~ScopedIoTimer() {
    auto end = std::chrono::steady_clock::now();
    counter_.add_nanos(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count()));
  }

 private:
  IoTimeCounter& counter_;
  std::chrono::steady_clock::time_point start_;
};

// The standard per-element counter set.  Every software-dataplane element
// carries one of these; StatsRecord attributes are derived from it.
struct ElementStats {
  Counter pkts_in;
  Counter pkts_out;
  Counter bytes_in;
  Counter bytes_out;
  Counter drop_pkts;
  Counter drop_bytes;
  IoTimeCounter in_time;   // time spent in input methods (block + memcpy)
  IoTimeCounter out_time;  // time spent in output methods
};

}  // namespace perfsight
