// Packet-size distribution tracking — the paper's example of a richer,
// operator-added statistic (§4.1: "Operators can implement more complicated
// statistics at an element such as packet size distribution tracking if
// they can accept the resulting performance impact").
//
// A fixed set of power-of-two-ish buckets spanning 64..9000+ bytes; each
// update is one increment (branch-free bucket lookup), so the fast-path
// cost stays in simple-counter territory.  Exported as attributes
// "sizeHist.<lo>-<hi>" on the owning element's record.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "perfsight/stats.h"

namespace perfsight {

class PacketSizeHistogram {
 public:
  // Bucket upper bounds (inclusive); the last bucket is open-ended
  // (jumbo frames).
  static constexpr std::array<uint32_t, 8> kBounds = {64,   128,  256,  512,
                                                      1024, 1514, 4096, 9000};
  static constexpr size_t kBuckets = kBounds.size() + 1;

  void record(uint32_t size_bytes, uint64_t count = 1) {
    counts_[bucket_for(size_bytes)] += count;
  }

  static size_t bucket_for(uint32_t size_bytes) {
    for (size_t i = 0; i < kBounds.size(); ++i) {
      if (size_bytes <= kBounds[i]) return i;
    }
    return kBounds.size();
  }

  uint64_t count(size_t bucket) const { return counts_[bucket]; }
  uint64_t total() const {
    uint64_t t = 0;
    for (uint64_t c : counts_) t += c;
    return t;
  }

  // Bucket label, e.g. "65-128" or "9001+".
  static std::string label(size_t bucket) {
    uint32_t lo = bucket == 0 ? 0 : kBounds[bucket - 1] + 1;
    if (bucket == kBounds.size()) return std::to_string(lo) + "+";
    return std::to_string(lo) + "-" + std::to_string(kBounds[bucket]);
  }

  // Appends the distribution to an element's record.
  void export_attrs(StatsRecord& r) const {
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;  // keep records compact
      r.set("sizeHist." + label(i), static_cast<double>(counts_[i]));
    }
  }

  // Representative size reported when a quantile lands in the open-ended
  // jumbo bucket: its lower edge (9001), deliberately distinct from
  // kBounds.back() so jumbo-heavy traffic is not folded into the 9000-byte
  // bucket.
  static constexpr uint32_t kOpenBucketSize = kBounds.back() + 1;

  // Approximate quantile (by bucket upper bound; the open bucket reports
  // kOpenBucketSize); returns 0 when empty.
  uint32_t approx_quantile(double q) const {
    uint64_t t = total();
    if (t == 0) return 0;
    // 1-based rank of the quantile sample: the smallest cumulative count
    // covering fraction q, clamped so q<=0 picks the first non-empty
    // bucket and q>=1 the last one instead of falling off the histogram.
    uint64_t target =
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(t)));
    target = std::min(std::max<uint64_t>(target, 1), t);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBounds.size(); ++i) {
      seen += counts_[i];
      if (seen >= target) return kBounds[i];
    }
    return kOpenBucketSize;
  }

 private:
  std::array<uint64_t, kBuckets> counts_ = {};
};

// Histogram of latencies in seconds over fixed exponential buckets
// (1 us .. 4 s, x4 steps, plus +Inf): PerfSight's self-profiling
// distribution.  Cheap enough to leave always on: one observe is a
// comparison walk over 12 bounds and two adds.
class LatencyHistogram {
 public:
  static constexpr std::array<double, 12> kBoundsSec = {
      1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3,
      4e-3, 16e-3, 64e-3, 256e-3, 1.0,  4.0};
  static constexpr size_t kBuckets = kBoundsSec.size() + 1;

  void observe(double seconds) {
    ++counts_[bucket_for(seconds)];
    ++count_;
    sum_ += seconds;
  }

  // Adds `other`'s observations to this histogram.
  void merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  static size_t bucket_for(double seconds) {
    for (size_t i = 0; i < kBoundsSec.size(); ++i) {
      if (seconds <= kBoundsSec[i]) return i;
    }
    return kBoundsSec.size();
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  uint64_t bucket_count(size_t i) const { return counts_[i]; }

  // Approximate quantile by bucket upper bound; 0 when empty.  The rank is
  // 1-based and clamped, so q<=0 picks the first non-empty bucket and q>=1
  // the last one.  The +Inf bucket has no finite representative; it
  // reports the largest finite bound.
  double approx_quantile(double q) const {
    if (count_ == 0) return 0;
    uint64_t target =
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
    target = std::min(std::max<uint64_t>(target, 1), count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBoundsSec.size(); ++i) {
      seen += counts_[i];
      if (seen >= target) return kBoundsSec[i];
    }
    return kBoundsSec.back();
  }

 private:
  std::array<uint64_t, kBuckets> counts_ = {};
  uint64_t count_ = 0;
  double sum_ = 0;
};

}  // namespace perfsight
