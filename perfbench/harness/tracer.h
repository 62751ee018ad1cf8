// Benchmark-side span tracer.
//
// Spans are recorded from the benchmark's own code around each call into a
// PerfSight layer (the program itself is not instrumented).  A span has a
// name, a start and end on the steady clock, the span that caused it, and
// the monitoring window it belongs to as its trace id.  Spans stay in memory
// until the run ends; then per-layer metrics are derived from them and they
// are written out as Chrome-trace JSON.
//
// Parents: a span nests under the innermost span still open on its thread.
// A span opened on a thread with no open span (a collection-pool worker
// running an agent batch) nests under the fan-out parent the main thread
// declared — the diagnosis call that scattered the work.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Steady-clock nanoseconds.
int64_t now_ns();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // 0 while open
  uint32_t id = 0;      // 1-based index into the span list
  uint32_t parent = 0;  // 0: root
  uint64_t trace_id = 0;
  uint32_t thread = 0;  // 0: main thread
  uint64_t items = 0;   // work items the span covered (records, frames)
  int64_t dur() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  // Spans beyond this many are counted, not kept (bounds memory).
  static constexpr size_t kMaxSpans = 2'000'000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  void set_trace_id(uint64_t id) {
    trace_id_.store(id, std::memory_order_relaxed);
  }
  // Parent for spans opened on threads with no open span of their own.
  void set_fanout_parent(uint32_t id) {
    fanout_parent_.store(id, std::memory_order_relaxed);
  }

  // Opens a span; returns its id (0 when tracing is off or the list is
  // full).  `name` must be a string literal.
  uint32_t begin(const char* name);
  void end(uint32_t id);
  // Sets the work-item count of span `id` (no-op for 0).
  void set_items(uint32_t id, uint64_t items);
  // Records a closed span with explicit times (no thread-stack effect;
  // no-op when off).
  void add(const char* name, int64_t start_ns, int64_t end_ns,
           uint32_t parent);

  // Snapshot of every span recorded (call once the run is over).
  std::vector<Span> spans() const;
  uint64_t dropped() const { return dropped_.load(); }

  // Writes the spans as a Chrome-trace JSON array of complete ("X")
  // events, timestamps in microseconds from the first span.
  bool write_chrome(const std::string& path) const;

 private:
  uint32_t thread_index();

  std::atomic<bool> on_{false};
  std::atomic<uint64_t> trace_id_{0};
  std::atomic<uint32_t> fanout_parent_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint32_t> next_thread_{1};
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

// RAII span.  Does nothing when the tracer is null or off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name)
      : t_(t != nullptr && t->on() ? t : nullptr),
        id_(t_ != nullptr ? t_->begin(name) : 0) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* t_;
  uint32_t id_;
};

// --- analysis over a finished span list --------------------------------------

// Self time of every span: its duration minus the union of the intervals its
// children cover (children on pool threads may overlap each other).  Indexed
// like `spans`.
std::vector<int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
