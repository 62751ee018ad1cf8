#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace {

// Per-thread stack of open span ids, and the thread's lane number.
thread_local std::vector<uint32_t> t_stack;
thread_local uint32_t t_lane = UINT32_MAX;
const std::thread::id g_main_thread = std::this_thread::get_id();

}  // namespace

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() { spans_.reserve(1 << 16); }

uint32_t Tracer::thread_index() {
  if (t_lane == UINT32_MAX) {
    t_lane = std::this_thread::get_id() == g_main_thread
                 ? 0
                 : next_thread_.fetch_add(1, std::memory_order_relaxed);
  }
  return t_lane;
}

uint32_t Tracer::begin(const char* name) {
  const uint32_t lane = thread_index();
  const uint32_t parent =
      !t_stack.empty() ? t_stack.back()
                       : fanout_parent_.load(std::memory_order_relaxed);
  Span s;
  s.name = name;
  s.parent = parent;
  s.trace_id = trace_id_.load(std::memory_order_relaxed);
  s.thread = lane;
  uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    id = static_cast<uint32_t>(spans_.size() + 1);
    s.id = id;
    s.start_ns = now_ns();
    spans_.push_back(s);
  }
  t_stack.push_back(id);
  return id;
}

void Tracer::end(uint32_t id) {
  if (id == 0) return;
  const int64_t t = now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = t;
  }
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

void Tracer::set_items(uint32_t id, uint64_t items) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].items = items;
}

void Tracer::add(const char* name, int64_t start_ns, int64_t end_ns,
                 uint32_t parent) {
  if (!on()) return;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.trace_id = trace_id_.load(std::memory_order_relaxed);
  s.thread = thread_index();
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (const Span& s : all) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::fputs("[\n", f);
  bool first = true;
  for (const Span& s : all) {
    if (s.end_ns == 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%u,"
                 "\"parent\":%u,\"window\":%llu}}",
                 first ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.dur()) / 1e3, s.id, s.parent,
                 static_cast<unsigned long long>(s.trace_id));
    first = false;
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

std::vector<int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<uint32_t>> children(spans.size() + 1);
  for (const Span& s : spans) {
    if (s.parent != 0 && s.end_ns != 0) children[s.parent].push_back(s.id);
  }
  std::vector<int64_t> out(spans.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const Span& s : spans) {
    if (s.end_ns == 0) continue;
    iv.clear();
    for (uint32_t c : children[s.id]) {
      const Span& k = spans[c - 1];
      const int64_t a = std::max(k.start_ns, s.start_ns);
      const int64_t b = std::min(k.end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    out[s.id - 1] = s.dur() - covered;
  }
  return out;
}

}  // namespace perfbench
