// Prometheus text-format check for MetricsRegistry::expose() output.
//
//   EXPECT_TRUE(prom_check::well_formed(reg.expose(now)));
//
// Asserts, per family:
//   * exactly one `# HELP` and one `# TYPE` line, both before its samples;
//   * its lines (header and samples) are contiguous — no other family's
//     lines in between;
// and, per histogram series (a family's samples with one label set, `le`
// aside): buckets are cumulative (non-decreasing), the last is le="+Inf",
// and `_count` equals the +Inf bucket.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace perfsight::prom_check {

namespace detail {

struct Histogram {
  std::vector<std::pair<std::string, double>> buckets;  // (le, value)
  bool has_count = false;
  double count = 0;
};

// Splits "name{labels} value" into its three parts; false if malformed.
inline bool parse_sample(const std::string& line, std::string* name,
                         std::string* labels, double* value) {
  const size_t sp = line.rfind(' ');
  if (sp == std::string::npos || sp == 0) return false;
  const std::string head = line.substr(0, sp);
  try {
    size_t used = 0;
    const std::string v = line.substr(sp + 1);
    *value = v == "+Inf" ? 1e308 : std::stod(v, &used);
    if (v != "+Inf" && used != v.size()) return false;
  } catch (...) {
    return false;
  }
  const size_t brace = head.find('{');
  if (brace == std::string::npos) {
    *name = head;
    labels->clear();
    return !name->empty();
  }
  if (head.back() != '}') return false;
  *name = head.substr(0, brace);
  *labels = head.substr(brace + 1, head.size() - brace - 2);
  return !name->empty();
}

// Removes the le="..." label; returns its value through `le`.
inline std::string strip_le(const std::string& labels, std::string* le) {
  const size_t at = labels.find("le=\"");
  if (at == std::string::npos) return labels;
  const size_t end = labels.find('"', at + 4);
  *le = labels.substr(at + 4, end - at - 4);
  std::string rest = labels.substr(0, at) + labels.substr(end + 1);
  if (!rest.empty() && rest.back() == ',') rest.pop_back();
  return rest;
}

inline bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace detail

inline ::testing::AssertionResult well_formed(const std::string& text) {
  std::map<std::string, std::string> type_of;  // family -> TYPE
  std::set<std::string> helped, sampled, closed;
  std::map<std::string, detail::Histogram> hists;  // family|labels -> series
  std::string current;  // family whose lines are being read
  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  auto fail = [&](const std::string& why) {
    return ::testing::AssertionFailure()
           << "line " << lineno << ": " << why << "\n  " << line;
  };
  // Switches the current family; false if `family` was already left.
  auto enter = [&](const std::string& family) {
    if (family == current) return true;
    if (!current.empty()) closed.insert(current);
    current = family;
    return closed.count(family) == 0;
  };

  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) return fail("empty line");
    if (line[0] == '#') {
      std::istringstream hs(line);
      std::string hash, kind, family, rest;
      hs >> hash >> kind >> family;
      std::getline(hs, rest);
      if (kind != "HELP" && kind != "TYPE") return fail("unknown comment");
      if (!enter(family)) return fail("family " + family + " split apart");
      if (sampled.count(family)) return fail(kind + " after samples");
      if (kind == "HELP") {
        if (!helped.insert(family).second) return fail("second HELP");
      } else {
        if (type_of.count(family)) return fail("second TYPE");
        type_of[family] = rest.empty() ? "" : rest.substr(1);
      }
      continue;
    }

    std::string name, labels;
    double value = 0;
    if (!detail::parse_sample(line, &name, &labels, &value)) {
      return fail("malformed sample");
    }
    std::string family = name;
    std::string suffix;
    for (const char* s : {"_bucket", "_sum", "_count"}) {
      if (!detail::ends_with(name, s)) continue;
      const std::string base = name.substr(0, name.size() - std::strlen(s));
      if (type_of.count(base) && type_of[base] == "histogram") {
        family = base;
        suffix = s;
      }
    }
    if (!type_of.count(family) || !helped.count(family)) {
      return fail("sample before its family's HELP and TYPE");
    }
    if (!enter(family)) return fail("family " + family + " split apart");
    sampled.insert(family);
    if (type_of[family] != "histogram") continue;

    std::string le;
    const std::string series = family + "|" + detail::strip_le(labels, &le);
    detail::Histogram& h = hists[series];
    if (suffix == "_bucket") {
      if (le.empty()) return fail("bucket without le");
      if (!h.buckets.empty() && value < h.buckets.back().second) {
        return fail("bucket counts decrease");
      }
      h.buckets.emplace_back(le, value);
    } else if (suffix == "_count") {
      h.has_count = true;
      h.count = value;
    } else if (suffix.empty()) {
      return fail("histogram sample without _bucket/_sum/_count");
    }
  }

  for (const auto& [series, h] : hists) {
    if (h.buckets.empty() || h.buckets.back().first != "+Inf") {
      return ::testing::AssertionFailure()
             << series << ": buckets do not end at le=\"+Inf\"";
    }
    if (!h.has_count || h.count != h.buckets.back().second) {
      return ::testing::AssertionFailure()
             << series << ": _count differs from the +Inf bucket";
    }
  }
  for (const std::string& f : helped) {
    if (!type_of.count(f)) {
      return ::testing::AssertionFailure() << f << ": HELP without TYPE";
    }
  }
  for (const auto& [f, t] : type_of) {
    if (!helped.count(f)) {
      return ::testing::AssertionFailure() << f << ": TYPE without HELP";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace perfsight::prom_check
