#include "perfsight/stats.h"

#include <cstdio>

namespace perfsight {

namespace {

// Formats a double losslessly-enough for counters (integers print exactly).
// The range check comes first: casting NaN, ±inf or a value outside
// [-2^63, 2^63) to long long is undefined; those print through %.9g.
std::string fmt_value(double v) {
  char buf[64];
  if (v >= -0x1p63 && v < 0x1p63 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

}  // namespace

std::string to_wire(const StatsRecord& r) {
  std::string out = "<";
  out += fmt_value(static_cast<double>(r.timestamp.ns()));
  out += ", ";
  out += r.element.name;
  for (const Attr& a : r.attrs) {
    out += ", (";
    out += a.name;
    out += ", ";
    out += fmt_value(a.value);
    out += ")";
  }
  out += ">";
  return out;
}

StatsRecord project(StatsRecord r, const std::vector<std::string>& names) {
  StatsRecord out;
  out.timestamp = r.timestamp;
  out.element = std::move(r.element);
  for (const std::string& n : names) {
    if (auto v = r.get(n)) out.attrs.push_back(Attr{n, *v});
  }
  return out;
}

}  // namespace perfsight
