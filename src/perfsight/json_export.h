// JSON export of records and diagnosis reports, for operator dashboards
// and log pipelines.  Self-contained writer (no external dependency):
// emits compact, valid JSON with proper string escaping.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "perfsight/contention.h"
#include "perfsight/rootcause.h"
#include "perfsight/stats.h"

namespace perfsight::json {

// Low-level helpers (exposed for operator extensions).
std::string escape(const std::string& s);
// Inverse of escape(): decodes JSON string-body escapes back to raw bytes.
// Accepts every escape the grammar allows (\" \\ \/ \b \f \n \r \t \uXXXX);
// \u above 0x00ff is refused — escape() only ever emits byte values, and a
// silent multi-byte transcode here would break round-trip identity.
Result<std::string> unescape(const std::string& s);
std::string number(double v);

// Every numeric value appearing as `"key": <number>` in `text`, in document
// order.  A deliberately shallow scanner (no path awareness) for the bench
// regression gate and trace-shape tests, which own both ends of the format;
// it is not a general JSON query.
std::vector<double> find_numbers(const std::string& text,
                                 const std::string& key);

// Structural well-formedness check of a complete JSON document: balanced
// objects/arrays, valid strings/numbers/literals, commas and colons where
// the grammar requires them.  Returns the byte offset of the first error in
// the status message.  Exists so exporters (and their tests) can assert
// "this is JSON" without an external parser dependency.
Status lint(const std::string& text);

std::string to_json(const StatsRecord& r);
std::string to_json(const ContentionReport& r);
std::string to_json(const RootCauseReport& r);

}  // namespace perfsight::json
