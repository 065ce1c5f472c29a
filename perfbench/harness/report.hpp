// Output helpers shared by the batch and serve runners: one JSON object
// on stdout per process, raw latency samples as float64 files, and the
// CPU clocks.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/json.hpp"
#include "spans.hpp"

namespace perfbench {

inline double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}
inline double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
inline double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

using Json = entk::serve::Json;

/// Sets a numeric member; Json::dump keeps every digit (%.17g).
template <typename T>
void put(Json& object, const char* key, T value) {
  object.set(key, Json::number(static_cast<double>(value)));
}

/// a / b, or 0 when b is 0 (a layer that did not run).
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Per-name span table {name: {calls, total_s, self_s}}.
inline Json span_table_json(
    const std::map<std::string, SpanRecorder::Totals>& table) {
  Json out = Json::object();
  for (const auto& [name, row] : table) {
    Json entry = Json::object();
    put(entry, "calls", row.calls);
    put(entry, "total_s", row.total_s);
    put(entry, "self_s", row.self_s);
    out.set(name, std::move(entry));
  }
  return out;
}

inline bool write_samples(const std::string& path,
                          const std::vector<double>& samples) {
  std::ofstream file(path, std::ios::binary);
  file.write(reinterpret_cast<const char*>(samples.data()),
             static_cast<std::streamsize>(samples.size() * sizeof(double)));
  return static_cast<bool>(file);
}

}  // namespace perfbench
