// entk_perfbench: runs ONE repetition of one benchmark workload and
// prints its raw measurements as one JSON line. perfbench/run.py starts
// it once per repetition (a fresh process each time, so peak RSS and
// uid counters belong to that repetition), checks the outputs and
// aggregates.
//
//   entk_perfbench --workload bag_wide|chain_ckpt|serve_open
//                  --seed N --rep-dir DIR [--trace FILE]
//
// --trace records spans around the calls into each module and writes
// them to FILE as Chrome trace-event JSON; the JSON line then carries
// the per-layer metrics and the span self-time table.
#include <cstdlib>
#include <iostream>
#include <string>

#include "batch.hpp"
#include "serve.hpp"

int main(int argc, char** argv) {
  std::string workload;
  std::string rep_dir;
  std::string trace_path;
  std::uint64_t seed = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--rep-dir") {
      rep_dir = value;
    } else if (flag == "--trace") {
      trace_path = value;
    } else {
      std::cerr << "entk_perfbench: unknown flag " << flag << "\n";
      return 1;
    }
  }
  if (argc % 2 == 0 || rep_dir.empty()) {
    std::cerr << "entk_perfbench: see the header of main.cpp for usage\n";
    return 1;
  }
  if (workload == "bag_wide" || workload == "chain_ckpt") {
    return perfbench::run_batch(
        {workload, seed, rep_dir, !trace_path.empty(), trace_path});
  }
  if (workload == "serve_open") {
    return perfbench::run_serve(
        {seed, rep_dir, !trace_path.empty(), trace_path});
  }
  std::cerr << "entk_perfbench: unknown workload '" << workload << "'\n";
  return 1;
}
