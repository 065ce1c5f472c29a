// The two entk-run workloads (bag_wide, chain_ckpt), one per process.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct BatchOptions {
  std::string workload;    ///< bag_wide | chain_ckpt
  std::uint64_t seed = 0;
  std::string rep_dir;     ///< scratch directory of this process
  bool traced = false;
  std::string trace_path;  ///< Chrome trace output (traced run)
};

/// Runs the workload once and prints one JSON line; non-zero on error.
int run_batch(const BatchOptions& options);

}  // namespace perfbench
