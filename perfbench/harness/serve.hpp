// serve_open: an open loop of SUBMIT frames against an in-process
// serve::Service, one repetition per process.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct ServeOptions {
  std::uint64_t seed = 0;
  std::string rep_dir;     ///< scratch directory of this process
  bool traced = false;
  std::string trace_path;  ///< Chrome trace output (traced run)
};

int run_serve(const ServeOptions& options);

}  // namespace perfbench
