// Process-wide work-stealing pool for the core runtime layer.
//
// One pool, configured once at startup (entk-run --runtime-threads,
// bench flags, test fixtures), shared by every core consumer:
// GraphExecutor materializes frontier specs across it and entk-serve
// advances independent sessions' deferred executors as pool tasks.
// Disabled (nullptr) by default — the serial paths are byte-identical
// to the pre-pool runtime.
//
// The pilot and saga layers do NOT use this pool: LocalAgent and
// LocalAdaptor own their pools (they sit below core in the module
// layering and their pool lifetime is tied to the agent/adaptor).
#pragma once

#include <cstddef>

#include "common/work_stealing_pool.hpp"

namespace entk::core {

/// Replaces the process-wide pool with a fresh `threads`-worker pool
/// (0 destroys it and restores the serial paths). Not thread-safe
/// against concurrent parallel_pool() users: call at startup or
/// between runs, never while a run is in flight.
void set_parallel_threads(std::size_t threads);

/// The configured pool, or nullptr when the runtime is serial.
WorkStealingPool* parallel_pool();

/// Worker count of the configured pool; 0 when serial.
std::size_t parallel_threads();

}  // namespace entk::core
