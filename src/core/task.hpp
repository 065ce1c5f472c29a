// TaskSpec: what a user's stage callback returns — a kernel name plus
// arguments, still unbound to any machine (binding is the execution
// plugin's job, which is how applications stay resource-agnostic).
#pragma once

#include <string>

#include "common/config.hpp"
#include "common/types.hpp"
#include "pilot/retry_policy.hpp"

namespace entk::core {

struct TaskSpec {
  std::string kernel;   ///< Kernel-plugin name, e.g. "md.simulate".
  Config args;          ///< Kernel arguments (see each kernel's docs).
  /// Cores for this task; 0 = let the kernel decide (its "cores" arg
  /// or 1). Values > 1 imply an MPI launch.
  Count cores = 0;
  /// Automatic resubmission policy: retry budget, exponential backoff,
  /// per-attempt execution timeout.
  pilot::RetryPolicy retry;
  /// Test hook: inject one failure on first execution.
  bool inject_failure = false;
  /// Test hook: first execution hangs forever; only
  /// retry.execution_timeout reclaims the cores.
  bool inject_hang = false;

  /// Equal specs translate to equal unit descriptions, so the execution
  /// plugin binds a run of equal specs once and shares the result.
  bool operator==(const TaskSpec& other) const = default;
};

}  // namespace entk::core
