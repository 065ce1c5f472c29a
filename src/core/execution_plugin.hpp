// Execution plugin: binds execution pattern x kernel plugins.
//
// The internal component that receives TaskSpecs from a pattern,
// resolves each kernel against the target machine (static binding and
// translation, as in the paper), charges the toolkit's per-task
// creation/submission overhead, and forwards the resulting compute
// units to the pilot runtime.
#pragma once

#include <memory>
#include <optional>

#include "common/mutex.hpp"
#include "core/pattern.hpp"
#include "kernels/registry.hpp"
#include "pilot/backend.hpp"
#include "pilot/unit_manager.hpp"

namespace entk::core {

class ExecutionPlugin final : public PatternExecutor {
 public:
  struct Options {
    /// Modelled cost of creating + submitting one task through the
    /// toolkit (the paper's "pattern overhead"; charged to the clock
    /// on the simulated backend).
    Duration per_task_overhead = 0.004;
  };

  ExecutionPlugin(const kernels::KernelRegistry& registry,
                  pilot::UnitManager& unit_manager,
                  pilot::ExecutionBackend& backend, Options options);
  /// Uses default Options.
  ExecutionPlugin(const kernels::KernelRegistry& registry,
                  pilot::UnitManager& unit_manager,
                  pilot::ExecutionBackend& backend);

  Result<std::vector<pilot::ComputeUnitPtr>> submit(
      const std::vector<TaskSpec>& specs) override;
  /// Forwards unit-settled events from the unit manager to the graph
  /// executor (at most one subscription at a time).
  void subscribe_settled(SettledFn fn) override;
  void unsubscribe_settled() override;

  /// Translates a single spec without submitting (exposed for tests
  /// and for tools that inspect the binding), stamped with the unit
  /// manager's session. submit() calls it once per run of equal specs
  /// and shares the result among their units.
  Result<pilot::SharedUnitDescription> translate(const TaskSpec& spec) const;

  /// Accumulated pattern overhead (task creation + submission time).
  Duration pattern_overhead() const ENTK_EXCLUDES(mutex_);
  std::size_t tasks_submitted() const ENTK_EXCLUDES(mutex_);
  /// Every unit this plugin has submitted, in submission order.
  std::vector<pilot::ComputeUnitPtr> all_units() const ENTK_EXCLUDES(mutex_);

  /// Checkpoint restore: injects the accumulated overhead and the
  /// submission-ordered unit list captured by a snapshot. The unit
  /// order is the snapshot's canonical serialization order, so it must
  /// be reproduced exactly.
  void restore_state(Duration pattern_overhead,
                     std::vector<pilot::ComputeUnitPtr> units)
      ENTK_EXCLUDES(mutex_);

 private:
  const kernels::KernelRegistry& registry_;
  pilot::UnitManager& unit_manager_;
  pilot::ExecutionBackend& backend_;
  Options options_;

  mutable Mutex mutex_{LockRank::kExecutionPlugin};
  Duration pattern_overhead_ ENTK_GUARDED_BY(mutex_) = 0.0;
  std::vector<pilot::ComputeUnitPtr> all_units_ ENTK_GUARDED_BY(mutex_);
  std::optional<std::size_t> settled_token_ ENTK_GUARDED_BY(mutex_);
  /// Closed by unsubscribe_settled(); see subscribe_settled().
  std::shared_ptr<pilot::CallbackGate> settled_gate_ ENTK_GUARDED_BY(mutex_);
};

}  // namespace entk::core
