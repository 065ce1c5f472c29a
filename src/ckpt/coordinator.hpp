// Checkpoint/restart coordinator.
//
// One Coordinator instance supervises one Session (or the unnamed
// session behind a ResourceHandle) on a simulated backend. It hooks
// two places:
//  - the unit manager's settled observers (to count progress), and
//  - the SimBackend step hook (to capture at engine-step boundaries —
//    the only points where no event callback is mid-flight, so a
//    snapshot is a consistent cut of the whole runtime).
// When the CheckpointPolicy fires (every N settled units and/or every
// T virtual seconds), the coordinator captures a Snapshot of the
// TaskGraph executor, unit manager, pilot agents, fault model, pending
// engine events and uid counters, and publishes it crash-consistently.
//
// Restore is the mirror image (see restore_runtime): the caller resets
// the uid counters, rebuilds the same backend + handle and calls
// allocate() — which deterministically replays pilot creation, so the
// pilot uids and walltime events match the original run — then the
// coordinator injects the captured state and reposts the captured
// pending events globally sorted by their original (time, seq). The
// resumed run's remaining schedule is then bit-identical to the
// uninterrupted run (tests/checkpoint_restart_test.cpp pins this).
//
// Scope: simulated backend only; capture requires every pilot active
// (captures are deferred, not failed, while a pilot is down) and no
// pilot replacement having occurred; patterns must have deterministic
// expanders (replayed on restore).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/status.hpp"
#include "core/pattern.hpp"
#include "core/resource_handle.hpp"
#include "pilot/sim_backend.hpp"

namespace entk::core {
class ExecutionPlugin;
}  // namespace entk::core

namespace entk::ckpt {

/// When to capture. Both triggers may be active; either firing causes
/// a capture (and resets both).
struct CheckpointPolicy {
  /// Capture after this many additional units settled (0 = off).
  std::uint64_t every_settled = 0;
  /// Capture after this much additional virtual time (0 = off).
  Duration every_interval = 0.0;

  bool enabled() const {
    return every_settled > 0 || every_interval > 0.0;
  }
};

class Coordinator final : public core::GraphRunObserver {
 public:
  struct Options {
    /// Directory snapshots are written into (created if missing).
    std::string directory;
    CheckpointPolicy policy;
    /// Test hook: after writing this many snapshots, abort the run
    /// with the checkpoint-stop status (simulates a crash at an exact,
    /// reproducible point). 0 = disabled.
    std::uint64_t crash_after_snapshots = 0;
    /// Polled at every step boundary; returning true triggers a final
    /// snapshot and stops the run (the SIGTERM/SIGINT path of
    /// entk-run). May be empty.
    std::function<bool()> stop_requested;
  };

  /// `session` must already be allocated. The coordinator registers a
  /// backend step hook and a settled observer; both are released by
  /// the destructor. Several coordinators may coexist on one backend
  /// (one per session) — each owns its own step-hook slot.
  Coordinator(pilot::SimBackend& backend, core::Session& session,
              Options options);
  /// Convenience: supervises the unnamed session behind `handle`.
  Coordinator(pilot::SimBackend& backend, core::ResourceHandle& handle,
              Options options);
  ~Coordinator() override;
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Identity stamped into every snapshot and verified on restore.
  /// `workload_text` may be empty for programmatic patterns.
  void set_identity(std::string pattern_name, std::string workload_text);

  /// Rebuilds the runtime state of `snapshot` into the (freshly
  /// allocated) session: verifies identity, restores the engine clock,
  /// uid counters, units, unit manager, agents and fault model, and
  /// reposts the captured pending events. The next run of a pattern
  /// with this coordinator attached as graph-run observer then resumes
  /// instead of starting over. The caller must have reset the uid
  /// counters BEFORE allocate() so the pilot uid replay matches the
  /// snapshot: reset_uid_counters_with_prefix(session name) for a
  /// named session (which cannot stomp other live sessions), or
  /// reset_uid_counters_for_testing() for the legacy unnamed one.
  Status restore_runtime(const Snapshot& snapshot);

  // --- GraphRunObserver ---
  Status prepare_run(core::TaskGraph& graph, core::GraphExecutor& runner,
                     core::PatternExecutor& executor) override;
  void on_graph_run_end(core::GraphExecutor& runner,
                        const Status& outcome) override;

  std::uint64_t snapshots_written() const { return snapshots_written_; }
  /// Path of the most recent snapshot ("" before the first capture).
  const std::string& last_snapshot_path() const { return last_path_; }

  /// True when `status` is the deliberate stop the crash/signal hooks
  /// abort a run with (as opposed to a real failure).
  static bool is_checkpoint_stop(const Status& status);

 private:
  /// The SimBackend step hook: applies the policy, captures when due,
  /// and turns crash/stop requests into an aborting status.
  Status on_step();
  /// All pilots active with started sim agents, and no replacement?
  bool capture_preconditions_met() const;
  Result<Snapshot> capture();
  Status capture_and_write();

  pilot::SimBackend& backend_;
  core::Session& session_;
  Options options_;
  std::string pattern_name_;
  std::string workload_text_;

  std::size_t settled_token_ = 0;
  bool observer_registered_ = false;
  std::uint64_t step_hook_token_ = 0;
  std::uint64_t settled_count_ = 0;
  std::uint64_t last_capture_settled_ = 0;
  TimePoint last_capture_time_ = 0.0;
  std::uint64_t snapshots_written_ = 0;
  std::string last_path_;

  // Active run (between prepare_run and on_graph_run_end).
  core::GraphExecutor* runner_ = nullptr;
  core::ExecutionPlugin* plugin_ = nullptr;

  // Restored-but-not-yet-resumed state (between restore_runtime and
  // prepare_run).
  struct PendingResume {
    core::GraphExecutor::SavedState graph;
    Duration pattern_overhead = 0.0;
    std::vector<pilot::ComputeUnitPtr> units;  ///< submission order
  };
  std::optional<PendingResume> pending_resume_;
  std::unordered_map<std::string, pilot::ComputeUnitPtr> units_by_uid_;
};

}  // namespace entk::ckpt
