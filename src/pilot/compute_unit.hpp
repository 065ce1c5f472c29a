// ComputeUnit: one task in flight, with its profiling timeline.
//
// The timeline drives the paper's overhead decomposition:
//   created -> submitted  : EnTK pattern overhead (creation+submission)
//   submitted -> started  : runtime (agent) overhead: queueing + spawn
//   started -> stopped    : execution time
//   stopped -> finalised  : output staging + bookkeeping
// Thread-safe for the local backend (worker threads mutate state).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "pilot/descriptions.hpp"
#include "pilot/states.hpp"

namespace entk::pilot {

class ComputeUnit {
 public:
  using Callback = std::function<void(ComputeUnit&, UnitState)>;
  /// The unit's one state listener, shared by every unit of its
  /// manager: a transition calls through it, nothing is copied.
  using Listener = std::shared_ptr<const Callback>;
  /// ordinal() of a unit no UnitManager created.
  static constexpr std::uint32_t kNoOrdinal = 0xffffffffu;

  /// An unmanaged unit (tests, tools): interns description->session to
  /// find the trace ordinal; no ordinal, no listener.
  ComputeUnit(std::string uid, SharedUnitDescription description,
              const Clock& clock);
  /// A managed unit (UnitManager only): the session's already-interned
  /// trace ordinal, the manager's dense ordinal and its listener.
  ComputeUnit(std::string uid, SharedUnitDescription description,
              const Clock& clock, std::uint32_t session_ordinal,
              std::uint32_t ordinal, Listener listener);

  const std::string& uid() const { return uid_; }
  const UnitDescription& description() const { return *description_; }
  const SharedUnitDescription& shared_description() const {
    return description_;
  }

  /// Dense per-manager index assigned at submit (or restore); lets the
  /// manager and the graph executor keep per-unit state in vectors.
  std::uint32_t ordinal() const { return ordinal_; }

  /// Stable trace identity (obs::trace_flow_id of the uid), computed
  /// once so hot-path instrumentation never re-hashes the uid.
  std::uint64_t trace_flow() const { return trace_flow_; }

  /// Trace ordinal of the owning session (obs::session_ordinal of
  /// description().session), cached so instrumentation in agents never
  /// re-interns the name. 0 for legacy unnamed sessions.
  std::uint32_t session_ordinal() const { return session_ordinal_; }

  UnitState state() const ENTK_EXCLUDES(mutex_);
  Status final_status() const ENTK_EXCLUDES(mutex_);

  /// Number of times this unit has been (re)started after failure.
  Count retries() const ENTK_EXCLUDES(mutex_);

  /// Execution-attempt epoch: bumped every time the unit is rewound to
  /// kPendingExecution (retry or pilot-loss requeue). Agents capture
  /// it when scheduling lifecycle events so stale events from a dead
  /// attempt cannot act on a relaunched unit.
  Count epoch() const ENTK_EXCLUDES(mutex_);

  // Profiling timeline (kNoTime until stamped).
  /// Accepted by the unit manager.
  TimePoint created_at() const ENTK_EXCLUDES(mutex_);
  /// Handed to the agent.
  TimePoint submitted_at() const ENTK_EXCLUDES(mutex_);
  TimePoint exec_started_at() const ENTK_EXCLUDES(mutex_);
  TimePoint exec_stopped_at() const ENTK_EXCLUDES(mutex_);
  TimePoint finished_at() const ENTK_EXCLUDES(mutex_);

  /// Time spent occupying cores (exec_stopped - exec_started); 0 if the
  /// unit never executed.
  Duration execution_time() const ENTK_EXCLUDES(mutex_);

  // --- runtime interface (agents and unit managers only) ---
  Status advance_state(UnitState to, Status failure = Status::ok())
      ENTK_EXCLUDES(mutex_);
  void stamp_created() ENTK_EXCLUDES(mutex_);
  void stamp_submitted() ENTK_EXCLUDES(mutex_);
  void note_retry() ENTK_EXCLUDES(mutex_);
  /// Rewinds a failed unit to kPendingExecution for resubmission.
  Status reset_for_retry() ENTK_EXCLUDES(mutex_);

  // --- checkpoint/restart (ckpt::Coordinator only) ---
  /// All mutable state (UnitManager::restore_unit gives the restored
  /// unit its listener).
  struct SavedState {
    UnitState state = UnitState::kNew;
    Status final_status;
    Count retries = 0;
    Count epoch = 0;
    TimePoint created_at = kNoTime;
    TimePoint submitted_at = kNoTime;
    TimePoint exec_started_at = kNoTime;
    TimePoint exec_stopped_at = kNoTime;
    TimePoint finished_at = kNoTime;
  };
  SavedState save_state() const ENTK_EXCLUDES(mutex_);
  /// Injects a saved state directly; fires no callbacks and performs no
  /// transition validation (the snapshot was valid when taken).
  void restore_state(const SavedState& saved) ENTK_EXCLUDES(mutex_);

 private:
  const std::string uid_;
  const SharedUnitDescription description_;
  const Clock& clock_;
  const std::uint64_t trace_flow_;
  const std::uint32_t session_ordinal_;
  const std::uint32_t ordinal_;
  const Listener listener_;

  mutable Mutex mutex_{LockRank::kComputeUnit};
  UnitState state_ ENTK_GUARDED_BY(mutex_) = UnitState::kNew;
  Status final_status_ ENTK_GUARDED_BY(mutex_);
  Count retries_ ENTK_GUARDED_BY(mutex_) = 0;
  Count epoch_ ENTK_GUARDED_BY(mutex_) = 0;
  TimePoint created_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
  TimePoint submitted_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
  TimePoint exec_started_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
  TimePoint exec_stopped_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
  TimePoint finished_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
};

using ComputeUnitPtr = std::shared_ptr<ComputeUnit>;

}  // namespace entk::pilot
