// UnitManager: accepts compute-unit descriptions, routes them to pilot
// agents, tracks completion and drives automatic retries (the RP
// UnitManager analogue).
//
// Units submitted before any pilot is active are held and flushed the
// moment a pilot comes up — this is the late binding that lets an
// application describe more work than the resources instantaneously
// available. The same late binding powers fault tolerance: a failed
// unit with retry budget left is resubmitted after its RetryPolicy's
// backoff delay, and when a pilot fails (walltime expiry, container
// loss) its in-flight units are evicted, rewound to kPendingExecution
// and requeued onto surviving — or later-arriving replacement —
// pilots, without burning retry budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/uid.hpp"
#include "pilot/backend.hpp"
#include "pilot/pilot.hpp"

namespace entk::obs {
class Counter;
}  // namespace entk::obs

namespace entk::pilot {

/// Rundown protection for callbacks whose registrant may die first.
///
/// The UnitManager registers callbacks with objects it does not own:
/// pilots live on in the shared PilotManager after a session is torn
/// down, and retry-backoff timers live in the backend's engine. Each
/// such callback captures a shared_ptr to its manager's gate and brackets
/// its body with enter()/exit(); the manager's destructor close()s the
/// gate, which flips new entries to no-ops and blocks until every
/// in-flight body has exited. After close() returns, the manager can be
/// destroyed: no callback can touch it again.
///
/// enter/exit are two relaxed-ish atomics on the hot path; the mutex +
/// condvar are touched only during close. Entries count nesting, not
/// threads, so callbacks that re-enter the manager stay cheap.
class CallbackGate {
 public:
  /// Returns false (after undoing its entry) when the gate is closed;
  /// the caller must return without touching the manager.
  bool enter() {
    active_.fetch_add(1, std::memory_order_acquire);
    if (closed_.load(std::memory_order_acquire)) {
      exit();
      return false;
    }
    return true;
  }

  void exit() {
    if (active_.fetch_sub(1, std::memory_order_release) == 1 &&
        closed_.load(std::memory_order_acquire)) {
      MutexLock lock(mutex_);
      drained_.notify_all();
    }
  }

  /// Closes the gate and blocks until every in-flight callback body has
  /// exited. Idempotent; must not be called from inside a callback.
  void close() ENTK_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    closed_.store(true, std::memory_order_release);
    while (active_.load(std::memory_order_acquire) != 0) {
      drained_.wait(mutex_);
    }
  }

 private:
  std::atomic<bool> closed_{false};
  std::atomic<std::int64_t> active_{0};
  Mutex mutex_{LockRank::kCallbackGate};
  CondVar drained_;
};

class UnitManager {
 public:
  /// `session` scopes the manager to one named session: unit uids draw
  /// from the "<session>.unit" counter family, submitted descriptions
  /// are stamped with the session, and settle tallies feed
  /// per-session metrics. The empty name keeps the legacy process-wide
  /// "unit" family.
  explicit UnitManager(ExecutionBackend& backend,
                       std::string session = "");

  /// Closes the callback gate: blocks until in-flight pilot/unit/timer
  /// callbacks drain, then detaches this manager from all of them.
  ~UnitManager();

  UnitManager(const UnitManager&) = delete;
  UnitManager& operator=(const UnitManager&) = delete;

  /// Owning session name; "" for legacy unnamed managers.
  const std::string& session() const { return session_; }
  /// Trace ordinal of the owning session (0 = unnamed).
  std::uint32_t session_ordinal() const { return session_ordinal_; }

  /// Registers a pilot as an execution target. Units are distributed
  /// round-robin over active pilots.
  void add_pilot(PilotPtr pilot);

  /// Creates one unit per description and routes them. Units may
  /// share a description (equal specs translate once). Every
  /// description must be valid and stamped with this manager's
  /// session; otherwise nothing is created. Returned units are
  /// kPendingExecution (or already kFailed if oversized).
  Result<std::vector<ComputeUnitPtr>> submit_units(
      const std::vector<SharedUnitDescription>& descriptions)
      ENTK_EXCLUDES(mutex_);

  /// Drives the backend until every given unit is settled: done,
  /// cancelled, or failed with retries exhausted.
  Status wait_units(const std::vector<ComputeUnitPtr>& units,
                    Duration timeout = kTimeInfinity);

  /// Cancels every unsettled unit this manager holds — unrouted, in
  /// retry backoff, waiting in an agent, or (sim) executing — and
  /// drives the backend until all of them settle. Units the backend
  /// cannot kill (local executing) are waited out. Teardown path: a
  /// session destroyed with units in flight drains here instead of
  /// racing agent callbacks against destruction.
  Status drain(Duration timeout = kTimeInfinity) ENTK_EXCLUDES(mutex_);

  /// Kills one unit (the paper's kill/replace adaptivity): cancels it
  /// wherever it currently lives — held by this manager, waiting in an
  /// agent, or (simulated backend only) executing. See
  /// Agent::cancel_unit for backend-specific limits.
  Status cancel_unit(const ComputeUnitPtr& unit);

  /// Number of units handed to this manager over its lifetime.
  std::size_t total_units() const ENTK_EXCLUDES(mutex_);
  /// Units not yet settled. O(1): a counter kept at every
  /// unsettled->settled transition, at submit and at restore_unit.
  std::size_t inflight_units() const ENTK_EXCLUDES(mutex_);
  /// Whether `unit` is settled: done, cancelled, or failed with retries
  /// exhausted. Units not managed here report whether their state is
  /// final.
  bool is_settled(const ComputeUnit& unit) const ENTK_EXCLUDES(mutex_);
  /// Retries performed so far (every resubmission after a failure).
  std::size_t total_retries() const ENTK_EXCLUDES(mutex_);
  /// Units requeued off failed pilots (pilot-loss recovery).
  std::size_t recovered_units() const ENTK_EXCLUDES(mutex_);

  /// Seeds the jitter stream retry backoff draws from (determinism
  /// hook for tests; the default seed is fixed anyway).
  void seed_retry_jitter(std::uint64_t seed) ENTK_EXCLUDES(mutex_);

  /// Fired exactly once per managed unit when it settles: done,
  /// cancelled, or failed with retries exhausted. A kFailed state with
  /// retry budget left never reaches observers — the retry is internal.
  /// Observers run outside the manager lock and may re-enter the
  /// manager (submit more units, cancel, ...).
  using SettledObserver = std::function<void(const ComputeUnitPtr&,
                                             UnitState)>;
  /// Registers an observer; returns a token for removal.
  std::size_t add_settled_observer(SettledObserver observer)
      ENTK_EXCLUDES(mutex_);
  void remove_settled_observer(std::size_t token) ENTK_EXCLUDES(mutex_);

  ExecutionBackend& backend() { return backend_; }

  // --- checkpoint/restart (ckpt::Coordinator only) ---
  struct SavedState {
    std::size_t next_pilot = 0;
    std::vector<std::string> unrouted;  ///< uids in queue order
    std::size_t total_units = 0;
    std::size_t total_retries = 0;
    std::size_t recovered_units = 0;
    Xoshiro256::State retry_rng;
  };
  using UnitResolver = std::function<ComputeUnitPtr(const std::string&)>;
  SavedState save_state() const ENTK_EXCLUDES(mutex_);
  /// Injects counters/cursors and rebuilds the unrouted queue. Call
  /// after every unit has been re-registered via restore_unit().
  void restore_state(const SavedState& saved, const UnitResolver& resolve)
      ENTK_EXCLUDES(mutex_);
  /// Recreates a captured unit around its (adopted, not copied)
  /// description, with the next ordinal and this manager's listener,
  /// without counting it as a new submission.
  ComputeUnitPtr restore_unit(std::string uid,
                              SharedUnitDescription description,
                              const ComputeUnit::SavedState& state,
                              bool settled, bool notified)
      ENTK_EXCLUDES(mutex_);
  struct EntryFlags {
    bool settled = false;
    bool notified = false;  ///< Settled observers already fired.
  };
  /// Entry flags of `units`, in order, read under one lock into
  /// `flags`. Returns units.size() when every unit is managed here,
  /// else the index of the first one that is not.
  std::size_t unit_entries(const std::vector<ComputeUnitPtr>& units,
                           std::vector<EntryFlags>& flags) const
      ENTK_EXCLUDES(mutex_);
  /// Pending retry-backoff timers with their backend timer tokens
  /// (sim EventIds), in ordinal (submission) order.
  std::vector<std::pair<ComputeUnitPtr, std::uint64_t>> pending_retries()
      const ENTK_EXCLUDES(mutex_);
  /// Re-schedules a captured retry-backoff requeue after `delay`.
  void repost_retry(const ComputeUnitPtr& unit, Duration delay)
      ENTK_EXCLUDES(mutex_);

 private:
  /// The one per-unit record, at entries_[unit.ordinal()].
  struct Entry {
    ComputeUnitPtr unit;
    /// Backend token of an in-flight retry-backoff timer (0 = none or
    /// not introspectable); stale tokens are filtered against the
    /// engine at capture time.
    std::uint64_t retry_timer = 0;
    bool settled = false;
    bool notified = false;  ///< Settled observers already fired.
  };

  /// The entry of `unit`, or nullptr when another manager made it.
  Entry* find_entry_locked(const ComputeUnit& unit) ENTK_REQUIRES(mutex_);
  const Entry* find_entry_locked(const ComputeUnit& unit) const
      ENTK_REQUIRES(mutex_);
  /// Appends the entry for a unit created with ordinal entries_.size().
  void add_entry_locked(ComputeUnitPtr unit, bool settled, bool notified)
      ENTK_REQUIRES(mutex_);
  bool settled_locked(const ComputeUnit& unit) const ENTK_REQUIRES(mutex_);
  /// The one place an entry turns settled (and inflight_ drops).
  void mark_settled_locked(Entry& entry) ENTK_REQUIRES(mutex_);
  void mark_settled_locked(const ComputeUnit& unit) ENTK_REQUIRES(mutex_);
  /// Routes every held unit to an active pilot (takes the lock itself;
  /// agent submission happens outside it so callbacks can re-enter).
  void route_pending() ENTK_EXCLUDES(mutex_);
  void handle_state_change(ComputeUnit& unit, UnitState state)
      ENTK_EXCLUDES(mutex_);
  /// Marks the unit settled and fires the settled observers (outside
  /// the lock, at most once per unit). Every settle path — completion,
  /// cancellation, final failure, oversized rejection — funnels here.
  void settle_and_notify(ComputeUnit& unit, UnitState state)
      ENTK_EXCLUDES(mutex_);
  /// Evicts and requeues the units stranded on a failed pilot.
  void recover_from_pilot(Pilot& pilot) ENTK_EXCLUDES(mutex_);
  /// Schedules the backoff-expiry requeue for a retrying unit and
  /// tracks its timer token for checkpoint capture.
  void schedule_retry_requeue(ComputeUnitPtr retry, Duration delay)
      ENTK_EXCLUDES(mutex_);

  /// Bumps the per-session settle counter for `state` (named sessions
  /// only; the process-wide well-known counters are always bumped).
  void bump_session_counter(UnitState state);

  ExecutionBackend& backend_;
  const std::string session_;
  const std::uint32_t session_ordinal_;
  /// Interned handle: unit creation takes one relaxed atomic increment
  /// per uid instead of a global map lookup under a mutex. Per-manager
  /// so each session draws from its own counter family.
  const UidSource unit_uids_;
  /// Shared with every callback this manager registers on pilots,
  /// units and backend timers; closed (and drained) on destruction.
  const std::shared_ptr<CallbackGate> gate_;
  /// Every unit's one state listener (gated handle_state_change).
  const ComputeUnit::Listener listener_;
  /// Per-session dynamic metric counters; nullptr for unnamed
  /// managers. Resolved once — obs::Metrics map nodes are stable.
  obs::Counter* session_done_ = nullptr;
  obs::Counter* session_failed_ = nullptr;
  obs::Counter* session_canceled_ = nullptr;
  obs::Counter* session_submitted_ = nullptr;
  obs::Counter* session_retried_ = nullptr;

  mutable Mutex mutex_{LockRank::kUnitManager};
  std::vector<PilotPtr> pilots_ ENTK_GUARDED_BY(mutex_);
  std::size_t next_pilot_ ENTK_GUARDED_BY(mutex_) = 0;  // round-robin cursor
  std::deque<ComputeUnitPtr> unrouted_ ENTK_GUARDED_BY(mutex_);
  /// Indexed by ComputeUnit::ordinal(), in submission order.
  std::vector<Entry> entries_ ENTK_GUARDED_BY(mutex_);
  std::size_t total_units_ ENTK_GUARDED_BY(mutex_) = 0;
  /// Entries not yet settled (inflight_units()).
  std::size_t inflight_ ENTK_GUARDED_BY(mutex_) = 0;
  std::size_t total_retries_ ENTK_GUARDED_BY(mutex_) = 0;
  std::size_t recovered_units_ ENTK_GUARDED_BY(mutex_) = 0;
  /// Immutable snapshot, rebuilt only when an observer is added or
  /// removed; settle_and_notify grabs the shared_ptr under the lock
  /// (one refcount bump) instead of copying the vector per settled
  /// unit — at 100k units that copy dominated the settle path.
  using ObserverList = std::vector<std::pair<std::size_t, SettledObserver>>;
  std::shared_ptr<const ObserverList> observers_ ENTK_GUARDED_BY(mutex_);
  std::size_t next_observer_token_ ENTK_GUARDED_BY(mutex_) = 0;
  Xoshiro256 retry_rng_ ENTK_GUARDED_BY(mutex_){0x7e7c1ULL};
};

}  // namespace entk::pilot
