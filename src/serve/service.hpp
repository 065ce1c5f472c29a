// The entk-serve core: a multi-tenant ensemble service.
//
// One Service owns one simulated machine (SimBackend), one Runtime
// and one admission queue, and runs N tenants' workloads as named
// concurrent sessions over the shared pilot pool. Three concerns,
// three mechanisms:
//
//   admission control   SUBMIT lands in a bounded queue; a full queue
//                       sheds the request with REJECTED instead of
//                       absorbing unbounded work. The drive loop
//                       admits queued workloads FIFO (skipping over
//                       entries whose gates are closed — no
//                       head-of-line blocking) whenever global
//                       session, per-tenant session and machine-core
//                       gates allow.
//   per-tenant quotas   max concurrent sessions and max in-flight
//                       units per tenant, enforced at admission and
//                       at dispatch respectively.
//   weighted fair-share deficit round-robin over frontier dispatch:
//                       every running session's graph executor defers
//                       its pumping, and the drive predicate advances
//                       the graphs that changed since their last
//                       advance (in parallel on the work-stealing
//                       pool), then flushes ready nodes
//                       tenant-by-tenant in weight-proportional quanta,
//                       bounded by a global in-flight budget (the
//                       scarce resource the arbitration divides).
//
// Threading: listener/client threads call submit/status/cancel/
// results/stats/handle_line; ONE drive thread calls run() (or the
// test-friendly drain()) and is the only thread that touches the
// Runtime, the backend and the sessions. The two service mutexes are
// the outermost locks in the process (LockRank kServeMailbox <
// kServeRegistry < everything the runtime takes).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "core/session.hpp"
#include "core/workload_file.hpp"
#include "kernels/registry.hpp"
#include "pilot/sim_backend.hpp"
#include "serve/tenant.hpp"
#include "sim/machine.hpp"

namespace entk::obs {
class Counter;
}  // namespace entk::obs

namespace entk::serve {

enum class WorkloadState {
  kQueued,     ///< Accepted, waiting for admission.
  kRunning,    ///< Admitted: session allocated, pattern in flight.
  kDone,       ///< Settled successfully.
  kFailed,     ///< Settled with a failure outcome.
  kCancelled,  ///< Cancelled while queued or in flight.
};

/// "QUEUED", "RUNNING", ... (the wire spelling).
const char* workload_state_name(WorkloadState state);
bool is_terminal(WorkloadState state);

/// Client-visible snapshot of one workload.
struct WorkloadStatus {
  std::uint64_t id = 0;
  std::string tenant;
  std::string label;    ///< Client-supplied name ("" if none).
  std::string session;  ///< Session name the run executes under.
  WorkloadState state = WorkloadState::kQueued;
  std::uint64_t dispatched_units = 0;
  /// Wall seconds from SUBMIT to the first unit dispatch; < 0 until
  /// the workload dispatches.
  double submit_latency_seconds = -1.0;
  // Terminal-only unit tallies (0 while queued/running).
  std::size_t units_done = 0;
  std::size_t units_failed = 0;
  std::size_t units_cancelled = 0;
  Status outcome;  ///< Terminal only; ok() until then.
};

/// Service-wide snapshot (STATS verb).
struct ServiceStats {
  std::string machine;
  std::size_t machine_cores = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t active_sessions = 0;
  std::size_t max_active_sessions = 0;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::vector<TenantStats> tenants;  ///< Sorted by name.
};

struct ServiceConfig {
  /// Simulated machine every workload runs on (workloads must name it,
  /// or "localhost" by default).
  std::string machine = "localhost";
  /// Admission queue bound; a full queue REJECTs further SUBMITs.
  std::size_t queue_capacity = 256;
  /// Max concurrently running sessions across all tenants.
  /// 0 = derive: max(4, 2 * core::parallel_threads()).
  std::size_t max_active_sessions = 0;
  /// Fair-share quantum: frontier nodes credited per tenant per DRR
  /// round, scaled by the tenant weight. 0 = derive (8).
  std::size_t drr_quantum = 0;
  /// Global in-flight dispatch budget: the DRR pass stops flushing
  /// once this many units are dispatched-but-unsettled across ALL
  /// tenants. This is the scarce resource fair-share arbitrates — it
  /// keeps one tenant's flood from monopolising the shared engine.
  /// 0 = derive: 2 * machine cores.
  std::size_t max_inflight_total = 0;
  /// Policy for tenants not explicitly configured.
  TenantConfig default_tenant;
};

class Service {
 public:
  /// Builds the backend, runtime and kernel registry for
  /// `config.machine`. Fails when the machine is unknown.
  static Result<std::unique_ptr<Service>> create(ServiceConfig config);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // --- client-thread API (any thread) ---

  /// Admission: validates the spec against this service's machine and
  /// enqueues it. kResourceExhausted = queue full (wire REJECTED);
  /// kInvalidArgument = malformed (wire BAD_REQUEST). Returns the
  /// workload id.
  Result<std::uint64_t> submit(std::string_view tenant,
                               core::WorkloadSpec spec,
                               std::string_view label = "")
      ENTK_EXCLUDES(mailbox_mutex_, registry_mutex_);

  Result<WorkloadStatus> status(std::uint64_t id) const
      ENTK_EXCLUDES(registry_mutex_);

  /// Queued workloads cancel synchronously; running ones are handed to
  /// the drive thread (state stays RUNNING until the abort settles).
  /// kFailedPrecondition when already terminal.
  Status cancel(std::uint64_t id)
      ENTK_EXCLUDES(mailbox_mutex_, registry_mutex_);

  /// Terminal outcome + unit tallies; kFailedPrecondition while the
  /// workload is still queued/running.
  Result<WorkloadStatus> results(std::uint64_t id) const
      ENTK_EXCLUDES(registry_mutex_);

  ServiceStats stats() const
      ENTK_EXCLUDES(mailbox_mutex_, registry_mutex_);

  /// Creates or updates a tenant's policy.
  Status configure_tenant(std::string_view name, TenantConfig config)
      ENTK_EXCLUDES(registry_mutex_);

  /// Protocol entry point: one request line in, one reply line out
  /// (no trailing newline). Never throws, never returns an empty
  /// string — every malformed input maps to an error reply. The
  /// listener calls this per line; tests call it socket-free.
  std::string handle_line(std::string_view line);

  /// Asks the drive loop to stop: queued workloads are cancelled,
  /// running ones aborted and settled, then run() returns.
  void shutdown() ENTK_EXCLUDES(mailbox_mutex_);
  bool shutting_down() const ENTK_EXCLUDES(mailbox_mutex_);

  // --- drive-thread API (exactly one thread) ---

  /// The service main loop: admits, drives, reaps until shutdown().
  void run();

  /// Blocks until the queue is empty and no session is running (or
  /// shutdown). Call from a client thread while another thread is in
  /// run(); tests and the bench use it as a completion barrier.
  void drain() ENTK_EXCLUDES(mailbox_mutex_);

  const std::string& machine_name() const { return config_.machine; }
  Count machine_cores() const { return machine_cores_; }
  const ServiceConfig& config() const { return config_; }

 private:
  struct TenantSlot;

  /// One submitted workload, queued → running → terminal.
  struct Workload {
    std::uint64_t id = 0;
    std::string tenant;
    std::string label;
    std::string session_name;
    core::WorkloadSpec spec;

    // Guarded by registry_mutex_ (read by client threads).
    WorkloadState state = WorkloadState::kQueued;
    double submit_wall = 0.0;
    double start_wall = -1.0;
    double first_dispatch_wall = -1.0;
    std::uint64_t dispatched_units = 0;
    std::size_t units_done = 0;
    std::size_t units_failed = 0;
    std::size_t units_cancelled = 0;
    Status outcome;

    // Drive-thread only.
    std::shared_ptr<core::Session> session;
    std::unique_ptr<core::ExecutionPattern> pattern;
    core::GraphExecutor* executor = nullptr;
    TenantSlot* slot = nullptr;  ///< Set while running.
    bool advance_due = false;  ///< Listed in to_advance_.
    bool backlogged = false;   ///< Counted in backlogged_.
  };

  /// Tenant policy + tallies; guarded by registry_mutex_ except
  /// `deficit`, which only the drive thread touches.
  struct Tenant {
    TenantConfig config;
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t dispatched_units = 0;
    std::uint64_t contended_dispatched_units = 0;
    std::size_t active_sessions = 0;
    std::size_t peak_active_sessions = 0;
    std::size_t queued = 0;
    double deficit = 0.0;
  };

  /// Drive-thread view of one tenant with running workloads: the
  /// fair-share pass reads its backlog and in-flight total here
  /// instead of rebuilding name-keyed maps on every engine event.
  struct TenantSlot {
    std::string name;
    Tenant* tenant = nullptr;  ///< Node of tenants_; never erased.
    obs::Counter* dispatched = nullptr;  ///< serve.tenant.<name>...
    std::vector<Workload*> running;  ///< Admission order.
    // Per-pass scratch.
    std::vector<Workload*> ready;  ///< Running with a pending batch.
    std::size_t inflight = 0;
  };

  explicit Service(ServiceConfig config, sim::MachineProfile machine);

  Tenant& tenant_locked(std::string_view name)
      ENTK_REQUIRES(registry_mutex_);
  WorkloadStatus snapshot_locked(const Workload& workload) const
      ENTK_REQUIRES(registry_mutex_);

  // Drive-loop stages (drive thread only).
  void process_mailbox();
  std::shared_ptr<Workload> pop_admissible()
      ENTK_EXCLUDES(mailbox_mutex_, registry_mutex_);
  void start_workload(const std::shared_ptr<Workload>& workload);
  void drive_active();
  /// The fair-share heart: advance the running graphs that changed,
  /// then flush ready nodes per tenant in weighted DRR quanta, bounded
  /// by each tenant's in-flight-unit headroom. Returns at once when no
  /// graph has a pending batch.
  void advance_and_flush();
  /// Queues `workload`'s graph for the next advance (a settlement was
  /// queued, or it was started, flushed or cancelled).
  void mark_changed(Workload& workload);
  /// Unhooks the graph executor from the drive loop's bookkeeping.
  void detach_executor(Workload& workload);
  void set_backlogged(Workload& workload, bool backlogged);
  void join_slot(Workload& workload, Tenant& tenant);
  void leave_slot(Workload& workload);
  void reap_finished();
  void finish_workload(const std::shared_ptr<Workload>& workload,
                       WorkloadState state, Status outcome,
                       const core::RunReport* report);
  void update_gauges() ENTK_EXCLUDES(mailbox_mutex_);
  bool mailbox_dirty() const ENTK_EXCLUDES(mailbox_mutex_);

  ServiceConfig config_;
  Count machine_cores_ = 0;
  std::size_t max_active_ = 0;
  std::size_t quantum_ = 0;
  WallClock wall_;

  kernels::KernelRegistry kernel_registry_;
  std::unique_ptr<pilot::SimBackend> backend_;
  std::unique_ptr<core::Runtime> runtime_;

  /// Admission mailbox: what client threads hand the drive thread.
  mutable Mutex mailbox_mutex_{LockRank::kServeMailbox};
  CondVar mailbox_cv_;  ///< Signals the drive thread.
  CondVar idle_cv_;     ///< Signals drain() waiters.
  std::deque<std::shared_ptr<Workload>> queue_
      ENTK_GUARDED_BY(mailbox_mutex_);
  std::vector<std::uint64_t> pending_cancels_
      ENTK_GUARDED_BY(mailbox_mutex_);
  bool dirty_ ENTK_GUARDED_BY(mailbox_mutex_) = false;
  bool shutdown_ ENTK_GUARDED_BY(mailbox_mutex_) = false;
  std::size_t running_count_ ENTK_GUARDED_BY(mailbox_mutex_) = 0;

  /// Workload + tenant registry: what client threads read back.
  mutable Mutex registry_mutex_{LockRank::kServeRegistry};
  std::uint64_t next_id_ ENTK_GUARDED_BY(registry_mutex_) = 1;
  std::map<std::uint64_t, std::shared_ptr<Workload>> workloads_
      ENTK_GUARDED_BY(registry_mutex_);
  std::map<std::string, Tenant, std::less<>> tenants_
      ENTK_GUARDED_BY(registry_mutex_);

  // Drive-thread only.
  std::vector<std::shared_ptr<Workload>> active_;
  /// Tenants with running workloads, sorted by name (the DRR order).
  std::vector<std::unique_ptr<TenantSlot>> slots_;
  /// Graphs to advance at the next pass; `advancing_` and `order_` are
  /// scratch kept to reuse their storage.
  std::vector<Workload*> to_advance_;
  std::vector<Workload*> advancing_;
  std::vector<TenantSlot*> order_;
  /// Running workloads whose graph holds a pending batch.
  std::size_t backlogged_ = 0;
  /// A run settled since the last reap_finished().
  bool reap_due_ = false;
  Count committed_cores_ = 0;
  std::size_t inflight_budget_ = 0;
  /// Rotates which backlogged tenant gets first crack at the global
  /// budget each DRR round (deficits even out credit; rotation evens
  /// out tie-breaks).
  std::size_t drr_cursor_ = 0;
};

}  // namespace entk::serve
