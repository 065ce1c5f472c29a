#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/work_stealing_pool.hpp"
#include "core/graph_executor.hpp"
#include "core/parallel_runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace entk::serve {

namespace {

/// Extra rounds of DRR credit an idle-but-throttled tenant may bank;
/// caps the burst it can dump when headroom returns.
constexpr double kDeficitCapRounds = 4.0;

obs::Metrics& metrics() { return obs::Metrics::instance(); }

}  // namespace

const char* workload_state_name(WorkloadState state) {
  switch (state) {
    case WorkloadState::kQueued: return "QUEUED";
    case WorkloadState::kRunning: return "RUNNING";
    case WorkloadState::kDone: return "DONE";
    case WorkloadState::kFailed: return "FAILED";
    case WorkloadState::kCancelled: return "CANCELLED";
  }
  return "?";
}

bool is_terminal(WorkloadState state) {
  return state == WorkloadState::kDone ||
         state == WorkloadState::kFailed ||
         state == WorkloadState::kCancelled;
}

Result<std::unique_ptr<Service>> Service::create(ServiceConfig config) {
  const auto catalog = sim::MachineCatalog::with_builtin_profiles();
  auto machine = catalog.find(config.machine);
  if (!machine.ok()) return machine.status();
  if (config.queue_capacity == 0) {
    return make_error(Errc::kInvalidArgument,
                      "queue_capacity must be at least 1");
  }
  return std::unique_ptr<Service>(
      new Service(std::move(config), machine.take()));
}

Service::Service(ServiceConfig config, sim::MachineProfile machine)
    : config_(std::move(config)),
      machine_cores_(machine.total_cores()),
      kernel_registry_(kernels::KernelRegistry::with_builtin_kernels()),
      backend_(std::make_unique<pilot::SimBackend>(std::move(machine))) {
  max_active_ = config_.max_active_sessions != 0
                    ? config_.max_active_sessions
                    : std::max<std::size_t>(4, 2 * core::parallel_threads());
  quantum_ = config_.drr_quantum != 0 ? config_.drr_quantum : 8;
  inflight_budget_ = config_.max_inflight_total != 0
                         ? config_.max_inflight_total
                         : 2 * static_cast<std::size_t>(machine_cores_);
  runtime_ = std::make_unique<core::Runtime>(*backend_, kernel_registry_);
}

Service::~Service() {
  shutdown();
  // The drive thread (if any) is expected to have exited run() before
  // the owner destroys the service; active_ sessions settle through
  // their own destructors otherwise.
}

Service::Tenant& Service::tenant_locked(std::string_view name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    Tenant tenant;
    tenant.config = config_.default_tenant;
    it = tenants_.emplace(std::string(name), tenant).first;
  }
  return it->second;
}

Status Service::configure_tenant(std::string_view name,
                                 TenantConfig config) {
  if (!valid_tenant_name(name)) {
    return make_error(Errc::kInvalidArgument,
                      "invalid tenant name \"" + std::string(name) + "\"");
  }
  if (config.weight <= 0.0 || !std::isfinite(config.weight)) {
    return make_error(Errc::kInvalidArgument,
                      "tenant weight must be positive and finite");
  }
  if (config.max_sessions == 0 || config.max_inflight_units == 0) {
    return make_error(Errc::kInvalidArgument,
                      "tenant quotas must be at least 1");
  }
  MutexLock lock(registry_mutex_);
  tenant_locked(name).config = config;
  return Status::ok();
}

Result<std::uint64_t> Service::submit(std::string_view tenant,
                                      core::WorkloadSpec spec,
                                      std::string_view label) {
  if (!valid_tenant_name(tenant)) {
    return make_error(Errc::kInvalidArgument,
                      "invalid tenant name \"" + std::string(tenant) +
                          "\" (want [A-Za-z0-9_.-], 1..64 bytes)");
  }
  Status valid = spec.validate();
  if (!valid.is_ok()) return valid;
  auto resolved = core::resolve_workload(spec, kernel_registry_);
  if (!resolved.ok()) return resolved.status();
  spec = resolved.take();
  if (spec.backend != "sim") {
    return make_error(Errc::kInvalidArgument,
                      "serve runs the sim backend only (backend = sim)");
  }
  if (spec.machine != config_.machine) {
    return make_error(Errc::kInvalidArgument,
                      "this service simulates machine \"" + config_.machine +
                          "\", not \"" + spec.machine + "\"");
  }
  if (spec.cores < 1 ||
      spec.cores > static_cast<Count>(machine_cores_)) {
    return make_error(Errc::kInvalidArgument,
                      "cores = " + std::to_string(spec.cores) +
                          " exceeds the machine's " +
                          std::to_string(machine_cores_) + " cores");
  }

  metrics().counter(obs::WellKnownCounter::kServeSubmitted).add();
  std::shared_ptr<Workload> workload;
  {
    MutexLock lock(mailbox_mutex_);
    if (shutdown_) {
      return make_error(Errc::kCancelled, "service is shutting down");
    }
    MutexLock registry(registry_mutex_);
    Tenant& owner = tenant_locked(tenant);
    ++owner.submitted;
    if (queue_.size() >= config_.queue_capacity) {
      ++owner.rejected;
      metrics().counter(obs::WellKnownCounter::kServeRejected).add();
      return make_error(Errc::kResourceExhausted,
                        "admission queue is full (capacity " +
                            std::to_string(config_.queue_capacity) + ")");
    }
    workload = std::make_shared<Workload>();
    workload->id = next_id_++;
    workload->tenant = tenant;
    workload->label = label;
    workload->session_name = "serve." + std::string(tenant) + "." +
                             std::to_string(workload->id);
    workload->spec = std::move(spec);
    workload->submit_wall = wall_.now();
    workloads_[workload->id] = workload;
    ++owner.accepted;
    ++owner.queued;
    queue_.push_back(workload);
    dirty_ = true;
    mailbox_cv_.notify_all();
  }
  metrics().counter(obs::WellKnownCounter::kServeAccepted).add();
  metrics()
      .counter("serve.tenant." + std::string(tenant) + ".accepted")
      .add();
  update_gauges();
  return workload->id;
}

WorkloadStatus Service::snapshot_locked(const Workload& workload) const {
  WorkloadStatus status;
  status.id = workload.id;
  status.tenant = workload.tenant;
  status.label = workload.label;
  status.session = workload.session_name;
  status.state = workload.state;
  status.dispatched_units = workload.dispatched_units;
  if (workload.first_dispatch_wall >= 0.0) {
    status.submit_latency_seconds =
        workload.first_dispatch_wall - workload.submit_wall;
  }
  status.units_done = workload.units_done;
  status.units_failed = workload.units_failed;
  status.units_cancelled = workload.units_cancelled;
  status.outcome = workload.outcome;
  return status;
}

Result<WorkloadStatus> Service::status(std::uint64_t id) const {
  MutexLock lock(registry_mutex_);
  auto it = workloads_.find(id);
  if (it == workloads_.end()) {
    return make_error(Errc::kNotFound,
                      "no workload with id " + std::to_string(id));
  }
  return snapshot_locked(*it->second);
}

Result<WorkloadStatus> Service::results(std::uint64_t id) const {
  MutexLock lock(registry_mutex_);
  auto it = workloads_.find(id);
  if (it == workloads_.end()) {
    return make_error(Errc::kNotFound,
                      "no workload with id " + std::to_string(id));
  }
  if (!is_terminal(it->second->state)) {
    return make_error(Errc::kFailedPrecondition,
                      "workload " + std::to_string(id) + " is still " +
                          workload_state_name(it->second->state));
  }
  return snapshot_locked(*it->second);
}

Status Service::cancel(std::uint64_t id) {
  MutexLock lock(mailbox_mutex_);
  MutexLock registry(registry_mutex_);
  auto it = workloads_.find(id);
  if (it == workloads_.end()) {
    return make_error(Errc::kNotFound,
                      "no workload with id " + std::to_string(id));
  }
  Workload& workload = *it->second;
  if (is_terminal(workload.state)) {
    return make_error(Errc::kFailedPrecondition,
                      "workload " + std::to_string(id) +
                          " already settled (" +
                          workload_state_name(workload.state) + ")");
  }
  if (workload.state == WorkloadState::kQueued) {
    // Never admitted: settle synchronously, no drive-thread state.
    for (auto queued = queue_.begin(); queued != queue_.end(); ++queued) {
      if ((*queued)->id == id) {
        queue_.erase(queued);
        break;
      }
    }
    workload.state = WorkloadState::kCancelled;
    workload.outcome =
        make_error(Errc::kCancelled, "cancelled while queued");
    Tenant& owner = tenant_locked(workload.tenant);
    if (owner.queued > 0) --owner.queued;
    ++owner.cancelled;
    metrics().counter(obs::WellKnownCounter::kServeCancelled).add();
    return Status::ok();
  }
  // Running: the drive thread owns the session — hand it the abort.
  pending_cancels_.push_back(id);
  dirty_ = true;
  mailbox_cv_.notify_all();
  return Status::ok();
}

ServiceStats Service::stats() const {
  ServiceStats stats;
  stats.machine = config_.machine;
  stats.machine_cores = static_cast<std::size_t>(machine_cores_);
  stats.queue_capacity = config_.queue_capacity;
  stats.max_active_sessions = max_active_;
  MutexLock lock(mailbox_mutex_);
  stats.queue_depth = queue_.size();
  stats.active_sessions = running_count_;
  MutexLock registry(registry_mutex_);
  for (const auto& [name, tenant] : tenants_) {
    TenantStats entry;
    entry.name = name;
    entry.weight = tenant.config.weight;
    entry.submitted = tenant.submitted;
    entry.accepted = tenant.accepted;
    entry.rejected = tenant.rejected;
    entry.completed = tenant.completed;
    entry.failed = tenant.failed;
    entry.cancelled = tenant.cancelled;
    entry.dispatched_units = tenant.dispatched_units;
    entry.contended_dispatched_units = tenant.contended_dispatched_units;
    entry.active_sessions = tenant.active_sessions;
    entry.peak_active_sessions = tenant.peak_active_sessions;
    entry.queued = tenant.queued;
    stats.submitted += tenant.submitted;
    stats.accepted += tenant.accepted;
    stats.rejected += tenant.rejected;
    stats.completed += tenant.completed;
    stats.failed += tenant.failed;
    stats.cancelled += tenant.cancelled;
    stats.tenants.push_back(std::move(entry));
  }
  return stats;
}

void Service::shutdown() {
  MutexLock lock(mailbox_mutex_);
  shutdown_ = true;
  mailbox_cv_.notify_all();
  idle_cv_.notify_all();
}

bool Service::shutting_down() const {
  MutexLock lock(mailbox_mutex_);
  return shutdown_;
}

void Service::drain() {
  MutexLock lock(mailbox_mutex_);
  while (!shutdown_ && (!queue_.empty() || running_count_ > 0 ||
                        !pending_cancels_.empty() || dirty_)) {
    idle_cv_.wait(mailbox_mutex_);
  }
}

bool Service::mailbox_dirty() const {
  MutexLock lock(mailbox_mutex_);
  return dirty_ || shutdown_;
}

void Service::update_gauges() {
  std::size_t depth = 0;
  std::size_t running = 0;
  {
    MutexLock lock(mailbox_mutex_);
    depth = queue_.size();
    running = running_count_;
  }
  metrics()
      .gauge(obs::WellKnownGauge::kServeQueueDepth)
      .set(static_cast<double>(depth));
  metrics()
      .gauge(obs::WellKnownGauge::kServeActiveSessions)
      .set(static_cast<double>(running));
}

// --- drive loop -------------------------------------------------------

void Service::run() {
  for (;;) {
    {
      MutexLock lock(mailbox_mutex_);
      while (!shutdown_ && !dirty_ && queue_.empty() &&
             pending_cancels_.empty() && active_.empty()) {
        idle_cv_.notify_all();
        mailbox_cv_.wait(mailbox_mutex_);
      }
      if (shutdown_) break;
    }
    process_mailbox();
    if (!active_.empty()) {
      drive_active();
      reap_finished();
    }
    {
      MutexLock lock(mailbox_mutex_);
      if (queue_.empty() && running_count_ == 0 &&
          pending_cancels_.empty() && !dirty_) {
        idle_cv_.notify_all();
      }
    }
  }

  // Shutdown: shed the queue, abort in-flight runs, settle, report.
  std::deque<std::shared_ptr<Workload>> queued;
  {
    MutexLock lock(mailbox_mutex_);
    queued.swap(queue_);
    pending_cancels_.clear();
    dirty_ = false;
  }
  for (const auto& workload : queued) {
    finish_workload(workload, WorkloadState::kCancelled,
                    make_error(Errc::kCancelled, "service shut down"),
                    nullptr);
  }
  for (const auto& workload : active_) {
    if (workload->session != nullptr) {
      (void)workload->session->cancel_run();
      mark_changed(*workload);
    }
  }
  if (!active_.empty()) {
    obs::ScopedTraceClock trace_clock(backend_->clock());
    const auto settled = [this] {
      advance_and_flush();
      return std::all_of(active_.begin(), active_.end(),
                         [](const std::shared_ptr<Workload>& workload) {
                           return workload->session == nullptr ||
                                  workload->session->run_finished();
                         });
    };
    if (!settled()) (void)backend_->drive_until(settled);
    reap_finished();
  }
  update_gauges();
  {
    MutexLock lock(mailbox_mutex_);
    idle_cv_.notify_all();
  }
}

void Service::process_mailbox() {
  std::vector<std::uint64_t> cancels;
  {
    MutexLock lock(mailbox_mutex_);
    dirty_ = false;
    cancels.swap(pending_cancels_);
  }
  for (const std::uint64_t id : cancels) {
    for (const auto& workload : active_) {
      if (workload->id == id && workload->session != nullptr) {
        (void)workload->session->cancel_run();
        // The cancel's own pump may finish the run (nothing in flight):
        // the next advance notices.
        mark_changed(*workload);
        break;
      }
    }
  }
  while (auto workload = pop_admissible()) {
    start_workload(workload);
  }
  update_gauges();
}

std::shared_ptr<Service::Workload> Service::pop_admissible() {
  MutexLock lock(mailbox_mutex_);
  if (active_.size() >= max_active_) return nullptr;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const std::shared_ptr<Workload>& candidate = *it;
    bool open = committed_cores_ + candidate->spec.cores <=
                static_cast<Count>(machine_cores_);
    if (open) {
      MutexLock registry(registry_mutex_);
      const Tenant& owner = tenant_locked(candidate->tenant);
      open = owner.active_sessions < owner.config.max_sessions;
    }
    // A closed gate skips this entry, not the whole queue: a narrow
    // workload behind a wide one still admits (no head-of-line block).
    if (!open) continue;
    std::shared_ptr<Workload> taken = candidate;
    queue_.erase(it);
    // Counted as running in the same critical section that dequeues
    // it, so drain() never sees the workload in neither place.
    // start_workload undoes this if the start fails.
    ++running_count_;
    return taken;
  }
  return nullptr;
}

void Service::start_workload(const std::shared_ptr<Workload>& workload) {
  const auto fail = [this, &workload](Status why) {
    finish_workload(workload, WorkloadState::kFailed, std::move(why),
                    nullptr);
    MutexLock lock(mailbox_mutex_);
    --running_count_;
  };
  core::SessionOptions options;
  options.name = workload->session_name;
  options.resources.cores = workload->spec.cores;
  options.resources.runtime = workload->spec.runtime;
  options.resources.scheduler_policy = workload->spec.scheduler;
  // Zero toolkit overheads: admitting one tenant's workload must not
  // charge the shared virtual clock that every other tenant rides.
  options.resources.init_overhead = 0.0;
  options.resources.allocate_overhead = 0.0;
  options.resources.deallocate_overhead = 0.0;
  options.resources.per_task_overhead = 0.0;

  auto session = runtime_->create_session(std::move(options));
  if (!session.ok()) {
    fail(session.status());
    return;
  }
  workload->session = session.take();
  const Status allocated = workload->session->allocate();
  if (!allocated.is_ok()) {
    fail(allocated);
    return;
  }
  auto pattern = core::build_pattern(workload->spec);
  if (!pattern.ok()) {
    fail(pattern.status());
    return;
  }
  workload->pattern = pattern.take();
  // Serve sessions start deferred: even the initial frontier stays in
  // the pending batch, so the fair-share pass — not submission order —
  // decides every dispatch.
  const Status started =
      workload->session->start_run(*workload->pattern, /*deferred=*/true);
  if (!started.is_ok()) {
    fail(started);
    return;
  }
  committed_cores_ += workload->spec.cores;
  active_.push_back(workload);
  workload->executor = workload->session->run_executor();
  if (workload->executor != nullptr) {
    Workload* raw = workload.get();
    workload->executor->set_event_hook([this, raw] { mark_changed(*raw); });
    // The start already pumped the initial frontier into the batch.
    mark_changed(*workload);
  }
  if (workload->session->run_finished()) reap_due_ = true;

  double queue_wait = 0.0;
  {
    MutexLock registry(registry_mutex_);
    workload->state = WorkloadState::kRunning;
    workload->start_wall = wall_.now();
    queue_wait = workload->start_wall - workload->submit_wall;
    Tenant& owner = tenant_locked(workload->tenant);
    if (owner.queued > 0) --owner.queued;
    ++owner.active_sessions;
    owner.peak_active_sessions =
        std::max(owner.peak_active_sessions, owner.active_sessions);
    join_slot(*workload, owner);
  }
  metrics()
      .histogram(obs::WellKnownHistogram::kServeQueueWaitSeconds)
      .observe(queue_wait);
  update_gauges();
}

void Service::drive_active() {
  obs::ScopedTraceClock trace_clock(backend_->clock());
  const auto wake = [this] {
    advance_and_flush();
    return reap_due_ || mailbox_dirty();
  };
  if (wake()) return;
  const Status driven = backend_->drive_until(wake);
  if (driven.is_ok()) return;
  // The shared world refused to advance (engine deadlock / timeout):
  // no session can settle, so fail every in-flight workload with the
  // drive verdict.
  for (const auto& workload : active_) {
    detach_executor(*workload);
    if (workload->session != nullptr && workload->session->run_active()) {
      (void)workload->session->finish_run(driven);
    }
    finish_workload(workload, WorkloadState::kFailed, driven, nullptr);
  }
  active_.clear();
}

void Service::mark_changed(Workload& workload) {
  if (workload.advance_due || workload.executor == nullptr) return;
  workload.advance_due = true;
  to_advance_.push_back(&workload);
}

void Service::set_backlogged(Workload& workload, bool backlogged) {
  if (workload.backlogged == backlogged) return;
  workload.backlogged = backlogged;
  if (backlogged) {
    ++backlogged_;
  } else {
    --backlogged_;
  }
}

void Service::detach_executor(Workload& workload) {
  if (workload.executor == nullptr) return;
  workload.executor->set_event_hook(nullptr);
  workload.executor->set_deferred(false);
  workload.executor = nullptr;
  if (workload.advance_due) {
    to_advance_.erase(
        std::find(to_advance_.begin(), to_advance_.end(), &workload));
    workload.advance_due = false;
  }
  set_backlogged(workload, false);
}

void Service::join_slot(Workload& workload, Tenant& tenant) {
  auto it = std::lower_bound(
      slots_.begin(), slots_.end(), workload.tenant,
      [](const std::unique_ptr<TenantSlot>& slot, const std::string& name) {
        return slot->name < name;
      });
  if (it == slots_.end() || (*it)->name != workload.tenant) {
    auto slot = std::make_unique<TenantSlot>();
    slot->name = workload.tenant;
    slot->tenant = &tenant;
    slot->dispatched = &metrics().counter(
        "serve.tenant." + workload.tenant + ".dispatched_units");
    it = slots_.insert(it, std::move(slot));
  }
  (*it)->running.push_back(&workload);
  workload.slot = it->get();
}

void Service::leave_slot(Workload& workload) {
  TenantSlot* slot = workload.slot;
  if (slot == nullptr) return;
  workload.slot = nullptr;
  slot->running.erase(
      std::find(slot->running.begin(), slot->running.end(), &workload));
  if (!slot->running.empty()) return;
  slots_.erase(std::find_if(slots_.begin(), slots_.end(),
                            [slot](const std::unique_ptr<TenantSlot>& held) {
                              return held.get() == slot;
                            }));
}

void Service::advance_and_flush() {
  WorkStealingPool* pool = core::parallel_pool();
  for (;;) {
    // Phase 1: advance the graphs that changed since their last
    // advance (no submissions yet); an unchanged graph's advance is a
    // no-op. The graphs share no state, so a pool fans them out; the
    // predicate runs between engine steps, so no settlement is
    // mid-flight.
    if (!to_advance_.empty()) {
      advancing_.swap(to_advance_);
      for (Workload* workload : advancing_) workload->advance_due = false;
      if (pool != nullptr && advancing_.size() > 1) {
        pool->parallel_for(advancing_.size(), [this](std::size_t i) {
          advancing_[i]->executor->advance_local();
        });
      } else {
        for (Workload* workload : advancing_) {
          workload->executor->advance_local();
        }
      }
      for (Workload* workload : advancing_) {
        set_backlogged(*workload,
                       workload->executor->pending_submits() > 0);
        if (workload->session->run_finished()) reap_due_ = true;
      }
      advancing_.clear();
    }
    if (backlogged_ == 0) return;

    // Phase 2: per-tenant backlog (admission order within a tenant)
    // and in-flight totals against the global dispatch budget.
    std::size_t inflight_total = 0;
    order_.clear();
    for (const auto& slot : slots_) {
      slot->inflight = 0;
      slot->ready.clear();
      for (Workload* workload : slot->running) {
        if (workload->session != nullptr) {
          slot->inflight += workload->session->unit_manager()->inflight_units();
        }
        if (workload->backlogged) slot->ready.push_back(workload);
      }
      inflight_total += slot->inflight;
      if (!slot->ready.empty()) order_.push_back(slot.get());
    }
    std::size_t global_headroom = inflight_budget_ > inflight_total
                                      ? inflight_budget_ - inflight_total
                                      : 0;
    if (global_headroom == 0) return;
    // Contended round: two or more tenants want the budget at once —
    // exactly when the dispatch order is a policy decision. The
    // fairness-dispersion bench metric counts only these rounds.
    const bool contended = order_.size() >= 2;

    // Service order: rotate which tenant gets first crack at the
    // global budget. Deficits even out credit across rounds; the
    // rotation evens out the tie-break when the budget runs dry
    // mid-round.
    std::rotate(order_.begin(),
                order_.begin() +
                    static_cast<std::ptrdiff_t>(drr_cursor_ % order_.size()),
                order_.end());
    ++drr_cursor_;

    // Phase 3: weighted deficit round-robin over the backlogged
    // tenants, each bounded by its own in-flight headroom and by
    // what's left of the global budget.
    std::size_t flushed_total = 0;
    {
      MutexLock registry(registry_mutex_);
      for (TenantSlot* slot : order_) {
        if (global_headroom == 0) break;
        Tenant& owner = *slot->tenant;
        const double credit = owner.config.weight *
                              static_cast<double>(quantum_);
        owner.deficit =
            std::min(owner.deficit + credit, credit * kDeficitCapRounds);
        const std::size_t headroom =
            owner.config.max_inflight_units > slot->inflight
                ? owner.config.max_inflight_units - slot->inflight
                : 0;
        std::size_t allowance = std::min(
            {static_cast<std::size_t>(owner.deficit), headroom,
             global_headroom});
        for (Workload* workload : slot->ready) {
          if (allowance == 0) break;
          const std::size_t flushed =
              workload->executor->flush_submit_bounded(allowance);
          if (flushed == 0) continue;
          // The flush may have unblocked or failed work: re-advance.
          mark_changed(*workload);
          allowance -= flushed;
          global_headroom -= flushed;
          slot->inflight += flushed;
          owner.deficit -= static_cast<double>(flushed);
          flushed_total += flushed;
          workload->dispatched_units += flushed;
          owner.dispatched_units += flushed;
          if (contended) owner.contended_dispatched_units += flushed;
          if (workload->first_dispatch_wall < 0.0) {
            workload->first_dispatch_wall = wall_.now();
            metrics()
                .histogram(
                    obs::WellKnownHistogram::kServeSubmitLatencySeconds)
                .observe(workload->first_dispatch_wall -
                         workload->submit_wall);
          }
          metrics()
              .counter(obs::WellKnownCounter::kServeDispatchedUnits)
              .add(flushed);
          slot->dispatched->add(flushed);
        }
        // A drained tenant keeps no credit: deficits meter contention,
        // not idleness.
        const bool drained = std::all_of(
            slot->ready.begin(), slot->ready.end(),
            [](const Workload* workload) {
              return workload->executor->pending_submits() == 0;
            });
        if (drained) owner.deficit = 0.0;
      }
    }
    // Nothing moved: every backlogged tenant is at its in-flight cap
    // (or out of credit). Let the engine settle units to open headroom.
    if (flushed_total == 0) return;
  }
}

void Service::reap_finished() {
  reap_due_ = false;
  for (auto it = active_.begin(); it != active_.end();) {
    const std::shared_ptr<Workload>& workload = *it;
    if (workload->session == nullptr ||
        !workload->session->run_finished()) {
      ++it;
      continue;
    }
    detach_executor(*workload);
    auto report = workload->session->finish_run(Status::ok());
    if (!report.ok()) {
      finish_workload(workload, WorkloadState::kFailed, report.status(),
                      nullptr);
    } else {
      const core::RunReport& run = report.value();
      const WorkloadState state =
          run.outcome.is_ok() ? WorkloadState::kDone
          : run.outcome.code() == Errc::kCancelled
              ? WorkloadState::kCancelled
              : WorkloadState::kFailed;
      finish_workload(workload, state, run.outcome, &run);
    }
    it = active_.erase(it);
  }
  update_gauges();
}

void Service::finish_workload(const std::shared_ptr<Workload>& workload,
                              WorkloadState state, Status outcome,
                              const core::RunReport* report) {
  detach_executor(*workload);
  leave_slot(*workload);
  if (workload->session != nullptr) {
    (void)workload->session->deallocate();
    workload->session.reset();
  }
  workload->pattern.reset();

  WorkloadState previous;
  {
    MutexLock registry(registry_mutex_);
    previous = workload->state;
    workload->state = state;
    workload->outcome = std::move(outcome);
    if (report != nullptr) {
      workload->units_done = report->units_done;
      workload->units_failed = report->units_failed;
      workload->units_cancelled = report->units_cancelled;
    }
    Tenant& owner = tenant_locked(workload->tenant);
    if (previous == WorkloadState::kQueued) {
      if (owner.queued > 0) --owner.queued;
    } else if (previous == WorkloadState::kRunning) {
      if (owner.active_sessions > 0) --owner.active_sessions;
    }
    switch (state) {
      case WorkloadState::kDone: ++owner.completed; break;
      case WorkloadState::kFailed: ++owner.failed; break;
      case WorkloadState::kCancelled: ++owner.cancelled; break;
      default: break;
    }
  }
  if (previous == WorkloadState::kRunning) {
    committed_cores_ -= workload->spec.cores;
    MutexLock lock(mailbox_mutex_);
    if (running_count_ > 0) --running_count_;
  }
  switch (state) {
    case WorkloadState::kDone:
      metrics().counter(obs::WellKnownCounter::kServeCompleted).add();
      break;
    case WorkloadState::kCancelled:
      metrics().counter(obs::WellKnownCounter::kServeCancelled).add();
      break;
    default:
      break;
  }
}

// --- protocol ---------------------------------------------------------

std::string Service::handle_line(std::string_view line) {
  auto parsed = parse_request(line);
  if (!parsed.ok()) {
    return error_reply("BAD_REQUEST", parsed.status().message());
  }
  const Request request = parsed.take();
  switch (request.verb) {
    case Verb::kSubmit: {
      auto spec = core::parse_workload(request.workload);
      if (!spec.ok()) {
        return error_reply("BAD_REQUEST",
                           "workload: " + spec.status().message());
      }
      auto id = submit(request.tenant, spec.take(), request.name);
      if (!id.ok()) {
        return error_reply(error_code_for(id.status()),
                           id.status().message());
      }
      Json body = Json::object();
      body.set("id", Json::number(static_cast<double>(id.value())));
      body.set("state",
               Json::string(workload_state_name(WorkloadState::kQueued)));
      return ok_reply(std::move(body));
    }
    case Verb::kStatus:
    case Verb::kResults: {
      auto snapshot = request.verb == Verb::kStatus
                          ? status(request.id)
                          : results(request.id);
      if (!snapshot.ok()) {
        return error_reply(error_code_for(snapshot.status()),
                           snapshot.status().message());
      }
      const WorkloadStatus& workload = snapshot.value();
      Json body = Json::object();
      body.set("id", Json::number(static_cast<double>(workload.id)));
      body.set("tenant", Json::string(workload.tenant));
      if (!workload.label.empty()) {
        body.set("name", Json::string(workload.label));
      }
      body.set("session", Json::string(workload.session));
      body.set("state",
               Json::string(workload_state_name(workload.state)));
      body.set("dispatched_units",
               Json::number(
                   static_cast<double>(workload.dispatched_units)));
      if (workload.submit_latency_seconds >= 0.0) {
        body.set("submit_latency_seconds",
                 Json::number(workload.submit_latency_seconds));
      }
      if (is_terminal(workload.state)) {
        body.set("units_done",
                 Json::number(static_cast<double>(workload.units_done)));
        body.set("units_failed",
                 Json::number(
                     static_cast<double>(workload.units_failed)));
        body.set("units_cancelled",
                 Json::number(
                     static_cast<double>(workload.units_cancelled)));
        body.set("outcome", Json::string(workload.outcome.to_string()));
      }
      return ok_reply(std::move(body));
    }
    case Verb::kCancel: {
      const Status cancelled = cancel(request.id);
      if (!cancelled.is_ok()) {
        return error_reply(error_code_for(cancelled),
                           cancelled.message());
      }
      Json body = Json::object();
      body.set("id", Json::number(static_cast<double>(request.id)));
      return ok_reply(std::move(body));
    }
    case Verb::kStats: {
      const ServiceStats service = stats();
      Json body = Json::object();
      body.set("machine", Json::string(service.machine));
      body.set("machine_cores",
               Json::number(static_cast<double>(service.machine_cores)));
      body.set("queue_depth",
               Json::number(static_cast<double>(service.queue_depth)));
      body.set("queue_capacity",
               Json::number(
                   static_cast<double>(service.queue_capacity)));
      body.set("active_sessions",
               Json::number(
                   static_cast<double>(service.active_sessions)));
      body.set("max_active_sessions",
               Json::number(
                   static_cast<double>(service.max_active_sessions)));
      body.set("submitted",
               Json::number(static_cast<double>(service.submitted)));
      body.set("accepted",
               Json::number(static_cast<double>(service.accepted)));
      body.set("rejected",
               Json::number(static_cast<double>(service.rejected)));
      body.set("completed",
               Json::number(static_cast<double>(service.completed)));
      body.set("failed",
               Json::number(static_cast<double>(service.failed)));
      body.set("cancelled",
               Json::number(static_cast<double>(service.cancelled)));
      Json tenants = Json::array();
      for (const TenantStats& tenant : service.tenants) {
        Json entry = Json::object();
        entry.set("name", Json::string(tenant.name));
        entry.set("weight", Json::number(tenant.weight));
        entry.set("submitted",
                  Json::number(static_cast<double>(tenant.submitted)));
        entry.set("accepted",
                  Json::number(static_cast<double>(tenant.accepted)));
        entry.set("rejected",
                  Json::number(static_cast<double>(tenant.rejected)));
        entry.set("completed",
                  Json::number(static_cast<double>(tenant.completed)));
        entry.set("failed",
                  Json::number(static_cast<double>(tenant.failed)));
        entry.set("cancelled",
                  Json::number(static_cast<double>(tenant.cancelled)));
        entry.set("dispatched_units",
                  Json::number(
                      static_cast<double>(tenant.dispatched_units)));
        entry.set("contended_dispatched_units",
                  Json::number(static_cast<double>(
                      tenant.contended_dispatched_units)));
        entry.set("active_sessions",
                  Json::number(
                      static_cast<double>(tenant.active_sessions)));
        entry.set("peak_active_sessions",
                  Json::number(
                      static_cast<double>(tenant.peak_active_sessions)));
        entry.set("queued",
                  Json::number(static_cast<double>(tenant.queued)));
        tenants.push_back(std::move(entry));
      }
      body.set("tenants", std::move(tenants));
      return ok_reply(std::move(body));
    }
    case Verb::kShutdown: {
      shutdown();
      Json body = Json::object();
      body.set("state", Json::string("SHUTTING_DOWN"));
      return ok_reply(std::move(body));
    }
  }
  return error_reply("INTERNAL", "unhandled verb");
}

}  // namespace entk::serve
