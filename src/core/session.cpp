#include "core/session.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "core/graph_executor.hpp"
#include "obs/trace.hpp"

namespace entk::core {

// ---------------------------------------------------------------- Session

Session::Session(Runtime& runtime, SessionOptions options)
    : runtime_(runtime),
      name_(std::move(options.name)),
      trace_ordinal_(obs::session_ordinal(name_)),
      options_(std::move(options.resources)) {
  ENTK_CHECK(options_.cores >= 1, "session needs >= 1 core");
  ENTK_CHECK(options_.n_pilots >= 1, "session needs >= 1 pilot");
  ENTK_CHECK(options_.cores >= options_.n_pilots,
             "need at least one core per pilot");
}

Session::~Session() {
  // Teardown order matters: first stop the graph run (detach its
  // settled subscription), then drain the unit manager (cancel and
  // settle everything still in flight), and only then let the manager
  // die (its gate close detaches the remaining pilot/timer callbacks).
  // Destroying with units in flight used to race agent callbacks
  // against member destruction.
  if (unit_manager_ == nullptr) return;
  obs::ScopedTraceClock trace_clock(backend().clock());
  if (active_run_ != nullptr) {
    (void)finish_run(make_error(Errc::kCancelled,
                                "session destroyed with a run in flight"));
  }
  (void)unit_manager_->drain();
  unit_manager_.reset();
}

pilot::ExecutionBackend& Session::backend() const {
  return runtime_.backend();
}

bool Session::allocated() const {
  return !pilots_.empty() &&
         std::all_of(pilots_.begin(), pilots_.end(),
                     [](const pilot::PilotPtr& held) {
                       return held->state() == pilot::PilotState::kActive;
                     });
}

const pilot::PilotPtr& Session::pilot() const {
  ENTK_CHECK(!pilots_.empty(), "session holds no pilot");
  return pilots_.front();
}

Status Session::allocate() {
  if (!pilots_.empty() &&
      std::any_of(pilots_.begin(), pilots_.end(),
                  [](const pilot::PilotPtr& held) {
                    return !pilot::is_final(held->state());
                  })) {
    return make_error(Errc::kFailedPrecondition,
                      "session already holds pilots");
  }
  pilots_.clear();
  obs::ScopedTraceClock trace_clock(backend().clock());
  ENTK_TRACE_SPAN_S("resource.allocate", "core", 0, 0, trace_ordinal_);
  // Toolkit init + request handling (modelled core overhead).
  backend().advance(options_.init_overhead + options_.allocate_overhead);
  ENTK_TRACE_COUNTER_S(
      "overhead.core", "core",
      options_.init_overhead + options_.allocate_overhead, trace_ordinal_);

  unit_manager_ = std::make_unique<pilot::UnitManager>(backend(), name_);
  // Split the total cores over the pilots; the first pilots take the
  // remainder.
  const Count base = options_.cores / options_.n_pilots;
  Count remainder = options_.cores % options_.n_pilots;
  for (Count p = 0; p < options_.n_pilots; ++p) {
    pilot::PilotDescription description;
    description.resource = backend().machine().name;
    description.cores = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    description.runtime = options_.runtime;
    description.queue = options_.queue;
    description.project = options_.project;
    description.session = name_;
    auto submitted = runtime_.pilot_manager().submit_pilot(
        description, options_.scheduler_policy);
    if (!submitted.ok()) return submitted.status();
    unit_manager_->add_pilot(submitted.value());
    if (options_.restart_failed_pilots) {
      watch_for_restart(submitted.value());
    }
    pilots_.push_back(submitted.take());
  }
  restarts_used_ = 0;
  for (const auto& held : pilots_) {
    ENTK_RETURN_IF_ERROR(runtime_.pilot_manager().wait_active(held));
  }
  ENTK_INFO("core.session")
      << (name_.empty() ? std::string("<unnamed>") : name_) << ": "
      << pilots_.size() << " pilot(s) active on " << backend().name();
  return Status::ok();
}

void Session::watch_for_restart(const pilot::PilotPtr& held) {
  // The pilot outlives this session (it is shared with the Runtime's
  // PilotManager), so the hook must not keep the session alive nor
  // touch it after destruction.
  std::weak_ptr<Session> weak = weak_from_this();
  held->on_state_change([weak](pilot::Pilot& failed,
                               pilot::PilotState state) {
    if (state != pilot::PilotState::kFailed) return;
    const std::shared_ptr<Session> self = weak.lock();
    if (self == nullptr) return;
    if (self->restarts_used_ >= self->options_.max_pilot_restarts) {
      ENTK_WARN("core.session")
          << failed.uid() << " failed with the restart budget spent";
      return;
    }
    ++self->restarts_used_;
    // The unit manager's own kFailed hook ran first (registration
    // order), so the stranded units are already back in its queue and
    // rebind to the replacement the moment it becomes active.
    auto replacement = self->runtime_.pilot_manager().resubmit_like(
        failed, self->options_.scheduler_policy);
    if (!replacement.ok()) {
      ENTK_WARN("core.session") << "replacement for " << failed.uid()
                                << " failed: "
                                << replacement.status().to_string();
      return;
    }
    self->unit_manager_->add_pilot(replacement.value());
    self->watch_for_restart(replacement.value());
    self->pilots_.push_back(replacement.take());
  });
}

Status Session::start_run(ExecutionPattern& pattern, bool deferred) {
  if (!allocated()) {
    return make_error(Errc::kFailedPrecondition,
                      "session is not allocated");
  }
  if (active_run_ != nullptr) {
    return make_error(Errc::kFailedPrecondition,
                      "session already has a run in flight");
  }
  auto run = std::make_unique<ActiveRun>();
  run->pattern = &pattern;
  ExecutionPlugin::Options plugin_options;
  plugin_options.per_task_overhead = options_.per_task_overhead;
  run->plugin = std::make_unique<ExecutionPlugin>(
      runtime_.registry(), *unit_manager_, backend(), plugin_options);

  obs::ScopedTraceClock trace_clock(backend().clock());
  run->started = backend().clock().now();
  ENTK_TRACE_SPAN_BEGIN_S("run", "core", 0, 0, trace_ordinal_);
  const Status started = pattern.start_execute(run->graph_run,
                                               *run->plugin, deferred);
  if (!started.is_ok()) {
    // Same contract as the blocking run(): pattern-level refusals are
    // the run's *outcome*, not a session error.
    run->start_failed = true;
    run->start_error = started;
  }
  active_run_ = std::move(run);
  return Status::ok();
}

bool Session::run_finished() const {
  if (active_run_ == nullptr) return false;
  return active_run_->start_failed || active_run_->graph_run.finished();
}

GraphExecutor* Session::run_executor() {
  if (active_run_ == nullptr || active_run_->start_failed) return nullptr;
  return active_run_->graph_run.executor();
}

Status Session::cancel_run() {
  if (active_run_ == nullptr) {
    return make_error(Errc::kFailedPrecondition,
                      "session has no run in flight");
  }
  if (active_run_->start_failed) return Status::ok();  // born finished
  GraphExecutor* executor = active_run_->graph_run.executor();
  if (executor == nullptr || executor->finished()) return Status::ok();
  obs::ScopedTraceClock trace_clock(backend().clock());
  ENTK_TRACE_INSTANT("run.cancel", "core");
  const auto inflight = executor->cancel(make_error(
      Errc::kCancelled,
      "session \"" + (name_.empty() ? std::string("<unnamed>") : name_) +
          "\": run cancelled"));
  for (const auto& unit : inflight) {
    (void)unit_manager_->cancel_unit(unit);
  }
  return Status::ok();
}

Result<RunReport> Session::finish_run(Status driven) {
  if (active_run_ == nullptr) {
    return make_error(Errc::kFailedPrecondition,
                      "session has no run in flight");
  }
  const std::unique_ptr<ActiveRun> run = std::move(active_run_);
  obs::ScopedTraceClock trace_clock(backend().clock());
  Status outcome;
  if (run->start_failed) {
    outcome = run->start_error;
  } else {
    outcome = run->pattern->finish_execute(run->graph_run,
                                           std::move(driven));
  }
  const TimePoint finished = backend().clock().now();
  ENTK_TRACE_SPAN_END_S("run", "core", 0, 0, trace_ordinal_);

  RunReport report;
  report.outcome = outcome;
  report.session = name_;
  report.units = run->plugin->all_units();
  report.run_span = finished - run->started;
  report.overheads = build_overhead_profile(
      report.units, pilot(), report.run_span, core_overhead(),
      run->plugin->pattern_overhead());
  // With several pilots the startup that gates the run is the slowest.
  for (const auto& held : pilots_) {
    report.overheads.pilot_startup =
        std::max(report.overheads.pilot_startup, held->startup_time());
    ENTK_TRACE_COUNTER_S("pilot.startup", "core", held->startup_time(),
                         trace_ordinal_);
  }
  for (const auto& unit : report.units) {
    switch (unit->state()) {
      case pilot::UnitState::kDone:
        ++report.units_done;
        break;
      case pilot::UnitState::kFailed:
        ++report.units_failed;
        break;
      case pilot::UnitState::kCanceled:
        ++report.units_cancelled;
        break;
      default:
        break;
    }
  }
  report.total_retries = unit_manager_->total_retries();
  report.recovered_units = unit_manager_->recovered_units();
  return report;
}

Result<RunReport> Session::run(ExecutionPattern& pattern) {
  obs::ScopedTraceClock trace_clock(backend().clock());
  ENTK_RETURN_IF_ERROR(start_run(pattern));
  Status driven = Status::ok();
  if (!run_finished()) {
    driven = backend().drive_until([this] { return run_finished(); });
  }
  return finish_run(std::move(driven));
}

Status Session::deallocate() {
  if (pilots_.empty()) {
    return make_error(Errc::kFailedPrecondition,
                      "session holds no pilot");
  }
  obs::ScopedTraceClock trace_clock(backend().clock());
  ENTK_TRACE_SPAN_S("resource.deallocate", "core", 0, 0, trace_ordinal_);
  backend().advance(options_.deallocate_overhead);
  ENTK_TRACE_COUNTER_S("overhead.core", "core",
                       options_.deallocate_overhead, trace_ordinal_);
  Status first_error;
  for (const auto& held : pilots_) {
    if (held->state() != pilot::PilotState::kActive) continue;
    const Status status = runtime_.pilot_manager().deallocate(held);
    if (!status.is_ok() && first_error.is_ok()) first_error = status;
  }
  pilots_.clear();
  // The gate close inside the manager's destructor detaches every
  // callback still registered on (now dead) pilots and timers before
  // the members go away.
  unit_manager_.reset();
  return first_error;
}

// ---------------------------------------------------------------- Runtime

Runtime::Runtime(pilot::ExecutionBackend& backend,
                 const kernels::KernelRegistry& registry)
    : backend_(backend), registry_(registry), pilot_manager_(backend) {}

Result<std::shared_ptr<Session>> Runtime::create_session(
    SessionOptions options) {
  MutexLock lock(mutex_);
  // Prune dead registrations while checking name uniqueness.
  std::vector<std::weak_ptr<Session>> live;
  live.reserve(sessions_.size());
  for (const auto& weak : sessions_) {
    const std::shared_ptr<Session> session = weak.lock();
    if (session == nullptr) continue;
    if (!options.name.empty() && session->name() == options.name) {
      return make_error(Errc::kFailedPrecondition,
                        "session \"" + options.name +
                            "\" already exists in this runtime");
    }
    live.push_back(weak);
  }
  sessions_ = std::move(live);
  const std::shared_ptr<Session> session(
      new Session(*this, std::move(options)));
  sessions_.push_back(session);
  return session;
}

std::shared_ptr<Session> Runtime::find_session(
    const std::string& name) const {
  MutexLock lock(mutex_);
  for (const auto& weak : sessions_) {
    std::shared_ptr<Session> session = weak.lock();
    if (session != nullptr && session->name() == name) return session;
  }
  return nullptr;
}

std::vector<std::shared_ptr<Session>> Runtime::sessions() const {
  MutexLock lock(mutex_);
  std::vector<std::shared_ptr<Session>> live;
  live.reserve(sessions_.size());
  for (const auto& weak : sessions_) {
    std::shared_ptr<Session> session = weak.lock();
    if (session != nullptr) live.push_back(std::move(session));
  }
  return live;
}

Result<std::vector<RunReport>> Runtime::run_concurrent(
    const std::vector<SessionRun>& runs, Duration timeout) {
  // Validate the whole batch before starting anything, so a refused
  // entry never strands the others mid-flight.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SessionRun& entry = runs[i];
    if (entry.session == nullptr || entry.pattern == nullptr) {
      return make_error(Errc::kInvalidArgument,
                        "run_concurrent entry " + std::to_string(i) +
                            " is missing a session or pattern");
    }
    if (!entry.session->allocated()) {
      return make_error(Errc::kFailedPrecondition,
                        "session \"" + entry.session->name() +
                            "\" is not allocated");
    }
    if (entry.session->run_active()) {
      return make_error(Errc::kFailedPrecondition,
                        "session \"" + entry.session->name() +
                            "\" already has a run in flight");
    }
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      if (runs[j].session == entry.session) {
        return make_error(Errc::kInvalidArgument,
                          "session \"" + entry.session->name() +
                              "\" appears twice in run_concurrent");
      }
    }
  }

  // Every run pumps itself (immediate mode): each settlement advances
  // and flushes its own graph inside the settle cascade, exactly as in
  // a solo run, so each session's schedule is bit-identical to its
  // solo schedule.
  obs::ScopedTraceClock trace_clock(backend_.clock());
  std::size_t started = 0;
  Status start_error;
  for (const SessionRun& entry : runs) {
    start_error = entry.session->start_run(*entry.pattern);
    if (!start_error.is_ok()) break;
    ++started;
  }

  // The one wait: a single drive interleaves every session's events
  // on the shared backend. (A failed start — which the validation
  // above should make unreachable — still settles the runs already
  // started before it is reported.)
  const auto all_finished = [&runs, started] {
    return std::all_of(runs.begin(),
                       runs.begin() + static_cast<std::ptrdiff_t>(started),
                       [](const SessionRun& entry) {
                         return entry.session->run_finished();
                       });
  };
  Status driven = Status::ok();
  if (!all_finished()) {
    driven = backend_.drive_until(all_finished, timeout);
  }

  std::vector<RunReport> reports;
  reports.reserve(started);
  for (std::size_t i = 0; i < started; ++i) {
    auto report = runs[i].session->finish_run(driven);
    if (!report.ok()) return report.status();
    reports.push_back(report.take());
  }
  if (!start_error.is_ok()) return start_error;
  if (!driven.is_ok()) return driven;
  return reports;
}

}  // namespace entk::core
