#include "ckpt/coordinator.hpp"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/log.hpp"
#include "common/uid.hpp"
#include "core/execution_plugin.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pilot/sim_agent.hpp"

namespace entk::ckpt {

namespace {

/// Message prefix of the deliberate checkpoint-stop status.
constexpr const char* kStopPrefix = "checkpoint:";

std::string snapshot_basename(std::uint64_t index) {
  std::ostringstream name;
  name << "ckpt-" << std::setw(6) << std::setfill('0') << index
       << ".entkckpt";
  return name.str();
}

}  // namespace

Coordinator::Coordinator(pilot::SimBackend& backend,
                         core::Session& session, Options options)
    : backend_(backend), session_(session), options_(std::move(options)) {
  ENTK_CHECK(!options_.directory.empty(),
             "checkpoint coordinator needs a directory");
  ENTK_CHECK(session_.unit_manager() != nullptr,
             "checkpoint coordinator needs an allocated session");
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  // A failure here surfaces as a diagnostic write error on capture.
  settled_token_ = session_.unit_manager()->add_settled_observer(
      [this](const pilot::ComputeUnitPtr&, pilot::UnitState) {
        ++settled_count_;
      });
  observer_registered_ = true;
  last_capture_time_ = backend_.engine().now();
  step_hook_token_ = backend_.add_step_hook([this] { return on_step(); });
}

Coordinator::Coordinator(pilot::SimBackend& backend,
                         core::ResourceHandle& handle, Options options)
    : Coordinator(backend, handle.session(), std::move(options)) {}

Coordinator::~Coordinator() {
  backend_.remove_step_hook(step_hook_token_);
  // The session may already have deallocated (which destroys the unit
  // manager and with it the observer list).
  if (observer_registered_ && session_.unit_manager() != nullptr) {
    session_.unit_manager()->remove_settled_observer(settled_token_);
  }
}

void Coordinator::set_identity(std::string pattern_name,
                               std::string workload_text) {
  pattern_name_ = std::move(pattern_name);
  workload_text_ = std::move(workload_text);
}

bool Coordinator::is_checkpoint_stop(const Status& status) {
  return status.code() == Errc::kCancelled &&
         status.message().rfind(kStopPrefix, 0) == 0;
}

// ----------------------------------------------------------- capture

bool Coordinator::capture_preconditions_met() const {
  const auto& pilots = session_.pilots();
  // A replacement pilot (restart_failed_pilots) breaks the allocate
  // replay the restore path depends on, so runs that used one are not
  // checkpointable from that point on.
  if (pilots.size() !=
      static_cast<std::size_t>(session_.options().n_pilots)) {
    return false;
  }
  for (const auto& held : pilots) {
    if (held->state() != pilot::PilotState::kActive) return false;
    auto* agent = dynamic_cast<pilot::SimAgent*>(held->agent());
    if (agent == nullptr || !agent->started()) return false;
  }
  return true;
}

Status Coordinator::on_step() {
  if (runner_ == nullptr) return Status::ok();  // no run in flight
  const bool stop = options_.stop_requested && options_.stop_requested();
  bool due = stop;
  const TimePoint now = backend_.engine().now();
  if (!due && options_.policy.every_settled > 0 &&
      settled_count_ - last_capture_settled_ >=
          options_.policy.every_settled) {
    due = true;
  }
  if (!due && options_.policy.every_interval > 0.0 &&
      now - last_capture_time_ >= options_.policy.every_interval) {
    due = true;
  }
  if (!due) return Status::ok();
  // Defer (do not fail) while a pilot is down: the next step after the
  // recovery completes takes the snapshot.
  if (!capture_preconditions_met()) return Status::ok();
  ENTK_RETURN_IF_ERROR(capture_and_write());
  if (stop) {
    return make_error(Errc::kCancelled,
                      std::string(kStopPrefix) +
                          " stop requested; snapshot written to " +
                          last_path_);
  }
  if (options_.crash_after_snapshots > 0 &&
      snapshots_written_ >= options_.crash_after_snapshots) {
    return make_error(Errc::kCancelled,
                      std::string(kStopPrefix) +
                          " simulated crash after snapshot " +
                          std::to_string(snapshots_written_));
  }
  return Status::ok();
}

Result<Snapshot> Coordinator::capture() {
  Snapshot snap;
  snap.machine = backend_.machine().name;
  const auto& options = session_.options();
  snap.cores = options.cores;
  snap.n_pilots = options.n_pilots;
  snap.runtime = options.runtime;
  snap.scheduler_policy = options.scheduler_policy;
  snap.pattern_name = pattern_name_;
  snap.session = session_.name();
  snap.workload_text = workload_text_;

  sim::Engine& engine = backend_.engine();
  snap.engine_now = engine.now();
  // Only the session's own uid families: restoring the snapshot while
  // other sessions keep running must not stomp their counters.
  snap.uid_counters = snapshot_uid_counters(snap.session);

  pilot::UnitManager* manager = session_.unit_manager();
  std::vector<pilot::ComputeUnitPtr> units = plugin_->all_units();
  std::vector<pilot::UnitManager::EntryFlags> flags;
  const std::size_t unmanaged = manager->unit_entries(units, flags);
  if (unmanaged != units.size()) {
    return make_error(Errc::kInternal,
                      "unit " + units[unmanaged]->uid() +
                          " is not managed; cannot checkpoint");
  }
  snap.units.reserve(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    const pilot::ComputeUnit& unit = *units[i];
    UnitRecord& record = snap.units.emplace_back();
    record.uid = unit.uid();
    record.state = unit.save_state();
    record.settled = flags[i].settled;
    record.notified = flags[i].notified;
    // Shares the unit's immutable description: nothing is copied.
    record.description = unit.shared_description();
  }
  snap.pattern_overhead = plugin_->pattern_overhead();
  snap.unit_manager = manager->save_state();
  for (const auto& [unit, token] : manager->pending_retries()) {
    // A stale token (timer already fired, unit settled meanwhile) is a
    // behavioral no-op in the uninterrupted run too — drop it.
    if (!engine.pending(token)) continue;
    snap.retries.push_back(
        {unit->uid(), engine.event_time(token), engine.event_seq(token)});
  }
  for (const auto& held : session_.pilots()) {
    auto* agent = dynamic_cast<pilot::SimAgent*>(held->agent());
    ENTK_CHECK(agent != nullptr, "capture preconditions not rechecked");
    snap.pilots.push_back({held->uid(), agent->save_state()});
  }
  if (sim::FaultModel* faults = backend_.faults()) {
    snap.has_faults = true;
    snap.faults = faults->save_state();
  }
  snap.graph = runner_->save_state();
  return snap;
}

Status Coordinator::capture_and_write() {
  ENTK_TRACE_SPAN("ckpt.capture", "ckpt");
  auto snap = capture();
  if (!snap.ok()) return snap.status();
  const std::string path =
      options_.directory + "/" + snapshot_basename(snapshots_written_ + 1);
  ENTK_RETURN_IF_ERROR(write_snapshot_file(path, snap.value()));
  ++snapshots_written_;
  last_path_ = path;
  last_capture_settled_ = settled_count_;
  last_capture_time_ = backend_.engine().now();
  obs::Metrics::instance()
      .counter(obs::WellKnownCounter::kCheckpointsWritten)
      .add();
  ENTK_DEBUG("ckpt") << "snapshot " << path << " at t="
                     << snap.value().engine_now << " ("
                     << settled_count_ << " units settled)";
  return Status::ok();
}

// ----------------------------------------------------------- restore

Status Coordinator::restore_runtime(const Snapshot& snap) {
  ENTK_TRACE_SPAN("ckpt.restore", "ckpt");
  const auto& options = session_.options();
  if (snap.machine != backend_.machine().name) {
    return make_error(Errc::kInvalidArgument,
                      "snapshot was taken on machine '" + snap.machine +
                          "', not '" + backend_.machine().name + "'");
  }
  if (snap.session != session_.name()) {
    return make_error(Errc::kInvalidArgument,
                      "snapshot holds session '" + snap.session +
                          "', not '" + session_.name() + "'");
  }
  if (snap.cores != options.cores || snap.n_pilots != options.n_pilots ||
      snap.scheduler_policy != options.scheduler_policy) {
    return make_error(Errc::kInvalidArgument,
                      "snapshot resources (cores=" +
                          std::to_string(snap.cores) + ", pilots=" +
                          std::to_string(snap.n_pilots) + ", scheduler=" +
                          snap.scheduler_policy +
                          ") do not match the handle");
  }
  if (!pattern_name_.empty() && !snap.pattern_name.empty() &&
      snap.pattern_name != pattern_name_) {
    return make_error(Errc::kInvalidArgument,
                      "snapshot holds pattern '" + snap.pattern_name +
                          "', not '" + pattern_name_ + "'");
  }
  if (!session_.allocated()) {
    return make_error(Errc::kFailedPrecondition,
                      "restore_runtime needs an allocated session");
  }
  const auto& pilots = session_.pilots();
  if (pilots.size() != snap.pilots.size()) {
    return make_error(Errc::kInvalidArgument,
                      "snapshot holds " +
                          std::to_string(snap.pilots.size()) +
                          " pilots, handle allocated " +
                          std::to_string(pilots.size()));
  }
  std::vector<pilot::SimAgent*> agents;
  agents.reserve(pilots.size());
  for (std::size_t i = 0; i < pilots.size(); ++i) {
    if (pilots[i]->uid() != snap.pilots[i].uid) {
      return make_error(
          Errc::kFailedPrecondition,
          "pilot uid replay diverged (" + pilots[i]->uid() + " vs " +
              snap.pilots[i].uid +
              "): reset the uid counters (reset_uid_counters_with_prefix "
              "for a named session) before allocate() when resuming "
              "in-process");
    }
    auto* agent = dynamic_cast<pilot::SimAgent*>(pilots[i]->agent());
    if (agent == nullptr || !agent->started()) {
      return make_error(Errc::kFailedPrecondition,
                        "pilot " + pilots[i]->uid() +
                            " has no started sim agent");
    }
    agents.push_back(agent);
  }
  sim::FaultModel* faults = backend_.faults();
  if (snap.has_faults != (faults != nullptr)) {
    return make_error(Errc::kInvalidArgument,
                      "snapshot and backend disagree about fault "
                      "injection");
  }
  if (faults != nullptr) {
    if (snap.faults.consumers.size() !=
        static_cast<std::size_t>(snap.n_pilots)) {
      return make_error(Errc::kInvalidArgument,
                        "snapshot fault model holds " +
                            std::to_string(snap.faults.consumers.size()) +
                            " consumers for " +
                            std::to_string(snap.n_pilots) + " pilots");
    }
    // Cancels the node-failure events the allocate replay armed; the
    // captured ones are reposted below. Must precede the clock jump.
    faults->restore_state(snap.faults);
  }
  sim::Engine& engine = backend_.engine();
  if (engine.next_event_time() < snap.engine_now) {
    return make_error(Errc::kFailedPrecondition,
                      "a replayed event predates the snapshot time (was "
                      "the snapshot taken past a pilot walltime?)");
  }
  engine.restore_now(snap.engine_now);
  restore_uid_counters(snap.session, snap.uid_counters);

  // Recreate every unit and re-register it with the unit manager.
  pilot::UnitManager* manager = session_.unit_manager();
  units_by_uid_.clear();
  std::vector<pilot::ComputeUnitPtr> ordered;
  ordered.reserve(snap.units.size());
  for (const auto& record : snap.units) {
    // Adopts the record's description: the unit shares it.
    pilot::ComputeUnitPtr unit =
        manager->restore_unit(record.uid, record.description, record.state,
                              record.settled, record.notified);
    units_by_uid_.emplace(record.uid, unit);
    ordered.push_back(std::move(unit));
  }
  const auto resolve =
      [this](const std::string& uid) -> pilot::ComputeUnitPtr {
    const auto it = units_by_uid_.find(uid);
    return it == units_by_uid_.end() ? nullptr : it->second;
  };
  manager->restore_state(snap.unit_manager, resolve);
  for (std::size_t i = 0; i < pilots.size(); ++i) {
    agents[i]->restore_state(snap.pilots[i].agent, resolve);
  }

  // Repost every captured pending event in the original global
  // dispatch order. The fresh engine assigns ascending seqs, so
  // sorting by the captured (time, seq) preserves the relative order
  // of simultaneous events — the last piece of bit-identical resume.
  struct Repost {
    TimePoint time;
    std::uint64_t seq;
    std::function<void()> fire;
  };
  std::vector<Repost> reposts;
  for (std::size_t i = 0; i < snap.pilots.size(); ++i) {
    for (const auto& event : snap.pilots[i].agent.events) {
      pilot::ComputeUnitPtr unit = resolve(event.uid);
      if (unit == nullptr) {
        return make_error(Errc::kIoError,
                          "snapshot event references unknown unit " +
                              event.uid);
      }
      reposts.push_back(
          {event.time, event.seq,
           [agent = agents[i], unit = std::move(unit),
            kind = event.kind, at = event.time] {
             agent->repost_event(unit, kind, at);
           }});
    }
  }
  for (const auto& retry : snap.retries) {
    pilot::ComputeUnitPtr unit = resolve(retry.uid);
    if (unit == nullptr) {
      return make_error(Errc::kIoError,
                        "snapshot retry references unknown unit " +
                            retry.uid);
    }
    reposts.push_back({retry.time, retry.seq,
                       [manager, unit = std::move(unit),
                        delay = retry.time - snap.engine_now] {
                         manager->repost_retry(unit, delay);
                       }});
  }
  if (faults != nullptr) {
    for (const auto& armed : snap.faults.armed) {
      if (armed.consumer >= snap.faults.consumers.size()) {
        return make_error(Errc::kIoError,
                          "snapshot fault event references consumer " +
                              std::to_string(armed.consumer));
      }
      reposts.push_back({armed.time, armed.seq,
                         [faults, consumer = armed.consumer,
                          at = armed.time] {
                           faults->repost_failure(consumer, at);
                         }});
    }
  }
  std::sort(reposts.begin(), reposts.end(),
            [](const Repost& a, const Repost& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.seq < b.seq;
            });
  for (const Repost& repost : reposts) repost.fire();

  pending_resume_ =
      PendingResume{snap.graph, snap.pattern_overhead, std::move(ordered)};
  settled_count_ = 0;
  last_capture_settled_ = 0;
  last_capture_time_ = snap.engine_now;
  obs::Metrics::instance()
      .counter(obs::WellKnownCounter::kCheckpointRestores)
      .add();
  ENTK_INFO("ckpt") << "restored " << snap.units.size() << " units at t="
                    << snap.engine_now << " (" << reposts.size()
                    << " pending events reposted)";
  return Status::ok();
}

Status Coordinator::prepare_run(core::TaskGraph& graph,
                                core::GraphExecutor& runner,
                                core::PatternExecutor& executor) {
  (void)graph;
  auto* plugin = dynamic_cast<core::ExecutionPlugin*>(&executor);
  if (plugin == nullptr) {
    return make_error(Errc::kInvalidArgument,
                      "checkpointing requires the standard execution "
                      "plugin");
  }
  runner_ = &runner;
  plugin_ = plugin;
  if (!pending_resume_.has_value()) return Status::ok();
  PendingResume resume = std::move(*pending_resume_);
  pending_resume_.reset();
  // Regrow the adaptive generations first, then inject the runtime
  // state over the fully replayed graph.
  ENTK_RETURN_IF_ERROR(runner.replay_expander_log(resume.graph.expander_log));
  runner.restore_state(resume.graph,
                       [this](const std::string& uid)
                           -> pilot::ComputeUnitPtr {
                         const auto it = units_by_uid_.find(uid);
                         return it == units_by_uid_.end() ? nullptr
                                                          : it->second;
                       });
  plugin->restore_state(resume.pattern_overhead, std::move(resume.units));
  return Status::ok();
}

void Coordinator::on_graph_run_end(core::GraphExecutor& runner,
                                   const Status& outcome) {
  (void)runner;
  (void)outcome;
  runner_ = nullptr;
  plugin_ = nullptr;
}

}  // namespace entk::ckpt
