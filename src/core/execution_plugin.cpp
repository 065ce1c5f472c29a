#include "core/execution_plugin.hpp"

#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace entk::core {

ExecutionPlugin::ExecutionPlugin(const kernels::KernelRegistry& registry,
                                 pilot::UnitManager& unit_manager,
                                 pilot::ExecutionBackend& backend,
                                 Options options)
    : registry_(registry),
      unit_manager_(unit_manager),
      backend_(backend),
      options_(options) {
  ENTK_CHECK(options_.per_task_overhead >= 0.0,
             "per-task overhead must be >= 0");
}

ExecutionPlugin::ExecutionPlugin(const kernels::KernelRegistry& registry,
                                 pilot::UnitManager& unit_manager,
                                 pilot::ExecutionBackend& backend)
    : ExecutionPlugin(registry, unit_manager, backend, Options()) {}

Result<pilot::SharedUnitDescription> ExecutionPlugin::translate(
    const TaskSpec& spec) const {
  auto kernel = registry_.find(spec.kernel);
  if (!kernel.ok()) return kernel.status();
  auto bound = kernel.value()->bind(spec.args, backend_.machine());
  if (!bound.ok()) return bound.status();
  kernels::BoundKernel& resolved = bound.value();

  auto shared = std::make_shared<pilot::UnitDescription>();
  pilot::UnitDescription& description = *shared;
  description.name = std::move(resolved.kernel_name);
  description.executable = std::move(resolved.executable);
  description.arguments = std::move(resolved.arguments);
  description.environment = std::move(resolved.environment);
  description.session = unit_manager_.session();
  if (!resolved.pre_exec.empty()) {
    description.environment["ENTK_PRE_EXEC"] =
        join(resolved.pre_exec, " && ");
  }
  description.cores = resolved.cores;
  description.uses_mpi = resolved.uses_mpi;
  description.simulated_duration = resolved.estimated_duration;
  if (spec.cores > 0 && spec.cores != resolved.cores) {
    // The pattern overrides the core count: rescale the cost model
    // assuming the kernel's (linear) MPI scaling.
    description.simulated_duration = resolved.estimated_duration *
                                     static_cast<double>(resolved.cores) /
                                     static_cast<double>(spec.cores);
    description.cores = spec.cores;
    description.uses_mpi = spec.cores > 1;
  }
  description.payload = std::move(resolved.payload);
  description.input_staging = std::move(resolved.input_staging);
  description.output_staging = std::move(resolved.output_staging);
  description.simulated_fail = spec.inject_failure;
  description.simulated_hang = spec.inject_hang;
  description.retry = spec.retry;
  return pilot::SharedUnitDescription(std::move(shared));
}

Result<std::vector<pilot::ComputeUnitPtr>> ExecutionPlugin::submit(
    const std::vector<TaskSpec>& specs) {
  if (specs.empty()) {
    return make_error(Errc::kInvalidArgument, "no tasks to submit");
  }
  // A run of equal specs (a bag, one stage of an ensemble) binds its
  // kernel once: every unit of the run shares the description.
  std::vector<pilot::SharedUnitDescription> descriptions;
  descriptions.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i > 0 && specs[i] == specs[i - 1]) {
      descriptions.push_back(descriptions.back());
      continue;
    }
    auto description = translate(specs[i]);
    if (!description.ok()) return description.status();
    descriptions.push_back(description.take());
  }
  // Charge the toolkit's task creation + submission cost to the clock
  // and account it (the "pattern overhead" of the paper's Fig 3 —
  // strictly per-task, independent of what the task does).
  const Duration charge =
      options_.per_task_overhead * static_cast<double>(specs.size());
  backend_.advance(charge);
  // Counter (not a span): on the sim backend advance() is a no-op
  // while the engine dispatches, so only the charge value is reliable.
  ENTK_TRACE_COUNTER("overhead.pattern", "core", charge);
  auto units = unit_manager_.submit_units(descriptions);
  if (!units.ok()) return units.status();
  {
    MutexLock lock(mutex_);
    pattern_overhead_ += charge;
    all_units_.insert(all_units_.end(), units.value().begin(),
                      units.value().end());
  }
  return units;
}

void ExecutionPlugin::subscribe_settled(SettledFn fn) {
  // A worker thread can still call the observer after its removal: it
  // notifies from a snapshot of the observer list taken before. The
  // gate turns such late calls into no-ops and makes unsubscribing
  // wait for a call in progress, so the subscriber can be destroyed
  // right after.
  auto gate = std::make_shared<pilot::CallbackGate>();
  const std::size_t token = unit_manager_.add_settled_observer(
      [gate, fn = std::move(fn)](const pilot::ComputeUnitPtr& unit,
                                 pilot::UnitState state) {
        if (!gate->enter()) return;
        fn(unit, state);
        gate->exit();
      });
  MutexLock lock(mutex_);
  ENTK_CHECK(!settled_token_.has_value(),
             "execution plugin already has a settled subscription");
  settled_token_ = token;
  settled_gate_ = std::move(gate);
}

void ExecutionPlugin::unsubscribe_settled() {
  std::optional<std::size_t> token;
  std::shared_ptr<pilot::CallbackGate> gate;
  {
    MutexLock lock(mutex_);
    token.swap(settled_token_);
    gate.swap(settled_gate_);
  }
  if (token.has_value()) unit_manager_.remove_settled_observer(*token);
  if (gate != nullptr) gate->close();
}

Duration ExecutionPlugin::pattern_overhead() const {
  MutexLock lock(mutex_);
  return pattern_overhead_;
}

std::size_t ExecutionPlugin::tasks_submitted() const {
  MutexLock lock(mutex_);
  return all_units_.size();
}

std::vector<pilot::ComputeUnitPtr> ExecutionPlugin::all_units() const {
  MutexLock lock(mutex_);
  return all_units_;
}

void ExecutionPlugin::restore_state(
    Duration pattern_overhead, std::vector<pilot::ComputeUnitPtr> units) {
  MutexLock lock(mutex_);
  ENTK_CHECK(all_units_.empty(),
             "cannot restore into a plugin that already submitted units");
  pattern_overhead_ = pattern_overhead;
  all_units_ = std::move(units);
}

}  // namespace entk::core
