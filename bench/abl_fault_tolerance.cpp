// Ablation (ours): ensemble completion under injected machine faults.
//
// The paper argues the pilot abstraction exists so ensembles survive
// machine faults; this ablation quantifies that. A fixed bag of tasks
// runs on the simulated machine while the FaultModel injects transient
// launch failures and whole-node failures, and we report how many
// units completed, how many attempts were retried, and what the
// failures cost in time-to-completion — with and without retry budget.
// A final scenario kills the pilot itself (walltime expiry) and lets
// the ResourceHandle submit a replacement mid-workload.
#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/entk.hpp"
#include "pilot/pilot_manager.hpp"
#include "pilot/unit_manager.hpp"

namespace {

using namespace entk;

struct FaultRunResult {
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t retries = 0;
  Count lost_cores = 0;
  double ttc = 0.0;
};

/// Runs 64 x 30 s single-core tasks on a 32-core pilot under the given
/// fault spec; every task carries `max_retries` budget with 5 s
/// exponential backoff.
FaultRunResult run_bag(const sim::FaultSpec& fault, Count max_retries) {
  auto machine = sim::localhost_profile();
  machine.fault = fault;
  pilot::SimBackend backend(machine);

  pilot::PilotManager pilot_manager(backend);
  pilot::PilotDescription pilot_description;
  pilot_description.resource = machine.name;
  pilot_description.cores = 32;
  pilot_description.runtime = 1e6;
  auto pilot = pilot_manager.submit_pilot(pilot_description);
  ENTK_CHECK(pilot.ok(), "pilot submit failed");
  ENTK_CHECK(pilot_manager.wait_active(pilot.value()).is_ok(),
             "pilot never became active");

  pilot::UnitManager manager(backend);
  manager.add_pilot(pilot.value());
  pilot::UnitDescription unit_description;
  unit_description.name = "abl.ft";
  unit_description.executable = "/bin/true";
  unit_description.simulated_duration = 30.0;
  unit_description.retry.max_retries = max_retries;
  unit_description.retry.backoff_base = 5.0;
  const std::vector<pilot::SharedUnitDescription> descriptions(
      64, std::make_shared<const pilot::UnitDescription>(unit_description));
  const double start = backend.clock().now();
  auto units = manager.submit_units(descriptions);
  ENTK_CHECK(units.ok(), "unit submit failed");
  ENTK_CHECK(manager.wait_units(units.value()).is_ok(),
             "wait_units failed");

  FaultRunResult result;
  result.ttc = backend.clock().now() - start;
  result.retries = manager.total_retries();
  result.lost_cores = 32 - pilot.value()->agent()->total_cores();
  for (const auto& unit : units.value()) {
    if (unit->state() == pilot::UnitState::kDone) ++result.done;
    if (unit->state() == pilot::UnitState::kFailed) ++result.failed;
  }
  return result;
}

std::string counts(const FaultRunResult& r) {
  return std::to_string(r.done) + " / " + std::to_string(r.failed);
}

}  // namespace

int main() {
  std::cout << "=== Ablation: fault-tolerant ensemble execution "
               "(64 x 30 s tasks, 32-core simulated pilot) ===\n\n";

  // --- Transient launch failures, with and without retry budget.
  Table launches({"launch fail rate", "retry budget", "done / failed",
                  "retries", "TTC [s]"});
  for (const double rate : {0.0, 0.05, 0.2}) {
    for (const Count budget : {0, 5}) {
      sim::FaultSpec fault;
      fault.seed = 0xab1;
      fault.launch_failure_rate = rate;
      const auto result = run_bag(fault, budget);
      launches.add_row({format_double(rate, 2), std::to_string(budget),
                        counts(result), std::to_string(result.retries),
                        format_double(result.ttc, 1)});
    }
  }
  std::cout << "transient launch failures:\n"
            << launches.to_string() << '\n';

  // --- Node failures: the pilot shrinks, killed units are retried.
  Table nodes({"node MTBF [s]", "nodes lost", "done / failed", "retries",
               "TTC [s]"});
  for (const double mtbf : {0.0, 2000.0, 500.0}) {
    sim::FaultSpec fault;
    fault.seed = 0xab2;
    fault.node_mtbf = mtbf;
    fault.max_node_failures = 2;  // keep half the machine alive
    const auto result = run_bag(fault, 5);
    nodes.add_row(
        {format_double(mtbf, 0),
         std::to_string(result.lost_cores / 8),  // localhost: 8/node
         counts(result), std::to_string(result.retries),
         format_double(result.ttc, 1)});
  }
  std::cout << "node failures (retry budget 5, backoff 5 s):\n"
            << nodes.to_string() << '\n';

  // --- Pilot death mid-workload: replacement pilot via ResourceHandle.
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 8;
  options.runtime = 100.0;  // expires after the third 30 s wave
  options.restart_failed_pilots = true;
  options.max_pilot_restarts = 4;
  core::ResourceHandle handle(backend, registry, options);
  ENTK_CHECK(handle.allocate().is_ok(), "allocate failed");
  core::BagOfTasks bag(64, [](const core::StageContext&) {
    core::TaskSpec spec;
    spec.kernel = "misc.sleep";
    spec.args.set("duration", 30.0);
    return spec;
  });
  auto report = handle.run(bag);
  ENTK_CHECK(report.ok(), "run failed");
  std::cout << "pilot walltime expiry with restart_failed_pilots "
               "(8 cores, 100 s walltime, 64 x 30 s tasks):\n"
            << "  outcome:         "
            << (report.value().outcome.is_ok() ? "ok"
                                               : report.value()
                                                     .outcome.to_string())
            << "\n  units done:      " << report.value().units_done
            << "\n  units failed:    " << report.value().units_failed
            << "\n  recovered units: " << report.value().recovered_units
            << "\n  pilots used:     " << handle.pilots().size()
            << "\n\nexpected: without retry budget every launch failure "
               "permanently kills a unit; with budget the same ensemble "
               "completes and the failures only cost backoff time. Node "
               "failures shrink the pilot (longer TTC) but the ensemble "
               "still finishes, and a dead pilot is replaced "
               "transparently — the unit manager's late binding rebinds "
               "the stranded units to the new pilot.\n";
  return 0;
}
