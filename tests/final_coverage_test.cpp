// Final coverage sweep: cross-feature paths not covered elsewhere.
#include <gtest/gtest.h>

#include "core/entk.hpp"
#include "pilot/agent.hpp"
#include "pilot/pilot_manager.hpp"
#include "pilot/unit_manager.hpp"
#include "unit_test_util.hpp"

namespace entk {
namespace {

core::TaskSpec sleep_spec(double duration) {
  core::TaskSpec spec;
  spec.kernel = "misc.sleep";
  spec.args.set("duration", duration);
  return spec;
}

TEST(WorkloadEndToEnd, EnsembleExchangeViaFile) {
  auto spec = core::parse_workload(
      "backend = sim\nmachine = lsu.supermic\ncores = 32\n"
      "pattern = ee\nreplicas = 8\ncycles = 2\n"
      "[simulation]\nkernel = md.simulate\nsteps = 300\n"
      "n_particles = 2881\nout = traj_{instance}.dat\n"
      "energy_out = replica_{instance}.energy\n"
      "[exchange]\nkernel = md.exchange\nn_replicas = 8\n"
      "sweep = {iteration}\n");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  auto report = core::run_workload(spec.value(), registry);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  // 2 cycles x (8 sims + 1 exchange).
  EXPECT_EQ(report.value().units.size(), 18u);
}

TEST(PairwiseOddReplicas, UnpairedEdgeReplicasAdvanceAlone) {
  // 5 replicas, 2 cycles: in every cycle someone is unpaired and must
  // proceed without an exchange.
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 8;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  core::EnsembleExchange pattern(
      5, 2, core::EnsembleExchange::ExchangeMode::kPairwise);
  pattern.set_simulation(
      [](const core::StageContext&) { return sleep_spec(3.0); });
  pattern.set_pair_exchange(
      [](Count, Count, Count) { return sleep_spec(0.5); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  EXPECT_EQ(pattern.simulation_units().size(), 10u);
  // Cycle 1 (parity 0): pairs (0,1), (2,3), replica 4 unpaired -> 2
  // exchanges. Cycle 2 (parity 1): pairs (1,2), (3,4), replica 0
  // unpaired -> 2 exchanges.
  EXPECT_EQ(pattern.exchange_units().size(), 4u);
  for (const auto& unit : report.value().units) {
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone);
  }
}

TEST(UnitManagerBooks, InflightCountsSettleToZero) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  pilot::PilotManager pilot_manager(backend);
  pilot::PilotDescription description;
  description.resource = "localhost";
  description.cores = 4;
  auto pilot = pilot_manager.submit_pilot(description);
  ASSERT_TRUE(pilot.ok());
  ASSERT_TRUE(pilot_manager.wait_active(pilot.value()).is_ok());
  pilot::UnitManager units(backend);
  units.add_pilot(pilot.value());

  std::vector<pilot::UnitDescription> descriptions;
  for (int i = 0; i < 6; ++i) {
    pilot::UnitDescription unit;
    unit.name = "books";
    unit.executable = "x";
    unit.simulated_duration = 5.0;
    descriptions.push_back(std::move(unit));
  }
  auto submitted = submit_descriptions(units, std::move(descriptions));
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(units.total_units(), 6u);
  EXPECT_EQ(units.inflight_units(), 6u);
  ASSERT_TRUE(units.wait_units(submitted.value()).is_ok());
  EXPECT_EQ(units.inflight_units(), 0u);
  EXPECT_EQ(units.total_units(), 6u);
}

TEST(UtilizationInReport, SerialAnalysisDragsUtilizationDown) {
  // A SAL run whose serial analysis idles the pilot: utilization must
  // reflect it (this is what entk-run reports).
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 8;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());
  core::SimulationAnalysisLoop sal(1, 8, 1);
  sal.set_simulation(
      [](const core::StageContext&) { return sleep_spec(10.0); });
  sal.set_analysis(
      [](const core::StageContext&) { return sleep_spec(40.0); });
  auto report = handle.run(sal);
  ASSERT_TRUE(report.ok());
  const auto utilization =
      core::compute_utilization(report.value().units, options.cores);
  // 8x10 parallel + 1x40 serial over ~50 s window on 8 cores:
  // (80 + 40) / (8 * ~50) ~ 0.3.
  EXPECT_LT(utilization.average_utilization, 0.45);
  EXPECT_GT(utilization.average_utilization, 0.2);
  EXPECT_EQ(utilization.peak_concurrent_cores, 8);
}

TEST(AdaptiveLoopNested, SequenceInsideLoop) {
  // Higher-order composition composes: a sequence inside an adaptive
  // loop.
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  auto sequence = std::make_unique<core::SequencePattern>();
  sequence->append(std::make_unique<core::BagOfTasks>(
      2, [](const core::StageContext&) { return sleep_spec(1.0); }));
  sequence->append(std::make_unique<core::BagOfTasks>(
      1, [](const core::StageContext&) { return sleep_spec(1.0); }));
  core::AdaptiveLoop loop(std::move(sequence), 4,
                          [](Count round) { return round < 2; });
  auto report = handle.run(loop);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  EXPECT_EQ(loop.rounds_completed(), 2);
  EXPECT_EQ(report.value().units.size(), 6u);  // 2 rounds x 3 tasks
}

TEST(MultiPilotHandle, SplitsCoresAndRunsAcrossPilots) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 10;
  options.n_pilots = 3;  // 4 + 3 + 3 cores
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());
  ASSERT_EQ(handle.pilots().size(), 3u);
  Count total = 0;
  for (const auto& held : handle.pilots()) {
    EXPECT_EQ(held->state(), pilot::PilotState::kActive);
    total += held->description().cores;
  }
  EXPECT_EQ(total, 10);
  EXPECT_EQ(handle.pilots()[0]->description().cores, 4);

  core::BagOfTasks pattern(
      20, [](const core::StageContext&) { return sleep_spec(5.0); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  for (const auto& unit : report.value().units) {
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone);
  }
  // Work spread over all three agents.
  for (const auto& held : handle.pilots()) {
    EXPECT_GT(held->agent()->total_spawn_overhead(), 0.0);
  }
  ASSERT_TRUE(handle.deallocate().is_ok());
  // All pilots retired.
  for (const auto& held : handle.pilots()) (void)held;  // cleared
  EXPECT_TRUE(handle.pilots().empty());
}

TEST(MultiPilotHandle, ValidatesPilotCount) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 2;
  options.n_pilots = 4;  // more pilots than cores
  EXPECT_THROW(core::ResourceHandle(backend, registry, options),
               std::logic_error);
}

}  // namespace
}  // namespace entk
