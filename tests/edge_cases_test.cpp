// Edge-case and regression tests across the stack.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/entk.hpp"
#include "pilot/local_backend.hpp"
#include "pilot/pilot_manager.hpp"
#include "pilot/unit_manager.hpp"
#include "sim/engine.hpp"
#include "unit_test_util.hpp"

namespace entk {
namespace {

core::TaskSpec sleep_spec(double duration) {
  core::TaskSpec spec;
  spec.kernel = "misc.sleep";
  spec.args.set("duration", duration);
  return spec;
}

// ---------------------------------------------------------------- engine

TEST(EngineEdge, CancelFromInsideACallback) {
  sim::Engine engine;
  bool second_fired = false;
  sim::EventId second = 0;
  engine.schedule(1.0, [&] { EXPECT_TRUE(engine.cancel(second)); });
  second = engine.schedule(2.0, [&] { second_fired = true; });
  engine.run();
  EXPECT_FALSE(second_fired);
}

TEST(EngineEdge, SameTimeEventsScheduledFromCallbackRunAfter) {
  sim::Engine engine;
  std::vector<int> order;
  engine.schedule(1.0, [&] {
    order.push_back(1);
    engine.schedule(0.0, [&] { order.push_back(3); });
  });
  engine.schedule(1.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineEdge, DispatchingFlagVisibleInsideCallbacks) {
  sim::Engine engine;
  bool observed = false;
  engine.schedule(1.0, [&] { observed = engine.dispatching(); });
  EXPECT_FALSE(engine.dispatching());
  engine.run();
  EXPECT_TRUE(observed);
  EXPECT_FALSE(engine.dispatching());
}

// --------------------------------------------------------- local payloads

TEST(LocalPayloadEdge, ThrowingPayloadFailsUnitNotProcess) {
  pilot::LocalBackend backend(2);
  pilot::PilotManager pilot_manager(backend);
  pilot::PilotDescription description;
  description.resource = "localhost";
  description.cores = 2;
  auto pilot = pilot_manager.submit_pilot(description);
  ASSERT_TRUE(pilot.ok());
  ASSERT_TRUE(pilot_manager.wait_active(pilot.value()).is_ok());

  pilot::UnitManager units(backend);
  units.add_pilot(pilot.value());
  pilot::UnitDescription unit;
  unit.name = "thrower";
  unit.executable = "x";
  unit.payload = [](const pilot::UnitRuntimeContext&) -> Status {
    throw std::runtime_error("kaboom");
  };
  auto submitted = submit_descriptions(units, {std::move(unit)});
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(units.wait_units(submitted.value(), 30.0).is_ok());
  EXPECT_EQ(submitted.value()[0]->state(), pilot::UnitState::kFailed);
  EXPECT_NE(submitted.value()[0]->final_status().message().find("kaboom"),
            std::string::npos);
}

// ------------------------------------------------------------ EE async DAG

TEST(AsyncExchangeEdge, FastPairReachesCycleTwoBeforeSlowPairFinishes) {
  // 4 replicas, 2 cycles, pairwise: replicas 0/1 are fast, 2/3 slow.
  // With no barrier, the (0,1) pair's cycle-2 simulations must start
  // before replica 3's cycle-1 simulation ends.
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 8;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  core::EnsembleExchange pattern(
      4, 2, core::EnsembleExchange::ExchangeMode::kPairwise);
  pattern.set_simulation([](const core::StageContext& context) {
    return sleep_spec(context.instance < 2 ? 5.0 : 200.0);
  });
  pattern.set_pair_exchange(
      [](Count, Count, Count) { return sleep_spec(1.0); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  // 8 sims + exchanges. Cycle-1 pairs (parity 0): (0,1), (2,3);
  // cycle-2 pairs (parity 1): (1,2) — replicas 0 and 3 are unpaired.
  ASSERT_EQ(pattern.simulation_units().size(), 8u);
  // Replica 0 is unpaired in cycle 2 (parity 1), so after the fast
  // (0,1) exchange at t ~ 6 its cycle-2 simulation runs immediately:
  // at least three simulations must have *finished* long before the
  // slow replicas' cycle-1 simulations end at t ~ 200. Under a global
  // barrier no cycle-2 simulation could finish before t ~ 200.
  std::size_t finished_early = 0;
  for (const auto& unit : pattern.simulation_units()) {
    if (unit->exec_stopped_at() < 150.0) ++finished_early;
  }
  EXPECT_GE(finished_early, 3u);
  for (const auto& unit : report.value().units) {
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone);
  }
}

TEST(AsyncExchangeEdge, SimFailureReleasesThePartner) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  core::EnsembleExchange pattern(
      4, 2, core::EnsembleExchange::ExchangeMode::kPairwise);
  pattern.set_simulation([](const core::StageContext& context) {
    auto spec = sleep_spec(2.0);
    // Replica 1 fails in cycle 1: its partner 0 must not deadlock.
    spec.inject_failure = context.instance == 1 && context.iteration == 1;
    return spec;
  });
  pattern.set_pair_exchange(
      [](Count, Count, Count) { return sleep_spec(0.5); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().outcome.is_ok());  // failure is surfaced
  // The run completed (no deadlock); replicas 2/3 went on.
  EXPECT_GE(pattern.simulation_units().size(), 4u);
}

// --------------------------------------------------------------- sequence

TEST(SequenceEdge, AbortsAtFirstFailingChild) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  auto failing = std::make_unique<core::BagOfTasks>(
      1, [](const core::StageContext&) {
        auto spec = sleep_spec(1.0);
        spec.inject_failure = true;
        return spec;
      });
  auto never_runs = std::make_unique<core::BagOfTasks>(
      1, [](const core::StageContext&) { return sleep_spec(1.0); });
  auto* never_raw = never_runs.get();
  core::SequencePattern sequence;
  sequence.append(std::move(failing));
  sequence.append(std::move(never_runs));
  auto report = handle.run(sequence);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().outcome.is_ok());
  EXPECT_TRUE(never_raw->units().empty());  // second child never started
}

// ---------------------------------------------------------- resource handle

TEST(ResourceHandleEdge, ReallocateAfterDeallocate) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend, registry, options);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(handle.allocate().is_ok()) << "round " << round;
    core::BagOfTasks pattern(
        2, [](const core::StageContext&) { return sleep_spec(1.0); });
    auto report = handle.run(pattern);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().outcome.is_ok());
    ASSERT_TRUE(handle.deallocate().is_ok());
  }
  // Double allocate is rejected while a pilot is held.
  ASSERT_TRUE(handle.allocate().is_ok());
  EXPECT_EQ(handle.allocate().code(), Errc::kFailedPrecondition);
  ASSERT_TRUE(handle.deallocate().is_ok());
  // Deallocate with no pilot is rejected.
  EXPECT_EQ(handle.deallocate().code(), Errc::kFailedPrecondition);
}

TEST(ResourceHandleEdge, WaitUnitsTimeoutSurfaces) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  pilot::PilotManager pilot_manager(backend);
  pilot::PilotDescription description;
  description.resource = "localhost";
  description.cores = 1;
  auto pilot = pilot_manager.submit_pilot(description);
  ASSERT_TRUE(pilot.ok());
  ASSERT_TRUE(pilot_manager.wait_active(pilot.value()).is_ok());
  pilot::UnitManager units(backend);
  units.add_pilot(pilot.value());
  pilot::UnitDescription unit;
  unit.name = "long";
  unit.executable = "x";
  unit.simulated_duration = 1000.0;
  auto submitted = submit_descriptions(units, {std::move(unit)});
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(units.wait_units(submitted.value(), /*timeout=*/10.0).code(),
            Errc::kTimedOut);
  // After the timeout we can still wait to completion.
  ASSERT_TRUE(units.wait_units(submitted.value()).is_ok());
}

// ------------------------------------------------------------ sim agent

TEST(SimAgentEdge, CancelDuringInputStagingWindow) {
  // A unit with heavy input staging is killed while staging: its cores
  // come back and the state ends cancelled.
  auto machine = sim::localhost_profile();
  machine.staging_latency = 5.0;  // long staging window
  pilot::SimBackend backend(machine);
  pilot::PilotManager pilot_manager(backend);
  pilot::PilotDescription description;
  description.resource = "localhost";
  description.cores = 1;
  auto pilot = pilot_manager.submit_pilot(description);
  ASSERT_TRUE(pilot.ok());
  ASSERT_TRUE(pilot_manager.wait_active(pilot.value()).is_ok());
  pilot::UnitManager units(backend);
  units.add_pilot(pilot.value());

  pilot::UnitDescription unit;
  unit.name = "stager";
  unit.executable = "x";
  unit.simulated_duration = 50.0;
  unit.input_staging.push_back(
      {"big.bin", "", pilot::StagingDirective::Action::kCopy, 100.0});
  auto submitted = submit_descriptions(units, {std::move(unit)});
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(backend
                  .drive_until([&] {
                    return submitted.value()[0]->state() ==
                           pilot::UnitState::kStagingInput;
                  })
                  .is_ok());
  ASSERT_TRUE(units.cancel_unit(submitted.value()[0]).is_ok());
  EXPECT_EQ(submitted.value()[0]->state(), pilot::UnitState::kCanceled);
  // The core is free again: a fresh unit runs to completion.
  pilot::UnitDescription follow_up;
  follow_up.name = "next";
  follow_up.executable = "x";
  follow_up.simulated_duration = 1.0;
  auto next = submit_descriptions(units, {std::move(follow_up)});
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(units.wait_units(next.value()).is_ok());
  EXPECT_EQ(next.value()[0]->state(), pilot::UnitState::kDone);
}

// ---------------------------------------------------------------- strategy

TEST(StrategyEdge, ImpossibleCoreCapRejectsEverything) {
  const auto catalog = sim::MachineCatalog::with_builtin_profiles();
  core::ExecutionStrategy strategy(catalog);
  core::WorkloadProfile workload;
  workload.total_tasks = 8;
  workload.max_concurrent_tasks = 8;
  workload.cores_per_task = 16;  // wide MPI tasks
  workload.reference_task_duration = 10.0;
  core::StrategyObjective objective;
  objective.max_cores = 8;  // smaller than one task
  EXPECT_EQ(strategy.plan(workload, objective).status().code(),
            Errc::kResourceExhausted);
}

}  // namespace
}  // namespace entk
