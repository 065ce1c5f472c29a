// Large-scale integration and property tests on the simulated backend:
// paper-scale workloads, multi-pilot execution, and randomized
// stress of the engine/batch substrate.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "core/entk.hpp"
#include "pilot/agent.hpp"
#include "pilot/pilot_manager.hpp"
#include "pilot/unit_manager.hpp"
#include "unit_test_util.hpp"

namespace entk {
namespace {

TEST(PaperScale, TwoThousandReplicasOnSupermic) {
  // The Figure 5/6 extreme point, end to end: 2560 replicas, one EE
  // cycle, 2560 cores.
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::supermic_profile());
  core::ResourceOptions options;
  options.cores = 2560;
  options.runtime = 1e6;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  core::EnsembleExchange pattern(
      2560, 1, core::EnsembleExchange::ExchangeMode::kGlobalSweep);
  pattern.set_simulation([](const core::StageContext& context) {
    core::TaskSpec spec;
    spec.kernel = "md.simulate";
    spec.args.set("steps", 3000);
    spec.args.set("n_particles", 2881);
    spec.args.set("out", "traj_" + std::to_string(context.instance) +
                             ".dat");
    return spec;
  });
  pattern.set_exchange([](const core::StageContext&) {
    core::TaskSpec spec;
    spec.kernel = "md.exchange";
    spec.args.set("n_replicas", 2560);
    return spec;
  });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  EXPECT_EQ(report.value().units.size(), 2561u);
  for (const auto& unit : report.value().units) {
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone);
  }
  // All replicas concurrent: simulation wall time ~ one task duration.
  EXPECT_LT(report.value().overheads.execution_time, 200.0);
  ASSERT_TRUE(handle.deallocate().is_ok());
}

TEST(MultiPilot, UnitsDistributeAcrossPilots) {
  pilot::SimBackend backend(sim::localhost_profile());
  pilot::PilotManager pilot_manager(backend);
  pilot::UnitManager unit_manager(backend);

  std::vector<pilot::PilotPtr> pilots;
  for (int p = 0; p < 2; ++p) {
    pilot::PilotDescription description;
    description.resource = "localhost";
    description.cores = 8;
    description.runtime = 100000.0;
    auto pilot = pilot_manager.submit_pilot(description);
    ASSERT_TRUE(pilot.ok());
    unit_manager.add_pilot(pilot.value());
    pilots.push_back(pilot.take());
  }
  for (const auto& pilot : pilots) {
    ASSERT_TRUE(pilot_manager.wait_active(pilot).is_ok());
  }

  std::vector<pilot::UnitDescription> descriptions;
  for (int i = 0; i < 16; ++i) {
    pilot::UnitDescription description;
    description.name = "spread.unit";
    description.executable = "x";
    description.simulated_duration = 10.0;
    descriptions.push_back(std::move(description));
  }
  auto units = submit_descriptions(unit_manager, std::move(descriptions));
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(unit_manager.wait_units(units.value()).is_ok());
  // Round-robin across two 8-core pilots: 16 concurrent units finish
  // in one wave; a single pilot would need two.
  TimePoint last_stop = 0.0;
  for (const auto& unit : units.value()) {
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone);
    last_stop = std::max(last_stop, unit->exec_stopped_at());
  }
  TimePoint first_start = kTimeInfinity;
  for (const auto& unit : units.value()) {
    first_start = std::min(first_start, unit->exec_started_at());
  }
  EXPECT_LT(last_stop - first_start, 15.0);
  // Both agents did work.
  EXPECT_GT(pilots[0]->agent()->total_spawn_overhead(), 0.0);
  EXPECT_GT(pilots[1]->agent()->total_spawn_overhead(), 0.0);
}

TEST(MultiPilot, WideUnitsRouteToTheLargerPilot) {
  pilot::SimBackend backend(sim::localhost_profile());
  pilot::PilotManager pilot_manager(backend);
  pilot::UnitManager unit_manager(backend);

  auto make_pilot = [&](Count cores) {
    pilot::PilotDescription description;
    description.resource = "localhost";
    description.cores = cores;
    description.runtime = 100000.0;
    auto pilot = pilot_manager.submit_pilot(description);
    EXPECT_TRUE(pilot.ok());
    unit_manager.add_pilot(pilot.value());
    return pilot.take();
  };
  auto small = make_pilot(2);
  auto large = make_pilot(16);
  ASSERT_TRUE(pilot_manager.wait_active(small).is_ok());
  ASSERT_TRUE(pilot_manager.wait_active(large).is_ok());

  pilot::UnitDescription wide;
  wide.name = "wide.unit";
  wide.executable = "x";
  wide.cores = 8;
  wide.uses_mpi = true;
  wide.simulated_duration = 5.0;
  auto units = submit_descriptions(unit_manager, {wide, wide, wide});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(unit_manager.wait_units(units.value()).is_ok());
  for (const auto& unit : units.value()) {
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone);
  }
  // Only the 16-core pilot can host them.
  EXPECT_GT(large->agent()->total_spawn_overhead(), 0.0);
  EXPECT_DOUBLE_EQ(small->agent()->total_spawn_overhead(), 0.0);
}

// ------------------------------------------------- randomized stress tests

TEST(EngineProperty, RandomStormDispatchesEverythingInOrder) {
  Xoshiro256 rng(20260708);
  for (int trial = 0; trial < 5; ++trial) {
    sim::Engine engine;
    std::vector<double> fired_times;
    std::set<sim::EventId> cancelled;
    std::vector<sim::EventId> ids;
    const int n_events = 500;
    for (int i = 0; i < n_events; ++i) {
      const double when = rng.uniform(0.0, 1000.0);
      ids.push_back(engine.schedule(
          when, [&fired_times, &engine] {
            fired_times.push_back(engine.now());
          }));
    }
    // Cancel a random quarter.
    for (int i = 0; i < n_events / 4; ++i) {
      const auto victim = ids[rng.uniform_index(ids.size())];
      if (engine.cancel(victim)) cancelled.insert(victim);
    }
    engine.run();
    EXPECT_EQ(fired_times.size(), n_events - cancelled.size());
    EXPECT_TRUE(std::is_sorted(fired_times.begin(), fired_times.end()));
    EXPECT_EQ(engine.pending_events(), 0u);
  }
}

TEST(BatchProperty, RandomWorkloadNeverCorruptsAccounting) {
  Xoshiro256 rng(424242);
  for (int trial = 0; trial < 3; ++trial) {
    sim::Engine engine;
    sim::Cluster cluster(sim::localhost_profile());  // 32 cores
    sim::BatchQueue batch(engine, cluster);
    std::vector<sim::BatchJobId> running;
    std::size_t ended = 0;
    const int n_jobs = 100;
    for (int i = 0; i < n_jobs; ++i) {
      sim::BatchJobRequest request;
      request.cores = 1 + static_cast<Count>(rng.uniform_index(32));
      request.walltime = rng.uniform(5.0, 50.0);
      request.on_end = [&ended](sim::BatchJobState) { ++ended; };
      auto id = batch.submit(std::move(request));
      ASSERT_TRUE(id.ok());
      // Randomly interleave cancellations and time progress.
      if (rng.uniform() < 0.2) {
        (void)batch.cancel(id.value());
      }
      if (rng.uniform() < 0.5) {
        engine.run_until(engine.now() + rng.uniform(0.0, 5.0));
      }
      // Invariant: the cluster is never oversubscribed.
      ASSERT_GE(cluster.free_cores(), 0);
      ASSERT_LE(cluster.used_cores(), cluster.total_cores());
    }
    engine.run();  // everything expires or finishes
    EXPECT_EQ(cluster.free_cores(), cluster.total_cores());
    EXPECT_EQ(ended, static_cast<std::size_t>(n_jobs));
  }
}

// Parameterised sweep: every pattern size yields exactly the expected
// unit count and all-done states on the simulated backend.
class PatternSizeSweep : public ::testing::TestWithParam<Count> {};

TEST_P(PatternSizeSweep, EopUnitCountMatches) {
  const Count n = GetParam();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::comet_profile());
  core::ResourceOptions options;
  options.cores = std::min<Count>(n, 96);
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());
  core::EnsembleOfPipelines pattern(n, 2);
  for (Count s = 1; s <= 2; ++s) {
    pattern.set_stage(s, [](const core::StageContext&) {
      core::TaskSpec spec;
      spec.kernel = "misc.sleep";
      spec.args.set("duration", 1.0);
      return spec;
    });
  }
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  EXPECT_EQ(report.value().units.size(), static_cast<std::size_t>(2 * n));
  for (const auto& unit : report.value().units) {
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PatternSizeSweep,
                         ::testing::Values(1, 2, 7, 24, 96, 256));

}  // namespace
}  // namespace entk
