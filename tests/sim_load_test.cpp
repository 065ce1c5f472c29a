// Tests of the batch backfill policy, the background-load generator
// and the utilization analysis.
#include <gtest/gtest.h>

#include "core/entk.hpp"
#include "common/uid.hpp"
#include "pilot/pilot_manager.hpp"
#include "sim/load_generator.hpp"
#include "unit_test_util.hpp"

namespace entk {
namespace {

TEST(BatchBackfill, SmallJobsJumpABlockedHead) {
  sim::Engine engine;
  sim::Cluster cluster(sim::localhost_profile());  // 32 cores
  sim::BatchQueue batch(engine, cluster, sim::BatchPolicy::kEasyBackfill);

  std::vector<char> starts;
  auto submit = [&](char tag, Count cores) {
    sim::BatchJobRequest request;
    request.cores = cores;
    request.walltime = 1000.0;
    request.on_start = [&starts, tag](const sim::Allocation&) {
      starts.push_back(tag);
    };
    auto id = batch.submit(std::move(request));
    EXPECT_TRUE(id.ok());
    return id.value();
  };
  const auto a = submit('A', 24);  // runs
  submit('B', 16);                 // blocked: only 8 cores free
  submit('C', 8);                  // backfills into the idle 8
  engine.run_until(5.0);
  EXPECT_EQ(starts, (std::vector<char>{'A', 'C'}));
  ASSERT_TRUE(batch.complete(a).is_ok());
  engine.run_until(10.0);
  EXPECT_EQ(starts, (std::vector<char>{'A', 'C', 'B'}));
}

TEST(BatchBackfill, FifoStillBlocksWithoutTheFlag) {
  sim::Engine engine;
  sim::Cluster cluster(sim::localhost_profile());
  sim::BatchQueue batch(engine, cluster);  // default kFifo
  std::vector<char> starts;
  auto submit = [&](char tag, Count cores) {
    sim::BatchJobRequest request;
    request.cores = cores;
    request.walltime = 1000.0;
    request.on_start = [&starts, tag](const sim::Allocation&) {
      starts.push_back(tag);
    };
    EXPECT_TRUE(batch.submit(std::move(request)).ok());
  };
  submit('A', 24);
  submit('B', 16);
  submit('C', 8);
  engine.run_until(5.0);
  EXPECT_EQ(starts, (std::vector<char>{'A'}));  // C must wait behind B
}

TEST(LoadGenerator, ProducesAndRetiresJobs) {
  sim::Engine engine;
  sim::Cluster cluster(sim::localhost_profile());
  sim::BatchQueue batch(engine, cluster, sim::BatchPolicy::kEasyBackfill);
  sim::LoadGenerator::Options options;
  options.arrival_rate = 1.0 / 30.0;  // one job every ~30 s
  options.min_runtime = 10.0;
  options.max_runtime = 100.0;
  options.horizon = 3600.0;
  sim::LoadGenerator generator(engine, batch, cluster, options);
  generator.start();
  engine.run_until(2.0 * options.horizon);
  engine.run();
  EXPECT_GT(generator.jobs_submitted(), 50u);   // ~120 expected
  EXPECT_EQ(generator.jobs_finished(), generator.jobs_submitted());
  // Everything retired: the machine is idle again.
  EXPECT_EQ(cluster.free_cores(), cluster.total_cores());
}

TEST(LoadGenerator, DeterministicForFixedSeed) {
  auto run_once = [] {
    sim::Engine engine;
    sim::Cluster cluster(sim::localhost_profile());
    sim::BatchQueue batch(engine, cluster);
    sim::LoadGenerator::Options options;
    options.arrival_rate = 1.0 / 20.0;
    options.horizon = 1000.0;
    options.seed = 99;
    sim::LoadGenerator generator(engine, batch, cluster, options);
    generator.start();
    engine.run();
    return generator.jobs_submitted();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(LoadGenerator, BackgroundLoadDelaysThePilot) {
  // The same pilot waits longer on a busy machine than on an idle one.
  auto pilot_queue_wait = [](bool busy) {
    auto machine = sim::localhost_profile();
    pilot::SimBackend backend(machine, sim::BatchPolicy::kEasyBackfill);
    std::unique_ptr<sim::LoadGenerator> generator;
    if (busy) {
      sim::LoadGenerator::Options options;
      options.arrival_rate = 1.0;      // a job per second: saturation
      options.min_cores = 8;
      options.max_cores = 32;
      options.min_runtime = 50.0;
      options.max_runtime = 200.0;
      options.horizon = 500.0;
      generator = std::make_unique<sim::LoadGenerator>(
          backend.engine(), backend.batch(), backend.cluster(), options);
      generator->start();
      backend.engine().run_until(100.0);  // let the backlog build
    }
    pilot::PilotManager manager(backend);
    pilot::PilotDescription description;
    description.resource = "localhost";
    description.cores = 16;
    description.runtime = 10000.0;
    auto pilot = manager.submit_pilot(description);
    EXPECT_TRUE(pilot.ok());
    EXPECT_TRUE(manager.wait_active(pilot.value()).is_ok());
    return pilot.value()->startup_time();
  };
  const Duration idle_wait = pilot_queue_wait(false);
  const Duration busy_wait = pilot_queue_wait(true);
  EXPECT_GT(busy_wait, idle_wait + 10.0);
}

// ----------------------------------------------------------- utilization

pilot::ComputeUnitPtr fake_executed_unit(const Clock& clock, Count cores,
                                         sim::Engine& engine,
                                         Duration start, Duration stop) {
  pilot::UnitDescription description;
  description.name = "util.unit";
  description.executable = "x";
  description.cores = cores;
  description.uses_mpi = cores > 1;
  description.simulated_duration = stop - start;
  auto unit = std::make_shared<pilot::ComputeUnit>(
      next_uid("utilunit"), pilot::share_description(std::move(description)),
      clock);
  (void)unit->advance_state(pilot::UnitState::kPendingExecution);
  engine.schedule_at(start, [unit] {
    (void)unit->advance_state(pilot::UnitState::kExecuting);
  });
  engine.schedule_at(stop, [unit] {
    (void)unit->advance_state(pilot::UnitState::kDone);
  });
  return unit;
}

TEST(Utilization, SweepLineMatchesHandComputation) {
  sim::Engine engine;
  std::vector<pilot::ComputeUnitPtr> units;
  // [0, 10) x 4 cores, [5, 15) x 2 cores, [20, 30) x 8 cores.
  units.push_back(fake_executed_unit(engine.clock(), 4, engine, 0.0, 10.0));
  units.push_back(fake_executed_unit(engine.clock(), 2, engine, 5.0, 15.0));
  units.push_back(
      fake_executed_unit(engine.clock(), 8, engine, 20.0, 30.0));
  engine.run();

  const auto report = core::compute_utilization(units, 8);
  EXPECT_EQ(report.executed_units, 3u);
  EXPECT_DOUBLE_EQ(report.window, 30.0);
  EXPECT_DOUBLE_EQ(report.busy_core_seconds, 40.0 + 20.0 + 80.0);
  EXPECT_EQ(report.peak_concurrent_cores, 8);
  EXPECT_NEAR(report.average_utilization, 140.0 / (8.0 * 30.0), 1e-12);
}

TEST(Utilization, EmptyAndNonExecutedUnits) {
  const auto empty = core::compute_utilization({}, 4);
  EXPECT_EQ(empty.executed_units, 0u);
  EXPECT_DOUBLE_EQ(empty.average_utilization, 0.0);

  WallClock clock;
  pilot::UnitDescription description;
  description.executable = "x";
  auto never_ran = std::make_shared<pilot::ComputeUnit>(
      "unit.neverran", pilot::share_description(description), clock);
  const auto report = core::compute_utilization({never_ran}, 4);
  EXPECT_EQ(report.executed_units, 0u);
}

TEST(Utilization, FullRunOnSimBackend) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 8;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());
  core::BagOfTasks pattern(16, [](const core::StageContext&) {
    core::TaskSpec spec;
    spec.kernel = "misc.sleep";
    spec.args.set("duration", 10.0);
    return spec;
  });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  const auto utilization =
      core::compute_utilization(report.value().units, options.cores);
  EXPECT_EQ(utilization.executed_units, 16u);
  EXPECT_EQ(utilization.peak_concurrent_cores, 8);
  // Two back-to-back waves of identical tasks: high utilization.
  EXPECT_GT(utilization.average_utilization, 0.9);
}

}  // namespace
}  // namespace entk
