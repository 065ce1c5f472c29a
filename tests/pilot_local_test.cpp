// Integration tests of the local backend: real payload execution,
// real staging, and the full EnTK stack running genuine work.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>

#include "core/entk.hpp"
#include "pilot/local_agent.hpp"
#include "pilot/local_backend.hpp"
#include "pilot/pilot_manager.hpp"
#include "pilot/scheduler.hpp"
#include "pilot/stager.hpp"
#include "pilot/unit_manager.hpp"
#include "unit_test_util.hpp"

namespace entk::pilot {
namespace {

namespace fs = std::filesystem;

UnitDescription payload_unit(UnitPayload payload, Count cores = 1) {
  UnitDescription description;
  description.name = "local.unit";
  description.executable = "inproc";
  description.cores = cores;
  description.uses_mpi = cores > 1;
  description.payload = std::move(payload);
  return description;
}

TEST(Stager, CopiesLinksAndMoves) {
  const fs::path root = fs::temp_directory_path() / "entk-stager-test";
  fs::remove_all(root);
  fs::create_directories(root / "from");
  fs::create_directories(root / "to");
  {
    std::ofstream f(root / "from" / "a.txt");
    f << "alpha";
  }
  {
    std::ofstream f(root / "from" / "b.txt");
    f << "beta";
  }
  {
    std::ofstream f(root / "from" / "c.txt");
    f << "gamma";
  }
  std::vector<StagingDirective> directives;
  directives.push_back({"a.txt", "", StagingDirective::Action::kCopy, 0});
  directives.push_back(
      {"b.txt", "renamed/b2.txt", StagingDirective::Action::kLink, 0});
  directives.push_back({"c.txt", "", StagingDirective::Action::kMove, 0});
  ASSERT_TRUE(
      execute_staging(directives, root / "from", root / "to").is_ok());
  EXPECT_TRUE(fs::exists(root / "to" / "a.txt"));
  EXPECT_TRUE(fs::exists(root / "from" / "a.txt"));  // copy keeps source
  EXPECT_TRUE(fs::exists(root / "to" / "renamed" / "b2.txt"));
  EXPECT_TRUE(fs::exists(root / "to" / "c.txt"));
  EXPECT_FALSE(fs::exists(root / "from" / "c.txt"));  // move removes it

  // Missing source is an error.
  std::vector<StagingDirective> missing;
  missing.push_back({"ghost.txt", "", StagingDirective::Action::kCopy, 0});
  EXPECT_EQ(execute_staging(missing, root / "from", root / "to").code(),
            Errc::kIoError);
  fs::remove_all(root);
}

TEST(Stager, SimDelayModel) {
  const auto machine = sim::comet_profile();
  std::vector<StagingDirective> directives;
  directives.push_back({"x", "", StagingDirective::Action::kCopy, 500.0});
  directives.push_back({"y", "", StagingDirective::Action::kCopy, 0.0});
  const Duration delay = staging_delay(machine, directives);
  EXPECT_NEAR(delay,
              2 * machine.staging_latency +
                  500.0 / machine.staging_bandwidth_mb_per_s,
              1e-12);
  EXPECT_DOUBLE_EQ(staging_delay(machine, {}), 0.0);
}

class LocalBackendTest : public ::testing::Test {
 protected:
  LocalBackendTest() : backend_(4) {}

  PilotPtr make_active_pilot(Count cores) {
    PilotDescription description;
    description.resource = "localhost";
    description.cores = cores;
    description.runtime = 3600.0;
    auto pilot = manager_.submit_pilot(description);
    EXPECT_TRUE(pilot.ok()) << pilot.status().to_string();
    EXPECT_TRUE(manager_.wait_active(pilot.value()).is_ok());
    return pilot.take();
  }

  LocalBackend backend_;
  PilotManager manager_{backend_};
};

TEST_F(LocalBackendTest, PayloadsReallyExecute) {
  auto pilot = make_active_pilot(4);
  UnitManager units(backend_);
  units.add_pilot(pilot);
  std::atomic<int> executed{0};
  std::vector<UnitDescription> descriptions;
  for (int i = 0; i < 10; ++i) {
    descriptions.push_back(payload_unit(
        [&executed](const UnitRuntimeContext& context) -> Status {
          executed.fetch_add(1);
          std::ofstream marker(context.sandbox / "ran.txt");
          marker << "yes";
          return Status::ok();
        }));
  }
  auto submitted = submit_descriptions(units, std::move(descriptions));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(units.wait_units(submitted.value(), 30.0).is_ok());
  EXPECT_EQ(executed.load(), 10);
  for (const auto& unit : submitted.value()) {
    EXPECT_EQ(unit->state(), UnitState::kDone);
    EXPECT_GT(unit->execution_time(), 0.0);
  }
}

TEST_F(LocalBackendTest, StagingMovesDataBetweenUnits) {
  auto pilot = make_active_pilot(2);
  UnitManager units(backend_);
  units.add_pilot(pilot);

  // Producer: writes a file, stages it out to the shared space.
  auto producer = payload_unit(
      [](const UnitRuntimeContext& context) -> Status {
        std::ofstream out(context.sandbox / "data.txt");
        out << "42 bytes of very important science data here";
        return Status::ok();
      });
  producer.output_staging.push_back(
      {"data.txt", "", StagingDirective::Action::kCopy, 0.001});
  auto produced = submit_descriptions(units, {std::move(producer)});
  ASSERT_TRUE(produced.ok());
  ASSERT_TRUE(units.wait_units(produced.value(), 30.0).is_ok());
  ASSERT_EQ(produced.value()[0]->state(), UnitState::kDone);

  // Consumer: stages it in and reads it.
  std::string consumed_content;
  auto consumer = payload_unit(
      [&consumed_content](const UnitRuntimeContext& context) -> Status {
        std::ifstream in(context.sandbox / "data.txt");
        if (!in) return make_error(Errc::kIoError, "input not staged");
        std::getline(in, consumed_content);
        return Status::ok();
      });
  consumer.input_staging.push_back(
      {"data.txt", "", StagingDirective::Action::kCopy, 0.001});
  auto consumed = submit_descriptions(units, {std::move(consumer)});
  ASSERT_TRUE(consumed.ok());
  ASSERT_TRUE(units.wait_units(consumed.value(), 30.0).is_ok());
  EXPECT_EQ(consumed.value()[0]->state(), UnitState::kDone);
  EXPECT_EQ(consumed_content,
            "42 bytes of very important science data here");
}

TEST_F(LocalBackendTest, MissingInputStagingFailsTheUnit) {
  auto pilot = make_active_pilot(2);
  UnitManager units(backend_);
  units.add_pilot(pilot);
  auto description = payload_unit(
      [](const UnitRuntimeContext&) -> Status { return Status::ok(); });
  description.input_staging.push_back(
      {"not-there.bin", "", StagingDirective::Action::kCopy, 0.0});
  auto submitted = submit_descriptions(units, {std::move(description)});
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(units.wait_units(submitted.value(), 30.0).is_ok());
  EXPECT_EQ(submitted.value()[0]->state(), UnitState::kFailed);
  EXPECT_EQ(submitted.value()[0]->final_status().code(), Errc::kIoError);
}

TEST_F(LocalBackendTest, FailingPayloadRetriesThenSucceeds) {
  auto pilot = make_active_pilot(2);
  UnitManager units(backend_);
  units.add_pilot(pilot);
  std::atomic<int> attempts{0};
  auto description = payload_unit(
      [&attempts](const UnitRuntimeContext&) -> Status {
        if (attempts.fetch_add(1) == 0) {
          return make_error(Errc::kExecutionFailed, "flaky first run");
        }
        return Status::ok();
      });
  description.retry.max_retries = 2;
  auto submitted = submit_descriptions(units, {std::move(description)});
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(units.wait_units(submitted.value(), 30.0).is_ok());
  EXPECT_EQ(submitted.value()[0]->state(), UnitState::kDone);
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(submitted.value()[0]->retries(), 1);
}

TEST_F(LocalBackendTest, MpiUnitsSeeTheirCoreCount) {
  auto pilot = make_active_pilot(4);
  UnitManager units(backend_);
  units.add_pilot(pilot);
  std::atomic<Count> seen{0};
  auto description = payload_unit(
      [&seen](const UnitRuntimeContext& context) -> Status {
        seen = context.cores;
        return Status::ok();
      },
      /*cores=*/4);
  auto submitted = submit_descriptions(units, {std::move(description)});
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(units.wait_units(submitted.value(), 30.0).is_ok());
  EXPECT_EQ(seen.load(), 4);
}

// Full stack on the local backend: the paper's character-count
// validation application, really executed.
TEST(LocalEndToEnd, CharacterCountApplication) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  LocalBackend backend(4);
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  core::EnsembleOfPipelines pattern(4, 2);
  pattern.set_stage(1, [](const core::StageContext& context) {
    core::TaskSpec spec;
    spec.kernel = "misc.mkfile";
    spec.args.set("size_kb", 1.0 + static_cast<double>(context.instance));
    spec.args.set("filename",
                  "file_" + std::to_string(context.instance) + ".txt");
    return spec;
  });
  pattern.set_stage(2, [](const core::StageContext& context) {
    core::TaskSpec spec;
    spec.kernel = "misc.ccount";
    spec.args.set("input",
                  "file_" + std::to_string(context.instance) + ".txt");
    return spec;
  });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  EXPECT_EQ(report.value().units.size(), 8u);
  EXPECT_GT(report.value().overheads.execution_time, 0.0);
  ASSERT_TRUE(handle.deallocate().is_ok());
}

// Equal specs share one description, so the pool's workers call one
// payload concurrently (run under tsan in CI).
TEST(LocalEndToEnd, SharedPayloadRunsOnConcurrentWorkers) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  LocalBackend backend(4);
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());
  core::BagOfTasks pattern(32, [](const core::StageContext&) {
    core::TaskSpec spec;
    spec.kernel = "misc.sleep";
    spec.args.set("duration", 0.002);
    return spec;
  });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  const auto& units = report.value().units;
  ASSERT_EQ(units.size(), 32u);
  for (const auto& unit : units) {
    EXPECT_EQ(&unit->description(), &units.front()->description());
    EXPECT_EQ(unit->state(), UnitState::kDone);
  }
  ASSERT_TRUE(handle.deallocate().is_ok());
}

// The paper's SAL workload, small scale, with real MD + real CoCo.
TEST(LocalEndToEnd, SimulationAnalysisLoopWithRealMd) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  LocalBackend backend(4);
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  const int n_sims = 3;
  core::SimulationAnalysisLoop pattern(2, n_sims, 1);
  pattern.set_simulation([](const core::StageContext& context) {
    core::TaskSpec spec;
    spec.kernel = "md.simulate";
    spec.args.set("steps", 40);
    spec.args.set("n_particles", 27);
    spec.args.set("sample_every", 8);
    spec.args.set("seed", 1000 * context.iteration + context.instance);
    spec.args.set("out", "traj_" + std::to_string(context.instance) +
                             ".dat");
    return spec;
  });
  pattern.set_analysis([n_sims](const core::StageContext&) {
    core::TaskSpec spec;
    spec.kernel = "md.coco";
    spec.args.set("n_sims", n_sims);
    spec.args.set("n_new_points", 2);
    return spec;
  });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  EXPECT_EQ(pattern.simulation_units().size(), 6u);
  EXPECT_EQ(pattern.analysis_units().size(), 2u);
  ASSERT_TRUE(handle.deallocate().is_ok());
}

TEST(LocalAgentShutdown, TeardownWhileAUnitFinishesDoesNotAbort) {
  // Regression for the shutdown footgun: a unit settling while the
  // agent tears down re-enters schedule_locked from its worker thread
  // and tries to launch the next waiting unit into a pool that is
  // already stopping. That submission must be refused cleanly (the
  // unit goes back to the backlog) — the old ThreadPool::submit path
  // aborted the whole process on exactly this race.
  const fs::path root =
      fs::temp_directory_path() / "entk-agent-teardown-test";
  fs::remove_all(root);
  WallClock clock;
  auto scheduler = make_scheduler("fifo");
  ASSERT_TRUE(scheduler.ok());
  auto agent = std::make_unique<LocalAgent>(
      sim::comet_profile(), 1, scheduler.take(), clock, root);
  agent->start({});

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  auto blocked = std::make_shared<ComputeUnit>(
      "teardown.u0",
      share_description(payload_unit(
          [&entered, &release](const UnitRuntimeContext&) -> Status {
            entered.store(true, std::memory_order_release);
            while (!release.load(std::memory_order_acquire)) {
              std::this_thread::yield();
            }
            return Status::ok();
          })),
      clock);
  auto follower = std::make_shared<ComputeUnit>(
      "teardown.u1",
      share_description(payload_unit(
          [](const UnitRuntimeContext&) -> Status { return Status::ok(); })),
      clock);
  for (const auto& unit : {blocked, follower}) {
    unit->stamp_created();
    ASSERT_TRUE(unit->advance_state(UnitState::kPendingExecution).is_ok());
  }
  // One core: `blocked` launches, `follower` queues behind it.
  ASSERT_TRUE(agent->submit({blocked, follower}).is_ok());
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Tear down while the payload is mid-flight; the destructor blocks
  // joining the worker, so the settle -> reschedule happens with the
  // pool already stopping.
  std::thread closer([&agent] { agent.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true, std::memory_order_release);
  closer.join();
  EXPECT_EQ(blocked->state(), UnitState::kDone);
  // The follower's launch was refused by the stopping pool and the
  // reservation rolled back: still pending, never started, not lost.
  EXPECT_EQ(follower->state(), UnitState::kPendingExecution);
  fs::remove_all(root);
}

}  // namespace
}  // namespace entk::pilot
