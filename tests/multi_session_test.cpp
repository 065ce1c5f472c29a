// Concurrent sessions over one shared backend.
//
// The Session/Runtime split promises that N workloads sharing one
// process (one PilotManager, one engine) behave exactly as if each ran
// alone: same schedules, isolated failures, independent lifecycles.
// These tests pin the four corners of that claim:
//
//  - Determinism: with private same-size pilots and zero global-clock
//    overheads, a session's trace digest under run_concurrent is
//    bit-identical to the same-seed solo run (uids AND timestamps).
//  - Failure isolation: one session's fail_fast abort leaves the
//    other session's run converging untouched.
//  - Checkpoint/resume: one session is captured and later resumed
//    while another session runs concurrently on the same backend both
//    times, and the resumed trace still matches the solo baseline.
//  - Teardown under load: destroying a session with a run in flight
//    drains through its UnitManager (no callback races) and leaves
//    the surviving session able to finish.
//  - Dynamic lifecycle: adding a session or cancelling a run between
//    engine steps of a live drive leaves the other sessions' traces
//    bit-identical to their solo baselines (the contract entk-serve
//    leans on when tenants come and go mid-flight).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/coordinator.hpp"
#include "ckpt/snapshot.hpp"
#include "common/uid.hpp"
#include "core/entk.hpp"
#include "core/parallel_runtime.hpp"
#include "scale_test_util.hpp"

namespace entk::core {
namespace {

constexpr Count kUnits = 2000;

/// The scale machine with instant pilot bootstrap: session B's
/// allocate() must not advance the shared clock past the point where
/// session A's solo run would start, or the timestamp comparison
/// against solo baselines breaks for a reason that has nothing to do
/// with scheduling.
sim::MachineProfile multi_machine() {
  sim::MachineProfile p = scale_test::scale_machine();
  p.name = "test.multi";
  p.pilot_bootstrap = 0.0;
  return p;
}

/// Half the machine per session, and no toolkit overheads charged to
/// the shared clock (init/allocate/per-task advances would shift one
/// session's timeline by the other's bookkeeping).
ResourceOptions session_options() {
  ResourceOptions options;
  options.cores = 1024;
  options.runtime = 4.0e6;
  options.scheduler_policy = "backfill";
  options.init_overhead = 0.0;
  options.allocate_overhead = 0.0;
  options.deallocate_overhead = 0.0;
  options.per_task_overhead = 0.0;
  return options;
}

std::shared_ptr<Session> make_session(Runtime& runtime,
                                      const std::string& name) {
  auto session = runtime.create_session({name, session_options()});
  EXPECT_TRUE(session.ok()) << session.status().to_string();
  EXPECT_TRUE(session.value()->allocate().is_ok());
  return session.take();
}

using PatternFactory = std::unique_ptr<ExecutionPattern> (*)();

std::unique_ptr<ExecutionPattern> bag_workload() {
  return std::make_unique<BagOfTasks>(scale_test::scale_workload(kUnits));
}

/// Multi-stage workloads: every stage after the first is submitted from
/// a settlement mid-drive, the path a bag (all units submitted up front)
/// never takes. Both overfill a session's 1024 cores, so the backfill
/// order of the mid-drive submissions shows in the digests.
std::unique_ptr<ExecutionPattern> eop_workload() {
  auto pattern = std::make_unique<EnsembleOfPipelines>(600, 3);
  for (Count stage = 1; stage <= 3; ++stage) {
    pattern->set_stage(stage, scale_test::scale_task);
  }
  return pattern;
}

std::unique_ptr<ExecutionPattern> sal_workload() {
  auto pattern = std::make_unique<SimulationAnalysisLoop>(3, 800, 64);
  pattern->set_simulation(scale_test::scale_task);
  pattern->set_analysis(scale_test::scale_task);
  return pattern;
}

/// Same-seed solo baseline: the named session alone on a fresh
/// backend. Sets `units` to the run's unit count when given.
std::uint64_t solo_digest(const std::string& name,
                          PatternFactory make = bag_workload,
                          std::size_t* units = nullptr) {
  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(multi_machine());
  Runtime runtime(backend, registry);
  auto session = make_session(runtime, name);
  const auto pattern = make();
  auto report = session->run(*pattern);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  if (!report.ok()) return 0;
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  EXPECT_EQ(report.value().session, name);
  if (units != nullptr) *units = report.value().units.size();
  return scale_test::trace_digest(report.value().units);
}

/// Runs alpha and beta concurrently on `make`'s workload with a
/// `threads`-worker parallel pool (0 = serial; the pool materializes
/// large frontiers) and checks that each session's trace is
/// bit-identical to its solo run: parallelism and sharing the backend
/// may change WHEN graph bookkeeping happens on the host, never WHAT
/// gets scheduled on the simulated clock.
void expect_concurrent_matches_solo(PatternFactory make,
                                    std::size_t threads) {
  std::size_t solo_units = 0;
  const std::uint64_t solo_alpha = solo_digest("alpha", make, &solo_units);
  const std::uint64_t solo_beta = solo_digest("beta", make);
  ASSERT_NE(solo_alpha, 0u);
  ASSERT_NE(solo_beta, 0u);
  // Same workload, different uid family: the digests must differ, or
  // the equality checks below would pass vacuously.
  ASSERT_NE(solo_alpha, solo_beta);

  struct PoolReset {
    ~PoolReset() { set_parallel_threads(0); }
  } reset_on_exit;
  set_parallel_threads(threads);
  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(multi_machine());
  Runtime runtime(backend, registry);
  auto alpha = make_session(runtime, "alpha");
  auto beta = make_session(runtime, "beta");
  const auto pattern_a = make();
  const auto pattern_b = make();
  auto reports = runtime.run_concurrent(
      {{alpha, pattern_a.get()}, {beta, pattern_b.get()}});
  ASSERT_TRUE(reports.ok()) << reports.status().to_string();
  ASSERT_EQ(reports.value().size(), 2u);
  for (const auto& report : reports.value()) {
    EXPECT_TRUE(report.outcome.is_ok()) << report.outcome.to_string();
    EXPECT_EQ(report.units.size(), solo_units);
  }
  EXPECT_EQ(reports.value()[0].session, "alpha");
  EXPECT_EQ(reports.value()[1].session, "beta");
  EXPECT_EQ(scale_test::trace_digest(reports.value()[0].units),
            solo_alpha);
  EXPECT_EQ(scale_test::trace_digest(reports.value()[1].units),
            solo_beta);
}

TEST(MultiSession, ConcurrentTracesMatchSoloRunsBitIdentical) {
  expect_concurrent_matches_solo(bag_workload, 0);
}

TEST(MultiSession, ParallelAdvancementMatchesSoloRunsBitIdentical) {
  // Each session still pumps its own graph; the pool materializes the
  // sessions' large initial frontiers.
  expect_concurrent_matches_solo(bag_workload, 4);
}

TEST(MultiSession, PipelineChainsMatchSoloRunsBitIdentical) {
  expect_concurrent_matches_solo(eop_workload, 0);
}

TEST(MultiSession, PipelineChainsWithParallelPoolMatchSoloRuns) {
  expect_concurrent_matches_solo(eop_workload, 4);
}

TEST(MultiSession, SalIterationsMatchSoloRunsBitIdentical) {
  expect_concurrent_matches_solo(sal_workload, 0);
}

TEST(MultiSession, SalIterationsWithParallelPoolMatchSoloRuns) {
  expect_concurrent_matches_solo(sal_workload, 4);
}

TEST(MultiSession, LocalBackendChainsSubmitEveryStageOnce) {
  // On the LocalBackend settlements arrive on agent worker threads, so
  // several threads pump each session's graph at once; the pump claim
  // must still submit every pipeline stage exactly once.
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::LocalBackend backend(8);
  Runtime runtime(backend, registry);
  std::vector<Runtime::SessionRun> runs;
  std::vector<std::unique_ptr<EnsembleOfPipelines>> patterns;
  for (const char* name : {"left", "right"}) {
    ResourceOptions options;
    options.cores = 4;
    auto session = runtime.create_session({name, options});
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    ASSERT_TRUE(session.value()->allocate().is_ok());
    auto pattern = std::make_unique<EnsembleOfPipelines>(8, 3);
    for (Count stage = 1; stage <= 3; ++stage) {
      pattern->set_stage(stage, [](const StageContext&) {
        TaskSpec spec;
        spec.kernel = "misc.sleep";
        spec.args.set("duration", 0.001);
        return spec;
      });
    }
    runs.push_back({session.take(), pattern.get()});
    patterns.push_back(std::move(pattern));
  }
  auto reports = runtime.run_concurrent(runs, 60.0);
  ASSERT_TRUE(reports.ok()) << reports.status().to_string();
  for (const auto& report : reports.value()) {
    EXPECT_TRUE(report.outcome.is_ok()) << report.outcome.to_string();
    EXPECT_EQ(report.units.size(), 24u);
    EXPECT_EQ(report.units_done, 24u);
  }
}

TEST(MultiSession, FailFastAbortLeavesTheOtherSessionConverging) {
  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(multi_machine());
  Runtime runtime(backend, registry);
  auto flaky = make_session(runtime, "flaky");
  auto steady = make_session(runtime, "steady");

  // One permanently failing task (no retry budget) under fail_fast.
  BagOfTasks failing(64, [](const StageContext& context) {
    TaskSpec spec = scale_test::scale_task(context);
    spec.inject_failure = context.instance == 1;
    return spec;
  });
  failing.set_failure_rules({FailurePolicy::kFailFast, 1.0});
  BagOfTasks healthy = scale_test::scale_workload(kUnits);

  auto reports = runtime.run_concurrent(
      {{flaky, &failing}, {steady, &healthy}});
  ASSERT_TRUE(reports.ok()) << reports.status().to_string();
  ASSERT_EQ(reports.value().size(), 2u);
  EXPECT_FALSE(reports.value()[0].outcome.is_ok())
      << "the injected failure must fail the fail_fast session";
  EXPECT_EQ(reports.value()[0].units_failed, 1u);
  EXPECT_TRUE(reports.value()[1].outcome.is_ok())
      << reports.value()[1].outcome.to_string();
  EXPECT_EQ(reports.value()[1].units_done,
            static_cast<std::size_t>(kUnits))
      << "the healthy session must converge despite the abort next door";
}

TEST(MultiSession, CheckpointResumeOfOneSessionWhileAnotherRuns) {
  const std::uint64_t baseline = solo_digest("alpha");
  ASSERT_NE(baseline, 0u);

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "multi_ckpt")
          .string();
  std::filesystem::remove_all(dir);

  // Crash run: alpha is checkpointed (and killed after one snapshot)
  // while beta runs concurrently on the same backend.
  ckpt::Snapshot snapshot;
  {
    reset_uid_counters_for_testing();
    auto registry = kernels::KernelRegistry::with_builtin_kernels();
    pilot::SimBackend backend(multi_machine());
    Runtime runtime(backend, registry);
    auto alpha = make_session(runtime, "alpha");
    auto beta = make_session(runtime, "beta");
    ckpt::Coordinator::Options options;
    options.directory = dir;
    options.policy.every_settled = 500;
    options.crash_after_snapshots = 1;
    ckpt::Coordinator coordinator(backend, *alpha, std::move(options));
    BagOfTasks pattern_a = scale_test::scale_workload(kUnits);
    BagOfTasks pattern_b = scale_test::scale_workload(kUnits);
    coordinator.set_identity(pattern_a.name(), "");
    pattern_a.set_graph_run_observer(&coordinator);
    auto reports = runtime.run_concurrent(
        {{alpha, &pattern_a}, {beta, &pattern_b}});
    ASSERT_FALSE(reports.ok())
        << "the simulated crash must abort the shared drive";
    EXPECT_TRUE(ckpt::Coordinator::is_checkpoint_stop(reports.status()))
        << reports.status().to_string();
    ASSERT_EQ(coordinator.snapshots_written(), 1u);
    auto read = ckpt::read_snapshot_file(coordinator.last_snapshot_path());
    ASSERT_TRUE(read.ok()) << read.status().to_string();
    snapshot = read.take();
  }
  EXPECT_EQ(snapshot.session, "alpha");
  ASSERT_FALSE(snapshot.units.empty());
  for (const auto& [family, next] : snapshot.uid_counters) {
    EXPECT_EQ(family.rfind("alpha.", 0), 0u)
        << "a named session's snapshot must not capture foreign uid "
           "families (found " << family << ")";
  }

  // Resume run: alpha is restored from the snapshot and finishes while
  // a fresh beta runs concurrently. Allocation happens before the
  // restore so nothing drives the engine between the restore and the
  // shared wait.
  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(multi_machine());
  Runtime runtime(backend, registry);
  auto beta = make_session(runtime, "beta");
  auto alpha = make_session(runtime, "alpha");
  ckpt::Coordinator::Options options;
  options.directory = dir;
  ckpt::Coordinator coordinator(backend, *alpha, std::move(options));
  BagOfTasks pattern_a = scale_test::scale_workload(kUnits);
  BagOfTasks pattern_b = scale_test::scale_workload(kUnits);
  coordinator.set_identity(pattern_a.name(), "");
  const Status restored = coordinator.restore_runtime(snapshot);
  ASSERT_TRUE(restored.is_ok()) << restored.to_string();
  pattern_a.set_graph_run_observer(&coordinator);
  auto reports = runtime.run_concurrent(
      {{alpha, &pattern_a}, {beta, &pattern_b}});
  ASSERT_TRUE(reports.ok()) << reports.status().to_string();
  ASSERT_EQ(reports.value().size(), 2u);
  EXPECT_TRUE(reports.value()[0].outcome.is_ok())
      << reports.value()[0].outcome.to_string();
  EXPECT_TRUE(reports.value()[1].outcome.is_ok())
      << reports.value()[1].outcome.to_string();
  ASSERT_EQ(reports.value()[0].units.size(),
            static_cast<std::size_t>(kUnits));
  EXPECT_EQ(scale_test::trace_digest(reports.value()[0].units), baseline)
      << "the resumed session must replay the solo schedule exactly";
  EXPECT_EQ(reports.value()[1].units.size(),
            static_cast<std::size_t>(kUnits));
}

TEST(MultiSession, DestroyingASessionMidRunLeavesTheOtherAlive) {
  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(multi_machine());
  Runtime runtime(backend, registry);
  auto doomed = make_session(runtime, "doomed");
  auto survivor = make_session(runtime, "survivor");

  BagOfTasks pattern_d = scale_test::scale_workload(kUnits);
  BagOfTasks pattern_s = scale_test::scale_workload(kUnits);
  ASSERT_TRUE(doomed->start_run(pattern_d).is_ok());
  ASSERT_TRUE(survivor->start_run(pattern_s).is_ok());

  // Drive until the doomed session is visibly mid-flight, then drop it
  // with its run active: the destructor must cancel the run and drain
  // its unit manager instead of racing the agents' callbacks.
  std::size_t settled = 0;
  doomed->unit_manager()->add_settled_observer(
      [&settled](const pilot::ComputeUnitPtr&, pilot::UnitState) {
        ++settled;
      });
  const Status driven =
      backend.drive_until([&settled] { return settled >= 32; }, 4.0e6);
  ASSERT_TRUE(driven.is_ok()) << driven.to_string();
  ASSERT_FALSE(doomed->run_finished());
  doomed.reset();
  EXPECT_EQ(runtime.find_session("doomed"), nullptr);

  const Status rest = backend.drive_until(
      [&survivor] { return survivor->run_finished(); }, 4.0e6);
  ASSERT_TRUE(rest.is_ok()) << rest.to_string();
  auto report = survivor->finish_run(Status::ok());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  EXPECT_EQ(report.value().units_done, static_cast<std::size_t>(kUnits));
  EXPECT_TRUE(survivor->deallocate().is_ok());
}

TEST(MultiSession, AddingASessionMidDriveLeavesRunningTracesUntouched) {
  const std::uint64_t baseline = solo_digest("alpha");
  ASSERT_NE(baseline, 0u);

  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(multi_machine());
  Runtime runtime(backend, registry);
  auto alpha = make_session(runtime, "alpha");
  BagOfTasks pattern_a = scale_test::scale_workload(kUnits);
  ASSERT_TRUE(alpha->start_run(pattern_a).is_ok());

  // Drive alpha visibly mid-flight, then bring up a brand-new session
  // between engine steps — allocation, pattern start and all — the way
  // entk-serve admits a tenant while others are running.
  std::size_t settled = 0;
  alpha->unit_manager()->add_settled_observer(
      [&settled](const pilot::ComputeUnitPtr&, pilot::UnitState) {
        ++settled;
      });
  const Status driven =
      backend.drive_until([&settled] { return settled >= 32; }, 4.0e6);
  ASSERT_TRUE(driven.is_ok()) << driven.to_string();
  ASSERT_FALSE(alpha->run_finished());

  auto late = make_session(runtime, "late");
  BagOfTasks pattern_l = scale_test::scale_workload(256);
  ASSERT_TRUE(late->start_run(pattern_l).is_ok());

  const Status rest = backend.drive_until(
      [&alpha, &late] {
        return alpha->run_finished() && late->run_finished();
      },
      4.0e6);
  ASSERT_TRUE(rest.is_ok()) << rest.to_string();

  auto late_report = late->finish_run(Status::ok());
  ASSERT_TRUE(late_report.ok()) << late_report.status().to_string();
  EXPECT_TRUE(late_report.value().outcome.is_ok())
      << late_report.value().outcome.to_string();
  EXPECT_EQ(late_report.value().units_done, 256u);

  auto report = alpha->finish_run(Status::ok());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  ASSERT_EQ(report.value().units.size(), static_cast<std::size_t>(kUnits));
  EXPECT_EQ(scale_test::trace_digest(report.value().units), baseline)
      << "admitting a session mid-drive must not perturb a running "
         "session's schedule";
}

TEST(MultiSession, CancellingARunMidDriveLeavesTheOtherTraceUntouched) {
  const std::uint64_t baseline = solo_digest("alpha");
  ASSERT_NE(baseline, 0u);

  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(multi_machine());
  Runtime runtime(backend, registry);
  auto alpha = make_session(runtime, "alpha");
  auto victim = make_session(runtime, "victim");
  BagOfTasks pattern_a = scale_test::scale_workload(kUnits);
  BagOfTasks pattern_v = scale_test::scale_workload(kUnits);
  ASSERT_TRUE(alpha->start_run(pattern_a).is_ok());
  ASSERT_TRUE(victim->start_run(pattern_v).is_ok());

  // Cancel the victim once it is visibly mid-flight (units settling),
  // exactly between two engine steps — the point entk-serve's drive
  // loop issues CANCELs from.
  std::size_t settled = 0;
  victim->unit_manager()->add_settled_observer(
      [&settled](const pilot::ComputeUnitPtr&, pilot::UnitState) {
        ++settled;
      });
  const Status driven =
      backend.drive_until([&settled] { return settled >= 32; }, 4.0e6);
  ASSERT_TRUE(driven.is_ok()) << driven.to_string();
  ASSERT_FALSE(victim->run_finished());
  ASSERT_TRUE(victim->cancel_run().is_ok());

  const Status settled_victim = backend.drive_until(
      [&victim] { return victim->run_finished(); }, 4.0e6);
  ASSERT_TRUE(settled_victim.is_ok()) << settled_victim.to_string();
  auto victim_report = victim->finish_run(Status::ok());
  ASSERT_TRUE(victim_report.ok()) << victim_report.status().to_string();
  EXPECT_FALSE(victim_report.value().outcome.is_ok())
      << "a cancelled run must settle with a non-ok outcome";
  EXPECT_LT(victim_report.value().units_done,
            static_cast<std::size_t>(kUnits));

  const Status rest = backend.drive_until(
      [&alpha] { return alpha->run_finished(); }, 4.0e6);
  ASSERT_TRUE(rest.is_ok()) << rest.to_string();
  auto report = alpha->finish_run(Status::ok());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  ASSERT_EQ(report.value().units.size(), static_cast<std::size_t>(kUnits));
  EXPECT_EQ(scale_test::trace_digest(report.value().units), baseline)
      << "cancelling a neighbour mid-drive must not perturb a running "
         "session's schedule";
}

}  // namespace
}  // namespace entk::core
