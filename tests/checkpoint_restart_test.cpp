// Kill/resume equivalence: a run killed at a checkpoint and resumed
// from the snapshot must replay the remaining schedule bit-for-bit.
//
// The strongest correctness statement the ckpt module can make is not
// "the resumed run finishes" but "the resumed run is indistinguishable
// from one that never died": every unit uid and every submit/start/
// stop/finish timestamp — before and after the cut — matches the
// uninterrupted same-seed run exactly. These tests pin that claim at
// >= 10k units for both the bag-of-tasks and the simulation-analysis-
// loop patterns (the latter exercising stage-group barriers across the
// cut), using the FNV-1a trace digest the scale-determinism suite pins
// its golden constant with.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpointed_run.hpp"
#include "ckpt/coordinator.hpp"
#include "ckpt/snapshot.hpp"
#include "common/uid.hpp"
#include "core/entk.hpp"
#include "scale_test_util.hpp"

namespace entk::core {
namespace {

constexpr Count kBagUnits = 10000;
constexpr Count kSalIterations = 2;
constexpr Count kSalSimulations = 5000;
constexpr Count kSalAnalyses = 1;  // 2 * (5000 + 1) = 10002 units

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

SimulationAnalysisLoop sal_workload() {
  SimulationAnalysisLoop pattern(kSalIterations, kSalSimulations,
                                 kSalAnalyses);
  pattern.set_simulation(scale_test::scale_task);
  pattern.set_analysis([](const StageContext& context) {
    TaskSpec spec = scale_test::scale_task(context);
    spec.cores = 8;  // the barrier task is wide, exercising backfill
    return spec;
  });
  return pattern;
}

/// One fresh backend + handle on the shared scale machine.
struct Runtime {
  Runtime()
      : registry(kernels::KernelRegistry::with_builtin_kernels()),
        backend(scale_test::scale_machine()),
        handle(backend, registry,
               [] {
                 ResourceOptions options;
                 options.cores = 2048;
                 options.runtime = 4.0e6;
                 options.scheduler_policy = "backfill";
                 return options;
               }()) {}

  kernels::KernelRegistry registry;
  pilot::SimBackend backend;
  ResourceHandle handle;
};

template <typename Pattern>
std::vector<pilot::ComputeUnitPtr> run_uninterrupted(Pattern pattern) {
  reset_uid_counters_for_testing();
  Runtime rt;
  EXPECT_TRUE(rt.handle.allocate().is_ok());
  auto report = rt.handle.run(pattern);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  if (!report.ok()) return {};
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  return report.take().units;
}

/// Runs with checkpointing and the crash hook armed; returns the
/// snapshot the simulated crash left behind.
template <typename Pattern>
ckpt::Snapshot run_until_crash(Pattern pattern, const std::string& dir,
                               std::uint64_t every_settled,
                               std::uint64_t crash_after) {
  reset_uid_counters_for_testing();
  Runtime rt;
  EXPECT_TRUE(rt.handle.allocate().is_ok());
  ckpt::Coordinator::Options options;
  options.directory = dir;
  options.policy.every_settled = every_settled;
  options.crash_after_snapshots = crash_after;
  ckpt::Coordinator coordinator(rt.backend, rt.handle,
                                std::move(options));
  coordinator.set_identity(pattern.name(), "");
  pattern.set_graph_run_observer(&coordinator);
  auto report = rt.handle.run(pattern);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(
      ckpt::Coordinator::is_checkpoint_stop(report.value().outcome))
      << report.value().outcome.to_string();
  EXPECT_EQ(coordinator.snapshots_written(), crash_after);
  auto snapshot =
      ckpt::read_snapshot_file(coordinator.last_snapshot_path());
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().to_string();
  return snapshot.ok() ? snapshot.take() : ckpt::Snapshot{};
}

/// Restores the snapshot into a fresh runtime and runs to completion.
template <typename Pattern>
std::vector<pilot::ComputeUnitPtr> resume_run(
    Pattern pattern, const ckpt::Snapshot& snapshot,
    const std::string& dir) {
  // The restore contract: reset the uid counters BEFORE allocate() so
  // the pilot creation replay reproduces the snapshot's pilot uids.
  reset_uid_counters_for_testing();
  Runtime rt;
  EXPECT_TRUE(rt.handle.allocate().is_ok());
  ckpt::Coordinator::Options options;
  options.directory = dir;
  ckpt::Coordinator coordinator(rt.backend, rt.handle,
                                std::move(options));
  coordinator.set_identity(pattern.name(), "");
  const Status restored = coordinator.restore_runtime(snapshot);
  EXPECT_TRUE(restored.is_ok()) << restored.to_string();
  if (!restored.is_ok()) return {};
  pattern.set_graph_run_observer(&coordinator);
  auto report = rt.handle.run(pattern);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  if (!report.ok()) return {};
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  return report.take().units;
}

template <typename MakePattern>
void expect_kill_resume_equivalence(MakePattern make,
                                    std::size_t expected_units,
                                    const std::string& dir_name) {
  const std::vector<pilot::ComputeUnitPtr> baseline =
      run_uninterrupted(make());
  ASSERT_EQ(baseline.size(), expected_units);

  const std::string dir = fresh_dir(dir_name);
  const ckpt::Snapshot snapshot =
      run_until_crash(make(), dir, /*every_settled=*/2000,
                      /*crash_after=*/2);
  ASSERT_FALSE(snapshot.units.empty());
  EXPECT_GT(snapshot.engine_now, 0.0);

  const std::vector<pilot::ComputeUnitPtr> resumed =
      resume_run(make(), snapshot, dir);
  ASSERT_EQ(resumed.size(), expected_units);

  // Full-trace equality: the pre-cut timeline comes out of the
  // snapshot, the post-cut timeline out of the resumed engine; both
  // must match the run that never died.
  EXPECT_EQ(scale_test::trace_digest(resumed),
            scale_test::trace_digest(baseline));
  // And the post-cut remaining schedule alone, so a regression that
  // only corrupts restored history cannot mask one that reorders the
  // live remainder (and vice versa).
  EXPECT_EQ(
      scale_test::remaining_schedule_digest(resumed, snapshot.engine_now),
      scale_test::remaining_schedule_digest(baseline,
                                            snapshot.engine_now));
  EXPECT_NE(
      scale_test::remaining_schedule_digest(resumed, snapshot.engine_now),
      scale_test::trace_digest(resumed))
      << "the crash point must leave work to resume";
}

TEST(CheckpointRestart, BagKillResumeReplaysRemainingScheduleBitIdentical) {
  expect_kill_resume_equivalence(
      [] { return scale_test::scale_workload(kBagUnits); },
      static_cast<std::size_t>(kBagUnits), "ckpt_bag");
}

TEST(CheckpointRestart, SalKillResumeReplaysRemainingScheduleBitIdentical) {
  expect_kill_resume_equivalence(
      [] { return sal_workload(); },
      static_cast<std::size_t>(kSalIterations *
                               (kSalSimulations + kSalAnalyses)),
      "ckpt_sal");
}

TEST(CheckpointRestart, SnapshotSurvivesEncodeDecodeRoundTrip) {
  const std::string dir = fresh_dir("ckpt_roundtrip");
  const ckpt::Snapshot snapshot = run_until_crash(
      scale_test::scale_workload(200), dir, /*every_settled=*/50,
      /*crash_after=*/1);
  const std::string bytes = ckpt::encode_snapshot(snapshot);
  auto decoded = ckpt::decode_snapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(ckpt::encode_snapshot(decoded.value()), bytes)
      << "decode must be the exact inverse of encode";
  EXPECT_EQ(decoded.value().units.size(), snapshot.units.size());
  EXPECT_EQ(decoded.value().engine_now, snapshot.engine_now);
}

TEST(CheckpointRestart, FirstSnapshotFileBytesArePinned) {
  // A small seeded bag in a named session, uid counters reset: the
  // snapshot file the coordinator publishes is then a pure function of
  // the run, so its bytes are pinned. Capture and encoding may change
  // how they are produced, never what they produce. The file lists the
  // session's own uid families, "ckpt_golden.job" among them: pilot
  // job uids are drawn per session.
  const std::string dir = fresh_dir("ckpt_golden");
  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(scale_test::scale_machine());
  core::Runtime runtime(backend, registry);
  ResourceOptions resources;
  resources.cores = 2048;
  resources.runtime = 4.0e6;
  resources.scheduler_policy = "backfill";
  auto session = runtime.create_session({"ckpt_golden", resources});
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  ASSERT_TRUE(session.value()->allocate().is_ok());
  ckpt::Coordinator::Options options;
  options.directory = dir;
  options.policy.every_settled = 50;
  options.crash_after_snapshots = 1;
  ckpt::Coordinator coordinator(backend, *session.value(),
                                std::move(options));
  BagOfTasks pattern = scale_test::scale_workload(200);
  coordinator.set_identity(pattern.name(), "");
  pattern.set_graph_run_observer(&coordinator);
  auto report = session.value()->run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(
      ckpt::Coordinator::is_checkpoint_stop(report.value().outcome));

  std::ifstream in(dir + "/ckpt-000001.entkckpt", std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), 77536u);
  EXPECT_EQ(ckpt::fnv1a(bytes), 0xfabd68719c7213b2ULL);
}

TEST(CheckpointRestart, RestoredUnitsAdoptTheirRecordsDescriptions) {
  const std::string dir = fresh_dir("ckpt_adopt");
  const ckpt::Snapshot snapshot =
      run_until_crash(scale_test::scale_workload(200), dir,
                      /*every_settled=*/50, /*crash_after=*/1);
  ASSERT_FALSE(snapshot.units.empty());
  const std::vector<pilot::ComputeUnitPtr> resumed =
      resume_run(scale_test::scale_workload(200), snapshot, dir);
  ASSERT_EQ(resumed.size(), 200u);
  for (std::size_t i = 0; i < snapshot.units.size(); ++i) {
    EXPECT_EQ(resumed[i]->uid(), snapshot.units[i].uid);
    EXPECT_EQ(resumed[i]->shared_description().get(),
              snapshot.units[i].description.get())
        << resumed[i]->uid();
  }
}

/// A named session on its own backend, allocated: its uid families are
/// interned (and counting) in this process from here on.
std::shared_ptr<Session> named_session(core::Runtime& runtime,
                                       const std::string& name) {
  ResourceOptions resources;
  resources.cores = 64;
  resources.runtime = 4.0e6;
  auto session = runtime.create_session({name, resources});
  EXPECT_TRUE(session.ok()) << session.status().to_string();
  EXPECT_TRUE(session.value()->allocate().is_ok());
  return session.take();
}

TEST(CheckpointRestart, UnnamedSnapshotBytesIgnoreEarlierNamedSessions) {
  // An unnamed session's snapshot lists only the legacy families it
  // owns, so its bytes must not depend on which named sessions ran in
  // the process before it.
  const std::string alone = ckpt::encode_snapshot(
      run_until_crash(scale_test::scale_workload(200),
                      fresh_dir("ckpt_unnamed_alone"),
                      /*every_settled=*/50, /*crash_after=*/1));
  {
    auto registry = kernels::KernelRegistry::with_builtin_kernels();
    pilot::SimBackend backend(scale_test::scale_machine());
    core::Runtime runtime(backend, registry);
    auto earlier = named_session(runtime, "earlier");
    BagOfTasks pattern = scale_test::scale_workload(16);
    auto report = earlier->run(pattern);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
  }
  const std::string after = ckpt::encode_snapshot(
      run_until_crash(scale_test::scale_workload(200),
                      fresh_dir("ckpt_unnamed_after"),
                      /*every_settled=*/50, /*crash_after=*/1));
  ASSERT_FALSE(alone.empty());
  EXPECT_TRUE(after == alone)
      << "snapshot bytes depend on process history (" << alone.size()
      << " bytes alone, " << after.size() << " after a named session)";
}

TEST(CheckpointRestart, RestoringAnUnnamedSnapshotLeavesNamedCountersAlone) {
  // A named session is live while an unnamed run is captured and later
  // restored: the restore must not rewind the named session's counters
  // (its next uids would repeat ones it already handed out).
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(scale_test::scale_machine());
  core::Runtime runtime(backend, registry);
  auto live = named_session(runtime, "live");
  const std::string dir = fresh_dir("ckpt_unnamed_restore");
  const ckpt::Snapshot snapshot =
      run_until_crash(scale_test::scale_workload(200), dir,
                      /*every_settled=*/50, /*crash_after=*/1);
  ASSERT_FALSE(snapshot.units.empty());
  BagOfTasks pattern = scale_test::scale_workload(16);
  auto report = live->run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  const auto before = snapshot_uid_counters("live");
  ASSERT_FALSE(before.empty());

  // Reset only the unnamed session's families, so the pilot replay
  // matches the snapshot while "live" keeps counting; "live.job" is
  // among the families that must survive the restore.
  ASSERT_EQ(before.front().first, "live.job");
  for (const char* family : {"unit", "pilot"}) {
    reset_uid_counters_with_prefix(family);
  }
  Runtime rt;
  ASSERT_TRUE(rt.handle.allocate().is_ok());
  ckpt::Coordinator::Options options;
  options.directory = dir;
  ckpt::Coordinator coordinator(rt.backend, rt.handle, std::move(options));
  const Status restored = coordinator.restore_runtime(snapshot);
  ASSERT_TRUE(restored.is_ok()) << restored.to_string();
  EXPECT_EQ(snapshot_uid_counters("live"), before);
}

TEST(CheckpointRestart, StopRequestWritesFinalSnapshotAndStops) {
  const std::string dir = fresh_dir("ckpt_stop");
  reset_uid_counters_for_testing();
  Runtime rt;
  ASSERT_TRUE(rt.handle.allocate().is_ok());
  ckpt::Coordinator::Options options;
  options.directory = dir;
  bool stop = false;
  options.stop_requested = [&stop] { return stop; };
  ckpt::Coordinator coordinator(rt.backend, rt.handle,
                                std::move(options));
  BagOfTasks pattern = scale_test::scale_workload(500);
  coordinator.set_identity(pattern.name(), "");
  pattern.set_graph_run_observer(&coordinator);
  // Fire the "signal" the moment a unit settles, mid-run.
  const auto token = rt.handle.unit_manager()->add_settled_observer(
      [&stop](const pilot::ComputeUnitPtr&, pilot::UnitState) {
        stop = true;
      });
  auto report = rt.handle.run(pattern);
  rt.handle.unit_manager()->remove_settled_observer(token);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(
      ckpt::Coordinator::is_checkpoint_stop(report.value().outcome));
  EXPECT_EQ(coordinator.snapshots_written(), 1u);
  EXPECT_TRUE(
      std::filesystem::exists(coordinator.last_snapshot_path()));
}

TEST(CheckpointRestart, WorkloadRunCrashesAndResumesThroughFrontDoor) {
  WorkloadSpec spec;
  spec.backend = "sim";
  spec.machine = "xsede.comet";
  spec.cores = 24;
  spec.runtime = 36000.0;
  spec.scheduler = "backfill";
  spec.pattern = "bag";
  spec.simulations = 64;
  Config task;
  task.set("kernel", "misc.sleep");
  task.set("duration", 30.0);
  spec.sections["task"] = task;
  ASSERT_TRUE(spec.validate().is_ok());
  auto registry = kernels::KernelRegistry::with_builtin_kernels();

  const std::string dir = fresh_dir("ckpt_front_door");
  ckpt::CheckpointedRunOptions options;
  options.directory = dir;
  options.policy.every_settled = 16;
  options.crash_after_snapshots = 1;
  reset_uid_counters_for_testing();
  auto crashed =
      ckpt::run_workload_with_checkpoints(spec, registry, options);
  ASSERT_TRUE(crashed.ok()) << crashed.status().to_string();
  ASSERT_TRUE(crashed.value().checkpoint_stop);
  ASSERT_EQ(crashed.value().snapshots_written, 1u);

  ckpt::CheckpointedRunOptions resume_options;
  resume_options.directory = dir;
  resume_options.resume_path = crashed.value().last_snapshot_path;
  auto resumed = ckpt::run_workload_with_checkpoints(spec, registry,
                                                     resume_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_FALSE(resumed.value().checkpoint_stop);
  EXPECT_TRUE(resumed.value().report.outcome.is_ok())
      << resumed.value().report.outcome.to_string();
  EXPECT_EQ(resumed.value().report.units.size(), 64u);

  // A snapshot from workload A must not resume workload B.
  WorkloadSpec other = spec;
  other.simulations = 65;
  reset_uid_counters_for_testing();
  auto mismatch = ckpt::run_workload_with_checkpoints(other, registry,
                                                      resume_options);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.status().message().find("different workload"),
            std::string::npos)
      << mismatch.status().to_string();
}

}  // namespace
}  // namespace entk::core
