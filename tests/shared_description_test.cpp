// One immutable unit description per distinct task: the execution
// plugin binds a run of equal TaskSpecs once and every unit of the run
// shares the result; specs that differ, even only in a substituted
// per-task value, still get descriptions of their own.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "core/entk.hpp"
#include "core/workload_file.hpp"

namespace entk::core {
namespace {

TaskSpec sleep_spec(double duration) {
  TaskSpec spec;
  spec.kernel = "misc.sleep";
  spec.args.set("duration", duration);
  return spec;
}

class SharedDescriptionTest : public ::testing::Test {
 protected:
  SharedDescriptionTest()
      : registry_(kernels::KernelRegistry::with_builtin_kernels()),
        backend_(sim::localhost_profile()) {}

  ResourceHandle make_handle(Count cores) {
    ResourceOptions options;
    options.cores = cores;
    return ResourceHandle(backend_, registry_, options);
  }

  kernels::KernelRegistry registry_;
  pilot::SimBackend backend_;
};

TEST_F(SharedDescriptionTest, EqualSpecsShareOneDescription) {
  auto handle = make_handle(8);
  ASSERT_TRUE(handle.allocate().is_ok());
  BagOfTasks pattern(1000,
                     [](const StageContext&) { return sleep_spec(2.0); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report.value().outcome.is_ok());
  const auto& units = report.value().units;
  ASSERT_EQ(units.size(), 1000u);
  const pilot::UnitDescription* shared = &units.front()->description();
  for (const auto& unit : units) {
    EXPECT_EQ(&unit->description(), shared) << unit->uid();
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone);
  }
  EXPECT_EQ(shared->simulated_duration, 2.0);
  EXPECT_EQ(shared->session, handle.unit_manager()->session());
}

TEST_F(SharedDescriptionTest, PerTaskPlaceholdersYieldDistinctDescriptions) {
  auto workload = parse_workload(
      "backend  = sim\n"
      "machine  = localhost\n"
      "cores    = 8\n"
      "pattern  = bag\n"
      "tasks    = 16\n"
      "\n[task]\n"
      "kernel   = misc.sleep\n"
      "duration = 1{instance}\n");
  ASSERT_TRUE(workload.ok()) << workload.status().to_string();
  auto resolved = resolve_workload(workload.value(), registry_);
  ASSERT_TRUE(resolved.ok()) << resolved.status().to_string();
  auto pattern = build_pattern(resolved.value());
  ASSERT_TRUE(pattern.ok()) << pattern.status().to_string();
  auto handle = make_handle(8);
  ASSERT_TRUE(handle.allocate().is_ok());
  auto report = handle.run(*pattern.value());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report.value().outcome.is_ok());
  const auto& units = report.value().units;
  ASSERT_EQ(units.size(), 16u);
  std::set<const pilot::UnitDescription*> distinct;
  std::set<double> durations;
  for (const auto& unit : units) {
    distinct.insert(&unit->description());
    durations.insert(unit->description().simulated_duration);
    EXPECT_EQ(unit->description().arguments.size(), 1u);
  }
  EXPECT_EQ(distinct.size(), 16u);
  // Instances 0..15 substitute to durations 10..115: each unit carries
  // its own value, not its neighbour's.
  std::set<double> expected;
  for (int instance = 0; instance < 16; ++instance) {
    expected.insert(std::stod("1" + std::to_string(instance)));
  }
  EXPECT_EQ(durations, expected);
}

TEST_F(SharedDescriptionTest, UntranslatableSpecFailsOnlyItsNode) {
  // All four first stages form one batch; pipeline 2's spec names no
  // kernel, so the batch fails and the per-node fallback submits the
  // other three on their own.
  auto handle = make_handle(8);
  ASSERT_TRUE(handle.allocate().is_ok());
  EnsembleOfPipelines pattern(4, 2);
  pattern.set_stage(1, [](const StageContext& context) {
    TaskSpec spec = sleep_spec(3.0);
    if (context.instance == 2) spec.kernel = "no.such.kernel";
    return spec;
  });
  pattern.set_stage(2, [](const StageContext&) { return sleep_spec(1.0); });
  FailureRules rules;
  rules.policy = FailurePolicy::kContinueOnFailure;
  pattern.set_failure_rules(rules);
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  // Pipeline 2 ended at its first stage, which never got a unit, and
  // its second stage was skipped; the other three ran both stages, and
  // continue-on-failure tolerates the lost pipeline.
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  const auto& units = report.value().units;
  ASSERT_EQ(units.size(), 6u);
  for (const auto& unit : units) {
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone) << unit->uid();
  }
}

TEST_F(SharedDescriptionTest, ManagerRejectsAForeignSessionStamp) {
  pilot::UnitManager manager(backend_, "stamp-test");
  pilot::UnitDescription description;
  description.name = "foreign";
  description.session = "another-session";
  const pilot::SharedUnitDescription shared =
      std::make_shared<const pilot::UnitDescription>(description);
  auto units = manager.submit_units({shared, shared});
  EXPECT_EQ(units.status().code(), Errc::kInvalidArgument);
  EXPECT_EQ(manager.total_units(), 0u);
  // The manager never rewrites a stamp: the description is unchanged.
  EXPECT_EQ(shared->session, "another-session");
}

TEST(ComputeUnitRecord, StaysLean) {
  // The record every unit of a 100k bag pays for: an id, a shared
  // description, the state machine and its timeline.
  EXPECT_LE(sizeof(pilot::ComputeUnit), 256u);
}

}  // namespace
}  // namespace entk::core
