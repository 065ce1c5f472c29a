// Edge cases of the core-utilization sweep (core/utilization.hpp):
// empty runs, multi-core MPI overlap, and back-to-back windows whose
// shared edge must not double-count cores.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "common/clock.hpp"
#include "core/utilization.hpp"
#include "pilot/compute_unit.hpp"
#include "unit_test_util.hpp"

namespace entk {
namespace {

/// Drives a unit through the legal lifecycle so its execution stamps
/// land exactly at [start, stop] on the shared manual clock.
pilot::ComputeUnitPtr executed_unit(ManualClock& clock,
                                    const std::string& uid, Count cores,
                                    TimePoint start, TimePoint stop) {
  pilot::UnitDescription description;
  description.name = uid;
  description.cores = cores;
  description.uses_mpi = cores > 1;
  auto unit = std::make_shared<pilot::ComputeUnit>(
      uid, pilot::share_description(description), clock);
  EXPECT_TRUE(
      unit->advance_state(pilot::UnitState::kPendingExecution).is_ok());
  clock.advance_to(start);
  EXPECT_TRUE(unit->advance_state(pilot::UnitState::kExecuting).is_ok());
  clock.advance_to(stop);
  EXPECT_TRUE(
      unit->advance_state(pilot::UnitState::kStagingOutput).is_ok());
  EXPECT_TRUE(unit->advance_state(pilot::UnitState::kDone).is_ok());
  return unit;
}

TEST(Utilization, NoUnitsYieldsAllZeroes) {
  const auto report = core::compute_utilization({}, 16);
  EXPECT_EQ(report.executed_units, 0u);
  EXPECT_DOUBLE_EQ(report.average_utilization, 0.0);
  EXPECT_DOUBLE_EQ(report.busy_core_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.window, 0.0);
  EXPECT_EQ(report.peak_concurrent_cores, 0);
}

TEST(Utilization, UnitsThatNeverExecutedAreIgnored) {
  ManualClock clock;
  pilot::UnitDescription description;
  description.cores = 4;
  std::vector<pilot::ComputeUnitPtr> units;
  // Never left kNew: no execution stamps at all.
  units.push_back(std::make_shared<pilot::ComputeUnit>(
      "unit.idle", pilot::share_description(description), clock));
  // Canceled while waiting: finished_at set, exec stamps still kNoTime.
  auto canceled = std::make_shared<pilot::ComputeUnit>(
      "unit.canceled", pilot::share_description(description), clock);
  ASSERT_TRUE(
      canceled->advance_state(pilot::UnitState::kPendingExecution).is_ok());
  ASSERT_TRUE(
      canceled->advance_state(pilot::UnitState::kCanceled).is_ok());
  units.push_back(canceled);

  const auto report = core::compute_utilization(units, 8);
  EXPECT_EQ(report.executed_units, 0u);
  EXPECT_DOUBLE_EQ(report.average_utilization, 0.0);
  EXPECT_EQ(report.peak_concurrent_cores, 0);
}

TEST(Utilization, MpiUnitsCountAllTheirCoresWhileOverlapping) {
  // Two 4-core MPI units overlapping on [4, 6], plus a single-core
  // unit inside the overlap. Peak concurrency must see 4 + 4 + 1.
  // Each unit gets its own clock: ManualClock is monotone, and these
  // windows rewind relative to each other.
  std::deque<ManualClock> clocks(3);
  std::vector<pilot::ComputeUnitPtr> units;
  units.push_back(executed_unit(clocks[0], "mpi.a", 4, 0.0, 6.0));
  units.push_back(executed_unit(clocks[1], "mpi.b", 4, 4.0, 10.0));
  units.push_back(executed_unit(clocks[2], "serial.c", 1, 4.0, 6.0));

  const auto report = core::compute_utilization(units, 16);
  EXPECT_EQ(report.executed_units, 3u);
  EXPECT_DOUBLE_EQ(report.busy_core_seconds, 4 * 6.0 + 4 * 6.0 + 1 * 2.0);
  EXPECT_DOUBLE_EQ(report.window, 10.0);
  EXPECT_EQ(report.peak_concurrent_cores, 9);
  EXPECT_DOUBLE_EQ(report.average_utilization, 50.0 / (16.0 * 10.0));
}

TEST(Utilization, BackToBackWindowsDoNotDoubleCountTheSharedEdge) {
  // B starts at the instant A stops. The sweep must process A's
  // release before B's acquire, so peak concurrency is one unit's
  // width, not the sum.
  ManualClock clock;
  std::vector<pilot::ComputeUnitPtr> units;
  units.push_back(executed_unit(clock, "chain.a", 8, 0.0, 5.0));
  units.push_back(executed_unit(clock, "chain.b", 8, 5.0, 10.0));

  const auto report = core::compute_utilization(units, 8);
  EXPECT_EQ(report.executed_units, 2u);
  EXPECT_EQ(report.peak_concurrent_cores, 8);
  EXPECT_DOUBLE_EQ(report.window, 10.0);
  EXPECT_DOUBLE_EQ(report.busy_core_seconds, 80.0);
  // A perfectly-packed chain keeps the pilot 100% busy.
  EXPECT_DOUBLE_EQ(report.average_utilization, 1.0);
}

TEST(Utilization, ZeroLengthExecutionsAreSkipped) {
  ManualClock clock;
  std::vector<pilot::ComputeUnitPtr> units;
  // Start == stop: contributes nothing (guards div-by-zero windows).
  units.push_back(executed_unit(clock, "instant.a", 2, 3.0, 3.0));
  units.push_back(executed_unit(clock, "real.b", 2, 3.0, 7.0));

  const auto report = core::compute_utilization(units, 4);
  EXPECT_EQ(report.executed_units, 1u);
  EXPECT_DOUBLE_EQ(report.busy_core_seconds, 8.0);
  EXPECT_DOUBLE_EQ(report.window, 4.0);
  EXPECT_EQ(report.peak_concurrent_cores, 2);
}

}  // namespace
}  // namespace entk
