// Tests of the EnTK core: patterns, execution plugin, resource handle,
// overhead profiling — all on the simulated backend.
#include <gtest/gtest.h>

#include "core/entk.hpp"

namespace entk::core {
namespace {

TaskSpec sleep_spec(double duration) {
  TaskSpec spec;
  spec.kernel = "misc.sleep";
  spec.args.set("duration", duration);
  return spec;
}

class CorePatternTest : public ::testing::Test {
 protected:
  CorePatternTest()
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

TEST_F(CorePatternTest, BagOfTasksRunsAllTasks) {
  auto handle = make_handle(8);
  ASSERT_TRUE(handle.allocate().is_ok());
  BagOfTasks pattern(16, [](const StageContext&) { return sleep_spec(2.0); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().outcome.is_ok());
  EXPECT_EQ(report.value().units.size(), 16u);
  for (const auto& unit : report.value().units) {
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone);
  }
  EXPECT_TRUE(handle.deallocate().is_ok());
}

TEST_F(CorePatternTest, RunWithoutAllocateFails) {
  auto handle = make_handle(4);
  BagOfTasks pattern(1, [](const StageContext&) { return sleep_spec(1.0); });
  EXPECT_EQ(handle.run(pattern).status().code(), Errc::kFailedPrecondition);
}

TEST_F(CorePatternTest, PipelineStagesChainInOrderPerPipeline) {
  auto handle = make_handle(8);
  ASSERT_TRUE(handle.allocate().is_ok());

  EnsembleOfPipelines pattern(4, 3);
  for (Count s = 1; s <= 3; ++s) {
    pattern.set_stage(s, [](const StageContext&) { return sleep_spec(5.0); });
  }
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  ASSERT_EQ(pattern.units().size(), 12u);

  // Units are submitted stage-by-stage per pipeline; group them back by
  // pipeline through their submission order: the first 4 are stage 1.
  // Verify chaining: every stage-2 unit starts only after some stage-1
  // unit stopped, and per-pipeline ordering is strictly increasing.
  // (Pipeline identity is implied by chained submission in this test:
  // each stage-1 completion triggers exactly one stage-2 submission.)
  std::vector<TimePoint> stage1_stops;
  for (std::size_t i = 0; i < 4; ++i) {
    stage1_stops.push_back(pattern.units()[i]->exec_stopped_at());
  }
  for (std::size_t i = 4; i < pattern.units().size(); ++i) {
    const auto& unit = pattern.units()[i];
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone);
    EXPECT_GE(unit->submitted_at(),
              *std::min_element(stage1_stops.begin(), stage1_stops.end()));
  }
}

TEST_F(CorePatternTest, PipelinesProgressIndependently) {
  // 2 pipelines x 2 stages on 2 cores, but pipeline 0 has much shorter
  // tasks: its stage 2 must start before pipeline 1's stage 1 ends —
  // i.e. no global barrier between stages.
  auto handle = make_handle(2);
  ASSERT_TRUE(handle.allocate().is_ok());

  EnsembleOfPipelines pattern(2, 2);
  auto stage_fn = [](const StageContext& context) {
    return sleep_spec(context.instance == 0 ? 2.0 : 50.0);
  };
  pattern.set_stage(1, stage_fn);
  pattern.set_stage(2, stage_fn);
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());

  // Submission order: [p0s1, p1s1] then chained stage-2 units. The
  // fast pipeline's stage-2 unit must have started while the slow
  // pipeline's stage-1 unit was still executing.
  const auto& units = pattern.units();
  ASSERT_EQ(units.size(), 4u);
  const auto& slow_stage1 = units[1];
  const auto& fast_stage2 = units[2];
  EXPECT_LT(fast_stage2->exec_started_at(), slow_stage1->exec_stopped_at());
}

TEST_F(CorePatternTest, PipelineAbortsOnStageFailure) {
  auto handle = make_handle(4);
  ASSERT_TRUE(handle.allocate().is_ok());
  EnsembleOfPipelines pattern(2, 3);
  pattern.set_stage(1, [](const StageContext& context) {
    auto spec = sleep_spec(1.0);
    spec.inject_failure = context.instance == 1;  // pipeline 1 fails
    return spec;
  });
  pattern.set_stage(2, [](const StageContext&) { return sleep_spec(1.0); });
  pattern.set_stage(3, [](const StageContext&) { return sleep_spec(1.0); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().outcome.is_ok());
  // Pipeline 0 completed all three stages; pipeline 1 only attempted
  // stage 1: 3 + 1 units.
  EXPECT_EQ(pattern.units().size(), 4u);
}

TEST_F(CorePatternTest, PipelineRetriesFailedStageAndContinues) {
  auto handle = make_handle(4);
  ASSERT_TRUE(handle.allocate().is_ok());
  EnsembleOfPipelines pattern(1, 2);
  pattern.set_stage(1, [](const StageContext&) {
    auto spec = sleep_spec(1.0);
    spec.inject_failure = true;
    spec.retry.max_retries = 1;
    return spec;
  });
  pattern.set_stage(2, [](const StageContext&) { return sleep_spec(1.0); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  ASSERT_EQ(pattern.units().size(), 2u);
  EXPECT_EQ(pattern.units()[0]->retries(), 1);
  EXPECT_EQ(pattern.units()[0]->state(), pilot::UnitState::kDone);
}

TEST_F(CorePatternTest, SalIteratesWithBarriers) {
  auto handle = make_handle(8);
  ASSERT_TRUE(handle.allocate().is_ok());
  SimulationAnalysisLoop pattern(2, 4, 1);
  pattern.set_simulation(
      [](const StageContext&) { return sleep_spec(10.0); });
  pattern.set_analysis([](const StageContext&) { return sleep_spec(3.0); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  ASSERT_EQ(pattern.simulation_units().size(), 8u);
  ASSERT_EQ(pattern.analysis_units().size(), 2u);

  // Barrier: iteration-1 analysis starts after every iteration-1
  // simulation stopped, and iteration-2 simulations start after it.
  TimePoint last_sim_stop_iter1 = 0.0;
  for (std::size_t s = 0; s < 4; ++s) {
    last_sim_stop_iter1 = std::max(
        last_sim_stop_iter1, pattern.simulation_units()[s]->exec_stopped_at());
  }
  const auto& analysis1 = pattern.analysis_units()[0];
  EXPECT_GE(analysis1->exec_started_at(), last_sim_stop_iter1);
  for (std::size_t s = 4; s < 8; ++s) {
    EXPECT_GE(pattern.simulation_units()[s]->exec_started_at(),
              analysis1->exec_stopped_at());
  }
}

TEST_F(CorePatternTest, SalAdaptiveCountsChangeBetweenIterations) {
  auto handle = make_handle(8);
  ASSERT_TRUE(handle.allocate().is_ok());
  SimulationAnalysisLoop pattern(3, 2, 1);
  pattern.set_adaptive_counts([](Count iteration) {
    return std::make_pair<Count, Count>(iteration + 1, 1);
  });
  pattern.set_simulation(
      [](const StageContext&) { return sleep_spec(1.0); });
  pattern.set_analysis([](const StageContext&) { return sleep_spec(1.0); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  // 2 + 3 + 4 simulations, 3 analyses.
  EXPECT_EQ(pattern.simulation_units().size(), 9u);
  EXPECT_EQ(pattern.analysis_units().size(), 3u);
}

TEST_F(CorePatternTest, EnsembleExchangeGlobalSweepAlternatesStages) {
  auto handle = make_handle(8);
  ASSERT_TRUE(handle.allocate().is_ok());
  EnsembleExchange pattern(4, 3, EnsembleExchange::ExchangeMode::kGlobalSweep);
  pattern.set_simulation(
      [](const StageContext&) { return sleep_spec(8.0); });
  pattern.set_exchange([](const StageContext&) { return sleep_spec(1.0); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  EXPECT_EQ(pattern.simulation_units().size(), 12u);
  EXPECT_EQ(pattern.exchange_units().size(), 3u);
  // Exchange k must start after all cycle-k simulations.
  for (std::size_t cycle = 0; cycle < 3; ++cycle) {
    TimePoint last_sim = 0.0;
    for (std::size_t r = 0; r < 4; ++r) {
      last_sim = std::max(last_sim, pattern.simulation_units()[cycle * 4 + r]
                                        ->exec_stopped_at());
    }
    EXPECT_GE(pattern.exchange_units()[cycle]->exec_started_at(), last_sim);
  }
}

TEST_F(CorePatternTest, EnsembleExchangePairwiseSkipsGlobalBarrier) {
  // 4 replicas on 4 cores; replicas 0,1 finish fast, 2,3 slowly. In
  // pairwise mode the (0,1) exchange must run before replica 3's
  // simulation has finished.
  auto handle = make_handle(4);
  ASSERT_TRUE(handle.allocate().is_ok());
  EnsembleExchange pattern(4, 1, EnsembleExchange::ExchangeMode::kPairwise);
  pattern.set_simulation([](const StageContext& context) {
    return sleep_spec(context.instance < 2 ? 2.0 : 60.0);
  });
  pattern.set_pair_exchange([](Count, Count, Count) {
    return sleep_spec(1.0);
  });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  ASSERT_EQ(pattern.exchange_units().size(), 2u);
  const auto& fast_exchange = pattern.exchange_units()[0];
  const auto& slow_sim = pattern.simulation_units()[3];
  EXPECT_LT(fast_exchange->exec_stopped_at(), slow_sim->exec_stopped_at());
}

TEST_F(CorePatternTest, SequenceComposesPatterns) {
  auto handle = make_handle(4);
  ASSERT_TRUE(handle.allocate().is_ok());
  auto first = std::make_unique<BagOfTasks>(
      2, [](const StageContext&) { return sleep_spec(2.0); });
  auto second = std::make_unique<BagOfTasks>(
      3, [](const StageContext&) { return sleep_spec(2.0); });
  auto* first_raw = first.get();
  auto* second_raw = second.get();
  SequencePattern sequence("combo");
  sequence.append(std::move(first));
  sequence.append(std::move(second));
  auto report = handle.run(sequence);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  EXPECT_EQ(report.value().units.size(), 5u);
  // Second pattern's units start after the first pattern finished.
  TimePoint first_done = 0.0;
  for (const auto& unit : first_raw->units()) {
    first_done = std::max(first_done, unit->exec_stopped_at());
  }
  for (const auto& unit : second_raw->units()) {
    EXPECT_GE(unit->exec_started_at(), first_done);
  }
}

TEST_F(CorePatternTest, ValidationErrorsAreReported) {
  auto handle = make_handle(4);
  ASSERT_TRUE(handle.allocate().is_ok());

  BagOfTasks empty_bag(0, [](const StageContext&) { return TaskSpec{}; });
  auto report = handle.run(empty_bag);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().outcome.code(), Errc::kInvalidArgument);

  EnsembleOfPipelines missing_stage(2, 2);
  missing_stage.set_stage(1,
                          [](const StageContext&) { return TaskSpec{}; });
  report = handle.run(missing_stage);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().outcome.code(), Errc::kInvalidArgument);

  BagOfTasks unknown_kernel(1, [](const StageContext&) {
    TaskSpec spec;
    spec.kernel = "no.such.kernel";
    return spec;
  });
  report = handle.run(unknown_kernel);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().outcome.code(), Errc::kNotFound);
}

TEST_F(CorePatternTest, OverheadProfileDecomposesTtc) {
  auto handle = make_handle(8);
  ASSERT_TRUE(handle.allocate().is_ok());
  BagOfTasks pattern(8, [](const StageContext&) { return sleep_spec(10.0); });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  const OverheadProfile& overheads = report.value().overheads;
  EXPECT_EQ(overheads.n_units, 8u);
  EXPECT_DOUBLE_EQ(overheads.core_overhead, handle.core_overhead());
  EXPECT_NEAR(overheads.pattern_overhead,
              8 * handle.options().per_task_overhead, 1e-9);
  // All tasks concurrent: execution spans ~10s plus the staggered
  // spawn offsets.
  EXPECT_GE(overheads.execution_time, 10.0);
  EXPECT_LT(overheads.execution_time, 12.0);
  EXPECT_GT(overheads.runtime_overhead, 0.0);
  EXPECT_NEAR(overheads.ttc,
              overheads.core_overhead + report.value().run_span, 1e-9);
  EXPECT_GT(overheads.pilot_startup, 0.0);
  EXPECT_NEAR(overheads.mean_unit_execution, 10.0, 1e-9);
}

TEST_F(CorePatternTest, ExecutionPluginTranslatesSpecs) {
  auto handle = make_handle(4);
  ASSERT_TRUE(handle.allocate().is_ok());
  ExecutionPlugin plugin(registry_, *handle.unit_manager(), backend_);

  TaskSpec spec;
  spec.kernel = "md.simulate";
  spec.args.set("steps", 3000);
  spec.args.set("n_particles", 2881);
  spec.args.set("cores", 4);
  auto description = plugin.translate(spec);
  ASSERT_TRUE(description.ok()) << description.status().to_string();
  EXPECT_EQ(description.value()->cores, 4);
  EXPECT_TRUE(description.value()->uses_mpi);
  EXPECT_GT(description.value()->simulated_duration, 0.0);
  EXPECT_EQ(description.value()->output_staging.size(), 1u);

  // Core override rescales the cost model linearly.
  TaskSpec serial = spec;
  serial.args.set("cores", 1);
  TaskSpec overridden = serial;
  overridden.cores = 4;
  const auto serial_duration =
      plugin.translate(serial).value()->simulated_duration;
  const auto overridden_duration =
      plugin.translate(overridden).value()->simulated_duration;
  EXPECT_NEAR(overridden_duration, serial_duration / 4.0, 1e-9);
}

}  // namespace
}  // namespace entk::core
