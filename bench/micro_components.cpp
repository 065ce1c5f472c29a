// Microbenchmarks of the toolkit's hot paths (google-benchmark):
// event-engine throughput, scheduler selection, kernel translation,
// task-callable construction (TaskFn vs std::function), the MD force
// loop and the analysis eigensolver.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "analysis/eigen.hpp"
#include "common/rng.hpp"
#include "common/task_fn.hpp"
#include "common/uid.hpp"
#include "core/execution_plugin.hpp"
#include "kernels/registry.hpp"
#include "md/builder.hpp"
#include "md/forcefield.hpp"
#include "pilot/scheduler.hpp"
#include "pilot/sim_backend.hpp"
#include "pilot/unit_manager.hpp"
#include "sim/engine.hpp"

namespace {

using namespace entk;

void BM_EngineScheduleDispatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      engine.schedule(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) *
                          state.iterations());
}
BENCHMARK(BM_EngineScheduleDispatch)->Arg(1000)->Arg(10000);

void BM_SchedulerSelect(benchmark::State& state) {
  WallClock clock;
  Xoshiro256 rng(1234);
  std::deque<pilot::ComputeUnitPtr> waiting;
  for (int i = 0; i < state.range(0); ++i) {
    pilot::UnitDescription description;
    description.name = "bench";
    description.executable = "x";
    description.cores = 1 + static_cast<Count>(rng.uniform_index(8));
    description.uses_mpi = description.cores > 1;
    description.simulated_duration = 1.0;
    auto unit = std::make_shared<pilot::ComputeUnit>(
        next_uid("benchunit"),
        std::make_shared<const pilot::UnitDescription>(
            std::move(description)),
        clock);
    (void)unit->advance_state(pilot::UnitState::kPendingExecution);
    waiting.push_back(std::move(unit));
  }
  pilot::BackfillScheduler scheduler;
  for (auto _ : state) {
    auto picks = scheduler.select(waiting, 64);
    benchmark::DoNotOptimize(picks);
  }
}
BENCHMARK(BM_SchedulerSelect)->Arg(64)->Arg(1024);

void BM_KernelTranslate(benchmark::State& state) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::comet_profile());
  pilot::UnitManager manager(backend);
  core::ExecutionPlugin plugin(registry, manager, backend);
  core::TaskSpec spec;
  spec.kernel = "md.simulate";
  spec.args.set("steps", 3000);
  spec.args.set("n_particles", 2881);
  for (auto _ : state) {
    auto description = plugin.translate(spec);
    benchmark::DoNotOptimize(description);
  }
}
BENCHMARK(BM_KernelTranslate);

void BM_ForceFieldCompute(benchmark::State& state) {
  md::System system =
      md::build_fluid(static_cast<std::size_t>(state.range(0)));
  const md::ForceField forcefield;
  for (auto _ : state) {
    const double energy = forcefield.compute(system);
    benchmark::DoNotOptimize(energy);
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_ForceFieldCompute)->Arg(512)->Arg(2881);

// ---- task-callable construction: the pools' enqueue hot path ------
//
// The pools wrap every submission in a callable; the capture below
// (two pointers + a counter) is the typical size of a pool task
// (LocalAgent: this + a shared_ptr). TaskFn stores it inline —
// counted allocations must be ZERO — while std::function's copyable
// erasure generally heap-allocates. The counter instruments global
// operator new, so the two benchmarks report allocations per
// construct+invoke in the "allocs_per_op" counter.

std::atomic<std::size_t> g_allocs{0};

struct AllocationCounting {
  static void* allocate(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
  }
};

}  // namespace

void* operator new(std::size_t size) {
  return AllocationCounting::allocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

template <typename Callable>
void run_callable_bench(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t* out = &sink;
  const std::uint64_t step = 3;
  const std::size_t before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    Callable task([out, step, local = std::uint64_t{0}]() mutable {
      local += step;
      *out += local;
    });
    task();
    benchmark::DoNotOptimize(task);
  }
  const std::size_t after = g_allocs.load(std::memory_order_relaxed);
  benchmark::DoNotOptimize(sink);
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(after - before) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1)));
}

void BM_TaskFnConstructInvoke(benchmark::State& state) {
  run_callable_bench<TaskFn>(state);
}
BENCHMARK(BM_TaskFnConstructInvoke);

void BM_StdFunctionConstructInvoke(benchmark::State& state) {
  run_callable_bench<std::function<void()>>(state);
}
BENCHMARK(BM_StdFunctionConstructInvoke);

void BM_JacobiEigensolver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(777);
  analysis::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double value = rng.normal();
      m(i, j) = value;
      m(j, i) = value;
    }
  }
  for (auto _ : state) {
    auto eig = analysis::eigen_symmetric(m);
    benchmark::DoNotOptimize(eig);
  }
}
BENCHMARK(BM_JacobiEigensolver)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
