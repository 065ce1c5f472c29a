// Allocation gate: heap allocations per settled unit of a seeded
// 10 000-unit simulated bag.
//
// The count depends on the code and the standard library, not on the
// speed of the host, so the gate holds on any machine. This binary
// replaces the global operator new/delete with counting versions; it
// is its own executable so no other test pays for, or disturbs, the
// count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/rng.hpp"
#include "core/entk.hpp"
#include "scale_test_util.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* block = std::malloc(size == 0 ? 1 : size);
  if (block == nullptr) throw std::bad_alloc();
  return block;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}

namespace entk::core {
namespace {

constexpr Count kUnits = 10000;
constexpr Count kCores = 1000;  // ten waves, as in perfbench's bag_wide
/// Allocations per settled unit: the value measured when the gate was
/// set (14.03 with g++ 12 / libstdc++; 30.03 before units shared their
/// description and listener) plus 10%. Copying a list of listeners on
/// every state transition, as units once did, adds about ten per unit
/// and trips it.
constexpr double kMaxAllocationsPerUnit = 15.4;

TEST(AllocationGate, SimBagAllocationsPerSettledUnitStayBounded) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(scale_test::scale_machine());
  ResourceOptions options;
  options.cores = kCores;
  options.runtime = 4.0e6;
  options.scheduler_policy = "backfill";
  ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());
  // One seeded duration for every task, as in a workload-file bag.
  Xoshiro256 rng(3);
  const double duration = 20.0 + 40.0 * rng.uniform();
  BagOfTasks pattern(kUnits, [duration](const StageContext&) {
    TaskSpec spec;
    spec.kernel = "misc.sleep";
    spec.args.set("duration", duration);
    return spec;
  });

  std::uint64_t allocations = 0;
  std::size_t settled = 0;
  {
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    auto report = handle.run(pattern);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    ASSERT_TRUE(report.value().outcome.is_ok());
    for (const auto& unit : report.value().units) {
      if (unit->state() == pilot::UnitState::kDone) ++settled;
    }
    allocations = g_allocations.load(std::memory_order_relaxed) - before;
  }
  ASSERT_EQ(settled, static_cast<std::size_t>(kUnits));
  const double per_unit =
      static_cast<double>(allocations) / static_cast<double>(settled);
  std::printf("allocations: %llu for %zu settled units = %.2f per unit\n",
              static_cast<unsigned long long>(allocations), settled,
              per_unit);
  EXPECT_LE(per_unit, kMaxAllocationsPerUnit);
  EXPECT_TRUE(handle.deallocate().is_ok());
}

}  // namespace
}  // namespace entk::core
