// Seeded workload generation. The seed picks every per-stage duration
// and, for serve_open, each submission's arrival jitter and tenant; the
// toolkit only ever sees the generated workload-file text.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: a fixed, portable stream (the standard distributions
/// are implementation-defined, so they are not used for inputs).
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [lo, hi), rounded to milliseconds so the text is exact.
  double duration(double lo, double hi) {
    const double raw = lo + (hi - lo) * uniform();
    return static_cast<double>(static_cast<std::int64_t>(raw * 1000.0)) /
           1000.0;
  }

 private:
  std::uint64_t state_;
};

inline std::string fixed3(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

// Sizes of the two entk-run workloads.
inline constexpr long kBagTasks = 100000;
inline constexpr long kBagCores = 10000;  // 10 waves
inline constexpr long kChainPipelines = 12500;
inline constexpr long kChainStages = 4;
inline constexpr long kChainCores = 4000;
inline constexpr long kChainSnapshotEvery = 10000;  // settled units

inline std::string resource_block(long cores, const std::string& pattern) {
  return "backend   = sim\n"
         "machine   = xsede.comet\n"
         "cores     = " + std::to_string(cores) + "\n"
         "runtime   = 3600000\n"
         "scheduler = backfill\n"
         "pattern   = " + pattern + "\n";
}

inline std::string sleep_section(const std::string& name, double duration) {
  return "\n[" + name + "]\nkernel   = misc.sleep\nduration = " +
         fixed3(duration) + "\n";
}

/// bag_wide: one wide bag of sleeps, ten waves deep on its pilot.
inline std::string bag_wide_text(std::uint64_t seed) {
  SeedStream rng(seed * 2 + 1);
  return resource_block(kBagCores, "bag") +
         "tasks     = " + std::to_string(kBagTasks) + "\n" +
         sleep_section("task", rng.duration(20.0, 60.0));
}

/// chain_ckpt: many short pipelines; every settle releases a successor.
inline std::string chain_ckpt_text(std::uint64_t seed) {
  SeedStream rng(seed * 2 + 2);
  std::string text = resource_block(kChainCores, "eop") +
                     "pipelines = " + std::to_string(kChainPipelines) +
                     "\nstages    = " + std::to_string(kChainStages) + "\n";
  for (long s = 1; s <= kChainStages; ++s) {
    text += sleep_section("stage" + std::to_string(s),
                          rng.duration(10.0, 60.0));
  }
  return text;
}

// --- serve_open ---------------------------------------------------------

inline constexpr int kServeTenants = 8;
inline constexpr std::size_t kServeSubmissions = 1000;  // per repetition
inline constexpr double kServeRate = 200.0;  // SUBMIT/s, below capacity
inline constexpr double kServePollS = 0.0005;  // generator STATUS polls

/// Tenant name and fair-share weight; the first two weigh double.
inline std::string tenant_name(int index) {
  return "tenant" + std::to_string(index);
}
inline double tenant_weight(int index) { return index < 2 ? 2.0 : 1.0; }

struct Submission {
  double due_offset_s = 0.0;  ///< from the start of the open loop
  int tenant = 0;
  std::string text;           ///< workload-file text
  std::size_t units = 0;      ///< units the workload settles when DONE
};

/// The open-loop schedule: kServeSubmissions submissions at kServeRate
/// per second on average, in waves of one submission per tenant. A wave's tenants all
/// submit the same kind, cycling bag16, bag16, bag128, eop 4x3, and a
/// tenant of weight w submits w times the units, so demand is
/// proportional to weight and every wave contends. The gap after a wave
/// is proportional to its units, so the offered load in units per
/// second stays level instead of peaking with each bag128 wave; each
/// submission is due at its wave's start plus seeded jitter of up to a
/// twentieth of the shortest gap. The order of tenants within a wave is
/// a seeded permutation, rotated by one place every four waves (one
/// kind cycle); over 32 waves each tenant sends each kind from each
/// place once. Weight-normalised contended dispatch then measures the
/// fair-share policy rather than which tenant the draw put first.
inline std::vector<Submission> serve_schedule(std::uint64_t seed) {
  SeedStream rng(seed * 2 + 3);
  std::vector<Submission> out;
  out.reserve(kServeSubmissions);
  constexpr std::size_t kKinds = 4;
  constexpr double kKindUnits[kKinds] = {16.0, 16.0, 128.0, 12.0};
  constexpr double kCycleUnits = 16.0 + 16.0 + 128.0 + 12.0;
  constexpr std::size_t kBlock = kKinds * kServeTenants;  // waves
  const double cycle_s = kKinds * kServeTenants / kServeRate;
  const double jitter_s = 0.05 * cycle_s * kKindUnits[3] / kCycleUnits;
  int order[kServeTenants];
  double wave_start = 0.0;
  for (std::size_t i = 0; i < kServeSubmissions; ++i) {
    const std::size_t wave = i / kServeTenants;
    const std::size_t slot = i % kServeTenants;
    const std::size_t kind = wave % kKinds;
    if (i % (kBlock * kServeTenants) == 0) {  // seeded Fisher-Yates
      for (int t = 0; t < kServeTenants; ++t) order[t] = t;
      for (int t = kServeTenants - 1; t > 0; --t) {
        const int j = static_cast<int>(rng.next() %
                                       static_cast<std::uint64_t>(t + 1));
        std::swap(order[t], order[j]);
      }
    }
    if (slot == 0 && wave > 0) {
      wave_start += cycle_s * kKindUnits[(wave - 1) % kKinds] / kCycleUnits;
    }
    const std::size_t shift = (wave % kBlock) / kKinds;
    Submission sub;
    sub.tenant = order[(slot + shift) % kServeTenants];
    sub.due_offset_s = wave_start + jitter_s * rng.uniform();
    const long scale = static_cast<long>(tenant_weight(sub.tenant));
    const auto bag = [&](long tasks, long cores) {
      sub.units = static_cast<std::size_t>(tasks * scale);
      sub.text = resource_block(cores * scale, "bag") +
                 "tasks     = " + std::to_string(tasks * scale) + "\n" +
                 sleep_section("task", rng.duration(5.0, 30.0));
    };
    switch (kind) {
      case 0:
      case 1:
        bag(16, 16);
        break;
      case 2:
        bag(128, 32);
        break;
      default:
        sub.units = static_cast<std::size_t>(12 * scale);
        sub.text = resource_block(4 * scale, "eop") +
                   "pipelines = " + std::to_string(4 * scale) +
                   "\nstages    = 3\n" +
                   sleep_section("stage1", rng.duration(5.0, 30.0)) +
                   sleep_section("stage2", rng.duration(5.0, 30.0)) +
                   sleep_section("stage3", rng.duration(5.0, 30.0));
        break;
    }
    out.push_back(std::move(sub));
  }
  return out;
}

}  // namespace perfbench
