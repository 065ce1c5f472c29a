// Benchmark-owned seams for the traced run. Everything here forwards
// to the toolkit's public classes and records spans and counts around
// the calls; nothing changes what the program computes.
//
//   TracedBackend   — a pilot::ExecutionBackend that forwards to a
//                     SimBackend and spans drive_until. Its make_agent
//                     builds the SimAgent exactly as
//                     SimBackend::make_agent does, around a
//                     TracedScheduler.
//   TracedScheduler — forwards select_from and spans it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "pilot/scheduler.hpp"
#include "pilot/sim_agent.hpp"
#include "pilot/sim_backend.hpp"

namespace perfbench {

/// Span names and counters the traced batch run fills in.
struct LayerProbe {
  SpanRecorder spans;
  std::uint32_t load = spans.intern("core.load");
  std::uint32_t allocate = spans.intern("core.allocate");
  std::uint32_t start_run = spans.intern("core.start_run");
  std::uint32_t drive = spans.intern("core.drive");
  std::uint32_t advance = spans.intern("core.graph.advance");
  std::uint32_t flush = spans.intern("core.submit.flush");
  std::uint32_t finish_run = spans.intern("core.finish_run");
  std::uint32_t deallocate = spans.intern("core.deallocate");
  std::uint32_t sched = spans.intern("pilot.sched");
  std::uint32_t capture = spans.intern("ckpt.capture");

  std::uint64_t advance_calls = 0;
  std::uint64_t flushes = 0;          ///< flush_submit calls that sent units
  std::uint64_t units_flushed = 0;
  std::uint64_t sched_calls = 0;
  std::uint64_t sched_picks = 0;
  std::size_t waiting_peak = 0;
  std::size_t pending_peak = 0;       ///< engine pending events
};

class TracedScheduler final : public entk::pilot::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<entk::pilot::Scheduler> inner,
                  LayerProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::vector<entk::pilot::ComputeUnitPtr> select_from(
      entk::pilot::WaitingIndex& waiting, entk::Count free_cores) override {
    probe_.waiting_peak = std::max(probe_.waiting_peak, waiting.size());
    ScopedSpan span(&probe_.spans, probe_.sched);
    auto picks = inner_->select_from(waiting, free_cores);
    ++probe_.sched_calls;
    probe_.sched_picks += picks.size();
    return picks;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<entk::pilot::Scheduler> inner_;
  LayerProbe& probe_;
};

class TracedBackend final : public entk::pilot::ExecutionBackend {
 public:
  TracedBackend(entk::pilot::SimBackend& inner, LayerProbe& probe)
      : inner_(inner), probe_(probe) {}

  entk::saga::JobService& job_service() override {
    return inner_.job_service();
  }
  const entk::Clock& clock() const override { return inner_.clock(); }
  const entk::sim::MachineProfile& machine() const override {
    return inner_.machine();
  }
  entk::Result<std::unique_ptr<entk::pilot::Agent>> make_agent(
      entk::Count cores, const std::string& scheduler_policy) override {
    auto scheduler = entk::pilot::make_scheduler(scheduler_policy);
    if (!scheduler.ok()) return scheduler.status();
    return std::unique_ptr<entk::pilot::Agent>(
        std::make_unique<entk::pilot::SimAgent>(
            inner_.engine(), inner_.machine(), cores,
            std::make_unique<TracedScheduler>(scheduler.take(), probe_),
            inner_.faults()));
  }
  entk::Status drive_until(const std::function<bool()>& done,
                           entk::Duration timeout) override {
    ScopedSpan span(&probe_.spans, probe_.drive);
    return inner_.drive_until(done, timeout);
  }
  std::uint64_t schedule_after(entk::Duration delay,
                               std::function<void()> fn) override {
    return inner_.schedule_after(delay, std::move(fn));
  }
  void advance(entk::Duration cost) override { inner_.advance(cost); }
  std::string name() const override { return inner_.name(); }

 private:
  entk::pilot::SimBackend& inner_;
  LayerProbe& probe_;
};

}  // namespace perfbench
