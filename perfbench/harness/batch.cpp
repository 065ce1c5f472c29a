// bag_wide and chain_ckpt: one entk-run workload per process.
//
// The untraced run calls what entk-run calls: load_workload,
// resolve_workload, build_pattern, a SimBackend, ResourceHandle
// allocate/run/deallocate, and for chain_ckpt the checkpoint
// Coordinator that ckpt::run_workload_with_checkpoints attaches. The
// run is Session::run spelled out (start_run, drive_until, finish_run)
// so the harness can note when start_run returns; one settled observer
// stamps each settlement for the latency samples.
//
// The traced run uses the same calls through the seams in probe.hpp,
// with the executor in deferred pumping so advance_local and
// flush_submit (the halves Runtime::run_concurrent drives) can be
// spanned one by one.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "batch.hpp"
#include "ckpt/coordinator.hpp"
#include "ckpt/snapshot.hpp"
#include "core/entk.hpp"
#include "core/graph_executor.hpp"
#include "core/workload_file.hpp"
#include "obs/trace.hpp"
#include "pilot/sim_backend.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "scale_test_util.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace entk;

struct Settle {
  double wall = 0.0;
  std::size_t submitted_before = 0;  ///< UnitManager::total_units() then
};

int fail(const std::string& what, const Status& status) {
  std::cerr << "perfbench: " << what << ": " << status.to_string() << "\n";
  return 3;
}

}  // namespace

int run_batch(const BatchOptions& options) {
  const bool chain = options.workload == "chain_ckpt";
  const std::string text =
      chain ? chain_ckpt_text(options.seed) : bag_wide_text(options.seed);
  const std::size_t expected_units =
      chain ? static_cast<std::size_t>(kChainPipelines * kChainStages)
            : static_cast<std::size_t>(kBagTasks);
  const std::string workload_path = options.rep_dir + "/workload.entk";
  {
    std::ofstream file(workload_path);
    file << text;
    if (!file) {
      return fail("write workload", make_error(Errc::kIoError, workload_path));
    }
  }

  // The probe is cheap to build; only the traced run records into it.
  LayerProbe probe;
  SpanRecorder* spans = options.traced ? &probe.spans : nullptr;
  const auto begin_span = [spans](std::uint32_t name) {
    if (spans != nullptr) spans->begin(name);
  };
  const auto end_span = [spans] {
    if (spans != nullptr) spans->end();
  };

  // ---- set-up: load, resolve, build the pattern, backend, allocate.
  const double t_setup = now_s();
  begin_span(probe.load);
  auto loaded = core::load_workload(workload_path);
  if (!loaded.ok()) return fail("load", loaded.status());
  const auto registry = kernels::KernelRegistry::with_builtin_kernels();
  auto resolved = core::resolve_workload(loaded.value(), registry);
  if (!resolved.ok()) return fail("resolve", resolved.status());
  const core::WorkloadSpec& spec = resolved.value();
  auto pattern = core::build_pattern(spec);
  if (!pattern.ok()) return fail("build_pattern", pattern.status());
  end_span();

  begin_span(probe.allocate);
  const auto catalog = sim::MachineCatalog::with_builtin_profiles();
  auto machine = catalog.find(spec.machine);
  if (!machine.ok()) return fail("machine", machine.status());
  pilot::SimBackend sim_backend(machine.take());
  std::unique_ptr<TracedBackend> traced_backend;
  if (options.traced) {
    traced_backend = std::make_unique<TracedBackend>(sim_backend, probe);
  }
  pilot::ExecutionBackend& backend =
      traced_backend != nullptr
          ? static_cast<pilot::ExecutionBackend&>(*traced_backend)
          : sim_backend;
  core::ResourceOptions resource_options;
  resource_options.cores = spec.cores;
  resource_options.runtime = spec.runtime;
  resource_options.scheduler_policy = spec.scheduler;
  core::ResourceHandle handle(backend, registry, resource_options);
  if (Status s = handle.allocate(); !s.is_ok()) return fail("allocate", s);

  // chain_ckpt: the coordinator run_workload_with_checkpoints attaches.
  // In the traced run two step hooks bracket the coordinator's own:
  // the first notes the time, the second records a capture span when
  // a snapshot was written in between.
  std::unique_ptr<ckpt::Coordinator> coordinator;
  double hook_start = 0.0;
  std::uint64_t hook_snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  const std::string snapshot_dir = options.rep_dir + "/snapshots";
  if (chain) {
    if (options.traced) {
      sim_backend.add_step_hook([&] {
        hook_start = now_s();
        hook_snapshots = coordinator->snapshots_written();
        return Status::ok();
      });
    }
    ckpt::Coordinator::Options coordinator_options;
    coordinator_options.directory = snapshot_dir;
    coordinator_options.policy.every_settled =
        static_cast<std::uint64_t>(kChainSnapshotEvery);
    coordinator = std::make_unique<ckpt::Coordinator>(
        sim_backend, handle, std::move(coordinator_options));
    coordinator->set_identity(spec.pattern, core::serialize_workload(spec));
    pattern.value()->set_graph_run_observer(coordinator.get());
    if (options.traced) {
      sim_backend.add_step_hook([&] {
        if (coordinator->snapshots_written() != hook_snapshots) {
          probe.spans.add(probe.capture, hook_start, now_s());
          std::error_code ec;
          snapshot_bytes += std::filesystem::file_size(
              coordinator->last_snapshot_path(), ec);
        }
        return Status::ok();
      });
    }
  }
  end_span();
  const double setup_s = now_s() - t_setup;

  // ---- run.
  core::Session& session = handle.session();
  pilot::UnitManager* units = handle.unit_manager();
  std::vector<Settle> settles;
  settles.reserve(expected_units);
  units->add_settled_observer(
      [&settles, units](const pilot::ComputeUnitPtr&, pilot::UnitState) {
        settles.push_back({now_s(), units->total_units()});
      });
  sim::Engine& engine = sim_backend.engine();
  const std::uint64_t events_before = engine.dispatched_events();

  const double cpu_run = process_cpu_s();
  const double t_run = now_s();
  double t_started = 0.0;
  std::size_t initial_units = 0;
  Result<core::RunReport> report =
      make_error(Errc::kInternal, "run not attempted");
  {
    obs::ScopedTraceClock trace_clock(backend.clock());
    begin_span(probe.start_run);
    const Status started = session.start_run(*pattern.value(),
                                             /*deferred=*/options.traced);
    end_span();
    if (!started.is_ok()) return fail("start_run", started);
    t_started = now_s();
    initial_units = units->total_units();
    Status driven = Status::ok();
    if (!options.traced) {
      if (!session.run_finished()) {
        driven = backend.drive_until(
            [&session] { return session.run_finished(); });
      }
    } else {
      // The executor defers, and a settled observer registered after
      // the executor's own pumps it: advance_local and flush_submit then
      // run at the point of the settle cascade where the immediate pump
      // would, so the virtual schedule (and its digest) is unchanged.
      core::GraphExecutor* executor = session.run_executor();
      const auto pump = [&] {
        if (executor == nullptr) return;
        for (;;) {
          {
            ScopedSpan span(spans, probe.advance);
            ++probe.advance_calls;
            executor->advance_local();
          }
          const std::size_t pending = executor->pending_submits();
          bool submitted = false;
          {
            ScopedSpan span(spans, probe.flush);
            submitted = executor->flush_submit();
          }
          if (!submitted) return;
          ++probe.flushes;
          probe.units_flushed += pending;
        }
      };
      pump();  // the initial frontier, which start_run would have sent
      const std::size_t pumping = units->add_settled_observer(
          [&pump](const pilot::ComputeUnitPtr&, pilot::UnitState) {
            pump();
          });
      const auto finished = [&] {
        probe.pending_peak =
            std::max(probe.pending_peak, engine.pending_events());
        return session.run_finished();
      };
      if (!finished()) driven = backend.drive_until(finished);
      units->remove_settled_observer(pumping);
      if (executor != nullptr) executor->set_deferred(false);
    }
    begin_span(probe.finish_run);
    report = session.finish_run(driven);
    end_span();
  }
  if (!report.ok()) return fail("finish_run", report.status());
  begin_span(probe.deallocate);
  const Status deallocated = handle.deallocate();
  end_span();
  const double t_end = now_s();
  const double cpu_s = process_cpu_s() - cpu_run;
  const double run_s = t_end - t_run;
  if (!deallocated.is_ok()) return fail("deallocate", deallocated);

  // ---- outputs and checks (untimed).
  const core::RunReport& run = report.value();
  const std::uint64_t digest = core::scale_test::trace_digest(run.units);
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));

  bool snapshot_ok = true;
  std::string snapshot_note;
  if (chain) {
    const std::string& newest = coordinator->last_snapshot_path();
    auto snapshot = ckpt::read_snapshot_file(newest);
    if (!snapshot.ok()) {
      snapshot_ok = false;
      snapshot_note = snapshot.status().to_string();
    } else if (snapshot.value().workload_text !=
               core::serialize_workload(spec)) {
      snapshot_ok = false;
      snapshot_note = newest + ": workload text differs";
    }
  }

  // Latency samples in ms from the start of the run: a unit is
  // dispatched when start_run returns (initial frontier) or when the
  // settlement that released it was observed; it is done when its own
  // settlement is observed.
  std::vector<double> dispatch_ms;
  std::vector<double> done_ms;
  if (!options.traced) {
    dispatch_ms.reserve(run.units.size());
    std::size_t cursor = 0;
    for (std::size_t j = 0; j < run.units.size(); ++j) {
      if (j < initial_units || settles.empty()) {
        dispatch_ms.push_back(1e3 * (t_started - t_run));
        continue;
      }
      while (cursor + 1 < settles.size() &&
             settles[cursor + 1].submitted_before <= j) {
        ++cursor;
      }
      dispatch_ms.push_back(1e3 * (settles[cursor].wall - t_run));
    }
    done_ms.reserve(settles.size());
    for (const Settle& settle : settles) {
      done_ms.push_back(1e3 * (settle.wall - t_run));
    }
    if (!write_samples(options.rep_dir + "/dispatch_ms.f64", dispatch_ms) ||
        !write_samples(options.rep_dir + "/done_ms.f64", done_ms)) {
      return fail("write samples", make_error(Errc::kIoError, options.rep_dir));
    }
  }

  Json out = Json::object();
  out.set("workload", Json::string(options.workload));
  out.set("traced", Json::boolean(options.traced));
  put(out, "setup_s", setup_s);
  put(out, "run_s", run_s);
  put(out, "cpu_s", cpu_s);
  put(out, "units", run.units.size());
  put(out, "expected_units", expected_units);
  put(out, "units_done", run.units_done);
  put(out, "units_failed", run.units_failed);
  put(out, "units_cancelled", run.units_cancelled);
  out.set("outcome_ok", Json::boolean(run.outcome.is_ok()));
  out.set("outcome", Json::string(run.outcome.to_string()));
  out.set("digest", Json::string(digest_hex));
  put(out, "snapshots", chain ? coordinator->snapshots_written() : 0);
  out.set("snapshot_ok", Json::boolean(snapshot_ok));
  out.set("snapshot_note", Json::string(snapshot_note));
  put(out, "dispatch_samples", dispatch_ms.size());
  put(out, "done_samples", done_ms.size());

  if (options.traced) {
    const auto table = probe.spans.totals();
    const auto self = [&table](const std::string& name) {
      const auto it = table.find(name);
      return it == table.end() ? 0.0 : it->second.self_s;
    };
    const auto total = [&table](const std::string& name) {
      const auto it = table.find(name);
      return it == table.end() ? 0.0 : it->second.total_s;
    };
    const double events =
        static_cast<double>(engine.dispatched_events() - events_before);
    const double snapshots =
        chain ? static_cast<double>(coordinator->snapshots_written()) : 0.0;
    Json layers = Json::object();
    put(layers, "core.load_s", self("core.load"));
    put(layers, "core.allocate_s", self("core.allocate"));
    put(layers, "core.graph.advance_s", self("core.graph.advance"));
    put(layers, "core.graph.advance_calls", probe.advance_calls);
    put(layers, "core.submit.flush_s", self("core.submit.flush"));
    put(layers, "core.submit.units_per_flush",
        ratio(static_cast<double>(probe.units_flushed),
              static_cast<double>(probe.flushes)));
    put(layers, "core.drive.self_s", self("core.drive"));
    put(layers, "sim.events", events);
    put(layers, "sim.events_per_s", ratio(events, total("core.drive")));
    put(layers, "sim.pending_peak", probe.pending_peak);
    put(layers, "sim.pool_slots", engine.pool_slots());
    put(layers, "pilot.sched.calls", probe.sched_calls);
    put(layers, "pilot.sched.busy_s", self("pilot.sched"));
    put(layers, "pilot.sched.picks_per_call",
        ratio(static_cast<double>(probe.sched_picks),
              static_cast<double>(probe.sched_calls)));
    put(layers, "pilot.settled", settles.size());
    put(layers, "pilot.waiting_peak", probe.waiting_peak);
    put(layers, "ckpt.snapshots", snapshots);
    put(layers, "ckpt.capture_s", self("ckpt.capture"));
    put(layers, "ckpt.bytes_written", snapshot_bytes);
    put(layers, "ckpt.bytes_per_unit",
        ratio(static_cast<double>(snapshot_bytes),
              snapshots * static_cast<double>(expected_units)));
    put(layers, "bench.coverage",
        probe.spans.top_level_s() / (t_end - t_setup));
    out.set("layers", std::move(layers));
    out.set("spans", span_table_json(table));
    out.set("trace_written",
            Json::boolean(write_chrome_trace(options.trace_path,
                                             {&probe.spans}, t_setup)));
  }
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace perfbench
