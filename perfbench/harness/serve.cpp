// serve_open: an open loop of SUBMIT frames against an in-process
// serve::Service.
//
// Two application threads: this one is the generator, the other runs
// Service::run (the drive loop). The generator sends each SUBMIT
// through Service::handle_line when it falls due, and between sends it
// polls STATUS for every outstanding workload every poll period.
// Latencies are timed from each submission's due time, not its send
// time, so a late generator counts against the service:
//
//   dispatch = (send - due) + WorkloadStatus::submit_latency_seconds
//   done     = first STATUS poll that sees a terminal state - due
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "report.hpp"
#include "serve.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace entk;

constexpr int kSetups = 21;  // set-ups per process; the last one runs

std::string submit_frame(const Submission& sub) {
  Json frame = Json::object();
  frame.set("verb", Json::string("SUBMIT"));
  frame.set("tenant", Json::string(tenant_name(sub.tenant)));
  frame.set("workload", Json::string(sub.text));
  return frame.dump();
}

std::string status_frame(std::uint64_t id) {
  return "{\"verb\":\"STATUS\",\"id\":" + std::to_string(id) + "}";
}

/// A running service and its drive thread, stopped and joined at the
/// latest on destruction.
struct Daemon {
  std::unique_ptr<serve::Service> service;
  std::thread drive_thread;
  // Written by the drive thread, read after join.
  double drive_start = 0.0;
  double drive_end = 0.0;
  double drive_cpu_s = 0.0;

  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void stop() {
    if (!drive_thread.joinable()) return;
    service->shutdown();
    drive_thread.join();
  }
};

Result<std::unique_ptr<Daemon>> start_daemon() {
  serve::ServiceConfig config;
  config.machine = "xsede.comet";
  auto service = serve::Service::create(config);
  if (!service.ok()) return service.status();
  auto daemon = std::make_unique<Daemon>();
  daemon->service = service.take();
  for (int t = 0; t < kServeTenants; ++t) {
    serve::TenantConfig tenant;
    tenant.weight = tenant_weight(t);
    ENTK_RETURN_IF_ERROR(
        daemon->service->configure_tenant(tenant_name(t), tenant));
  }
  Daemon* raw = daemon.get();
  raw->drive_thread = std::thread([raw] {
    raw->drive_start = now_s();
    raw->service->run();
    raw->drive_end = now_s();
    raw->drive_cpu_s = thread_cpu_s();
  });
  return daemon;
}

}  // namespace

int run_serve(const ServeOptions& options) {
  const std::vector<Submission> schedule = serve_schedule(options.seed);
  std::vector<std::string> frames;
  frames.reserve(schedule.size());
  for (const Submission& sub : schedule) frames.push_back(submit_frame(sub));

  SpanRecorder gen_spans(1);
  SpanRecorder drive_spans(2);
  SpanRecorder* spans = options.traced ? &gen_spans : nullptr;
  const std::uint32_t span_setup = gen_spans.intern("core.allocate");
  const std::uint32_t span_submit = gen_spans.intern("serve.submit");
  const std::uint32_t span_status = gen_spans.intern("serve.status");
  const std::uint32_t span_stats = gen_spans.intern("serve.stats");
  const std::uint32_t span_wait = gen_spans.intern("bench.gen.wait");
  const std::uint32_t span_stop = gen_spans.intern("serve.shutdown");

  // ---- set-up: Service::create, tenant policy, drive thread up.
  std::vector<double> setup_samples;
  std::unique_ptr<Daemon> daemon;
  const double t_first_setup = now_s();
  for (int i = 0; i < kSetups; ++i) {
    if (daemon != nullptr) {
      ScopedSpan span(spans, span_stop);
      daemon.reset();
    }
    const double t0 = now_s();
    ScopedSpan span(spans, span_setup);
    auto started = start_daemon();
    if (!started.ok()) {
      std::cerr << "perfbench: serve set-up: "
                << started.status().to_string() << "\n";
      return 3;
    }
    daemon = started.take();
    setup_samples.push_back(now_s() - t0);
  }
  serve::Service& service = *daemon->service;

  // ---- the open loop.
  const std::size_t n = schedule.size();
  std::vector<double> lag_ms(n, 0.0);
  std::vector<double> dispatch_ms;
  std::vector<double> done_ms;
  std::vector<double> submit_us;
  std::vector<double> status_us;
  submit_us.reserve(n);
  std::uint64_t rejected = 0;
  std::uint64_t refused = 0;       // any other error reply
  std::uint64_t not_done = 0;      // terminal but not DONE
  std::uint64_t wrong_units = 0;   // DONE with the wrong units_done
  std::uint64_t units_done = 0;
  std::size_t queue_peak = 0;
  std::size_t active_peak = 0;
  struct Pending {
    std::size_t index;
    std::uint64_t id;
  };
  std::vector<Pending> outstanding;

  const double origin = now_s() + 0.005;
  const auto due = [&](std::size_t i) {
    return origin + schedule[i].due_offset_s;
  };
  double last_terminal = origin;

  const auto poll = [&] {
    for (std::size_t k = 0; k < outstanding.size();) {
      const Pending item = outstanding[k];
      const double t0 = now_s();
      std::string text;
      {
        ScopedSpan span(spans, span_status);
        text = service.handle_line(status_frame(item.id));
      }
      const double t1 = now_s();
      status_us.push_back(1e6 * (t1 - t0));
      auto reply = Json::parse(text);
      const Json* state =
          reply.ok() ? reply.value().find("state") : nullptr;
      if (state == nullptr) {
        ++refused;
        outstanding.erase(outstanding.begin() + static_cast<long>(k));
        continue;
      }
      const std::string& name = state->as_string();
      if (name != "DONE" && name != "FAILED" && name != "CANCELLED") {
        ++k;
        continue;
      }
      last_terminal = t1;
      done_ms.push_back(1e3 * (t1 - due(item.index)));
      if (name != "DONE") {
        ++not_done;
      } else {
        const Json* done = reply.value().find("units_done");
        const std::size_t got =
            done == nullptr ? 0 : static_cast<std::size_t>(done->as_number());
        units_done += got;
        if (got != schedule[item.index].units) ++wrong_units;
      }
      const Json* latency =
          reply.value().find("submit_latency_seconds");
      if (latency != nullptr) {
        dispatch_ms.push_back(lag_ms[item.index] +
                              1e3 * latency->as_number());
      }
      outstanding.erase(outstanding.begin() + static_cast<long>(k));
    }
    if (options.traced) {
      ScopedSpan span(spans, span_stats);
      const serve::ServiceStats stats = service.stats();
      queue_peak = std::max(queue_peak, stats.queue_depth);
      active_peak = std::max(active_peak, stats.active_sessions);
    }
  };
  const auto wait_until = [&](double deadline) {
    ScopedSpan span(spans, span_wait);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(deadline))));
  };

  const double cpu_window = process_cpu_s();
  const double client_cpu = thread_cpu_s();
  double next_poll = origin;
  for (std::size_t i = 0; i < n; ++i) {
    for (;;) {
      const double t = now_s();
      if (t >= due(i)) break;
      if (t >= next_poll) {
        poll();
        next_poll = now_s() + kServePollS;
        continue;
      }
      wait_until(std::min(due(i), next_poll));
    }
    const double t_send = now_s();
    std::string text;
    {
      ScopedSpan span(spans, span_submit);
      text = service.handle_line(frames[i]);
    }
    const double t_back = now_s();
    submit_us.push_back(1e6 * (t_back - t_send));
    lag_ms[i] = 1e3 * (t_send - due(i));
    auto reply = Json::parse(text);
    const Json* id = reply.ok() ? reply.value().find("id") : nullptr;
    if (id != nullptr) {
      outstanding.push_back({i, static_cast<std::uint64_t>(id->as_number())});
    } else {
      const Json* code =
          reply.ok() ? reply.value().find("error") : nullptr;
      if (code != nullptr && code->as_string() == "REJECTED") {
        ++rejected;
      } else {
        ++refused;
      }
    }
  }
  // Drain: keep polling until every accepted workload is terminal.
  const double give_up = now_s() + 60.0;
  while (!outstanding.empty() && now_s() < give_up) {
    poll();
    if (!outstanding.empty()) wait_until(now_s() + kServePollS);
  }
  const double window_s = last_terminal - origin;
  const double cpu_s = process_cpu_s() - cpu_window;
  const double client_cpu_s = thread_cpu_s() - client_cpu;
  const std::uint64_t lost = outstanding.size();

  const serve::ServiceStats stats = service.stats();
  {
    ScopedSpan span(spans, span_stop);
    daemon->stop();
  }
  const double t_end = now_s();
  drive_spans.add(drive_spans.intern("serve.drive"), daemon->drive_start,
                  daemon->drive_end);

  Json tenants = Json::object();
  for (const serve::TenantStats& tenant : stats.tenants) {
    Json entry = Json::object();
    put(entry, "weight", tenant.weight);
    put(entry, "contended", tenant.contended_dispatched_units);
    put(entry, "dispatched", tenant.dispatched_units);
    tenants.set(tenant.name, std::move(entry));
  }
  std::sort(setup_samples.begin(), setup_samples.end());
  const std::string dir = options.rep_dir;
  if (!write_samples(dir + "/dispatch_ms.f64", dispatch_ms) ||
      !write_samples(dir + "/done_ms.f64", done_ms) ||
      !write_samples(dir + "/lag_ms.f64", lag_ms) ||
      !write_samples(dir + "/submit_us.f64", submit_us) ||
      !write_samples(dir + "/status_us.f64", status_us)) {
    std::cerr << "perfbench: cannot write samples under " << dir << "\n";
    return 3;
  }
  Json out = Json::object();
  out.set("workload", Json::string("serve_open"));
  out.set("traced", Json::boolean(options.traced));
  put(out, "setup_s", setup_samples[setup_samples.size() / 2]);
  put(out, "run_s", window_s);
  put(out, "cpu_s", cpu_s);
  put(out, "submissions", n);
  put(out, "accepted", stats.accepted);
  put(out, "rejected", rejected);
  put(out, "refused", refused);
  put(out, "completed", stats.completed);
  put(out, "not_done", not_done);
  put(out, "wrong_units", wrong_units);
  put(out, "lost", lost);
  put(out, "units_done", units_done);
  put(out, "rate", kServeRate);
  put(out, "poll_ms", 1e3 * kServePollS);
  out.set("tenants", std::move(tenants));
  if (options.traced) {
    put(out, "drive_cpu_s", daemon->drive_cpu_s);
    put(out, "client_cpu_s", client_cpu_s);
    put(out, "queue_peak", queue_peak);
    put(out, "active_peak", active_peak);
    // The generator's own sleeps are not covered time; the drive
    // thread's work inside Service::run has no span (Service offers no
    // seam for one), so this is the share of wall spent in the
    // generator's spanned calls into the service.
    const auto table = gen_spans.totals();
    const auto wait = table.find("bench.gen.wait");
    const double waited_s = wait == table.end() ? 0.0 : wait->second.total_s;
    put(out, "coverage",
        (gen_spans.top_level_s() - waited_s) / (t_end - t_first_setup));
    out.set("spans", span_table_json(table));
    out.set("trace_written",
            Json::boolean(write_chrome_trace(
                options.trace_path, {&gen_spans, &drive_spans},
                t_first_setup)));
  }
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace perfbench
