// entk-serve Service semantics: admission control (bounded queue ->
// REJECTED), per-tenant quotas (session caps hold under racing
// demand), weighted fair-share (contended dispatch tracks weights),
// cancellation (queued and running), the full STATUS lifecycle, and
// the protocol entry point end to end. The serve lock order
// (kServeMailbox before kServeRegistry before everything the runtime
// takes) is pinned by forked-abort tests under ENTK_LOCK_RANK_CHECK.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.hpp"
#include "common/mutex.hpp"
#include "core/parallel_runtime.hpp"
#include "core/workload_file.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"

#if defined(ENTK_LOCK_RANK_CHECK)
#include <csignal>
#include <cstdio>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace entk::serve {
namespace {

core::WorkloadSpec bag_spec(std::size_t units, Count cores = 2) {
  std::string text = "backend = sim\nmachine = localhost\ncores = " +
                     std::to_string(cores) +
                     "\nruntime = 36000\npattern = bag\ntasks = " +
                     std::to_string(units) +
                     "\n\n[task]\nkernel = misc.sleep\nduration = 1\n";
  auto spec = core::parse_workload(text);
  EXPECT_TRUE(spec.ok()) << spec.status().to_string();
  return spec.take();
}

/// `pipelines` chains of `stages` sleeps: every settle releases the
/// pipeline's next stage.
core::WorkloadSpec eop_spec(std::size_t pipelines, std::size_t stages) {
  std::string text =
      "backend = sim\nmachine = localhost\ncores = 2\nruntime = 36000\n"
      "pattern = eop\npipelines = " +
      std::to_string(pipelines) + "\nstages = " + std::to_string(stages) +
      "\n";
  for (std::size_t s = 1; s <= stages; ++s) {
    text += "\n[stage" + std::to_string(s) +
            "]\nkernel = misc.sleep\nduration = " + std::to_string(s) +
            "\n";
  }
  auto spec = core::parse_workload(text);
  EXPECT_TRUE(spec.ok()) << spec.status().to_string();
  return spec.take();
}

/// Polls until `id` is terminal and returns its results.
WorkloadStatus await_terminal(Service& service, std::uint64_t id) {
  for (;;) {
    auto status = service.status(id);
    EXPECT_TRUE(status.ok());
    if (!status.ok() || is_terminal(status.value().state)) {
      return status.ok() ? status.value() : WorkloadStatus{};
    }
    std::this_thread::yield();
  }
}

/// A service plus a drive thread, torn down in order.
struct Driven {
  std::unique_ptr<Service> service;
  std::thread driver;

  explicit Driven(ServiceConfig config) {
    auto created = Service::create(std::move(config));
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    service = created.take();
    driver = std::thread([this] { service->run(); });
  }
  ~Driven() {
    service->shutdown();
    driver.join();
  }
};

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(ServeService, QueueBoundShedsWithResourceExhausted) {
  ServiceConfig config;
  config.queue_capacity = 2;
  auto service = Service::create(config);
  ASSERT_TRUE(service.ok());
  // No drive thread: everything stays QUEUED, so the bound is exact.
  ASSERT_TRUE(service.value()->submit("alice", bag_spec(4)).ok());
  ASSERT_TRUE(service.value()->submit("alice", bag_spec(4)).ok());
  auto third = service.value()->submit("alice", bag_spec(4));
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), Errc::kResourceExhausted);

  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.queue_depth, 2u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].rejected, 1u);
  service.value()->shutdown();
  service.value()->run();  // drains the shed queue and returns
}

TEST(ServeService, SubmitValidatesSpecAndTenant) {
  auto service = Service::create(ServiceConfig{});
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service.value()->submit("no spaces", bag_spec(4)).status().code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(service.value()->submit("", bag_spec(4)).status().code(),
            Errc::kInvalidArgument);
  core::WorkloadSpec wrong_machine = bag_spec(4);
  wrong_machine.machine = "xsede.comet";
  EXPECT_EQ(service.value()->submit("a", wrong_machine).status().code(),
            Errc::kInvalidArgument);
  core::WorkloadSpec too_wide = bag_spec(4);
  too_wide.cores = 100000;
  EXPECT_EQ(service.value()->submit("a", too_wide).status().code(),
            Errc::kInvalidArgument);
  service.value()->shutdown();
  service.value()->run();
}

// ---------------------------------------------------------------------
// Lifecycle and cancellation
// ---------------------------------------------------------------------

TEST(ServeService, WorkloadRunsToDoneWithFullStatusLifecycle) {
  Driven driven(ServiceConfig{});
  auto id = driven.service->submit("alice", bag_spec(8), "opt-run");
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  driven.service->drain();

  auto status = driven.service->status(id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, WorkloadState::kDone);
  EXPECT_EQ(status.value().tenant, "alice");
  EXPECT_EQ(status.value().label, "opt-run");
  EXPECT_EQ(status.value().session,
            "serve.alice." + std::to_string(id.value()));
  EXPECT_EQ(status.value().dispatched_units, 8u);
  EXPECT_EQ(status.value().units_done, 8u);
  EXPECT_GE(status.value().submit_latency_seconds, 0.0);
  EXPECT_TRUE(status.value().outcome.is_ok());

  auto results = driven.service->results(id.value());
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().units_done, 8u);

  EXPECT_EQ(driven.service->status(9999).status().code(), Errc::kNotFound);
}

TEST(ServeService, ResultsBeforeTerminalIsFailedPrecondition) {
  ServiceConfig config;
  auto service = Service::create(config);
  ASSERT_TRUE(service.ok());
  auto id = service.value()->submit("alice", bag_spec(4));
  ASSERT_TRUE(id.ok());
  // No drive thread: still QUEUED.
  auto status = service.value()->status(id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, WorkloadState::kQueued);
  EXPECT_LT(status.value().submit_latency_seconds, 0.0);
  EXPECT_EQ(service.value()->results(id.value()).status().code(),
            Errc::kFailedPrecondition);
  service.value()->shutdown();
  service.value()->run();
}

TEST(ServeService, CancelQueuedIsSynchronous) {
  auto service = Service::create(ServiceConfig{});
  ASSERT_TRUE(service.ok());
  auto id = service.value()->submit("alice", bag_spec(4));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.value()->cancel(id.value()).is_ok());
  auto status = service.value()->status(id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, WorkloadState::kCancelled);
  // Terminal: a second cancel refuses.
  EXPECT_EQ(service.value()->cancel(id.value()).code(),
            Errc::kFailedPrecondition);
  EXPECT_EQ(service.value()->stats().cancelled, 1u);
  service.value()->shutdown();
  service.value()->run();
}

TEST(ServeService, CancelRunningAbortsInFlightUnits) {
  ServiceConfig config;
  // A one-unit in-flight cap turns the big bag into a long trickle:
  // the workload stays RUNNING for thousands of drive passes, so the
  // cancel below lands mid-run deterministically.
  TenantConfig slow;
  slow.max_inflight_units = 1;
  config.default_tenant = slow;
  Driven driven(std::move(config));
  auto id = driven.service->submit("alice", bag_spec(20000));
  ASSERT_TRUE(id.ok());
  while (true) {
    auto status = driven.service->status(id.value());
    ASSERT_TRUE(status.ok());
    if (status.value().state == WorkloadState::kRunning &&
        status.value().dispatched_units > 0) {
      break;
    }
    std::this_thread::yield();
  }
  ASSERT_TRUE(driven.service->cancel(id.value()).is_ok());
  driven.service->drain();
  auto results = driven.service->results(id.value());
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().state, WorkloadState::kCancelled);
  EXPECT_EQ(results.value().outcome.code(), Errc::kCancelled);
  // Far fewer than the full bag actually dispatched.
  EXPECT_LT(results.value().dispatched_units, 20000u);
  EXPECT_EQ(driven.service->stats().cancelled, 1u);
}

TEST(ServeService, ShutdownShedsQueuedAndAbortsRunning) {
  ServiceConfig config;
  TenantConfig slow;
  slow.max_inflight_units = 1;
  config.default_tenant = slow;
  config.max_active_sessions = 1;
  Driven driven(std::move(config));
  auto running = driven.service->submit("alice", bag_spec(20000));
  auto queued = driven.service->submit("alice", bag_spec(4));
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(queued.ok());
  while (true) {
    auto status = driven.service->status(running.value());
    ASSERT_TRUE(status.ok());
    if (status.value().state == WorkloadState::kRunning) break;
    std::this_thread::yield();
  }
  driven.service->shutdown();
  driven.driver.join();
  driven.driver = std::thread([] {});  // destructor-friendly stub
  EXPECT_EQ(driven.service->status(running.value()).value().state,
            WorkloadState::kCancelled);
  EXPECT_EQ(driven.service->status(queued.value()).value().state,
            WorkloadState::kCancelled);
  // Shut down: further submissions are UNAVAILABLE.
  EXPECT_EQ(driven.service->submit("alice", bag_spec(4)).status().code(),
            Errc::kCancelled);
}

// ---------------------------------------------------------------------
// Quotas and fair-share
// ---------------------------------------------------------------------

TEST(ServeService, TenantSessionQuotaCapsConcurrency) {
  ServiceConfig config;
  config.max_active_sessions = 8;
  Driven driven(std::move(config));
  TenantConfig quota;
  quota.max_sessions = 1;
  ASSERT_TRUE(driven.service->configure_tenant("alice", quota).is_ok());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = driven.service->submit("alice", bag_spec(16));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  driven.service->drain();
  const ServiceStats stats = driven.service->stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  // The cap held at every instant, yet everything still completed.
  EXPECT_EQ(stats.tenants[0].peak_active_sessions, 1u);
  EXPECT_EQ(stats.completed, 6u);
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(driven.service->status(id).value().state,
              WorkloadState::kDone);
  }
}

TEST(ServeService, WeightedFairShareTracksWeightsUnderContention) {
  ServiceConfig config;
  config.max_active_sessions = 8;
  config.drr_quantum = 4;
  // A tight global budget keeps both tenants contending all run.
  config.max_inflight_total = 16;
  auto created = Service::create(std::move(config));
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Service& service = *created.value();
  TenantConfig light;
  light.weight = 1.0;
  TenantConfig heavy;
  heavy.weight = 3.0;
  ASSERT_TRUE(service.configure_tenant("light", light).is_ok());
  ASSERT_TRUE(service.configure_tenant("heavy", heavy).is_ok());
  // Every submission is queued before the drive thread starts, so
  // which tenant is admitted and dispatched when no longer depends on
  // how the submitting thread races the drive thread.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(service.submit("light", bag_spec(64)).ok());
    ASSERT_TRUE(service.submit("heavy", bag_spec(64)).ok());
  }
  std::thread driver([&service] { service.run(); });
  service.drain();
  service.shutdown();
  driver.join();
  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  double contended_heavy = 0.0;
  double contended_light = 0.0;
  for (const TenantStats& tenant : stats.tenants) {
    if (tenant.name == "heavy") {
      contended_heavy =
          static_cast<double>(tenant.contended_dispatched_units);
    } else {
      contended_light =
          static_cast<double>(tenant.contended_dispatched_units);
    }
  }
  ASSERT_GT(contended_light, 0.0);
  ASSERT_GT(contended_heavy, 0.0);
  // 3x the weight -> ~3x the contended dispatch (round granularity
  // and the drain tail leave a wide but meaningful band).
  const double ratio = contended_heavy / contended_light;
  EXPECT_GT(ratio, 1.8) << "heavy " << contended_heavy << " light "
                        << contended_light;
  EXPECT_LT(ratio, 4.5) << "heavy " << contended_heavy << " light "
                        << contended_light;
  EXPECT_EQ(stats.completed, 16u);
}

/// Runs the pinned 40-workload, 4-tenant mix to the end and returns
/// each tenant's contended dispatch tally (tenant name order). Every
/// workload is queued before the drive thread starts, so admission and
/// every DRR round depend only on the drive thread and the virtual
/// clock. The tallies fingerprint every dispatch decision of the run: a
/// drive-pass change that moves any of them changes the fair-share
/// policy, not just its cost.
std::vector<std::uint64_t> pinned_mix_contended_tallies() {
  ServiceConfig config;
  config.max_active_sessions = 6;
  config.max_inflight_total = 12;
  config.drr_quantum = 3;
  auto created = Service::create(config);
  EXPECT_TRUE(created.ok());
  if (!created.ok()) return {};
  Service& service = *created.value();
  const char* names[] = {"a", "b", "c", "d"};
  const double weights[] = {1.0, 2.0, 0.4, 3.0};  // 0.4 banks credit
  for (int t = 0; t < 4; ++t) {
    TenantConfig tenant;
    tenant.weight = weights[t];
    tenant.max_inflight_units = t == 3 ? 5 : 4096;
    tenant.max_sessions = t == 1 ? 1 : 3;
    EXPECT_TRUE(service.configure_tenant(names[t], tenant).is_ok());
  }
  for (int i = 0; i < 40; ++i) {
    const auto size = static_cast<std::size_t>(i);
    const core::WorkloadSpec spec =
        i % 3 == 0 ? eop_spec(2 + size % 5, 3)
                   : bag_spec(1 + (size * 13) % 40, 1 + i % 3);
    EXPECT_TRUE(service.submit(names[(i * 3 + i / 4) % 4], spec).ok());
  }
  std::thread driver([&service] { service.run(); });
  service.drain();
  service.shutdown();
  driver.join();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 40u);
  std::vector<std::uint64_t> contended;
  for (const TenantStats& tenant : stats.tenants) {
    contended.push_back(tenant.contended_dispatched_units);
  }
  return contended;
}

TEST(ServeService, FairShareDecisionsArePinned) {
  EXPECT_EQ(pinned_mix_contended_tallies(),
            (std::vector<std::uint64_t>{109, 104, 154, 131}));
}

TEST(ServeService, ParallelAdvanceKeepsFairShareDecisionsPinned) {
  // With a pool configured, a drive pass in which several tenants'
  // graphs changed advances them as pool tasks (phase 1 of
  // advance_and_flush). The graphs share no state, so every dispatch
  // decision must match the serial pass.
  struct PoolReset {
    ~PoolReset() { core::set_parallel_threads(0); }
  } reset_on_exit;
  core::set_parallel_threads(4);
  EXPECT_EQ(pinned_mix_contended_tallies(),
            (std::vector<std::uint64_t>{109, 104, 154, 131}));
}

// ---------------------------------------------------------------------
// Changed-only advance: runs that finish without a further dispatch
// ---------------------------------------------------------------------

TEST(ServeService, CancelWithNothingInFlightStillFinishes) {
  ServiceConfig config;
  TenantConfig slow;
  slow.max_inflight_units = 1;
  config.default_tenant = slow;
  Driven driven(std::move(config));
  // The first bag holds the tenant's one in-flight slot all run and
  // always flushes first, so the second is RUNNING but never
  // dispatches: nothing of it is in flight when the CANCEL lands, and
  // only the cancel itself can finish its run.
  auto hog = driven.service->submit("alice", bag_spec(20000));
  auto idle = driven.service->submit("alice", bag_spec(8));
  ASSERT_TRUE(hog.ok());
  ASSERT_TRUE(idle.ok());
  while (driven.service->status(idle.value()).value().state !=
         WorkloadState::kRunning) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(driven.service->cancel(idle.value()).is_ok());
  const WorkloadStatus cancelled =
      await_terminal(*driven.service, idle.value());
  EXPECT_EQ(cancelled.state, WorkloadState::kCancelled);
  EXPECT_EQ(cancelled.outcome.code(), Errc::kCancelled);
  EXPECT_EQ(cancelled.dispatched_units, 0u);
  EXPECT_EQ(cancelled.units_done, 0u);
  EXPECT_EQ(driven.service->status(hog.value()).value().state,
            WorkloadState::kRunning);
  ASSERT_TRUE(driven.service->cancel(hog.value()).is_ok());
  driven.service->drain();
  EXPECT_EQ(driven.service->stats().cancelled, 2u);
}

TEST(ServeService, LastSettlementQuiescesEveryRunToDone) {
  ServiceConfig config;
  config.max_inflight_total = 3;  // many passes, most of them idle
  Driven driven(std::move(config));
  const std::vector<std::size_t> sizes = {1, 5, 17, 2};
  std::vector<std::pair<std::uint64_t, std::size_t>> ids;
  for (const std::size_t units : sizes) {
    for (const char* tenant : {"alice", "bob"}) {
      auto id = driven.service->submit(tenant, bag_spec(units));
      ASSERT_TRUE(id.ok());
      ids.emplace_back(id.value(), units);
    }
  }
  driven.service->drain();
  for (const auto& [id, units] : ids) {
    const WorkloadStatus done = driven.service->results(id).value();
    EXPECT_EQ(done.state, WorkloadState::kDone) << "workload " << id;
    EXPECT_EQ(done.units_done, units) << "workload " << id;
    EXPECT_EQ(done.dispatched_units, units) << "workload " << id;
  }
  EXPECT_EQ(driven.service->stats().completed, ids.size());
}

TEST(ServeService, PipelineStagesReleaseSuccessorsToDone) {
  ServiceConfig config;
  config.max_inflight_total = 4;
  Driven driven(std::move(config));
  std::vector<std::uint64_t> ids;
  for (const char* tenant : {"alice", "bob", "carol"}) {
    auto id = driven.service->submit(tenant, eop_spec(6, 3));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  driven.service->drain();
  for (const std::uint64_t id : ids) {
    const WorkloadStatus done = driven.service->results(id).value();
    EXPECT_EQ(done.state, WorkloadState::kDone) << "workload " << id;
    EXPECT_EQ(done.units_done, 18u) << "workload " << id;
    EXPECT_EQ(done.dispatched_units, 18u) << "workload " << id;
  }
}

// ---------------------------------------------------------------------
// Protocol entry point (socket-free)
// ---------------------------------------------------------------------

TEST(ServeService, HandleLineDrivesTheFullVerbSet) {
  Driven driven(ServiceConfig{});
  const std::string submit_line =
      R"({"verb":"SUBMIT","tenant":"alice","name":"opt",)"
      R"("workload":"backend = sim\nmachine = localhost\ncores = 2\n)"
      R"(runtime = 600\npattern = bag\ntasks = 4\n\n[task]\n)"
      R"(kernel = misc.sleep\nduration = 1\n"})";
  auto submit = Json::parse(driven.service->handle_line(submit_line));
  ASSERT_TRUE(submit.ok());
  ASSERT_TRUE(submit.value().find("ok")->as_bool())
      << driven.service->handle_line(submit_line);
  const auto id = static_cast<std::uint64_t>(
      submit.value().find("id")->as_number());
  driven.service->drain();

  auto status = Json::parse(driven.service->handle_line(
      R"({"verb":"STATUS","id":)" + std::to_string(id) + "}"));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().find("state")->as_string(), "DONE");
  EXPECT_EQ(status.value().find("units_done")->as_number(), 4.0);

  auto results = Json::parse(driven.service->handle_line(
      R"({"verb":"RESULTS","id":)" + std::to_string(id) + "}"));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().find("outcome")->as_string(), "ok");

  auto stats = Json::parse(
      driven.service->handle_line(R"({"verb":"STATS"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().find("completed")->as_number(), 1.0);
  ASSERT_TRUE(stats.value().find("tenants")->is_array());

  auto missing = Json::parse(
      driven.service->handle_line(R"({"verb":"CANCEL","id":999})"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().find("error")->as_string(), "NOT_FOUND");

  auto bad_workload = Json::parse(driven.service->handle_line(
      R"({"verb":"SUBMIT","tenant":"a","workload":"not a workload"})"));
  ASSERT_TRUE(bad_workload.ok());
  EXPECT_EQ(bad_workload.value().find("error")->as_string(),
            "BAD_REQUEST");

  auto shutdown = Json::parse(
      driven.service->handle_line(R"({"verb":"SHUTDOWN"})"));
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ(shutdown.value().find("state")->as_string(),
            "SHUTTING_DOWN");
  auto late = Json::parse(driven.service->handle_line(submit_line));
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value().find("error")->as_string(), "UNAVAILABLE");
}

// ---------------------------------------------------------------------
// Serve lock order
// ---------------------------------------------------------------------

TEST(ServeLockRank, ServiceMutexesAreOutermost) {
  // The two service locks sit below every runtime rank, mailbox
  // before registry; entk-analyze --locks checks the code against
  // this table, and these assertions pin the table itself.
  EXPECT_LT(static_cast<int>(LockRank::kServeMailbox),
            static_cast<int>(LockRank::kServeRegistry));
  EXPECT_LT(static_cast<int>(LockRank::kServeRegistry),
            static_cast<int>(LockRank::kRuntime));
  EXPECT_LT(static_cast<int>(LockRank::kServeRegistry),
            static_cast<int>(LockRank::kGraphExecutor));
  EXPECT_LT(static_cast<int>(LockRank::kServeRegistry),
            static_cast<int>(LockRank::kUnitManager));
  EXPECT_LT(static_cast<int>(LockRank::kServeRegistry),
            static_cast<int>(LockRank::kMetricsRegistry));
  EXPECT_STREQ(lock_rank_name(LockRank::kServeMailbox), "kServeMailbox");
  EXPECT_STREQ(lock_rank_name(LockRank::kServeRegistry),
               "kServeRegistry");
}

#if defined(ENTK_LOCK_RANK_CHECK)

template <typename Body>
int exit_status_of(Body body) {
  const pid_t pid = fork();
  if (pid == 0) {
    std::freopen("/dev/null", "w", stderr);
    body();
    _exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

TEST(ServeLockRank, MailboxThenRegistryPasses) {
  Mutex mailbox(LockRank::kServeMailbox);
  Mutex registry(LockRank::kServeRegistry);
  MutexLock outer(mailbox);
  MutexLock inner(registry);
  EXPECT_EQ(lockrank::held_count(), 2);
}

TEST(ServeLockRank, RegistryThenMailboxAborts) {
  const int status = exit_status_of([] {
    Mutex mailbox(LockRank::kServeMailbox);
    Mutex registry(LockRank::kServeRegistry);
    MutexLock outer(registry);
    MutexLock inner(mailbox);  // inverted service order: must abort
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

TEST(ServeLockRank, RuntimeLockUnderRegistryPasses) {
  // The drive thread takes runtime locks while holding the registry
  // (snapshot updates mid-flush): that nesting must stay legal.
  Mutex registry(LockRank::kServeRegistry);
  Mutex graph(LockRank::kGraphExecutor);
  MutexLock outer(registry);
  MutexLock inner(graph);
  EXPECT_EQ(lockrank::held_count(), 2);
}

TEST(ServeLockRank, RegistryUnderRuntimeLockAborts) {
  const int status = exit_status_of([] {
    Mutex registry(LockRank::kServeRegistry);
    Mutex graph(LockRank::kGraphExecutor);
    MutexLock outer(graph);
    MutexLock inner(registry);  // service lock under a runtime lock
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

#endif  // ENTK_LOCK_RANK_CHECK

}  // namespace
}  // namespace entk::serve
