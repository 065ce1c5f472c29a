// Tests for the work-stealing pool (common/work_stealing_pool.hpp)
// and the TaskFn small-buffer callable it runs on.
//
// The concurrency tests are written to be meaningful under the `tsan`
// preset (data-race windows: steal vs owner pop, park vs submit,
// shutdown vs submit) and under the `lock-rank` preset (the pool's
// two new ranks must order cleanly against the layers that own
// pools). Counters from stats() let the steal and park paths assert
// that they actually ran, not just that nothing crashed.
#include "common/work_stealing_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/lock_rank.hpp"
#include "common/mutex.hpp"
#include "common/task_fn.hpp"

#if defined(ENTK_LOCK_RANK_CHECK)
#include <csignal>
#include <cstdio>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace entk {
namespace {

// ---------------------------------------------------------------- TaskFn

TEST(TaskFn, EmptyByDefaultAndAfterMoveOut) {
  TaskFn task;
  EXPECT_FALSE(static_cast<bool>(task));
  std::atomic<int> runs{0};
  TaskFn filled([&runs] { runs.fetch_add(1); });
  EXPECT_TRUE(static_cast<bool>(filled));
  TaskFn taken = std::move(filled);
  EXPECT_FALSE(static_cast<bool>(filled));  // NOLINT(bugprone-use-after-move)
  taken();
  EXPECT_EQ(runs.load(), 1);
}

TEST(TaskFn, SmallCallablesAvoidTheHeap) {
  // A capture that fits the inline buffer must be stored inline; the
  // trait is what both pools rely on for the zero-allocation hot path.
  int a = 1, b = 2, c = 3;
  auto small = [a, b, c]() { (void)(a + b + c); };
  static_assert(TaskFn::stores_inline<decltype(small)>,
                "three ints must fit the inline buffer");
  struct Big {
    unsigned char bytes[128];
    void operator()() const {}
  };
  static_assert(!TaskFn::stores_inline<Big>,
                "128 bytes must spill to the heap");
  TaskFn inline_task(small);
  TaskFn heap_task(Big{});
  inline_task();
  heap_task();
}

TEST(TaskFn, MoveOnlyCallablesWork) {
  auto value = std::make_unique<int>(41);
  std::atomic<int> seen{0};
  TaskFn task([moved = std::move(value), &seen] { seen = *moved + 1; });
  TaskFn hopped = std::move(task);
  hopped();
  EXPECT_EQ(seen.load(), 42);
}

TEST(TaskFn, DestroysCaptureWithoutInvocation) {
  // A task dropped on the floor (e.g. rejected by a stopping pool)
  // must still release what it captured.
  auto guard = std::make_shared<int>(7);
  std::weak_ptr<int> watch = guard;
  {
    TaskFn task([held = std::move(guard)] { (void)*held; });
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

// ------------------------------------------------- WorkStealingPool core

TEST(WorkStealingPool, ExecutesExternalSubmissions) {
  std::atomic<std::size_t> executed{0};
  WorkStealingPool pool(3);
  for (std::size_t i = 0; i < 200; ++i) {
    pool.submit_external(TaskFn([&executed] { executed.fetch_add(1); }));
  }
  pool.wait_idle();
  EXPECT_EQ(executed.load(), 200u);
  EXPECT_EQ(pool.stats().executed, 200u);
}

TEST(WorkStealingPool, SubmitLocalOffPoolFallsBackToExternal) {
  std::atomic<bool> ran{false};
  WorkStealingPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  EXPECT_TRUE(pool.submit_local(TaskFn([&ran] { ran = true; })));
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(WorkStealingPool, StealStormDistributesOneProducersBacklog) {
  // One worker spawns the whole workload from inside the pool (so it
  // lands on that worker's own deque, LIFO); the other workers have
  // nothing and must steal. With a workload far wider than one
  // worker's throughput appetite, steals must be observed.
  constexpr std::size_t kTasks = 400;
  std::atomic<std::size_t> executed{0};
  WorkStealingPool pool(4);
  pool.submit_external(TaskFn([&pool, &executed] {
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_TRUE(pool.submit_local(TaskFn([&executed] {
        // Tasks must BLOCK, not spin: on a single-CPU host a spinning
        // owner drains its whole deque before a thief is ever
        // scheduled, and the steal assertion below would be vacuous.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        executed.fetch_add(1, std::memory_order_relaxed);
      })));
    }
  }));
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kTasks);
  const WorkStealingPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.executed, kTasks + 1);
  EXPECT_GT(stats.stolen, 0u) << "idle workers never stole the backlog";
}

TEST(WorkStealingPool, ExternalSubmissionsStayFairAgainstBusyWorkers) {
  // A worker feeding itself LIFO must still drain the external queue:
  // an off-pool submission may not starve behind a self-sustaining
  // local loop.
  WorkStealingPool pool(1);  // one worker: no thief can rescue us
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> spins{0};
  // Self-perpetuating local task.
  pool.submit_external(TaskFn([&pool, &stop, &spins] {
    struct Loop {
      WorkStealingPool* pool;
      std::atomic<bool>* stop;
      std::atomic<std::size_t>* spins;
      void operator()() const {
        if (stop->load(std::memory_order_acquire)) return;
        spins->fetch_add(1, std::memory_order_relaxed);
        (void)pool->submit_local(TaskFn(Loop{pool, stop, spins}));
      }
    };
    Loop{&pool, &stop, &spins}();
  }));
  std::atomic<bool> external_ran{false};
  pool.submit_external(TaskFn([&external_ran, &stop] {
    external_ran.store(true, std::memory_order_release);
    stop.store(true, std::memory_order_release);
  }));
  // The external task stops the loop; if it starves, wait_idle would
  // hang, so poll with a deadline instead.
  for (int i = 0; i < 10000 && !external_ran.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(external_ran.load())
      << "external submission starved behind local work";
  stop.store(true);
  pool.wait_idle();
  EXPECT_GT(spins.load(), 0u);
}

TEST(WorkStealingPool, BurstyLoadParksAndWakesWorkers) {
  WorkStealingPool pool(3);
  std::atomic<std::size_t> executed{0};
  for (int burst = 0; burst < 5; ++burst) {
    // Idle gap: spin budgets expire and workers park.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (std::size_t i = 0; i < 50; ++i) {
      pool.submit_external(TaskFn([&executed] { executed.fetch_add(1); }));
    }
    pool.wait_idle();
    EXPECT_EQ(executed.load(), 50u * (burst + 1));
  }
  EXPECT_GT(pool.stats().parks, 0u)
      << "workers never parked across idle gaps";
}

TEST(WorkStealingPool, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  WorkStealingPool pool(4);
  pool.parallel_for(kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // Degenerate sizes.
  std::atomic<int> once{0};
  pool.parallel_for(0, [&once](std::size_t) { once.fetch_add(1); });
  EXPECT_EQ(once.load(), 0);
  pool.parallel_for(1, [&once](std::size_t) { once.fetch_add(1); });
  EXPECT_EQ(once.load(), 1);
}

TEST(WorkStealingPool, ParallelForNestsInsidePoolTasks) {
  // GraphExecutor calls parallel_for from run_concurrent's advance
  // tasks, which themselves run on the pool: the caller participates,
  // so nesting must not deadlock even when every worker is busy.
  WorkStealingPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(4, [&pool, &total](std::size_t) {
    pool.parallel_for(8, [&total](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32u);
}

TEST(WorkStealingPool, MetricsSinkSeesExecutedCounts) {
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> parked{0};
  {
    WorkStealingPool pool(2, [&](PoolMetric metric, std::uint64_t n) {
      if (metric == PoolMetric::kExecuted) executed.fetch_add(n);
      if (metric == PoolMetric::kParked) parked.fetch_add(n);
    });
    for (std::size_t i = 0; i < 32; ++i) {
      pool.submit_external(TaskFn([] {}));
    }
    pool.wait_idle();
  }
  EXPECT_EQ(executed.load(), 32u);
}

// ------------------------------------------------------ shutdown safety

TEST(WorkStealingPool, ConcurrentSubmittersExecuteEveryAcceptedTask) {
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kTasksEach = 500;
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> accepted{0};
  WorkStealingPool pool(3);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (std::size_t i = 0; i < kTasksEach; ++i) {
        if (pool.try_submit_external(TaskFn([&executed] {
              executed.fetch_add(1, std::memory_order_relaxed);
            }))) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  pool.wait_idle();
  EXPECT_EQ(accepted.load(), kSubmitters * kTasksEach);
  EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
}

TEST(WorkStealingPool, ShutdownUnderLoadNeverLosesAcceptedTasks) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> executed{0};
    std::atomic<std::size_t> accepted{0};
    WorkStealingPool pool(2);
    std::vector<std::thread> submitters;
    std::atomic<bool> go{false};
    for (std::size_t s = 0; s < 3; ++s) {
      submitters.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::size_t i = 0; i < 200; ++i) {
          if (pool.try_submit_external(TaskFn([&executed] {
                executed.fetch_add(1, std::memory_order_relaxed);
              }))) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    std::this_thread::yield();
    pool.shutdown();  // races the submitters on purpose
    for (auto& submitter : submitters) submitter.join();
    EXPECT_FALSE(pool.try_submit_external(TaskFn([] {})))
        << "pool accepted after shutdown";
    EXPECT_EQ(executed.load(), accepted.load())
        << "accepted tasks were dropped by shutdown";
  }
}

TEST(WorkStealingPool, ConcurrentShutdownCallsAllJoin) {
  std::atomic<std::size_t> executed{0};
  WorkStealingPool pool(2);
  for (std::size_t i = 0; i < 64; ++i) {
    pool.submit_external(TaskFn([&executed] { executed.fetch_add(1); }));
  }
  std::vector<std::thread> closers;
  for (std::size_t s = 0; s < 4; ++s) {
    closers.emplace_back([&pool] { pool.shutdown(); });
  }
  for (auto& closer : closers) closer.join();
  EXPECT_EQ(executed.load(), 64u);
  pool.shutdown();  // idempotent
}

TEST(WorkStealingPool, WorkersRejectResubmissionDuringShutdown) {
  // A task running while shutdown drains may try to reschedule itself
  // (the LocalAgent/LocalAdaptor pattern): it must get a clean false,
  // never an abort and never a hang.
  std::atomic<std::size_t> rejected{0};
  WorkStealingPool pool(2);
  std::atomic<bool> entered{false};
  pool.submit_external(TaskFn([&pool, &rejected, &entered] {
    entered.store(true, std::memory_order_release);
    // shutdown() races this task: resubmissions accepted before the
    // stop flag flips are legal (they drain as no-ops), and once it
    // flips every submission must get a clean false — never an abort.
    while (pool.submit_local(TaskFn([] {}))) {
      std::this_thread::yield();
    }
    rejected.fetch_add(1);
    if (!pool.try_submit_external(TaskFn([] {}))) rejected.fetch_add(1);
  }));
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  pool.shutdown();
  EXPECT_EQ(rejected.load(), 2u)
      << "submission during shutdown was not refused";
}

TEST(WorkStealingPool, WaitIdleRacesSubmitters) {
  std::atomic<std::size_t> executed{0};
  WorkStealingPool pool(2);
  std::thread submitter([&] {
    for (std::size_t i = 0; i < 300; ++i) {
      pool.submit_external(TaskFn([&executed] { executed.fetch_add(1); }));
    }
  });
  for (int i = 0; i < 10; ++i) pool.wait_idle();  // may overlap submits
  submitter.join();
  pool.wait_idle();  // all submits done: this one is authoritative
  EXPECT_EQ(executed.load(), 300u);
}

// ---------------------------------------------------------- lock ranks

#if defined(ENTK_LOCK_RANK_CHECK)

/// Runs `body` in a forked child and returns its wait status (see
/// lock_rank_test.cpp for the idiom).
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

TEST(WorkStealingPoolLockRank, LayerLocksOrderBelowTheQueues) {
  // The integration contract: submitting under a layer lock
  // (GraphExecutor, LocalAdaptor, LocalAgent) nests that lock OUTSIDE
  // a queue lock, so layer < pool state < queue must hold.
  Mutex agent(LockRank::kLocalAgent);
  Mutex pool_state(LockRank::kWorkStealingPool);
  Mutex queue(LockRank::kWorkStealingQueue);
  {
    MutexLock outer(agent);
    MutexLock inner(queue);  // agent(50) -> queue(78): legal
  }
  {
    MutexLock outer(pool_state);
    MutexLock inner(queue);  // pool(76) -> queue(78): legal
  }
  EXPECT_EQ(lockrank::held_count(), 0);
}

TEST(WorkStealingPoolLockRank, QueueThenPoolStateAborts) {
  // park()/shutdown() must never take state_mutex_ while holding a
  // queue lock; the validator enforces it at runtime.
  const int status = exit_status_of([] {
    Mutex queue(LockRank::kWorkStealingQueue);
    Mutex pool_state(LockRank::kWorkStealingPool);
    MutexLock outer(queue);
    MutexLock inner(pool_state);  // 78 -> 76: must abort
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

TEST(WorkStealingPoolLockRank, TwoQueuesNeverNest) {
  // Steals use try_lock precisely so two deque locks are never held
  // together; a blocking nested acquisition is a rank violation.
  const int status = exit_status_of([] {
    Mutex victim(LockRank::kWorkStealingQueue);
    Mutex own(LockRank::kWorkStealingQueue);
    MutexLock outer(own);
    MutexLock inner(victim);  // equal rank: must abort
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

TEST(WorkStealingPoolLockRank, PoolRunsCleanUnderTheValidator) {
  // End-to-end: a busy pool (steals, parks, external queue) must not
  // trip the validator.
  std::atomic<std::size_t> executed{0};
  WorkStealingPool pool(3);
  for (std::size_t i = 0; i < 500; ++i) {
    pool.submit_external(TaskFn([&executed, &pool] {
      executed.fetch_add(1);
      (void)pool.submit_local(TaskFn([&executed] {
        executed.fetch_add(1);
      }));
    }));
  }
  pool.wait_idle();
  pool.shutdown();
  EXPECT_EQ(executed.load(), 1000u);
}

#endif  // ENTK_LOCK_RANK_CHECK

}  // namespace
}  // namespace entk
