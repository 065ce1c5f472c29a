#include "common/lock_rank.hpp"

#include <cstdio>
#include <cstdlib>

namespace entk {

const char* lock_rank_name(LockRank rank) {
  switch (rank) {
    case LockRank::kNone:
      return "kNone";
    case LockRank::kServeMailbox:
      return "kServeMailbox";
    case LockRank::kServeRegistry:
      return "kServeRegistry";
    case LockRank::kRuntime:
      return "kRuntime";
    case LockRank::kGraphExecutor:
      return "kGraphExecutor";
    case LockRank::kExecutionPlugin:
      return "kExecutionPlugin";
    case LockRank::kCallbackGate:
      return "kCallbackGate";
    case LockRank::kUnitManager:
      return "kUnitManager";
    case LockRank::kPilot:
      return "kPilot";
    case LockRank::kLocalAdaptor:
      return "kLocalAdaptor";
    case LockRank::kLocalAgent:
      return "kLocalAgent";
    case LockRank::kBackendTimers:
      return "kBackendTimers";
    case LockRank::kSagaJob:
      return "kSagaJob";
    case LockRank::kComputeUnit:
      return "kComputeUnit";
    case LockRank::kWorkStealingPool:
      return "kWorkStealingPool";
    case LockRank::kWorkStealingQueue:
      return "kWorkStealingQueue";
    case LockRank::kUidRegistry:
      return "kUidRegistry";
    case LockRank::kMetricsRegistry:
      return "kMetricsRegistry";
    case LockRank::kSessionRegistry:
      return "kSessionRegistry";
    case LockRank::kTraceRecorder:
      return "kTraceRecorder";
    case LockRank::kLogger:
      return "kLogger";
  }
  return "?";
}

#if defined(ENTK_LOCK_RANK_CHECK)

namespace lockrank {

namespace {

/// One lock the thread holds (or is about to block on).
struct Held {
  const void* mutex;
  LockRank rank;
  const char* kind;
};

// Plain POD thread-local: trivially destructible, so late unlocks
// during thread teardown never touch a destroyed container.
constexpr int kMaxHeld = 64;
thread_local Held t_held[kMaxHeld];
thread_local int t_held_count = 0;

void print_stack(const char* label) {
  std::fprintf(stderr, "  %s (%d lock%s, oldest first):\n", label,
               t_held_count, t_held_count == 1 ? "" : "s");
  for (int i = 0; i < t_held_count; ++i) {
    std::fprintf(stderr, "    #%d %-18s rank %3d  %s @%p\n", i,
                 lock_rank_name(t_held[i].rank),
                 static_cast<int>(t_held[i].rank), t_held[i].kind,
                 t_held[i].mutex);
  }
}

[[noreturn]] void die(const char* reason, LockRank rank,
                      const void* mutex, const char* kind) {
  std::fprintf(stderr,
               "entk: LOCK RANK VIOLATION: %s\n"
               "  offending acquisition: %-18s rank %3d  %s @%p\n",
               reason, lock_rank_name(rank), static_cast<int>(rank),
               kind, mutex);
  print_stack("held-lock stack");
  std::fflush(stderr);
  std::abort();
}

void push(LockRank rank, const void* mutex, const char* kind) {
  if (t_held_count >= kMaxHeld) {
    die("held-lock stack overflow (deeper nesting than kMaxHeld)", rank,
        mutex, kind);
  }
  t_held[t_held_count++] = {mutex, rank, kind};
}

}  // namespace

void acquire(LockRank rank, const void* mutex, const char* kind) {
  for (int i = 0; i < t_held_count; ++i) {
    if (t_held[i].mutex == mutex) {
      die("re-acquiring a lock this thread already holds "
          "(self-deadlock)",
          rank, mutex, kind);
    }
  }
  if (rank != LockRank::kNone) {
    for (int i = 0; i < t_held_count; ++i) {
      if (t_held[i].rank != LockRank::kNone && t_held[i].rank >= rank) {
        die("out-of-order acquisition (a held lock has rank >= the "
            "requested lock; see docs/CORRECTNESS.md)",
            rank, mutex, kind);
      }
    }
  }
  push(rank, mutex, kind);
}

void acquire_unchecked(LockRank rank, const void* mutex,
                       const char* kind) {
  push(rank, mutex, kind);
}

void release(const void* mutex) {
  // Scan from the top: wrappers release in LIFO order, so this is one
  // comparison in practice.
  for (int i = t_held_count - 1; i >= 0; --i) {
    if (t_held[i].mutex != mutex) continue;
    for (int j = i; j + 1 < t_held_count; ++j) t_held[j] = t_held[j + 1];
    --t_held_count;
    return;
  }
  // Releasing something never noted: a wrapper bug, not a user bug.
  std::fprintf(stderr,
               "entk: LOCK RANK VIOLATION: releasing a lock this "
               "thread does not hold @%p\n",
               mutex);
  print_stack("held-lock stack");
  std::fflush(stderr);
  std::abort();
}

int held_count() { return t_held_count; }

}  // namespace lockrank

#endif  // ENTK_LOCK_RANK_CHECK

}  // namespace entk
