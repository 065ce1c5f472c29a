// Unique-id generation for toolkit entities.
//
// Every task, unit, pilot, job and pattern instance gets a uid of the
// form "<prefix>.<counter>" (e.g. "unit.000042"), matching the naming
// scheme of the original toolkit's profiler output. Counters are
// per-prefix and process-global; generation is thread-safe.
//
// The hot path is lock-free after the first use of a prefix: each
// prefix owns one atomic counter, found through a reader-locked hash
// lookup (or held directly via a UidSource handle), so concurrent
// unit creation no longer serializes on one global mutex.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace entk {

namespace detail {
struct PrefixCounter;
}  // namespace detail

/// Returns the next uid for the given prefix, e.g. uid("task") ->
/// "task.000000", "task.000001", ...
std::string next_uid(const std::string& prefix);

/// Interned uid prefix: resolves the per-prefix counter once at
/// construction, so each next() is a single relaxed atomic increment —
/// no lock, no map lookup, no per-call prefix copy. Shares the same
/// process-global counter as next_uid(prefix), and stays valid across
/// reset_uid_counters_for_testing() (which zeroes counters in place).
class UidSource {
 public:
  explicit UidSource(std::string prefix);

  /// Thread-safe; uids are globally unique for the prefix.
  std::string next() const;

  const std::string& prefix() const { return prefix_; }

 private:
  std::string prefix_;
  detail::PrefixCounter* counter_;
};

/// The uid family of kind `kind` ("unit", "pilot") owned by session
/// `session`: "<session>.<kind>", or the legacy process-wide `kind`
/// for the unnamed session. This module is the one place that knows
/// the convention; the per-session snapshot and restore below rely on
/// it.
std::string session_uid_family(const std::string& session,
                               const std::string& kind);

/// Resets all counters; intended for test isolation only. Interned
/// UidSource handles remain valid (counters restart at zero).
void reset_uid_counters_for_testing();

/// Resets only the counters belonging to one uid family: prefixes that
/// equal `family` or start with `family` + ".". Used when restoring a
/// named session from a checkpoint so the reset cannot stomp the
/// counters of sessions still running in this process.
void reset_uid_counters_with_prefix(const std::string& family);

/// Snapshot of the (prefix, next-counter) pairs of the families session
/// `session` owns — "<session>.<kind>" for a named session, the
/// dot-free legacy families for the unnamed one — sorted by prefix, so
/// the result depends on the session's own history only. Used by
/// checkpoint/restart.
std::vector<std::pair<std::string, std::uint64_t>> snapshot_uid_counters(
    const std::string& session);

/// Restores counter values from a snapshot of `session` (creating
/// missing prefixes). Only that session's families are written: other
/// sessions' "<session>.<kind>" counters are never touched, whatever
/// the snapshot lists.
/// Prefixes absent from the snapshot are left untouched; callers that
/// need a clean slate reset the counters first.
void restore_uid_counters(
    const std::string& session,
    const std::vector<std::pair<std::string, std::uint64_t>>& snapshot);

}  // namespace entk
