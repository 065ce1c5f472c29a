// Workflow-level checkpoint snapshots.
//
// A Snapshot is a complete, self-contained image of one running
// ensemble at an engine-step boundary: the compiled TaskGraph's
// runtime state (node statuses, expander progress, group verdicts),
// every compute unit (description + state machine + profiling
// timeline), the unit manager's routing/retry bookkeeping, each pilot
// agent's dispatch state, the fault model's RNG streams, the pending
// engine events, and the process-global uid counters. Restoring it
// onto a fresh backend resumes the run bit-for-bit: the remaining
// schedule is identical to the uninterrupted same-seed run (see
// tests/checkpoint_restart_test.cpp).
//
// On-disk format (little-endian):
//   8 bytes   magic "ENTKCKPT"
//   u32       format version (kFormatVersion)
//   u64       payload size in bytes
//   u64       FNV-1a checksum of the payload
//   payload   the encoded Snapshot
// Files are published crash-consistently (write-temp + fsync + atomic
// rename, src/common/atomic_file.hpp): a reader sees either the old
// snapshot or the new one, never a torn write. Corrupt files —
// truncated, bit-flipped, wrong magic, future version — fail
// read_snapshot_file() with a diagnostic Status, never UB.
//
// Scope: the simulated backend only. UnitDescription::payload (the
// local backend's in-process work function) is not serializable and is
// dropped; local-backend runs cannot be checkpointed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/graph_executor.hpp"
#include "pilot/compute_unit.hpp"
#include "pilot/sim_agent.hpp"
#include "pilot/unit_manager.hpp"
#include "sim/fault_model.hpp"

namespace entk::ckpt {

inline constexpr char kSnapshotMagic[8] = {'E', 'N', 'T', 'K',
                                           'C', 'K', 'P', 'T'};
/// v2 adds the owning session name (snapshot identity + per-unit
/// descriptions). v1 files still decode, with every session field
/// empty — the legacy single-workload layout.
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint32_t kMinFormatVersion = 1;

/// One compute unit: identity, (re)creation inputs, and captured state.
struct UnitRecord {
  std::string uid;
  /// Never null. Capture shares the live unit's immutable description
  /// instead of copying it; decode owns a fresh one, which the restored
  /// unit adopts. payload is dropped on encode (sim backend only).
  std::shared_ptr<const pilot::UnitDescription> description;
  pilot::ComputeUnit::SavedState state;
  bool settled = false;   ///< UnitManager entry flag.
  bool notified = false;  ///< Settled observers already fired.
};

/// A pending retry-backoff requeue with its original firing point.
struct RetryRecord {
  std::string uid;
  TimePoint time = 0.0;
  std::uint64_t seq = 0;
};

/// One pilot and its agent's dispatch state, in allocation order.
struct PilotRecord {
  std::string uid;
  pilot::SimAgent::SavedState agent;
};

struct Snapshot {
  // Identity guard: a snapshot restores only into the same resources
  // and pattern (verified by Coordinator::restore_runtime).
  std::string machine;
  Count cores = 0;
  Count n_pilots = 1;
  Duration runtime = 0.0;
  std::string scheduler_policy;
  std::string pattern_name;
  /// Owning session (""= legacy unnamed). A named-session snapshot
  /// restores only into a session of the same name, and its uid
  /// counters cover only that session's families, so restoring while
  /// other sessions run in the process cannot stomp their counters.
  std::string session;
  /// Optional: the serialized workload file (entk-run round-trip).
  std::string workload_text;

  TimePoint engine_now = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> uid_counters;
  /// Submission order (the plugin's all_units order) — the canonical
  /// unit serialization order everything else references by uid.
  std::vector<UnitRecord> units;
  Duration pattern_overhead = 0.0;
  pilot::UnitManager::SavedState unit_manager;
  std::vector<RetryRecord> retries;
  std::vector<PilotRecord> pilots;
  bool has_faults = false;
  sim::FaultModel::SavedState faults;
  core::GraphExecutor::SavedState graph;
};

/// 64-bit FNV-1a over a byte string (payload checksum).
std::uint64_t fnv1a(std::string_view bytes);

/// Encodes a snapshot into the full file image (header + payload).
std::string encode_snapshot(const Snapshot& snapshot);

/// Decodes a full file image, validating magic, version, payload size
/// and checksum. Every structural error returns a diagnostic Status.
Result<Snapshot> decode_snapshot(std::string_view bytes);

/// Writes a snapshot crash-consistently (temp + fsync + rename).
Status write_snapshot_file(const std::string& path,
                           const Snapshot& snapshot);

/// Reads and decodes a snapshot file.
Result<Snapshot> read_snapshot_file(const std::string& path);

}  // namespace entk::ckpt
