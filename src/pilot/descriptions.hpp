// Descriptions of pilots and compute units (the RP API analogues of
// ComputePilotDescription / ComputeUnitDescription).
#pragma once

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "pilot/retry_policy.hpp"

namespace entk::pilot {

/// Requests one pilot: a container job holding `cores` cores on
/// `resource` for `runtime` seconds, inside which any number of units
/// can be scheduled (application-level scheduling).
struct PilotDescription {
  std::string resource;      ///< Machine name, e.g. "xsede.comet".
  Count cores = 0;           ///< Cores to hold.
  Duration runtime = 3600;   ///< Walltime of the container job.
  std::string queue;         ///< Batch queue (informational).
  std::string project;       ///< Allocation to charge (informational).
  std::string session;       ///< Owning session; "" = legacy unnamed.

  Status validate() const;
};

/// One file-staging action. On the simulated backend the transfer costs
/// latency + size/bandwidth; on the local backend the file is really
/// copied (or linked) between the unit sandbox and the shared space.
struct StagingDirective {
  enum class Action { kCopy, kLink, kMove };
  std::string source;      ///< Path relative to shared space (input) or
                           ///< sandbox (output).
  std::string target;      ///< Destination path, same conventions.
  Action action = Action::kCopy;
  double size_mb = 0.0;    ///< Transfer size for the simulated backend.
};

/// Runtime context a unit payload executes in (local backend).
struct UnitRuntimeContext {
  std::filesystem::path sandbox;  ///< Private working directory.
  std::filesystem::path shared;   ///< Pilot-wide shared directory.
  Count cores = 1;                ///< Cores assigned to this unit.
  const std::map<std::string, std::string>* environment = nullptr;
};

/// In-process stand-in for the unit's executable.
using UnitPayload = std::function<Status(const UnitRuntimeContext&)>;

/// Requests one compute unit (task).
struct UnitDescription {
  std::string name;                 ///< Kernel/task label for profiling.
  std::string executable;           ///< Command line (informational).
  std::vector<std::string> arguments;
  std::map<std::string, std::string> environment;
  Count cores = 1;                  ///< Cores (MPI ranks) required.
  bool uses_mpi = false;            ///< Multi-core MPI launch.
  /// Owning session; "" = legacy unnamed. Stamped by the execution
  /// plugin at translation; the UnitManager rejects a description
  /// stamped for another session.
  std::string session;
  std::vector<StagingDirective> input_staging;
  std::vector<StagingDirective> output_staging;

  /// Real work for the local backend. Every unit of an equal TaskSpec
  /// shares one description, so local-agent workers may call the same
  /// payload concurrently (see kernels::BoundKernel::payload).
  UnitPayload payload;
  /// Core occupancy time for the simulated backend.
  Duration simulated_duration = 0.0;
  /// Failure injection (simulated backend): unit fails after running
  /// — once, on its first execution attempt.
  bool simulated_fail = false;
  /// Hang injection (simulated backend): the first execution attempt
  /// never finishes; only retry.execution_timeout can reclaim it.
  bool simulated_hang = false;
  /// Retry/backoff/timeout policy (both backends).
  RetryPolicy retry;

  Status validate() const;
};

/// Immutable once built; every unit of an equal TaskSpec shares one.
using SharedUnitDescription = std::shared_ptr<const UnitDescription>;

}  // namespace entk::pilot
