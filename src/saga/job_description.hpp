// SAGA-style job description, following the fields of the Job
// Submission Description Language (JSDL, GFD.56) that the paper's
// SAGA layer standardises on.
//
// Two execution-backend hooks extend the JSDL core:
//  - `payload`: an in-process callable the local adaptor runs instead
//    of fork/exec-ing `executable` (our stand-in for process launch);
//  - `simulated_duration`: how long the job occupies its cores on the
//    simulated backend when no owner drives it (container jobs are
//    instead ended explicitly by their owner).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace entk::saga {

struct JobDescription {
  // --- JSDL core ---
  std::string name;                ///< Human-readable job name.
  std::string executable;          ///< Command to run.
  std::vector<std::string> arguments;
  std::map<std::string, std::string> environment;
  std::string working_directory;
  Count total_cpu_count = 1;       ///< Cores requested.
  Count processes_per_host = 0;    ///< 0 = let the backend decide.
  Duration wall_time_limit = 3600; ///< Seconds before forcible end.
  std::string queue;               ///< Batch queue/partition name.
  std::string project;             ///< Allocation/project to charge.
  /// Owning session: the job uid draws from its "<session>.job"
  /// family; "" = legacy unnamed (the "job" family).
  std::string session;

  // --- execution-backend hooks ---
  /// In-process work for the local adaptor; may be empty for container
  /// jobs that are driven externally (e.g. pilot agents).
  std::function<Status()> payload;
  /// Sim-backend running time; <= 0 means "runs until completed by its
  /// owner or by walltime".
  Duration simulated_duration = 0.0;

  /// Checks field ranges (cores >= 1, walltime > 0, ...).
  Status validate() const;
};

}  // namespace entk::saga
