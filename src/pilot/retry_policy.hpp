// RetryPolicy: how a unit's failures are retried.
//
// The paper's pilot abstraction exists so an ensemble survives machine
// faults; this is the knob set that controls *how*. A unit failing with
// retry budget left is resubmitted after an exponential-backoff delay
// (with optional jitter to de-synchronise retry storms), and a unit
// that executes past `execution_timeout` is killed and treated as
// failed — the only defence against hung tasks.
#pragma once

#include "common/status.hpp"
#include "common/types.hpp"

namespace entk::pilot {

struct RetryPolicy {
  /// Automatic resubmissions on failure (0 = fail permanently).
  Count max_retries = 0;
  /// Delay before the first retry; 0 = resubmit immediately.
  Duration backoff_base = 0.0;
  /// Growth factor applied per additional retry (exponential backoff).
  double backoff_multiplier = 2.0;
  /// Cap on the backoff delay; 0 = uncapped.
  Duration backoff_max = 0.0;
  /// Jitter fraction in [0, 1): the delay is scaled by a uniform factor
  /// in [1 - jitter, 1 + jitter]. 0 = deterministic delays.
  double jitter = 0.0;
  /// Kills a unit still executing after this long (hung-task defence);
  /// 0 = unlimited. Enforced on the simulated backend only — local
  /// payloads run on uninterruptible threads.
  Duration execution_timeout = 0.0;

  bool operator==(const RetryPolicy& other) const = default;

  Status validate() const;

  /// Backoff delay before retry number `attempt` (1-based).
  /// `jitter_draw` is a uniform [0, 1) sample; the default 0.5 yields
  /// the un-jittered delay.
  Duration delay_for(Count attempt, double jitter_draw = 0.5) const;
};

}  // namespace entk::pilot
