#include "saga/local_adaptor.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/uid.hpp"
#include "obs/metrics.hpp"
#include "obs/pool_metrics.hpp"
#include "obs/trace.hpp"

namespace entk::saga {

LocalAdaptor::LocalAdaptor(Count cores, std::size_t workers)
    : cores_(cores), free_(cores) {
  ENTK_CHECK(cores >= 1, "local adaptor needs at least one core");
  if (workers == 0) {
    workers = std::min<std::size_t>(static_cast<std::size_t>(cores), 16);
  }
  pool_ = std::make_unique<WorkStealingPool>(workers, obs::pool_metric_fn());
}

LocalAdaptor::~LocalAdaptor() {
  // Drain payloads before members are destroyed: worker lambdas
  // reference this adaptor — and pool_ itself, when finish() launches
  // the next waiting job. Shut down BEFORE reset(): unique_ptr::reset
  // nulls the pointer before running the destructor, so a worker
  // mid-finish would dereference null.
  pool_->shutdown();
  pool_.reset();
}

Count LocalAdaptor::free_cores() const {
  MutexLock lock(mutex_);
  return free_;
}

Result<JobPtr> LocalAdaptor::submit(JobDescription description) {
  ENTK_RETURN_IF_ERROR(description.validate());
  ENTK_TRACE_INSTANT("saga.job.submit", "saga");
  obs::Metrics::instance()
      .counter(obs::WellKnownCounter::kSagaJobsSubmitted)
      .add();
  if (description.total_cpu_count > cores_) {
    return make_error(Errc::kResourceExhausted,
                      "job requests " +
                          std::to_string(description.total_cpu_count) +
                          " cores; local host has " + std::to_string(cores_));
  }
  std::string uid = next_uid(session_uid_family(description.session, "job"));
  auto job =
      std::make_shared<Job>(std::move(uid), std::move(description), clock_);
  ENTK_CHECK(job->advance_state(JobState::kPending).is_ok(), "fresh job");
  std::vector<JobPtr> started;
  {
    MutexLock lock(mutex_);
    waiting_.push_back(job);
    started = try_start_locked();
  }
  launch(std::move(started));
  return job;
}

std::vector<JobPtr> LocalAdaptor::try_start_locked() {
  std::vector<JobPtr> started;
  while (!waiting_.empty()) {
    JobPtr job = waiting_.front();
    if (is_final(job->state())) {  // cancelled while waiting
      waiting_.pop_front();
      continue;
    }
    const Count need = job->description().total_cpu_count;
    if (need > free_) break;  // FIFO: head of queue blocks the rest
    waiting_.pop_front();
    free_ -= need;
    running_.emplace(job.get(), job);
    started.push_back(std::move(job));
  }
  return started;
}

void LocalAdaptor::launch(std::vector<JobPtr> started) {
  while (!started.empty()) {
    std::vector<JobPtr> restarted;
    for (JobPtr& job : started) {
      if (job->advance_state(JobState::kRunning).is_ok()) {
        if (job->description().payload) {
          // submit_local: finish() on a worker thread launches the
          // next waiting job from that same thread, keeping the FIFO
          // hand-off on the hot deque. The pool refuses once shutdown
          // starts (a payload finishing while the adaptor tears down)
          // — cancel the job instead of aborting the process.
          const bool accepted = pool_->submit_local(TaskFn([this, job] {
            const Status status = job->description().payload();
            finish(job,
                   status.is_ok() ? JobState::kDone : JobState::kFailed,
                   status);
          }));
          if (!accepted) {
            finish(job, JobState::kCanceled,
                   make_error(Errc::kCancelled,
                              "local adaptor is shutting down"));
          }
        }
        // Container jobs (no payload) keep their cores until
        // complete().
        continue;
      }
      // The job reached a final state between reservation and launch
      // (cancel raced with start-up): return its cores, which may let
      // further waiting jobs start.
      MutexLock lock(mutex_);
      const auto it = running_.find(job.get());
      if (it == running_.end()) continue;  // raced with finish()
      running_.erase(it);
      free_ += job->description().total_cpu_count;
      ENTK_CHECK(free_ <= cores_, "core accounting out of sync");
      auto more = try_start_locked();
      restarted.insert(restarted.end(),
                       std::make_move_iterator(more.begin()),
                       std::make_move_iterator(more.end()));
    }
    started = std::move(restarted);
  }
}

void LocalAdaptor::finish(const JobPtr& job, JobState final_state,
                          Status failure) {
  std::vector<JobPtr> started;
  {
    MutexLock lock(mutex_);
    const auto it = running_.find(job.get());
    if (it == running_.end()) return;  // raced with cancel()
    running_.erase(it);
    free_ += job->description().total_cpu_count;
    ENTK_CHECK(free_ <= cores_, "core accounting out of sync");
    started = try_start_locked();
  }
  (void)job->advance_state(final_state, std::move(failure));
  launch(std::move(started));
}

Status LocalAdaptor::cancel(Job& job) {
  JobPtr handle;
  {
    MutexLock lock(mutex_);
    const auto it = running_.find(&job);
    if (it != running_.end()) {
      handle = it->second;
      // A running payload cannot be interrupted mid-flight (we never
      // kill threads); only container jobs are cancellable once
      // running.
      if (job.description().payload) {
        return make_error(Errc::kFailedPrecondition,
                          "job " + job.uid() +
                              " is executing a payload and cannot be "
                              "cancelled mid-run");
      }
    } else {
      const auto waiting_it = std::find_if(
          waiting_.begin(), waiting_.end(),
          [&](const JobPtr& candidate) { return candidate.get() == &job; });
      if (waiting_it == waiting_.end()) {
        return make_error(Errc::kNotFound,
                          "job " + job.uid() + " is not active locally");
      }
      handle = *waiting_it;
      waiting_.erase(waiting_it);
      // Not running: transition directly.
    }
  }
  if (handle->state() == JobState::kRunning) {
    finish(handle, JobState::kCanceled, Status::ok());
    return Status::ok();
  }
  return handle->advance_state(JobState::kCanceled);
}

Status LocalAdaptor::complete(Job& job) {
  JobPtr handle;
  {
    MutexLock lock(mutex_);
    const auto it = running_.find(&job);
    if (it == running_.end()) {
      return make_error(Errc::kNotFound,
                        "job " + job.uid() + " is not running locally");
    }
    if (job.description().payload) {
      return make_error(Errc::kFailedPrecondition,
                        "job " + job.uid() +
                            " has a payload; it completes by itself");
    }
    handle = it->second;
  }
  finish(handle, JobState::kDone, Status::ok());
  return Status::ok();
}

}  // namespace entk::saga
