#include "core/graph_executor.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "core/parallel_runtime.hpp"
#include "pilot/states.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace entk::core {

namespace {

/// Below this frontier size the spec batch is materialized serially
/// even with a pool configured: dispatching a handful of SpecFn calls
/// costs more than running them inline.
constexpr std::size_t kParallelSpecBatch = 32;

/// A unit is settled when it is final and no retry is pending.
bool unit_settled(const pilot::ComputeUnit& unit) {
  const pilot::UnitState state = unit.state();
  if (!pilot::is_final(state)) return false;
  if (state == pilot::UnitState::kFailed &&
      unit.retries() < unit.description().retry.max_retries) {
    return false;  // the unit manager is about to resubmit it
  }
  return true;
}

bool is_settled_status(NodeStatus status) {
  return status == NodeStatus::kDone || status == NodeStatus::kFailed ||
         status == NodeStatus::kCanceled || status == NodeStatus::kSkipped;
}

}  // namespace

GraphExecutor::GraphExecutor(TaskGraph& graph, PatternExecutor& executor)
    : graph_(graph), executor_(executor) {}

Status GraphExecutor::start() {
  ENTK_RETURN_IF_ERROR(graph_.validate());
  executor_.subscribe_settled(
      [this](const pilot::ComputeUnitPtr& unit, pilot::UnitState) {
        on_unit_settled(unit);
      });
  pump();
  return Status::ok();
}

bool GraphExecutor::finished() const {
  MutexLock lock(mutex_);
  return finished_;
}

Status GraphExecutor::outcome() const {
  MutexLock lock(mutex_);
  return outcome_;
}

void GraphExecutor::unsubscribe() { executor_.unsubscribe_settled(); }

NodeStatus GraphExecutor::node_status(NodeId id) const {
  MutexLock lock(mutex_);
  return id < runs_.size() ? runs_[id].status : NodeStatus::kPending;
}

std::size_t GraphExecutor::nodes_submitted() const {
  MutexLock lock(mutex_);
  return submitted_count_;
}

void GraphExecutor::on_unit_settled(const pilot::ComputeUnitPtr& unit) {
  bool deferred = false;
  {
    MutexLock lock(mutex_);
    const std::uint32_t ordinal = unit->ordinal();
    if (ordinal >= node_of_.size()) return;  // not one of this graph's
    const NodeId id = node_of_[ordinal];
    if (id == kNoNode || runs_[id].unit != unit) return;
    events_.push_back({id, unit->state()});
    deferred = deferred_;
    // Immediate: claim the pump with the event, or leave the event to
    // the active pump. Either way this critical section is the last
    // touch of a settlement that loses the race: once the pump finishes
    // the run, its owner may destroy the executor.
    if (!deferred) {
      if (pumping_ || finished_) return;
      pumping_ = true;
    }
  }
  if (!deferred) {
    pump_claimed();
    return;
  }
  // advance_local() drains it; tell the driver this graph changed.
  if (event_hook_) event_hook_();
}

void GraphExecutor::set_deferred(bool deferred) {
  MutexLock lock(mutex_);
  deferred_ = deferred;
}

void GraphExecutor::set_event_hook(std::function<void()> hook) {
  event_hook_ = std::move(hook);
}

bool GraphExecutor::advance_local() {
  if (!pending_frontier_.empty()) return true;  // unflushed batch
  if (!claim_pump() || !advance_claimed()) return false;
  MutexLock lock(mutex_);
  pumping_ = false;
  return true;
}

bool GraphExecutor::flush_submit() {
  if (pending_frontier_.empty()) return false;
  std::vector<NodeId> frontier = std::move(pending_frontier_);
  pending_frontier_.clear();
  std::vector<TaskSpec> specs = std::move(pending_specs_);
  pending_specs_.clear();
  submit_specs(frontier, specs);
  return true;
}

std::size_t GraphExecutor::flush_submit_bounded(std::size_t max_nodes) {
  if (pending_frontier_.empty() || max_nodes == 0) return 0;
  if (max_nodes >= pending_frontier_.size()) {
    const std::size_t count = pending_frontier_.size();
    flush_submit();
    return count;
  }
  const auto split = static_cast<std::ptrdiff_t>(max_nodes);
  std::vector<NodeId> frontier(pending_frontier_.begin(),
                               pending_frontier_.begin() + split);
  std::vector<TaskSpec> specs(
      std::make_move_iterator(pending_specs_.begin()),
      std::make_move_iterator(pending_specs_.begin() + split));
  pending_frontier_.erase(pending_frontier_.begin(),
                          pending_frontier_.begin() + split);
  pending_specs_.erase(pending_specs_.begin(),
                       pending_specs_.begin() + split);
  submit_specs(frontier, specs);
  return max_nodes;
}

std::vector<pilot::ComputeUnitPtr> GraphExecutor::cancel(Status reason) {
  // The unflushed deferred batch would submit units for nodes the
  // abort sweep is about to retire — drop it before marking the abort.
  pending_frontier_.clear();
  pending_specs_.clear();
  std::vector<pilot::ComputeUnitPtr> inflight;
  {
    MutexLock lock(mutex_);
    if (finished_) return inflight;
    if (!aborted_) {
      aborted_ = true;
      abort_status_ = std::move(reason);
    }
    inflight.reserve(inflight_);
    for (const NodeRun& run : runs_) {
      if (run.status == NodeStatus::kSubmitted) {
        inflight.push_back(run.unit);
      }
    }
  }
  // Run the abort sweep now. With nothing in flight this quiesces and
  // finishes the run immediately; otherwise the returned units'
  // settlements finish it through the normal event path.
  pump();
  return inflight;
}

void GraphExecutor::pump() {
  bool deferred;
  {
    MutexLock lock(mutex_);
    deferred = deferred_;
  }
  // In deferred mode every pump source (start, cancel) only
  // materializes the pending batch; the driver decides when — and how
  // much of — it submits (flush_submit / flush_submit_bounded).
  if (deferred) {
    (void)advance_local();
    return;
  }
  if (claim_pump()) pump_claimed();
}

void GraphExecutor::pump_claimed() {
  // Each batch is flushed under the same claim that built it, so
  // settlements delivered meanwhile (submission callbacks, local-backend
  // worker threads) only queue and are drained by the next step.
  while (advance_claimed()) flush_submit();
}

bool GraphExecutor::claim_pump() {
  MutexLock lock(mutex_);
  if (pumping_ || finished_) return false;
  pumping_ = true;
  return true;
}

bool GraphExecutor::advance_claimed() {
  for (;;) {
    std::vector<NodeId> frontier;
    {
      MutexLock lock(mutex_);
      if (finished_) {
        pumping_ = false;
        return false;
      }
      sync_graph_locked();
      apply_events_locked();
      decide_stage_groups_locked();
      propagate_skips_locked();
      frontier = frontier_locked();
      if (frontier.empty() && inflight_ > 0) {
        // Nothing unblocked; settlements will pump again. The queue is
        // empty here (drained above) and enqueuing takes this lock, so
        // no event can slip past the flag.
        pumping_ = false;
        return false;
      }
    }
    if (!frontier.empty()) {
      pending_specs_ = materialize_specs(frontier);
      pending_frontier_ = std::move(frontier);
      return true;
    }
    // Quiesced: nothing ready, nothing in flight. A false return
    // finished the run, and finish_locked released the claim in the
    // same critical section: do not touch the executor again.
    if (!handle_quiesce()) return false;
  }
}

void GraphExecutor::sync_graph_locked() {
  const std::size_t nodes = graph_.node_count();
  const std::size_t groups = graph_.group_count();
  runs_.resize(nodes);
  group_runs_.resize(groups);
  dependents_.resize(nodes);
  ready_queued_.resize(nodes, 0);
  gated_nodes_.resize(groups);
  group_dirty_.resize(groups, 0);
  if (chain_sets_decided_.size() < graph_.chain_set_count()) {
    chain_sets_decided_.resize(graph_.chain_set_count(), false);
  }
  // Index reverse edges for the nodes added since the last sync and
  // seed them as frontier candidates (their deps and gates may already
  // be satisfied — or already failed, hence the skip check too).
  for (NodeId id = synced_nodes_; id < nodes; ++id) {
    const TaskNode& node = graph_.node(id);
    for (const NodeId dep : node.deps) dependents_[dep].push_back(id);
    for (const GroupId gate : node.gates) {
      gated_nodes_[gate].push_back(id);
    }
    queue_ready_locked(id);
    skip_candidates_.push_back(id);
  }
  synced_nodes_ = nodes;
  // A new group can be born complete (an empty stage): give each one
  // decide pass.
  for (GroupId gid = synced_groups_; gid < groups; ++gid) {
    mark_group_dirty_locked(gid);
  }
  synced_groups_ = groups;
}

void GraphExecutor::queue_ready_locked(NodeId id) {
  if (ready_queued_[id] != 0) return;
  if (runs_[id].status != NodeStatus::kPending) return;
  ready_queued_[id] = 1;
  ready_candidates_.push_back(id);
}

void GraphExecutor::mark_group_dirty_locked(GroupId gid) {
  if (group_dirty_[gid] != 0) return;
  group_dirty_[gid] = 1;
  dirty_groups_.push_back(gid);
}

void GraphExecutor::settle_into_groups_locked(NodeId id, bool done) {
  for (const GroupId gid : graph_.node(id).groups) {
    GroupRun& run = group_runs_[gid];
    ++run.settled;
    if (done) ++run.done;
    mark_group_dirty_locked(gid);
  }
}

void GraphExecutor::queue_dependent_skips_locked(NodeId id) {
  for (const NodeId dependent : dependents_[id]) {
    skip_candidates_.push_back(dependent);
  }
}

void GraphExecutor::apply_events_locked() {
  while (!events_.empty()) {
    const Event event = events_.front();
    events_.pop_front();
    NodeRun& run = runs_[event.node];
    if (run.status != NodeStatus::kSubmitted) continue;  // duplicate
    --inflight_;
    switch (event.state) {
      case pilot::UnitState::kDone:
        run.status = NodeStatus::kDone;
        break;
      case pilot::UnitState::kCanceled:
        run.status = NodeStatus::kCanceled;
        run.error = make_error(Errc::kCancelled,
                               "unit " + run.unit->uid() +
                                   " was cancelled");
        errors_.emplace_back(event.node, run.error);
        break;
      default:
        run.status = NodeStatus::kFailed;
        run.error = run.unit->final_status();
        errors_.emplace_back(event.node, run.error);
        break;
    }
    settle_into_groups_locked(event.node,
                              run.status == NodeStatus::kDone);
    if (run.status == NodeStatus::kDone) {
      for (const NodeId dependent : dependents_[event.node]) {
        queue_ready_locked(dependent);
      }
    } else {
      queue_dependent_skips_locked(event.node);
    }
  }
}

Status GraphExecutor::stage_verdict_locked(GroupId gid) const {
  const TaskGroup& group = graph_.group(gid);
  // First failure among members, in member order (the historical
  // first_failure scan over a stage's units).
  Status failure;
  for (const NodeId member : group.members) {
    const NodeRun& run = runs_[member];
    if (run.status == NodeStatus::kFailed ||
        run.status == NodeStatus::kCanceled ||
        run.status == NodeStatus::kSkipped) {
      failure = run.error;
      break;
    }
  }
  if (failure.is_ok()) return Status::ok();
  switch (group.rules.policy) {
    case FailurePolicy::kFailFast:
      return failure;
    case FailurePolicy::kContinueOnFailure:
      ENTK_WARN("core.graph")
          << group.label << ": continuing past failure: "
          << failure.to_string();
      return Status::ok();
    case FailurePolicy::kQuorum: {
      std::size_t done = 0;
      for (const NodeId member : group.members) {
        if (runs_[member].status == NodeStatus::kDone) ++done;
      }
      const double fraction =
          group.members.empty()
              ? 1.0
              : static_cast<double>(done) /
                    static_cast<double>(group.members.size());
      if (fraction >= group.rules.quorum) {
        ENTK_WARN("core.graph")
            << group.label << ": quorum met (" << done << "/"
            << group.members.size()
            << " done); continuing past failure: " << failure.to_string();
        return Status::ok();
      }
      return make_error(Errc::kExecutionFailed,
                        group.label + ": only " + std::to_string(done) +
                            "/" + std::to_string(group.members.size()) +
                            " units finished, below the quorum; first "
                            "failure: " +
                            failure.message());
    }
  }
  return failure;
}

void GraphExecutor::decide_stage_groups_locked() {
  if (aborted_) return;
  if (dirty_groups_.empty()) return;
  // Ascending ids: when several groups complete in the same pump, the
  // lowest-id failing verdict wins the abort (the historical full-scan
  // order).
  std::vector<GroupId> batch;
  batch.swap(dirty_groups_);
  std::sort(batch.begin(), batch.end());
  for (const GroupId gid : batch) group_dirty_[gid] = 0;
  for (const GroupId gid : batch) {
    const TaskGroup& group = graph_.group(gid);
    if (group.kind != GroupKind::kStage) continue;
    GroupRun& run = group_runs_[gid];
    if (run.decided || run.settled < group.members.size()) continue;
    run.decided = true;
    const Status verdict = stage_verdict_locked(gid);
    ENTK_TRACE_INSTANT(verdict.is_ok() ? "graph.verdict.pass"
                                       : "graph.verdict.fail",
                       "graph");
    if (verdict.is_ok()) {
      run.passed = true;
      for (const NodeId gated : gated_nodes_[gid]) {
        queue_ready_locked(gated);
      }
      continue;
    }
    // A failed barrier verdict aborts the whole graph: unsubmitted
    // nodes are skipped, in-flight units are left to settle.
    aborted_ = true;
    abort_status_ = verdict;
    return;
  }
}

void GraphExecutor::propagate_skips_locked() {
  if (aborted_) {
    // One sweep retires every still-pending node; nothing new can be
    // added after an abort (expanders never run on an aborted graph).
    if (abort_swept_) return;
    abort_swept_ = true;
    skip_candidates_.clear();
    std::size_t swept = 0;
    for (NodeId id = 0; id < runs_.size(); ++id) {
      NodeRun& run = runs_[id];
      if (run.status != NodeStatus::kPending) continue;
      run.status = NodeStatus::kSkipped;
      run.error = make_error(Errc::kCancelled,
                             "node '" + graph_.node(id).label +
                                 "' skipped: pattern aborted");
      settle_into_groups_locked(id, false);
      ++swept;
    }
    // Aggregate metrics by design. entk-lint: allow(global-run-state)
    obs::Metrics::instance()
        .counter(obs::WellKnownCounter::kGraphNodesSkipped)
        .add(swept);
    return;
  }
  // Worklist fixpoint: a node is examined only when an upstream
  // settled badly (or when it was just added to the graph).
  while (!skip_candidates_.empty()) {
    const NodeId id = skip_candidates_.back();
    skip_candidates_.pop_back();
    NodeRun& run = runs_[id];
    if (run.status != NodeStatus::kPending) continue;
    Status reason;
    for (const NodeId dep : graph_.node(id).deps) {
      const NodeStatus upstream = runs_[dep].status;
      if (upstream == NodeStatus::kFailed ||
          upstream == NodeStatus::kCanceled ||
          upstream == NodeStatus::kSkipped) {
        reason = make_error(Errc::kCancelled,
                            "node '" + graph_.node(id).label +
                                "' skipped: upstream '" +
                                graph_.node(dep).label +
                                "' did not finish");
        break;
      }
    }
    if (reason.is_ok()) continue;
    run.status = NodeStatus::kSkipped;
    run.error = std::move(reason);
    // Aggregate metrics by design. entk-lint: allow(global-run-state)
    obs::Metrics::instance()
        .counter(obs::WellKnownCounter::kGraphNodesSkipped)
        .add();
    settle_into_groups_locked(id, false);
    queue_dependent_skips_locked(id);
  }
}

std::vector<NodeId> GraphExecutor::frontier_locked() {
  std::vector<NodeId> ready;
  if (aborted_ || finished_) return ready;
  // Drain the candidate worklist. A candidate that is still blocked is
  // dropped, not kept: whichever event clears its last blocker (a dep
  // reaching done, a gate group passing, its own creation) re-queues
  // it, so readiness is never missed.
  while (!ready_candidates_.empty()) {
    const NodeId id = ready_candidates_.back();
    ready_candidates_.pop_back();
    ready_queued_[id] = 0;
    if (runs_[id].status != NodeStatus::kPending) continue;
    const TaskNode& node = graph_.node(id);
    bool blocked = false;
    for (const NodeId dep : node.deps) {
      if (runs_[dep].status != NodeStatus::kDone) {
        blocked = true;
        break;
      }
    }
    if (!blocked) {
      for (const GroupId gate : node.gates) {
        const GroupRun& gate_run = group_runs_[gate];
        if (!gate_run.decided || !gate_run.passed) {
          blocked = true;
          break;
        }
      }
    }
    if (blocked) continue;
    ready.push_back(id);
  }
  // Ascending ids: deterministic submission order, matching the old
  // whole-graph scan.
  std::sort(ready.begin(), ready.end());
  return ready;
}

std::vector<TaskSpec> GraphExecutor::materialize_specs(
    const std::vector<NodeId>& frontier) {
  // Specs are produced here — at submission time, outside any lock —
  // so stateful user callbacks observe current application state.
  std::vector<TaskSpec> specs;
  WorkStealingPool* pool = parallel_pool();
  if (pool != nullptr && frontier.size() >= kParallelSpecBatch) {
    // Index-keyed parallel materialization: each call fills its own
    // pre-sized slot, so the batch comes out in node-id order and the
    // serial submit below is bit-identical to the serial path (the
    // pinned golden digests hold at every thread count). SpecFns must
    // tolerate concurrent invocation ACROSS DIFFERENT NODES — each
    // node's own SpecFn still runs exactly once.
    specs.resize(frontier.size());
    const TaskGraph& graph = graph_;
    pool->parallel_for(frontier.size(),
                       [&specs, &graph, &frontier](std::size_t i) {
                         specs[i] = graph.node(frontier[i]).make_spec();
                       });
    return specs;
  }
  specs.reserve(frontier.size());
  for (const NodeId id : frontier) {
    specs.push_back(graph_.node(id).make_spec());
  }
  return specs;
}

void GraphExecutor::submit_specs(const std::vector<NodeId>& frontier,
                                 std::vector<TaskSpec>& specs) {
  ENTK_TRACE_SPAN("graph.flush_submit", "graph");
  ENTK_TRACE_COUNTER("graph.frontier_batch", "graph", frontier.size());
  // Aggregate metrics by design. entk-lint: allow(global-run-state)
  auto& metrics = obs::Metrics::instance();
  metrics.counter(obs::WellKnownCounter::kGraphFrontierBatches).add();
  metrics.counter(obs::WellKnownCounter::kGraphNodesSubmitted)
      .add(frontier.size());
  metrics.histogram(obs::WellKnownHistogram::kGraphFrontierBatchSize)
      .observe(static_cast<double>(frontier.size()));
  auto submitted = executor_.submit(specs);
  if (submitted.ok()) {
    const auto units = submitted.take();
    ENTK_CHECK(units.size() == frontier.size(),
               "executor returned a mismatched unit batch");
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      adopt_unit(frontier[i], units[i]);
    }
    return;
  }
  if (frontier.size() == 1) {
    fail_submission(frontier.front(), submitted.status());
    return;
  }
  // The batch failed as a whole; fall back to per-node submission so
  // one bad task only poisons its own failure scope (a failing
  // pipeline must not take its siblings down with it).
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    {
      MutexLock lock(mutex_);
      if (aborted_) return;  // the abort sweep skips the rest
    }
    auto one = executor_.submit({specs[i]});
    if (one.ok()) {
      adopt_unit(frontier[i], one.take().front());
    } else {
      fail_submission(frontier[i], one.status());
    }
  }
}

void GraphExecutor::adopt_unit(NodeId id,
                               const pilot::ComputeUnitPtr& unit) {
  {
    MutexLock lock(mutex_);
    NodeRun& run = runs_[id];
    run.status = NodeStatus::kSubmitted;
    run.unit = unit;
    ++inflight_;
    ++submitted_count_;
    index_unit_locked(id, *unit);
  }
  const UnitSink& sink = graph_.node(id).sink;
  if (sink) sink(unit);
  if (unit_settled(*unit)) {
    // The unit settled synchronously during submission (an oversized
    // unit fails before routing): the settled observer fired before
    // this node was registered, so poll once. Duplicate events are
    // deduplicated against the node status.
    on_unit_settled(unit);
  }
}

void GraphExecutor::index_unit_locked(NodeId id,
                                      const pilot::ComputeUnit& unit) {
  const std::uint32_t ordinal = unit.ordinal();
  ENTK_CHECK(ordinal != pilot::ComputeUnit::kNoOrdinal,
             "unit " + unit.uid() + " has no unit-manager ordinal");
  if (ordinal >= node_of_.size()) node_of_.resize(ordinal + 1, kNoNode);
  node_of_[ordinal] = id;
}

void GraphExecutor::fail_submission(NodeId id, const Status& error) {
  MutexLock lock(mutex_);
  NodeRun& run = runs_[id];
  run.status = NodeStatus::kFailed;
  run.error = error;
  errors_.emplace_back(id, error);
  // Settles like a failed unit: its groups count it and its dependents
  // are skipped, so the rest of its chain cannot stall the graph.
  settle_into_groups_locked(id, false);
  queue_dependent_skips_locked(id);
  bool stage_scoped = false;
  for (const GroupId gid : graph_.node(id).groups) {
    if (graph_.group(gid).kind == GroupKind::kStage) stage_scoped = true;
  }
  // A task that cannot even be created inside a barrier stage fails
  // the pattern outright (the historical submit-error semantics);
  // inside a chain it only ends that chain.
  if (stage_scoped && !aborted_) {
    aborted_ = true;
    abort_status_ = error;
  }
}

Status GraphExecutor::decide_chain_sets() {
  MutexLock lock(mutex_);
  for (std::size_t index = 0; index < graph_.chain_set_count(); ++index) {
    if (chain_sets_decided_[index]) continue;
    chain_sets_decided_[index] = true;
    const ChainSet& set = graph_.chain_set(index);
    // Errors recorded against this set's chains, in settlement order.
    std::vector<const Status*> set_errors;
    for (const auto& [node, error] : errors_) {
      const auto& memberships = graph_.node(node).groups;
      const bool in_set =
          std::any_of(set.chains.begin(), set.chains.end(),
                      [&memberships](GroupId chain) {
                        return std::find(memberships.begin(),
                                         memberships.end(),
                                         chain) != memberships.end();
                      });
      if (in_set) set_errors.push_back(&error);
    }
    if (set_errors.empty()) continue;
    const Status& first = *set_errors.front();
    switch (set.rules.policy) {
      case FailurePolicy::kFailFast:
        return first;
      case FailurePolicy::kContinueOnFailure:
        ENTK_WARN("core.graph")
            << set.label << ": " << set_errors.size() << " "
            << set.member_noun
            << " chain failure(s); continuing per policy";
        break;
      case FailurePolicy::kQuorum: {
        // Plain loops, not std::all_of: thread-safety analysis treats
        // a nested lambda as a separate function not holding mutex_.
        std::size_t completed = 0;
        for (const GroupId chain : set.chains) {
          const TaskGroup& group = graph_.group(chain);
          bool all_done = true;
          for (const NodeId member : group.members) {
            if (runs_[member].status != NodeStatus::kDone) {
              all_done = false;
              break;
            }
          }
          if (all_done) ++completed;
        }
        const double fraction =
            set.chains.empty()
                ? 1.0
                : static_cast<double>(completed) /
                      static_cast<double>(set.chains.size());
        if (fraction >= set.rules.quorum) break;
        return make_error(Errc::kExecutionFailed,
                          set.label + ": only " +
                              std::to_string(completed) + "/" +
                              std::to_string(set.chains.size()) + " " +
                              set.member_noun +
                              " completed, below the quorum; first "
                              "failure: " +
                              first.message());
      }
    }
  }
  return Status::ok();
}

bool GraphExecutor::handle_quiesce() {
  {
    MutexLock lock(mutex_);
    if (aborted_) {
      finish_locked(abort_status_);
      return false;
    }
  }
  const Status chains = decide_chain_sets();
  if (!chains.is_ok()) {
    MutexLock lock(mutex_);
    finish_locked(chains);
    return false;
  }
  // Expanders, innermost-first: a nested pattern's expander must drain
  // completely before the enclosing loop decides its next round.
  for (;;) {
    std::size_t top = 0;
    bool have_top = false;
    {
      MutexLock lock(mutex_);
      while (expanders_seen_ < graph_.expander_count()) {
        expander_stack_.push_back(expanders_seen_++);
      }
      if (!expander_stack_.empty()) {
        top = expander_stack_.back();
        have_top = true;
      }
    }
    if (!have_top) break;
    graph_.bump_generation();
    auto produced = graph_.expander(top)(graph_);
    if (!produced.ok()) {
      MutexLock lock(mutex_);
      finish_locked(produced.status());
      return false;
    }
    {
      // Log the invocation (even unproductive ones): a checkpoint
      // restore replays this script to regrow the graph.
      MutexLock lock(mutex_);
      expander_log_.emplace_back(top, produced.value());
    }
    if (produced.value()) return true;  // more work scheduled
    MutexLock lock(mutex_);
    ENTK_CHECK(!expander_stack_.empty() && expander_stack_.back() == top,
               "expander stack corrupted");
    expander_stack_.pop_back();
  }
  // Fully drained. Anything still pending can never run — a cycle of
  // gates a compiler should not have produced.
  MutexLock lock(mutex_);
  for (NodeId id = 0; id < runs_.size(); ++id) {
    if (runs_[id].status == NodeStatus::kPending) {
      finish_locked(make_error(
          Errc::kInternal,
          "task graph stalled: node '" + graph_.node(id).label +
              "' never became ready (undecidable gate or dependency?)"));
      return false;
    }
    ENTK_CHECK(is_settled_status(runs_[id].status),
               "drained graph left a unit in flight");
  }
  finish_locked(Status::ok());
  return false;
}

GraphExecutor::SavedState GraphExecutor::save_state() const {
  MutexLock lock(mutex_);
  ENTK_CHECK(events_.empty(),
             "checkpoint capture with undrained settlement events");
  SavedState saved;
  saved.nodes.reserve(runs_.size());
  for (const NodeRun& run : runs_) {
    SavedState::Node node;
    node.status = run.status;
    if (run.unit) node.unit_uid = run.unit->uid();
    node.error = run.error;
    saved.nodes.push_back(std::move(node));
  }
  saved.groups.reserve(group_runs_.size());
  for (const GroupRun& run : group_runs_) {
    saved.groups.push_back({run.settled, run.done, run.decided, run.passed});
  }
  saved.chain_sets_decided = chain_sets_decided_;
  saved.expander_stack = expander_stack_;
  saved.expanders_seen = expanders_seen_;
  saved.expander_log = expander_log_;
  saved.errors = errors_;
  saved.inflight = inflight_;
  saved.submitted_count = submitted_count_;
  saved.aborted = aborted_;
  saved.abort_status = abort_status_;
  return saved;
}

Status GraphExecutor::replay_expander_log(
    const std::vector<std::pair<std::size_t, bool>>& log) {
  for (const auto& [index, expected_produced] : log) {
    if (index >= graph_.expander_count()) {
      return make_error(Errc::kInternal,
                        "checkpoint replay: expander index " +
                            std::to_string(index) +
                            " out of range (graph has " +
                            std::to_string(graph_.expander_count()) +
                            " expanders)");
    }
    graph_.bump_generation();
    auto produced = graph_.expander(index)(graph_);
    if (!produced.ok()) {
      return make_error(Errc::kInternal,
                        "checkpoint replay: expander " +
                            std::to_string(index) + " failed: " +
                            produced.status().message());
    }
    if (produced.value() != expected_produced) {
      return make_error(
          Errc::kInternal,
          "checkpoint replay: expander " + std::to_string(index) +
              " diverged from the log (non-deterministic pattern?)");
    }
  }
  {
    MutexLock lock(mutex_);
    expander_log_ = log;
  }
  return Status::ok();
}

void GraphExecutor::restore_state(const SavedState& saved,
                                  const UnitResolver& resolve) {
  MutexLock lock(mutex_);
  // Seed the incremental worklists for the whole (replayed) graph
  // first. The spurious candidates this enqueues are harmless: at a
  // valid capture cut every ready node was already submitted and no
  // skip propagation is pending, so the first pump drains them as
  // no-ops.
  sync_graph_locked();
  ENTK_CHECK(saved.nodes.size() == runs_.size(),
             "checkpoint node count does not match the replayed graph");
  ENTK_CHECK(saved.groups.size() == group_runs_.size(),
             "checkpoint group count does not match the replayed graph");
  for (NodeId id = 0; id < runs_.size(); ++id) {
    NodeRun& run = runs_[id];
    const SavedState::Node& node = saved.nodes[id];
    run.status = node.status;
    run.error = node.error;
    if (!node.unit_uid.empty()) {
      run.unit = resolve(node.unit_uid);
      ENTK_CHECK(run.unit != nullptr,
                 "checkpoint references unknown unit " + node.unit_uid);
      index_unit_locked(id, *run.unit);
    }
  }
  for (GroupId gid = 0; gid < group_runs_.size(); ++gid) {
    GroupRun& run = group_runs_[gid];
    const SavedState::Group& group = saved.groups[gid];
    run.settled = group.settled;
    run.done = group.done;
    run.decided = group.decided;
    run.passed = group.passed;
  }
  ENTK_CHECK(saved.chain_sets_decided.size() == chain_sets_decided_.size(),
             "checkpoint chain-set count does not match the graph");
  chain_sets_decided_ = saved.chain_sets_decided;
  expander_stack_ = saved.expander_stack;
  expanders_seen_ = saved.expanders_seen;
  errors_ = saved.errors;
  inflight_ = saved.inflight;
  submitted_count_ = saved.submitted_count;
  aborted_ = saved.aborted;
  abort_status_ = saved.abort_status;
  // An aborted snapshot already ran its one skip sweep.
  abort_swept_ = saved.aborted;
}

void GraphExecutor::finish_locked(Status outcome) {
  if (finished_) return;
  finished_ = true;
  outcome_ = std::move(outcome);
  // Only the claim holder finishes a run; the claim ends with it, in
  // the critical section that makes finished() true.
  pumping_ = false;
}

}  // namespace entk::core
