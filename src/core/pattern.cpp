#include "core/pattern.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/graph_executor.hpp"

namespace entk::core {

ExecutionPattern::GraphRun::GraphRun() = default;
ExecutionPattern::GraphRun::~GraphRun() = default;

bool ExecutionPattern::GraphRun::finished() const {
  if (runner_ == nullptr) return false;
  return start_failed_ || runner_->finished();
}

// The one orchestration path shared by every pattern: validate,
// compile to an explicit TaskGraph, hand the graph to the event-driven
// executor. Patterns never touch the runtime directly any more — all
// waiting, failure policy and retry bookkeeping lives in the executor.
// Split into a non-blocking start and a finish so the caller owns the
// one backend wait, which can interleave N patterns' graphs
// (Runtime::run_concurrent).
Status ExecutionPattern::start_execute(GraphRun& run,
                                       PatternExecutor& executor,
                                       bool deferred) {
  ENTK_CHECK(!run.active(), "GraphRun is already executing a pattern");
  ENTK_RETURN_IF_ERROR(validate());
  auto graph = std::make_unique<TaskGraph>();
  ENTK_RETURN_IF_ERROR(compile(*graph));
  auto runner = std::make_unique<GraphExecutor>(*graph, executor);
  if (deferred) runner->set_deferred(true);
  if (graph_run_observer_ != nullptr) {
    ENTK_RETURN_IF_ERROR(
        graph_run_observer_->prepare_run(*graph, *runner, executor));
  }
  const Status started = runner->start();
  if (!started.is_ok()) {
    // The run is over before it began; finish_execute reports this to
    // the observer, matching the old single-call error flow.
    run.start_failed_ = true;
    run.start_error_ = started;
  }
  run.graph_ = std::move(graph);
  run.runner_ = std::move(runner);
  return Status::ok();
}

Status ExecutionPattern::finish_execute(GraphRun& run, Status driven) {
  ENTK_CHECK(run.active(), "finish_execute without a started GraphRun");
  run.runner_->unsubscribe();
  Status outcome;
  if (run.start_failed_) {
    outcome = run.start_error_;
  } else if (!driven.is_ok()) {
    outcome = driven;
  } else {
    outcome = run.runner_->outcome();
  }
  if (graph_run_observer_ != nullptr) {
    graph_run_observer_->on_graph_run_end(*run.runner_, outcome);
  }
  on_graph_executed();
  run.runner_.reset();
  run.graph_.reset();
  run.start_failed_ = false;
  run.start_error_ = Status::ok();
  return outcome;
}

// --------------------------------------------------------------- BagOfTasks

BagOfTasks::BagOfTasks(Count n_tasks, StageFn task_fn)
    : n_tasks_(n_tasks), task_fn_(std::move(task_fn)) {}

Status BagOfTasks::validate() const {
  if (n_tasks_ < 1) {
    return make_error(Errc::kInvalidArgument,
                      "bag_of_tasks needs at least one task");
  }
  if (!task_fn_) {
    return make_error(Errc::kInvalidArgument,
                      "bag_of_tasks needs a task callback");
  }
  return Status::ok();
}

Status BagOfTasks::compile(TaskGraph& graph) {
  ENTK_RETURN_IF_ERROR(validate());
  units_.clear();
  const GroupId stage = graph.add_stage_group(name(), failure_rules_);
  for (Count t = 0; t < n_tasks_; ++t) {
    const StageContext context{1, 1, t, n_tasks_};
    const NodeId node = graph.add_node(
        "task " + std::to_string(t),
        [this, context] { return task_fn_(context); }, context);
    graph.add_member(stage, node);
    graph.set_sink(node, [this](const pilot::ComputeUnitPtr& unit) {
      units_.push_back(unit);
    });
  }
  return Status::ok();
}

// ------------------------------------------------------ EnsembleOfPipelines

EnsembleOfPipelines::EnsembleOfPipelines(Count n_pipelines, Count n_stages)
    : n_pipelines_(n_pipelines),
      n_stages_(n_stages),
      stage_fns_(static_cast<std::size_t>(std::max<Count>(n_stages, 0))) {}

void EnsembleOfPipelines::set_stage(Count stage, StageFn fn) {
  ENTK_CHECK(stage >= 1 && stage <= n_stages_, "stage index out of range");
  stage_fns_[static_cast<std::size_t>(stage - 1)] = std::move(fn);
}

Status EnsembleOfPipelines::validate() const {
  if (n_pipelines_ < 1 || n_stages_ < 1) {
    return make_error(Errc::kInvalidArgument,
                      "ensemble_of_pipelines needs >= 1 pipeline and stage");
  }
  for (Count s = 0; s < n_stages_; ++s) {
    if (!stage_fns_[static_cast<std::size_t>(s)]) {
      return make_error(Errc::kInvalidArgument,
                        "ensemble_of_pipelines stage " +
                            std::to_string(s + 1) + " has no workload");
    }
  }
  return Status::ok();
}

// Each pipeline compiles to a dependency chain; there is no edge at
// all between pipelines, so pipeline p's stage s+1 becomes frontier
// the instant its own stage s settles — cross-pipeline overlap falls
// out of the graph shape instead of a hand-written launcher.
Status EnsembleOfPipelines::compile(TaskGraph& graph) {
  ENTK_RETURN_IF_ERROR(validate());
  units_.clear();
  std::vector<GroupId> chains;
  chains.reserve(static_cast<std::size_t>(n_pipelines_));
  for (Count p = 0; p < n_pipelines_; ++p) {
    chains.push_back(
        graph.add_chain_group("pipeline " + std::to_string(p)));
  }
  for (Count p = 0; p < n_pipelines_; ++p) {
    NodeId prev = 0;
    for (Count s = 1; s <= n_stages_; ++s) {
      const StageContext context{1, s, p, n_pipelines_};
      const NodeId node = graph.add_node(
          "p" + std::to_string(p) + ".s" + std::to_string(s),
          [this, context] {
            return stage_fns_[static_cast<std::size_t>(context.stage - 1)](
                context);
          },
          context);
      if (s > 1) graph.add_dependency(node, prev);
      graph.add_member(chains[static_cast<std::size_t>(p)], node);
      graph.set_sink(node, [this](const pilot::ComputeUnitPtr& unit) {
        units_.push_back(unit);
      });
      prev = node;
    }
  }
  graph.add_chain_set(name(), "pipelines", failure_rules_,
                      std::move(chains));
  return Status::ok();
}

// --------------------------------------------------- SimulationAnalysisLoop

SimulationAnalysisLoop::SimulationAnalysisLoop(Count n_iterations,
                                               Count n_simulations,
                                               Count n_analyses)
    : n_iterations_(n_iterations),
      n_simulations_(n_simulations),
      n_analyses_(n_analyses) {}

Status SimulationAnalysisLoop::validate() const {
  if (n_iterations_ < 1 || n_simulations_ < 1 || n_analyses_ < 1) {
    return make_error(
        Errc::kInvalidArgument,
        "simulation_analysis_loop needs >= 1 iteration, simulation and "
        "analysis");
  }
  if (!simulation_ || !analysis_) {
    return make_error(Errc::kInvalidArgument,
                      "simulation_analysis_loop needs simulation and "
                      "analysis workloads");
  }
  return Status::ok();
}

GroupId SimulationAnalysisLoop::emit_iteration(TaskGraph& graph,
                                               Count iteration, Count n_sims,
                                               Count n_ana,
                                               const GroupId* gate) {
  const GroupId sims_group = graph.add_stage_group(name(), failure_rules_);
  for (Count s = 0; s < n_sims; ++s) {
    const StageContext context{iteration, 1, s, n_sims};
    const NodeId node = graph.add_node(
        "sim i" + std::to_string(iteration) + "." + std::to_string(s),
        [this, context] { return simulation_(context); }, context);
    if (gate != nullptr) graph.gate_on(node, *gate);
    graph.add_member(sims_group, node);
    graph.set_sink(node, [this](const pilot::ComputeUnitPtr& unit) {
      units_.push_back(unit);
      simulation_units_.push_back(unit);
    });
  }
  const GroupId ana_group = graph.add_stage_group(name(), failure_rules_);
  for (Count a = 0; a < n_ana; ++a) {
    const StageContext context{iteration, 2, a, n_ana};
    const NodeId node = graph.add_node(
        "analysis i" + std::to_string(iteration) + "." + std::to_string(a),
        [this, context] { return analysis_(context); }, context);
    graph.gate_on(node, sims_group);
    graph.add_member(ana_group, node);
    graph.set_sink(node, [this](const pilot::ComputeUnitPtr& unit) {
      units_.push_back(unit);
      analysis_units_.push_back(unit);
    });
  }
  return ana_group;
}

GroupId SimulationAnalysisLoop::emit_bracket(TaskGraph& graph,
                                             const StageFn& fn,
                                             StageContext context,
                                             const std::string& label,
                                             const GroupId* gate) {
  const GroupId group = graph.add_stage_group(name(), failure_rules_);
  const NodeId node = graph.add_node(
      label, [fn, context] { return fn(context); }, context);
  if (gate != nullptr) graph.gate_on(node, *gate);
  graph.add_member(group, node);
  graph.set_sink(node, [this](const pilot::ComputeUnitPtr& unit) {
    units_.push_back(unit);
  });
  return group;
}

Status SimulationAnalysisLoop::compile(TaskGraph& graph) {
  ENTK_RETURN_IF_ERROR(validate());
  units_.clear();
  simulation_units_.clear();
  analysis_units_.clear();
  next_iteration_ = 0;
  post_emitted_ = false;

  std::optional<GroupId> gate;
  if (pre_loop_) {
    gate = emit_bracket(graph, pre_loop_, {0, 0, 0, 1}, "pre_loop", nullptr);
  }

  if (!counts_fn_) {
    // Static member counts: the whole loop is known up front, so the
    // full graph is emitted at compile time (and visible to --dot).
    for (Count iteration = 1; iteration <= n_iterations_; ++iteration) {
      gate = emit_iteration(graph, iteration, n_simulations_, n_analyses_,
                            gate ? &*gate : nullptr);
    }
    if (post_loop_) {
      emit_bracket(graph, post_loop_, {n_iterations_ + 1, 0, 0, 1},
                   "post_loop", gate ? &*gate : nullptr);
    }
    return Status::ok();
  }

  // Adaptive member counts: each iteration is appended by an expander
  // once the previous one settled, which is exactly when the counts
  // callback may inspect results to size the next generation.
  auto last_gate = std::make_shared<std::optional<GroupId>>(gate);
  graph.add_expander([this, last_gate](TaskGraph& g) -> Result<bool> {
    if (next_iteration_ < n_iterations_) {
      const Count iteration = ++next_iteration_;
      const auto counts = counts_fn_(iteration);
      if (counts.first < 1 || counts.second < 1) {
        return make_error(Errc::kInvalidArgument,
                          "adaptive counts must stay >= 1");
      }
      const GroupId* gate_ptr =
          last_gate->has_value() ? &last_gate->value() : nullptr;
      *last_gate = emit_iteration(g, iteration, counts.first, counts.second,
                                  gate_ptr);
      return true;
    }
    if (post_loop_ && !post_emitted_) {
      post_emitted_ = true;
      const GroupId* gate_ptr =
          last_gate->has_value() ? &last_gate->value() : nullptr;
      emit_bracket(g, post_loop_, {n_iterations_ + 1, 0, 0, 1}, "post_loop",
                   gate_ptr);
      return true;
    }
    return false;
  });
  return Status::ok();
}

// --------------------------------------------------------- EnsembleExchange

EnsembleExchange::EnsembleExchange(Count n_replicas, Count n_cycles,
                                   ExchangeMode mode)
    : n_replicas_(n_replicas), n_cycles_(n_cycles), mode_(mode) {}

Status EnsembleExchange::validate() const {
  if (n_replicas_ < 2 || n_cycles_ < 1) {
    return make_error(Errc::kInvalidArgument,
                      "ensemble_exchange needs >= 2 replicas and >= 1 cycle");
  }
  if (!simulation_) {
    return make_error(Errc::kInvalidArgument,
                      "ensemble_exchange needs a simulation workload");
  }
  if (mode_ == ExchangeMode::kGlobalSweep && !exchange_) {
    return make_error(Errc::kInvalidArgument,
                      "ensemble_exchange (global) needs an exchange "
                      "workload");
  }
  if (mode_ == ExchangeMode::kPairwise && !pair_exchange_) {
    return make_error(Errc::kInvalidArgument,
                      "ensemble_exchange (pairwise) needs a pair-exchange "
                      "workload");
  }
  return Status::ok();
}

Status EnsembleExchange::compile(TaskGraph& graph) {
  ENTK_RETURN_IF_ERROR(validate());
  units_.clear();
  simulation_units_.clear();
  exchange_units_.clear();
  return mode_ == ExchangeMode::kGlobalSweep ? compile_global(graph)
                                             : compile_pairwise(graph);
}

// Global sweeps: each cycle is a sims stage group followed by a
// one-task exchange stage group, chained by gates — the per-cycle
// barrier the paper's scaling experiments use.
Status EnsembleExchange::compile_global(TaskGraph& graph) {
  bool have_gate = false;
  GroupId gate = 0;
  for (Count cycle = 1; cycle <= n_cycles_; ++cycle) {
    const GroupId sims_group = graph.add_stage_group(name(), failure_rules_);
    for (Count r = 0; r < n_replicas_; ++r) {
      const StageContext context{cycle, 1, r, n_replicas_};
      const NodeId node = graph.add_node(
          "sim c" + std::to_string(cycle) + ".r" + std::to_string(r),
          [this, context] { return simulation_(context); }, context);
      if (have_gate) graph.gate_on(node, gate);
      graph.add_member(sims_group, node);
      graph.set_sink(node, [this](const pilot::ComputeUnitPtr& unit) {
        units_.push_back(unit);
        simulation_units_.push_back(unit);
      });
    }
    const GroupId exchange_group =
        graph.add_stage_group(name(), failure_rules_);
    const StageContext context{cycle, 2, 0, n_replicas_};
    const NodeId exchange = graph.add_node(
        "exchange c" + std::to_string(cycle),
        [this, context] { return exchange_(context); }, context);
    graph.gate_on(exchange, sims_group);
    graph.add_member(exchange_group, exchange);
    graph.set_sink(exchange, [this](const pilot::ComputeUnitPtr& unit) {
      units_.push_back(unit);
      exchange_units_.push_back(unit);
    });
    gate = exchange_group;
    have_gate = true;
  }
  return Status::ok();
}

// Fully asynchronous pairwise exchange as a static grid of success
// edges: a replica's cycle-(c+1) simulation depends only on its own
// cycle-c exchange (or sim, when unpaired that cycle), so fast pairs
// race ahead of slow ones — the paper's "no obligatory global
// synchronization". An exchange node belongs to BOTH partners' replica
// chains, so either partner's chain dies if it fails.
Status EnsembleExchange::compile_pairwise(TaskGraph& graph) {
  const auto index = [](Count i) { return static_cast<std::size_t>(i); };
  std::vector<GroupId> chains;
  chains.reserve(index(n_replicas_));
  for (Count r = 0; r < n_replicas_; ++r) {
    chains.push_back(graph.add_chain_group("replica " + std::to_string(r)));
  }
  // prev[r]: the node whose completion releases replica r's next sim.
  std::vector<NodeId> prev(index(n_replicas_), 0);
  std::vector<bool> has_prev(index(n_replicas_), false);
  for (Count cycle = 1; cycle <= n_cycles_; ++cycle) {
    std::vector<NodeId> sims(index(n_replicas_), 0);
    for (Count r = 0; r < n_replicas_; ++r) {
      const StageContext context{cycle, 1, r, n_replicas_};
      const NodeId node = graph.add_node(
          "sim c" + std::to_string(cycle) + ".r" + std::to_string(r),
          [this, context] { return simulation_(context); }, context);
      if (has_prev[index(r)]) graph.add_dependency(node, prev[index(r)]);
      graph.add_member(chains[index(r)], node);
      graph.set_sink(node, [this](const pilot::ComputeUnitPtr& unit) {
        simulation_units_.push_back(unit);
      });
      sims[index(r)] = node;
      prev[index(r)] = node;
      has_prev[index(r)] = true;
    }
    // Neighbour pairs alternate even/odd sweeps; edge replicas below
    // the parity (or past the last pair) stay unpaired this cycle.
    const Count parity = (cycle - 1 + cycle_offset_) % 2;
    for (Count low = parity; low + 1 < n_replicas_; low += 2) {
      const StageContext context{cycle, 2, low, n_replicas_};
      const NodeId exchange = graph.add_node(
          "exchange c" + std::to_string(cycle) + ".r" + std::to_string(low) +
              "-r" + std::to_string(low + 1),
          [this, cycle, low] { return pair_exchange_(cycle, low, low + 1); },
          context);
      graph.add_dependency(exchange, sims[index(low)]);
      graph.add_dependency(exchange, sims[index(low + 1)]);
      graph.add_member(chains[index(low)], exchange);
      graph.add_member(chains[index(low + 1)], exchange);
      graph.set_sink(exchange, [this](const pilot::ComputeUnitPtr& unit) {
        exchange_units_.push_back(unit);
      });
      prev[index(low)] = exchange;
      prev[index(low + 1)] = exchange;
    }
  }
  graph.add_chain_set(name(), "replicas", failure_rules_, std::move(chains));
  return Status::ok();
}

void EnsembleExchange::on_graph_executed() {
  if (mode_ != ExchangeMode::kPairwise) return;
  // Pairwise sinks fill the per-kind buckets; units() keeps the
  // historical sims-then-exchanges order.
  units_.clear();
  units_.reserve(simulation_units_.size() + exchange_units_.size());
  units_.insert(units_.end(), simulation_units_.begin(),
                simulation_units_.end());
  units_.insert(units_.end(), exchange_units_.begin(),
                exchange_units_.end());
}

// ------------------------------------------------------------- AdaptiveLoop

AdaptiveLoop::AdaptiveLoop(std::unique_ptr<ExecutionPattern> body,
                           Count max_rounds, ContinueFn continue_fn)
    : body_(std::move(body)),
      max_rounds_(max_rounds),
      continue_fn_(std::move(continue_fn)) {}

Status AdaptiveLoop::validate() const {
  if (body_ == nullptr) {
    return make_error(Errc::kInvalidArgument,
                      "adaptive_loop needs a body pattern");
  }
  if (max_rounds_ < 1) {
    return make_error(Errc::kInvalidArgument,
                      "adaptive_loop needs max_rounds >= 1");
  }
  if (!continue_fn_) {
    return make_error(Errc::kInvalidArgument,
                      "adaptive_loop needs a continuation predicate");
  }
  return body_->validate();
}

// One expander drives the whole loop: each time the graph quiesces
// with the previous round settled, the predicate decides whether the
// body is compiled in again. A failed round aborts the graph before
// the expander runs, so rounds_completed() never counts it.
Status AdaptiveLoop::compile(TaskGraph& graph) {
  ENTK_RETURN_IF_ERROR(validate());
  body_->set_failure_rules(failure_rules_);
  rounds_completed_ = 0;
  next_round_ = 0;
  graph.add_expander([this](TaskGraph& g) -> Result<bool> {
    if (next_round_ > 0) {
      rounds_completed_ = next_round_;
      if (!continue_fn_(next_round_)) return false;
    }
    if (next_round_ >= max_rounds_) return false;
    ++next_round_;
    ENTK_RETURN_IF_ERROR(body_->compile(g));
    return true;
  });
  return Status::ok();
}

// ---------------------------------------------------------- SequencePattern

SequencePattern::SequencePattern(std::string name)
    : name_(std::move(name)) {}

void SequencePattern::append(std::unique_ptr<ExecutionPattern> pattern) {
  ENTK_CHECK(pattern != nullptr, "cannot append a null pattern");
  children_.push_back(std::move(pattern));
}

Status SequencePattern::validate() const {
  if (children_.empty()) {
    return make_error(Errc::kInvalidArgument,
                      "sequence pattern has no children");
  }
  for (const auto& child : children_) {
    ENTK_RETURN_IF_ERROR(child->validate());
  }
  return Status::ok();
}

// Children are compiled lazily, one per quiescence: a child after a
// failed one is never even compiled (the abort skips the expander),
// preserving the historical stop-at-first-failure semantics.
Status SequencePattern::compile(TaskGraph& graph) {
  ENTK_RETURN_IF_ERROR(validate());
  next_child_ = 0;
  graph.add_expander([this](TaskGraph& g) -> Result<bool> {
    if (next_child_ >= children_.size()) return false;
    auto& child = children_[next_child_++];
    child->set_failure_rules(failure_rules_);
    ENTK_RETURN_IF_ERROR(child->compile(g));
    return true;
  });
  return Status::ok();
}

}  // namespace entk::core
