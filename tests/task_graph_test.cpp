// TaskGraph compilation and the event-driven GraphExecutor.
//
// Patterns are compilers now: these tests check the graphs they emit
// (topology, groups, gates, chain sets, expanders), the Graphviz
// rendering, custom user-defined graphs driven through handle.run, and
// the stalled-graph diagnostic.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/entk.hpp"

namespace entk::core {
namespace {

TaskSpec sleep_spec(double duration) {
  TaskSpec spec;
  spec.kernel = "misc.sleep";
  spec.args.set("duration", duration);
  return spec;
}

// ------------------------------------------------------- compile topology

TEST(TaskGraphCompile, BagOfTasksIsOneStageGroup) {
  BagOfTasks pattern(4, [](const StageContext&) { return sleep_spec(1.0); });
  TaskGraph graph;
  ASSERT_TRUE(pattern.compile(graph).is_ok());
  EXPECT_EQ(graph.node_count(), 4u);
  ASSERT_EQ(graph.group_count(), 1u);
  EXPECT_EQ(graph.group(0).kind, GroupKind::kStage);
  EXPECT_EQ(graph.group(0).label, "bag_of_tasks");
  EXPECT_EQ(graph.group(0).members.size(), 4u);
  for (NodeId id = 0; id < graph.node_count(); ++id) {
    EXPECT_TRUE(graph.node(id).deps.empty());
    EXPECT_TRUE(graph.node(id).gates.empty());
  }
  EXPECT_EQ(graph.expander_count(), 0u);
  EXPECT_TRUE(graph.validate().is_ok());
}

TEST(TaskGraphCompile, PipelinesBecomeDependencyChains) {
  EnsembleOfPipelines pattern(3, 2);
  pattern.set_stage(1, [](const StageContext&) { return sleep_spec(1.0); });
  pattern.set_stage(2, [](const StageContext&) { return sleep_spec(1.0); });
  TaskGraph graph;
  ASSERT_TRUE(pattern.compile(graph).is_ok());
  EXPECT_EQ(graph.node_count(), 6u);
  ASSERT_EQ(graph.group_count(), 3u);  // one chain per pipeline
  ASSERT_EQ(graph.chain_set_count(), 1u);
  EXPECT_EQ(graph.chain_set(0).member_noun, "pipelines");
  EXPECT_EQ(graph.chain_set(0).chains.size(), 3u);
  // Per pipeline: stage 2 depends on stage 1, no cross-pipeline edges.
  for (NodeId id = 0; id < graph.node_count(); ++id) {
    const TaskNode& node = graph.node(id);
    if (node.context.stage == 1) {
      EXPECT_TRUE(node.deps.empty()) << node.label;
    } else {
      ASSERT_EQ(node.deps.size(), 1u) << node.label;
      EXPECT_EQ(graph.node(node.deps[0]).context.instance,
                node.context.instance);
    }
  }
}

TEST(TaskGraphCompile, StaticSalGatesStagesOnBarriers) {
  SimulationAnalysisLoop pattern(2, 3, 2);
  pattern.set_pre_loop([](const StageContext&) { return sleep_spec(1.0); });
  pattern.set_simulation(
      [](const StageContext&) { return sleep_spec(1.0); });
  pattern.set_analysis([](const StageContext&) { return sleep_spec(1.0); });
  pattern.set_post_loop([](const StageContext&) { return sleep_spec(1.0); });
  TaskGraph graph;
  ASSERT_TRUE(pattern.compile(graph).is_ok());
  // pre + 2 * (3 sims + 2 analyses) + post.
  EXPECT_EQ(graph.node_count(), 12u);
  // pre group + per iteration (sims, analyses) + post group.
  EXPECT_EQ(graph.group_count(), 6u);
  EXPECT_EQ(graph.expander_count(), 0u);
  // Every non-pre node waits on exactly one barrier.
  for (NodeId id = 1; id < graph.node_count(); ++id) {
    EXPECT_EQ(graph.node(id).gates.size(), 1u) << graph.node(id).label;
  }
}

TEST(TaskGraphCompile, AdaptiveSalDefersIterationsToAnExpander) {
  SimulationAnalysisLoop pattern(3, 2, 2);
  pattern.set_simulation(
      [](const StageContext&) { return sleep_spec(1.0); });
  pattern.set_analysis([](const StageContext&) { return sleep_spec(1.0); });
  pattern.set_adaptive_counts([](Count) { return std::make_pair(2, 2); });
  TaskGraph graph;
  ASSERT_TRUE(pattern.compile(graph).is_ok());
  EXPECT_EQ(graph.node_count(), 0u);  // generations appear at run time
  EXPECT_EQ(graph.expander_count(), 1u);
}

TEST(TaskGraphCompile, PairwiseExchangeJoinsBothReplicaChains) {
  EnsembleExchange pattern(5, 2, EnsembleExchange::ExchangeMode::kPairwise);
  pattern.set_simulation(
      [](const StageContext&) { return sleep_spec(1.0); });
  pattern.set_pair_exchange(
      [](Count, Count, Count) { return sleep_spec(0.5); });
  TaskGraph graph;
  ASSERT_TRUE(pattern.compile(graph).is_ok());
  // 5 replicas x 2 cycles = 10 sims; pairs (0,1),(2,3) then (1,2),(3,4).
  EXPECT_EQ(graph.node_count(), 14u);
  std::size_t exchanges = 0;
  for (NodeId id = 0; id < graph.node_count(); ++id) {
    const TaskNode& node = graph.node(id);
    if (node.context.stage != 2) continue;
    ++exchanges;
    EXPECT_EQ(node.deps.size(), 2u);    // both partners' sims
    EXPECT_EQ(node.groups.size(), 2u);  // both partners' chains
  }
  EXPECT_EQ(exchanges, 4u);
  ASSERT_EQ(graph.chain_set_count(), 1u);
  EXPECT_EQ(graph.chain_set(0).member_noun, "replicas");
}

TEST(TaskGraphCompile, CompositePatternsCompileToExpanders) {
  auto body = std::make_unique<BagOfTasks>(
      2, [](const StageContext&) { return sleep_spec(1.0); });
  AdaptiveLoop loop(std::move(body), 3, [](Count) { return true; });
  TaskGraph loop_graph;
  ASSERT_TRUE(loop.compile(loop_graph).is_ok());
  EXPECT_EQ(loop_graph.node_count(), 0u);
  EXPECT_EQ(loop_graph.expander_count(), 1u);

  SequencePattern sequence;
  sequence.append(std::make_unique<BagOfTasks>(
      1, [](const StageContext&) { return sleep_spec(1.0); }));
  TaskGraph seq_graph;
  ASSERT_TRUE(sequence.compile(seq_graph).is_ok());
  EXPECT_EQ(seq_graph.node_count(), 0u);
  EXPECT_EQ(seq_graph.expander_count(), 1u);
}

TEST(TaskGraphCompile, QuorumRulesAreValidated) {
  FailureRules rules;
  rules.policy = FailurePolicy::kQuorum;
  rules.quorum = 1.5;
  EXPECT_FALSE(rules.validate().is_ok());
  TaskGraph graph;
  graph.add_stage_group("bad", rules);
  EXPECT_FALSE(graph.validate().is_ok());
}

// ------------------------------------------------------------------- dot

TEST(TaskGraphDot, RendersNodesEdgesAndBarriers) {
  EnsembleExchange pattern(2, 1);
  pattern.set_simulation(
      [](const StageContext&) { return sleep_spec(1.0); });
  pattern.set_exchange([](const StageContext&) { return sleep_spec(0.5); });
  TaskGraph graph;
  ASSERT_TRUE(pattern.compile(graph).is_ok());
  const std::string dot = graph.to_dot();
  EXPECT_NE(dot.find("digraph taskgraph"), std::string::npos);
  EXPECT_NE(dot.find("sim c1.r0"), std::string::npos);
  EXPECT_NE(dot.find("exchange c1"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_g0"), std::string::npos);
  EXPECT_NE(dot.find("[style=dashed]"), std::string::npos);  // gate edge
}

TEST(TaskGraphDot, NotesPendingExpanders) {
  SequencePattern sequence;
  sequence.append(std::make_unique<BagOfTasks>(
      1, [](const StageContext&) { return sleep_spec(1.0); }));
  TaskGraph graph;
  ASSERT_TRUE(sequence.compile(graph).is_ok());
  EXPECT_NE(graph.to_dot().find("expander(s) pending"), std::string::npos);
}

// ------------------------------------------------- custom graphs / executor

class SimRunFixture : public ::testing::Test {
 protected:
  SimRunFixture()
      : registry_(kernels::KernelRegistry::with_builtin_kernels()),
        backend_(sim::localhost_profile()) {}

  ResourceHandle make_handle(Count cores) {
    ResourceOptions options;
    options.cores = cores;
    return ResourceHandle(backend_, registry_, options);
  }

  kernels::KernelRegistry registry_;
  pilot::SimBackend backend_;
};

/// A user-defined pattern: the diamond A -> {B, C} -> D, impossible to
/// express with the stock unit patterns but trivial as a TaskGraph.
class DiamondPattern final : public ExecutionPattern {
 public:
  std::string name() const override { return "diamond"; }
  Status validate() const override { return Status::ok(); }

  Status compile(TaskGraph& graph) override {
    units_.clear();
    const auto sink = [this](const pilot::ComputeUnitPtr& unit) {
      units_.push_back(unit);
    };
    const NodeId a = graph.add_node("A", [] { return sleep_spec(1.0); });
    const NodeId b = graph.add_node("B", [] { return sleep_spec(2.0); });
    const NodeId c = graph.add_node("C", [] { return sleep_spec(3.0); });
    const NodeId d = graph.add_node("D", [] { return sleep_spec(1.0); });
    graph.add_dependency(b, a);
    graph.add_dependency(c, a);
    graph.add_dependency(d, b);
    graph.add_dependency(d, c);
    for (const NodeId id : {a, b, c, d}) graph.set_sink(id, sink);
    return Status::ok();
  }

  const std::vector<pilot::ComputeUnitPtr>& units() const { return units_; }

 private:
  std::vector<pilot::ComputeUnitPtr> units_;
};

TEST_F(SimRunFixture, CustomDiamondGraphRunsInDependencyOrder) {
  auto handle = make_handle(4);
  ASSERT_TRUE(handle.allocate().is_ok());
  DiamondPattern pattern;
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  ASSERT_EQ(pattern.units().size(), 4u);
  const auto& units = pattern.units();
  // B and C both start after A finishes and overlap each other.
  EXPECT_GE(units[1]->exec_started_at(), units[0]->finished_at());
  EXPECT_GE(units[2]->exec_started_at(), units[0]->finished_at());
  EXPECT_LT(units[1]->exec_started_at(), units[2]->finished_at());
  // D joins: starts only after BOTH B and C finished.
  EXPECT_GE(units[3]->exec_started_at(), units[1]->finished_at());
  EXPECT_GE(units[3]->exec_started_at(), units[2]->finished_at());
}

/// A pattern whose node gates on a stage group containing itself: the
/// gate can never be decided, so the graph must stall, and the
/// executor must say so instead of deadlocking the backend.
class SelfGatedPattern final : public ExecutionPattern {
 public:
  std::string name() const override { return "self_gated"; }
  Status validate() const override { return Status::ok(); }
  Status compile(TaskGraph& graph) override {
    const GroupId group = graph.add_stage_group(name(), failure_rules());
    const NodeId node =
        graph.add_node("stuck", [] { return sleep_spec(1.0); });
    graph.add_member(group, node);
    graph.gate_on(node, group);
    return Status::ok();
  }
};

TEST_F(SimRunFixture, StalledGraphReportsInternalError) {
  auto handle = make_handle(4);
  ASSERT_TRUE(handle.allocate().is_ok());
  SelfGatedPattern pattern;
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().outcome.code(), Errc::kInternal);
  EXPECT_NE(report.value().outcome.message().find("task graph stalled"),
            std::string::npos)
      << report.value().outcome.to_string();
}

}  // namespace
}  // namespace entk::core
