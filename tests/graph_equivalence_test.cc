// Property test: the engine's two graph-construction calls -- the
// brute-force O(m*n) scan (CandidateGraph::Build) and the grid-index
// retrieval (GridIndex::Build -> RetrieveEdges -> FromEdges) -- must
// produce edge-set-identical candidate graphs on randomized instances,
// and the cost-model arbitrated GraphStrategy::kAuto must report one of
// the two concrete paths with the same edge count.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "index/grid_index.h"
#include "test_util.h"
#include "util/deadline.h"

namespace rdbsc {
namespace {

Engine MakeEngine(GraphStrategy strategy) {
  EngineConfig config;
  config.solver_name = "greedy";
  config.graph_strategy = strategy;
  config.validate_instances = false;
  return std::move(Engine::Create(std::move(config)).value());
}

// The grid path as the engine runs it: bulk-load, retrieve, assemble.
core::CandidateGraph GridGraph(const core::Instance& instance, double eta) {
  index::GridIndex grid =
      index::GridIndex::Build(instance, eta, util::Deadline()).value();
  return core::CandidateGraph::FromEdges(
      instance, grid.RetrieveEdges(instance.num_workers()).value());
}

// Per-worker adjacency as sorted rows: the two construction paths may
// emit a worker's tasks in different orders, but the edge *set* must
// match exactly.
std::vector<std::vector<core::TaskId>> SortedRows(
    const core::CandidateGraph& graph) {
  std::vector<std::vector<core::TaskId>> rows(graph.num_workers());
  for (core::WorkerId j = 0; j < graph.num_workers(); ++j) {
    const auto row = graph.TasksOf(j);
    rows[j].assign(row.begin(), row.end());
    std::sort(rows[j].begin(), rows[j].end());
  }
  return rows;
}

TEST(GraphEquivalenceTest, GridAndBruteForceAgreeOnRandomInstances) {
  const Engine grid = MakeEngine(GraphStrategy::kGridIndex);
  const Engine automatic = MakeEngine(GraphStrategy::kAuto);

  int auto_grid_picks = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    // Vary the shape: 8..57 tasks x 12..110 workers across the sweep.
    const int num_tasks = 8 + static_cast<int>(seed);
    const int num_workers = 12 + static_cast<int>(seed * 2);
    core::Instance instance =
        test::SmallInstance(seed, num_tasks, num_workers);

    // The grid engine resolves the Appendix I cell side for the instance;
    // build the grid graph directly at that side.
    const GraphPlan grid_plan = grid.Run(instance).value().plan;
    ASSERT_TRUE(grid_plan.used_grid_index);
    ASSERT_GT(grid_plan.eta, 0.0);
    core::CandidateGraph brute_graph = core::CandidateGraph::Build(instance);
    core::CandidateGraph grid_graph = GridGraph(instance, grid_plan.eta);

    // Edge-set identity between the two concrete paths.
    ASSERT_EQ(grid_graph.NumEdges(), brute_graph.NumEdges())
        << "seed " << seed;
    ASSERT_EQ(grid_plan.edges, brute_graph.NumEdges()) << "seed " << seed;
    ASSERT_EQ(SortedRows(grid_graph), SortedRows(brute_graph))
        << "seed " << seed;

    // The task-side adjacency must be consistent with the worker side.
    int64_t task_side_edges = 0;
    for (core::TaskId i = 0; i < instance.num_tasks(); ++i) {
      task_side_edges +=
          static_cast<int64_t>(brute_graph.WorkersOf(i).size());
    }
    ASSERT_EQ(task_side_edges, brute_graph.NumEdges()) << "seed " << seed;

    // kAuto picks one of the two paths and reproduces its edge count.
    const GraphPlan auto_plan = automatic.Run(instance).value().plan;
    ASSERT_EQ(auto_plan.edges, brute_graph.NumEdges()) << "seed " << seed;
    if (auto_plan.used_grid_index) {
      ASSERT_GT(auto_plan.eta, 0.0) << "seed " << seed;
      ++auto_grid_picks;
    } else {
      ASSERT_EQ(auto_plan.eta, 0.0) << "seed " << seed;
    }
  }
  // The arbitration is allowed to pick either path per instance; just
  // surface the split so a cost-model regression that pins it to one
  // side forever is visible in the test log.
  RecordProperty("auto_grid_picks", auto_grid_picks);
}

TEST(GraphEquivalenceTest, EmptyAndDegenerateInstancesAgree) {
  for (auto [num_tasks, num_workers] :
       {std::pair<int, int>{1, 1}, {1, 8}, {6, 1}}) {
    core::Instance instance =
        test::SmallInstance(5, num_tasks, num_workers);
    for (double eta : {0.05, 0.3, 1.0}) {
      EXPECT_EQ(SortedRows(core::CandidateGraph::Build(instance)),
                SortedRows(GridGraph(instance, eta)))
          << num_tasks << "x" << num_workers << ", eta " << eta;
    }
  }
}

}  // namespace
}  // namespace rdbsc
