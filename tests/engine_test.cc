#include "engine/engine.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "engine/fingerprint.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/deadline.h"

namespace rdbsc {
namespace {

using test::SmallInstance;

TEST(EngineTest, CreateRejectsUnknownSolver) {
  EngineConfig config;
  config.solver_name = "definitely-not-registered";
  util::StatusOr<Engine> engine = Engine::Create(config);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kNotFound);
}

TEST(EngineTest, DefaultConstructedEngineIsInert) {
  Engine engine;
  core::Instance instance = SmallInstance(1);
  util::StatusOr<EngineResult> run = engine.Run(instance);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(EngineTest, ValidatesInstancesBeforeSolving) {
  core::Task task = test::MakeTask();
  core::Worker bad;
  bad.location = {0.5, 0.5};
  bad.velocity = -1.0;  // invalid: Instance::Validate must reject this
  core::Instance instance({task}, {bad});

  Engine engine = Engine::Create("greedy").value();
  util::StatusOr<EngineResult> run = engine.Run(instance);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kInvalidArgument);
}

// The two graph-construction paths must agree edge-for-edge, so forcing
// either one through the facade yields the same assignment for one seed.
TEST(EngineTest, GridAndBruteForceGraphsProduceTheSameSolve) {
  core::Instance instance = SmallInstance(9, 30, 60);

  EngineConfig brute;
  brute.solver_name = "greedy";
  brute.graph_strategy = GraphStrategy::kBruteForce;
  EngineConfig grid = brute;
  grid.graph_strategy = GraphStrategy::kGridIndex;

  EngineResult via_brute =
      Engine::Create(brute).value().Run(instance).value();
  EngineResult via_grid =
      Engine::Create(grid).value().Run(instance).value();

  EXPECT_FALSE(via_brute.plan.used_grid_index);
  EXPECT_TRUE(via_grid.plan.used_grid_index);
  EXPECT_GT(via_grid.plan.eta, 0.0);
  EXPECT_EQ(via_brute.plan.edges, via_grid.plan.edges);
  for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
    EXPECT_EQ(via_brute.solve.assignment.TaskOf(j),
              via_grid.solve.assignment.TaskOf(j))
        << "worker " << j;
  }
}

TEST(EngineTest, AutoStrategyPicksAPathAndSolves) {
  core::Instance instance = SmallInstance(10, 20, 40);
  Engine engine = Engine::Create("dc").value();
  EngineResult result = engine.Run(instance).value();
  EXPECT_GE(result.plan.edges, 0);
  EXPECT_GE(result.solve.objectives.total_std, 0.0);
}

// Acceptance criterion: a budget-exhausted solve returns a non-OK status
// (kDeadlineExceeded) with partial stats instead of hanging.
TEST(EngineTest, TinyBudgetReturnsDeadlineExceededWithPartialStats) {
  core::Instance instance = SmallInstance(11, 20, 60);
  for (const char* name : {"greedy", "worker-greedy", "sampling", "dc",
                           "gtruth"}) {
    EngineConfig config;
    config.solver_name = name;
    Engine engine = Engine::Create(config).value();
    core::SolveStats partial;
    RunControls controls;
    controls.deadline = util::Deadline(1e-12);
    controls.partial_stats = &partial;
    util::StatusOr<EngineResult> run = engine.Run(instance, controls);
    ASSERT_FALSE(run.ok()) << name;
    EXPECT_EQ(run.status().code(), util::StatusCode::kDeadlineExceeded)
        << name << ": " << run.status().ToString();
    EXPECT_TRUE(partial.budget_exhausted) << name;
  }
}

TEST(EngineTest, ExactSolverHonorsTinyBudget) {
  // Small enough to be under the enumeration cap, so the failure comes
  // from the budget (not the cap check).
  core::Instance instance = SmallInstance(12, 4, 8);
  Engine engine = Engine::Create("exact").value();
  RunControls controls;
  controls.deadline = util::Deadline(1e-12);
  util::StatusOr<EngineResult> run = engine.Run(instance, controls);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kDeadlineExceeded);
}

TEST(EngineTest, CancelTokenStopsTheSolve) {
  core::Instance instance = SmallInstance(13, 20, 60);
  Engine engine = Engine::Create("sampling").value();
  util::CancelToken cancel;
  cancel.Cancel();  // already cancelled: the solve must not run
  RunControls controls;
  controls.deadline = util::Deadline(0.0, &cancel);
  util::StatusOr<EngineResult> run = engine.Run(instance, controls);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kCancelled);
}

// Satellite acceptance: the build phase itself now has interruption
// points, so a deadline that trips during (or before) graph construction
// surfaces as kDeadlineExceeded instead of the O(m*n) scan running to
// completion. The instance is large enough that a 50-microsecond budget
// cannot cover the build on any machine.
TEST(EngineTest, MidBuildDeadlineReturnsDeadlineExceeded) {
  core::Instance instance = SmallInstance(16, 1'500, 1'500);
  EngineConfig config;
  config.solver_name = "greedy";
  config.graph_strategy = GraphStrategy::kBruteForce;
  Engine engine = Engine::Create(config).value();
  core::SolveStats partial;
  RunControls controls;
  controls.deadline = util::Deadline(50e-6);
  controls.partial_stats = &partial;
  util::StatusOr<EngineResult> run = engine.Run(instance, controls);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(partial.budget_exhausted);
}

TEST(EngineTest, BuildGraphReportsTrippedDeadline) {
  core::Instance instance = SmallInstance(17, 30, 30);
  util::CancelToken cancel;
  cancel.Cancel();
  for (GraphStrategy strategy :
       {GraphStrategy::kBruteForce, GraphStrategy::kGridIndex}) {
    EngineConfig config;
    config.solver_name = "greedy";
    config.graph_strategy = strategy;
    Engine strategic = Engine::Create(config).value();
    core::SolveStats partial;
    RunControls controls;
    controls.deadline = util::Deadline(0.0, &cancel);
    controls.partial_stats = &partial;
    util::StatusOr<EngineResult> run = strategic.Run(instance, controls);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), util::StatusCode::kCancelled);
    EXPECT_TRUE(partial.budget_exhausted);
  }
}

// Run is const and thread-safe: concurrent runs on one engine -- each on
// its own registry-created solver, all sharing the engine's pool -- give
// the same bits as a serial run.
TEST(EngineTest, ConcurrentRunsOnOneEngineAreBitIdentical) {
  std::vector<core::Instance> instances;
  instances.reserve(4);
  for (uint64_t seed = 18; seed < 22; ++seed) {
    instances.push_back(SmallInstance(seed, 24, 60));
  }
  for (const char* name : {"greedy", "sampling", "dc"}) {
    EngineConfig config;
    config.solver_name = name;
    config.num_threads = 2;
    const Engine shared = Engine::Create(config).value();
    std::vector<std::string> serial;
    serial.reserve(instances.size());
    for (const core::Instance& instance : instances) {
      serial.push_back(engine::ResultFingerprint(shared.Run(instance)));
    }
    constexpr int kThreads = 4;
    std::vector<std::vector<std::string>> concurrent(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread walks the instances from a different start, so the
        // same instance is solved by several threads at once.
        for (size_t k = 0; k < instances.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(t)) % instances.size();
          concurrent[t].push_back(
              engine::ResultFingerprint(shared.Run(instances[i])));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      for (size_t k = 0; k < instances.size(); ++k) {
        const size_t i = (k + static_cast<size_t>(t)) % instances.size();
        EXPECT_EQ(concurrent[t][k], serial[i])
            << name << ", thread " << t << ", instance " << i;
      }
    }
  }
}

}  // namespace
}  // namespace rdbsc
