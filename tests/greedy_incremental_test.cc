// Differential tests of the incremental greedy round: the bounds previews
// served from per-task sorted views (core::StdBoundsView behind
// AssignmentState::PreviewTaskStdBounds / TaskStdBounds) and the greedy
// loop over them must reproduce the straightforward implementation bit
// for bit. The oracles below are that implementation: every preview
// rebuilds the task's observations and calls ExpectedStdBounds, and
// OracleGreedy is the greedy round as it was before the views existed.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/assignment.h"
#include "core/diversity.h"
#include "core/dominance.h"
#include "core/instance.h"
#include "core/registry.h"
#include "core/solver.h"
#include "gen/workload.h"
#include "geo/angle.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/math.h"
#include "util/rng.h"

namespace rdbsc::core {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectBitEqual(const DiversityBounds& got, const DiversityBounds& want,
                    const std::string& where) {
  EXPECT_EQ(Bits(got.lb), Bits(want.lb))
      << where << ": lb " << got.lb << " vs " << want.lb;
  EXPECT_EQ(Bits(got.ub), Bits(want.ub))
      << where << ": ub " << got.ub << " vs " << want.ub;
}

// ---------------------------------------------------------------------------
// Oracles.
// ---------------------------------------------------------------------------

std::vector<Observation> OracleObservations(const AssignmentState& state,
                                            TaskId i) {
  const Instance& instance = state.instance();
  std::vector<Observation> obs;
  for (WorkerId w : state.WorkersOf(i)) {
    obs.push_back(MakeObservation(instance.task(i), instance.worker(w),
                                  instance.now(), instance.policy()));
  }
  return obs;
}

DiversityBounds OracleTaskBounds(const AssignmentState& state, TaskId i) {
  return ExpectedStdBounds(state.instance().task(i),
                           OracleObservations(state, i));
}

DiversityBounds OraclePreviewBounds(const AssignmentState& state, TaskId i,
                                    WorkerId j) {
  const Instance& instance = state.instance();
  std::vector<Observation> obs = OracleObservations(state, i);
  obs.push_back(MakeObservation(instance.task(i), instance.worker(j),
                                instance.now(), instance.policy()));
  return ExpectedStdBounds(instance.task(i), obs);
}

double OraclePreviewStd(const AssignmentState& state, TaskId i, WorkerId j) {
  const Instance& instance = state.instance();
  std::vector<Observation> obs = OracleObservations(state, i);
  obs.push_back(MakeObservation(instance.task(i), instance.worker(j),
                                instance.now(), instance.policy()));
  return ExpectedStd(instance.task(i), obs);
}

struct OracleCandidate {
  TaskId task = kNoTask;
  WorkerId worker = kNoWorker;
  int64_t cached_version = -1;
  double lb_dd = 0.0;
  double ub_dd = 0.0;
  bool has_exact = false;
  double exact_dd = 0.0;
  double dmr = 0.0;
  bool alive = true;
};

// The greedy round of Fig. 3 with per-step indirect sorting, per-candidate
// reliability weights and ExpectedStdBounds previews.
SolveResult OracleGreedy(const Instance& instance, const CandidateGraph& graph,
                         const SolverOptions& options) {
  SolveResult result;
  AssignmentState state(instance);
  std::vector<OracleCandidate> pairs;
  std::vector<std::vector<size_t>> worker_pairs(instance.num_workers());
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    for (TaskId i : graph.TasksOf(j)) {
      worker_pairs[j].push_back(pairs.size());
      pairs.push_back(OracleCandidate{.task = i, .worker = j});
    }
  }
  std::vector<int64_t> task_version(instance.num_tasks(), 0);
  std::vector<DiversityBounds> task_bounds(instance.num_tasks());
  std::vector<int64_t> task_bounds_version(instance.num_tasks(), -1);
  std::vector<size_t> alive;
  for (size_t c = 0; c < pairs.size(); ++c) alive.push_back(c);
  std::vector<size_t> survivors;

  while (!alive.empty()) {
    double min1 = std::numeric_limits<double>::infinity();
    double min2 = std::numeric_limits<double>::infinity();
    TaskId arg1 = kNoTask;
    for (TaskId i = 0; i < instance.num_tasks(); ++i) {
      double r = state.TaskReducedReliability(i);
      if (r < min1) {
        min2 = min1;
        min1 = r;
        arg1 = i;
      } else if (r < min2) {
        min2 = r;
      }
    }
    for (size_t c : alive) {
      OracleCandidate& cand = pairs[c];
      TaskId i = cand.task;
      if (task_bounds_version[i] != task_version[i]) {
        task_bounds[i] = OracleTaskBounds(state, i);
        task_bounds_version[i] = task_version[i];
      }
      if (cand.cached_version != task_version[i]) {
        DiversityBounds after = OraclePreviewBounds(state, i, cand.worker);
        cand.lb_dd = std::max(0.0, after.lb - task_bounds[i].ub);
        cand.ub_dd = std::max(0.0, after.ub - task_bounds[i].lb);
        cand.cached_version = task_version[i];
        cand.has_exact = false;
      }
      double wt =
          util::ReliabilityWeight(instance.worker(cand.worker).confidence);
      double excl = (i == arg1) ? min2 : min1;
      double new_min = std::min(excl, state.TaskReducedReliability(i) + wt);
      cand.dmr = std::max(0.0, new_min - min1);
    }

    survivors.clear();
    if (options.use_pruning && alive.size() > 1) {
      std::vector<size_t> order(alive);
      std::sort(order.begin(), order.end(), [&pairs](size_t a, size_t b) {
        return pairs[a].dmr > pairs[b].dmr;
      });
      double running_max_lb = -std::numeric_limits<double>::infinity();
      size_t g = 0;
      while (g < order.size()) {
        size_t h = g;
        double group_max_lb = -std::numeric_limits<double>::infinity();
        while (h < order.size() &&
               pairs[order[h]].dmr == pairs[order[g]].dmr) {
          group_max_lb = std::max(group_max_lb, pairs[order[h]].lb_dd);
          ++h;
        }
        double max_lb = std::max(running_max_lb, group_max_lb);
        for (size_t k = g; k < h; ++k) {
          if (max_lb > pairs[order[k]].ub_dd) {
            ++result.stats.pruned_pairs;
          } else {
            survivors.push_back(order[k]);
          }
        }
        running_max_lb = max_lb;
        g = h;
      }
    } else {
      survivors = alive;
    }
    if (survivors.empty()) survivors = alive;

    for (size_t c : survivors) {
      OracleCandidate& cand = pairs[c];
      if (!cand.has_exact) {
        if (options.greedy_increment ==
            SolverOptions::GreedyIncrement::kExact) {
          double after = OraclePreviewStd(state, cand.task, cand.worker);
          cand.exact_dd = after - state.TaskExpectedStd(cand.task);
          ++result.stats.exact_std_evals;
        } else {
          cand.exact_dd = cand.ub_dd;
        }
        cand.has_exact = true;
      }
    }

    std::vector<BiPoint> increase_pairs(survivors.size());
    for (size_t k = 0; k < survivors.size(); ++k) {
      increase_pairs[k] = {pairs[survivors[k]].dmr,
                           pairs[survivors[k]].exact_dd};
    }
    const OracleCandidate winner =
        pairs[survivors[TopDominating(increase_pairs)]];
    state.Add(winner.task, winner.worker);
    ++task_version[winner.task];
    for (size_t c : worker_pairs[winner.worker]) pairs[c].alive = false;
    std::erase_if(alive, [&pairs](size_t c) { return !pairs[c].alive; });
  }
  result.assignment = state.assignment();
  result.objectives = state.Objectives();
  return result;
}

// WorkerGreedySolver's loop with ExpectedStdBounds previews.
SolveResult OracleWorkerGreedy(const Instance& instance,
                               const CandidateGraph& graph,
                               const SolverOptions& options) {
  SolveResult result;
  AssignmentState state(instance);
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    const auto& tasks = graph.TasksOf(j);
    if (tasks.empty()) continue;
    double min1 = std::numeric_limits<double>::infinity();
    double min2 = std::numeric_limits<double>::infinity();
    TaskId arg1 = kNoTask;
    for (TaskId i = 0; i < instance.num_tasks(); ++i) {
      double r = state.TaskReducedReliability(i);
      if (r < min1) {
        min2 = min1;
        min1 = r;
        arg1 = i;
      } else if (r < min2) {
        min2 = r;
      }
    }
    double weight = util::ReliabilityWeight(instance.worker(j).confidence);
    std::vector<BiPoint> increase_pairs;
    for (TaskId i : tasks) {
      double excl = (i == arg1) ? min2 : min1;
      double new_min =
          std::min(excl, state.TaskReducedReliability(i) + weight);
      double dmr = std::max(0.0, new_min - min1);
      double dstd;
      if (options.greedy_increment ==
          SolverOptions::GreedyIncrement::kExact) {
        dstd = OraclePreviewStd(state, i, j) - state.TaskExpectedStd(i);
        ++result.stats.exact_std_evals;
      } else {
        dstd = std::max(0.0, OraclePreviewBounds(state, i, j).ub -
                                 OracleTaskBounds(state, i).lb);
      }
      increase_pairs.push_back(BiPoint{dmr, dstd});
    }
    state.Add(tasks[TopDominating(increase_pairs)], j);
  }
  result.assignment = state.assignment();
  result.objectives = state.Objectives();
  return result;
}

// ---------------------------------------------------------------------------
// Solvers vs oracles.
// ---------------------------------------------------------------------------

Instance DiffInstance(uint64_t seed, gen::SpatialDistribution distribution,
                      int num_tasks, int num_workers) {
  gen::WorkloadConfig config;
  config.num_tasks = num_tasks;
  config.num_workers = num_workers;
  config.task_distribution = distribution;
  config.worker_distribution = distribution;
  config.seed = seed;
  config.angle_range = 3.14159;
  config.start_min = 0.0;
  config.start_max = 2.0;
  config.rt_min = 2.0;
  config.rt_max = 4.0;
  config.v_min = 0.3;
  config.v_max = 0.6;
  config.p_min = 0.6;
  return gen::GenerateInstance(config);
}

// The instance with every worker tripled: identical copies tie exactly on
// every increase pair, so only the candidates' order decides among them.
Instance WithTripledWorkers(const Instance& instance) {
  std::vector<Worker> workers;
  for (const Worker& w : instance.workers()) {
    workers.insert(workers.end(), 3, w);
  }
  return Instance(instance.tasks(), std::move(workers), instance.now(),
                  instance.policy());
}

void ExpectSameSolve(const SolveResult& got, const SolveResult& want,
                     const std::string& where) {
  ASSERT_EQ(got.assignment.num_workers(), want.assignment.num_workers());
  for (WorkerId j = 0; j < got.assignment.num_workers(); ++j) {
    EXPECT_EQ(got.assignment.TaskOf(j), want.assignment.TaskOf(j))
        << where << ": worker " << j;
  }
  EXPECT_EQ(Bits(got.objectives.min_reliability),
            Bits(want.objectives.min_reliability))
      << where;
  EXPECT_EQ(Bits(got.objectives.total_std), Bits(want.objectives.total_std))
      << where;
  EXPECT_EQ(got.stats.pruned_pairs, want.stats.pruned_pairs) << where;
  EXPECT_EQ(got.stats.exact_std_evals, want.stats.exact_std_evals) << where;
}

TEST(GreedyIncrementalTest, SolversMatchOracles) {
  int64_t total_pruned = 0;
  for (auto distribution : {gen::SpatialDistribution::kUniform,
                            gen::SpatialDistribution::kSkewed}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      static const int kTasks[] = {12, 25, 8, 30, 5, 40};
      static const int kWorkers[] = {30, 60, 60, 60, 40, 40};
      const Instance base = DiffInstance(seed, distribution,
                                         kTasks[seed - 1], kWorkers[seed - 1]);
      const Instance instance = seed % 2 == 0 ? WithTripledWorkers(base) : base;
      const CandidateGraph graph = CandidateGraph::Build(instance);
      for (auto mode : {SolverOptions::GreedyIncrement::kBounds,
                        SolverOptions::GreedyIncrement::kExact}) {
        for (bool pruning : {true, false}) {
          SolverOptions options;
          options.greedy_increment = mode;
          options.use_pruning = pruning;
          const std::string where =
              "seed " + std::to_string(seed) +
              (distribution == gen::SpatialDistribution::kSkewed
                   ? " skewed"
                   : " uniform") +
              (mode == SolverOptions::GreedyIncrement::kExact ? " exact"
                                                              : " bounds") +
              (pruning ? " pruned" : " unpruned");

          auto greedy = SolverRegistry::Global().Create("greedy", options);
          ASSERT_TRUE(greedy.ok());
          const SolveResult got = greedy.value()->Solve(instance, graph)
                                      .value();
          const SolveResult want = OracleGreedy(instance, graph, options);
          ExpectSameSolve(got, want, "greedy " + where);
          total_pruned += want.stats.pruned_pairs;

          auto worker_greedy =
              SolverRegistry::Global().Create("worker-greedy", options);
          ASSERT_TRUE(worker_greedy.ok());
          ExpectSameSolve(
              worker_greedy.value()->Solve(instance, graph).value(),
              OracleWorkerGreedy(instance, graph, options),
              "worker-greedy " + where);
        }
      }
    }
  }
  EXPECT_GT(total_pruned, 0) << "the instances never exercise pruning";
}

// ---------------------------------------------------------------------------
// Preview bounds vs ExpectedStdBounds.
// ---------------------------------------------------------------------------

// Workers in a few co-located groups with equal speeds, so many share an
// approach angle and an arrival time.
Instance TiedInstance(uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Task> tasks;
  for (int i = 0; i < 4; ++i) {
    Task t;
    t.location = {rng.Uniform(0.3, 0.7), rng.Uniform(0.3, 0.7)};
    t.start = 0.0;
    t.end = rng.Uniform(0.5, 3.0);
    t.beta = rng.Uniform(0.0, 1.0);
    tasks.push_back(t);
  }
  tasks[0].beta = 0.0;
  tasks[1].beta = 1.0;
  std::vector<Worker> workers;
  for (int group = 0; group < 5; ++group) {
    Worker w;
    w.location = {rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    w.velocity = rng.Uniform(0.2, 1.0);
    w.direction = geo::AngularInterval::FullCircle();
    for (int k = 0; k < 4; ++k) {
      w.confidence = k == 3 ? 1.0 : rng.Uniform(0.5, 0.99);
      workers.push_back(w);
    }
  }
  return Instance(std::move(tasks), std::move(workers), /*now=*/0.0,
                  ArrivalPolicy::kStrict);
}

void CheckAllPreviews(const AssignmentState& state, const std::string& where) {
  const Instance& instance = state.instance();
  for (TaskId i = 0; i < instance.num_tasks(); ++i) {
    ExpectBitEqual(state.TaskStdBounds(i), OracleTaskBounds(state, i),
                   where + " task " + std::to_string(i));
    for (WorkerId j = 0; j < instance.num_workers(); ++j) {
      if (state.TaskOf(j) != kNoTask) continue;
      ExpectBitEqual(state.PreviewTaskStdBounds(i, j),
                     OraclePreviewBounds(state, i, j),
                     where + " preview (" + std::to_string(i) + ", " +
                         std::to_string(j) + ")");
    }
  }
}

TEST(GreedyIncrementalTest, PreviewBoundsFollowAddRemoveReset) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = seed % 2 == 0 ? TiedInstance(seed)
                                            : test::SmallInstance(seed, 5, 20);
    AssignmentState state(instance);
    util::Rng rng(seed * 977);
    CheckAllPreviews(state, "empty");
    for (int step = 0; step < 40; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const double action = rng.Uniform(0.0, 1.0);
      const WorkerId j =
          static_cast<WorkerId>(rng.UniformInt(0, instance.num_workers() - 1));
      if (action < 0.05) {
        // Reset to a random assignment (some tasks crowded, some empty).
        Assignment assignment(instance.num_workers());
        for (WorkerId w = 0; w < instance.num_workers(); ++w) {
          if (rng.Uniform(0.0, 1.0) < 0.5) {
            assignment.Assign(w, static_cast<TaskId>(rng.UniformInt(
                                     0, instance.num_tasks() - 1)));
          }
        }
        state.Reset(assignment);
      } else if (action < 0.3 || state.TaskOf(j) != kNoTask) {
        state.Remove(j);
      } else {
        state.Add(static_cast<TaskId>(
                      rng.UniformInt(0, instance.num_tasks() - 1)),
                  j);
      }
      CheckAllPreviews(state, where);
    }
  }
}

// The `window` of RandomObservation that draws each angle from its own
// period window in [-2, 3].
constexpr int kMixedWindows = 100;

// StdBoundsView on raw observations the instance path never produces:
// angles outside [0, 2*pi), arrivals outside [start, end], confidences
// outside [0, 1], and many exact ties. The angles of one list share the
// period window [k * 2pi, (k + 1) * 2pi) for k = `window`, or come from
// mixed windows (kMixedWindows), where raw order and normalized order
// disagree.
Observation RandomObservation(util::Rng& rng, const Task& task, int window,
                              const std::vector<Observation>& pool) {
  if (!pool.empty() && rng.Uniform(0.0, 1.0) < 0.25) {
    Observation tie = pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      tie.confidence = rng.Uniform(0.0, 1.0);  // same angle and arrival
    }
    return tie;
  }
  static const double kConfidences[] = {0.0, 1.0, 1.5, -0.2, 0.5};
  if (window == kMixedWindows) {
    window = static_cast<int>(rng.UniformInt(-2, 3));
  }
  Observation o;
  o.angle = window * geo::kTwoPi + rng.Uniform(0.0, geo::kTwoPi);
  if (rng.Uniform(0.0, 1.0) < 0.1) {
    // The window's lowest angle: 0, -0 and -2pi all normalize to a zero.
    o.angle = window == 0 ? (rng.Uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0)
              : window == -1 ? -geo::kTwoPi
                             : o.angle;
  }
  const double span = task.end - task.start;
  const double pick = rng.Uniform(0.0, 1.0);
  o.arrival = pick < 0.15   ? task.start
              : pick < 0.3  ? task.end
              : pick < 0.45 ? task.start - rng.Uniform(0.0, span)
              : pick < 0.6  ? task.end + rng.Uniform(0.0, span)
                            : rng.Uniform(task.start, task.end);
  o.confidence = rng.Uniform(0.0, 1.0) < 0.2
                     ? kConfidences[rng.UniformInt(0, 4)]
                     : rng.Uniform(0.0, 1.0);
  return o;
}

TEST(GreedyIncrementalTest, ViewMatchesExpectedStdBoundsOnRawObservations) {
  util::Rng rng(20240611);
  StdBoundsView view;  // reused across builds, like the state's views
  for (int trial = 0; trial < 480; ++trial) {
    Task task = test::MakeTask(rng.Uniform(0.0, 1.0), rng.Uniform(-1.0, 1.0),
                               0.0);
    task.end = task.start + rng.Uniform(0.1, 3.0);
    if (trial % 7 == 0) task.beta = trial % 2 == 0 ? 0.0 : 1.0;
    const int r = trial % 4 == 0 ? static_cast<int>(rng.UniformInt(0, 2))
                                 : static_cast<int>(rng.UniformInt(0, 14));
    static const int kWindows[] = {0, 0, -1, 1, -2, 3};
    const int window = trial < 400 ? kWindows[trial % 6] : kMixedWindows;
    std::vector<Observation> obs;
    for (int k = 0; k < r; ++k) {
      obs.push_back(RandomObservation(rng, task, window, obs));
    }
    view.Build(task, obs);
    const std::string where = "trial " + std::to_string(trial) + " r " +
                              std::to_string(r) + " window " +
                              std::to_string(window);
    ExpectBitEqual(view.Bounds(task), ExpectedStdBounds(task, obs), where);
    for (int e = 0; e < 6; ++e) {
      const Observation extra = RandomObservation(rng, task, window, obs);
      std::vector<Observation> with = obs;
      with.push_back(extra);
      ExpectBitEqual(view.Bounds(task, &extra), ExpectedStdBounds(task, with),
                     where + " extra " + std::to_string(e));
    }
  }
}

}  // namespace
}  // namespace rdbsc::core
