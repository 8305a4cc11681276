#include "core/greedy.h"

#include "core/dominance.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <vector>

#include "core/registry.h"
#include "util/math.h"

namespace rdbsc::core {
namespace {

// One candidate (task, worker) edge with its per-round increase pair and
// cached diversity information.
struct Candidate {
  TaskId task = kNoTask;
  WorkerId worker = kNoWorker;
  // Round-invariant while the task roster is unchanged:
  int64_t cached_version = -1;  // task version the caches were computed at
  double lb_dd = 0.0;           // lower bound of Delta E[STD]
  double ub_dd = 0.0;           // upper bound of Delta E[STD]
  bool has_exact = false;
  double exact_dd = 0.0;  // exact Delta E[STD]
  // Recomputed every round (depends on the global minimum):
  double dmr = 0.0;  // Delta of the minimum reduced reliability
  bool alive = true;
};

// The two smallest reduced reliabilities over all tasks (empty tasks carry
// R = 0), so Delta_min_R of any single-task change is O(1).
struct MinPair {
  double min1 = std::numeric_limits<double>::infinity();
  TaskId arg1 = kNoTask;
  double min2 = std::numeric_limits<double>::infinity();
};

MinPair ComputeMins(const AssignmentState& state, int num_tasks) {
  MinPair mp;
  for (TaskId i = 0; i < num_tasks; ++i) {
    double r = state.TaskReducedReliability(i);
    if (r < mp.min1) {
      mp.min2 = mp.min1;
      mp.min1 = r;
      mp.arg1 = i;
    } else if (r < mp.min2) {
      mp.min2 = r;
    }
  }
  return mp;
}

}  // namespace

util::StatusOr<SolveResult> GreedySolver::SolveImpl(
    const Instance& instance, const CandidateGraph& graph,
    const util::Deadline& deadline, util::Executor& /*executor*/,
    SolveStats* partial_stats) {
  auto t0 = std::chrono::steady_clock::now();
  SolveResult result;
  AssignmentState state(instance);

  // Line 2 of Fig. 3: all valid pairs.
  std::vector<Candidate> pairs;
  std::vector<std::vector<size_t>> task_pairs(instance.num_tasks());
  std::vector<std::vector<size_t>> worker_pairs(instance.num_workers());
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    for (TaskId i : graph.TasksOf(j)) {
      task_pairs[i].push_back(pairs.size());
      worker_pairs[j].push_back(pairs.size());
      pairs.push_back(Candidate{.task = i, .worker = j});
    }
  }

  // Reliability weight -ln(1 - p) of each worker, fixed for the solve.
  std::vector<double> weight(static_cast<size_t>(instance.num_workers()));
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    weight[static_cast<size_t>(j)] =
        util::ReliabilityWeight(instance.worker(j).confidence);
  }

  std::vector<int64_t> task_version(instance.num_tasks(), 0);
  // Cached E[STD] bounds of each task's current roster.
  std::vector<DiversityBounds> task_bounds(instance.num_tasks());
  std::vector<int64_t> task_bounds_version(instance.num_tasks(), -1);

  std::vector<size_t> alive;  // candidate indices still assignable
  alive.reserve(pairs.size());
  for (size_t c = 0; c < pairs.size(); ++c) alive.push_back(c);

  // Per-step buffers, reused across steps.
  struct DmrKey {
    double dmr;
    size_t cand;
  };
  std::vector<DmrKey> order;
  std::vector<size_t> survivors;
  std::vector<BiPoint> increase_pairs;

  while (!alive.empty()) {
    if (deadline.Exhausted()) {
      result.stats.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      return BudgetError(deadline, result.stats, partial_stats);
    }
    MinPair mp = ComputeMins(state, instance.num_tasks());

    // Refresh per-candidate caches and the per-round reliability deltas.
    for (size_t c : alive) {
      Candidate& cand = pairs[c];
      TaskId i = cand.task;
      if (task_bounds_version[i] != task_version[i]) {
        task_bounds[i] = state.TaskStdBounds(i);
        task_bounds_version[i] = task_version[i];
      }
      if (cand.cached_version != task_version[i]) {
        DiversityBounds after = state.PreviewTaskStdBounds(i, cand.worker);
        cand.lb_dd = std::max(0.0, after.lb - task_bounds[i].ub);
        cand.ub_dd = std::max(0.0, after.ub - task_bounds[i].lb);
        cand.cached_version = task_version[i];
        cand.has_exact = false;
      }
      double excl = (i == mp.arg1) ? mp.min2 : mp.min1;
      double new_min =
          std::min(excl, state.TaskReducedReliability(i) +
                             weight[static_cast<size_t>(cand.worker)]);
      cand.dmr = std::max(0.0, new_min - mp.min1);
    }

    // Lemma 4.3 pruning: a pair is beaten when some other pair has a
    // reliability delta at least as large and a diversity lower bound
    // exceeding this pair's diversity upper bound.
    survivors.clear();
    if (options_.use_pruning && alive.size() > 1) {
      // Sorting the keys in alive order with the comparator of an index
      // sort over `alive` yields the same permutation, so ties within a
      // dmr group keep the order TopDominating breaks them by.
      order.clear();
      for (size_t c : alive) order.push_back(DmrKey{pairs[c].dmr, c});
      std::sort(order.begin(), order.end(),
                [](const DmrKey& a, const DmrKey& b) { return a.dmr > b.dmr; });
      // running_max_lb = max lb_dd over the groups of larger dmr.
      double running_max_lb = -std::numeric_limits<double>::infinity();
      size_t g = 0;
      while (g < order.size()) {
        size_t h = g;
        double group_max_lb = -std::numeric_limits<double>::infinity();
        while (h < order.size() && order[h].dmr == order[g].dmr) {
          group_max_lb = std::max(group_max_lb, pairs[order[h].cand].lb_dd);
          ++h;
        }
        double max_lb = std::max(running_max_lb, group_max_lb);
        for (size_t k = g; k < h; ++k) {
          if (max_lb > pairs[order[k].cand].ub_dd) {
            ++result.stats.pruned_pairs;
          } else {
            survivors.push_back(order[k].cand);
          }
        }
        running_max_lb = max_lb;
        g = h;
      }
    } else {
      survivors.assign(alive.begin(), alive.end());
    }
    if (survivors.empty()) {  // never prune everything
      survivors.assign(alive.begin(), alive.end());
    }

    // Diversity increase for the survivors (lines 4-5 of Fig. 3): exact,
    // or the Section 4.3 optimistic bound estimate.
    for (size_t c : survivors) {
      Candidate& cand = pairs[c];
      if (!cand.has_exact) {
        if (options_.greedy_increment ==
            SolverOptions::GreedyIncrement::kExact) {
          double after = state.PreviewTaskStd(cand.task, cand.worker);
          cand.exact_dd = after - state.TaskExpectedStd(cand.task);
          ++result.stats.exact_std_evals;
        } else {
          cand.exact_dd = cand.ub_dd;
        }
        cand.has_exact = true;
      }
    }

    // Skyline filter and dominance-count ranking of the (dmr, dstd)
    // increase pairs (lines 6-8), via the shared dominance utilities.
    increase_pairs.clear();
    for (size_t c : survivors) {
      increase_pairs.push_back({pairs[c].dmr, pairs[c].exact_dd});
    }
    size_t best_local = TopDominating(increase_pairs);

    // Commit the winning pair and retire its worker (lines 8-9).
    const Candidate winner = pairs[survivors[best_local]];
    state.Add(winner.task, winner.worker);
    ++task_version[winner.task];
    for (size_t c : worker_pairs[winner.worker]) pairs[c].alive = false;
    std::erase_if(alive, [&pairs](size_t c) { return !pairs[c].alive; });
  }

  result.assignment = state.assignment();
  result.objectives = state.Objectives();
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

namespace internal {

void RegisterGreedySolver(SolverRegistry& registry) {
  registry
      .Register("greedy",
                [](const SolverOptions& options) {
                  return std::make_unique<GreedySolver>(options);
                })
      .ok();
}

}  // namespace internal

}  // namespace rdbsc::core
