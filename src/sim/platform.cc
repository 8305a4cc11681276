#include "sim/platform.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "core/diversity.h"
#include "core/registry.h"
#include "util/config.h"
#include "util/deadline.h"
#include "geo/angle.h"
#include "util/math.h"
#include "util/rng.h"

namespace rdbsc::sim {
namespace {

// Mutable worker state tracked across rounds.
struct MobileWorker {
  core::Worker profile;  ///< profile.location tracks the current position
  bool traveling = false;
  double arrival_time = 0.0;
  core::TaskId target = core::kNoTask;
};

// Mutable task state: the site, its requirements, and its contributions.
struct Site {
  core::Task task;
  double required_angle = 0.0;  ///< desired shooting direction
  std::vector<core::Observation> contributions;
  int pending = 0;  ///< workers en route
  /// Bumped when an arrival is delivered here or a worker is assigned
  /// here: the only events that change the site's observations.
  int64_t version = 0;
};

// One site's share of the round objectives over its observations (the
// contributions, then the en-route workers in worker-id order), valid
// while the site's version equals `version`.
struct SiteObjective {
  int64_t version = -1;
  bool empty = true;
  double reduced = 0.0;       ///< R = sum of reliability weights
  double expected_std = 0.0;  ///< E[STD]
};

// Caches a site's objective over its observations `site_obs`.
void RefreshSiteObjective(const Site& site,
                          const std::vector<core::Observation>& site_obs,
                          SiteObjective* cached) {
  cached->version = site.version;
  cached->empty = site_obs.empty();
  cached->reduced = 0.0;
  for (const core::Observation& obs : site_obs) {
    cached->reduced += util::ReliabilityWeight(obs.confidence);
  }
  cached->expected_std =
      cached->empty ? 0.0 : core::ExpectedStd(site.task, site_obs);
}

// Min reliability and total E[STD] over the non-empty sites, in site order.
core::ObjectiveValue SumObjectives(const std::vector<SiteObjective>& cache) {
  core::ObjectiveValue value;
  double min_r = std::numeric_limits<double>::infinity();
  bool any = false;
  for (const SiteObjective& site : cache) {
    if (site.empty) continue;
    any = true;
    min_r = std::min(min_r, site.reduced);
    value.total_std += site.expected_std;
  }
  value.min_reliability = any ? util::ReducedToProbability(min_r) : 0.0;
  return value;
}

}  // namespace

Platform::Platform(PlatformConfig config) : config_(std::move(config)) {
  util::StatusOr<std::unique_ptr<core::Solver>> created =
      core::SolverRegistry::Global().Create(config_.solver_name,
                                            config_.solver_options);
  if (created.ok()) {
    solver_ = std::move(created).value();
  } else {
    init_status_ = created.status();
    return;  // Run() only reports init_status_; don't spawn idle threads
  }
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
  }
}

util::StatusOr<PlatformResult> Platform::Run() {
  if (!init_status_.ok()) return init_status_;
  util::Rng rng(config_.seed);
  PlatformResult result;

  // Optional observability: resolve the handles once, record per round.
  obs::Counter* m_rounds = nullptr;
  obs::Counter* m_assignments = nullptr;
  obs::Counter* m_answers = nullptr;
  obs::Histogram* m_round_solve = nullptr;
  obs::Histogram* m_round_build = nullptr;
  if (config_.metrics != nullptr) {
    const obs::Labels labels = {{"solver", config_.solver_name}};
    m_rounds = &config_.metrics->GetCounter("sim.rounds", labels);
    m_assignments =
        &config_.metrics->GetCounter("sim.assignments", labels);
    m_answers = &config_.metrics->GetCounter("sim.answers", labels);
    m_round_solve = &config_.metrics->GetHistogram(
        "sim.round_solve_seconds", labels, 1e-9);
    m_round_build = &config_.metrics->GetHistogram(
        "sim.round_build_seconds", labels, 1e-9);
  }

  // --- Set up the campus: sites clustered around the center. ---
  const geo::Point center{0.5, 0.5};
  std::vector<Site> sites;
  sites.reserve(config_.num_sites);
  for (int s = 0; s < config_.num_sites; ++s) {
    Site site;
    double angle = rng.Uniform(0.0, geo::kTwoPi);
    double radius = rng.Uniform(0.2, 1.0) * config_.site_spread;
    site.task.location = {center.x + radius * std::cos(angle),
                          center.y + radius * std::sin(angle)};
    site.task.start = 0.0;
    site.task.end = config_.task_open_time;
    site.task.beta = rng.Uniform(config_.beta_min, config_.beta_max);
    site.required_angle = rng.Uniform(0.0, geo::kTwoPi);
    sites.push_back(site);
  }

  // --- The user pool: free-roaming workers near campus. ---
  std::vector<MobileWorker> workers(config_.num_workers);
  for (MobileWorker& mw : workers) {
    double angle = rng.Uniform(0.0, geo::kTwoPi);
    double radius = rng.Uniform(0.5, 3.0) * config_.site_spread;
    mw.profile.location = {center.x + radius * std::cos(angle),
                           center.y + radius * std::sin(angle)};
    mw.profile.velocity =
        rng.Uniform(config_.worker_speed_min, config_.worker_speed_max);
    mw.profile.direction = geo::AngularInterval::FullCircle();
    mw.profile.confidence = rng.TruncatedGaussian(
        (config_.p_min + config_.p_max) / 2.0, 0.05, config_.p_min,
        config_.p_max);
  }

  double accuracy_error_sum = 0.0;

  auto deliver_arrivals = [&](double until) {
    for (core::WorkerId j = 0; j < config_.num_workers; ++j) {
      MobileWorker& mw = workers[j];
      if (!mw.traveling || mw.arrival_time > until) continue;
      Site& site = sites[mw.target];
      const geo::Point approach_from = mw.profile.location;
      mw.traveling = false;
      mw.profile.location = site.task.location;
      --site.pending;
      ++site.version;
      // The worker succeeds with its confidence; otherwise the task request
      // was rejected / answered wrongly and yields nothing.
      if (rng.Bernoulli(mw.profile.confidence)) {
        Answer answer;
        answer.task = mw.target;
        answer.worker = j;
        // Achieved angle: the approach direction with a little aiming noise.
        answer.angle = geo::NormalizeAngle(
            geo::Bearing(site.task.location, approach_from) +
            rng.Gaussian(0.0, 0.1));
        answer.time = std::clamp(mw.arrival_time, site.task.start,
                                 site.task.end);
        answer.quality = rng.Uniform(0.5, 1.0) * mw.profile.confidence;
        result.answers.push_back(answer);
        ++result.answers_received;

        // Received answers are certain contributions.
        site.contributions.push_back(core::Observation{
            .angle = answer.angle,
            .arrival = answer.time,
            .confidence = 1.0});

        // The paper's per-answer accuracy (Section 8.1):
        // beta * dtheta / pi + (1 - beta) * dt / (e - s).
        double dtheta = std::min(
            geo::CcwDelta(site.required_angle, answer.angle),
            geo::CcwDelta(answer.angle, site.required_angle));
        double required_time = 0.5 * (site.task.start + site.task.end);
        double dt = std::fabs(answer.time - required_time);
        accuracy_error_sum +=
            site.task.beta * dtheta / std::numbers::pi +
            (1.0 - site.task.beta) * dt / site.task.Duration();
      }
      mw.target = core::kNoTask;
    }
  };

  // Objectives of the realized answers plus the en-route workers. Only
  // sites whose version moved since the last call are recomputed; an
  // en-route worker's observation is fixed from assignment to delivery.
  std::vector<SiteObjective> site_objectives(sites.size());
  std::vector<std::vector<core::Observation>> site_obs(sites.size());
  auto objectives = [&]() {
    auto stale = [&](size_t s) {
      return site_objectives[s].version != sites[s].version;
    };
    for (size_t s = 0; s < sites.size(); ++s) {
      if (stale(s)) site_obs[s] = sites[s].contributions;
    }
    for (const MobileWorker& mw : workers) {
      if (!mw.traveling) continue;
      const size_t s = static_cast<size_t>(mw.target);
      if (!stale(s)) continue;
      const core::Task& task = sites[s].task;
      site_obs[s].push_back(core::Observation{
          .angle = geo::Bearing(task.location, mw.profile.location),
          .arrival = std::clamp(mw.arrival_time, task.start, task.end),
          .confidence = mw.profile.confidence});
    }
    for (size_t s = 0; s < sites.size(); ++s) {
      if (stale(s)) {
        RefreshSiteObjective(sites[s], site_obs[s], &site_objectives[s]);
      }
    }
    return SumObjectives(site_objectives);
  };

  // --- Incremental updating loop (Figure 10). ---
  for (double t = 0.0; t < config_.horizon; t += config_.t_interval) {
    deliver_arrivals(t);

    // Snapshot the open tasks and available workers.
    std::vector<core::Task> open_tasks;
    std::vector<core::TaskId> open_ids;
    for (core::TaskId i = 0; i < config_.num_sites; ++i) {
      if (sites[i].task.end >= t) {
        open_tasks.push_back(sites[i].task);
        open_ids.push_back(i);
      }
    }
    std::vector<core::Worker> free_workers;
    std::vector<core::WorkerId> free_ids;
    for (core::WorkerId j = 0; j < config_.num_workers; ++j) {
      if (!workers[j].traveling) {
        free_workers.push_back(workers[j].profile);
        free_ids.push_back(j);
      }
    }
    if (open_tasks.empty() || free_workers.empty()) continue;

    core::Instance snapshot(std::move(open_tasks), std::move(free_workers),
                            /*now=*/t, core::ArrivalPolicy::kStrict);
    // Graph build and solve run through the platform pool.
    const auto solve_start = std::chrono::steady_clock::now();
    const core::CandidateGraph graph =
        core::CandidateGraph::Build(snapshot, pool_.get(), util::Deadline())
            .value();
    if (m_round_build != nullptr) {
      m_round_build->Observe(util::SecondsSince(solve_start));
    }
    core::SolveRequest request;
    request.instance = &snapshot;
    request.graph = &graph;
    request.executor = pool_.get();
    util::StatusOr<core::SolveResult> solved = solver_->Solve(request);
    if (!solved.ok()) return solved.status();
    const core::SolveResult solve = std::move(solved).value();

    if (m_round_solve != nullptr) {
      m_round_solve->Observe(util::SecondsSince(solve_start));
      m_rounds->Increment();
    }

    RoundRecord record;
    record.time = t;
    for (core::WorkerId lj = 0; lj < snapshot.num_workers(); ++lj) {
      core::TaskId li = solve.assignment.TaskOf(lj);
      if (li == core::kNoTask) continue;
      MobileWorker& mw = workers[free_ids[lj]];
      Site& site = sites[open_ids[li]];
      mw.traveling = true;
      mw.target = open_ids[li];
      mw.arrival_time =
          core::ArrivalTime(mw.profile, site.task, t,
                            core::ArrivalPolicy::kStrict);
      ++site.pending;
      ++site.version;
      ++record.newly_assigned;
      ++result.assignments_made;
      if (m_assignments != nullptr) m_assignments->Increment();

      // Pending assignments contribute with the worker's confidence
      // (removed again if the answer never materializes -- modeled by
      // keeping only realized answers in `contributions`; the round
      // objectives add pending observations on the fly).
    }

    record.objectives = objectives();
    result.rounds.push_back(record);
  }

  deliver_arrivals(config_.horizon + 10.0);  // flush everyone still en route
  if (m_answers != nullptr) m_answers->Increment(result.answers_received);
  result.final_objectives = objectives();  // nobody is en route any more
  result.mean_accuracy_error =
      result.answers_received > 0
          ? accuracy_error_sum / result.answers_received
          : 0.0;
  return result;
}

}  // namespace rdbsc::sim
