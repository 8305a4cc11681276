// stream: one sim::IncrementalAssigner (D&C) fed a seeded event script.
// Tasks arrive in periodic waves ahead of their start, expire, and are
// served by workers who complete after travel plus a service time; a few
// idle workers drift every round. Each op is ApplyEvents + Update. This is
// the only workload on index.delta_graph and the incremental path; the
// waves make both bulk-refill and row-repair rounds occur.
#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <string>
#include <vector>

#include "common.h"
#include "core/registry.h"
#include "sim/incremental.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace core = rdbsc::core;
namespace sim = rdbsc::sim;

constexpr double kRound = 1.0 / 60.0;  // one minute, in hours

struct Sizes {
  int workers;
  int wave_tasks;
  int wave_every;  // rounds between waves
  int rounds;      // rounds per episode
};

/// The world an episode's events are drawn from: the assigner plus what
/// the script needs to know to emit only valid events.
class Episode {
 public:
  Episode(uint64_t seed, const Sizes& sizes, core::Solver* solver)
      : sizes_(sizes), rng_(seed), assigner_(solver, kEta) {
    for (core::WorkerId id = 0; id < sizes_.workers; ++id) {
      core::Worker w;
      w.location = {rng_.Uniform(0.0, 1.0), rng_.Uniform(0.0, 1.0)};
      w.velocity = rng_.Uniform(0.5, 0.8);
      const double lo = rng_.Uniform(0.0, 2.0 * std::numbers::pi);
      w.direction = rdbsc::geo::AngularInterval(
          lo, lo + rng_.Uniform(0.5, 1.0) * std::numbers::pi);
      w.confidence = rng_.TruncatedGaussian(0.9, 0.05, 0.8, 1.0);
      Require(assigner_.AddWorker(id, w), "stream AddWorker");
      workers_.push_back({w, false, -1, {}});
    }
  }

  sim::IncrementalAssigner& assigner() { return assigner_; }

  /// The events of round `r` (at time r * kRound).
  sim::EventBatch Events(int r) {
    sim::EventBatch batch;
    batch.now = r * kRound;
    // Expirations: tasks whose window closed since the last round. Their
    // committed workers are freed by the assigner, so drop the pending
    // completions too.
    for (auto it = tasks_.begin(); it != tasks_.end();) {
      if (it->second.end < batch.now) {
        batch.expired.push_back({it->first});
        for (WorkerState& w : workers_) {
          if (w.busy && w.task == it->first) {
            w.busy = false;
            w.task = -1;
          }
        }
        it = tasks_.erase(it);
      } else {
        ++it;
      }
    }
    // Completions due this round.
    auto due = completions_.find(r);
    if (due != completions_.end()) {
      for (core::WorkerId id : due->second) {
        WorkerState& w = workers_[static_cast<size_t>(id)];
        if (!w.busy) continue;  // freed by an expiry meanwhile
        w.busy = false;
        w.task = -1;
        w.worker.location = w.target;
        batch.completed.push_back({id, w.target});
      }
      completions_.erase(due);
    }
    // A wave of tasks that open 5-15 minutes ahead.
    if (r % sizes_.wave_every == 0) {
      for (int k = 0; k < sizes_.wave_tasks; ++k) {
        core::Task t;
        t.location = {rng_.Uniform(0.0, 1.0), rng_.Uniform(0.0, 1.0)};
        t.start = batch.now + rng_.Uniform(5.0, 15.0) * kRound;
        t.end = t.start + rng_.Uniform(20.0, 40.0) * kRound;
        t.beta = rng_.Uniform(0.4, 0.6);
        batch.arrived.push_back({next_task_, t});
        tasks_.emplace(next_task_++, t);
      }
    }
    // A few idle workers drift.
    for (core::WorkerId id = 0; id < sizes_.workers; ++id) {
      WorkerState& w = workers_[static_cast<size_t>(id)];
      if (w.busy || !rng_.Bernoulli(0.03)) continue;
      rdbsc::geo::Point& p = w.worker.location;
      p.x = std::clamp(p.x + rng_.Uniform(-0.01, 0.01), 0.0, 1.0);
      p.y = std::clamp(p.y + rng_.Uniform(-0.01, 0.01), 0.0, 1.0);
      batch.moved.push_back({id, p});
    }
    return batch;
  }

  /// Records the round's commitments: each worker completes at the task
  /// after travel plus a 5-minute service time.
  void Commit(int r, const std::vector<std::pair<core::TaskId,
                                                 core::WorkerId>>& pairs) {
    for (const auto& [tid, wid] : pairs) {
      WorkerState& w = workers_[static_cast<size_t>(wid)];
      const core::Task& t = tasks_.at(tid);
      const double travel = core::TravelTime(w.worker, t.location);
      const double done = std::max(r * kRound + travel, t.start) +
                          5.0 * kRound;
      const int round = std::max(r + 1, static_cast<int>(
                                            std::ceil(done / kRound)));
      w.busy = true;
      w.task = tid;
      w.target = t.location;
      completions_[round].push_back(wid);
    }
  }

 private:
  // Grid cell side of the assigner's index.
  static constexpr double kEta = 0.05;

  struct WorkerState {
    core::Worker worker;
    bool busy = false;
    core::TaskId task = -1;
    /// Where a busy worker completes; an expiry frees it where it was.
    rdbsc::geo::Point target;
  };

  Sizes sizes_;
  rdbsc::util::Rng rng_;
  sim::IncrementalAssigner assigner_;
  std::vector<WorkerState> workers_;
  std::map<core::TaskId, core::Task> tasks_;
  std::map<int, std::vector<core::WorkerId>> completions_;
  core::TaskId next_task_ = 0;
};

class Stream : public Workload {
 public:
  explicit Stream(const Options& options)
      : options_(options),
        sizes_(options.smoke ? Sizes{60, 8, 5, 40}
                             : Sizes{400, 60, 5, 400}) {}

  void SetUp() override {
    RegisterProbedSolvers();
    auto solver = core::SolverRegistry::Global().Create("perfbench.dc");
    Require(solver.status(), "stream solver");
    solver_ = std::move(solver).value();
    // Warm up on the first wave period of every episode of the cycle: the
    // cost of a single round depends on its seed, of these much less.
    SolveProbe probe;
    g_probe = &probe;
    for (int e = 0; e < Episodes(); ++e) {
      Episode episode(SubSeed(options_.seed, static_cast<uint64_t>(e)),
                      sizes_, solver_.get());
      for (int r = 0; r < sizes_.wave_every; ++r) RunRound(episode, r);
    }
    g_probe = nullptr;
  }

  void Verify() override {
    digests_.clear();
    quality_ = {};
    for (int e = 0; e < Episodes(); ++e) {
      SolveProbe probe;
      probe.check = true;
      g_probe = &probe;
      Episode episode(SubSeed(options_.seed, static_cast<uint64_t>(e)), sizes_,
                      solver_.get());
      for (int r = 0; r < sizes_.rounds; ++r) {
        probe.op = r;
        RunRound(episode, r);
      }
      g_probe = nullptr;
      digests_.push_back(probe.digest.Digest());
      const core::ObjectiveValue objectives =
          episode.assigner().Objectives();
      quality_.min_reliability += objectives.min_reliability / Episodes();
      quality_.total_std += objectives.total_std / Episodes();
    }
  }

  Pass Measure(double seconds, Tracer& tracer) override {
    rdbsc::obs::Registry registry;
    SolveProbe probe;
    probe.tracer = tracer.enabled() ? &tracer : nullptr;
    g_probe = &probe;
    std::unique_ptr<Episode> episode;
    int episode_index = 0;
    rdbsc::index::DeltaStats delta;
    sim::RoundCacheStats rounds;
    auto finish_episode = [&] {
      if (episode == nullptr) return;
      if (probe.digest.Digest() !=
          digests_[static_cast<size_t>(episode_index)]) {
        Fail("stream episode " + std::to_string(episode_index) +
             " differs from its verified run");
      }
      const auto& d = episode->assigner().delta_stats();
      delta.cells_touched += d.cells_touched;
      delta.edges_repaired += d.edges_repaired;
      delta.rows_recomputed += d.rows_recomputed;
      delta.rows_reused += d.rows_reused;
      delta.compactions += d.compactions;
      delta.bulk_refills += d.bulk_refills;
      rounds.rounds += episode->assigner().round_cache_stats().rounds;
      rounds.graph_reuses +=
          episode->assigner().round_cache_stats().graph_reuses;
    };
    const int cycle = Episodes() * sizes_.rounds;
    Pass pass = RunCycles(seconds, cycle, [&](int k, int64_t id) {
      const int r = k % sizes_.rounds;
      if (r == 0) {
        Scope reset(tracer, "harness.episode", id);
        finish_episode();
        episode_index = k / sizes_.rounds;
        probe.digest = rdbsc::util::Hasher();
        episode = std::make_unique<Episode>(
            SubSeed(options_.seed, static_cast<uint64_t>(episode_index)),
            sizes_, solver_.get());
        if (tracer.enabled()) episode->assigner().set_metrics(&registry);
      }
      probe.op = id;
      return RunRound(*episode, r, &tracer, id);
    });
    {
      Scope last(tracer, "harness.episode", pass.attempted);
      finish_episode();
    }
    g_probe = nullptr;
    pass.digest = CombineDigests(digests_);
    pass.quality = quality_;
    if (!tracer.enabled()) return pass;

    const double ops = static_cast<double>(pass.attempted);
    const double solve = tracer.Total("core.solve");
    LayerReport& report = pass.layers;
    report.wall_s = pass.wall_s;
    report.self_s = {
        {"sim.events", tracer.Total("sim.ApplyEvents")},
        {"sim.maintain", tracer.Total("sim.Update") - solve},
        {"core.solve", solve},
        {"harness", tracer.Total("harness.events") +
                        tracer.Total("harness.commit") +
                        tracer.Total("harness.episode")}};
    const double rebuilt =
        static_cast<double>(rounds.rounds - rounds.graph_reuses);
    report.metrics = {
        {"core.solve_calls", double(probe.calls) / ops},
        {"core.exact_std_evals", double(probe.exact_std_evals) / ops},
        {"core.sample_size", double(probe.sample_size) / ops},
        {"core.edges", double(probe.edges) / ops},
        {"index.delta.rows_recomputed", double(delta.rows_recomputed) / ops},
        {"index.delta.rows_reused", double(delta.rows_reused) / ops},
        {"index.delta.bulk_refills", double(delta.bulk_refills) / ops},
        {"index.delta.bulk_share",
         rebuilt > 0 ? double(delta.bulk_refills) / rebuilt : 0.0},
        {"index.delta.edges_repaired", double(delta.edges_repaired) / ops},
        {"index.delta.cells_touched", double(delta.cells_touched) / ops},
        {"index.delta.compactions", double(delta.compactions) / ops},
        {"sim.graph_reuses", double(rounds.graph_reuses) / ops},
        {"sim.rounds", 1.0},
    };
    return pass;
  }

 private:
  /// Round r of `episode`: script events (untimed), then the timed
  /// ApplyEvents + Update, then the commitments are fed back (untimed).
  static OpTime RunRound(Episode& episode, int r, Tracer* tracer = nullptr,
                         int64_t id = -1) {
    Tracer none(false);
    Tracer& t = tracer != nullptr ? *tracer : none;
    sim::EventBatch batch = [&] {
      Scope events(t, "harness.events", id);
      return episode.Events(r);
    }();
    const Clock::time_point t0 = Clock::now();
    const int op = t.Begin("stream.op", id);
    int span = t.Begin("sim.ApplyEvents", id);
    const rdbsc::util::Status applied = episode.assigner().ApplyEvents(batch);
    t.End(span);
    span = t.Begin("sim.Update", id);
    auto committed = episode.assigner().Update(batch.now);
    t.End(span);
    t.End(op);
    const Clock::time_point t1 = Clock::now();
    Scope commit(t, "harness.commit", id);
    Require(applied, "stream ApplyEvents round " + std::to_string(r));
    Require(committed.status(), "stream Update round " + std::to_string(r));
    episode.Commit(r, committed.value());
    return OpTime{Seconds(t0, t1), 1.0, {}};
  }

  // Episodes per cycle, each from its own seed stream; the objectives are
  // their mean. Episodes differ in cost by their seed; four of them vary
  // little from one --seed to the next.
  int Episodes() const { return options_.smoke ? 1 : 4; }

  Options options_;
  Sizes sizes_;
  std::unique_ptr<core::Solver> solver_;
  std::vector<rdbsc::util::Hash128> digests_;
  Quality quality_;
};

}  // namespace

std::unique_ptr<Workload> MakeStream(const Options& options) {
  return std::make_unique<Stream>(options);
}

}  // namespace perfbench
