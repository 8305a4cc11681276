// campus: serial, inline sim::Platform sessions with the greedy solver on a
// dense campus. The greedy solve dominates and the per-tick graph build is
// a fraction of a percent, so a greedy rewrite shows here and a graph-path
// change shows nothing. An op is one 16-round session; its latency
// samples are the rounds, each from the end of the previous round's solve
// to the end of its own (the first from the session start, the last
// through the session end), so the samples partition the session time.
#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "sim/platform.h"

namespace perfbench {
namespace {

namespace sim = rdbsc::sim;

class Campus : public Workload {
 public:
  explicit Campus(const Options& options) : options_(options) {}

  void SetUp() override {
    RegisterProbedSolvers();
    configs_.clear();
    // Sessions differ in cost by their seed; a cycle of many of them varies
    // little from one --seed to the next.
    const int sessions = options_.smoke ? 2 : 63;
    for (int s = 0; s < sessions; ++s) {
      sim::PlatformConfig config;
      config.num_sites = options_.smoke ? 12 : 30;
      config.num_workers = options_.smoke ? 24 : 60;
      config.seed = SubSeed(options_.seed, static_cast<uint64_t>(s));
      config.solver_name = "perfbench.greedy";
      configs_.push_back(config);
    }
    // Warm up on a few sessions, the next few at each set-up: one
    // session's cost depends on its seed, so the median set-up then spans
    // many sessions rather than repeating the cost of the first ones.
    SolveProbe probe;
    g_probe = &probe;
    for (int s = 0; s < std::min(sessions, kWarmupSessions); ++s) {
      const int session = (setups_ * kWarmupSessions + s) % sessions;
      RunSession(configs_[static_cast<size_t>(session)]);
    }
    g_probe = nullptr;
    ++setups_;
  }

  void Verify() override {
    quality_ = {};
    digests_.clear();
    for (size_t s = 0; s < configs_.size(); ++s) {
      SolveProbe probe;
      probe.check = true;
      probe.op = static_cast<int64_t>(s);
      g_probe = &probe;
      const sim::PlatformResult result = RunSession(configs_[s]);
      g_probe = nullptr;
      digests_.push_back(Digest(probe, result));
      quality_.min_reliability += result.final_objectives.min_reliability;
      quality_.total_std += result.final_objectives.total_std;
    }
    quality_.min_reliability /= static_cast<double>(configs_.size());
    quality_.total_std /= static_cast<double>(configs_.size());
  }

  Pass Measure(double seconds, Tracer& tracer) override {
    rdbsc::obs::Registry registry;
    SolveProbe probe;
    probe.tracer = tracer.enabled() ? &tracer : nullptr;
    std::vector<Clock::time_point> solve_ends;
    probe.solve_ends = &solve_ends;
    g_probe = &probe;
    int64_t assignments = 0;
    int64_t answers = 0;
    int64_t rounds = 0;
    const int cycle = static_cast<int>(configs_.size());
    Pass pass = RunCycles(seconds, cycle, [&](int k, int64_t id) {
      sim::PlatformConfig config = configs_[static_cast<size_t>(k)];
      if (tracer.enabled()) config.metrics = &registry;
      probe.digest = rdbsc::util::Hasher();
      probe.op = id;
      solve_ends.clear();
      const Clock::time_point t0 = Clock::now();
      const int span = tracer.Begin("sim.Platform.Run", id);
      sim::PlatformResult result = RunSession(config);
      tracer.End(span);
      const Clock::time_point t1 = Clock::now();
      Scope check(tracer, "harness.check", id);
      if (Digest(probe, result) != digests_[static_cast<size_t>(k)]) {
        Fail("campus session " + std::to_string(k) +
             " differs from its verified run");
      }
      assignments += result.assignments_made;
      answers += result.answers_received;
      rounds += static_cast<int64_t>(result.rounds.size());
      OpTime time{Seconds(t0, t1), double(result.rounds.size()), {}};
      Clock::time_point from = t0;
      for (size_t r = 0; r < solve_ends.size(); ++r) {
        const Clock::time_point to =
            r + 1 == solve_ends.size() ? t1 : solve_ends[r];
        time.samples_ms.push_back(1e3 * Seconds(from, to));
        from = to;
      }
      return time;
    });
    g_probe = nullptr;
    pass.digest = CombineDigests(digests_);
    pass.quality = quality_;
    if (!tracer.enabled()) return pass;

    const double ops = static_cast<double>(pass.attempted);
    const double solve = tracer.Total("core.solve");
    const double build = HistogramSum(registry, "sim.round_build_seconds");
    const double platform = tracer.Total("sim.Platform.Run") - solve - build;
    const double harness = tracer.Total("harness.check");
    LayerReport& report = pass.layers;
    report.wall_s = pass.wall_s;
    report.self_s = {{"core.solve", solve},
                     {"core.graph", build},
                     {"sim.platform", platform},
                     {"harness", harness}};
    report.metrics = {
        {"core.solve_calls", double(probe.calls) / ops},
        {"core.exact_std_evals", double(probe.exact_std_evals) / ops},
        {"core.pruned_pairs", double(probe.pruned_pairs) / ops},
        {"core.edges", double(probe.edges) / ops},
        {"sim.rounds", double(rounds) / ops},
        {"sim.assignments", double(assignments) / ops},
        {"sim.answers", double(answers) / ops},
    };
    return pass;
  }

 private:
  static sim::PlatformResult RunSession(const sim::PlatformConfig& config) {
    sim::Platform platform(config);
    auto result = platform.Run();
    Require(result.status(), "campus session");
    return std::move(result).value();
  }

  static rdbsc::util::Hash128 Digest(const SolveProbe& probe,
                                     const sim::PlatformResult& result) {
    rdbsc::util::Hasher hasher = probe.digest;
    hasher.Mix(result.assignments_made).Mix(result.answers_received);
    hasher.Mix(result.final_objectives.min_reliability)
        .Mix(result.final_objectives.total_std);
    return hasher.Digest();
  }


  static constexpr int kWarmupSessions = 3;

  Options options_;
  int setups_ = 0;
  std::vector<sim::PlatformConfig> configs_;
  std::vector<rdbsc::util::Hash128> digests_;
  Quality quality_;
};

}  // namespace

std::unique_ptr<Workload> MakeCampus(const Options& options) {
  return std::make_unique<Campus>(options);
}

}  // namespace perfbench
