// city: one-shot Engine::Run (kAuto plan, validation on, serial) with the
// sampling solver over pre-generated Table 2 instances. Candidate-graph
// construction dominates; it is the only build-heavy workload, covering
// core.graph and the index.cost_model plan, while greedy and D&C are
// bypassed.
#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "gen/workload.h"

namespace perfbench {
namespace {

namespace core = rdbsc::core;

class City : public Workload {
 public:
  explicit City(const Options& options) : options_(options) {}

  void SetUp() override {
    pool_.clear();
    // Instances differ in cost by their seed; 41 of them vary little from
    // one --seed to the next, and leave ten latency samples beyond p75.
    const int instances = options_.smoke ? 2 : 41;
    const int size = options_.smoke ? 300 : kSize;
    for (int k = 0; k < instances; ++k) {
      rdbsc::gen::WorkloadConfig config;
      config.num_tasks = size;
      config.num_workers = size;
      config.seed = SubSeed(options_.seed, static_cast<uint64_t>(k));
      pool_.push_back(rdbsc::gen::GenerateInstance(config));
    }
    engine_ = MakeEngine(nullptr);
    // Each set-up warms up on the next instance, so the median set-up does
    // not repeat one instance's cost.
    auto warm = engine_.Run(Fresh(pool_[setups_++ % pool_.size()]));
    Require(warm.status(), "city warm-up");
  }

  void Verify() override {
    quality_ = {};
    digests_.clear();
    for (size_t k = 0; k < pool_.size(); ++k) {
      const core::Instance instance = Fresh(pool_[k]);
      auto run = engine_.Run(instance);
      Require(run.status(), "city verify");
      const rdbsc::EngineResult& r = run.value();
      const std::string where = "city instance " + std::to_string(k);
      const int64_t edges = CheckSolve(instance, r.solve.assignment,
                                       r.solve.objectives, where);
      if (edges != r.plan.edges) {
        Fail(where + ": engine graph has " + std::to_string(r.plan.edges) +
             " edges, brute force " + std::to_string(edges));
      }
      digests_.push_back(Digest(r));
      quality_.min_reliability += r.solve.objectives.min_reliability;
      quality_.total_std += r.solve.objectives.total_std;
    }
    quality_.min_reliability /= static_cast<double>(pool_.size());
    quality_.total_std /= static_cast<double>(pool_.size());
  }

  Pass Measure(double seconds, Tracer& tracer) override {
    rdbsc::obs::Registry registry;
    rdbsc::Engine traced_engine;
    rdbsc::Engine* engine = &engine_;
    if (tracer.enabled()) {
      traced_engine = MakeEngine(&registry);
      engine = &traced_engine;
    }
    int64_t edges = 0;
    int64_t grid = 0;
    int64_t sample_size = 0;
    const int cycle = static_cast<int>(pool_.size());
    Pass pass = RunCycles(seconds, cycle, [&](int k, int64_t id) {
      const size_t slot = static_cast<size_t>(k);
      core::Instance instance = [&] {
        Scope prepare(tracer, "harness.prepare", id);
        return Fresh(pool_[slot]);
      }();
      const Clock::time_point t0 = Clock::now();
      const int span = tracer.Begin("engine.Run", id);
      auto run = engine->Run(instance);
      tracer.End(span);
      const Clock::time_point t1 = Clock::now();
      Scope check(tracer, "harness.check", id);
      Require(run.status(), "city request");
      if (Digest(run.value()) != digests_[slot]) {
        Fail("city instance " + std::to_string(k) +
             " differs from its verified run");
      }
      edges += run.value().plan.edges;
      grid += run.value().plan.used_grid_index ? 1 : 0;
      sample_size += run.value().solve.stats.sample_size;
      return OpTime{Seconds(t0, t1), 1.0, {}};
    });
    pass.digest = CombineDigests(digests_);
    pass.quality = quality_;
    if (!tracer.enabled()) return pass;

    const double ops = static_cast<double>(pass.attempted);
    auto stage = [&](const char* name) {
      return HistogramSum(registry, "engine.stage_seconds", name);
    };
    const double validate = stage("validate");
    const double plan = stage("plan");
    const double build = stage("build");
    const double solve = stage("solve");
    LayerReport& report = pass.layers;
    report.wall_s = pass.wall_s;
    report.self_s = {
        {"engine.validate", validate},
        {"index.cost_model", plan},
        {"core.graph", build},
        {"core.solve", solve},
        {"engine.other",
         tracer.Total("engine.Run") - validate - plan - build - solve},
        {"harness",
         tracer.Total("harness.prepare") + tracer.Total("harness.check")}};
    report.metrics = {
        {"core.solve_calls", 1.0},
        {"core.sample_size", double(sample_size) / ops},
        {"core.edges", double(edges) / ops},
        {"engine.grid_share", double(grid) / ops},
    };
    return pass;
  }

 private:
  // m = n of every request: large enough that the O(m*n) build dominates,
  // small enough that every instance repeats about 20 times per pass.
  static constexpr int kSize = 1500;

  static rdbsc::Engine MakeEngine(rdbsc::obs::Registry* metrics) {
    rdbsc::EngineConfig config;
    config.solver_name = "sampling";
    config.graph_strategy = rdbsc::GraphStrategy::kAuto;
    config.validate_instances = true;
    config.metrics = metrics;
    auto engine = rdbsc::Engine::Create(config);
    Require(engine.status(), "city engine");
    return std::move(engine).value();
  }

  /// A copy with its own (empty) columnar cache, so every request pays
  /// the SoA construction a new instance costs.
  static core::Instance Fresh(const core::Instance& source) {
    return core::Instance(source.tasks(), source.workers(), source.now(),
                          source.policy());
  }

  static rdbsc::util::Hash128 Digest(const rdbsc::EngineResult& r) {
    rdbsc::util::Hasher hasher;
    MixResult(hasher, r.solve.assignment, r.solve.objectives);
    hasher.Mix(r.plan.edges);
    return hasher.Digest();
  }


  Options options_;
  size_t setups_ = 0;
  std::vector<core::Instance> pool_;
  rdbsc::Engine engine_;
  std::vector<rdbsc::util::Hash128> digests_;
  Quality quality_;
};

}  // namespace

std::unique_ptr<Workload> MakeCity(const Options& options) {
  return std::make_unique<City>(options);
}

}  // namespace perfbench
