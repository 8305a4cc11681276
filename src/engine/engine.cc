#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "engine/fingerprint.h"
#include "engine/solve_cache.h"
#include "index/cost_model.h"
#include "index/grid_index.h"

namespace rdbsc {
namespace engine {

/// The typed state one run threads through the staged pipeline
/// Validate -> Plan -> BuildGraph -> Solve. Each stage consumes the
/// products of the previous ones and records its own. Inputs are set up
/// by Engine::Run; everything below the marker is stage output.
struct ExecutionContext {
  // --- inputs ---
  const core::Instance* instance = nullptr;
  const RunControls* controls = nullptr;
  /// controls->cache_mode resolved: kOff without a cache, and kDefault
  /// with one means kReadWrite.
  CacheMode cache_mode = CacheMode::kOff;

  // --- stage products ---
  /// Cell side the grid path would use (resolved by StagePlan even when
  /// the brute-force path wins, so cache keys are stable).
  double resolved_eta = 0.0;
  /// used_grid_index after StagePlan; eta/edges/build_seconds/from_cache
  /// after StageBuildGraph.
  GraphPlan plan;
  /// StageBuildGraph product. Shared so the cache and any number of
  /// concurrent readers can hold the same immutable graph.
  std::shared_ptr<const core::CandidateGraph> graph;
  /// StageSolve product.
  core::SolveResult solve;
};

}  // namespace engine

namespace {

// Cost-model inputs observed from the instance: L_max is the farthest any
// worker can still travel inside the longest remaining task window.
index::CostModelParams ParamsFor(const core::Instance& instance,
                                 double d2) {
  double v_max = 0.0;
  for (const core::Worker& w : instance.workers()) {
    v_max = std::max(v_max, w.velocity);
  }
  double latest_end = instance.now();
  for (const core::Task& t : instance.tasks()) {
    latest_end = std::max(latest_end, t.end);
  }
  index::CostModelParams params;
  params.l_max =
      std::clamp(v_max * (latest_end - instance.now()), 0.01, 1.0);
  params.d2 = d2;
  params.num_points = std::max(instance.num_tasks(), 1);
  return params;
}

// Resolves the RunControls cache convention: no cache means kOff, and
// kDefault with a cache attached means kReadWrite.
engine::CacheMode ResolveCacheMode(const engine::SolveCache* cache,
                                   engine::CacheMode mode) {
  if (cache == nullptr) return engine::CacheMode::kOff;
  if (mode == engine::CacheMode::kDefault) {
    return engine::CacheMode::kReadWrite;
  }
  return mode;
}

using engine::CacheModeReads;
using engine::CacheModeWrites;
using util::SecondsSince;

// Scope timer recording into an optional stage histogram on destruction.
// A null histogram (no registry attached) costs one branch and skips the
// clock reads entirely, keeping the unobserved hot path unchanged.
class StageTimer {
 public:
  explicit StageTimer(obs::Histogram* hist)
      : hist_(hist), t0_(hist == nullptr
                             ? std::chrono::steady_clock::time_point{}
                             : std::chrono::steady_clock::now()) {}
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() {
    if (hist_ != nullptr) hist_->Observe(SecondsSince(t0_));
  }

 private:
  obs::Histogram* hist_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

util::StatusOr<Engine> Engine::Create(std::string solver_name) {
  EngineConfig config;
  config.solver_name = std::move(solver_name);
  return Create(std::move(config));
}

util::StatusOr<Engine> Engine::Create(EngineConfig config) {
  util::StatusOr<std::unique_ptr<core::Solver>> solver =
      core::SolverRegistry::Global().Create(config.solver_name,
                                            config.solver_options);
  if (!solver.ok()) return solver.status();
  Engine engine;
  engine.config_ = std::move(config);
  engine.initialized_ = true;
  engine.display_name_ = std::string(solver.value()->name());
  if (engine.config_.num_threads > 1) {
    engine.pool_ =
        std::make_unique<util::ThreadPool>(engine.config_.num_threads);
  }
  if (engine.config_.metrics != nullptr) {
    // Resolve the metric handles once here; the stages then record
    // through plain pointers without ever touching the registry lock.
    obs::Registry& registry = *engine.config_.metrics;
    const std::string& solver_name = engine.config_.solver_name;
    auto stage_hist = [&](const char* stage) {
      return &registry.GetHistogram(
          "engine.stage_seconds",
          {{"solver", solver_name}, {"stage", stage}}, 1e-9);
    };
    engine.stage_metrics_.validate_seconds = stage_hist("validate");
    engine.stage_metrics_.plan_seconds = stage_hist("plan");
    engine.stage_metrics_.build_seconds = stage_hist("build");
    engine.stage_metrics_.solve_seconds = stage_hist("solve");
    engine.stage_metrics_.cache_hits = &registry.GetCounter(
        "engine.cache", {{"solver", solver_name}, {"outcome", "hit"}});
    engine.stage_metrics_.cache_misses = &registry.GetCounter(
        "engine.cache", {{"solver", solver_name}, {"outcome", "miss"}});
  }
  return engine;
}

util::Hash128 Engine::ResultCacheKey(const core::Instance& instance) const {
  return engine::ResultCacheKey(instance, config_);
}

// --- Stages --------------------------------------------------------------

util::Status Engine::StageValidate(
    const engine::ExecutionContext& ctx) const {
  StageTimer timer(stage_metrics_.validate_seconds);
  if (!config_.validate_instances) return util::Status::OK();
  return ctx.instance->Validate();
}

void Engine::StagePlan(engine::ExecutionContext& ctx) const {
  StageTimer timer(stage_metrics_.plan_seconds);
  const core::Instance& instance = *ctx.instance;
  bool use_grid = config_.graph_strategy == GraphStrategy::kGridIndex;
  double eta = config_.eta;
  if (config_.graph_strategy != GraphStrategy::kBruteForce &&
      instance.num_tasks() > 0 && instance.num_workers() > 0) {
    index::CostModelParams params = ParamsFor(instance, config_.d2);
    if (eta <= 0.0) eta = index::OptimalEta(params);
    if (config_.graph_strategy == GraphStrategy::kAuto) {
      // Appendix I arbitration: the grid pays one insert per object plus
      // the modeled per-worker retrieval cost; brute force tests every
      // (task, worker) pair. Pick whichever the model prices cheaper.
      double grid_cost =
          instance.num_tasks() + instance.num_workers() +
          instance.num_workers() * index::EstimateUpdateCost(eta, params);
      double brute_cost = static_cast<double>(instance.num_tasks()) *
                          static_cast<double>(instance.num_workers());
      use_grid = grid_cost < brute_cost;
    }
  }
  ctx.plan.used_grid_index = use_grid;
  ctx.resolved_eta = eta;
}

util::Status Engine::StageBuildGraph(engine::ExecutionContext& ctx) const {
  StageTimer timer(stage_metrics_.build_seconds);
  const core::Instance& instance = *ctx.instance;
  util::Hash128 key{};
  if (ctx.cache_mode != engine::CacheMode::kOff) {
    key = engine::GraphCacheKey(instance, ctx.plan.used_grid_index,
                                ctx.resolved_eta);
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (CacheModeReads(ctx.cache_mode)) {
    GraphPlan cached_plan;
    if (std::shared_ptr<const core::CandidateGraph> hit =
            ctx.controls->cache->LookupGraph(key, &cached_plan)) {
      ctx.graph = std::move(hit);
      ctx.plan = cached_plan;
      ctx.plan.build_seconds = SecondsSince(t0);
      ctx.plan.from_cache = true;
      return util::Status::OK();
    }
  }

  const util::Deadline& deadline = ctx.controls->deadline;
  core::CandidateGraph graph;
  if (ctx.plan.used_grid_index) {
    util::StatusOr<index::GridIndex> grid =
        index::GridIndex::Build(instance, ctx.resolved_eta, deadline);
    if (!grid.ok()) return grid.status();
    util::StatusOr<std::vector<std::vector<core::TaskId>>> edges =
        grid.value().RetrieveEdges(instance.num_workers(), nullptr,
                                   pool_.get(), deadline);
    if (!edges.ok()) return edges.status();
    graph =
        core::CandidateGraph::FromEdges(instance, std::move(edges).value());
    ctx.plan.eta = grid.value().eta();
  } else {
    util::StatusOr<core::CandidateGraph> built =
        core::CandidateGraph::Build(instance, pool_.get(), deadline);
    if (!built.ok()) return built.status();
    graph = std::move(built).value();
  }
  ctx.plan.edges = graph.NumEdges();
  ctx.plan.build_seconds = SecondsSince(t0);
  auto shared = std::make_shared<const core::CandidateGraph>(std::move(graph));
  if (CacheModeWrites(ctx.cache_mode)) {
    ctx.controls->cache->InsertGraph(key, shared, ctx.plan);
  }
  ctx.graph = std::move(shared);
  return util::Status::OK();
}

util::Status Engine::StageSolve(engine::ExecutionContext& ctx) const {
  StageTimer timer(stage_metrics_.solve_seconds);
  // A fresh solver per run: concurrent runs share no solver state, and
  // every solver reseeds from its options on each solve, so any instance
  // gives the same bits.
  util::StatusOr<std::unique_ptr<core::Solver>> solver =
      core::SolverRegistry::Global().Create(config_.solver_name,
                                            config_.solver_options);
  if (!solver.ok()) return solver.status();
  core::SolveRequest request;
  request.instance = ctx.instance;
  request.graph = ctx.graph.get();
  request.deadline = &ctx.controls->deadline;
  request.partial_stats = ctx.controls->partial_stats;
  request.executor = pool_.get();
  util::StatusOr<core::SolveResult> solved = solver.value()->Solve(request);
  if (!solved.ok()) return solved.status();
  ctx.solve = std::move(solved).value();
  return util::Status::OK();
}

// --- The entry point -----------------------------------------------------

util::StatusOr<EngineResult> Engine::Run(const core::Instance& instance,
                                         const RunControls& controls) const {
  if (!initialized_) {
    return util::Status::FailedPrecondition(
        "engine not initialized; construct it with Engine::Create");
  }
  engine::ExecutionContext ctx;
  ctx.instance = &instance;
  ctx.controls = &controls;
  ctx.cache_mode = ResolveCacheMode(controls.cache, controls.cache_mode);

  if (util::Status status = StageValidate(ctx); !status.ok()) return status;

  util::Hash128 result_key{};
  if (ctx.cache_mode != engine::CacheMode::kOff) {
    result_key = controls.result_key != nullptr
                     ? *controls.result_key
                     : engine::ResultCacheKey(instance, config_);
  }
  if (CacheModeReads(ctx.cache_mode)) {
    if (std::shared_ptr<const EngineResult> hit =
            controls.cache->LookupResult(result_key)) {
      // Bit-identical replay of the cold run that produced the entry
      // (values are immutable and shared); only the provenance flag and
      // -- implicitly -- wall-clock differ.
      if (stage_metrics_.cache_hits != nullptr) {
        stage_metrics_.cache_hits->Increment();
      }
      EngineResult result = *hit;
      result.from_cache = true;
      return result;
    }
    if (stage_metrics_.cache_misses != nullptr) {
      stage_metrics_.cache_misses->Increment();
    }
  }

  StagePlan(ctx);
  if (util::Status status = StageBuildGraph(ctx); !status.ok()) {
    // The build tripped the budget mid-scan; report it the same way a
    // budget-exceeded solve would.
    if (controls.partial_stats != nullptr &&
        (status.code() == util::StatusCode::kDeadlineExceeded ||
         status.code() == util::StatusCode::kCancelled)) {
      *controls.partial_stats = core::SolveStats{};
      controls.partial_stats->budget_exhausted = true;
    }
    return status;
  }
  if (util::Status status = StageSolve(ctx); !status.ok()) return status;

  EngineResult result;
  result.solve = std::move(ctx.solve);
  result.plan = ctx.plan;
  if (CacheModeWrites(ctx.cache_mode)) {
    controls.cache->InsertResult(result_key, result);
  }
  return result;
}

}  // namespace rdbsc
