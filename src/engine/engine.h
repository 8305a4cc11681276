#ifndef RDBSC_ENGINE_ENGINE_H_
#define RDBSC_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.h"
#include "core/registry.h"
#include "core/solver.h"
#include "obs/registry.h"
#include "util/deadline.h"
#include "util/hash.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rdbsc {

namespace engine {
class SolveCache;

/// Resolved metric handles of one engine (see EngineConfig::metrics).
/// All-null when no registry is attached; plain pointers so the stage
/// hot path is a single branch. The pointees live in the registry and
/// are internally synchronized -- recording takes no lock.
struct StageMetrics {
  obs::Histogram* validate_seconds = nullptr;
  obs::Histogram* plan_seconds = nullptr;
  obs::Histogram* build_seconds = nullptr;
  obs::Histogram* solve_seconds = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
};

/// Per-run cache policy. The cache itself (engine::SolveCache) is owned by
/// whoever serves repeated traffic (engine::Server, a bench, an example);
/// the mode says what one run may do with it.
enum class CacheMode {
  /// Fall back to the owner's configured default (SubmitControls only; a
  /// RunControls kDefault with a cache attached means kReadWrite).
  kDefault,
  /// Bypass the cache entirely: solve cold, store nothing.
  kOff,
  /// Serve hits but never insert (probing traffic must not evict).
  kReadOnly,
  /// Always solve cold but insert/refresh the entry (cache warming).
  kWriteOnly,
  /// Serve hits and insert misses (the normal serving mode).
  kReadWrite,
};

/// The two CacheMode capabilities, defined once next to the enum so the
/// engine pipeline and the server's accounting can never drift apart.
inline bool CacheModeReads(CacheMode mode) {
  return mode == CacheMode::kReadOnly || mode == CacheMode::kReadWrite;
}
inline bool CacheModeWrites(CacheMode mode) {
  return mode == CacheMode::kWriteOnly || mode == CacheMode::kReadWrite;
}
}  // namespace engine

/// How Engine builds the candidate graph of an instance.
enum class GraphStrategy {
  /// Cost-model arbitration (Appendix I) between the two paths below.
  kAuto,
  /// CandidateGraph::Build: O(m*n) pair validity tests.
  kBruteForce,
  /// RDB-SC-Grid retrieval with cell-level pruning (src/index).
  kGridIndex,
};

/// Configuration of an Engine: which solver to run (by registry name),
/// its options, and how to build candidate graphs. Budgets are not
/// configuration: every run takes its caller's RunControls::deadline.
struct EngineConfig {
  std::string solver_name = "dc";
  core::SolverOptions solver_options;

  GraphStrategy graph_strategy = GraphStrategy::kAuto;
  /// Grid cell side eta; <= 0 derives the Appendix I optimum from the
  /// instance (index::OptimalEta with the observed worker reach).
  double eta = 0.0;
  /// Correlation fractal dimension fed to the cost model (2 = uniform).
  double d2 = 2.0;

  /// Run Instance::Validate before solving (admission control).
  bool validate_instances = true;

  /// Worker threads of the engine-owned util::ThreadPool; <= 1 keeps the
  /// zero-thread serial default. The pool shards graph construction and
  /// the D&C/sampling solvers inside Run, and concurrent runs share it.
  /// Results are bit-identical to serial for a fixed solver seed at every
  /// thread count.
  int num_threads = 0;

  /// Optional metrics sink (unowned; must outlive the engine). When set,
  /// every run records per-stage wall time into the histograms
  /// engine.stage_seconds{solver, stage=validate|plan|build|solve} and
  /// cache-read outcomes into the counters
  /// engine.cache{solver, outcome=hit|miss}. The histogram/counter
  /// handles are resolved once in Engine::Create, so the per-stage cost
  /// is two clock reads plus a few relaxed atomic adds; nullptr (the
  /// default) reduces it to one branch per stage. Purely observational:
  /// results are bit-identical with or without a registry attached.
  obs::Registry* metrics = nullptr;
};

/// Per-run controls: the caller's deadline and cache policy.
struct RunControls {
  /// Wall-clock budget and cancellation tokens of the whole run, graph
  /// build included (default: unlimited). The only budget a run has.
  util::Deadline deadline;
  /// When non-null, receives the partial stats of a failed solve.
  core::SolveStats* partial_stats = nullptr;
  /// Optional result/graph cache (unowned; must be thread-safe -- it is).
  /// nullptr keeps every run cold.
  engine::SolveCache* cache = nullptr;
  /// What the run may do with `cache`; kDefault means kReadWrite when a
  /// cache is attached.
  engine::CacheMode cache_mode = engine::CacheMode::kDefault;
  /// Optional precomputed ResultCacheKey(instance) (unowned). Callers that
  /// already fingerprinted the instance -- engine::Server hashes it at
  /// admission for single-flight -- pass it so the run does not hash the
  /// instance a second time.
  const util::Hash128* result_key = nullptr;
};

/// How one run built its candidate graph (reported back to the caller).
struct GraphPlan {
  bool used_grid_index = false;
  /// Grid cell side (grid path only).
  double eta = 0.0;
  int64_t edges = 0;
  double build_seconds = 0.0;
  /// The graph came from the cache's plan/graph tier instead of a fresh
  /// build (build_seconds is then the fetch time). Provenance only --
  /// never part of a result fingerprint.
  bool from_cache = false;
};

struct EngineResult {
  core::SolveResult solve;
  GraphPlan plan;
  /// The whole result came from the cache's full-result tier. Provenance
  /// only -- a hit is bit-identical to the cold solve it replays (the
  /// assignment, objective bit patterns, and plan.edges all match; only
  /// timing fields may differ).
  bool from_cache = false;
};

namespace engine {
/// Per-request pipeline state (defined in engine.cc).
struct ExecutionContext;
}  // namespace engine

/// The facade over the whole solving pipeline, one straight line of
/// private stages over an engine::ExecutionContext:
///
///   Validate -> result-tier lookup -> Plan -> BuildGraph -> Solve -> insert
///
/// An optional engine::SolveCache short-circuits it at two seams: the
/// full-result tier skips everything after Validate, and the plan/graph
/// tier skips the candidate-graph build. Callers that share one graph
/// across solvers attach one cache: the graph tier is keyed on the
/// instance and the resolved build decision, not on the solver.
///
///   auto engine = rdbsc::Engine::Create({.solver_name = "greedy"});
///   auto result = engine.value().Run(instance);
class Engine {
 public:
  /// An inert engine: Run fails with kFailedPrecondition. Use Create()
  /// for a working one.
  Engine() = default;

  /// Resolves `config.solver_name` through the global registry;
  /// kNotFound (listing the registered names) for unknown solvers.
  static util::StatusOr<Engine> Create(EngineConfig config);

  /// Convenience: default config with just the solver name set.
  static util::StatusOr<Engine> Create(std::string solver_name);

  /// The whole pipeline under `controls.deadline`, which every stage polls
  /// cooperatively -- the candidate-graph build checks it between
  /// worker-row / cell blocks, so a budget can cut an in-flight build
  /// short with kDeadlineExceeded / kCancelled instead of running the
  /// O(m*n) scan to completion. Thread-safe: each call solves on a fresh
  /// registry-created solver and concurrent calls share only the
  /// engine's thread pool, so the result is bit-identical whichever
  /// thread runs it. A cache hit is bit-identical to the cold solve, so
  /// that holds with or without `controls.cache`.
  util::StatusOr<EngineResult> Run(const core::Instance& instance,
                                   const RunControls& controls = {}) const;

  /// The full-result cache key / single-flight identity of `instance`
  /// under this engine's configuration: a content hash over the instance,
  /// the solver name + options, and the graph strategy (engine/
  /// fingerprint.h documents the exact field order).
  util::Hash128 ResultCacheKey(const core::Instance& instance) const;

  const EngineConfig& config() const { return config_; }
  /// Registry key, e.g. "dc".
  const std::string& solver_name() const { return config_.solver_name; }
  /// The solver's display name, e.g. "D&C" (empty on an inert engine).
  std::string_view solver_display_name() const { return display_name_; }

 private:
  // --- The pipeline stages (see engine::ExecutionContext) ---
  /// Validate: admission control. Fails with the instance's validation
  /// error; a no-op when the engine is configured with
  /// validate_instances = false.
  util::Status StageValidate(const engine::ExecutionContext& ctx) const;

  /// Plan: consults the Appendix I cost model to pick brute-force or
  /// grid-index construction and resolves the grid cell side. Pure
  /// decision -- no graph is built.
  void StagePlan(engine::ExecutionContext& ctx) const;

  /// BuildGraph: consults the cache's plan/graph tier per the context's
  /// cache mode, else executes the planned construction; fills ctx.graph
  /// and the plan's eta/edges/build_seconds.
  util::Status StageBuildGraph(engine::ExecutionContext& ctx) const;

  /// Solve: runs a fresh registry-created solver on ctx.graph under the
  /// run's deadline.
  util::Status StageSolve(engine::ExecutionContext& ctx) const;

  EngineConfig config_;
  /// Set by Create; an inert engine refuses to run.
  bool initialized_ = false;
  /// The solver's display name, resolved once by Create.
  std::string display_name_;
  /// Shards the build and solve stages of every run (nullptr = serial;
  /// results are bit-identical either way).
  std::unique_ptr<util::ThreadPool> pool_;
  /// Resolved once in Create from config_.metrics (all-null otherwise).
  engine::StageMetrics stage_metrics_;
};

}  // namespace rdbsc

#endif  // RDBSC_ENGINE_ENGINE_H_
