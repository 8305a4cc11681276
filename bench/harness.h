#ifndef RDBSC_BENCH_HARNESS_H_
#define RDBSC_BENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/solver.h"
#include "engine/engine.h"
#include "obs/registry.h"

namespace rdbsc::bench {

/// Command-line options shared by every figure bench.
///
///   --paper-scale   run the paper's full sizes (m = n = 10K defaults);
///                   hours per figure on one core -- the default is a
///                   laptop-scale reduction that preserves the trends
///   --base=N        the scaled stand-in for the paper's 10K (default 300)
///   --seeds=K       number of random seeds averaged per point (default 3)
///   --threads=N     engine thread-pool size (default 0 = serial); results
///                   are bit-identical at every setting, only time changes.
///                   Negative or non-numeric values are rejected with a
///                   warning and fall back to serial; the effective count
///                   is reported in the result header.
///   --out=PATH      additionally write the run's structured results as a
///                   schema-versioned JSON document (the BENCH_*.json
///                   convention; see BenchReport). An unwritable path
///                   warns on stderr, it never fails the bench.
struct BenchOptions {
  int base = 300;
  int num_seeds = 3;
  bool paper_scale = false;
  uint64_t seed0 = 1'000;
  int num_threads = 0;
  std::string out_path;
};

/// Parses the options above; unknown flags are ignored so binaries can add
/// their own.
BenchOptions ParseOptions(int argc, char** argv);

/// Maps a paper-sized count (e.g. 5'000 tasks) to the bench scale:
/// count * base / 10'000, at least 10. With --paper-scale it is identity.
int Scaled(const BenchOptions& options, int paper_count);

/// The pool width `--threads` will actually produce: N for N > 1, else 0
/// (Engine and ThreadPool treat 0 and 1 both as the serial path). Benches
/// report this effective count rather than the raw flag value.
int EffectiveThreads(const BenchOptions& options);

/// Registry keys of the four approaches of Section 8.1, in display order:
/// GREEDY, SAMPLING, D&C, G-TRUTH.
const std::vector<std::string>& ApproachNames();

/// One engine per Section 8.1 approach, wired through the solver registry
/// with `seed`. Engines also build candidate graphs (Engine::Run), so
/// benches never touch graph construction directly. `num_threads > 1`
/// gives every engine its own pool of that size. `metrics`, when
/// non-null, is attached to every engine (EngineConfig::metrics), so the
/// run's engine.stage_seconds breakdown accumulates there per solver.
std::vector<Engine> MakeEngines(uint64_t seed, int num_threads = 0,
                                obs::Registry* metrics = nullptr);

/// Runs every engine on `instance`, in order, through one SolveCache whose
/// result tier is disabled: the first run builds the candidate graph and
/// the others fetch it from the graph tier, which is keyed on the
/// instance and the build decision, not on the solver. The first result's
/// plan.build_seconds is the build; each solve.stats.wall_seconds is that
/// approach's solve alone.
std::vector<EngineResult> RunOnSharedGraph(const std::vector<Engine>& engines,
                                           const core::Instance& instance);

/// One x-axis point of a figure sweep: a label plus an instance factory.
struct SweepPoint {
  std::string label;
  std::function<core::Instance(uint64_t seed)> make;
};

/// Per-solver aggregate of one sweep point.
struct PointResult {
  std::string solver;
  double min_reliability = 0.0;
  double total_std = 0.0;
  double wall_seconds = 0.0;
};

/// Accumulates one bench run's structured results and writes the
/// schema-versioned BENCH_<name>.json document (obs::kResultsSchemaName /
/// kResultsSchemaVersion; validated by tools/check_bench_json.py):
///
///   {"schema": ..., "schema_version": 1, "bench": "...",
///    "options": {...}, "tables": [...], "metrics": [...]}
///
/// The report owns an obs::Registry that benches attach to their engines
/// (MakeEngines's `metrics` parameter), so per-stage engine timings land
/// in the document's "metrics" section without per-bench plumbing;
/// AddMetrics imports external registries (e.g. a per-cell
/// engine::Server's) with distinguishing extra labels.
class BenchReport {
 public:
  /// `bench_name` is the document's "bench" field; the output path (and
  /// the printed options block) come from `options`.
  BenchReport(std::string bench_name, BenchOptions options);

  /// The report-owned registry (attach via MakeEngines / EngineConfig).
  obs::Registry& metrics() { return registry_; }

  /// Records one printed table into the document's "tables" section
  /// (same shape as PrintTable's arguments).
  void AddTable(std::string metric, std::string x_label,
                std::vector<std::string> row_labels,
                std::vector<std::string> column_labels,
                std::vector<std::vector<double>> cells);

  /// Imports a snapshot of an external registry; `extra_labels` are
  /// appended to every imported metric's labels (e.g. {{"workers","4"}}
  /// to tell per-cell server metrics apart).
  void AddMetrics(const obs::RegistrySnapshot& snapshot,
                  const obs::Labels& extra_labels = {});

  /// The full results document (deterministic field order).
  std::string Json() const;

  /// Writes Json() to options.out_path. A no-op without --out; an
  /// unwritable path warns on stderr and leaves the bench's exit status
  /// untouched -- the printed tables remain the primary artifact.
  void Write() const;

 private:
  struct Table {
    std::string metric;
    std::string x_label;
    std::vector<std::string> rows;
    std::vector<std::string> columns;
    std::vector<std::vector<double>> cells;
  };

  std::string name_;
  BenchOptions options_;
  obs::Registry registry_;
  std::vector<Table> tables_;
  std::vector<obs::MetricSnapshot> imported_;
};

/// Runs the standard quality sweep of the paper's figures: for every point
/// and seed, builds the instance, runs all four approaches, and prints the
/// figure's two series (minimum reliability and total_STD) plus CPU time,
/// one row per x value and one column per approach.
/// Returns the per-point results (outer index = point) for callers that
/// assert on trends. `report`, when non-null, receives the three printed
/// tables and has its registry attached to every engine of the sweep
/// (per-solver engine.stage_seconds in the JSON document).
std::vector<std::vector<PointResult>> RunQualitySweep(
    const std::string& figure_title, const std::string& x_label,
    const std::vector<SweepPoint>& points, const BenchOptions& options,
    BenchReport* report = nullptr);

/// Prints one aligned metric table (used by RunQualitySweep and the
/// irregular benches like Fig. 16-18).
void PrintTable(const std::string& metric, const std::string& x_label,
                const std::vector<std::string>& row_labels,
                const std::vector<std::string>& column_labels,
                const std::vector<std::vector<double>>& cells,
                int precision = 4);

}  // namespace rdbsc::bench

#endif  // RDBSC_BENCH_HARNESS_H_
