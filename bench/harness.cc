#include "bench/harness.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "engine/solve_cache.h"
#include "obs/json.h"

namespace rdbsc::bench {
namespace {

constexpr int kPaperBase = 10'000;

}  // namespace

BenchOptions ParseOptions(int argc, char** argv) {
  BenchOptions options;
  for (int a = 1; a < argc; ++a) {
    const char* arg = argv[a];
    if (std::strcmp(arg, "--paper-scale") == 0) {
      options.paper_scale = true;
      options.base = kPaperBase;
    } else if (std::strncmp(arg, "--base=", 7) == 0) {
      options.base = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--seeds=", 8) == 0) {
      options.num_seeds = std::atoi(arg + 8);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      // Validate instead of silently accepting 0/negative/garbage: a
      // mistyped flag would otherwise masquerade as a serial measurement.
      char* end = nullptr;
      long threads = std::strtol(arg + 10, &end, 10);
      if (end == arg + 10 || *end != '\0' || threads < 0) {
        std::fprintf(stderr,
                     "warning: invalid %s (want --threads=N with N >= 0); "
                     "running serial\n",
                     arg);
        threads = 0;
      }
      options.num_threads = static_cast<int>(threads);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      options.out_path = arg + 6;
      if (options.out_path.empty()) {
        std::fprintf(stderr,
                     "warning: empty --out= path; no JSON will be "
                     "written\n");
      }
    }
  }
  if (options.base < 10) options.base = 10;
  if (options.num_seeds < 1) options.num_seeds = 1;
  return options;
}

int EffectiveThreads(const BenchOptions& options) {
  // Engine/ThreadPool only spawn a pool for N > 1; 0 and 1 are both the
  // serial path. Report what will actually run.
  return options.num_threads > 1 ? options.num_threads : 0;
}

int Scaled(const BenchOptions& options, int paper_count) {
  if (options.paper_scale) return paper_count;
  int64_t scaled = static_cast<int64_t>(paper_count) * options.base /
                   kPaperBase;
  return static_cast<int>(std::max<int64_t>(scaled, 10));
}

const std::vector<std::string>& ApproachNames() {
  static const std::vector<std::string> names(
      std::begin(core::kSection81Approaches),
      std::end(core::kSection81Approaches));
  return names;
}

std::vector<Engine> MakeEngines(uint64_t seed, int num_threads,
                                obs::Registry* metrics) {
  std::vector<Engine> engines;
  engines.reserve(ApproachNames().size());
  for (const std::string& name : ApproachNames()) {
    EngineConfig config;
    config.solver_name = name;
    config.solver_options.seed = seed;
    config.num_threads = num_threads;
    config.metrics = metrics;
    // Generated instances are valid by construction, so skip the O(m+n)
    // re-validation per approach.
    config.validate_instances = false;
    engines.push_back(Engine::Create(std::move(config)).value());
  }
  return engines;
}

std::vector<EngineResult> RunOnSharedGraph(const std::vector<Engine>& engines,
                                           const core::Instance& instance) {
  engine::SolveCacheConfig cache_config;
  cache_config.result_capacity = 0;
  engine::SolveCache cache(cache_config);
  RunControls controls;
  controls.cache = &cache;
  std::vector<EngineResult> results;
  results.reserve(engines.size());
  for (const Engine& engine : engines) {
    results.push_back(engine.Run(instance, controls).value());
  }
  return results;
}

void PrintTable(const std::string& metric, const std::string& x_label,
                const std::vector<std::string>& row_labels,
                const std::vector<std::string>& column_labels,
                const std::vector<std::vector<double>>& cells,
                int precision) {
  std::printf("\n-- %s --\n", metric.c_str());
  std::printf("%-16s", x_label.c_str());
  for (const std::string& col : column_labels) {
    std::printf("%12s", col.c_str());
  }
  std::printf("\n");
  for (size_t r = 0; r < row_labels.size(); ++r) {
    std::printf("%-16s", row_labels[r].c_str());
    for (double v : cells[r]) {
      std::printf("%12.*f", precision, v);
    }
    std::printf("\n");
  }
}

BenchReport::BenchReport(std::string bench_name, BenchOptions options)
    : name_(std::move(bench_name)), options_(std::move(options)) {}

void BenchReport::AddTable(std::string metric, std::string x_label,
                           std::vector<std::string> row_labels,
                           std::vector<std::string> column_labels,
                           std::vector<std::vector<double>> cells) {
  tables_.push_back(Table{std::move(metric), std::move(x_label),
                          std::move(row_labels), std::move(column_labels),
                          std::move(cells)});
}

void BenchReport::AddMetrics(const obs::RegistrySnapshot& snapshot,
                             const obs::Labels& extra_labels) {
  for (const obs::MetricSnapshot& metric : snapshot.metrics) {
    obs::MetricSnapshot copy = metric;
    copy.labels.insert(copy.labels.end(), extra_labels.begin(),
                       extra_labels.end());
    imported_.push_back(std::move(copy));
  }
}

std::string BenchReport::Json() const {
  std::string out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Key("schema");
  w.String(obs::kResultsSchemaName);
  w.Key("schema_version");
  w.Int(obs::kResultsSchemaVersion);
  w.Key("bench");
  w.String(name_);
  w.Key("options");
  w.BeginObject();
  w.Key("base");
  w.Int(options_.base);
  w.Key("seeds");
  w.Int(options_.num_seeds);
  w.Key("paper_scale");
  w.Bool(options_.paper_scale);
  w.Key("threads");
  w.Int(options_.num_threads);
  w.EndObject();
  w.Key("tables");
  w.BeginArray();
  for (const Table& table : tables_) {
    w.BeginObject();
    w.Key("metric");
    w.String(table.metric);
    w.Key("x_label");
    w.String(table.x_label);
    w.Key("rows");
    w.BeginArray();
    for (const std::string& row : table.rows) w.String(row);
    w.EndArray();
    w.Key("columns");
    w.BeginArray();
    for (const std::string& column : table.columns) w.String(column);
    w.EndArray();
    w.Key("cells");
    w.BeginArray();
    for (const std::vector<double>& row : table.cells) {
      w.BeginArray();
      for (double value : row) w.Double(value);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  // The report-owned registry first (deterministically sorted), then the
  // imports in AddMetrics call order.
  w.Key("metrics");
  w.BeginArray();
  const obs::RegistrySnapshot own = registry_.Snapshot();
  for (const obs::MetricSnapshot& metric : own.metrics) {
    obs::AppendMetric(w, metric);
  }
  for (const obs::MetricSnapshot& metric : imported_) {
    obs::AppendMetric(w, metric);
  }
  w.EndArray();
  w.EndObject();
  return out;
}

void BenchReport::Write() const {
  if (options_.out_path.empty()) return;
  const std::string doc = Json();
  std::FILE* file = std::fopen(options_.out_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "warning: cannot write --out=%s: %s\n",
                 options_.out_path.c_str(), std::strerror(errno));
    return;
  }
  const size_t written = std::fwrite(doc.data(), 1, doc.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != doc.size() || !closed) {
    std::fprintf(stderr, "warning: short write to --out=%s\n",
                 options_.out_path.c_str());
    return;
  }
  std::printf("wrote %s (%zu bytes)\n", options_.out_path.c_str(),
              doc.size());
}

std::vector<std::vector<PointResult>> RunQualitySweep(
    const std::string& figure_title, const std::string& x_label,
    const std::vector<SweepPoint>& points, const BenchOptions& options,
    BenchReport* report) {
  std::printf("== %s ==\n", figure_title.c_str());
  const int threads = EffectiveThreads(options);
  std::printf("scale: base=%d (paper 10K)%s, seeds=%d, threads=%d%s\n",
              options.base, options.paper_scale ? " [paper scale]" : "",
              options.num_seeds, threads, threads == 0 ? " (serial)" : "");

  std::vector<std::string> solver_names;
  for (const Engine& engine : MakeEngines(0)) {
    solver_names.emplace_back(engine.solver_display_name());
  }
  const size_t num_solvers = solver_names.size();

  std::vector<std::vector<PointResult>> results(points.size());
  for (size_t p = 0; p < points.size(); ++p) {
    results[p].resize(num_solvers);
    for (size_t s = 0; s < num_solvers; ++s) {
      results[p][s].solver = solver_names[s];
    }
    for (int seed_index = 0; seed_index < options.num_seeds; ++seed_index) {
      uint64_t seed = options.seed0 + 17 * seed_index;
      core::Instance instance = points[p].make(seed);
      std::vector<Engine> engines =
          MakeEngines(seed, options.num_threads,
                      report != nullptr ? &report->metrics() : nullptr);
      // One graph per instance, shared by all four approaches.
      const std::vector<EngineResult> runs =
          RunOnSharedGraph(engines, instance);
      for (size_t s = 0; s < num_solvers; ++s) {
        const core::SolveResult& solve = runs[s].solve;
        results[p][s].min_reliability += solve.objectives.min_reliability;
        results[p][s].total_std += solve.objectives.total_std;
        results[p][s].wall_seconds += solve.stats.wall_seconds;
      }
    }
    for (size_t s = 0; s < num_solvers; ++s) {
      results[p][s].min_reliability /= options.num_seeds;
      results[p][s].total_std /= options.num_seeds;
      results[p][s].wall_seconds /= options.num_seeds;
    }
  }

  std::vector<std::string> row_labels;
  for (const SweepPoint& point : points) row_labels.push_back(point.label);

  auto cells_of = [&](auto getter) {
    std::vector<std::vector<double>> cells(points.size());
    for (size_t p = 0; p < points.size(); ++p) {
      for (size_t s = 0; s < num_solvers; ++s) {
        cells[p].push_back(getter(results[p][s]));
      }
    }
    return cells;
  };

  const auto reliability_cells =
      cells_of([](const PointResult& r) { return r.min_reliability; });
  const auto std_cells =
      cells_of([](const PointResult& r) { return r.total_std; });
  const auto time_cells =
      cells_of([](const PointResult& r) { return r.wall_seconds; });
  PrintTable("Minimum Reliability", x_label, row_labels, solver_names,
             reliability_cells);
  PrintTable("total_STD", x_label, row_labels, solver_names, std_cells, 2);
  PrintTable("CPU time (s)", x_label, row_labels, solver_names, time_cells);
  std::printf("\n");
  if (report != nullptr) {
    report->AddTable("Minimum Reliability", x_label, row_labels,
                     solver_names, reliability_cells);
    report->AddTable("total_STD", x_label, row_labels, solver_names,
                     std_cells);
    report->AddTable("CPU time (s)", x_label, row_labels, solver_names,
                     time_cells);
  }
  return results;
}

}  // namespace rdbsc::bench
