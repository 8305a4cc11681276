// The repository benchmark program: one workload per process.
//
//   perfbench --workload campus|city|stream --seed N --seconds S
//             --trace 0|1 [--smoke] [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits --seconds
// between an untraced and a traced pass, checks that both produce the same
// assignment digest, and prints the per-layer metrics. The last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}. Any
// failed output check exits non-zero without that line.
#include <sched.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  const char* unit;
  const char* better;
  double value;
};

/// Layers whose self time the traced run reports, in table order; their
/// per-layer metrics are "<layer>.share" (self time over the pass wall).
constexpr const char* kLayers[] = {
    "core.solve",      "core.graph",      "index.cost_model",
    "sim.maintain",    "sim.events",      "sim.platform",
    "engine.validate", "engine.other",    "harness"};

/// Work counters (per op; "*_share" ones are ratios) of the traced run;
/// 0 where a workload bypasses the layer.
constexpr const char* kCounters[] = {
    "core.solve_calls",
    "core.exact_std_evals",
    "core.pruned_pairs",
    "core.sample_size",
    "core.edges",
    "engine.grid_share",
    "index.delta.rows_recomputed",
    "index.delta.rows_reused",
    "index.delta.bulk_refills",
    "index.delta.bulk_share",
    "index.delta.edges_repaired",
    "index.delta.cells_touched",
    "index.delta.compactions",
    "sim.graph_reuses",
    "sim.rounds",
    "sim.assignments",
    "sim.answers"};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload campus|city|stream "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--trace-dir DIR]\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = next();
      have_workload = true;
    } else if (arg == "--seed") {
      const std::string v = next();
      options.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage();
    } else if (arg == "--seconds") {
      const std::string v = next();
      options.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(options.seconds > 0)) Usage();
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") Usage();
      options.trace = v == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--trace-dir") {
      options.trace_dir = next();
    } else {
      Usage();
    }
  }
  if (!have_workload) Usage();
  return options;
}

std::unique_ptr<Workload> Make(const Options& options) {
  if (options.workload == "campus") return MakeCampus(options);
  if (options.workload == "city") return MakeCity(options);
  if (options.workload == "stream") return MakeStream(options);
  Usage();
}

void PrintMeta(const Options& options) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  __builtin_cpu_init();
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"smoke\": %d, \"nproc\": %ld, "
      "\"affinity_cpus\": %d, \"hardware_concurrency\": %u, \"avx2\": %d, "
      "\"fma\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      options.workload.c_str(), options.seed, options.seconds,
      options.trace ? 1 : 0, options.smoke ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), affinity,
      std::thread::hardware_concurrency(),
      __builtin_cpu_supports("avx2") ? 1 : 0,
      __builtin_cpu_supports("fma") ? 1 : 0, PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE);
}

void PrintTable(const std::vector<Metric>& metrics) {
  std::printf("%-30s %16s  %-6s %s\n", "metric", "value", "unit", "better");
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.6f  %-6s %s\n", m.name.c_str(), m.value, m.unit,
                m.better);
  }
}

void PrintResult(const std::vector<Metric>& metrics, int64_t attempted,
                 int64_t failed) {
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char buf[160];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": "
                  "\"%s\"}", i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  const Options options = Parse(argc, argv);
  std::unique_ptr<Workload> workload = Make(options);
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d%s\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0, options.smoke ? " smoke" : "");
  PrintMeta(options);

  // Set-up: inputs, program objects and warm-up ops, repeated so the
  // reported figure is a median rather than one cold sample.
  std::vector<double> setups;
  const int setup_runs = options.smoke ? 1 : 9;
  for (int r = 0; r < setup_runs; ++r) {
    const Clock::time_point t0 = Clock::now();
    workload->SetUp();
    setups.push_back(Seconds(t0, Clock::now()));
  }
  workload->Verify();

  // A traced run spends half its time in each pass, so that it takes no
  // longer than an untraced one.
  const double pass_seconds =
      options.trace ? options.seconds / 2.0 : options.seconds;
  Tracer off(false);
  const Pass pass = workload->Measure(pass_seconds, off);
  const double rss = PeakRssMb();
  const double fail_share =
      double(pass.failed) / double(std::max<int64_t>(pass.attempted, 1));
  std::printf("digest %s\n", pass.digest.ToHex().c_str());
  std::printf("ops %" PRId64 " failed %" PRId64 " fail_share %.6f "
              "(lower is better)\n",
              pass.attempted, pass.failed, fail_share);

  if (!options.trace) {
    if (pass.latency_ms.size() < 40) {
      std::printf("note: %zu samples; p75 has fewer than 10 beyond it\n",
                  pass.latency_ms.size());
    }
    const std::vector<Metric> metrics = {
        {"throughput", "1/s", "higher", pass.throughput},
        {"latency_ms_p50", "ms", "lower", Percentile(pass.latency_ms, 0.5)},
        {"latency_ms_p75", "ms", "lower", Percentile(pass.latency_ms, 0.75)},
        {"setup_s", "s", "lower", Median(setups)},
        {"peak_rss_mb", "MB", "lower", rss},
        {"min_reliability", "prob", "higher", pass.quality.min_reliability},
        {"total_std", "std", "higher", pass.quality.total_std},
    };
    PrintTable(metrics);
    PrintResult(metrics, pass.attempted, pass.failed);
    return 0;
  }

  Tracer tracer(true);
  const Clock::time_point epoch = Clock::now();
  const Pass traced = workload->Measure(pass_seconds, tracer);
  if (traced.digest != pass.digest) {
    Fail("traced digest " + traced.digest.ToHex() +
         " != untraced digest " + pass.digest.ToHex());
  }
  if (!options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".jsonl";
    tracer.Write(path, epoch);
    std::printf("spans %zu written to %s\n", tracer.spans().size(),
                path.c_str());
  }

  const LayerReport& report = traced.layers;
  const double wall = report.wall_s;
  double attributed = 0.0;
  std::vector<Metric> metrics;
  std::printf("%-18s %12s %8s\n", "layer", "self_s", "share");
  for (const char* layer : kLayers) {
    double self = 0.0;
    for (const auto& [name, seconds] : report.self_s) {
      if (name == layer) self += seconds;
    }
    attributed += self;
    if (self != 0.0) {
      std::printf("%-18s %12.6f %8.4f\n", layer, self, self / wall);
    }
    metrics.push_back({std::string(layer) + ".share", "share", "",
                       self / wall});
  }
  for (const auto& [name, seconds] : report.self_s) {
    bool known = false;
    for (const char* layer : kLayers) known |= name == layer;
    if (!known) Fail("layer " + name + " missing from the layer list");
  }
  const double unattributed = wall - attributed;
  std::printf("%-18s %12.6f %8.4f\n%-18s %12.6f %8.4f\n", "unattributed",
              unattributed, unattributed / wall, "wall", wall, 1.0);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  const double overhead =
      (traced.wall_s / double(traced.attempted)) /
          (pass.wall_s / double(pass.attempted)) -
      1.0;
  double solve_s = 0.0;
  for (const auto& [name, seconds] : report.self_s) {
    if (name == "core.solve") solve_s += seconds;
  }
  metrics.push_back({"unattributed.share", "share", "", unattributed / wall});
  metrics.push_back({"trace.wall_s", "s", "", wall});
  metrics.push_back({"core.solve_s", "s", "", solve_s});
  metrics.push_back({"trace.overhead_share", "share", "", overhead});
  for (const std::string counter : kCounters) {
    auto it = report.metrics.find(counter);
    const bool share = counter.ends_with("_share");
    metrics.push_back({counter, share ? "share" : "count", "",
                       it == report.metrics.end() ? 0.0 : it->second});
  }
  for (const auto& [name, value] : report.metrics) {
    bool known = false;
    for (const char* counter : kCounters) known |= name == counter;
    if (!known) Fail("counter " + name + " missing from the counter list");
  }
  PrintTable(metrics);
  PrintResult(metrics, traced.attempted, traced.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
