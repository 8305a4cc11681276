// Shared machinery of the repository benchmark: clocks, exact per-op
// samples, the span tracer, output checks, result digests and the
// forwarding solver that times solves inside sim::Platform and
// sim::IncrementalAssigner.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "core/solver.h"
#include "obs/registry.h"
#include "util/hash.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and short passes: the self-test of every workload.
  bool smoke = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_dir;
};

/// Nearest-rank percentile of exact samples (q in [0, 1]).
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// Aborts the run: prints `what` to stderr and exits non-zero without a
/// result line.
[[noreturn]] void Fail(const std::string& what);
inline void Require(const rdbsc::util::Status& status,
                    const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

/// One span recorded by the benchmark around a call into a layer.
struct Span {
  const char* name = "";
  int64_t op = -1;
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder; a disabled tracer records nothing. Spans nest
/// through a stack, so the parent of a span is the innermost open one.
/// Single-threaded.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(const char* name, int64_t op);
  void End(int id);

  /// Sum of the durations of the spans named `name`.
  double Total(std::string_view name) const;
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as JSON lines to `path`, times relative to `epoch`.
  void Write(const std::string& path, Clock::time_point epoch) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int64_t op)
      : tracer_(tracer), id_(tracer.Begin(name, op)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Output checks of one solve: every worker holds at most one task that
/// exists, every assigned pair is an edge of the brute-force
/// CandidateGraph::Build of the instance, and the reported objectives
/// equal the ones recomputed from the assignment. Returns the number of
/// brute-force edges.
int64_t CheckSolve(const rdbsc::core::Instance& instance,
                const rdbsc::core::Assignment& assignment,
                const rdbsc::core::ObjectiveValue& objectives,
                const std::string& where);

/// One digest over a sequence of digests, in order.
rdbsc::util::Hash128 CombineDigests(
    const std::vector<rdbsc::util::Hash128>& digests);

/// Folds an assignment and its objective bits into `hasher`.
void MixResult(rdbsc::util::Hasher& hasher,
               const rdbsc::core::Assignment& assignment,
               const rdbsc::core::ObjectiveValue& objectives);

/// Sum of a histogram (exact: integer nanoseconds) across the label sets
/// of `name` that carry `label_value` (all when empty).
double HistogramSum(const rdbsc::obs::RegistrySnapshot& snapshot,
                    std::string_view name,
                    std::string_view label_value = {});
inline double HistogramSum(const rdbsc::obs::Registry& registry,
                           std::string_view name,
                           std::string_view label_value = {}) {
  return HistogramSum(registry.Snapshot(), name, label_value);
}

/// Peak resident set of this process in MB.
double PeakRssMb();

/// What the forwarding solver observes; workloads point `g_probe` at one.
struct SolveProbe {
  Tracer* tracer = nullptr;
  int64_t op = -1;
  /// When set, receives the time each solve returned.
  std::vector<Clock::time_point>* solve_ends = nullptr;
  /// When set, every solve is checked (CheckSolve) right after it returns.
  /// Only the untimed verification cycle turns this on.
  bool check = false;
  rdbsc::util::Hasher digest;
  int64_t calls = 0;
  int64_t exact_std_evals = 0;
  int64_t pruned_pairs = 0;
  int64_t sample_size = 0;
  int64_t edges = 0;
};
extern SolveProbe* g_probe;

/// Registers "perfbench.<name>" for each given registry solver: a solver
/// that forwards to the real one and reports to g_probe. Idempotent.
void RegisterProbedSolvers();

/// Paper objectives over a fixed, speed-independent set of results.
struct Quality {
  double min_reliability = 0.0;
  double total_std = 0.0;
};

/// Per-layer numbers of one traced pass. `wall_s` is what the layers and
/// the unattributed remainder add up to.
struct LayerReport {
  double wall_s = 0.0;
  std::vector<std::pair<std::string, double>> self_s;  // layer -> seconds
  /// Per-layer metrics of the BENCHMARK.json per_layer list.
  std::map<std::string, double> metrics;
  /// Extra lines for the human-readable report.
  std::vector<std::string> notes;
};

/// The result of one measured pass.
struct Pass {
  std::vector<double> latency_ms;  // exact per-op samples, fastest of repeats
  double throughput = 0.0;         // ops (rounds / requests) per second
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  rdbsc::util::Hash128 digest;
  /// Paper objectives, means over the workload's fixed set of results.
  Quality quality;
  LayerReport layers;
};

/// A benchmark workload. SetUp builds inputs and program objects and runs
/// one warm-up op; it is repeated and the median reported as setup_s.
/// Verify runs the fixed verification set untimed with every output check
/// on. Measure runs one pass of at least `seconds`.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void SetUp() = 0;
  virtual void Verify() = 0;
  virtual Pass Measure(double seconds, Tracer& tracer) = 0;
};

/// Timed outcome of one op: its duration and the units it completed
/// (rounds or requests).
struct OpTime {
  double seconds = 0.0;
  double units = 1.0;
  /// Latency samples of the units, when they are timed one by one;
  /// empty means one sample, `seconds`.
  std::vector<double> samples_ms;
};

/// Runs whole cycles of `cycle` ops until at least `seconds` have passed,
/// so every pass measures the same op mix. `op(k, id)` runs op k of the
/// cycle and times only the program call; preparation and checks around
/// it stay outside the sample. Every cycle repeats the same work, so each
/// op, and each latency sample within it, is kept as its fastest
/// repetition: noise on a shared host only ever slows an op down, and it
/// comes in episodes of seconds to minutes that a median over one pass
/// does not remove, while the minimum over repetitions repeats from run to
/// run. Throughput is the units of one cycle over the sum of its ops'
/// fastest times.
template <class OpFn>
Pass RunCycles(double seconds, int cycle, OpFn op) {
  Pass pass;
  const size_t ops = static_cast<size_t>(cycle);
  std::vector<double> best_s(ops, 0.0);
  std::vector<std::vector<double>> best_ms(ops);
  double cycle_units = 0.0;
  const Clock::time_point start = Clock::now();
  for (bool first = true;; first = false) {
    cycle_units = 0.0;
    for (size_t k = 0; k < ops; ++k) {
      OpTime t = op(static_cast<int>(k), pass.attempted);
      ++pass.attempted;
      cycle_units += t.units;
      if (t.samples_ms.empty()) t.samples_ms.push_back(1e3 * t.seconds);
      if (first) {
        best_s[k] = t.seconds;
        best_ms[k] = std::move(t.samples_ms);
        continue;
      }
      if (t.samples_ms.size() != best_ms[k].size()) {
        Fail("op " + std::to_string(k) + " of the cycle changed its number "
             "of latency samples between repetitions");
      }
      best_s[k] = std::min(best_s[k], t.seconds);
      for (size_t i = 0; i < t.samples_ms.size(); ++i) {
        best_ms[k][i] = std::min(best_ms[k][i], t.samples_ms[i]);
      }
    }
    if (Seconds(start, Clock::now()) >= seconds) break;
  }
  pass.wall_s = Seconds(start, Clock::now());
  double cycle_s = 0.0;
  for (size_t k = 0; k < ops; ++k) {
    cycle_s += best_s[k];
    pass.latency_ms.insert(pass.latency_ms.end(), best_ms[k].begin(),
                           best_ms[k].end());
  }
  pass.throughput = cycle_units / cycle_s;
  return pass;
}

std::unique_ptr<Workload> MakeCampus(const Options& options);
std::unique_ptr<Workload> MakeCity(const Options& options);
std::unique_ptr<Workload> MakeStream(const Options& options);

/// Mixes a 64-bit seed with a stream index into a fresh seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return rdbsc::util::HashCombine(rdbsc::util::SplitMix64(seed), stream);
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
