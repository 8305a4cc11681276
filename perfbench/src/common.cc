#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "core/registry.h"

namespace perfbench {

namespace core = rdbsc::core;
namespace util = rdbsc::util;

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(samples.size()))) - 1;
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void Fail(const std::string& what) {
  std::cout.flush();
  std::cerr << "perfbench: FAILED: " << what << std::endl;
  std::_Exit(1);
}

int Tracer::Begin(const char* name, int64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Clock::now();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Clock::now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::Total(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += Seconds(s.start, s.end);
  }
  return total;
}

void Tracer::Write(const std::string& path, Clock::time_point epoch) const {
  std::ofstream out(path);
  if (!out) Fail("cannot write trace file " + path);
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"op\":%lld,\"parent\":%d,"
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  i, s.name, static_cast<long long>(s.op), s.parent,
                  1e6 * Seconds(epoch, s.start), 1e6 * Seconds(epoch, s.end));
    out << line;
  }
}

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

int64_t CheckSolve(const core::Instance& instance,
                const core::Assignment& assignment,
                const core::ObjectiveValue& objectives,
                const std::string& where) {
  if (assignment.num_workers() != instance.num_workers()) {
    Fail(where + ": assignment covers " +
         std::to_string(assignment.num_workers()) + " workers, instance has " +
         std::to_string(instance.num_workers()));
  }
  const core::CandidateGraph brute = core::CandidateGraph::Build(instance);
  for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
    const core::TaskId i = assignment.TaskOf(j);
    if (i == core::kNoTask) continue;
    if (i < 0 || i >= instance.num_tasks()) {
      Fail(where + ": worker " + std::to_string(j) + " holds task " +
           std::to_string(i) + " outside the instance");
    }
    const auto row = brute.TasksOf(j);
    if (!std::binary_search(row.begin(), row.end(), i)) {
      Fail(where + ": pair (task " + std::to_string(i) + ", worker " +
           std::to_string(j) + ") is not a brute-force candidate edge");
    }
  }
  const core::ObjectiveValue recomputed =
      core::EvaluateAssignment(instance, assignment);
  if (!Close(recomputed.min_reliability, objectives.min_reliability) ||
      !Close(recomputed.total_std, objectives.total_std)) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  ": reported objectives (%.17g, %.17g) != recomputed "
                  "(%.17g, %.17g)",
                  objectives.min_reliability, objectives.total_std,
                  recomputed.min_reliability, recomputed.total_std);
    Fail(where + buf);
  }
  return brute.NumEdges();
}

util::Hash128 CombineDigests(const std::vector<util::Hash128>& digests) {
  util::Hasher hasher;
  for (const util::Hash128& d : digests) hasher.Mix(d.hi).Mix(d.lo);
  return hasher.Digest();
}

void MixResult(util::Hasher& hasher, const core::Assignment& assignment,
               const core::ObjectiveValue& objectives) {
  hasher.Mix(assignment.num_workers());
  for (core::WorkerId j = 0; j < assignment.num_workers(); ++j) {
    hasher.Mix(assignment.TaskOf(j));
  }
  hasher.Mix(objectives.min_reliability).Mix(objectives.total_std);
}

double HistogramSum(const rdbsc::obs::RegistrySnapshot& snapshot,
                    std::string_view name, std::string_view label_value) {
  double total = 0.0;
  for (const auto& m : snapshot.metrics) {
    if (m.kind != rdbsc::obs::MetricSnapshot::Kind::kHistogram ||
        m.name != name) {
      continue;
    }
    bool match = label_value.empty();
    for (const auto& [key, value] : m.labels) {
      if (value == label_value) match = true;
    }
    if (match) total += m.histogram.sum();
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

SolveProbe* g_probe = nullptr;

namespace {

/// Forwards to a registry-created solver; times the call as a
/// "core.solve" span, counts its work and folds its result into the
/// probe's digest. Purely observational: the result is the inner one.
class ProbedSolver : public core::Solver {
 public:
  explicit ProbedSolver(std::unique_ptr<core::Solver> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }

 protected:
  util::StatusOr<core::SolveResult> SolveImpl(
      const core::Instance& instance, const core::CandidateGraph& graph,
      const util::Deadline& deadline, util::Executor& executor,
      core::SolveStats* partial_stats) override {
    core::SolveRequest request;
    request.instance = &instance;
    request.graph = &graph;
    request.deadline = &deadline;
    request.partial_stats = partial_stats;
    request.executor = &executor;
    SolveProbe* probe = g_probe;
    if (probe == nullptr) return inner_->Solve(request);
    int span = probe->tracer != nullptr
                   ? probe->tracer->Begin("core.solve", probe->op)
                   : -1;
    util::StatusOr<core::SolveResult> result = inner_->Solve(request);
    if (probe->tracer != nullptr) probe->tracer->End(span);
    if (probe->solve_ends != nullptr) probe->solve_ends->push_back(Clock::now());
    if (!result.ok()) return result;
    const core::SolveResult& r = result.value();
    ++probe->calls;
    probe->exact_std_evals += r.stats.exact_std_evals;
    probe->pruned_pairs += r.stats.pruned_pairs;
    probe->sample_size += r.stats.sample_size;
    probe->edges += graph.NumEdges();
    MixResult(probe->digest, r.assignment, r.objectives);
    if (probe->check) {
      CheckSolve(instance, r.assignment, r.objectives,
                 "solve " + std::to_string(probe->calls) + " of op " +
                     std::to_string(probe->op));
    }
    return result;
  }

 private:
  std::unique_ptr<core::Solver> inner_;
};

}  // namespace

void RegisterProbedSolvers() {
  core::SolverRegistry& registry = core::SolverRegistry::Global();
  for (const char* base : {"greedy", "dc"}) {
    const std::string name = std::string("perfbench.") + base;
    if (registry.Contains(name)) continue;
    Require(registry.Register(
                name,
                [base](const core::SolverOptions& options)
                    -> std::unique_ptr<core::Solver> {
                  auto inner =
                      core::SolverRegistry::Global().Create(base, options);
                  if (!inner.ok()) return nullptr;
                  return std::make_unique<ProbedSolver>(
                      std::move(inner).value());
                }),
            "register " + name);
  }
}

}  // namespace perfbench
