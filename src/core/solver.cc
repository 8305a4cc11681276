#include "core/solver.h"

namespace rdbsc::core {

util::StatusOr<SolveResult> Solver::Solve(const SolveRequest& request) {
  if (request.instance == nullptr || request.graph == nullptr) {
    return util::Status::InvalidArgument(
        "SolveRequest needs both an instance and a candidate graph");
  }
  if (request.graph->num_workers() != request.instance->num_workers() ||
      request.graph->num_tasks() != request.instance->num_tasks()) {
    return util::Status::InvalidArgument(
        "candidate graph shape does not match the instance");
  }
  const util::Deadline unlimited;
  return SolveImpl(*request.instance, *request.graph,
                   request.deadline != nullptr ? *request.deadline : unlimited,
                   util::OrSerial(request.executor), request.partial_stats);
}

util::StatusOr<SolveResult> Solver::Solve(const Instance& instance,
                                          const CandidateGraph& graph) {
  SolveRequest request;
  request.instance = &instance;
  request.graph = &graph;
  return Solve(request);
}

util::Status Solver::BudgetError(const util::Deadline& deadline,
                                 SolveStats stats,
                                 SolveStats* partial_stats) {
  stats.budget_exhausted = true;
  if (partial_stats != nullptr) *partial_stats = stats;
  util::Status status = deadline.Check();
  // The deadline can only have tripped for good (time is monotone and
  // tokens never un-cancel), but guard against a racy re-read anyway.
  if (status.ok()) {
    status = util::Status::DeadlineExceeded("wall-clock budget exhausted");
  }
  return status;
}

}  // namespace rdbsc::core
