#include "sim/incremental.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

#include "core/diversity.h"
#include "core/fingerprint.h"
#include "util/math.h"

namespace rdbsc::sim {

IncrementalAssigner::IncrementalAssigner(core::Solver* solver, double eta,
                                         core::ArrivalPolicy policy)
    : solver_(solver),
      policy_(policy),
      eta_(eta),
      index_(eta, /*now=*/0.0, policy) {}

util::Status IncrementalAssigner::AddTask(core::TaskId id,
                                          const core::Task& task) {
  if (tasks_.contains(id)) {
    return util::Status::AlreadyExists("task id already registered");
  }
  util::Status status = index_.InsertTask(id, task);
  if (!status.ok()) return status;
  tasks_.emplace(id, task);
  ledger_.emplace(id, LedgerEntry{task, {}});
  if (mode_ == MaintenanceMode::kDelta) {
    delta_.OnTaskArrived(index_, id, task);
  }
  return util::Status::OK();
}

util::Status IncrementalAssigner::RemoveTask(core::TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return util::Status::NotFound("task id not registered");
  }
  index_.RemoveTask(id).ok();
  if (mode_ == MaintenanceMode::kDelta) delta_.OnTaskRemoved(id);
  tasks_.erase(it);
  // Pending commitments to the vanished task are voided: the workers
  // become available again and their provisional contributions disappear.
  // Sorted so the grid index sees the re-inserts in a reproducible order.
  std::vector<core::WorkerId> voided;
  // LINT-ALLOW(unordered-iter): key collection only; sorted below
  for (const auto& [wid, record] : workers_) {
    if (record.committed == id && record.busy) voided.push_back(wid);
  }
  std::sort(voided.begin(), voided.end());
  for (core::WorkerId wid : voided) {
    WorkerRecord& record = workers_.at(wid);
    record.committed = core::kNoTask;
    record.busy = false;
    index_.InsertWorker(wid, record.worker).ok();
    if (mode_ == MaintenanceMode::kDelta) delta_.AddRow(wid).ok();
    auto& contributions = ledger_.at(id).contributions;
    std::erase_if(contributions, [wid](const auto& entry) {
      return entry.first == wid;
    });
  }
  return util::Status::OK();
}

util::Status IncrementalAssigner::AddWorker(core::WorkerId id,
                                            const core::Worker& worker) {
  if (workers_.contains(id)) {
    return util::Status::AlreadyExists("worker id already registered");
  }
  util::Status status = index_.InsertWorker(id, worker);
  if (!status.ok()) return status;
  if (mode_ == MaintenanceMode::kDelta) delta_.AddRow(id).ok();
  WorkerRecord record;
  record.worker = worker;
  workers_.emplace(id, record);
  return util::Status::OK();
}

util::Status IncrementalAssigner::RemoveWorker(core::WorkerId id) {
  auto it = workers_.find(id);
  if (it == workers_.end()) {
    return util::Status::NotFound("worker id not registered");
  }
  if (!it->second.busy) {
    index_.RemoveWorker(id).ok();
    if (mode_ == MaintenanceMode::kDelta) delta_.RemoveRow(id).ok();
  }
  if (it->second.committed != core::kNoTask && it->second.busy) {
    // The worker left mid-route: void the provisional contribution.
    auto ledger_it = ledger_.find(it->second.committed);
    if (ledger_it != ledger_.end()) {
      std::erase_if(ledger_it->second.contributions,
                    [id](const auto& entry) { return entry.first == id; });
    }
  }
  workers_.erase(it);
  return util::Status::OK();
}

util::Status IncrementalAssigner::CompleteWorker(core::WorkerId id,
                                                 geo::Point position) {
  auto it = workers_.find(id);
  if (it == workers_.end()) {
    return util::Status::NotFound("worker id not registered");
  }
  if (!it->second.busy) {
    return util::Status::FailedPrecondition("worker has no pending task");
  }
  it->second.busy = false;
  it->second.committed = core::kNoTask;
  it->second.worker.location = position;
  util::Status status = index_.InsertWorker(id, it->second.worker);
  if (status.ok() && mode_ == MaintenanceMode::kDelta) {
    delta_.AddRow(id).ok();
  }
  return status;
}

util::Status IncrementalAssigner::MoveWorker(core::WorkerId id,
                                             geo::Point to) {
  auto it = workers_.find(id);
  if (it == workers_.end()) {
    return util::Status::NotFound("worker id not registered");
  }
  if (it->second.busy) {
    return util::Status::FailedPrecondition(
        "committed worker cannot be moved");
  }
  util::Status status = index_.MoveWorker(id, to);
  if (!status.ok()) return status;
  it->second.worker.location = to;
  // Only this worker's candidate row changed; everything else keeps its
  // stability horizon.
  if (mode_ == MaintenanceMode::kDelta) delta_.MarkRowDirty(id).ok();
  return util::Status::OK();
}

util::Status IncrementalAssigner::ApplyEvents(const EventBatch& batch) {
  index_.set_now(std::max(batch.now, index_.now()));
  EventBatch events = batch;
  events.Canonicalize();
  for (const TaskExpired& event : events.expired) {
    if (util::Status s = RemoveTask(event.id); !s.ok()) return s;
  }
  for (const WorkerCompleted& event : events.completed) {
    if (util::Status s = CompleteWorker(event.id, event.position); !s.ok()) {
      return s;
    }
  }
  for (const TaskArrived& event : events.arrived) {
    if (util::Status s = AddTask(event.id, event.task); !s.ok()) return s;
  }
  for (const WorkerMoved& event : events.moved) {
    if (util::Status s = MoveWorker(event.id, event.to); !s.ok()) return s;
  }
  return util::Status::OK();
}

void IncrementalAssigner::set_maintenance_mode(MaintenanceMode mode) {
  if (mode == mode_) return;
  mode_ = mode;
  if (mode_ == MaintenanceMode::kDelta) {
    ResyncDelta();
  } else {
    delta_.Reset();
  }
}

void IncrementalAssigner::set_metrics(obs::Registry* metrics) {
  metrics_ = metrics;
  // Start the per-round diffs from here: work done before the sink was
  // attached is not retroactively reported.
  reported_delta_ = delta_.stats();
}

void IncrementalAssigner::ResyncDelta() {
  delta_.Reset();
  std::vector<core::WorkerId> available;
  // LINT-ALLOW(unordered-iter): key collection only; sorted below
  for (const auto& [wid, record] : workers_) {
    if (!record.busy) available.push_back(wid);
  }
  std::sort(available.begin(), available.end());
  // Rows are born dirty: the next Update recomputes them all, after
  // which delta maintenance is exact again.
  for (core::WorkerId wid : available) delta_.AddRow(wid).ok();
}

void IncrementalAssigner::ReportDeltaMetrics() {
  if (metrics_ == nullptr) return;
  const index::DeltaStats diff = delta_.stats() - reported_delta_;
  reported_delta_ = delta_.stats();
  metrics_->GetCounter("sim.delta.cells_touched")
      .Increment(diff.cells_touched);
  metrics_->GetCounter("sim.delta.edges_repaired")
      .Increment(diff.edges_repaired);
  metrics_->GetCounter("sim.delta.rows_recomputed")
      .Increment(diff.rows_recomputed);
  metrics_->GetCounter("sim.delta.rows_reused").Increment(diff.rows_reused);
  metrics_->GetCounter("sim.delta.compactions").Increment(diff.compactions);
  metrics_->GetCounter("sim.delta.bulk_refills").Increment(diff.bulk_refills);
}

util::StatusOr<std::vector<std::pair<core::TaskId, core::WorkerId>>>
IncrementalAssigner::Update(double now) {
  index_.set_now(std::max(now, index_.now()));

  // Drop expired tasks (Figure 10 keeps only the opening ones). Removal
  // order is observable through the index's patch counters, so sort.
  std::vector<core::TaskId> expired;
  // LINT-ALLOW(unordered-iter): key collection only; sorted below
  for (const auto& [tid, task] : tasks_) {
    if (task.end < now) expired.push_back(tid);
  }
  std::sort(expired.begin(), expired.end());
  for (core::TaskId tid : expired) RemoveTask(tid).ok();

  // Compact snapshot for the solver.
  std::vector<core::TaskId> task_ids;
  std::unordered_map<core::TaskId, core::TaskId> task_local;
  std::vector<core::Task> snapshot_tasks;
  // LINT-ALLOW(unordered-iter): key collection only; sorted below
  for (const auto& [tid, task] : tasks_) task_ids.push_back(tid);
  std::sort(task_ids.begin(), task_ids.end());
  for (core::TaskId tid : task_ids) {
    task_local[tid] = static_cast<core::TaskId>(snapshot_tasks.size());
    snapshot_tasks.push_back(tasks_.at(tid));
  }
  std::vector<core::WorkerId> worker_ids;
  std::unordered_map<core::WorkerId, core::WorkerId> worker_local;
  std::vector<core::Worker> snapshot_workers;
  // LINT-ALLOW(unordered-iter): key collection only; sorted below
  for (const auto& [wid, record] : workers_) {
    if (!record.busy) worker_ids.push_back(wid);
  }
  std::sort(worker_ids.begin(), worker_ids.end());
  for (core::WorkerId wid : worker_ids) {
    worker_local[wid] = static_cast<core::WorkerId>(snapshot_workers.size());
    snapshot_workers.push_back(workers_.at(wid).worker);
  }

  std::vector<std::pair<core::TaskId, core::WorkerId>> committed;
  if (snapshot_tasks.empty() || snapshot_workers.empty()) {
    ReportDeltaMetrics();
    return committed;
  }

  const size_t num_snapshot_workers = snapshot_workers.size();
  core::Instance snapshot(std::move(snapshot_tasks),
                          std::move(snapshot_workers), now, policy_);

  // Round reuse: the snapshot's content fingerprint (tasks, workers, now,
  // policy) fully determines the candidate edge set the index would
  // retrieve, so a round identical to the previous one replays the memoed
  // graph instead of paying RetrievePairs + FromEdges again.
  const util::Hash128 fingerprint = core::InstanceFingerprint(snapshot);
  ++round_stats_.rounds;
  std::shared_ptr<const core::CandidateGraph> graph;
  if (has_graph_memo_ && fingerprint == graph_memo_key_) {
    ++round_stats_.graph_reuses;
    graph = graph_memo_;
  } else {
    // Valid pairs among available workers and open tasks. kDelta repairs
    // only dirty / horizon-expired rows and materializes the maintained
    // edit structure; kRebuild pays the full index retrieval. A failed
    // repair would leave stale rows, so it fails the round before the
    // solver runs.
    std::vector<std::pair<core::WorkerId, core::TaskId>> pairs;
    if (mode_ == MaintenanceMode::kDelta) {
      if (util::Status repaired = delta_.RepairRows(index_); !repaired.ok()) {
        return repaired;
      }
      pairs = delta_.Pairs();
#ifndef NDEBUG
      // The tentpole contract, checked on every Debug round: the
      // delta-maintained edge set is bit-identical to a full rebuild.
      assert(pairs == index_.RetrievePairs().value() &&
             "delta-maintained pairs diverged from index rebuild");
#endif
    } else {
      pairs = index_.RetrievePairs().value();
    }
    std::vector<std::vector<core::TaskId>> edges(num_snapshot_workers);
    for (const auto& [wid, tid] : pairs) {
      auto w_it = worker_local.find(wid);
      auto t_it = task_local.find(tid);
      if (w_it != worker_local.end() && t_it != task_local.end()) {
        edges[w_it->second].push_back(t_it->second);
      }
    }
    graph = std::make_shared<const core::CandidateGraph>(
        core::CandidateGraph::FromEdges(snapshot, std::move(edges)));
    graph_memo_key_ = fingerprint;
    graph_memo_ = graph;
    has_graph_memo_ = true;
  }

  util::StatusOr<core::SolveResult> solved =
      solver_->Solve(snapshot, *graph);
  if (!solved.ok()) return solved.status();
  const core::SolveResult& solve = solved.value();

  for (size_t local = 0; local < worker_ids.size(); ++local) {
    core::TaskId local_task =
        solve.assignment.TaskOf(static_cast<core::WorkerId>(local));
    if (local_task == core::kNoTask) continue;
    core::WorkerId wid = worker_ids[local];
    core::TaskId tid = task_ids[local_task];
    WorkerRecord& record = workers_.at(wid);
    record.committed = tid;
    record.busy = true;
    record.observation = core::MakeObservation(
        tasks_.at(tid), record.worker, now, policy_);
    ledger_.at(tid).contributions.emplace_back(wid, record.observation);
    index_.RemoveWorker(wid).ok();
    if (mode_ == MaintenanceMode::kDelta) delta_.RemoveRow(wid).ok();
    committed.emplace_back(tid, wid);
  }
  ReportDeltaMetrics();
  return committed;
}

core::TaskId IncrementalAssigner::CommittedTask(core::WorkerId id) const {
  auto it = workers_.find(id);
  return it == workers_.end() ? core::kNoTask : it->second.committed;
}

core::ObjectiveValue IncrementalAssigner::Objectives() const {
  core::ObjectiveValue value;
  double min_r = std::numeric_limits<double>::infinity();
  bool any = false;
  // Float addition is non-associative, so accumulating total_std in the
  // hash map's bucket order would make the objective depend on insertion
  // history. Walk the ledger in sorted task-id order instead: the sum is
  // bit-identical for equal ledger contents however they were built.
  std::vector<core::TaskId> tids;
  tids.reserve(ledger_.size());
  // LINT-ALLOW(unordered-iter): key collection only; sorted below
  for (const auto& [tid, entry] : ledger_) tids.push_back(tid);
  std::sort(tids.begin(), tids.end());
  for (core::TaskId tid : tids) {
    const LedgerEntry& entry = ledger_.at(tid);
    if (entry.contributions.empty()) continue;
    any = true;
    double r = 0.0;
    std::vector<core::Observation> observations;
    observations.reserve(entry.contributions.size());
    for (const auto& [wid, obs] : entry.contributions) {
      r += util::ReliabilityWeight(obs.confidence);
      observations.push_back(obs);
    }
    min_r = std::min(min_r, r);
    value.total_std += core::ExpectedStd(entry.task, observations);
  }
  value.min_reliability = any ? util::ReducedToProbability(min_r) : 0.0;
  return value;
}

}  // namespace rdbsc::sim
