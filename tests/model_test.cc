#include "core/model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>

#include "core/instance.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace rdbsc::core {
namespace {

constexpr double kPi = std::numbers::pi;

Worker MakeWorker(geo::Point loc, double v, geo::AngularInterval dir,
                  double p = 0.9) {
  Worker w;
  w.location = loc;
  w.velocity = v;
  w.direction = dir;
  w.confidence = p;
  return w;
}

TEST(ModelTest, TravelTimeStraightLine) {
  Worker w = MakeWorker({0, 0}, 0.5, geo::AngularInterval::FullCircle());
  EXPECT_DOUBLE_EQ(TravelTime(w, {0.3, 0.4}), 1.0);
  EXPECT_DOUBLE_EQ(TravelTime(w, {0, 0}), 0.0);
}

TEST(ModelTest, NonPositiveVelocityNeverArrives) {
  Worker w = MakeWorker({0, 0}, 0.0, geo::AngularInterval::FullCircle());
  EXPECT_TRUE(std::isinf(TravelTime(w, {0.1, 0.1})));
}

TEST(ModelTest, ArrivalPolicyStrictVsWait) {
  Worker w = MakeWorker({0, 0}, 1.0, geo::AngularInterval::FullCircle());
  Task t = test::MakeTask(0.5, /*start=*/2.0, /*end=*/3.0);
  t.location = {0.5, 0.0};  // 0.5 h away
  // Strict: arrival at 0.5 is before the period opens.
  EXPECT_DOUBLE_EQ(ArrivalTime(w, t, 0.0, ArrivalPolicy::kStrict), 0.5);
  EXPECT_FALSE(IsValidPair(t, w, 0.0, ArrivalPolicy::kStrict));
  // Waiting: the worker idles at the site until the period opens.
  EXPECT_DOUBLE_EQ(ArrivalTime(w, t, 0.0, ArrivalPolicy::kAllowWait), 2.0);
  EXPECT_TRUE(IsValidPair(t, w, 0.0, ArrivalPolicy::kAllowWait));
}

TEST(ModelTest, ValidityRequiresArrivalInsidePeriod) {
  Worker w = MakeWorker({0, 0}, 1.0, geo::AngularInterval::FullCircle());
  Task t = test::MakeTask(0.5, 0.0, 1.0);
  t.location = {0.5, 0.0};
  EXPECT_TRUE(IsValidPair(t, w, 0.0, ArrivalPolicy::kStrict));
  // Departing too late misses the deadline.
  EXPECT_FALSE(IsValidPair(t, w, 0.8, ArrivalPolicy::kStrict));
  // Waiting cannot help a missed deadline either.
  EXPECT_FALSE(IsValidPair(t, w, 0.8, ArrivalPolicy::kAllowWait));
}

TEST(ModelTest, CheckInDelaysDeparture) {
  Worker w = MakeWorker({0, 0}, 1.0, geo::AngularInterval::FullCircle());
  w.available_from = 2.0;  // checks in at hour 2
  Task t = test::MakeTask(0.5, 0.0, 1.0);
  t.location = {0.5, 0.0};
  // Departing at the check-in, the worker arrives at 2.5 -- after the
  // deadline -- even though now = 0.
  EXPECT_DOUBLE_EQ(ArrivalTime(w, t, 0.0, ArrivalPolicy::kStrict), 2.5);
  EXPECT_FALSE(IsValidPair(t, w, 0.0, ArrivalPolicy::kStrict));
  // A later task window fits.
  Task late = test::MakeTask(0.5, 2.0, 3.0);
  late.location = {0.5, 0.0};
  EXPECT_TRUE(IsValidPair(late, w, 0.0, ArrivalPolicy::kStrict));
  // `now` past the check-in dominates it.
  EXPECT_DOUBLE_EQ(ArrivalTime(w, late, 4.0, ArrivalPolicy::kStrict), 4.5);
}

TEST(ModelTest, ValidityRequiresDirectionInCone) {
  // Worker moving east-ish only.
  Worker w = MakeWorker({0.5, 0.5}, 1.0,
                        geo::AngularInterval(-kPi / 8, kPi / 8));
  Task east = test::MakeTask(0.5, 0.0, 2.0);
  east.location = {0.9, 0.5};
  Task west = test::MakeTask(0.5, 0.0, 2.0);
  west.location = {0.1, 0.5};
  EXPECT_TRUE(IsValidPair(east, w, 0.0, ArrivalPolicy::kStrict));
  EXPECT_FALSE(IsValidPair(west, w, 0.0, ArrivalPolicy::kStrict));
}

TEST(ModelTest, WorkerOnTaskLocationIgnoresDirection) {
  Worker w = MakeWorker({0.5, 0.5}, 1.0, geo::AngularInterval(0.0, 0.1));
  Task t = test::MakeTask(0.5, 0.0, 1.0);
  t.location = {0.5, 0.5};
  EXPECT_TRUE(IsValidPair(t, w, 0.0, ArrivalPolicy::kStrict));
}

TEST(ModelTest, ApproachAngleIsBearingFromTask) {
  Task t = test::MakeTask();
  t.location = {0.5, 0.5};
  Worker w = MakeWorker({1.0, 0.5}, 1.0, geo::AngularInterval::FullCircle());
  EXPECT_NEAR(ApproachAngle(t, w), 0.0, 1e-12);  // worker due east of task
  w.location = {0.5, 1.0};
  EXPECT_NEAR(ApproachAngle(t, w), kPi / 2, 1e-12);
}

TEST(InstanceTest, ValidateAcceptsWellFormed) {
  Instance instance = test::SmallInstance(1);
  EXPECT_TRUE(instance.Validate().ok());
}

TEST(InstanceTest, ValidateRejectsBadDuration) {
  Task t = test::MakeTask(0.5, 2.0, 1.0);  // end < start
  Instance instance({t}, {});
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(InstanceTest, ValidateRejectsBadBeta) {
  Task t = test::MakeTask(1.5);
  Instance instance({t}, {});
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(InstanceTest, ValidateRejectsBadWorker) {
  Worker w = MakeWorker({0, 0}, -1.0, geo::AngularInterval::FullCircle());
  Instance instance({}, {w});
  EXPECT_FALSE(instance.Validate().ok());
  w.velocity = 1.0;
  w.confidence = 2.0;
  Instance instance2({}, {w});
  EXPECT_FALSE(instance2.Validate().ok());
}

// Expects Validate to fail with kInvalidArgument and `message` verbatim.
void ExpectInvalid(const Instance& instance, const std::string& message) {
  const util::Status status = instance.Validate();
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << message;
  EXPECT_EQ(status.message(), message);
}

TEST(InstanceTest, ValidateRejectsNonFiniteTask) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Task good = test::MakeTask();
  Task t = good;
  t.beta = nan;
  ExpectInvalid(Instance({good, t}, {}), "task 1: beta is not finite");
  t = good;
  t.location.x = nan;
  ExpectInvalid(Instance({t}, {}), "task 0: location.x is not finite");
  t = good;
  t.location.y = -inf;
  ExpectInvalid(Instance({t}, {}), "task 0: location.y is not finite");
  t = good;
  t.end = inf;
  ExpectInvalid(Instance({t}, {}), "task 0: end is not finite");
  t = good;
  t.start = -inf;
  ExpectInvalid(Instance({t}, {}), "task 0: start is not finite");
}

TEST(InstanceTest, ValidateRejectsNonFiniteWorker) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Worker good =
      MakeWorker({0.5, 0.5}, 1.0, geo::AngularInterval::FullCircle());
  Worker w = good;
  w.confidence = nan;
  ExpectInvalid(Instance({}, {good, good, good, w}),
                "worker 3: confidence is not finite");
  w = good;
  w.velocity = inf;
  ExpectInvalid(Instance({}, {w}), "worker 0: velocity is not finite");
  w = good;
  w.location.x = inf;
  ExpectInvalid(Instance({}, {w}), "worker 0: location.x is not finite");
  w = good;
  w.location.y = nan;
  ExpectInvalid(Instance({}, {w}), "worker 0: location.y is not finite");
  w = good;
  w.direction = geo::AngularInterval(nan, 1.0);
  ExpectInvalid(Instance({}, {w}), "worker 0: direction.lo is not finite");
  w = good;
  w.available_from = nan;
  ExpectInvalid(Instance({}, {w}), "worker 0: available_from is not finite");
}

TEST(CandidateGraphTest, BuildMatchesPairwisePredicate) {
  Instance instance = test::SmallInstance(2);
  CandidateGraph graph = CandidateGraph::Build(instance);
  int64_t edges = 0;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    for (TaskId i = 0; i < instance.num_tasks(); ++i) {
      bool valid = IsValidPair(instance.task(i), instance.worker(j),
                               instance.now(), instance.policy());
      const auto& tasks = graph.TasksOf(j);
      bool listed = std::find(tasks.begin(), tasks.end(), i) != tasks.end();
      EXPECT_EQ(valid, listed);
      edges += valid ? 1 : 0;
    }
  }
  EXPECT_EQ(graph.NumEdges(), edges);
}

TEST(CandidateGraphTest, TransposeIsConsistent) {
  Instance instance = test::SmallInstance(3);
  CandidateGraph graph = CandidateGraph::Build(instance);
  for (TaskId i = 0; i < instance.num_tasks(); ++i) {
    for (WorkerId j : graph.WorkersOf(i)) {
      const auto& tasks = graph.TasksOf(j);
      EXPECT_NE(std::find(tasks.begin(), tasks.end(), i), tasks.end());
    }
  }
}

TEST(CandidateGraphTest, LogPopulationSumsDegrees) {
  Instance instance = test::SmallInstance(4);
  CandidateGraph graph = CandidateGraph::Build(instance);
  double expected = 0.0;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    if (graph.Degree(j) > 0) expected += std::log(graph.Degree(j));
  }
  EXPECT_NEAR(graph.LogPopulation(), expected, 1e-12);
}

}  // namespace
}  // namespace rdbsc::core
