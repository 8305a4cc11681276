#include "core/diversity.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "geo/angle.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/math.h"
#include "util/rng.h"

namespace rdbsc::core {
namespace {

using test::MakeTask;
using test::Obs;

constexpr double kPi = std::numbers::pi;

// ---------- Exact spatial diversity (Eq. 3) ----------

TEST(SpatialDiversityTest, FewerThanTwoRaysIsZero) {
  EXPECT_DOUBLE_EQ(SpatialDiversity({}), 0.0);
  EXPECT_DOUBLE_EQ(SpatialDiversity({1.0}), 0.0);
}

TEST(SpatialDiversityTest, OppositeRaysMaximizeTwoRayEntropy) {
  // Two rays splitting the circle in half: entropy ln 2.
  EXPECT_NEAR(SpatialDiversity({0.0, kPi}), std::log(2.0), 1e-12);
}

TEST(SpatialDiversityTest, CoincidentRaysHaveZeroDiversity) {
  EXPECT_NEAR(SpatialDiversity({1.0, 1.0}), 0.0, 1e-12);
  EXPECT_NEAR(SpatialDiversity({1.0, 1.0, 1.0}), 0.0, 1e-12);
}

TEST(SpatialDiversityTest, EvenSplitGivesLogR) {
  // r equally spaced rays: entropy ln r.
  for (int r = 2; r <= 8; ++r) {
    std::vector<double> angles;
    for (int i = 0; i < r; ++i) angles.push_back(i * geo::kTwoPi / r);
    EXPECT_NEAR(SpatialDiversity(angles), std::log(static_cast<double>(r)),
                1e-9)
        << "r=" << r;
  }
}

TEST(SpatialDiversityTest, InvariantUnderRotation) {
  util::Rng rng(77);
  std::vector<double> angles = {0.3, 1.7, 2.9, 4.4};
  double base = SpatialDiversity(angles);
  for (int trial = 0; trial < 20; ++trial) {
    double shift = rng.Uniform(0, geo::kTwoPi);
    std::vector<double> rotated;
    for (double a : angles) rotated.push_back(a + shift);
    EXPECT_NEAR(SpatialDiversity(rotated), base, 1e-9);
  }
}

// ---------- Exact temporal diversity (Eq. 4) ----------

TEST(TemporalDiversityTest, NoArrivalsIsZero) {
  EXPECT_DOUBLE_EQ(TemporalDiversity({}, 0.0, 1.0), 0.0);
}

TEST(TemporalDiversityTest, MidpointSplitsEvenly) {
  EXPECT_NEAR(TemporalDiversity({0.5}, 0.0, 1.0), std::log(2.0), 1e-12);
}

TEST(TemporalDiversityTest, BoundaryArrivalAddsNothing) {
  EXPECT_NEAR(TemporalDiversity({0.0}, 0.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(TemporalDiversity({1.0}, 0.0, 1.0), 0.0, 1e-12);
}

TEST(TemporalDiversityTest, EvenSplitGivesLogIntervals) {
  // r arrivals at the (r+1)-quantiles: entropy ln(r+1).
  for (int r = 1; r <= 6; ++r) {
    std::vector<double> arrivals;
    for (int i = 1; i <= r; ++i) {
      arrivals.push_back(static_cast<double>(i) / (r + 1));
    }
    EXPECT_NEAR(TemporalDiversity(arrivals, 0.0, 1.0),
                std::log(static_cast<double>(r + 1)), 1e-9);
  }
}

TEST(TemporalDiversityTest, ScalesWithPeriod) {
  // The same relative split yields the same entropy on any period.
  double base = TemporalDiversity({0.25, 0.5}, 0.0, 1.0);
  EXPECT_NEAR(TemporalDiversity({2.5, 5.0}, 0.0, 10.0), base, 1e-12);
  EXPECT_NEAR(TemporalDiversity({3.25, 3.5}, 3.0, 4.0), base, 1e-12);
}

// ---------- STD combination (Eq. 5) ----------

TEST(StdTest, BetaBlendsSpatialAndTemporal) {
  std::vector<Observation> obs = {Obs(0.0, 0.25, 0.9), Obs(kPi, 0.75, 0.9)};
  double sd = SpatialDiversity({0.0, kPi});
  double td = TemporalDiversity({0.25, 0.75}, 0.0, 1.0);
  EXPECT_NEAR(Std(MakeTask(1.0), obs), sd, 1e-12);
  EXPECT_NEAR(Std(MakeTask(0.0), obs), td, 1e-12);
  EXPECT_NEAR(Std(MakeTask(0.3), obs), 0.3 * sd + 0.7 * td, 1e-12);
}

// ---------- Expected diversity: matrix method vs possible worlds ----------

TEST(ExpectedDiversityTest, EmptyAndSingleWorker) {
  Task task = MakeTask(0.5);
  EXPECT_DOUBLE_EQ(ExpectedStd(task, {}), 0.0);
  // A single worker has no spatial diversity but splits the period.
  std::vector<Observation> one = {Obs(1.0, 0.5, 0.8)};
  double expected = 0.5 * 0.8 * std::log(2.0);
  EXPECT_NEAR(ExpectedStd(task, one), expected, 1e-12);
}

TEST(ExpectedDiversityTest, TwoWorkerClosedForm) {
  // With two workers the only diverse world is both-present.
  Task task = MakeTask(1.0);  // spatial only
  std::vector<Observation> obs = {Obs(0.0, 0.2, 0.7), Obs(kPi, 0.8, 0.6)};
  EXPECT_NEAR(ExpectedSpatialDiversity(obs), 0.7 * 0.6 * std::log(2.0),
              1e-12);
  EXPECT_NEAR(ExpectedStd(task, obs), 0.7 * 0.6 * std::log(2.0), 1e-12);
}

TEST(ExpectedDiversityTest, CertainWorkersReduceToDeterministicStd) {
  Task task = MakeTask(0.4);
  std::vector<Observation> obs = {Obs(0.1, 0.2, 1.0), Obs(2.0, 0.5, 1.0),
                                  Obs(4.0, 0.9, 1.0)};
  EXPECT_NEAR(ExpectedStd(task, obs), Std(task, obs), 1e-9);
}

// The central correctness property: the O(r^2) matrix computation equals
// exhaustive possible-worlds enumeration (Lemma 3.1).
class MatrixVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(MatrixVsBruteForceTest, ExpectedStdMatchesEnumeration) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    // Trials past 40 draw angles from [-1, 2*pi + 1]: one list then mixes
    // period windows, whose angles are the directions of their normalized
    // values.
    const double lo = trial < 40 ? 0.0 : -1.0;
    const double hi = trial < 40 ? geo::kTwoPi : geo::kTwoPi + 1.0;
    int r = static_cast<int>(rng.UniformInt(0, 10));
    double beta = rng.Uniform(0.0, 1.0);
    double start = rng.Uniform(0.0, 5.0);
    double end = start + rng.Uniform(0.5, 3.0);
    Task task = MakeTask(beta, start, end);
    std::vector<Observation> obs;
    std::vector<Observation> normalized;
    for (int i = 0; i < r; ++i) {
      obs.push_back(Obs(rng.Uniform(lo, hi), rng.Uniform(start, end),
                        rng.Uniform(0.0, 1.0)));
      normalized.push_back(obs.back());
      normalized.back().angle = geo::NormalizeAngle(obs.back().angle);
    }
    double matrix = ExpectedStd(task, obs);
    double brute = ExpectedStdBruteForce(task, obs);
    EXPECT_NEAR(matrix, brute, 1e-9)
        << "r=" << r << " beta=" << beta << " trial=" << trial;
    const DiversityBounds raw = ExpectedStdBounds(task, obs);
    const DiversityBounds norm = ExpectedStdBounds(task, normalized);
    EXPECT_EQ(std::bit_cast<uint64_t>(raw.lb),
              std::bit_cast<uint64_t>(norm.lb))
        << "trial=" << trial;
    EXPECT_EQ(std::bit_cast<uint64_t>(raw.ub),
              std::bit_cast<uint64_t>(norm.ub))
        << "trial=" << trial;
  }
}

TEST_P(MatrixVsBruteForceTest, SpatialOnlyMatches) {
  util::Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 30; ++trial) {
    int r = static_cast<int>(rng.UniformInt(2, 9));
    Task task = MakeTask(1.0);
    std::vector<Observation> obs;
    for (int i = 0; i < r; ++i) {
      obs.push_back(Obs(rng.Uniform(0.0, geo::kTwoPi), 0.5,
                        rng.Uniform(0.1, 1.0)));
    }
    EXPECT_NEAR(ExpectedSpatialDiversity(obs),
                ExpectedStdBruteForce(task, obs), 1e-9);
  }
}

TEST_P(MatrixVsBruteForceTest, TemporalOnlyMatches) {
  util::Rng rng(GetParam() + 2000);
  for (int trial = 0; trial < 30; ++trial) {
    int r = static_cast<int>(rng.UniformInt(1, 9));
    Task task = MakeTask(0.0, 1.0, 3.0);
    std::vector<Observation> obs;
    for (int i = 0; i < r; ++i) {
      obs.push_back(Obs(0.0, rng.Uniform(1.0, 3.0), rng.Uniform(0.1, 1.0)));
    }
    EXPECT_NEAR(ExpectedTemporalDiversity(obs, task.start, task.end),
                ExpectedStdBruteForce(task, obs), 1e-9);
  }
}

// Duplicate angles / arrival collisions must agree with enumeration too.
TEST_P(MatrixVsBruteForceTest, DegenerateGeometryMatches) {
  util::Rng rng(GetParam() + 3000);
  for (int trial = 0; trial < 20; ++trial) {
    Task task = MakeTask(rng.Uniform(0.0, 1.0));
    double shared_angle = rng.Uniform(0.0, geo::kTwoPi);
    double shared_time = rng.Uniform(0.0, 1.0);
    std::vector<Observation> obs;
    int r = static_cast<int>(rng.UniformInt(2, 7));
    for (int i = 0; i < r; ++i) {
      bool duplicate = rng.Bernoulli(0.5);
      obs.push_back(Obs(duplicate ? shared_angle
                                  : rng.Uniform(0.0, geo::kTwoPi),
                        duplicate ? shared_time : rng.Uniform(0.0, 1.0),
                        rng.Uniform(0.0, 1.0)));
    }
    EXPECT_NEAR(ExpectedStd(task, obs), ExpectedStdBruteForce(task, obs),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixVsBruteForceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- Monotonicity (Lemma 4.2) ----------

class MonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(MonotonicityTest, AddingWorkerNeverDecreasesExpectedStd) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    Task task = MakeTask(rng.Uniform(0.0, 1.0));
    std::vector<Observation> obs;
    double previous = 0.0;
    for (int i = 0; i < 8; ++i) {
      obs.push_back(Obs(rng.Uniform(0.0, geo::kTwoPi), rng.Uniform(0.0, 1.0),
                        rng.Uniform(0.0, 1.0)));
      double current = ExpectedStd(task, obs);
      EXPECT_GE(current, previous - 1e-12)
          << "adding worker " << i << " decreased E[STD]";
      previous = current;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityTest,
                         ::testing::Values(21, 22, 23, 24));

// ---------- Row cut-off of the M_SD / M_TD sums ----------

// ExpectedSpatialDiversity / ExpectedTemporalDiversity summing every term
// of every row: the reference for the early row exit.
double FullSpatialSum(const std::vector<Observation>& obs) {
  const size_t r = obs.size();
  if (r < 2) return 0.0;
  std::vector<size_t> order(r);
  for (size_t i = 0; i < r; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&obs](size_t a, size_t b) {
    return obs[a].angle < obs[b].angle;
  });
  std::vector<double> angle, conf, gap(r);
  for (size_t i : order) {
    angle.push_back(geo::NormalizeAngle(obs[i].angle));
    conf.push_back(util::ClampConfidence(obs[i].confidence));
  }
  double sum = 0.0;
  for (size_t i = 0; i + 1 < r; ++i) {
    gap[i] = geo::CcwDelta(angle[i], angle[i + 1]);
    sum += gap[i];
  }
  gap[r - 1] = geo::kTwoPi - sum;
  double expected = 0.0;
  for (size_t j = 0; j < r; ++j) {
    double between_absent = 1.0;
    double swept = 0.0;
    for (size_t step = 1; step < r; ++step) {
      size_t k = (j + step) % r;
      swept += gap[(j + step - 1) % r];
      expected += util::EntropyTerm(swept / geo::kTwoPi) * conf[j] *
                  conf[k] * between_absent;
      between_absent *= 1.0 - conf[k];
    }
  }
  return expected;
}

double FullTemporalSum(const std::vector<Observation>& obs, double start,
                       double end) {
  if (obs.empty()) return 0.0;
  std::vector<size_t> order(obs.size());
  for (size_t i = 0; i < obs.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&obs](size_t a, size_t b) {
    return obs[a].arrival < obs[b].arrival;
  });
  std::vector<double> time = {start}, conf = {1.0};
  for (size_t i : order) {
    time.push_back(std::clamp(obs[i].arrival, start, end));
    conf.push_back(util::ClampConfidence(obs[i].confidence));
  }
  time.push_back(end);
  conf.push_back(1.0);
  double expected = 0.0;
  for (size_t a = 0; a + 1 < time.size(); ++a) {
    double between_absent = 1.0;
    for (size_t k = a + 1; k < time.size(); ++k) {
      expected += util::EntropyTerm((time[k] - time[a]) / (end - start)) *
                  conf[a] * conf[k] * between_absent;
      between_absent *= 1.0 - conf[k];
    }
  }
  return expected;
}

// Near-certain workers (and the platform's confidence-1 answers) make most
// rows end early; the result must keep every bit of the full sum.
TEST(ExpectedDiversityTest, RowCutoffKeepsEveryBit) {
  util::Rng rng(515);
  for (int trial = 0; trial < 300; ++trial) {
    const double start = rng.Uniform(0.0, 2.0);
    const double end = start + rng.Uniform(0.1, 3.0);
    const int r = static_cast<int>(rng.UniformInt(0, 70));
    const double p_lo = trial % 3 == 0 ? 0.0 : 0.8;
    // One period window per list (see SortByAngle: raw order must agree
    // with normalized order for the gaps to sum to 2pi).
    const double window = geo::kTwoPi * static_cast<double>(trial % 3 - 1);
    std::vector<Observation> obs;
    for (int i = 0; i < r; ++i) {
      const double pick = rng.Uniform(0.0, 1.0);
      const double confidence = pick < 0.4   ? 1.0
                                : pick < 0.5 ? 0.0
                                             : rng.Uniform(p_lo, 1.0);
      Observation o = Obs(window + rng.Uniform(0.0, geo::kTwoPi),
                          rng.Uniform(start - 0.5, end + 0.5), confidence);
      if (i > 0 && pick > 0.9) {  // tie an earlier angle and arrival
        o.angle = obs[static_cast<size_t>(i - 1)].angle;
        o.arrival = obs[static_cast<size_t>(i - 1)].arrival;
      }
      obs.push_back(o);
    }
    const double sd = ExpectedSpatialDiversity(obs);
    const double td = ExpectedTemporalDiversity(obs, start, end);
    EXPECT_EQ(std::bit_cast<uint64_t>(sd),
              std::bit_cast<uint64_t>(FullSpatialSum(obs)))
        << "trial " << trial << " r " << r;
    EXPECT_EQ(std::bit_cast<uint64_t>(td),
              std::bit_cast<uint64_t>(FullTemporalSum(obs, start, end)))
        << "trial " << trial << " r " << r;
  }
}

// ---------- Bounds (Section 4.3) ----------

class BoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundsTest, BoundsSandwichExactValue) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    Task task = MakeTask(rng.Uniform(0.0, 1.0));
    int r = static_cast<int>(rng.UniformInt(0, 9));
    std::vector<Observation> obs;
    for (int i = 0; i < r; ++i) {
      obs.push_back(Obs(rng.Uniform(0.0, geo::kTwoPi), rng.Uniform(0.0, 1.0),
                        rng.Uniform(0.0, 1.0)));
    }
    DiversityBounds bounds = ExpectedStdBounds(task, obs);
    double exact = ExpectedStd(task, obs);
    EXPECT_LE(bounds.lb, exact + 1e-9) << "lower bound violated, r=" << r;
    EXPECT_GE(bounds.ub, exact - 1e-9) << "upper bound violated, r=" << r;
    EXPECT_LE(bounds.lb, bounds.ub + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsTest, ::testing::Values(31, 32, 33, 34));

}  // namespace
}  // namespace rdbsc::core
