#include "sim/platform.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "geo/angle.h"
#include "gtest/gtest.h"
#include "sim/aggregation.h"
#include "test_util.h"
#include "util/rng.h"

namespace rdbsc::sim {
namespace {

PlatformConfig SmallPlatform(uint64_t seed,
                             const char* solver = "greedy") {
  PlatformConfig config;
  config.seed = seed;
  config.solver_name = solver;
  return config;
}

TEST(PlatformTest, RunsAndProducesAnswers) {
  Platform platform(SmallPlatform(1));
  PlatformResult result = platform.Run().value();
  EXPECT_GT(result.assignments_made, 0);
  EXPECT_GT(result.answers_received, 0);
  EXPECT_GE(result.assignments_made, result.answers_received);
  EXPECT_FALSE(result.rounds.empty());
}

TEST(PlatformTest, AnswersRespectTaskPeriods) {
  Platform platform(SmallPlatform(2));
  PlatformResult result = platform.Run().value();
  PlatformConfig config = SmallPlatform(2);
  for (const Answer& answer : result.answers) {
    EXPECT_GE(answer.time, 0.0);
    EXPECT_LE(answer.time, config.task_open_time + 1e-9);
    EXPECT_GE(answer.quality, 0.0);
    EXPECT_LE(answer.quality, 1.0);
    EXPECT_GE(answer.task, 0);
    EXPECT_LT(answer.task, config.num_sites);
  }
}

TEST(PlatformTest, AccuracyErrorInUnitRange) {
  Platform platform(SmallPlatform(3, "sampling"));
  PlatformResult result = platform.Run().value();
  EXPECT_GE(result.mean_accuracy_error, 0.0);
  EXPECT_LE(result.mean_accuracy_error, 1.0);
}

TEST(PlatformTest, SmallerIntervalMeansMoreRounds) {
  PlatformConfig fast = SmallPlatform(4);
  fast.t_interval = 1.0 / 60.0;
  PlatformConfig slow = SmallPlatform(4);
  slow.t_interval = 4.0 / 60.0;
  PlatformResult fast_result = Platform(fast).Run().value();
  PlatformResult slow_result = Platform(slow).Run().value();
  EXPECT_GT(fast_result.rounds.size(), slow_result.rounds.size());
}

TEST(PlatformTest, FinalObjectivesNonNegative) {
  Platform platform(SmallPlatform(5, "sampling"));
  PlatformResult result = platform.Run().value();
  EXPECT_GE(result.final_objectives.total_std, 0.0);
  EXPECT_GE(result.final_objectives.min_reliability, 0.0);
  EXPECT_LE(result.final_objectives.min_reliability, 1.0);
}

TEST(PlatformTest, DeterministicForSeed) {
  PlatformResult a = Platform(SmallPlatform(6)).Run().value();
  PlatformResult b = Platform(SmallPlatform(6)).Run().value();
  EXPECT_EQ(a.answers_received, b.answers_received);
  EXPECT_DOUBLE_EQ(a.final_objectives.total_std,
                   b.final_objectives.total_std);
}

TEST(PlatformTest, UnknownSolverNameSurfacesFromRun) {
  Platform platform(SmallPlatform(7, "no-such-solver"));
  util::StatusOr<PlatformResult> run = platform.Run();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kNotFound);
}

// Satellite requirement: the platform must run end-to-end with *every*
// registered solver name, including the EXACT oracle -- which is why this
// configuration is kept tiny (population <= num_sites^num_workers).
TEST(PlatformTest, RunsEndToEndWithEachRegisteredSolver) {
  for (const std::string& name : core::SolverRegistry::Global().Names()) {
    PlatformConfig config = SmallPlatform(8, name.c_str());
    config.num_sites = 3;
    config.num_workers = 6;
    Platform platform(config);
    util::StatusOr<PlatformResult> run = platform.Run();
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    EXPECT_GT(run.value().assignments_made, 0) << name;
    EXPECT_GE(run.value().final_objectives.total_std, 0.0) << name;
  }
}

// Round and final objectives of campus-sized greedy sessions, as recorded
// by the platform before it cached per-site objectives (every site's
// E[STD] recomputed from a deep copy each round). The cache must
// reproduce them bit for bit.
struct GoldenSession {
  uint64_t seed;
  std::vector<std::pair<double, double>> rounds;
  std::pair<double, double> final_objectives;
};

const std::vector<GoldenSession>& GoldenSessions() {
  static const std::vector<GoldenSession> sessions = {
      {101,
       {{0x1p+0, 0x1.51631bf418bf2p+1},
        {0x1.be54771f2015fp-1, 0x1.875e669170622p+1},
        {0x1.ac6ce88a7138bp-1, 0x1.881a568a59e7bp+2},
        {0x1.ad29e5336af76p-1, 0x1.d2f12de969804p+2},
        {0x1.fffffffffdcd1p-1, 0x1.e190acee70683p+2},
        {0x1.cf2bca77fc54bp-1, 0x1.67cc18ded30fbp+3},
        {0x1.faea7d3ead9f5p-1, 0x1.099922c645169p+4},
        {0x1.ffffffffffbafp-1, 0x1.1a4f40c21cf69p+4},
        {0x1p+0, 0x1.2a4500f56cd06p+4},
        {0x1p+0, 0x1.2ee0f3d9a9872p+4},
        {0x1.a17715297452cp-1, 0x1.941183399e145p+4},
        {0x1.ab3b46db2158ep-1, 0x1.a161084db24b9p+4},
        {0x1.fffffffffdcd1p-1, 0x1.acc4d5bb890cep+4},
        {0x1.d80bea6452cbp-1, 0x1.d171ba50b9d2ap+4},
        {0x1.fffffffffdcd1p-1, 0x1.d060afe13228ap+4},
        {0x1.fffffffffdcd1p-1, 0x1.e5bc4088c767bp+4}},
       {0x1.fffffffffdcd1p-1, 0x1.e7c641c2c2819p+4}},
      {202,
       {{0x1p+0, 0x1.6ba433e501b58p+1},
        {0x1.9cd21cd10e83dp-1, 0x1.24757d9c2cf35p+2},
        {0x1.d5056726a4c46p-1, 0x1.6e072a65faa5ep+2},
        {0x1.f8a16e9440a3ap-1, 0x1.acd0f66c40ebcp+2},
        {0x1.d9f4d651fcaeep-1, 0x1.cc976b11da8e3p+2},
        {0x1.fffffffffdcd1p-1, 0x1.e07243ac96a3ep+2},
        {0x1.9cd21cd10e83dp-1, 0x1.1649196a27a84p+4},
        {0x1.9cd21cd10e83dp-1, 0x1.1979dad19074cp+4},
        {0x1.fffffffffdcd1p-1, 0x1.306bbff3491dbp+4},
        {0x1.fffffffffdcd1p-1, 0x1.329f8783d1f1p+4},
        {0x1.fffffffffdcd1p-1, 0x1.36b645ba0ed5ap+4},
        {0x1.fffffffffdcd1p-1, 0x1.3e51930e541f5p+4},
        {0x1.fffffffffdcd1p-1, 0x1.3f199580c0ddfp+4},
        {0x1.fffffffffdcd1p-1, 0x1.45149cee714b4p+4},
        {0x1.fffffffffdcd1p-1, 0x1.4bbe09c0cb08ep+4},
        {0x1.fffffffffdcd1p-1, 0x1.511ca471f358cp+4}},
       {0x1.fffffffffdcd1p-1, 0x1.526be7151005bp+4}},
      {303,
       {{0x1p+0, 0x1.55221aeacf704p+1},
        {0x1.bdd44f35209b1p-1, 0x1.aa841b5d61838p+1},
        {0x1.aa885cb2ac13dp-1, 0x1.25e8c28c9ea74p+2},
        {0x1.aa885cb2ac13dp-1, 0x1.5e20e0feb0728p+2},
        {0x1.fffffffffdcd1p-1, 0x1.835d865bedfa1p+2},
        {0x1.a91de2c9e899fp-1, 0x1.e2df217cd9b8ep+3},
        {0x1.a91de2c9e899fp-1, 0x1.03ed65f8ce25ep+4},
        {0x1.a91de2c9e899fp-1, 0x1.1853095249d7fp+4},
        {0x1.fffffffffdcd1p-1, 0x1.2079fb28f4755p+4},
        {0x1.fffffffffdcd1p-1, 0x1.587e15f2b91cep+4},
        {0x1.fffffffffdcd1p-1, 0x1.6263e2701b989p+4},
        {0x1.fffffffffdcd1p-1, 0x1.69f83bc84144bp+4},
        {0x1.fffffffffdcd1p-1, 0x1.7236eeacb1b93p+4},
        {0x1.fffffffffdcd1p-1, 0x1.749422c931bffp+4},
        {0x1.cbb71c007f1d9p-1, 0x1.8233dc9c70eb3p+4},
        {0x1.fffffffffdcd1p-1, 0x1.9dc044c2ab33p+4}},
       {0x1.fffffffffdcd1p-1, 0x1.9ba4452b04a9p+4}},
  };
  return sessions;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(PlatformTest, RoundObjectivesBitIdentical) {
  for (const GoldenSession& golden : GoldenSessions()) {
    PlatformConfig config = SmallPlatform(golden.seed);
    config.num_sites = 30;
    config.num_workers = 60;
    PlatformResult result = Platform(config).Run().value();
    ASSERT_EQ(result.rounds.size(), golden.rounds.size()) << golden.seed;
    for (size_t r = 0; r < golden.rounds.size(); ++r) {
      const core::ObjectiveValue& got = result.rounds[r].objectives;
      EXPECT_EQ(Bits(got.min_reliability), Bits(golden.rounds[r].first))
          << "seed " << golden.seed << " round " << r << ": " << std::hexfloat
          << got.min_reliability;
      EXPECT_EQ(Bits(got.total_std), Bits(golden.rounds[r].second))
          << "seed " << golden.seed << " round " << r << ": " << std::hexfloat
          << got.total_std;
    }
    EXPECT_EQ(Bits(result.final_objectives.min_reliability),
              Bits(golden.final_objectives.first))
        << golden.seed;
    EXPECT_EQ(Bits(result.final_objectives.total_std),
              Bits(golden.final_objectives.second))
        << golden.seed;
  }
}

TEST(AggregationTest, PicksBestPerBucket) {
  core::Task task = rdbsc::test::MakeTask(0.5, 0.0, 1.0);
  std::vector<Answer> answers;
  // Two answers in the same angular/time bucket; the better quality wins.
  answers.push_back({.task = 0, .worker = 0, .angle = 0.1, .time = 0.1,
                     .quality = 0.5});
  answers.push_back({.task = 0, .worker = 1, .angle = 0.12, .time = 0.12,
                     .quality = 0.9});
  // One answer far away in angle.
  answers.push_back({.task = 0, .worker = 2, .angle = 3.2, .time = 0.1,
                     .quality = 0.4});
  std::vector<Answer> reps = AggregateAnswers(task, answers);
  ASSERT_EQ(reps.size(), 2u);
  bool found_best = false;
  for (const Answer& rep : reps) {
    if (rep.worker == 1) found_best = true;
    EXPECT_NE(rep.worker, 0);  // dominated by worker 1 in the same bucket
  }
  EXPECT_TRUE(found_best);
}

TEST(AggregationTest, EmptyInput) {
  core::Task task = rdbsc::test::MakeTask();
  EXPECT_TRUE(AggregateAnswers(task, {}).empty());
}

TEST(AggregationTest, BucketCountBoundsOutput) {
  core::Task task = rdbsc::test::MakeTask(0.5, 0.0, 1.0);
  std::vector<Answer> answers;
  util::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    answers.push_back({.task = 0,
                       .worker = i,
                       .angle = rng.Uniform(0, geo::kTwoPi),
                       .time = rng.Uniform(0, 1),
                       .quality = rng.Uniform(0, 1)});
  }
  AggregationConfig config;
  config.angle_buckets = 4;
  config.time_buckets = 2;
  std::vector<Answer> reps = AggregateAnswers(task, answers, config);
  EXPECT_LE(reps.size(), 8u);
  EXPECT_GT(reps.size(), 0u);
}

}  // namespace
}  // namespace rdbsc::sim
