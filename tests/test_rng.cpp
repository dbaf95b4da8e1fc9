#include "sim/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <sstream>
#include <vector>

#include "sim/failure_schedule.h"

namespace scda::sim {
namespace {

constexpr int kSamples = 20000;

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo |= v == 1;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < kSamples; ++i) sum += r.exponential(0.25);
  EXPECT_NEAR(sum / kSamples, 0.25, 0.01);
}

TEST(Rng, ExponentialRejectsBadMean) {
  Rng r(1);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(r.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, ParetoLowerBoundHolds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(2.0, 1.6), 2.0);
}

TEST(Rng, ParetoMeanParametrization) {
  Rng r(5);
  double sum = 0;
  for (int i = 0; i < kSamples; ++i) sum += r.pareto_mean(500e3, 2.5);
  // heavy-tailed: tolerate 10% error on the empirical mean at shape 2.5
  EXPECT_NEAR(sum / kSamples, 500e3, 50e3);
}

TEST(Rng, ParetoMeanNeedsShapeAboveOne) {
  Rng r(1);
  EXPECT_THROW(r.pareto_mean(1.0, 1.0), std::invalid_argument);
}

TEST(Rng, BoundedParetoWithinBounds) {
  Rng r(9);
  for (int i = 0; i < 2000; ++i) {
    const double v = r.bounded_pareto(1e3, 1.2, 1e6);
    EXPECT_GE(v, 1e3);
    EXPECT_LE(v, 1e6);
  }
}

TEST(Rng, BoundedParetoRejectsBadCap) {
  Rng r(1);
  EXPECT_THROW(r.bounded_pareto(10.0, 1.0, 5.0), std::invalid_argument);
}

TEST(Rng, LognormalMeanCvMatchesMoments) {
  Rng r(13);
  double sum = 0, sum2 = 0;
  for (int i = 0; i < kSamples; ++i) {
    const double v = r.lognormal_mean_cv(100.0, 0.5);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / kSamples;
  const double var = sum2 / kSamples - mean * mean;
  EXPECT_NEAR(mean, 100.0, 2.0);
  EXPECT_NEAR(std::sqrt(var) / mean, 0.5, 0.05);
}

TEST(Rng, DiscreteFollowsWeights) {
  Rng r(17);
  std::vector<double> w{1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < kSamples; ++i)
    if (r.discrete(w) == 1) ++ones;
  EXPECT_NEAR(static_cast<double>(ones) / kSamples, 0.75, 0.02);
}

TEST(Rng, BernoulliProbability) {
  Rng r(19);
  int hits = 0;
  for (int i = 0; i < kSamples; ++i)
    if (r.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.02);
}

class ParetoShapeSweep : public ::testing::TestWithParam<double> {};

TEST_P(ParetoShapeSweep, EmpiricalMeanTracksAnalytic) {
  const double shape = GetParam();
  Rng r(23);
  const double xm = 1000.0;
  double sum = 0;
  for (int i = 0; i < kSamples; ++i) sum += r.pareto(xm, shape);
  const double analytic = xm * shape / (shape - 1.0);
  EXPECT_NEAR(sum / kSamples / analytic, 1.0, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParetoShapeSweep,
                         ::testing::Values(2.0, 2.5, 3.0, 4.0));

// Mt64Prefix against std::mt19937_64 itself. The seeds are the churn
// streams' own (churn_mix(run_seed ^ churn_mix((tag << 32) | index)), as in
// append_renewals) plus the edge words. 700 draws cross the hand-over to the
// real engine at draw 156 and that engine's second twist at draw 312.
std::vector<std::uint64_t> churn_stream_seeds() {
  std::vector<std::uint64_t> seeds{0, 1, 5489, ~std::uint64_t{0}};
  for (const std::uint64_t run : {1ULL, 2ULL, 42ULL, 0x5cda2013ULL})
    for (std::uint64_t tag = 1; tag <= 3; ++tag)
      for (std::uint64_t index = 0; index < 100; ++index)
        seeds.push_back(churn_mix(run ^ churn_mix((tag << 32) | index)));
  return seeds;
}

TEST(Mt64Prefix, MatchesStdEngineOnChurnSeeds) {
  const std::vector<std::uint64_t> seeds = churn_stream_seeds();
  ASSERT_GE(seeds.size(), 1000u);
  for (const std::uint64_t seed : seeds) {
    std::mt19937_64 ref(seed);
    Mt64Prefix eng(seed);
    for (int draw = 0; draw < 700; ++draw)
      ASSERT_EQ(eng(), ref()) << "seed " << seed << " draw " << draw;
  }
}

// Word 156 of std::mt19937_64(seed)'s seeded state, where Mt64Prefix's
// high cursor starts. An engine's textual form begins with its state words
// in order, and a freshly seeded engine's are the seeded ones.
std::uint64_t seeded_word_156(std::uint64_t seed) {
  std::stringstream text;
  text << std::mt19937_64(seed);
  std::uint64_t word = 0;
  for (int i = 0; i <= 156; ++i) text >> word;
  return word;
}

TEST(Mt64Prefix, LockstepSeedingMatchesSingleStream) {
  const std::vector<std::uint64_t> seeds = churn_stream_seeds();
  // Every block length through two full blocks and one more (each lane
  // remainder, full blocks before it), then all the seeds in one call.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 2 * Mt64Prefix::kLanes + 1; ++n)
    lengths.push_back(n);
  lengths.push_back(seeds.size());
  constexpr std::uint64_t kUntouched = 0x5cda;
  for (const std::size_t n : lengths) {
    // Entries past the span must keep their high word.
    std::vector<Mt64Prefix::Seeded> block(n + Mt64Prefix::kLanes,
                                          {0, kUntouched});
    for (std::size_t i = 0; i < n; ++i) block[i].seed = seeds[i];
    Mt64Prefix::seed_lockstep({block.data(), n});
    for (std::size_t i = n; i < block.size(); ++i)
      ASSERT_EQ(block[i].high, kUntouched) << "n " << n << " entry " << i;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(block[i].high, seeded_word_156(seeds[i]))
          << "n " << n << " lane " << i;
      std::mt19937_64 ref(seeds[i]);
      Mt64Prefix eng(block[i]);
      for (int draw = 0; draw < 700; ++draw)
        ASSERT_EQ(eng(), ref()) << "n " << n << " lane " << i << " draw "
                                << draw;
    }
  }
}

}  // namespace
}  // namespace scda::sim
