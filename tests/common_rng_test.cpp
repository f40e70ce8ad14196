// Tests for the deterministic RNG and its distributions.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace pran {
namespace {

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SeedZeroIsWellMixed) {
  Rng r(0);
  // splitmix64 seeding should not produce degenerate zero streams.
  std::set<std::uint64_t> values;
  for (int i = 0; i < 16; ++i) values.insert(r());
  EXPECT_EQ(values.size(), 16u);
  EXPECT_EQ(values.count(0), 0u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.fork();
  Rng parent2(9);
  (void)parent2.fork();
  // Parent advances when forking.
  EXPECT_NE(parent(), Rng(9)());
  // Child differs from parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent() == child()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng r(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntSingletonRange) {
  Rng r(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(42, 42), 42);
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng r(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScalesWithParameters) {
  Rng r(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ExponentialHasExpectedMean) {
  Rng r(19);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, PoissonSmallMean) {
  Rng r(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.poisson(3.5);
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng r(29);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.poisson(100.0);
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng r(1);
  EXPECT_EQ(r.poisson(0.0), 0u);
  EXPECT_EQ(r.poisson(-1.0), 0u);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (r.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

}  // namespace
}  // namespace pran
