// Tests for statistics accumulators and fairness.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace pran {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(3);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Samples, QuantilesInterpolate) {
  Samples s({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0 / 3.0), 20.0);
}

TEST(Samples, SingleSample) {
  Samples s({7.0});
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(s.min(), 7.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
  EXPECT_DOUBLE_EQ(s.ci_half_width(), 0.0);
}

TEST(Samples, RejectsEmptyQuantile) {
  Samples s;
  EXPECT_THROW(s.quantile(0.5), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
}

TEST(Samples, RejectsOutOfRangeQuantile) {
  Samples s({1.0});
  EXPECT_THROW(s.quantile(1.5), ContractViolation);
}

TEST(Samples, CiShrinksWithSampleSize) {
  Rng rng(5);
  Samples small, large;
  for (int i = 0; i < 20; ++i) small.add(rng.normal());
  for (int i = 0; i < 2000; ++i) large.add(rng.normal());
  EXPECT_GT(small.ci_half_width(0.95), large.ci_half_width(0.95));
}

TEST(Samples, CiWidensWithLevel) {
  Rng rng(5);
  Samples s;
  for (int i = 0; i < 100; ++i) s.add(rng.normal());
  EXPECT_LT(s.ci_half_width(0.90), s.ci_half_width(0.95));
  EXPECT_LT(s.ci_half_width(0.95), s.ci_half_width(0.99));
}

TEST(Samples, VectorConstructorAndValues) {
  Samples s({3.0, 1.0, 2.0});
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  // values() reflects insertion order until a quantile query sorts.
  EXPECT_EQ(s.values().size(), 3u);
  s.add(4.0);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Samples, StddevOfConstantIsZero) {
  Samples s({5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci_half_width(), 0.0);
}

TEST(JainFairness, PerfectFairnessIsOne) {
  EXPECT_DOUBLE_EQ(jain_fairness({5.0, 5.0, 5.0}), 1.0);
}

TEST(JainFairness, WorstCaseIsOneOverN) {
  EXPECT_NEAR(jain_fairness({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(JainFairness, EdgeCases) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0.0, 0.0}), 1.0);
}

}  // namespace
}  // namespace pran
