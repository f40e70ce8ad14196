// Tests for the radio-link model.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "lte/link.hpp"

namespace pran::lte {
namespace {

TEST(Pathloss, GrowsWithDistance) {
  EXPECT_LT(pathloss_db(100.0), pathloss_db(500.0));
  EXPECT_LT(pathloss_db(500.0), pathloss_db(2000.0));
}

TEST(Pathloss, MatchesUmaFormulaAtOneKm) {
  EXPECT_NEAR(pathloss_db(1000.0).value(), 128.1, 1e-9);
}

TEST(Pathloss, ClampsTinyDistances) {
  // Below 1 m the distance is clamped, so no -inf.
  EXPECT_DOUBLE_EQ(pathloss_db(0.0).value(), pathloss_db(1.0).value());
  EXPECT_THROW(pathloss_db(-5.0), ContractViolation);
}

TEST(NoisePower, ScalesWithBandwidth) {
  const units::Db narrow =
      noise_power_dbm(units::Hertz{180e3}, units::Db{7.0});
  const units::Db wide = noise_power_dbm(units::Hertz{18e6}, units::Db{7.0});
  // 100x bandwidth = +20 dB.
  EXPECT_NEAR((wide - narrow).value(), 20.0, 1e-9);
  // 180 kHz, NF 7: -174 + 52.55 + 7 ≈ -114.4 dBm.
  EXPECT_NEAR(narrow.value(), -114.45, 0.05);
}

TEST(Snr, DecreasesWithDistance) {
  EXPECT_GT(snr_db(50.0), snr_db(300.0));
  EXPECT_GT(snr_db(300.0), snr_db(900.0));
}

TEST(SpectralEfficiency, SaturatesAtCap) {
  const LinkBudget budget;
  EXPECT_DOUBLE_EQ(spectral_efficiency(units::Db{100.0}, budget),
                   budget.max_spectral_eff);
  EXPECT_NEAR(spectral_efficiency(units::Db{-30.0}, budget), 0.0, 2e-3);
}

TEST(SpectralEfficiency, AttenuatedShannonShape) {
  const LinkBudget budget;
  // At 0 dB SNR, Shannon gives 1 bit: attenuated to 0.75.
  EXPECT_NEAR(spectral_efficiency(units::Db{0.0}, budget), 0.75, 1e-6);
}

TEST(CqiAtDistance, MonotoneNonIncreasing) {
  int prev = 15;
  for (double d : {30.0, 100.0, 200.0, 400.0, 700.0, 1000.0, 2000.0, 5000.0}) {
    const int q = cqi_at_distance(d);
    EXPECT_LE(q, prev) << "distance " << d;
    EXPECT_GE(q, 0);
    prev = q;
  }
}

TEST(CqiAtDistance, NearCellIsTopCqi) {
  EXPECT_EQ(cqi_at_distance(30.0), 15);
}

TEST(CqiStepDistances, EachIsTheLastDistanceReachingItsCqi) {
  const auto& steps = cqi_step_distances();
  for (int k = 1; k <= 15; ++k) {
    const double step = steps[static_cast<std::size_t>(k - 1)];
    EXPECT_EQ(cqi_at_distance(step), k) << "CQI " << k;
    EXPECT_EQ(cqi_at_distance(std::nextafter(step, 1e9)), k - 1)
        << "CQI " << k;
  }
  // 15 near the site, 8 at the 800 m cell radius, out of range past ~2 km.
  EXPECT_GT(steps[14], 30.0);
  EXPECT_GT(steps[7], 800.0);
  EXPECT_LT(steps[8], 800.0);
  EXPECT_LT(steps[0], 2100.0);
}

TEST(CqiStepDistances, LookupMatchesCqiAtDistanceAroundEveryStep) {
  constexpr std::int64_t kUlps = 100000;
  long mismatches = 0;
  for (const double step : cqi_step_distances()) {
    const auto bits = std::bit_cast<std::int64_t>(step);
    for (std::int64_t delta = -kUlps; delta <= kUlps; ++delta) {
      const double d = std::bit_cast<double>(bits + delta);
      if (lookup_cqi_at_distance(d) != cqi_at_distance(d)) {
        ADD_FAILURE() << "distance " << d << " (" << delta << " ulps from "
                      << step << ")";
        if (++mismatches > 10) return;
      }
    }
  }
}

TEST(CqiStepDistances, LookupMatchesCqiAtDistanceAtFixedPoints) {
  // The site itself, the traffic model's 30 m minimum and 800 m radius,
  // past the coverage edge, and far out of range.
  for (const double d : {0.0, 0.5, 1.0, 30.0, 800.0, 2200.0, 5000.0, 1e6})
    EXPECT_EQ(lookup_cqi_at_distance(d), cqi_at_distance(d)) << d;
  EXPECT_EQ(lookup_cqi_at_distance(0.0), 15);
  EXPECT_EQ(lookup_cqi_at_distance(2200.0), 0);
  EXPECT_THROW(lookup_cqi_at_distance(-1.0), ContractViolation);
}

TEST(CqiStepDistances, LookupMatchesCqiAtDistanceAtRandomDistances) {
  Rng rng(20140527);
  long mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double d = rng.uniform(0.0, 3000.0);
    if (lookup_cqi_at_distance(d) != cqi_at_distance(d)) {
      ADD_FAILURE() << "distance " << d;
      if (++mismatches > 10) return;
    }
  }
}

TEST(PrbRate, MatchesSpectralEfficiency) {
  // One PRB at MCS 28: 5.55 bits/RE * 140 RE / 1 ms ≈ 777 kbps.
  EXPECT_NEAR(prb_rate_bps(28).value(), 777700, 5000);
  EXPECT_GT(prb_rate_bps(10), prb_rate_bps(0));
}

TEST(PrbsForRate, CeilsAndHandlesZero) {
  EXPECT_EQ(prbs_for_rate(units::BitRate{0.0}, 10), units::PrbCount{0});
  const units::BitRate one_prb = prb_rate_bps(10);
  EXPECT_EQ(prbs_for_rate(one_prb, 10), units::PrbCount{1});
  EXPECT_EQ(prbs_for_rate(one_prb + units::BitRate{1.0}, 10),
            units::PrbCount{2});
  EXPECT_THROW(prbs_for_rate(units::BitRate{-1.0}, 10), ContractViolation);
}

TEST(PrbsForRate, TwentyMbpsNeedsManyPrbs) {
  // A heavy (20 Mb/s) UE at MCS 28 needs ~26 PRBs.
  const units::PrbCount prbs = prbs_for_rate(units::BitRate{20e6}, 28);
  EXPECT_GE(prbs.count(), 20);
  EXPECT_LE(prbs.count(), 32);
  // At a poor MCS the same rate is much more expensive.
  EXPECT_GT(prbs_for_rate(units::BitRate{20e6}, 5).count(),
            2 * prbs.count());
}

}  // namespace
}  // namespace pran::lte
