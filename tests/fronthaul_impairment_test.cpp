// Fronthaul impairment model + impaired-link property tests: bits
// conservation under loss, FIFO ingress contract, Gilbert–Elliott
// determinism on Rng substreams, brownout/jitter semantics and the
// utilization saturation flag.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "faults/fronthaul.hpp"
#include "fronthaul/link.hpp"

namespace pran::faults {
namespace {

using fronthaul::BurstImpairment;
using fronthaul::BurstOutcome;
using fronthaul::FronthaulLink;
using fronthaul::LinkParams;
using units::BitRate;
using units::Bits;

FronthaulImpairmentConfig lossy_config() {
  FronthaulImpairmentConfig config;
  config.loss.p_good_to_bad = 0.02;
  config.loss.p_bad_to_good = 0.3;
  config.loss.loss_bad = 0.5;
  return config;
}

std::vector<bool> loss_sequence(const FronthaulImpairmentConfig& config,
                                std::uint64_t seed, int bursts) {
  FronthaulImpairments model(config, seed);
  std::vector<bool> lost;
  lost.reserve(static_cast<std::size_t>(bursts));
  for (int i = 0; i < bursts; ++i)
    lost.push_back(model.apply(i * sim::kTti, Bits{1000}).lost);
  return lost;
}

TEST(FronthaulImpairments, SameSeedSameLossSequence) {
  const auto a = loss_sequence(lossy_config(), 7, 5000);
  const auto b = loss_sequence(lossy_config(), 7, 5000);
  EXPECT_EQ(a, b);
  // And a different seed actually changes it.
  EXPECT_NE(a, loss_sequence(lossy_config(), 8, 5000));
}

TEST(FronthaulImpairments, LossSequenceUnperturbedByJitterAndBrownouts) {
  // Substream isolation: turning jitter and brownouts on must not change
  // which bursts the loss chain drops.
  auto with_extras = lossy_config();
  with_extras.jitter.max_jitter = 100 * sim::kMicrosecond;
  with_extras.brownout.mtbb_seconds = 0.2;
  with_extras.brownout.mean_duration_seconds = 0.05;
  EXPECT_EQ(loss_sequence(lossy_config(), 7, 5000),
            loss_sequence(with_extras, 7, 5000));
}

TEST(FronthaulImpairments, LossRateNearStationaryAndClustered) {
  const auto config = lossy_config();
  const auto lost = loss_sequence(config, 11, 200'000);
  std::uint64_t losses = 0, pairs = 0, after_loss = 0;
  for (std::size_t i = 0; i < lost.size(); ++i) {
    if (!lost[i]) continue;
    ++losses;
    if (i + 1 < lost.size()) {
      ++pairs;
      if (lost[i + 1]) ++after_loss;
    }
  }
  const double rate =
      static_cast<double>(losses) / static_cast<double>(lost.size());
  EXPECT_NEAR(rate, config.loss.mean_loss_rate(), 0.01);
  // Gilbert–Elliott clusters: P(loss | previous loss) far above marginal.
  const double conditional =
      static_cast<double>(after_loss) / static_cast<double>(pairs);
  EXPECT_GT(conditional, 3.0 * rate);
}

TEST(FronthaulImpairments, BrownoutEpisodesAreCounted) {
  FronthaulImpairmentConfig config;
  config.brownout.mtbb_seconds = 0.05;
  config.brownout.mean_duration_seconds = 0.02;
  config.brownout.capacity_factor = 0.5;
  FronthaulImpairments model(config, 3);
  int browned = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto imp = model.apply(i * sim::kTti, Bits{1000});
    EXPECT_FALSE(imp.lost);
    if (imp.capacity_factor < 1.0) {
      EXPECT_DOUBLE_EQ(imp.capacity_factor, 0.5);
      ++browned;
    }
  }
  EXPECT_GT(model.brownouts(), 0u);
  EXPECT_GT(browned, 0);
}

TEST(FronthaulImpairments, RejectsBadConfig) {
  auto bad = lossy_config();
  bad.loss.loss_bad = 1.5;
  EXPECT_THROW(FronthaulImpairments(bad, 1), pran::ContractViolation);
  FronthaulImpairmentConfig brown;
  brown.brownout.mtbb_seconds = 0.1;
  brown.brownout.capacity_factor = 0.0;
  EXPECT_THROW(FronthaulImpairments(brown, 1), pran::ContractViolation);
}

TEST(ImpairedLink, BitsConservationUnderLoss) {
  FronthaulLink link({BitRate{1e9}, 0});
  int n = 0;
  link.set_impairment_hook([&n](sim::Time, Bits) {
    BurstImpairment imp;
    imp.lost = (++n % 3 == 0);  // drop every third burst
    return imp;
  });
  std::uint64_t carried = 0, lost = 0;
  for (int i = 0; i < 30; ++i) {
    if (link.enqueue_burst(i * sim::kTti, Bits{1000}).lost)
      ++lost;
    else
      ++carried;
  }
  EXPECT_EQ(carried, 20u);
  EXPECT_EQ(lost, 10u);
  // Only the carried bits took the wire: 20 x 1000 bits at 1 Gbps.
  EXPECT_EQ(link.busy_time(), 20 * sim::kMicrosecond);
}

TEST(ImpairedLink, FifoViolationRaisesContractViolation) {
  FronthaulLink link({BitRate{1e9}, 0});
  link.set_impairment_hook([](sim::Time, Bits) { return BurstImpairment{}; });
  (void)link.enqueue_burst(sim::kTti, Bits{100});
  EXPECT_THROW(link.enqueue_burst(0, Bits{100}), pran::ContractViolation);
}

TEST(ImpairedLink, ZeroBitBurstsAreLegal) {
  FronthaulLink link({BitRate{1e9}, 10 * sim::kMicrosecond});
  const BurstOutcome carried = link.enqueue_burst(0, Bits{0});
  EXPECT_FALSE(carried.lost);
  EXPECT_EQ(carried.arrival, 10 * sim::kMicrosecond);  // propagation only
  EXPECT_EQ(link.busy_time(), 0);
  link.set_impairment_hook([](sim::Time, Bits) {
    BurstImpairment imp;
    imp.lost = true;
    return imp;
  });
  EXPECT_TRUE(link.enqueue_burst(0, Bits{0}).lost);
  EXPECT_EQ(link.busy_time(), 0);
}

TEST(ImpairedLink, BrownoutStretchesSerialisation) {
  FronthaulLink link({BitRate{1e9}, 0});
  link.set_impairment_hook([](sim::Time, Bits) {
    BurstImpairment imp;
    imp.capacity_factor = 0.5;  // half rate: tx time doubles
    return imp;
  });
  const auto outcome = link.enqueue_burst(0, Bits{1'000'000});
  EXPECT_EQ(outcome.arrival, 2 * sim::kMillisecond);
  EXPECT_EQ(link.busy_time(), 2 * sim::kMillisecond);
}

TEST(ImpairedLink, JitterDelaysArrivalNotTheWire) {
  FronthaulLink link({BitRate{1e9}, 0});
  link.set_impairment_hook([](sim::Time, Bits) {
    BurstImpairment imp;
    imp.extra_delay = 100 * sim::kMicrosecond;
    return imp;
  });
  const auto first = link.enqueue_burst(0, Bits{1'000'000});
  EXPECT_EQ(first.arrival, sim::kMillisecond + 100 * sim::kMicrosecond);
  // The wire schedule ignored the jitter: a second burst queues behind
  // 1 ms of serialisation, not 1.1 ms.
  const auto second = link.enqueue_burst(0, Bits{1'000'000});
  EXPECT_EQ(second.queue_delay, sim::kMillisecond);
  EXPECT_EQ(link.busy_time(), 2 * sim::kMillisecond);
}

TEST(ImpairedLink, LateAccountingUsesQueueingPlusJitter) {
  FronthaulLink link({BitRate{1e9}, 0});
  link.set_late_threshold(500 * sim::kMicrosecond);
  // No wait: on time.
  EXPECT_FALSE(link.enqueue_burst(0, Bits{1'000'000}).late);
  // Waits 1 ms: late.
  EXPECT_TRUE(link.enqueue_burst(0, Bits{1'000'000}).late);
  link.set_impairment_hook([](sim::Time, Bits) {
    BurstImpairment imp;
    imp.extra_delay = 600 * sim::kMicrosecond;  // jitter alone exceeds it
    return imp;
  });
  const BurstOutcome jittered =
      link.enqueue_burst(10 * sim::kMillisecond, Bits{1000});
  EXPECT_EQ(jittered.queue_delay, 0);
  EXPECT_TRUE(jittered.late);
}

TEST(ImpairedLink, UtilizationSaturationFlagBothBranches) {
  FronthaulLink link({BitRate{1e9}, 0});
  (void)link.enqueue_burst(0, Bits{500'000});  // 0.5 ms busy
  bool saturated = true;
  EXPECT_NEAR(link.utilization(sim::kMillisecond, &saturated), 0.5, 1e-9);
  EXPECT_FALSE(saturated);
  // Commit 2 ms of serialisation, then ask about a 1 ms horizon: the
  // clamp under-reports the backlog and the flag must say so.
  (void)link.enqueue_burst(0, Bits{1'500'000});
  EXPECT_NEAR(link.utilization(sim::kMillisecond, &saturated), 1.0, 1e-9);
  EXPECT_TRUE(saturated);
  // Null flag stays legal (legacy callers).
  EXPECT_NEAR(link.utilization(sim::kMillisecond), 1.0, 1e-9);
}

TEST(ImpairedLink, WindowResetsWithoutTouchingCumulatives) {
  FronthaulLink link({BitRate{1e9}, 0});
  (void)link.enqueue_burst(0, Bits{1'000'000});  // busy until 1 ms
  (void)link.enqueue_burst(0, Bits{1'000'000});  // waits 1 ms
  link.set_impairment_hook([](sim::Time, Bits) {
    BurstImpairment imp;
    imp.lost = true;
    return imp;
  });
  EXPECT_TRUE(link.enqueue_burst(0, Bits{100}).lost);
  const auto window = link.take_window();
  EXPECT_EQ(window.bursts, 3u);
  EXPECT_EQ(window.lost, 1u);
  EXPECT_EQ(window.max_queue_delay, sim::kMillisecond);
  EXPECT_DOUBLE_EQ(window.loss_rate(), 1.0 / 3.0);
  const auto empty = link.take_window();
  EXPECT_EQ(empty.bursts, 0u);
  EXPECT_EQ(empty.max_queue_delay, 0);
  EXPECT_DOUBLE_EQ(empty.loss_rate(), 0.0);
  // The cumulatives survive the window reset.
  EXPECT_EQ(link.max_queue_delay(), sim::kMillisecond);
  EXPECT_EQ(link.busy_time(), 2 * sim::kMillisecond);
}

}  // namespace
}  // namespace pran::faults
