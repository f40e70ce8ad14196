// Tests for the shared fronthaul link model.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/deployment.hpp"
#include "fronthaul/link.hpp"

namespace pran::fronthaul {
namespace {

TEST(FronthaulLink, IdleLinkDeliversAfterTxPlusPropagation) {
  FronthaulLink link({units::BitRate{1e9}, 10 * sim::kMicrosecond});
  // 1 Mbit at 1 Gbps = 1 ms serialisation.
  const BurstOutcome outcome = link.enqueue_burst(0, units::Bits{1'000'000});
  EXPECT_FALSE(outcome.lost);
  EXPECT_FALSE(outcome.late);
  EXPECT_EQ(outcome.arrival, sim::kMillisecond + 10 * sim::kMicrosecond);
  EXPECT_EQ(link.busy_time(), sim::kMillisecond);
  EXPECT_EQ(link.max_queue_delay(), 0);
}

TEST(FronthaulLink, FifoQueueingDelaysSecondBurst) {
  FronthaulLink link({units::BitRate{1e9}, 0});
  (void)link.enqueue_burst(0, units::Bits{1'000'000});  // busy until 1 ms
  const sim::Time arrival =
      link.enqueue_burst(0, units::Bits{1'000'000}).arrival;
  EXPECT_EQ(arrival, 2 * sim::kMillisecond);
  EXPECT_EQ(link.max_queue_delay(), sim::kMillisecond);
}

TEST(FronthaulLink, GapsLeaveLinkIdle) {
  FronthaulLink link({units::BitRate{1e9}, 0});
  (void)link.enqueue_burst(0, units::Bits{100'000});  // 100 us
  const sim::Time arrival =
      link.enqueue_burst(sim::kMillisecond, units::Bits{100'000}).arrival;
  EXPECT_EQ(arrival, sim::kMillisecond + 100 * sim::kMicrosecond);
  EXPECT_EQ(link.max_queue_delay(), 0);
}

TEST(FronthaulLink, UtilizationAndCarriedBits) {
  FronthaulLink link({units::BitRate{1e9}, 0});
  // The burst is carried: its 500 kbit take 0.5 ms on the wire.
  const BurstOutcome outcome = link.enqueue_burst(0, units::Bits{500'000});
  EXPECT_FALSE(outcome.lost);
  EXPECT_EQ(outcome.arrival, 500 * sim::kMicrosecond);
  EXPECT_NEAR(link.utilization(sim::kMillisecond), 0.5, 1e-9);
}

TEST(FronthaulLink, RejectsOutOfOrderIngressAndBadParams) {
  FronthaulLink link({units::BitRate{1e9}, 0});
  (void)link.enqueue_burst(sim::kMillisecond, units::Bits{1});
  EXPECT_THROW(link.enqueue_burst(0, units::Bits{1}), pran::ContractViolation);
  EXPECT_THROW(FronthaulLink({units::BitRate{0.0}, 0}),
               pran::ContractViolation);
  EXPECT_THROW(link.enqueue_burst(sim::kMillisecond, units::Bits{-1}),
               pran::ContractViolation);
}

TEST(SubframeBits, MatchesCpriArithmetic) {
  // 30.72 Msps * 1 ms * 2 * 15 * 4 antennas = 3.6864 Mbit per subframe.
  EXPECT_EQ(subframe_bits(units::Hertz{30.72e6}, 15, 4, 1.0),
            units::Bits{3'686'400});
  EXPECT_EQ(subframe_bits(units::Hertz{30.72e6}, 15, 4, 3.0),
            units::Bits{1'228'800});
  EXPECT_THROW(subframe_bits(units::Hertz{30.72e6}, 15, 4, 0.0),
               pran::ContractViolation);
}

TEST(SharedFronthaul, DeploymentCarriesTrafficOnTheLink) {
  core::DeploymentConfig config;
  config.num_cells = 4;
  config.num_servers = 3;
  config.seed = 5;
  // 25G link: 4 cells * 3.69 Mbit/ms = 14.7 Mbit/ms -> ~59% utilisation.
  config.shared_fronthaul =
      LinkParams{units::BitRate{25e9}, 25 * sim::kMicrosecond};
  core::Deployment d(config);
  d.run_for(500 * sim::kMillisecond);

  ASSERT_NE(d.fronthaul_link(), nullptr);
  // One burst per cell per TTI (t = 0 and t = 500 ms included), none lost.
  EXPECT_EQ(d.metrics().counter_value("fronthaul.bursts"), 4u * 501u);
  EXPECT_EQ(d.kpis().fronthaul_lost_bursts, 0u);
  EXPECT_NEAR(d.fronthaul_link()->utilization(d.now()), 0.59, 0.05);
  // Plenty of capacity: deadlines still met.
  EXPECT_EQ(d.kpis().deadline_misses, 0u);
}

TEST(SharedFronthaul, CongestedLinkCausesMisses) {
  auto run = [](units::BitRate rate, double compression) {
    core::DeploymentConfig config;
    config.num_cells = 6;
    config.num_servers = 4;
    config.seed = 5;
    config.shared_fronthaul = LinkParams{rate, 25 * sim::kMicrosecond};
    config.fronthaul_compression = compression;
    core::Deployment d(config);
    d.run_for(500 * sim::kMillisecond);
    return d.kpis();
  };
  // 6 cells * 3.69 Mbit/ms = 22 Mbit/ms. On a 10G link that is 2.2x the
  // capacity: queueing grows without bound and deadlines collapse.
  const auto congested = run(units::BitRate{10e9}, 1.0);
  EXPECT_GT(congested.miss_ratio, 0.5);
  // 3x compression brings it to 0.73x capacity: healthy again.
  const auto compressed = run(units::BitRate{10e9}, 3.0);
  EXPECT_EQ(compressed.deadline_misses, 0u);
}

}  // namespace
}  // namespace pran::fronthaul
