// Control-plane impairment determinism: the channel's contract is that
// the fate of message n is a pure function of (seed, n). The migration
// protocol's reproducibility — and the E22 sweep's thread-count
// invariance — rests on these properties, so they are pinned here:
// substream isolation (retuning jitter cannot change which messages are
// lost), unconditional draws, scripted drops on top of the stochastic
// process, and reorder delay accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "faults/control_plane.hpp"

namespace pran {
namespace {

using faults::ControlDelivery;
using faults::ControlPlaneChannel;
using faults::ControlPlaneImpairmentConfig;

constexpr std::uint64_t kSeed = 77;

std::vector<bool> loss_pattern(const ControlPlaneImpairmentConfig& config,
                               int n) {
  ControlPlaneChannel channel(config, kSeed);
  std::vector<bool> lost;
  for (int i = 0; i < n; ++i) lost.push_back(channel.send(0).lost);
  return lost;
}

TEST(ControlPlane, CleanChannelDeliversAtBaseDelay) {
  ControlPlaneImpairmentConfig config;
  ControlPlaneChannel channel(config, kSeed);
  EXPECT_FALSE(config.impaired());
  for (std::uint64_t i = 0; i < 10; ++i) {
    const ControlDelivery d = channel.send(sim::Time(1000) * sim::Time(i));
    EXPECT_EQ(d.seq, i);
    EXPECT_FALSE(d.lost);
    EXPECT_FALSE(d.reordered);
    EXPECT_EQ(d.deliver_at,
              sim::Time(1000) * sim::Time(i) + faults::kControlPlaneBaseDelay);
  }
  EXPECT_EQ(channel.messages_sent(), 10u);
  EXPECT_EQ(channel.messages_lost(), 0u);
  EXPECT_EQ(channel.log().size(), 10u);
}

TEST(ControlPlane, LossSequenceInvariantUnderJitterAndReorderRetune) {
  ControlPlaneImpairmentConfig base;
  base.loss_probability = 0.3;
  auto retuned = base;
  retuned.max_jitter = 2 * sim::kMillisecond;
  retuned.reorder_probability = 0.5;
  retuned.reorder_delay = 3 * sim::kMillisecond;
  // Substream isolation: turning jitter and reordering on must not shift
  // the loss draws — the exact point of Rng::stream() substreams.
  EXPECT_EQ(loss_pattern(base, 200), loss_pattern(retuned, 200));
}

TEST(ControlPlane, SameSeedSameFateDifferentSeedDiverges) {
  ControlPlaneImpairmentConfig config;
  config.loss_probability = 0.3;
  config.max_jitter = 1 * sim::kMillisecond;
  ControlPlaneChannel a(config, kSeed), b(config, kSeed), c(config, kSeed + 1);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto da = a.send(0);
    const auto db = b.send(0);
    const auto dc = c.send(0);
    EXPECT_EQ(da.lost, db.lost);
    EXPECT_EQ(da.deliver_at, db.deliver_at);
    if (da.lost != dc.lost || da.deliver_at != dc.deliver_at) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(ControlPlane, ScriptedDropsKillExactSequenceNumbers) {
  ControlPlaneImpairmentConfig config;
  config.scripted_drops = {0, 2};
  EXPECT_TRUE(config.impaired());
  ControlPlaneChannel channel(config, kSeed);
  EXPECT_TRUE(channel.send(0).lost);
  EXPECT_FALSE(channel.send(0).lost);
  EXPECT_TRUE(channel.send(0).lost);
  EXPECT_FALSE(channel.send(0).lost);
  EXPECT_EQ(channel.messages_lost(), 2u);
}

TEST(ControlPlane, ReorderAddsExactlyReorderDelay) {
  ControlPlaneImpairmentConfig config;
  config.reorder_probability = 1.0;
  config.reorder_delay = 3 * sim::kMillisecond;
  ControlPlaneChannel channel(config, kSeed);
  for (int i = 0; i < 5; ++i) {
    const ControlDelivery d = channel.send(0);
    EXPECT_TRUE(d.reordered);
    EXPECT_EQ(d.deliver_at,
              faults::kControlPlaneBaseDelay + config.reorder_delay);
  }
}

TEST(ControlPlane, LogMirrorsEverySendInOrder) {
  ControlPlaneImpairmentConfig config;
  config.loss_probability = 0.5;
  ControlPlaneChannel channel(config, kSeed);
  for (int i = 0; i < 50; ++i) channel.send(sim::Time(i));
  ASSERT_EQ(channel.log().size(), 50u);
  std::uint64_t lost = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(channel.log()[i].seq, i);
    if (channel.log()[i].lost) ++lost;
  }
  EXPECT_EQ(lost, channel.messages_lost());
}

TEST(ControlPlane, RejectsMalformedConfig) {
  ControlPlaneImpairmentConfig bad_loss;
  bad_loss.loss_probability = 1.5;
  EXPECT_THROW(ControlPlaneChannel(bad_loss, kSeed), ContractViolation);

  ControlPlaneImpairmentConfig bad_reorder;
  bad_reorder.reorder_probability = 0.2;  // without a reorder_delay
  EXPECT_THROW(ControlPlaneChannel(bad_reorder, kSeed), ContractViolation);
}

}  // namespace
}  // namespace pran
