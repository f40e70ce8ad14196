// Deterministic protocol-edge tests for the crash-safe migration manager:
// every edge the design calls out — lost PREPARE, lost COMMIT (live
// source: rollback under a fresh token; dead source: lease-expiry
// takeover), crash during transfer on either side, deadline-expiry
// rollback, the exponential retry-backoff schedule, stale-message
// fencing — driven through scripted control-plane drops so each scenario
// is exact, not probabilistic. The dual-execution ContractViolation and
// the naive break-before-make baseline's blackout accounting are pinned
// here too.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/migration.hpp"
#include "sim/engine.hpp"

namespace pran {
namespace {

using core::MigrationConfig;
using core::MigrationManager;

constexpr int kCells = 4;
constexpr int kServers = 3;
constexpr std::uint64_t kSeed = 9;

MigrationConfig two_phase_config() {
  MigrationConfig config;
  config.enabled = true;
  config.make_before_break = true;
  config.deadline = 200 * sim::kMillisecond;
  return config;
}

/// One manager + the callback capture the deployment would normally own.
struct Harness {
  explicit Harness(const MigrationConfig& config)
      : mgr(config, engine, metrics, kCells, kServers, kSeed) {
    mgr.set_complete_callback([this](int cell, int server) {
      completions.emplace_back(cell, server);
    });
    mgr.set_event_callback(
        [this](int cell, std::string_view event, std::string_view) {
          EXPECT_EQ(cell, 0);
          events.emplace_back(event);
        });
  }

  /// Advances TTI by TTI like Deployment::tick: run the engine to the
  /// boundary, take the routing decision, register the execution grant.
  void tick_to(std::int64_t last_tti, int cell, int placement) {
    for (; next_tti <= last_tti; ++next_tti) {
      engine.run_until(next_tti * sim::kTti);
      const auto d = mgr.on_tick(cell, placement);
      servers.push_back(d.server);
      if (d.blackout) ++blackouts;
      transfer_bits += d.transfer_bits;
      if (d.server >= 0) mgr.record_execution(cell, next_tti, d.server);
    }
  }

  sim::Engine engine;
  telemetry::MetricsRegistry metrics;
  MigrationManager mgr;
  std::vector<std::pair<int, int>> completions;
  std::vector<std::string> events;
  std::vector<int> servers;
  std::int64_t next_tti = 0;
  std::uint64_t blackouts = 0;
  double transfer_bits = 0.0;
};

TEST(Migration, ValidateRejectsBadConfig) {
  auto no_deadline = two_phase_config();
  no_deadline.deadline = 0;
  EXPECT_THROW(core::validate(no_deadline), ContractViolation);
}

TEST(Migration, HappyPathCommitsWithZeroBlackout) {
  Harness h(two_phase_config());
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  h.tick_to(60, 0, 0);
  h.engine.run();

  const auto& c = h.mgr.counters();
  EXPECT_EQ(c.started, 1u);
  EXPECT_EQ(c.committed, 1u);
  // The drain ran past the 200 ms deadline, whose event found the
  // migration already committed and did nothing.
  EXPECT_GE(h.engine.now(), 200 * sim::kMillisecond);
  EXPECT_EQ(c.deadline_expired, 0u);
  EXPECT_EQ(c.blackout_ttis, 0u);
  EXPECT_EQ(c.dual_executions, 0u);
  EXPECT_EQ(h.blackouts, 0u);
  // The whole soft-buffer debt was streamed, spread across the transfer.
  EXPECT_DOUBLE_EQ(h.transfer_bits, core::kTransferBits);
  // Source executes through prepare + transfer + lease fence, then the
  // target takes over — never neither, never both.
  EXPECT_EQ(h.servers.front(), 0);
  EXPECT_EQ(h.servers.back(), 1);
  for (std::size_t i = 1; i < h.servers.size(); ++i)
    EXPECT_GE(h.servers[i], h.servers[i - 1]);
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(h.completions[0], (std::pair<int, int>{0, 1}));
  EXPECT_EQ(h.mgr.lease_token(0), 1u);
  EXPECT_EQ(h.mgr.unresolved_cells(), 0);
  EXPECT_EQ(h.events, std::vector<std::string>{"committed"});
  // Handoff latency = transfer window + lease TTL (plus message delays).
  EXPECT_NEAR(c.mean_handoff_latency_ms(), 28.1, 0.5);
}

TEST(Migration, LostPrepareRetriesAndStillCommits) {
  auto config = two_phase_config();
  config.control_plane.scripted_drops = {0};  // first PREPARE
  Harness h(config);
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  h.engine.run();

  const auto& c = h.mgr.counters();
  EXPECT_EQ(c.committed, 1u);
  EXPECT_EQ(c.retries, 1u);
  EXPECT_EQ(h.mgr.channel().messages_lost(), 1u);
  EXPECT_EQ(h.events, std::vector<std::string>{"committed"});
  // The retry pushed the handoff out by one backoff step.
  EXPECT_NEAR(c.mean_handoff_latency_ms(), 32.1, 0.5);
}

TEST(Migration, LostCommitWithLiveSourceRollsBackUnderFreshToken) {
  auto config = two_phase_config();
  // seq 0 = PREPARE, 1 = PREPARE_ACK, 2..5 = COMMIT + its 3 retries.
  static_assert(core::kMaxRetries == 3);
  config.control_plane.scripted_drops = {2, 3, 4, 5};
  Harness h(config);
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  h.engine.run();

  const auto& c = h.mgr.counters();
  EXPECT_EQ(c.committed, 0u);
  EXPECT_EQ(c.rolled_back, 1u);
  EXPECT_EQ(c.retry_exhaustions, 1u);
  EXPECT_EQ(c.retries, static_cast<std::uint64_t>(core::kMaxRetries));
  // The source keeps the cell, re-granted under a bumped fencing token so
  // any straggler COMMIT would bounce as stale.
  EXPECT_EQ(h.mgr.routed_server(0, h.engine.now(), 0), 0);
  EXPECT_EQ(h.mgr.lease_token(0), 2u);
  EXPECT_EQ(h.mgr.unresolved_cells(), 0);
  EXPECT_TRUE(h.completions.empty());
}

TEST(Migration, LostCommitWithDeadSourceResolvesByLeaseExpiryTakeover) {
  auto config = two_phase_config();
  config.control_plane.scripted_drops = {2, 3, 4, 5};
  Harness h(config);
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  // Past the transfer (done at ~8.1 ms), inside the commit phase.
  h.engine.run_until(10 * sim::kMillisecond);
  h.mgr.on_server_failed(0);
  // The manager — not epoch failover — owns this cell's fate now.
  EXPECT_TRUE(h.mgr.holds_failover(0));
  h.engine.run();

  const auto& c = h.mgr.counters();
  EXPECT_EQ(c.taken_over, 1u);
  EXPECT_EQ(c.committed, 0u);
  EXPECT_EQ(c.dual_executions, 0u);
  // No COMMIT ever arrived, yet the target owns the cell: the source
  // lease expired on its own — that is the lost-COMMIT resolution path.
  EXPECT_EQ(h.mgr.routed_server(0, h.engine.now(), 0), 1);
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(h.completions[0], (std::pair<int, int>{0, 1}));
  EXPECT_FALSE(h.mgr.holds_failover(0));
  EXPECT_EQ(h.mgr.unresolved_cells(), 0);
}

TEST(Migration, TargetCrashDuringTransferAborts) {
  Harness h(two_phase_config());
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  h.engine.run_until(4 * sim::kMillisecond);  // mid-transfer
  h.mgr.on_server_failed(1);
  EXPECT_EQ(h.mgr.counters().aborted, 1u);
  // Abort means the source simply keeps the cell.
  EXPECT_EQ(h.mgr.routed_server(0, h.engine.now(), 0), 0);
  h.engine.run();
  EXPECT_EQ(h.mgr.counters().committed, 0u);
  EXPECT_TRUE(h.completions.empty());
  EXPECT_EQ(h.mgr.in_flight(), 0);
}

TEST(Migration, SourceCrashDuringTransferAbortsAndYieldsToFailover) {
  Harness h(two_phase_config());
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  h.engine.run_until(4 * sim::kMillisecond);  // mid-transfer
  h.mgr.on_server_failed(0);
  EXPECT_EQ(h.mgr.counters().aborted, 1u);
  // Pre-commit the target holds no state worth granting: the migration
  // dies and epoch failover re-packs the cell like any crash victim.
  EXPECT_FALSE(h.mgr.holds_failover(0));
  h.engine.run();
  EXPECT_EQ(h.mgr.counters().committed, 0u);
  EXPECT_TRUE(h.completions.empty());
}

TEST(Migration, DeadlineExpiryDuringTransferRollsBack) {
  auto config = two_phase_config();
  config.deadline = 5 * sim::kMillisecond;  // expires inside the transfer
  Harness h(config);
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  h.engine.run();
  const auto& c = h.mgr.counters();
  EXPECT_EQ(c.deadline_expired, 1u);
  EXPECT_EQ(c.rolled_back, 1u);
  EXPECT_EQ(c.committed, 0u);
  EXPECT_EQ(h.mgr.routed_server(0, h.engine.now(), 0), 0);
  EXPECT_EQ(h.events, std::vector<std::string>{"rolled_back"});
}

TEST(Migration, DeadlineExpiryBeforeTransferAborts) {
  auto config = two_phase_config();
  config.control_plane.scripted_drops = {0, 1, 2, 3};  // every PREPARE
  config.deadline = 50 * sim::kMillisecond;  // beats the retry budget
  Harness h(config);
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  h.engine.run();
  const auto& c = h.mgr.counters();
  EXPECT_EQ(c.deadline_expired, 1u);
  EXPECT_EQ(c.aborted, 1u);
  EXPECT_EQ(c.retry_exhaustions, 0u);
}

TEST(Migration, RetryBackoffScheduleIsExponential) {
  auto config = two_phase_config();
  // An unreachable target: every PREPARE is held 100 ms on top of the
  // base delay, so the ack round-trip cannot complete before the retry
  // budget burns and every retry is a resend on the backoff schedule.
  config.control_plane.reorder_probability = 1.0;
  config.control_plane.reorder_delay = 100 * sim::kMillisecond;
  Harness h(config);
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  // Sends at t0, t0+4ms, t0+12ms, t0+28ms: backoff 4 -> 8 -> 16 ms. Each
  // retry is counted as it is sent, and not a nanosecond earlier.
  std::uint64_t retries = 0;
  for (const sim::Time at : {core::kRetryBackoff, 3 * core::kRetryBackoff,
                             7 * core::kRetryBackoff}) {
    h.engine.run_until(at - 1);
    EXPECT_EQ(h.mgr.counters().retries, retries) << "before " << at;
    h.engine.run_until(at);
    EXPECT_EQ(h.mgr.counters().retries, ++retries) << "at " << at;
  }
  h.engine.run();

  const auto& c = h.mgr.counters();
  EXPECT_EQ(c.retry_exhaustions, 1u);
  EXPECT_EQ(c.aborted, 1u);
  EXPECT_EQ(c.retries, static_cast<std::uint64_t>(core::kMaxRetries));
  EXPECT_EQ(h.mgr.channel().messages_sent(),
            static_cast<std::uint64_t>(core::kMaxRetries + 1));
  EXPECT_EQ(h.mgr.channel().messages_lost(), 0u);
  // All four PREPAREs eventually land on a migration that no longer
  // exists: fenced as stale, not acted on.
  EXPECT_EQ(c.stale_messages, 4u);
}

TEST(Migration, SlowChannelDuplicatesAreFencedAsStale) {
  auto config = two_phase_config();
  // Deliveries slower than the retry backoff: every phase's message is
  // sent several times and the duplicates arrive after the phase moved
  // on. They must all bounce off the fencing, and the handoff must still
  // commit exactly once. Every message is held 10 ms on top of the base
  // delay.
  config.control_plane.reorder_probability = 1.0;
  config.control_plane.reorder_delay = 10 * sim::kMillisecond;
  Harness h(config);
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  h.engine.run_until(100 * sim::kMillisecond);

  const auto& c = h.mgr.counters();
  EXPECT_EQ(c.committed, 1u);
  EXPECT_EQ(c.handoffs, 1u);
  EXPECT_GT(c.stale_messages, 0u);
  EXPECT_EQ(c.dual_executions, 0u);
  ASSERT_EQ(h.completions.size(), 1u);
  // The last stale duplicate lands before the lease fence: the target is
  // still settling then, owned only once time crosses target_from — which
  // is why the run goes on to 100 ms rather than stopping at the last
  // protocol message.
  EXPECT_EQ(h.mgr.unresolved_cells(), 0);
  EXPECT_EQ(h.mgr.overdue(), 0);
}

TEST(Migration, StaleDeadlineSparesTheCellsNextMigration) {
  Harness h(two_phase_config());
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  h.tick_to(195, 0, 0);
  ASSERT_EQ(h.events, std::vector<std::string>{"committed"});
  // The second migration starts at 195 ms and is mid-transfer when the
  // first one's deadline fires at 200 ms.
  ASSERT_EQ(h.mgr.begin(0, 1, 2), MigrationManager::BeginResult::kStarted);
  h.tick_to(201, 0, 1);
  EXPECT_EQ(h.mgr.in_flight(), 1);
  EXPECT_EQ(h.mgr.overdue(), 0);
  EXPECT_EQ(h.events.size(), 1u);
  h.tick_to(260, 0, 1);

  const auto& c = h.mgr.counters();
  EXPECT_EQ(c.deadline_expired, 0u);
  EXPECT_EQ(c.aborted, 0u);
  EXPECT_EQ(c.rolled_back, 0u);
  EXPECT_EQ(c.committed, 2u);
  EXPECT_EQ(h.events, (std::vector<std::string>{"committed", "committed"}));
  EXPECT_EQ(h.servers.back(), 2);
}

TEST(Migration, DualExecutionIsAContractViolation) {
  Harness h(two_phase_config());
  h.mgr.record_execution(0, 5, 0);
  h.mgr.record_execution(0, 6, 0);  // next TTI, same server: fine
  EXPECT_THROW(h.mgr.record_execution(0, 6, 1), ContractViolation);
}

TEST(Migration, DeferralAndInFlightGating) {
  Harness h(two_phase_config());
  h.mgr.set_deferral(true);
  EXPECT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kDeferred);
  EXPECT_EQ(h.mgr.counters().deferred, 1u);
  h.mgr.set_deferral(false);
  EXPECT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  EXPECT_EQ(h.mgr.begin(0, 0, 2), MigrationManager::BeginResult::kInFlight);
  // A dead target defers the plan rather than starting a doomed handoff.
  h.mgr.on_server_failed(2);
  EXPECT_EQ(h.mgr.begin(1, 0, 2), MigrationManager::BeginResult::kDeferred);
}

TEST(Migration, NaiveInstantFlipGoesDarkForTheTransferWindow) {
  auto config = two_phase_config();
  config.make_before_break = false;
  Harness h(config);
  ASSERT_EQ(h.mgr.begin(0, 0, 1), MigrationManager::BeginResult::kStarted);
  h.tick_to(12, 0, 0);
  h.engine.run();

  const auto& c = h.mgr.counters();
  EXPECT_EQ(c.committed, 1u);
  // Break-before-make: ownership flipped instantly, and the cell had no
  // live owner for the whole 8-TTI state stream.
  const auto transfer_ttis = static_cast<std::uint64_t>(core::kTransferTtis);
  EXPECT_EQ(c.blackout_ttis, transfer_ttis);
  EXPECT_EQ(h.blackouts, transfer_ttis);
  EXPECT_DOUBLE_EQ(h.transfer_bits, core::kTransferBits);
  EXPECT_EQ(h.servers.back(), 1);
  EXPECT_NEAR(c.mean_handoff_latency_ms(), 8.0, 0.1);
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(h.completions[0], (std::pair<int, int>{0, 1}));
}

}  // namespace
}  // namespace pran
