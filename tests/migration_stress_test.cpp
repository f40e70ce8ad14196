// Migration-protocol sweep determinism: deployments running the two-phase
// handoff protocol under control-plane loss/jitter/reorder AND servers
// crashing mid-transfer, swept in parallel. Three contracts are raced
// here: (1) the KPI vector is byte-identical whatever the worker-thread
// count (every channel draw is per-deployment, so the E22 sweep is
// reproducible); (2) no cell-TTI is ever granted to two servers (the
// dual-execution counter would throw before it could even count); (3) no
// cell is orphaned — every migration reaches a terminal state and every
// lease settles. Labelled "tsan" (race-check under -DPRAN_SANITIZE=thread)
// and "faults" (fault-subsystem stress).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "core/deployment.hpp"

namespace pran {
namespace {

struct Kpi {
  std::uint64_t subframes = 0;
  std::uint64_t misses = 0;
  std::uint64_t started = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t rolled_back = 0;
  std::uint64_t taken_over = 0;
  std::uint64_t retries = 0;
  std::uint64_t deferred = 0;
  std::uint64_t stale = 0;
  std::uint64_t blackout = 0;
  std::uint64_t dual = 0;
  std::uint64_t harq_retx = 0;
  double handoff_ms = 0.0;
  /// Migrations unresolved past deadline + grace at run end: the
  /// protocol's liveness failure. Cells still mid-handoff because the
  /// final epoch's replan landed just before the run ended are NOT
  /// orphans — they are live, bounded by their own deadline timer.
  std::uint64_t orphans = 0;

  bool operator==(const Kpi&) const = default;
};

core::DeploymentConfig stress_config(std::uint64_t seed, bool two_phase) {
  core::DeploymentConfig config;
  config.num_cells = 10;
  config.num_servers = 6;
  config.seed = seed;
  config.epoch = 250 * sim::kMillisecond;
  // The E9/E22 repack storm: diurnal drift + a non-sticky first-fit
  // placer keep the demand ranking shuffling, so replans move cells.
  config.start_hour = 0.0;
  config.day_compression = 7200;
  config.placer = core::DeploymentConfig::PlacerKind::kFirstFitNoSticky;
  config.harq_retransmissions = true;
  config.shared_fronthaul =
      fronthaul::LinkParams{units::BitRate{50e9}, 25 * sim::kMicrosecond};
  config.migration.enabled = true;
  config.migration.make_before_break = two_phase;
  config.migration.deadline = 100 * sim::kMillisecond;
  config.migration.control_plane.loss_probability = 0.25;
  config.migration.control_plane.max_jitter = 1 * sim::kMillisecond;
  config.migration.control_plane.reorder_probability = 0.15;
  config.migration.control_plane.reorder_delay = 2 * sim::kMillisecond;
  return config;
}

/// Crashes landing 4 ms after the repack boundaries (epochs 8 and 14 —
/// see bench_e22), squarely inside the 8-TTI state transfers.
void schedule_crashes(core::Deployment& d) {
  const sim::Time epoch = 250 * sim::kMillisecond;
  d.fail_server_at(8 * epoch + 4 * sim::kMillisecond, 0);
  d.restore_server_at(8 * epoch + 404 * sim::kMillisecond, 0);
  d.fail_server_at(14 * epoch + 4 * sim::kMillisecond, 1);
  d.restore_server_at(14 * epoch + 404 * sim::kMillisecond, 1);
}

Kpi run_one(std::uint64_t seed, bool two_phase) {
  core::Deployment d(stress_config(seed, two_phase));
  schedule_crashes(d);
  d.run_for(4 * sim::kSecond);
  const auto k = d.kpis();
  Kpi out;
  out.subframes = k.subframes_processed;
  out.misses = k.deadline_misses;
  out.started = k.migrations_started;
  out.committed = k.migrations_committed;
  out.aborted = k.migrations_aborted;
  out.rolled_back = k.migrations_rolled_back;
  out.taken_over = k.migrations_taken_over;
  out.retries = k.migration_retries;
  out.deferred = k.migrations_deferred;
  out.stale = k.migration_stale_messages;
  out.blackout = k.migration_blackout_ttis;
  out.dual = k.migration_dual_executions;
  out.harq_retx = k.harq_retransmissions;
  out.handoff_ms = k.mean_handoff_latency_ms;
  if (const core::MigrationManager* m = d.migration())
    out.orphans = static_cast<std::uint64_t>(m->overdue());
  return out;
}

std::vector<Kpi> sweep(unsigned threads) {
  constexpr std::size_t kRuns = 6;
  std::vector<Kpi> out(kRuns);
  parallel_for_each(threads, kRuns, [&](unsigned, std::size_t i) {
    // Alternate protocol modes so naive break-before-make is raced too.
    out[i] = run_one(500 + i, i % 2 == 0);
  });
  return out;
}

TEST(MigrationStress, SweepIsThreadCountInvariant) {
  const auto serial = sweep(1);
  const auto parallel2 = sweep(2);
  const auto parallel8 = sweep(8);
  EXPECT_EQ(serial, parallel2);
  EXPECT_EQ(serial, parallel8);

  std::uint64_t started = 0, committed = 0, retries = 0;
  for (const auto& k : serial) {
    started += k.started;
    committed += k.committed;
    retries += k.retries;
    // The two hard invariants, per run: never two owners for one
    // cell-TTI, never a cell left without a settled owner.
    EXPECT_EQ(k.dual, 0u);
    EXPECT_EQ(k.orphans, 0u);
    EXPECT_GE(k.started, k.committed + k.aborted + k.rolled_back +
                             k.taken_over);
  }
  // The scenario is live: the storm actually migrated cells, and the
  // lossy control plane actually forced retries.
  EXPECT_GT(started, 0u);
  EXPECT_GT(committed, 0u);
  EXPECT_GT(retries, 0u);
}

/// Crash-during-transfer with the protocol on either side of the handoff:
/// both modes keep the hard invariants under the same crash schedule, and
/// only the naive baseline pays blackout TTIs for the clean runs' moves.
TEST(MigrationStress, CrashStormKeepsInvariantsInBothModes) {
  const Kpi two_phase = run_one(777, true);
  const Kpi naive = run_one(777, false);
  EXPECT_EQ(two_phase.dual, 0u);
  EXPECT_EQ(naive.dual, 0u);
  EXPECT_EQ(two_phase.orphans, 0u);
  EXPECT_EQ(naive.orphans, 0u);
  EXPECT_GT(two_phase.started, 0u);
  EXPECT_GT(naive.started, 0u);
  // Make-before-break is the whole point: the two-phase runs stay lit.
  EXPECT_LT(two_phase.blackout, naive.blackout);
}

}  // namespace
}  // namespace pran
