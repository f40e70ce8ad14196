// E22 — Migration storm: crash-safe two-phase cell handoff vs naive
// instant reassignment, under control-plane impairment.
//
// The paper's repartitioning story treats moving a cell between servers
// as free. It is not: a handoff must move HARQ soft-buffer state over
// the fronthaul and survive a management network that loses, delays and
// reorders PREPARE/COMMIT messages. This experiment measures what the
// two-phase protocol (core/migration.hpp) buys when many cells move at
// once:
//
//  (a) severity grid: a non-sticky placer plus fast diurnal drift forces
//      a repartition storm every epoch; each grid point runs the storm
//      under one control-plane severity (clean, loss, loss + jitter,
//      loss + reorder, crashes mid-transfer), once with the two-phase
//      protocol (make-before-break, lease fencing) and once with naive
//      instant reassignment (flip first, stream state after, eat the
//      blackout);
//  (b) invariants, asserted on every row: zero dual executions (one
//      cell-TTI granted to two servers is a ContractViolation before it
//      is a statistic) and zero orphaned cells (every migration begun
//      more than a deadline + grace ago has resolved — lost COMMITs must
//      die by lease expiry, not deadlock);
//  (c) acceptance: summed over the grid, the two-phase rows must show
//      strictly fewer blackout TTIs and no more air-interface damage
//      (deadline misses + HARQ-lost transport blocks) than the naive
//      rows — the measurable deadline-miss improvement the protocol
//      exists for.
//
// All runs are deterministic for a fixed seed and invariant in
// --threads: each grid point owns its deployment, its control-plane
// channel (own RNG substreams) and its result slot.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_guard.hpp"
#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/deployment.hpp"
#include "core/kpi_export.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace pran;

struct Severity {
  const char* label;
  double loss;
  sim::Time jitter;
  double reorder_p;
  sim::Time reorder_delay;
  bool crash;  ///< Crash servers mid-transfer (and restore them later).
};

const Severity kSeverities[] = {
    {"clean", 0.0, 0, 0.0, 0, false},
    {"loss 10%", 0.10, 0, 0.0, 0, false},
    {"loss 30%", 0.30, 0, 0.0, 0, false},
    {"loss 30% + jitter", 0.30, 2 * sim::kMillisecond, 0.0, 0, false},
    {"loss 15% + reorder", 0.15, 500 * sim::kMicrosecond, 0.20,
     3 * sim::kMillisecond, false},
    {"crash mid-transfer", 0.10, 0, 0.0, 0, true},
};

constexpr sim::Time kEpoch = 250 * sim::kMillisecond;

core::DeploymentConfig storm_config(bool two_phase, const Severity& s) {
  core::DeploymentConfig config;
  config.num_cells = 10;
  config.num_servers = 6;
  config.seed = 22;
  config.epoch = kEpoch;
  // Fast diurnal drift from the overnight trough through the morning ramp
  // plus a non-sticky first-fit placer: the active-server count and the
  // demand order both shuffle between epochs, so replans keep moving
  // cells — the storm under test (the E9 repack scenario).
  config.start_hour = 0.0;
  config.day_compression = 7200;
  config.placer = core::DeploymentConfig::PlacerKind::kFirstFitNoSticky;
  config.harq_retransmissions = true;
  // 10 cells of raw CPRI are ~18.4 Gbit/s: a 50G fibre runs at ~74%
  // utilisation, so ambient queueing stays clear of the HARQ budget and
  // the damage the table shows is the *migrations'* damage.
  config.shared_fronthaul =
      fronthaul::LinkParams{units::BitRate{50e9}, 25 * sim::kMicrosecond};

  config.migration.enabled = true;
  config.migration.make_before_break = two_phase;
  config.migration.deadline = 100 * sim::kMillisecond;
  config.migration.control_plane.loss_probability = s.loss;
  config.migration.control_plane.max_jitter = s.jitter;
  config.migration.control_plane.reorder_probability = s.reorder_p;
  config.migration.control_plane.reorder_delay = s.reorder_delay;
  return config;
}

/// Crash a server a few TTIs after an epoch boundary — squarely inside
/// the 8-TTI state transfers that replan just started — then restore it.
/// The diurnal ramp makes the controller repack at epochs 8 and 14 (the
/// overnight pile-up on servers 0-1 spreads out as the morning load
/// climbs), so those are the boundaries whose transfers the crash hits.
void schedule_crashes(core::Deployment& d) {
  d.fail_server_at(8 * kEpoch + 4 * sim::kMillisecond, 0);
  d.restore_server_at(8 * kEpoch + 404 * sim::kMillisecond, 0);
  d.fail_server_at(14 * kEpoch + 4 * sim::kMillisecond, 1);
  d.restore_server_at(14 * kEpoch + 404 * sim::kMillisecond, 1);
}

struct RunResult {
  core::DeploymentKpis kpis;
  telemetry::MetricsSnapshot metrics;
  std::uint64_t orphans = 0;      ///< Unresolved past deadline + grace.
  std::uint64_t msgs_lost = 0;    ///< Control-plane channel drops.
  int unresolved_at_end = 0;      ///< Active or settling when the run ended.
};

/// A migration begun more than deadline + grace ago that never reached a
/// terminal state is an orphaned cell — the protocol's liveness failure.
std::uint64_t count_orphans(const core::MigrationManager& m, sim::Time now,
                            sim::Time deadline) {
  const sim::Time grace = 200 * sim::kMillisecond;
  std::uint64_t n = 0;
  for (const core::MigrationRecord& rec : m.history())
    if (rec.resolved_at < 0 && rec.started_at + deadline + grace < now) ++n;
  return n;
}

/// Air-interface damage a handoff scheme causes: subframes that decoded
/// late, transport blocks lost outright, and HARQ retransmissions (every
/// blackout TTI forces one — spectrum spent re-sending what a live server
/// would have decoded the first time).
std::uint64_t air_damage(const core::DeploymentKpis& k) {
  return k.deadline_misses + k.lost_transport_blocks +
         k.harq_retransmissions;
}

int run_grid(unsigned threads, sim::Time duration) {
  constexpr std::size_t kModes = 2;  // [0] = naive, [1] = two-phase
  const std::size_t num_severities = std::size(kSeverities);
  std::vector<RunResult> results(kModes * num_severities);

  std::printf(
      "A: migration storm, 10 cells / 6 servers, non-sticky placer, epoch "
      "%lld ms, HARQ on, %.0f ms runs — two-phase protocol vs naive "
      "instant reassignment across the control-plane severity grid\n\n",
      static_cast<long long>(kEpoch / sim::kMillisecond),
      static_cast<double>(duration) / sim::kMillisecond);

  parallel_for_each(threads, results.size(), [&](unsigned, std::size_t i) {
    const bool two_phase = i >= num_severities;
    const Severity& s = kSeverities[i % num_severities];
    core::Deployment d(storm_config(two_phase, s));
    if (s.crash) schedule_crashes(d);
    d.run_for(duration);
    RunResult& r = results[i];
    r.kpis = d.kpis();
    const core::MigrationManager* m = d.migration();
    PRAN_CHECK(m != nullptr, "migration manager must be enabled");
    r.orphans = count_orphans(*m, d.now(), d.config().migration.deadline);
    r.msgs_lost = m->channel().messages_lost();
    r.unresolved_at_end = m->unresolved_cells();
    r.metrics = d.metrics().snapshot();
  });
  // Merged in grid order, so the exported gauges are --threads invariant.
  for (const RunResult& r : results) telemetry::registry().merge(r.metrics);

  Table table({"severity", "mode", "planned", "started", "committed",
               "aborted", "rolled", "takeover", "retries", "stale",
               "blackout", "handoff_ms", "miss+lost", "dual", "orphans"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const bool two_phase = i >= num_severities;
    const Severity& s = kSeverities[i % num_severities];
    const auto& k = results[i].kpis;
    table.row()
        .cell(s.label)
        .cell(two_phase ? "two-phase" : "naive")
        .cell(k.migrations)
        .cell(static_cast<long long>(k.migrations_started))
        .cell(static_cast<long long>(k.migrations_committed))
        .cell(static_cast<long long>(k.migrations_aborted))
        .cell(static_cast<long long>(k.migrations_rolled_back))
        .cell(static_cast<long long>(k.migrations_taken_over))
        .cell(static_cast<long long>(k.migration_retries))
        .cell(static_cast<long long>(k.migration_stale_messages))
        .cell(static_cast<long long>(k.migration_blackout_ttis))
        .cell(k.mean_handoff_latency_ms, 2)
        .cell(static_cast<long long>(air_damage(k)))
        .cell(static_cast<long long>(k.migration_dual_executions))
        .cell(static_cast<long long>(results[i].orphans));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: the naive rows go dark for the whole 8-TTI transfer on "
      "every move (blackout == 8 x committed), and each dark TTI owes "
      "HARQ debt; the two-phase rows keep the source executing through "
      "the transfer, so blackout only appears when loss actually delays "
      "a COMMIT past the lease fence — and even then the cell resolves "
      "by lease expiry, never by dual ownership\n\n");

  // --- Invariants and acceptance. ------------------------------------------
  bool invariants = true;
  std::uint64_t naive_blackout = 0, two_blackout = 0;
  std::uint64_t naive_damage = 0, two_damage = 0;
  std::uint64_t two_committed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const bool two_phase = i >= num_severities;
    const auto& k = results[i].kpis;
    if (k.migration_dual_executions != 0 || results[i].orphans != 0) {
      std::printf("INVARIANT VIOLATION at row %zu: dual=%llu orphans=%llu\n",
                  i,
                  static_cast<unsigned long long>(k.migration_dual_executions),
                  static_cast<unsigned long long>(results[i].orphans));
      invariants = false;
    }
    if (two_phase) {
      two_blackout += k.migration_blackout_ttis;
      two_damage += air_damage(k);
      two_committed += k.migrations_committed + k.migrations_taken_over;
    } else {
      naive_blackout += k.migration_blackout_ttis;
      naive_damage += air_damage(k);
    }
  }
  const bool storms_happened = two_committed > 0;
  const bool blackout_wins = two_blackout < naive_blackout;
  const bool damage_holds = two_damage <= naive_damage;

  Table verdict({"check", "naive", "two-phase", "verdict"});
  verdict.row()
      .cell("dual executions + orphans")
      .cell("0 required")
      .cell("0 required")
      .cell(invariants ? "zero everywhere" : "VIOLATED");
  verdict.row()
      .cell("blackout TTIs (grid total)")
      .cell(static_cast<long long>(naive_blackout))
      .cell(static_cast<long long>(two_blackout))
      .cell(blackout_wins ? "two-phase strictly lower" : "UNEXPECTED");
  verdict.row()
      .cell("misses + lost TBs (grid total)")
      .cell(static_cast<long long>(naive_damage))
      .cell(static_cast<long long>(two_damage))
      .cell(damage_holds ? "two-phase no worse" : "UNEXPECTED");
  std::printf("%s\n", verdict.render().c_str());
  return invariants && storms_happened && blackout_wins && damage_holds ? 0
                                                                        : 1;
}

// --- B: headline run for the exported snapshot. ----------------------------

void run_headline(sim::Time duration, const core::TimelineConfig& timeline) {
  std::printf(
      "B: headline — two-phase protocol under loss 10%% with crashes "
      "mid-transfer; migration.* counters and kpi.migration_* gauges go "
      "into the exported snapshot\n\n");
  auto config = storm_config(true, kSeverities[5]);
  config.timeline = timeline;
  core::Deployment d(config);
  schedule_crashes(d);
  d.run_for(duration);
  const auto k = d.kpis();
  Table table({"started", "committed", "aborted", "rolled", "takeover",
               "deferred", "blackout", "handoff_ms", "dual"});
  table.row()
      .cell(static_cast<long long>(k.migrations_started))
      .cell(static_cast<long long>(k.migrations_committed))
      .cell(static_cast<long long>(k.migrations_aborted))
      .cell(static_cast<long long>(k.migrations_rolled_back))
      .cell(static_cast<long long>(k.migrations_taken_over))
      .cell(static_cast<long long>(k.migrations_deferred))
      .cell(static_cast<long long>(k.migration_blackout_ttis))
      .cell(k.mean_handoff_latency_ms, 2)
      .cell(static_cast<long long>(k.migration_dual_executions));
  std::printf("%s\n", table.render().c_str());
  core::export_deployment(d, telemetry::registry());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("bench_e22_migration_storm",
              "E22: crash-safe cell migration — two-phase handoff with "
              "lease fencing vs naive instant reassignment, under "
              "control-plane impairment");
  flags.add_int("threads", static_cast<long>(ThreadPool::default_threads()),
                "worker threads for the severity grid");
  flags.add_int("duration-ms", 4000, "simulated milliseconds per run");
  flags.add_string("metrics-out", "",
                   "write a telemetry snapshot to this file (.json or .csv)");
  flags.add_string("trace-out", "",
                   "write Chrome trace-event JSON to this file");
  flags.add_string("timeline-out", "",
                   "stream per-window KPI samples from the headline run "
                   "as JSONL to this file");
  flags.add_string("postmortem-dir", "",
                   "directory for flight-recorder dumps from the headline "
                   "run");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }
  pran::bench::warn_if_not_release();
  const auto threads = static_cast<unsigned>(flags.get_int("threads"));
  const auto duration = flags.get_int("duration-ms") * sim::kMillisecond;

  core::TimelineConfig timeline;
  timeline.timeline_out = flags.get_string("timeline-out");
  timeline.postmortem_dir = flags.get_string("postmortem-dir");
  timeline.enabled =
      !timeline.timeline_out.empty() || !timeline.postmortem_dir.empty();
  timeline.window = 10 * sim::kMillisecond;

  std::printf("E22: migration storm under control-plane impairment\n\n");
  const int rc = run_grid(threads, duration);
  run_headline(duration, timeline);
  if (!flags.get_string("metrics-out").empty())
    pran::telemetry::write_metrics_file(flags.get_string("metrics-out"));
  if (!flags.get_string("trace-out").empty())
    pran::telemetry::write_chrome_trace_file(flags.get_string("trace-out"));
  return rc;
}
