// Tests for the fault-injection subsystem: injector delivery semantics,
// health-monitor detection, controller flap quarantine, survivable
// placement, and the deployment-level fault KPIs.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "common/check.hpp"
#include "core/deployment.hpp"
#include "faults/health.hpp"
#include "faults/injector.hpp"

namespace pran {
namespace {

using core::Deployment;
using core::DeploymentConfig;

cluster::ServerSpec test_spec(int cores = 2) {
  cluster::ServerSpec spec;
  spec.name = "s";
  spec.cores = cores;
  spec.gops_per_core = 100.0;
  return spec;
}

lte::SubframeJob job_with(double gops, sim::Time release, sim::Time deadline,
                          int cell = 0, std::int64_t tti = 0) {
  lte::SubframeJob job;
  job.cell_id = cell;
  job.tti = tti;
  job.extra_gops = gops;
  job.release = release;
  job.deadline = deadline;
  return job;
}

struct Rig {
  sim::Engine engine;
  cluster::Executor executor;
  faults::FaultInjector injector;

  explicit Rig(int servers, std::uint64_t seed = 7)
      : executor(engine,
                 std::vector<cluster::ServerSpec>(
                     static_cast<std::size_t>(servers), test_spec()),
                 cluster::SchedPolicy::kEdf),
        injector(engine, executor, seed) {}
};

TEST(FaultInjector, ScriptedCrashRoundTrip) {
  Rig rig(2);
  faults::FaultEvent ev;
  ev.kind = faults::FaultKind::kCrash;
  ev.at = 10 * sim::kMillisecond;
  ev.duration = 20 * sim::kMillisecond;
  ev.servers = {1};
  rig.injector.schedule(ev);

  rig.engine.run_until(15 * sim::kMillisecond);
  EXPECT_TRUE(rig.injector.is_down(1));
  EXPECT_TRUE(rig.executor.is_failed(1));
  EXPECT_FALSE(rig.injector.is_down(0));

  rig.engine.run_until(40 * sim::kMillisecond);
  EXPECT_FALSE(rig.injector.is_down(1));
  EXPECT_FALSE(rig.executor.is_failed(1));
  ASSERT_EQ(rig.injector.log().size(), 1u);
  EXPECT_EQ(rig.injector.log()[0].server_id, 1);
  EXPECT_EQ(rig.injector.log()[0].at, 10 * sim::kMillisecond);
  EXPECT_EQ(rig.injector.log()[0].recovered_at, 30 * sim::kMillisecond);
  EXPECT_EQ(rig.injector.faults_delivered(), 1);
  EXPECT_EQ(rig.injector.crash_faults(), 1);
}

TEST(FaultInjector, DoubleCrashAndDoubleRestoreAreTracedNoOps) {
  Rig rig(2);
  faults::FaultEvent ev;
  ev.kind = faults::FaultKind::kCrash;
  ev.at = sim::kMillisecond;
  ev.servers = {0};
  rig.injector.schedule(ev);
  ev.at = 2 * sim::kMillisecond;  // second crash on an already-down server
  rig.injector.schedule(ev);
  rig.injector.schedule_restore(3 * sim::kMillisecond, 0);
  rig.injector.schedule_restore(4 * sim::kMillisecond, 0);  // already healthy
  rig.engine.run_until(5 * sim::kMillisecond);

  EXPECT_EQ(rig.injector.faults_delivered(), 1);
  EXPECT_FALSE(rig.executor.is_failed(0));
  // The ignored crash and the ignored restore leave no record: one fault,
  // closed by the first restore.
  ASSERT_EQ(rig.injector.log().size(), 1u);
  EXPECT_EQ(rig.injector.log()[0].at, sim::kMillisecond);
  EXPECT_EQ(rig.injector.log()[0].recovered_at, 3 * sim::kMillisecond);
}

TEST(FaultInjector, CallbackFiresBeforeExecutorStateChanges) {
  Rig rig(1);
  bool was_failed_at_callback = true;
  rig.injector.set_fault_callback([&](int server, faults::FaultKind) {
    was_failed_at_callback = rig.executor.is_failed(server);
  });
  faults::FaultEvent ev;
  ev.kind = faults::FaultKind::kCrash;
  ev.at = sim::kMillisecond;
  ev.servers = {0};
  rig.injector.schedule(ev);
  rig.engine.run_until(2 * sim::kMillisecond);
  EXPECT_FALSE(was_failed_at_callback);
  EXPECT_TRUE(rig.executor.is_failed(0));
}

TEST(FaultInjector, DegradeSlowsNewJobsOnly) {
  Rig rig(1);
  faults::FaultEvent ev;
  ev.kind = faults::FaultKind::kDegrade;
  ev.at = 10 * sim::kMillisecond;
  ev.duration = 40 * sim::kMillisecond;
  ev.degrade_factor = 0.5;
  ev.servers = {0};
  rig.injector.schedule(ev);

  // 0.1 Gops on a 100 Gops/s core = 1 ms nominal, 2 ms at half speed.
  rig.executor.submit(0, job_with(0.1, 0, 5 * sim::kMillisecond, 0, 0));
  rig.executor.submit(0, job_with(0.1, 20 * sim::kMillisecond,
                                  40 * sim::kMillisecond, 0, 1));
  rig.executor.submit(0, job_with(0.1, 60 * sim::kMillisecond,
                                  90 * sim::kMillisecond, 0, 2));
  rig.engine.run_until(100 * sim::kMillisecond);

  const auto& outs = rig.executor.outcomes();
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_EQ(outs[0].finish - outs[0].start, sim::kMillisecond);
  EXPECT_EQ(outs[1].finish - outs[1].start, 2 * sim::kMillisecond);
  EXPECT_EQ(outs[2].finish - outs[2].start, sim::kMillisecond);
  EXPECT_EQ(rig.injector.degrade_faults(), 1);
}

TEST(FaultInjector, CrashSupersedesDegrade) {
  Rig rig(1);
  faults::FaultEvent degrade;
  degrade.kind = faults::FaultKind::kDegrade;
  degrade.at = sim::kMillisecond;
  degrade.degrade_factor = 0.5;
  degrade.servers = {0};
  rig.injector.schedule(degrade);
  faults::FaultEvent crash;
  crash.kind = faults::FaultKind::kCrash;
  crash.at = 2 * sim::kMillisecond;
  crash.servers = {0};
  rig.injector.schedule(crash);
  rig.injector.schedule_restore(3 * sim::kMillisecond, 0);
  rig.engine.run_until(4 * sim::kMillisecond);

  // The degrade record was closed by the crash; the restore ends the
  // crash and returns the server at full speed.
  EXPECT_FALSE(rig.executor.is_failed(0));
  EXPECT_FALSE(rig.executor.is_degraded(0));
  ASSERT_EQ(rig.injector.log().size(), 2u);
  EXPECT_GE(rig.injector.log()[0].recovered_at, 0);
  EXPECT_GE(rig.injector.log()[1].recovered_at, 0);
}

TEST(FaultInjector, CorrelatedEventTakesDownTheGroup) {
  // A rack or power domain going down: one scripted crash naming several
  // servers takes them all at the same instant.
  Rig rig(4);
  faults::FaultEvent ev;
  ev.kind = faults::FaultKind::kCrash;
  ev.at = sim::kMillisecond;
  ev.servers = {0, 1};
  rig.injector.schedule(ev);
  rig.engine.run_until(2 * sim::kMillisecond);
  EXPECT_TRUE(rig.injector.is_down(0));
  EXPECT_TRUE(rig.injector.is_down(1));
  EXPECT_FALSE(rig.injector.is_down(2));
  EXPECT_EQ(rig.injector.crash_faults(), 2);
  ASSERT_EQ(rig.injector.log().size(), 2u);
  EXPECT_EQ(rig.injector.log()[0].at, rig.injector.log()[1].at);
}

TEST(FaultInjector, StochasticTimelineIsDeterministic) {
  using Record = std::tuple<int, int, sim::Time, sim::Time>;
  auto run = [](std::uint64_t seed) {
    Rig rig(4, seed);
    faults::StochasticFaultConfig cfg;
    cfg.mtbf_seconds = 0.2;
    cfg.mttr_seconds = 0.05;
    rig.injector.arm_stochastic(cfg);
    rig.engine.run_until(5 * sim::kSecond);
    std::vector<Record> log;
    for (const auto& r : rig.injector.log())
      log.emplace_back(static_cast<int>(r.kind), r.server_id, r.at,
                       r.recovered_at);
    return log;
  };
  const auto a = run(11);
  const auto b = run(11);
  const auto c = run(12);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Seed 11's first crashes, pinned: (kind, server, at, recovered_at) in
  // ns. Each crash draws from its server's substream in a fixed order, so
  // a change to the draws would move these times.
  const std::vector<Record> first = {
      {0, 2, 212914543, 218116663},
      {0, 2, 225203477, 234669005},
      {0, 1, 233122806, 351567022},
      {0, 3, 347965716, 429657907},
      {0, 0, 515656571, 536420148},
      {0, 1, 601723511, 689831881},
      {0, 3, 648055424, 754097610},
      {0, 2, 751198780, 764196043},
      {0, 3, 776729546, 801733341},
      {0, 0, 785241558, 809660142},
      {0, 1, 842098708, 849374821},
      {0, 0, 870768025, 917325466},
      {0, 0, 946367193, 1027397310},
      {0, 2, 1033153079, 1043850472},
      {0, 0, 1109559861, 1149902853},
      {0, 2, 1185683689, 1293465021},
      {0, 1, 1213822399, 1231017924},
      {0, 2, 1405991254, 1416541520},
      {0, 1, 1415866333, 1461091546},
      {0, 0, 1480780545, 1485358639},
  };
  ASSERT_GE(a.size(), first.size());
  EXPECT_EQ(std::vector<Record>(
                a.begin(), a.begin() + static_cast<std::ptrdiff_t>(first.size())),
            first);
}

TEST(HealthMonitor, DetectionLatencyIsBounded) {
  Rig rig(2);
  faults::HealthMonitorConfig mc;
  mc.heartbeat_period = 10 * sim::kMillisecond;
  mc.miss_threshold = 3;
  faults::HealthMonitor monitor(rig.engine, rig.executor, mc);
  sim::Time declared_down = -1, declared_up = -1;
  int recoveries = 0;
  monitor.set_down_callback([&](int, sim::Time at) { declared_down = at; });
  monitor.set_up_callback([&](int, sim::Time at) {
    declared_up = at;
    ++recoveries;
  });

  const sim::Time fault_at = 25 * sim::kMillisecond;
  faults::FaultEvent ev;
  ev.kind = faults::FaultKind::kCrash;
  ev.at = fault_at;
  ev.duration = 100 * sim::kMillisecond;
  ev.servers = {1};
  rig.injector.schedule(ev);
  rig.engine.run_until(300 * sim::kMillisecond);

  ASSERT_GE(declared_down, 0);
  const sim::Time latency = declared_down - fault_at;
  EXPECT_GT(latency, 0);
  EXPECT_LE(latency, (mc.miss_threshold + 1) * mc.heartbeat_period);
  EXPECT_EQ(monitor.detections(), 1);
  ASSERT_GE(declared_up, 0);
  EXPECT_GE(declared_up, 125 * sim::kMillisecond);
  EXPECT_EQ(recoveries, 1);
  EXPECT_FALSE(monitor.believes_down(1));
}

TEST(HealthMonitor, FlapShorterThanThresholdGoesUnnoticed) {
  Rig rig(1);
  faults::HealthMonitorConfig mc;
  mc.heartbeat_period = 10 * sim::kMillisecond;
  mc.miss_threshold = 3;
  faults::HealthMonitor monitor(rig.engine, rig.executor, mc);
  faults::FaultEvent ev;
  ev.kind = faults::FaultKind::kCrash;
  ev.at = 11 * sim::kMillisecond;
  ev.duration = 15 * sim::kMillisecond;  // back up after <2 beats
  ev.servers = {0};
  rig.injector.schedule(ev);
  rig.engine.run_until(200 * sim::kMillisecond);
  EXPECT_EQ(monitor.detections(), 0);
}

// --- Controller flap quarantine ------------------------------------------

cluster::ServerSpec budget_server(double gops_per_tti_budget) {
  return cluster::ServerSpec{"s", 1, gops_per_tti_budget * 1e3};
}

std::vector<core::CellDemand> demands(std::initializer_list<double> values) {
  std::vector<core::CellDemand> out;
  int id = 0;
  for (double v : values) out.push_back({id++, v, v * 2.0});
  return out;
}

core::ControllerConfig quarantine_config() {
  core::ControllerConfig config;
  config.headroom = 1.0;
  config.demand_safety = 1.0;
  config.quarantine = true;
  return config;
}

TEST(Controller, FlapQuarantineWithExponentialBackoff) {
  // One failure a second: the newest kFlapThreshold stay inside the window.
  static_assert(core::kFlapThreshold * sim::kSecond < core::kFlapWindow);
  core::Controller ctrl(quarantine_config(),
                        std::make_unique<core::FirstFitPlacer>(),
                        {budget_server(1.0), budget_server(1.0)},
                        demands({0.4, 0.4}));
  ASSERT_TRUE(ctrl.replan().feasible);

  // kFlapThreshold - 1 fail/recover cycles inside the window: accepted.
  sim::Time t = 0;
  for (int i = 1; i < core::kFlapThreshold; ++i) {
    t += sim::kSecond;
    ctrl.handle_failure(1, t);
    EXPECT_TRUE(ctrl.handle_recovery(1, t + 100).accepted);
  }

  // The kFlapThreshold-th failure inside the window: recovery refused for
  // the base backoff.
  t += sim::kSecond;
  ctrl.handle_failure(1, t);
  const auto first = ctrl.handle_recovery(1, t);
  EXPECT_FALSE(first.accepted);
  EXPECT_EQ(first.quarantined_until, t + core::kQuarantineBase);
  EXPECT_TRUE(ctrl.server_quarantined(1));
  EXPECT_FALSE(ctrl.server_available(1));

  // Not released before the backoff expires; released after.
  EXPECT_EQ(ctrl.release_quarantines(first.quarantined_until - 1), 0);
  EXPECT_EQ(ctrl.release_quarantines(first.quarantined_until), 1);
  EXPECT_TRUE(ctrl.server_available(1));
  EXPECT_FALSE(ctrl.server_quarantined(1));

  // Still flapping: the next refusal doubles the backoff.
  t += sim::kSecond;
  ctrl.handle_failure(1, t);
  const auto second = ctrl.handle_recovery(1, t);
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.quarantined_until,
            t + static_cast<sim::Time>(core::kQuarantineBackoffMultiplier *
                                       core::kQuarantineBase));
}

TEST(Controller, AcceptedRecoveryOutsideWindowResetsBackoff) {
  core::Controller ctrl(quarantine_config(),
                        std::make_unique<core::FirstFitPlacer>(),
                        {budget_server(1.0), budget_server(1.0)},
                        demands({0.4}));
  ASSERT_TRUE(ctrl.replan().feasible);
  for (int round = 0; round < 3; ++round) {
    // Failures 100 s apart: the flap window never holds two of them.
    const sim::Time t = (1 + 100 * round) * sim::kSecond;
    ctrl.handle_failure(1, t);
    EXPECT_TRUE(ctrl.handle_recovery(1, t + sim::kSecond).accepted);
    EXPECT_FALSE(ctrl.server_quarantined(1));
  }
}

TEST(Controller, FailureWhileQuarantinedIsHandled) {
  core::Controller ctrl(quarantine_config(),
                        std::make_unique<core::FirstFitPlacer>(),
                        {budget_server(1.0), budget_server(1.0)},
                        demands({0.4}));
  ASSERT_TRUE(ctrl.replan().feasible);
  for (int i = 1; i <= core::kFlapThreshold; ++i) {
    ctrl.handle_failure(1, i * sim::kSecond);
    ctrl.handle_recovery(1, i * sim::kSecond);
  }
  ASSERT_TRUE(ctrl.server_quarantined(1));

  // The quarantined server dies again: no cells to rescue, no throw.
  EXPECT_EQ(ctrl.handle_failure(1, 4 * sim::kSecond), 0);
  EXPECT_FALSE(ctrl.server_quarantined(1));
  EXPECT_FALSE(ctrl.server_available(1));
  // Its eventual recovery goes through the flap logic again.
  EXPECT_FALSE(ctrl.handle_recovery(1, 4 * sim::kSecond + 1).accepted);
}

// --- Survivable placement -------------------------------------------------

TEST(Placement, SurvivableFirstFitSurvivesAnySingleFailure) {
  core::PlacementProblem problem;
  problem.headroom = 1.0;
  problem.cells = demands({0.5, 0.5, 0.5, 0.5});
  for (int s = 0; s < 4; ++s) problem.servers.push_back(budget_server(1.0));

  core::FirstFitPlacer placer;
  const auto plain = placer.place(problem);
  ASSERT_TRUE(plain.feasible);
  // Plain FFD packs two full servers: losing either strands its cells.
  EXPECT_EQ(plain.active_servers(), 2);
  EXPECT_FALSE(core::placement_survives_any_single_failure(
      problem, plain.server_of_cell));

  problem.survivable = true;
  const auto safe = placer.place(problem);
  ASSERT_TRUE(safe.feasible);
  EXPECT_TRUE(core::placement_survives_any_single_failure(
      problem, safe.server_of_cell));
  EXPECT_GT(safe.active_servers(), plain.active_servers());
}

TEST(Placement, SurvivableMilpReservesSpareCapacity) {
  core::PlacementProblem problem;
  problem.headroom = 1.0;
  problem.cells = demands({0.3, 0.3, 0.3, 0.3, 0.3, 0.3});
  for (int s = 0; s < 4; ++s) problem.servers.push_back(budget_server(1.0));

  core::MilpPlacer placer;
  const auto plain = placer.place(problem);
  ASSERT_TRUE(plain.feasible);
  EXPECT_EQ(plain.active_servers(), 2);

  problem.survivable = true;
  const auto safe = placer.place(problem);
  ASSERT_TRUE(safe.feasible);
  EXPECT_GE(safe.active_servers(), 3);
  EXPECT_TRUE(core::placement_survives_any_single_failure(
      problem, safe.server_of_cell));
}

TEST(Placement, SurvivableNeedsAtLeastTwoServers) {
  core::PlacementProblem problem;
  problem.headroom = 1.0;
  problem.survivable = true;
  problem.cells = demands({0.3});
  problem.servers.push_back(budget_server(1.0));
  core::MilpPlacer milp;
  EXPECT_FALSE(milp.place(problem).feasible);
  core::FirstFitPlacer ffd;
  EXPECT_FALSE(ffd.place(problem).feasible);
}

// --- Deployment integration ----------------------------------------------

DeploymentConfig small_config() {
  DeploymentConfig config;
  config.num_cells = 4;
  config.num_servers = 3;
  config.seed = 5;
  config.start_hour = 12.0;
  config.epoch = 200 * sim::kMillisecond;
  return config;
}

TEST(DeploymentFaults, OracleModeSeesNoBlindWindow) {
  auto config = small_config();
  config.num_servers = 4;
  Deployment d(config);
  d.run_for(200 * sim::kMillisecond);
  const int victim = d.controller().server_of(0);
  d.fail_server_at(d.now() + 10 * sim::kMillisecond, victim);
  d.run_for(300 * sim::kMillisecond);
  const auto kpis = d.kpis();
  EXPECT_EQ(kpis.blind_window_drops, 0u);
  EXPECT_EQ(kpis.faults_injected, 1);
  EXPECT_EQ(kpis.fault_detections, 1);
  EXPECT_DOUBLE_EQ(kpis.mean_detection_latency_ms, 0.0);
  EXPECT_EQ(kpis.failover_outage_cells, 0);
}

TEST(DeploymentFaults, DelayedDetectionCostsBlindWindowDrops) {
  auto config = small_config();
  config.num_servers = 4;
  config.heartbeat_period = 20 * sim::kMillisecond;
  config.heartbeat_miss_threshold = 3;
  Deployment d(config);
  d.run_for(200 * sim::kMillisecond);
  const int victim = d.controller().server_of(0);
  ASSERT_GE(victim, 0);
  d.fail_server_at(d.now() + 10 * sim::kMillisecond, victim);
  d.run_for(500 * sim::kMillisecond);
  const auto kpis = d.kpis();
  // Subframes kept flowing to the corpse until the monitor declared it.
  EXPECT_GT(kpis.blind_window_drops, 0u);
  EXPECT_EQ(kpis.fault_detections, 1);
  EXPECT_GT(kpis.mean_detection_latency_ms, 0.0);
  EXPECT_LE(kpis.mean_detection_latency_ms, 80.0);
  // After detection the cells live elsewhere.
  EXPECT_NE(d.controller().server_of(0), victim);
}

TEST(DeploymentFaults, ScriptedFaultApiValidatesAtCallTime) {
  Deployment d(small_config());
  d.run_for(50 * sim::kMillisecond);
  EXPECT_THROW(d.fail_server_at(d.now(), 99), pran::ContractViolation);
  EXPECT_THROW(d.fail_server_at(d.now(), -1), pran::ContractViolation);
  EXPECT_THROW(d.fail_server_at(d.now() - sim::kMillisecond, 0),
               pran::ContractViolation);
  EXPECT_THROW(d.restore_server_at(d.now(), 99), pran::ContractViolation);
  EXPECT_THROW(d.restore_server_at(d.now() - sim::kMillisecond, 0),
               pran::ContractViolation);

  // Double-fail and restore-of-healthy are no-ops, not crashes.
  const int victim = d.controller().server_of(0);
  d.fail_server_at(d.now() + sim::kMillisecond, victim);
  d.fail_server_at(d.now() + 2 * sim::kMillisecond, victim);
  d.restore_server_at(d.now() + 3 * sim::kMillisecond, victim);
  d.restore_server_at(d.now() + 4 * sim::kMillisecond, victim);
  d.run_for(10 * sim::kMillisecond);
  EXPECT_EQ(d.kpis().faults_injected, 1);
  EXPECT_FALSE(d.executor().is_failed(victim));
}

TEST(DeploymentFaults, DroppedJobsSettleTheirHarqDebt) {
  // Kill every server: the drops cannot be resubmitted anywhere, so with
  // HARQ modelling on they must surface as retx/lost transport blocks
  // instead of silently vanishing (the old completion-callback bypass).
  auto config = small_config();
  config.num_servers = 2;
  config.harq_retransmissions = true;
  Deployment d(config);
  d.run_for(200 * sim::kMillisecond);
  d.fail_server_at(d.now() + sim::kMillisecond, 0);
  d.fail_server_at(d.now() + sim::kMillisecond, 1);
  d.run_for(200 * sim::kMillisecond);
  const auto kpis = d.kpis();
  EXPECT_GT(kpis.dropped, 0u);
  EXPECT_GT(kpis.lost_transport_blocks, 0u);
}

TEST(DeploymentFaults, DropResubmissionPreservesSubframes) {
  // Oracle failover with a live target: every in-flight drop whose
  // deadline has not passed is resubmitted and completes exactly once.
  auto config = small_config();
  config.num_servers = 4;
  config.harq_retransmissions = true;
  Deployment d(config);
  d.run_for(200 * sim::kMillisecond);
  const int victim = d.controller().server_of(0);
  d.fail_server_at(d.now() + 10 * sim::kMillisecond, victim);
  d.run_for(300 * sim::kMillisecond);

  std::set<std::tuple<int, std::int64_t, int>> completed;
  std::uint64_t dropped = 0, duplicate = 0, rescued = 0;
  for (const auto& o : d.executor().outcomes()) {
    if (o.dropped) {
      ++dropped;
      continue;
    }
    const auto key =
        std::make_tuple(o.job.cell_id, o.job.tti, o.job.harq_retx);
    if (!completed.insert(key).second) ++duplicate;
  }
  for (const auto& o : d.executor().outcomes())
    if (o.dropped &&
        completed.count(
            std::make_tuple(o.job.cell_id, o.job.tti, o.job.harq_retx)))
      ++rescued;
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(duplicate, 0u);  // each (cell, tti, retx) runs at most once
  EXPECT_EQ(rescued, dropped);  // all in-flight drops were re-dispatched
}

TEST(DeploymentFaults, ExpiredDropsAreNotResubmitted) {
  // Degrade the victim so hard that queued jobs outlive their deadlines,
  // then crash it: expired drops must go to the HARQ path, not back into
  // the cluster.
  auto config = small_config();
  config.num_servers = 4;
  config.harq_retransmissions = true;
  Deployment d(config);
  d.run_for(100 * sim::kMillisecond);
  const int victim = d.controller().server_of(0);
  faults::FaultEvent degrade;
  degrade.kind = faults::FaultKind::kDegrade;
  degrade.at = d.now() + sim::kMillisecond;
  degrade.degrade_factor = 0.02;  // 50x slowdown: the queue backs up
  degrade.servers = {victim};
  d.injector().schedule(degrade);
  d.fail_server_at(d.now() + 60 * sim::kMillisecond, victim);
  d.run_for(400 * sim::kMillisecond);

  const auto kpis = d.kpis();
  EXPECT_GT(kpis.dropped, 0u);
  // The expired transport blocks owe retransmissions (or are lost).
  EXPECT_GT(kpis.harq_retransmissions + kpis.lost_transport_blocks, 0u);
  std::set<std::tuple<int, std::int64_t, int>> completed;
  for (const auto& o : d.executor().outcomes()) {
    if (o.dropped) continue;
    EXPECT_TRUE(
        completed
            .insert(std::make_tuple(o.job.cell_id, o.job.tti, o.job.harq_retx))
            .second);
  }
}

TEST(DeploymentFaults, StochasticFaultsAreDeterministicAtDeploymentLevel) {
  auto run = [] {
    auto config = small_config();
    config.num_servers = 4;
    config.stochastic_faults.mtbf_seconds = 0.3;
    config.stochastic_faults.mttr_seconds = 0.05;
    config.heartbeat_period = 10 * sim::kMillisecond;
    Deployment d(config);
    d.run_for(2 * sim::kSecond);
    return d.kpis();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_GT(a.faults_injected, 0);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.subframes_processed, b.subframes_processed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.blind_window_drops, b.blind_window_drops);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_DOUBLE_EQ(a.mean_detection_latency_ms, b.mean_detection_latency_ms);
}

TEST(DeploymentFaults, SurvivablePlacementEliminatesSingleFailureOutage) {
  auto config = small_config();
  config.num_servers = 4;
  config.controller.survivable = true;
  for (int victim = 0; victim < config.num_servers; ++victim) {
    Deployment d(config);
    d.run_for(200 * sim::kMillisecond);
    d.fail_server_at(d.now() + 10 * sim::kMillisecond, victim);
    d.run_for(200 * sim::kMillisecond);
    EXPECT_EQ(d.kpis().failover_outage_cells, 0) << "victim " << victim;
  }
}

TEST(DeploymentFaults, QuarantineSuppressesFlapChurn) {
  auto flapping = [](bool quarantine) {
    auto config = small_config();
    config.num_servers = 3;
    // Non-sticky FFD re-packs from scratch every epoch, so availability
    // flaps translate directly into migration churn.
    config.placer = DeploymentConfig::PlacerKind::kFirstFitNoSticky;
    config.controller.quarantine = quarantine;
    Deployment d(config);
    // Six fail/restore cycles on the server hosting cell 0.
    d.run_for(100 * sim::kMillisecond);
    const int victim = d.controller().server_of(0);
    for (int i = 0; i < 6; ++i) {
      const sim::Time base = d.now() + 50 * sim::kMillisecond;
      d.fail_server_at(base + i * 300 * sim::kMillisecond, victim);
      d.restore_server_at(base + i * 300 * sim::kMillisecond +
                              100 * sim::kMillisecond,
                          victim);
    }
    d.run_for(3 * sim::kSecond);
    return d.kpis();
  };
  const auto churny = flapping(false);
  const auto calm = flapping(true);
  EXPECT_EQ(churny.quarantine_events, 0);
  EXPECT_GT(calm.quarantine_events, 0);
  EXPECT_LT(calm.migrations, churny.migrations);
}

}  // namespace
}  // namespace pran
