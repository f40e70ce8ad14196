// Tests for the compute-cluster executor.

#include <gtest/gtest.h>

#include <map>

#include "cluster/executor.hpp"
#include "common/check.hpp"

namespace pran::cluster {
namespace {

lte::SubframeJob make_job(int cell, double gops, sim::Time release,
                          sim::Time deadline) {
  lte::SubframeJob job;
  job.cell_id = cell;
  job.cost[lte::Stage::kDecode] = gops;
  job.release = release;
  job.deadline = deadline;
  return job;
}

ServerSpec one_core(double gops = 100.0) {
  return ServerSpec{"s", 1, gops};
}

TEST(Executor, RunsJobToCompletion) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  // 0.1 Gop on a 100 GOPS core = 1 ms.
  ex.submit(0, make_job(1, 0.1, 0, 10 * sim::kMillisecond));
  engine.run();
  ASSERT_EQ(ex.outcomes().size(), 1u);
  const auto& o = ex.outcomes()[0];
  EXPECT_EQ(o.start, 0);
  EXPECT_EQ(o.finish, sim::kMillisecond);
  EXPECT_FALSE(o.missed_deadline());
  EXPECT_FALSE(o.dropped);
  EXPECT_EQ(ex.stats().completed, 1u);
}

TEST(Executor, HonoursReleaseTime) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  ex.submit(0, make_job(1, 0.05, 3 * sim::kMillisecond, 100 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(ex.outcomes()[0].start, 3 * sim::kMillisecond);
}

TEST(Executor, DetectsDeadlineMiss) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  // 0.5 Gop = 5 ms, deadline at 3 ms.
  ex.submit(0, make_job(1, 0.5, 0, 3 * sim::kMillisecond));
  engine.run();
  EXPECT_TRUE(ex.outcomes()[0].missed_deadline());
  EXPECT_EQ(ex.stats().missed, 1u);
  EXPECT_DOUBLE_EQ(ex.stats().miss_ratio(), 1.0);
}

TEST(Executor, EdfOrdersByDeadline) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  // Occupy the core, then queue two jobs with inverted deadline order.
  ex.submit(0, make_job(0, 0.1, 0, 50 * sim::kMillisecond));
  ex.submit(0, make_job(1, 0.1, 0, 40 * sim::kMillisecond));  // later deadline
  ex.submit(0, make_job(2, 0.1, 0, 5 * sim::kMillisecond));   // earliest
  engine.run();
  ASSERT_EQ(ex.outcomes().size(), 3u);
  EXPECT_EQ(ex.outcomes()[0].job.cell_id, 0);  // was running
  EXPECT_EQ(ex.outcomes()[1].job.cell_id, 2);  // EDF picks earliest deadline
  EXPECT_EQ(ex.outcomes()[2].job.cell_id, 1);
}

TEST(Executor, FifoIgnoresDeadlines) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kFifo);
  ex.submit(0, make_job(0, 0.1, 0, 50 * sim::kMillisecond));
  ex.submit(0, make_job(1, 0.1, 0, 40 * sim::kMillisecond));
  ex.submit(0, make_job(2, 0.1, 0, 5 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(ex.outcomes()[1].job.cell_id, 1);
  EXPECT_EQ(ex.outcomes()[2].job.cell_id, 2);
}

TEST(Executor, MultiCoreRunsInParallel) {
  sim::Engine engine;
  Executor ex(engine, {ServerSpec{"s", 2, 100.0}}, SchedPolicy::kEdf);
  for (int i = 0; i < 2; ++i)
    ex.submit(0, make_job(i, 0.1, 0, 10 * sim::kMillisecond));
  engine.run();
  // Both 1 ms jobs finish at t=1ms on separate cores.
  EXPECT_EQ(ex.outcomes()[0].finish, sim::kMillisecond);
  EXPECT_EQ(ex.outcomes()[1].finish, sim::kMillisecond);
}

TEST(Executor, QueueingDelaysSecondJobOnOneCore) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  for (int i = 0; i < 2; ++i)
    ex.submit(0, make_job(i, 0.1, 0, 10 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(ex.outcomes()[1].finish, 2 * sim::kMillisecond);
  EXPECT_EQ(ex.outcomes()[1].latency(), 2 * sim::kMillisecond);
}

TEST(Executor, FailureDropsQueuedAndRunning) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  int drops = 0;
  ex.set_completion_callback([&](const JobOutcome& o) { drops += o.dropped; });
  ex.submit(0, make_job(0, 1.0, 0, 50 * sim::kMillisecond));  // 10 ms run
  ex.submit(0, make_job(1, 0.1, 0, 50 * sim::kMillisecond));  // queued
  engine.schedule_at(2 * sim::kMillisecond, [&] { ex.fail_server(0); });
  engine.run();
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(ex.stats().dropped, 2u);
  EXPECT_EQ(ex.stats().completed, 0u);
  EXPECT_TRUE(ex.is_failed(0));
}

TEST(Executor, SubmitToFailedServerDropsImmediately) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  ex.fail_server(0);
  ex.submit(0, make_job(0, 0.1, 0, 10 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(ex.stats().dropped, 1u);
}

TEST(Executor, RestoreAllowsNewWork) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  ex.fail_server(0);
  ex.restore_server(0);
  ex.submit(0, make_job(0, 0.1, 0, 10 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(ex.stats().completed, 1u);
  EXPECT_THROW(ex.restore_server(0), pran::ContractViolation);
}

TEST(Executor, CrashedJobsCompletionIsIgnoredAfterRestore) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  std::vector<int> outcomes_per_cell(2, 0);
  ex.set_completion_callback(
      [&](const JobOutcome& o) { ++outcomes_per_cell.at(o.job.cell_id); });
  // Cell 0's job runs 0..10 ms but the server crashes at 2 ms; cell 1's
  // job runs 4..14 ms on the restored server, across the 10 ms at which
  // the aborted job would have finished.
  ex.submit(0, make_job(0, 1.0, 0, 50 * sim::kMillisecond));
  engine.schedule_at(2 * sim::kMillisecond, [&] { ex.fail_server(0); });
  engine.schedule_at(3 * sim::kMillisecond, [&] { ex.restore_server(0); });
  ex.submit(0, make_job(1, 1.0, 4 * sim::kMillisecond, 50 * sim::kMillisecond));
  EXPECT_NO_THROW(engine.run());

  EXPECT_EQ(outcomes_per_cell, (std::vector<int>{1, 1}));
  ASSERT_EQ(ex.outcomes().size(), 2u);
  EXPECT_EQ(ex.outcomes()[0].job.cell_id, 0);
  EXPECT_TRUE(ex.outcomes()[0].dropped);
  EXPECT_EQ(ex.outcomes()[1].job.cell_id, 1);
  EXPECT_FALSE(ex.outcomes()[1].dropped);
  EXPECT_EQ(ex.outcomes()[1].start, 4 * sim::kMillisecond);
  EXPECT_EQ(ex.outcomes()[1].finish, 14 * sim::kMillisecond);
}

TEST(Executor, DropThatSettlesAsOutageReportsBothOutcomes) {
  // The completion callback may record an outcome of its own from a drop,
  // as Deployment's does when a lost job settles as a compute outage. It
  // must still see every outcome exactly once: each drop and each outage.
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0), one_core(100.0)}, SchedPolicy::kEdf);
  std::map<int, int> reports_per_cell;
  ex.set_completion_callback([&](const JobOutcome& o) {
    ++reports_per_cell[o.job.cell_id];
    EXPECT_EQ(o.dropped, o.job.cell_id < 100);
    EXPECT_EQ(o.compute_outage, o.job.cell_id >= 100);
    if (!o.dropped) return;
    lte::SubframeJob outage = o.job;
    outage.cell_id += 100;
    ex.record_compute_outage(1, outage);
  });
  ex.submit(0, make_job(7, 1.0, 0, 50 * sim::kMillisecond));  // running
  ex.submit(0, make_job(8, 0.1, 0, 50 * sim::kMillisecond));  // queued
  engine.schedule_at(2 * sim::kMillisecond, [&] { ex.fail_server(0); });
  ex.submit(0, make_job(9, 0.1, 3 * sim::kMillisecond,  // after the crash
                        50 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(reports_per_cell,
            (std::map<int, int>{
                {7, 1}, {8, 1}, {9, 1}, {107, 1}, {108, 1}, {109, 1}}));
  EXPECT_EQ(ex.stats().dropped, 3u);
  EXPECT_EQ(ex.stats().compute_outages, 3u);
}

TEST(Executor, FailTwiceIsRejected) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  ex.fail_server(0);
  EXPECT_THROW(ex.fail_server(0), pran::ContractViolation);
}

TEST(Executor, CompletionCallbackFires) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  int completions = 0;
  ex.set_completion_callback([&](const JobOutcome& o) {
    ++completions;
    EXPECT_FALSE(o.dropped);
  });
  ex.submit(0, make_job(0, 0.01, 0, 10 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(completions, 1);
}

TEST(Executor, UtilizationAccountsBusyTime) {
  sim::Engine engine;
  Executor ex(engine, {ServerSpec{"s", 2, 100.0}}, SchedPolicy::kEdf);
  ex.submit(0, make_job(0, 0.2, 0, 100 * sim::kMillisecond));  // 2 ms
  ex.submit(0, make_job(1, 0.2, 0, 100 * sim::kMillisecond));  // 2 ms
  engine.run();
  // 4 ms of core time over a 10 ms window on 2 cores = 0.2.
  EXPECT_NEAR(ex.utilization(0, 10 * sim::kMillisecond), 0.2, 1e-9);
  // A window must reach now(): the busy tally has no finish times to clip.
  EXPECT_THROW(ex.utilization(0, engine.now() - 1), pran::ContractViolation);
}

TEST(Executor, PerServerStats) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0), one_core(100.0)}, SchedPolicy::kEdf);
  // Per-server outcomes are the caller's to count, from the callback.
  int completed[2] = {0, 0};
  int missed[2] = {0, 0};
  ex.set_completion_callback([&](const JobOutcome& o) {
    ASSERT_FALSE(o.dropped || o.compute_outage);
    ++completed[o.server_id];
    if (o.missed_deadline()) ++missed[o.server_id];
  });
  ex.submit(0, make_job(0, 0.1, 0, 10 * sim::kMillisecond));
  ex.submit(1, make_job(1, 0.5, 0, sim::kMillisecond));  // will miss
  engine.run();
  EXPECT_EQ(completed[0], 1);
  EXPECT_EQ(missed[0], 0);
  EXPECT_EQ(completed[1], 1);
  EXPECT_EQ(missed[1], 1);
}

TEST(Executor, BacklogTtisTracksPendingWork) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  EXPECT_DOUBLE_EQ(ex.backlog_ttis(0), 0.0);
  // Three 0.05 Gop jobs: one starts on the single core, two stay queued.
  for (int i = 0; i < 3; ++i)
    ex.submit(0, make_job(i, 0.05, 0, 50 * sim::kMillisecond));
  engine.run_until(1);
  // 0.1 Gop pending vs 0.1 Gop/TTI whole-server throughput = 1 TTI of
  // backlog — the overload controller's pressure unit.
  EXPECT_DOUBLE_EQ(ex.pending_gops(0), 0.1);
  EXPECT_DOUBLE_EQ(ex.backlog_ttis(0), 1.0);
  // A degraded clock stretches the same backlog proportionally.
  ex.degrade_server(0, 0.5);
  EXPECT_DOUBLE_EQ(ex.backlog_ttis(0), 2.0);
  ex.restore_speed(0);
  engine.run();
  EXPECT_DOUBLE_EQ(ex.backlog_ttis(0), 0.0);
}

TEST(Executor, ComputeOutageIsItsOwnOutcome) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  int completions = 0;
  bool saw_outage_flag = false;
  bool saw_dropped_flag = false;
  int outage_server = -1;
  ex.set_completion_callback([&](const JobOutcome& o) {
    ++completions;
    saw_outage_flag = o.compute_outage;
    saw_dropped_flag = o.dropped;
    outage_server = o.server_id;
  });
  ex.record_compute_outage(0, make_job(3, 0.2, 0, sim::kMillisecond));
  ASSERT_EQ(ex.outcomes().size(), 1u);
  const auto& o = ex.outcomes()[0];
  EXPECT_TRUE(o.compute_outage);
  EXPECT_FALSE(o.dropped);
  // An abandoned job never ran: it is neither a miss nor a drop.
  EXPECT_FALSE(o.missed_deadline());
  // HARQ accounting rides the completion callback; its one report is not
  // a drop, which stays reserved for fault-induced loss.
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(saw_outage_flag);
  EXPECT_FALSE(saw_dropped_flag);
  EXPECT_EQ(ex.stats().compute_outages, 1u);
  EXPECT_EQ(ex.stats().completed, 0u);
  EXPECT_EQ(ex.stats().dropped, 0u);
  EXPECT_DOUBLE_EQ(ex.stats().compute_outage_ratio(), 1.0);
  EXPECT_EQ(outage_server, 0);
  EXPECT_THROW(ex.record_compute_outage(9, make_job(0, 0.1, 0, 1)),
               pran::ContractViolation);
}

TEST(Executor, ComputeOutageExcludedFromUtilization) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  ex.submit(0, make_job(0, 0.1, 0, 10 * sim::kMillisecond));  // 1 ms busy
  ex.record_compute_outage(0, make_job(1, 5.0, 0, sim::kMillisecond));
  engine.run();
  // The abandoned 5 Gop job burned zero core time.
  EXPECT_DOUBLE_EQ(ex.utilization(0, 2 * sim::kMillisecond), 0.5);
  const auto stats = ex.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.compute_outages, 1u);
  // Ratio over all settled jobs: 1 outage of 2.
  EXPECT_DOUBLE_EQ(stats.compute_outage_ratio(), 0.5);
}

TEST(Executor, ValidatesServerIds) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  EXPECT_THROW(ex.submit(1, make_job(0, 0.1, 0, 1)), pran::ContractViolation);
  EXPECT_THROW(ex.spec(-1), pran::ContractViolation);
  EXPECT_THROW(Executor(engine, {}, SchedPolicy::kEdf),
               pran::ContractViolation);
}

TEST(Executor, ZeroCostJobCompletesInstantly) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  ex.submit(0, make_job(0, 0.0, sim::kMillisecond, 2 * sim::kMillisecond));
  engine.run();
  ASSERT_EQ(ex.stats().completed, 1u);
  EXPECT_EQ(ex.outcomes()[0].finish, sim::kMillisecond);
}

TEST(ServerSpec, GopsPerTti) {
  ServerSpec spec{"s", 8, 150.0};
  EXPECT_NEAR(spec.gops_per_tti(), 1.2, 1e-12);
}

}  // namespace
}  // namespace pran::cluster
