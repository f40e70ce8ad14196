// Randomised stress/property tests for the executor: conservation,
// work-conservation, and policy invariants under arbitrary job mixes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cluster/executor.hpp"
#include "common/rng.hpp"

namespace pran::cluster {
namespace {

struct Scenario {
  sim::Engine engine;
  std::unique_ptr<Executor> executor;
  std::size_t submitted = 0;
};

lte::SubframeJob random_job(Rng& rng, int cell, sim::Time horizon) {
  lte::SubframeJob job;
  job.cell_id = cell;
  job.cost[lte::Stage::kDecode] = rng.uniform(0.001, 0.2);
  job.parallelism = static_cast<int>(rng.uniform_int(1, 8));
  job.release = rng.uniform_int(0, horizon);
  job.deadline = job.release + rng.uniform_int(1, 5) * sim::kMillisecond;
  job.tti = job.release / sim::kTti;
  return job;
}

class ExecutorStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecutorStress, ConservationAndOrderingInvariants) {
  Rng rng(GetParam() * 6364136223846793005ULL + 1);
  const int servers = 1 + static_cast<int>(rng.uniform_int(0, 2));
  const int cores = 1 + static_cast<int>(rng.uniform_int(0, 7));
  const bool edf = rng.bernoulli(0.5);
  const bool parallel = rng.bernoulli(0.5);

  sim::Engine engine;
  std::vector<ServerSpec> specs;
  for (int s = 0; s < servers; ++s) {
    ServerSpec spec{std::string("s").append(std::to_string(s)), cores,
                    rng.uniform(50.0, 200.0)};
    spec.max_job_parallelism = parallel ? cores : 1;
    specs.push_back(spec);
  }
  Executor ex(engine, specs,
              edf ? SchedPolicy::kEdf : SchedPolicy::kFifo);

  const std::size_t n_jobs = 200;
  const sim::Time horizon = 100 * sim::kMillisecond;
  std::size_t submitted = 0;
  for (std::size_t j = 0; j < n_jobs; ++j) {
    const int target = static_cast<int>(rng.uniform_int(0, servers - 1));
    const auto job = random_job(rng, static_cast<int>(j), horizon);
    // Some jobs are abandoned as compute outages at their release instead.
    if (rng.bernoulli(0.1)) {
      engine.schedule_at(job.release, [&ex, target, job] {
        ex.record_compute_outage(target, job);
      });
    } else {
      ex.submit(target, job);
    }
    ++submitted;
  }
  // Maybe fail (and maybe restore) one server mid-run.
  const bool with_failure = rng.bernoulli(0.4);
  if (with_failure) {
    const int victim = static_cast<int>(rng.uniform_int(0, servers - 1));
    engine.schedule_at(horizon / 2, [&ex, victim] { ex.fail_server(victim); });
  }
  engine.run();

  // Conservation: every submitted job has exactly one outcome.
  EXPECT_EQ(ex.outcomes().size(), submitted);
  const auto stats = ex.stats();
  EXPECT_EQ(stats.completed + stats.dropped + stats.compute_outages,
            submitted);

  std::map<int, int> per_cell;
  for (const auto& o : ex.outcomes()) {
    ++per_cell[o.job.cell_id];
    if (o.dropped || o.compute_outage) continue;
    // Sanity: starts respect releases; finishes follow starts.
    EXPECT_GE(o.start, o.job.release);
    EXPECT_GE(o.finish, o.start);
    EXPECT_GE(o.cores_used, 1);
    EXPECT_LE(o.cores_used, cores);
  }
  for (const auto& [cell, count] : per_cell) {
    (void)cell;
    EXPECT_EQ(count, 1);
  }

  // The running tally equals a rescan of the outcome log, bit for bit.
  Executor::Stats want;
  for (const auto& o : ex.outcomes()) {
    if (o.dropped) {
      ++want.dropped;
      continue;
    }
    if (o.compute_outage) {
      ++want.compute_outages;
      continue;
    }
    ++want.completed;
    if (o.missed_deadline()) ++want.missed;
    want.total_busy_seconds +=
        sim::to_seconds(o.finish - o.start) * o.cores_used;
  }
  EXPECT_EQ(stats.completed, want.completed);
  EXPECT_EQ(stats.missed, want.missed);
  EXPECT_EQ(stats.dropped, want.dropped);
  EXPECT_EQ(stats.compute_outages, want.compute_outages);
  EXPECT_EQ(stats.total_busy_seconds, want.total_busy_seconds);

  const sim::Time window =
      engine.now() > 0 ? engine.now() : sim::kMillisecond;
  for (int s = 0; s < servers; ++s) {
    // Nothing is in flight after run(), so utilisation is the server's
    // logged busy time clipped to the window, summed in completion order.
    double busy = 0.0;
    for (const auto& o : ex.outcomes()) {
      if (o.server_id != s || o.dropped || o.compute_outage) continue;
      busy += sim::to_seconds(std::min(o.finish, window) -
                              std::min(o.start, window)) *
              o.cores_used;
    }
    const double u = ex.utilization(s, window);
    EXPECT_EQ(u, busy / (sim::to_seconds(window) * static_cast<double>(cores)));
    // Utilisation is a valid fraction.
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorStress,
                         ::testing::Range<std::uint64_t>(0, 20));

class EdfDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EdfDominance, EdfNeverMissesMoreThanFifo) {
  // On identical single-core job streams with heterogeneous deadlines,
  // EDF's miss count must not exceed FIFO's (EDF is optimal on one core
  // for preemptive scheduling; non-preemptively it can in adversarial
  // cases lose, but on these random streams it should dominate — we allow
  // a small tolerance for the non-preemptive anomaly).
  // Moderate load (~0.6 utilisation): in deep overload everyone misses
  // everything and the comparison is noise.
  Rng rng(GetParam() * 2654435761ULL + 99);
  std::vector<lte::SubframeJob> jobs;
  for (int j = 0; j < 150; ++j) {
    auto job = random_job(rng, j, 50 * sim::kMillisecond);
    job.cost[lte::Stage::kDecode] = rng.uniform(0.001, 0.05);
    jobs.push_back(job);
  }

  auto run = [&](SchedPolicy policy) {
    sim::Engine engine;
    Executor ex(engine, {ServerSpec{"s", 1, 120.0}}, policy);
    for (const auto& job : jobs) ex.submit(0, job);
    engine.run();
    return ex.stats().missed;
  };
  const auto edf = run(SchedPolicy::kEdf);
  const auto fifo = run(SchedPolicy::kFifo);
  EXPECT_LE(edf, fifo + 3) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdfDominance,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace pran::cluster
