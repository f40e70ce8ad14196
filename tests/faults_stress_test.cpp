// Deterministic fault-injection stress: many deployments with stochastic
// faults, flap quarantine and delayed detection, swept in parallel. The
// KPI vector must be byte-identical whatever the worker-thread count —
// the determinism contract parallel sweeps (bench E18) rely on. Labelled
// "tsan" so a -DPRAN_SANITIZE=thread build race-checks it.

#include <gtest/gtest.h>

#include <vector>

#include "common/parallel.hpp"
#include "core/deployment.hpp"

namespace pran {
namespace {

struct Kpi {
  std::uint64_t subframes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t blind = 0;
  int faults = 0;
  int migrations = 0;
  int quarantines = 0;

  bool operator==(const Kpi&) const = default;
};

std::vector<Kpi> sweep(unsigned threads) {
  constexpr std::size_t kRuns = 6;
  std::vector<Kpi> out(kRuns);
  parallel_for_each(threads, kRuns, [&](unsigned, std::size_t i) {
    core::DeploymentConfig config;
    config.num_cells = 4;
    config.num_servers = 4;
    config.seed = 100 + i;
    config.start_hour = 12.0;
    config.epoch = 200 * sim::kMillisecond;
    config.stochastic_faults.mtbf_seconds = 0.25;
    config.stochastic_faults.mttr_seconds = 0.05;
    config.heartbeat_period = 10 * sim::kMillisecond;
    config.controller.quarantine = true;
    core::Deployment d(config);
    d.run_for(2 * sim::kSecond);
    const auto k = d.kpis();
    out[i] = Kpi{k.subframes_processed, k.dropped,     k.blind_window_drops,
                 k.faults_injected,     k.migrations,  k.quarantine_events};
  });
  return out;
}

TEST(FaultsStress, SweepIsThreadCountInvariant) {
  const auto serial = sweep(1);
  const auto parallel2 = sweep(2);
  const auto parallel8 = sweep(8);
  EXPECT_EQ(serial, parallel2);
  EXPECT_EQ(serial, parallel8);
  // The scenario is live: faults actually happened somewhere.
  int faults = 0;
  for (const auto& k : serial) faults += k.faults;
  EXPECT_GT(faults, 0);
}

}  // namespace
}  // namespace pran
