#include "faults/health.hpp"

#include "common/check.hpp"

namespace pran::faults {

HealthMonitor::HealthMonitor(sim::Engine& engine,
                             const cluster::Executor& executor,
                             HealthMonitorConfig config)
    : engine_(engine), executor_(executor), config_(config) {
  PRAN_REQUIRE(config_.heartbeat_period > 0,
               "health monitor needs a positive heartbeat period");
  PRAN_REQUIRE(config_.miss_threshold >= 1,
               "miss threshold must be at least 1");
  const std::size_t n = static_cast<std::size_t>(executor_.num_servers());
  missed_.assign(n, 0);
  healthy_.assign(n, 0);
  believed_down_.assign(n, false);
  engine_.schedule_in(config_.heartbeat_period, [this] { heartbeat(); });
}

bool HealthMonitor::believes_down(int server_id) const {
  PRAN_REQUIRE(server_id >= 0 && server_id < executor_.num_servers(),
               "health monitor: unknown server id");
  return believed_down_[static_cast<std::size_t>(server_id)];
}

void HealthMonitor::heartbeat() {
  for (int s = 0; s < executor_.num_servers(); ++s) {
    const std::size_t i = static_cast<std::size_t>(s);
    const bool answered = !executor_.is_failed(s);
    if (!believed_down_[i]) {
      if (answered) {
        missed_[i] = 0;
        continue;
      }
      if (++missed_[i] < config_.miss_threshold) continue;
      believed_down_[i] = true;
      missed_[i] = 0;
      healthy_[i] = 0;
      ++detections_;
      if (on_down_) on_down_(s, engine_.now());
    } else {
      if (!answered) {
        healthy_[i] = 0;
        continue;
      }
      if (++healthy_[i] < kRecoveryThreshold) continue;
      believed_down_[i] = false;
      healthy_[i] = 0;
      missed_[i] = 0;
      if (on_up_) on_up_(s, engine_.now());
    }
  }
  engine_.schedule_in(config_.heartbeat_period, [this] { heartbeat(); });
}

}  // namespace pran::faults
