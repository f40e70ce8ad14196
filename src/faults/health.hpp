#pragma once

/// \file health.hpp
/// HealthMonitor: heartbeat-based failure detection.
///
/// In the real system the controller cannot observe a server's death — it
/// can only notice missing heartbeats. The monitor polls every server each
/// `heartbeat_period`; after `miss_threshold` consecutive missed beats it
/// *declares* the server down and fires the down callback. Until that
/// declaration the controller keeps the stale placement and the deployment
/// keeps submitting subframes to the corpse — the "blind window" whose
/// drops bench E18 measures. Recovery is symmetric: kRecoveryThreshold
/// consecutive healthy beats before the server is declared back.
///
/// The worst-case detection latency is therefore
///     heartbeat_period * miss_threshold
/// (a fault landing just after a beat waits almost a full extra period).
/// A deployment with heartbeat_period == 0 skips the monitor entirely and
/// degenerates to the oracle of bench E8: detection at the fault instant.

#include <functional>
#include <vector>

#include "cluster/executor.hpp"
#include "sim/engine.hpp"

namespace pran::faults {

/// Consecutive healthy beats before a recovered server is declared up.
inline constexpr int kRecoveryThreshold = 2;

struct HealthMonitorConfig {
  sim::Time heartbeat_period = 10 * sim::kMillisecond;
  /// Consecutive missed beats before a server is declared down.
  int miss_threshold = 3;
};

class HealthMonitor {
 public:
  /// (server, declared_at). Fired once per down/up transition.
  using TransitionCallback = std::function<void(int, sim::Time)>;

  /// Polling starts at the first heartbeat after construction
  /// (t = now + heartbeat_period).
  HealthMonitor(sim::Engine& engine, const cluster::Executor& executor,
                HealthMonitorConfig config);

  void set_down_callback(TransitionCallback cb) { on_down_ = std::move(cb); }
  void set_up_callback(TransitionCallback cb) { on_up_ = std::move(cb); }

  /// The monitor's current belief (lags reality by the detection delay).
  bool believes_down(int server_id) const;

  int detections() const noexcept { return detections_; }
  const HealthMonitorConfig& config() const noexcept { return config_; }

 private:
  void heartbeat();

  sim::Engine& engine_;
  const cluster::Executor& executor_;
  HealthMonitorConfig config_;
  std::vector<int> missed_;        ///< Consecutive missed beats per server.
  std::vector<int> healthy_;       ///< Consecutive good beats while believed down.
  std::vector<bool> believed_down_;
  int detections_ = 0;
  TransitionCallback on_down_;
  TransitionCallback on_up_;
};

}  // namespace pran::faults
