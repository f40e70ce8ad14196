#pragma once

/// \file injector.hpp
/// FaultInjector: the single authority for delivering faults to the
/// compute cluster. Scripted plans and stochastic MTBF/MTTR processes both
/// funnel through it, so every crash/degrade/restore is idempotent, logged
/// and counted in one place. Nothing else in the tree may call
/// `Executor::fail_server` / `restore_server` / `degrade_server` directly
/// (enforced by the pran-lint `fault-bypass` rule).
///
/// Delivery contract: the fault callback fires *before* the executor state
/// changes, so a listener running in oracle mode can re-place the victim's
/// cells first and the executor's completion callback then forwards the
/// dropped in-flight jobs to their new homes (the ordering bench E8
/// depends on). The recovery callback fires *after* the executor is
/// healthy again.

#include <functional>
#include <vector>

#include "cluster/executor.hpp"
#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "sim/engine.hpp"

namespace pran::faults {

class FaultInjector {
 public:
  /// (server, kind) just before the fault takes effect on the executor.
  using FaultCallback = std::function<void(int, FaultKind)>;
  /// (server, kind of the fault that ended) after the executor is healthy.
  using RecoveryCallback = std::function<void(int, FaultKind)>;

  /// All stochastic draws derive from `seed`.
  FaultInjector(sim::Engine& engine, cluster::Executor& executor,
                std::uint64_t seed);

  /// Schedules a scripted fault (and its recovery when duration > 0).
  void schedule(const FaultEvent& event);

  /// Schedules recovery of a crashed or degraded server at time `at`.
  /// Restoring a healthy server is an idempotent no-op.
  void schedule_restore(sim::Time at, int server_id);

  /// Arms the per-server exponential crash processes. Call at most once.
  void arm_stochastic(const StochasticFaultConfig& config);

  void set_fault_callback(FaultCallback cb) { on_fault_ = std::move(cb); }
  void set_recovery_callback(RecoveryCallback cb) {
    on_recovery_ = std::move(cb);
  }

  bool is_down(int server_id) const;
  bool is_degraded(int server_id) const;

  /// Faults actually delivered (idempotent skips excluded).
  int faults_delivered() const noexcept { return faults_delivered_; }
  int crash_faults() const noexcept { return crash_faults_; }
  int degrade_faults() const noexcept { return degrade_faults_; }

  /// Every delivered fault in delivery order (idempotent skips excluded).
  /// A record's `recovered_at` is set when its restore is delivered.
  const std::vector<FaultRecord>& log() const noexcept { return log_; }

 private:
  enum class State { kHealthy, kDown, kDegraded };

  void deliver_fault(int server_id, FaultKind kind, double degrade_factor);
  void deliver_restore(int server_id);
  void schedule_next_stochastic_fault(int server_id);
  void stochastic_fault(int server_id);
  State& state(int server_id);

  sim::Engine& engine_;
  cluster::Executor& executor_;
  Rng rng_root_;
  std::vector<Rng> streams_;  ///< One substream per server (stochastic).
  std::vector<State> states_;
  /// log_ index of the fault currently holding each server down/degraded.
  std::vector<int> open_record_;
  StochasticFaultConfig stochastic_;
  bool stochastic_armed_ = false;
  int faults_delivered_ = 0;
  int crash_faults_ = 0;
  int degrade_faults_ = 0;
  std::vector<FaultRecord> log_;
  FaultCallback on_fault_;
  RecoveryCallback on_recovery_;
};

}  // namespace pran::faults
