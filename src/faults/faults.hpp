#pragma once

/// \file faults.hpp
/// Fault model vocabulary shared by the injector, the health monitor and
/// the deployment layer.
///
/// Server faults reproduce the failure classes a pooled RAN cluster
/// actually sees:
///   kCrash      — whole-server loss (process/kernel/hardware death);
///   kDegrade    — a straggler: the server keeps answering heartbeats but
///                 its cores run at a fraction of nominal speed (thermal
///                 throttling, a noisy co-tenant, a dying DIMM);
///   kCorrelated — rack/power-domain loss: several servers crash at the
///                 same instant, defeating placements that spread a cell's
///                 backup capacity inside one domain.
/// Fronthaul impairments (loss, jitter, brownouts) are not faults of this
/// vocabulary: faults::FronthaulImpairments applies them per burst.
///
/// Server faults are either scripted (FaultEvent) or drawn from
/// per-server exponential MTBF/MTTR processes (StochasticFaultConfig).
/// Stochastic draws come from `Rng::stream(server_id)` substreams, so a
/// run's fault timeline depends only on (seed, server id) — deterministic
/// and invariant to how many worker threads a surrounding sweep uses.
/// Fronthaul impairments follow the same discipline on their own
/// substreams (see fronthaul.hpp).

#include <vector>

#include "sim/time.hpp"

namespace pran::faults {

enum class FaultKind {
  kCrash,
  kDegrade,
  kCorrelated,
};

const char* fault_kind_name(FaultKind kind) noexcept;

/// One scripted fault. At `at`, every server in `servers` crashes
/// (kCrash/kCorrelated) or starts running at `degrade_factor` of nominal
/// speed (kDegrade). A positive `duration` schedules recovery that much
/// later; 0 means the fault holds until an explicit restore.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  sim::Time at = 0;
  sim::Time duration = 0;
  std::vector<int> servers;
  double degrade_factor = 0.5;  ///< kDegrade only; in (0, 1].
};

/// Per-server stochastic fault process: exponential time-to-failure with
/// mean `mtbf_seconds`, exponential repair with mean `mttr_seconds`.
struct StochasticFaultConfig {
  double mtbf_seconds = 0.0;  ///< Mean time between failures; 0 disables.
  double mttr_seconds = 0.25;  ///< Mean time to repair.
  /// Fraction of faults that degrade the server instead of crashing it.
  double degrade_probability = 0.0;
  double degrade_factor = 0.5;  ///< Speed multiplier while degraded.
  /// Power-domain model: servers [k*group_size, (k+1)*group_size) share a
  /// domain; a crash escalates to the whole domain with this probability.
  int group_size = 0;
  double correlated_probability = 0.0;

  bool enabled() const noexcept { return mtbf_seconds > 0.0; }
};

/// One delivered server fault, for KPI extraction and tests.
struct FaultRecord {
  FaultKind kind = FaultKind::kCrash;
  int server_id = -1;
  sim::Time at = 0;
  sim::Time recovered_at = -1;  ///< -1 while the fault is still in effect.
};

}  // namespace pran::faults
