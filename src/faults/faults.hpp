#pragma once

/// \file faults.hpp
/// Fault model vocabulary shared by the injector, the health monitor and
/// the deployment layer.
///
/// Server faults reproduce the failure classes a pooled RAN cluster
/// actually sees:
///   kCrash   — whole-server loss (process/kernel/hardware death); a
///              scripted event naming several servers crashes them at the
///              same instant (a rack or power domain going down);
///   kDegrade — a straggler: the server keeps answering heartbeats but
///              its cores run at a fraction of nominal speed (thermal
///              throttling, a noisy co-tenant, a dying DIMM).
/// Fronthaul impairments (loss, jitter, brownouts) are not faults of this
/// vocabulary: faults::FronthaulImpairments applies them per burst.
///
/// Server faults are either scripted (FaultEvent, either kind) or crashes
/// drawn from per-server exponential MTBF/MTTR processes
/// (StochasticFaultConfig). Stochastic draws come from
/// `Rng::stream(server_id)` substreams, so a run's fault timeline depends
/// only on (seed, server id) — deterministic and invariant to how many
/// worker threads a surrounding sweep uses. Fronthaul impairments follow
/// the same discipline on their own substreams (see fronthaul.hpp).

#include <vector>

#include "sim/time.hpp"

namespace pran::faults {

enum class FaultKind {
  kCrash,
  kDegrade,
};

/// One scripted fault. At `at`, every server in `servers` crashes
/// (kCrash) or starts running at `degrade_factor` of nominal speed
/// (kDegrade). A positive `duration` schedules recovery that much
/// later; 0 means the fault holds until an explicit restore.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  sim::Time at = 0;
  sim::Time duration = 0;
  std::vector<int> servers;
  double degrade_factor = 0.5;  ///< kDegrade only; in (0, 1).
};

/// Per-server stochastic crash process: exponential time-to-failure with
/// mean `mtbf_seconds`, exponential repair with mean `mttr_seconds`.
struct StochasticFaultConfig {
  double mtbf_seconds = 0.0;  ///< Mean time between failures; 0 disables.
  double mttr_seconds = 0.25;  ///< Mean time to repair.

  bool enabled() const noexcept { return mtbf_seconds > 0.0; }
};

}  // namespace pran::faults
