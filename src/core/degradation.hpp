#pragma once

/// \file degradation.hpp
/// Graceful-degradation ladder for fronthaul impairments.
///
/// When the shared fronthaul degrades (burst loss, a brownout, queueing
/// creep), a PRAN deployment has cheaper currencies than deadline misses:
/// it can spend signal quality, then low-priority capacity, before it
/// spends coverage. The ladder encodes that order as rungs:
///
///   rung 0              — normal operation;
///   rungs 1..N          — step up the I/Q compression ratio by the
///                         configured ladder factors: the same traffic
///                         needs fewer wire bits, at an EVM -> BLER cost
///                         (see compression_penalty_bler);
///   rung N+1 (shed)     — additionally shed *doomed* subframes of the
///                         lowest-priority cells at ingress: a subframe
///                         that cannot make its deadline is dropped
///                         before it wastes wire and CPU, and its HARQ
///                         debt is settled honestly (retransmission or a
///                         lost transport block) instead of triggering a
///                         retransmission storm;
///   rung N+2 (quarant.) — additionally quarantine the lowest-priority
///                         cells outright, freeing their wire and compute
///                         for the cells that remain.
///
/// Anti-flap discipline: walking the ladder is cheap but oscillating on
/// it is not (each compression change re-tunes the whole fronthaul), so
/// transitions are hysteretic and rate-limited:
///   * at most ONE rung move per update() call (one per epoch) — the
///     per-epoch transition count is bounded by construction;
///   * stepping up requires `up_epochs` consecutive stressed epochs,
///     stepping down `down_epochs` consecutive calm ones, with separate
///     enter/exit thresholds per signal (classic Schmitt trigger);
///   * each time the controller re-escalates after a step-down, the calm
///     period required for the next step-down doubles (exponential
///     backoff, kDownHoldBackoff), so a marginal link settles on the
///     safe rung instead of flapping across the boundary.
///
/// The controller is pure decision logic: it holds no references into the
/// deployment and is driven entirely through update(), which keeps it
/// deterministic and trivially testable.

#include <cstdint>
#include <vector>

#include "lte/cost_model.hpp"
#include "sim/time.hpp"

namespace pran::core {

/// Per-epoch health signals the ladder watches (telemetry-fed).
struct DegradationSignals {
  double queue_delay_us = 0.0;  ///< Worst fronthaul queueing delay seen.
  double loss_rate = 0.0;       ///< Fronthaul burst-loss rate.
  double miss_rate = 0.0;       ///< Deadline-miss rate at the executor.
  /// Worst per-server compute backlog, in TTIs of whole-server throughput
  /// (Executor::backlog_ttis). > 1 means a server is queueing more than a
  /// subframe period of undone work — compute, not the wire, is the
  /// bottleneck.
  double compute_pressure = 0.0;
};

/// What a ladder rung spends: each kind is a different currency, ordered
/// from cheapest (signal quality) to dearest (coverage).
enum class RungKind {
  kNormal,      ///< Rung 0 — no degradation.
  kCompress,    ///< Fronthaul I/Q compression step-up (EVM -> BLER cost).
  kEffort,      ///< Turbo decode-effort cap step-down (compute for BLER).
  kMcsCap,      ///< MCS ceiling — smaller transport blocks, less decode.
  kShed,        ///< Deadline-doomed subframes shed at ingress.
  kQuarantine,  ///< Lowest-priority cells taken off the air.
};

const char* rung_kind_name(RungKind kind) noexcept;

/// Fraction of cells (lowest priority first) eligible for shedding on the
/// shed rung. Cell priority is by index: cell 0 is most important.
inline constexpr double kShedFraction = 0.25;
/// Fraction of cells quarantined outright on the quarantine rung.
inline constexpr double kQuarantineFraction = 0.125;
/// Deadline-miss-rate Schmitt thresholds (see DegradationConfig's
/// `*_up` / `*_down` pairs).
inline constexpr double kMissUp = 0.005;
inline constexpr double kMissDown = 0.0005;
/// Compute-pressure thresholds, in backlog TTIs (see
/// DegradationSignals::compute_pressure).
inline constexpr double kComputeUpTtis = 2.0;
inline constexpr double kComputeDownTtis = 0.5;
/// Growth of the calm-epoch requirement for a step-down on each
/// re-escalation (DegradationConfig::down_epochs is its initial value).
inline constexpr double kDownHoldBackoff = 2.0;

static_assert(kMissUp > kMissDown,
              "miss thresholds must leave a hysteresis band");
static_assert(kComputeUpTtis > kComputeDownTtis,
              "compute-pressure thresholds must leave a hysteresis band");

struct DegradationConfig {
  bool enabled = false;

  /// Extra compression multipliers for rungs 1..N, strictly increasing,
  /// each > 1. Applied on top of the deployment's base compression.
  std::vector<double> compression_ladder = {1.5, 2.0};

  /// Turbo-iteration caps for the decode-effort rungs, strictly
  /// decreasing, each in [1, lte::kMaxTurboIterations). The rungs sit
  /// between the compression steps and the shed rung: spending BLER on
  /// cheaper decodes is preferred to shedding whole subframes. Empty
  /// (the default) adds no effort rungs, leaving the legacy rung layout
  /// untouched.
  std::vector<int> effort_ladder = {};
  /// MCS ceiling applied on the MCS-cap rung (between the effort rungs
  /// and shed): allocations above it are re-graded down, trading peak
  /// rate for smaller transport blocks. 0 disables the rung.
  int mcs_cap = 0;

  /// Schmitt-trigger thresholds: stressed when ANY signal exceeds its
  /// `*_up`, calm only when ALL signals are below their `*_down` (the
  /// miss-rate and compute-pressure pairs are the constants above).
  double queue_delay_up_us = 300.0;
  double queue_delay_down_us = 100.0;
  double loss_up = 0.005;
  double loss_down = 0.001;

  /// Consecutive stressed epochs required to step up one rung.
  int up_epochs = 2;
  /// Consecutive calm epochs required to step down one rung (initial
  /// value; grows by kDownHoldBackoff on each re-escalation).
  int down_epochs = 4;
};

/// Walks the rungs described above. One instance per deployment.
class DegradationController {
 public:
  DegradationController(const DegradationConfig& config, int num_cells);

  /// Feeds one epoch's signals; returns true when the rung changed.
  /// Moves at most one rung per call.
  bool update(sim::Time now, const DegradationSignals& signals);

  int rung() const noexcept { return rung_; }
  /// Highest rung: compression steps + effort steps + optional MCS cap +
  /// shed + quarantine.
  int max_rung() const noexcept {
    return static_cast<int>(config_.compression_ladder.size()) +
           static_cast<int>(config_.effort_ladder.size()) +
           (config_.mcs_cap > 0 ? 1 : 0) + 2;
  }
  /// What the given rung spends (kNormal for rung 0).
  RungKind rung_kind(int rung) const noexcept;
  const char* rung_name() const noexcept;

  /// Extra compression factor the current rung asks for (1.0 on rung 0;
  /// the deepest ladder factor on every rung past the compression steps).
  double compression_multiplier() const noexcept;

  /// Turbo-iteration cap the current rung asks for:
  /// lte::kMaxTurboIterations (no cap) below the first effort rung, the
  /// matching ladder entry on an effort rung, and the deepest cap on
  /// every rung above them.
  int effort_cap() const noexcept;

  /// True when the current rung applies the MCS ceiling.
  bool mcs_capping() const noexcept {
    return config_.mcs_cap > 0 && rung_ >= mcs_rung();
  }
  int mcs_cap() const noexcept { return config_.mcs_cap; }

  /// True on the shed rung or above.
  bool shedding() const noexcept { return rung_ >= shed_rung(); }
  /// True on the quarantine rung.
  bool quarantining() const noexcept { return rung_ >= quarantine_rung(); }

  /// True when `cell` may have doomed subframes shed while shedding() —
  /// the lowest-priority (highest-index) kShedFraction of cells.
  bool cell_shed_eligible(int cell) const;
  /// True when `cell` is quarantined by the current rung.
  bool cell_quarantined(int cell) const;

  /// Total rung transitions so far (up + down).
  std::uint64_t transitions() const noexcept { return transitions_; }
  /// Current calm-epoch requirement for the next step-down (grows with
  /// the exponential backoff; exposed for tests and KPIs).
  int current_down_hold() const noexcept { return down_hold_; }

  /// Simulated time spent on `rung`, accumulated at each update() call
  /// (the dwell of the current rung since the last update is not yet
  /// included). Drives the per-rung dwell report in `pran-report
  /// --compute`.
  sim::Time dwell(int rung) const;

 private:
  int first_effort_rung() const noexcept {
    return static_cast<int>(config_.compression_ladder.size()) + 1;
  }
  int mcs_rung() const noexcept {
    // One past the last effort rung; only meaningful when mcs_cap > 0.
    return first_effort_rung() +
           static_cast<int>(config_.effort_ladder.size());
  }
  int shed_rung() const noexcept {
    return mcs_rung() + (config_.mcs_cap > 0 ? 1 : 0);
  }
  int quarantine_rung() const noexcept { return shed_rung() + 1; }

  DegradationConfig config_;
  int num_cells_;
  int rung_ = 0;
  int stressed_epochs_ = 0;
  int calm_epochs_ = 0;
  int down_hold_;           ///< Calm epochs needed for the next step-down.
  bool recovering_ = false; ///< A step-down happened since the last step-up.
  std::uint64_t transitions_ = 0;
  std::vector<sim::Time> dwell_;  ///< Per-rung time, size max_rung() + 1.
  sim::Time dwell_mark_ = 0;      ///< update() timestamp last accounted.
};

/// Transport-block failure probability added by compressing the fronthaul
/// at `total_ratio` (vs. 15-bit CPRI words): measures the EVM of a
/// BlockFloatCodec round-trip at the mantissa width that achieves the
/// ratio, on a deterministic Gaussian reference block, and maps EVM to
/// BLER with a power-law waterfall calibrated for 16-QAM-class traffic.
/// Returns 0 for ratio <= 1. Deterministic: same ratio, same penalty.
double compression_penalty_bler(double total_ratio);

}  // namespace pran::core
