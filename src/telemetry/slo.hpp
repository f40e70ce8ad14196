#pragma once

/// \file slo.hpp
/// Declarative service-level objectives evaluated online over the
/// TimeSeriesRecorder's window stream, with multi-window burn-rate
/// alerting (the SRE pattern: alert when both a short and a long trailing
/// window burn error budget faster than a threshold multiple — the short
/// window makes the alert fast, the long window makes it sticky against
/// single-window blips).
///
/// An objective is a ratio bound over two counters:
///     bad_counter / total_counter  <  objective
/// e.g. `deadline_miss_rate: deployment.deadline_misses /
/// deployment.subframes < 1e-3`. Burn rate is the observed bad fraction
/// divided by the objective (burn 1.0 = exactly consuming budget at the
/// allowed rate). Each closed window updates `slo.<name>.*` gauges in the
/// registry, so SLO state rides every metrics snapshot and `pran-report
/// --slo` can render a verdict table offline.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"
#include "telemetry/timeseries.hpp"

namespace pran::telemetry {

/// One declarative objective.
struct SloSpec {
  std::string name;           ///< Dotted-lowercase id, e.g. "deadline_miss_rate".
  std::string bad_counter;    ///< Numerator counter (bad events).
  std::string total_counter;  ///< Denominator counter (all events).
  double objective = 1e-3;    ///< Max allowed bad/total fraction.
  /// Trailing evaluation windows (in recorder windows).
  std::size_t short_windows = 2;
  std::size_t long_windows = 12;
  /// Trip when BOTH trailing burn rates meet/exceed this multiple.
  double burn_threshold = 4.0;
};

/// Online evaluation state of one SLO.
struct SloStatus {
  SloSpec spec;
  double burn_short = 0.0;        ///< Short-window burn multiple.
  double burn_long = 0.0;         ///< Long-window burn multiple.
  double run_rate = 0.0;          ///< Cumulative bad/total over the run.
  /// Fraction of the whole-run error budget consumed so far
  /// (cumulative bad / (objective * cumulative total)).
  double budget_consumed = 0.0;
  /// Currently above threshold; each rising edge counts one
  /// `slo.<name>.trips`.
  bool tripping = false;
};

/// Feeds WindowSamples to every registered SLO and exports
/// `slo.<name>.{burn_short,burn_long,run_rate,budget_consumed,objective}`
/// gauges plus a `slo.<name>.trips` counter into the registry.
class SloEngine {
 public:
  SloEngine(MetricsRegistry& registry, std::vector<SloSpec> specs);

  /// Evaluates one closed window. Returns the names of SLOs that tripped
  /// on this window (rising edge only — an alert fires once per episode).
  std::vector<std::string> on_window(const WindowSample& window);

  const std::vector<SloStatus>& status() const noexcept { return status_; }
  const SloStatus* find(std::string_view name) const noexcept;

 private:
  struct PerSlo {
    /// Trailing (bad, total) deltas, newest last, bounded by long_windows.
    std::deque<std::pair<std::uint64_t, std::uint64_t>> history;
    std::uint64_t cum_bad = 0;
    std::uint64_t cum_total = 0;
    GaugeId burn_short;
    GaugeId burn_long;
    GaugeId run_rate;
    GaugeId budget;
    CounterId trips;
  };

  MetricsRegistry& registry_;
  std::vector<SloStatus> status_;
  std::vector<PerSlo> state_;
};

/// The stock deployment objectives (deadline misses, compute outages,
/// fronthaul lateness) used by pran-sim and the E19/E21 benches unless a
/// caller overrides them.
std::vector<SloSpec> default_deployment_slos();

}  // namespace pran::telemetry
