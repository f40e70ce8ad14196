#include "telemetry/slo.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pran::telemetry {

namespace {

/// Burn multiple over a trailing suffix of the history.
double trailing_burn(
    const std::deque<std::pair<std::uint64_t, std::uint64_t>>& history,
    std::size_t windows, double objective) {
  std::uint64_t bad = 0;
  std::uint64_t total = 0;
  const std::size_t n = std::min(windows, history.size());
  for (std::size_t i = history.size() - n; i < history.size(); ++i) {
    bad += history[i].first;
    total += history[i].second;
  }
  if (total == 0) return 0.0;
  const double rate = static_cast<double>(bad) / static_cast<double>(total);
  return rate / objective;
}

}  // namespace

SloEngine::SloEngine(MetricsRegistry& registry, std::vector<SloSpec> specs)
    : registry_(registry) {
  status_.reserve(specs.size());
  state_.reserve(specs.size());
  for (auto& spec : specs) {
    PRAN_REQUIRE(!spec.name.empty(), "slo needs a name");
    PRAN_REQUIRE(!spec.bad_counter.empty() && !spec.total_counter.empty(),
                 "slo '" + spec.name + "' needs bad and total counters");
    PRAN_REQUIRE(spec.objective > 0.0 && spec.objective <= 1.0,
                 "slo '" + spec.name + "' objective must be in (0, 1]");
    PRAN_REQUIRE(spec.short_windows >= 1 &&
                     spec.long_windows >= spec.short_windows,
                 "slo '" + spec.name +
                     "' needs 1 <= short_windows <= long_windows");
    PRAN_REQUIRE(spec.burn_threshold > 0.0,
                 "slo '" + spec.name + "' burn threshold must be positive");
    const std::string prefix = "slo." + spec.name + ".";
    PerSlo per;
    per.burn_short = registry_.gauge(prefix + "burn_short");
    per.burn_long = registry_.gauge(prefix + "burn_long");
    per.run_rate = registry_.gauge(prefix + "run_rate");
    per.budget = registry_.gauge(prefix + "budget_consumed");
    per.trips = registry_.counter(prefix + "trips");
    registry_.set(registry_.gauge(prefix + "objective"), spec.objective);
    registry_.set(registry_.gauge(prefix + "burn_threshold"),
                  spec.burn_threshold);
    SloStatus st;
    st.spec = std::move(spec);
    status_.push_back(std::move(st));
    state_.push_back(std::move(per));
  }
}

std::vector<std::string> SloEngine::on_window(const WindowSample& window) {
  std::vector<std::string> tripped;
  for (std::size_t i = 0; i < status_.size(); ++i) {
    SloStatus& st = status_[i];
    PerSlo& per = state_[i];
    const std::uint64_t bad = window.counter_delta(st.spec.bad_counter);
    const std::uint64_t total = window.counter_delta(st.spec.total_counter);
    per.history.emplace_back(bad, total);
    while (per.history.size() > st.spec.long_windows) per.history.pop_front();
    per.cum_bad += bad;
    per.cum_total += total;

    st.burn_short =
        trailing_burn(per.history, st.spec.short_windows, st.spec.objective);
    st.burn_long =
        trailing_burn(per.history, st.spec.long_windows, st.spec.objective);
    st.run_rate = per.cum_total == 0
                      ? 0.0
                      : static_cast<double>(per.cum_bad) /
                            static_cast<double>(per.cum_total);
    st.budget_consumed = st.run_rate / st.spec.objective;

    const bool above = st.burn_short >= st.spec.burn_threshold &&
                       st.burn_long >= st.spec.burn_threshold;
    if (above && !st.tripping) {
      registry_.add(per.trips);
      tripped.push_back(st.spec.name);
    }
    st.tripping = above;

    registry_.set(per.burn_short, st.burn_short);
    registry_.set(per.burn_long, st.burn_long);
    registry_.set(per.run_rate, st.run_rate);
    registry_.set(per.budget, st.budget_consumed);
  }
  return tripped;
}

const SloStatus* SloEngine::find(std::string_view name) const noexcept {
  for (const auto& st : status_)
    if (st.spec.name == name) return &st;
  return nullptr;
}

std::vector<SloSpec> default_deployment_slos() {
  std::vector<SloSpec> specs;
  {
    // The paper's headline claim: deadline misses stay near zero.
    SloSpec s;
    s.name = "deadline_miss_rate";
    s.bad_counter = "deployment.deadline_misses";
    s.total_counter = "deployment.subframes";
    s.objective = 1e-3;
    specs.push_back(std::move(s));
  }
  {
    // Computational outages are budgeted, not free (DESIGN §13).
    SloSpec s;
    s.name = "compute_outage_rate";
    s.bad_counter = "compute.outage_jobs";
    s.total_counter = "deployment.subframes";
    s.objective = 5e-2;
    specs.push_back(std::move(s));
  }
  {
    // Fronthaul lateness: the leading indicator the degradation ladder
    // reacts to — its burn alert is what trips during a brownout even
    // when the ladder holds the miss rate itself at zero. The 500 us
    // late threshold is a soft bound that the tail of every healthy
    // burst train grazes (~20% of bursts on the E19 fibre, 0% once a
    // compression rung is in), so the objective budgets for that
    // steady-state grazing: at 10%, normal operation burns at 2x and
    // stays under the 4x alert, while a brownout (every burst late)
    // burns at 5-10x at onset. The windows are fast-burn shaped (1
    // short / 3 long at 3x) because the ladder's compression rung
    // erases the lateness within about two windows of reacting — a
    // slow 12-window alert would average the excursion away and page
    // on nothing, while the fast alert fires one window after the
    // ladder transition it is meant to explain.
    SloSpec s;
    s.name = "fronthaul_late_rate";
    s.bad_counter = "fronthaul.late_bursts";
    s.total_counter = "fronthaul.bursts";
    s.objective = 0.1;
    s.short_windows = 1;
    s.long_windows = 3;
    s.burn_threshold = 3.0;
    specs.push_back(std::move(s));
  }
  return specs;
}

}  // namespace pran::telemetry
