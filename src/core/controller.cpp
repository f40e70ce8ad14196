#include "core/controller.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pran::core {

Controller::Controller(ControllerConfig config, std::unique_ptr<Placer> placer,
                       std::vector<cluster::ServerSpec> servers,
                       std::vector<CellDemand> initial_demand)
    : config_(config),
      placer_(std::move(placer)),
      servers_(std::move(servers)),
      available_(servers_.size(), true),
      quarantined_(servers_.size(), false),
      quarantined_until_(servers_.size(), 0),
      backoff_(servers_.size(), kQuarantineBase),
      failure_times_(servers_.size()),
      demand_(std::move(initial_demand)),
      placement_(demand_.size(), -1) {
  PRAN_REQUIRE(placer_ != nullptr, "controller needs a placer");
  PRAN_REQUIRE(!servers_.empty(), "controller needs servers");
  PRAN_REQUIRE(!demand_.empty(), "controller needs cells");
  PRAN_REQUIRE(config_.headroom > 0.0 && config_.headroom <= 1.0,
               "headroom outside (0, 1]");
  PRAN_REQUIRE(config_.demand_safety >= 1.0, "safety factor below 1");
}

void Controller::observe(int cell_index, double gops) {
  PRAN_REQUIRE(cell_index >= 0 && cell_index < num_cells(),
               "unknown cell index");
  PRAN_REQUIRE(gops >= 0.0, "observed cost must be non-negative");
  auto& d = demand_[static_cast<std::size_t>(cell_index)];
  d.gops_per_tti =
      (1.0 - kDemandEmaAlpha) * d.gops_per_tti + kDemandEmaAlpha * gops;
}

double Controller::estimated_demand(int cell_index) const {
  PRAN_REQUIRE(cell_index >= 0 && cell_index < num_cells(),
               "unknown cell index");
  const double scale =
      demand_scale_.empty()
          ? 1.0
          : demand_scale_[static_cast<std::size_t>(cell_index)];
  return config_.demand_safety * scale *
         demand_[static_cast<std::size_t>(cell_index)].gops_per_tti;
}

void Controller::set_demand_scale(std::vector<double> scale) {
  if (!scale.empty()) {
    PRAN_REQUIRE(static_cast<int>(scale.size()) == num_cells(),
                 "forecast scale size must match the cell count");
    for (double s : scale)
      PRAN_REQUIRE(s > 0.0, "forecast scale must be positive");
  }
  demand_scale_ = std::move(scale);
}

void Controller::set_cell_quarantine(std::vector<bool> quarantined) {
  if (!quarantined.empty())
    PRAN_REQUIRE(static_cast<int>(quarantined.size()) == num_cells(),
                 "cell quarantine size must match the cell count");
  cell_quarantined_ = std::move(quarantined);
}

bool Controller::cell_quarantined(int cell_index) const {
  PRAN_REQUIRE(cell_index >= 0 && cell_index < num_cells(),
               "unknown cell index");
  return !cell_quarantined_.empty() &&
         cell_quarantined_[static_cast<std::size_t>(cell_index)];
}

EpochReport Controller::replan() {
  // Map global server ids <-> compact available-only ids.
  std::vector<int> compact_to_global;
  for (std::size_t s = 0; s < servers_.size(); ++s)
    if (available_[s]) compact_to_global.push_back(static_cast<int>(s));
  std::vector<int> global_to_compact(servers_.size(), -1);
  for (std::size_t i = 0; i < compact_to_global.size(); ++i)
    global_to_compact[static_cast<std::size_t>(compact_to_global[i])] =
        static_cast<int>(i);

  EpochReport report;
  if (compact_to_global.empty()) {
    record(report);
    return report;
  }

  // Included cells; quarantined cells (degradation ladder) are excluded
  // up front, and admission control drops the largest-demand cells from
  // this set until a feasible plan exists.
  std::vector<std::size_t> included;
  included.reserve(demand_.size());
  for (std::size_t c = 0; c < demand_.size(); ++c)
    if (!cell_quarantined(static_cast<int>(c))) included.push_back(c);

  PlacementResult result;
  for (;;) {
    if (included.empty()) break;
    PlacementProblem problem;
    problem.headroom = config_.headroom;
    problem.migration_weight = config_.migration_weight;
    problem.survivable = config_.survivable;
    for (std::size_t s = 0; s < servers_.size(); ++s)
      if (available_[s]) problem.servers.push_back(servers_[s]);

    bool have_previous = false;
    std::vector<int> previous_compact(included.size(), -1);
    for (std::size_t i = 0; i < included.size(); ++i) {
      const std::size_t c = included[i];
      CellDemand d = demand_[c];
      d.gops_per_tti = estimated_demand(static_cast<int>(c));
      problem.cells.push_back(d);
      if (placement_[c] >= 0) {
        previous_compact[i] =
            global_to_compact[static_cast<std::size_t>(placement_[c])];
        if (previous_compact[i] >= 0) have_previous = true;
      }
    }
    if (have_previous) problem.previous = previous_compact;

    result = placer_->place(problem);
    report.solve_seconds += result.solve_seconds;
    if (result.feasible || !config_.shed_on_infeasible) break;

    // Shed the largest-demand cell and retry.
    std::size_t worst = 0;
    for (std::size_t i = 1; i < included.size(); ++i)
      if (estimated_demand(static_cast<int>(included[i])) >
          estimated_demand(static_cast<int>(included[worst])))
        worst = i;
    included.erase(included.begin() + static_cast<std::ptrdiff_t>(worst));
    ++report.shed_cells;
  }

  report.feasible = result.feasible;
  if (result.feasible) {
    std::vector<int> next(placement_.size(), -1);
    for (std::size_t i = 0; i < included.size(); ++i)
      next[included[i]] = compact_to_global[static_cast<std::size_t>(
          result.server_of_cell[i])];
    for (std::size_t c = 0; c < next.size(); ++c) {
      if (placement_[c] >= 0 && next[c] >= 0 && next[c] != placement_[c]) {
        ++report.migrations;
        // A sink-owned move is a migration *plan*, not a teleport: the
        // cell keeps running on its current server until the protocol
        // commits and complete_migration() flips it.
        if (migration_sink_) {
          migration_sink_(static_cast<int>(c), placement_[c], next[c]);
          next[c] = placement_[c];
        }
      }
    }
    placement_ = std::move(next);
    total_migrations_ += report.migrations;
    report.active_servers = PlacementResult{placement_}.active_servers();
  }
  record(report);
  return report;
}

void Controller::record(const EpochReport& report) {
  ++totals_.replans;
  totals_.shed_cells += report.shed_cells;
  if (report.feasible) {
    totals_.active_servers += report.active_servers;
    totals_.solve_seconds += report.solve_seconds;
    ++totals_.feasible;
  }
  last_report_ = report;
}

void Controller::complete_migration(int cell_index, int server_id) {
  PRAN_REQUIRE(cell_index >= 0 && cell_index < num_cells(),
               "unknown cell index");
  PRAN_REQUIRE(server_id >= 0 && server_id < num_servers(),
               "unknown server id");
  placement_[static_cast<std::size_t>(cell_index)] = server_id;
}

int Controller::server_of(int cell_index) const {
  PRAN_REQUIRE(cell_index >= 0 && cell_index < num_cells(),
               "unknown cell index");
  return placement_[static_cast<std::size_t>(cell_index)];
}

bool Controller::server_available(int server_id) const {
  PRAN_REQUIRE(server_id >= 0 && server_id < num_servers(),
               "unknown server id");
  return available_[static_cast<std::size_t>(server_id)];
}

int Controller::handle_failure(int server_id, sim::Time now) {
  PRAN_REQUIRE(server_id >= 0 && server_id < num_servers(),
               "unknown server id");
  const auto idx = static_cast<std::size_t>(server_id);
  if (config_.quarantine) {
    // Failures arrive in time order, so the newest kFlapThreshold of them
    // are all handle_recovery() needs to tell whether kFlapThreshold fell
    // inside the window.
    auto& times = failure_times_[idx];
    times.push_back(now);
    if (static_cast<int>(times.size()) > kFlapThreshold)
      times.erase(times.begin());
  }
  if (quarantined_[idx]) {
    // A quarantined server failed again before release: it hosts no cells,
    // so there is nothing to rescue. It stays out of the pool; the failure
    // timestamp above extends its flap history.
    quarantined_[idx] = false;
    return 0;
  }
  PRAN_REQUIRE(available_[idx], "server already marked failed");
  available_[idx] = false;

  // Current spare capacity per surviving server, against estimated demand.
  std::vector<double> load(servers_.size(), 0.0);
  for (std::size_t c = 0; c < placement_.size(); ++c)
    if (placement_[c] >= 0 && placement_[c] != server_id)
      load[static_cast<std::size_t>(placement_[c])] +=
          estimated_demand(static_cast<int>(c));

  // Rescue the failed server's cells, largest first (best packing odds).
  std::vector<std::size_t> victims;
  for (std::size_t c = 0; c < placement_.size(); ++c) {
    if (placement_[c] != server_id) continue;
    // Cells whose fate another subsystem owns (commit-phase migrations
    // resolving by lease takeover) are not failover victims.
    if (failover_filter_ && failover_filter_(static_cast<int>(c))) continue;
    victims.push_back(c);
  }
  std::sort(victims.begin(), victims.end(), [&](std::size_t a, std::size_t b) {
    return estimated_demand(static_cast<int>(a)) >
           estimated_demand(static_cast<int>(b));
  });

  int outages = 0;
  for (std::size_t c : victims) {
    const double d = estimated_demand(static_cast<int>(c));
    int chosen = -1;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      if (!available_[s]) continue;
      const double cap = config_.headroom * servers_[s].gops_per_tti();
      if (load[s] + d <= cap + 1e-12) {
        chosen = static_cast<int>(s);
        break;
      }
    }
    if (chosen < 0) {
      placement_[c] = -1;
      ++outages;
    } else {
      placement_[c] = chosen;
      load[static_cast<std::size_t>(chosen)] += d;
      ++total_migrations_;
    }
  }
  return outages;
}

RecoveryDecision Controller::handle_recovery(int server_id, sim::Time now) {
  PRAN_REQUIRE(server_id >= 0 && server_id < num_servers(),
               "unknown server id");
  const auto idx = static_cast<std::size_t>(server_id);
  PRAN_REQUIRE(!available_[idx], "server is not failed");
  if (config_.quarantine) {
    auto& times = failure_times_[idx];
    const sim::Time cutoff = now - kFlapWindow;
    times.erase(std::remove_if(times.begin(), times.end(),
                               [&](sim::Time t) { return t < cutoff; }),
                times.end());
    if (static_cast<int>(times.size()) >= kFlapThreshold) {
      quarantined_[idx] = true;
      quarantined_until_[idx] = now + backoff_[idx];
      backoff_[idx] = static_cast<sim::Time>(
          static_cast<double>(backoff_[idx]) * kQuarantineBackoffMultiplier);
      return {false, quarantined_until_[idx]};
    }
    backoff_[idx] = kQuarantineBase;
  }
  available_[idx] = true;
  return {true, 0};
}

int Controller::release_quarantines(sim::Time now) {
  int released = 0;
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    if (!quarantined_[s] || quarantined_until_[s] > now) continue;
    quarantined_[s] = false;
    available_[s] = true;
    ++released;
  }
  return released;
}

bool Controller::server_quarantined(int server_id) const {
  PRAN_REQUIRE(server_id >= 0 && server_id < num_servers(),
               "unknown server id");
  return quarantined_[static_cast<std::size_t>(server_id)];
}

}  // namespace pran::core
