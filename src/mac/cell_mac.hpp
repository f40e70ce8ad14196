#pragma once

/// \file cell_mac.hpp
/// One cell's MAC: a UE population plus a scheduler, advanced TTI by TTI.
/// Produces the allocation lists the base-band pipeline processes — the
/// closed-loop alternative to workload::TrafficModel's statistical
/// sampling — and tracks the throughput/fairness metrics scheduler studies
/// report.

#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "mac/scheduler.hpp"

namespace pran::mac {

struct CellMacConfig {
  lte::CellConfig cell;
  int num_ues = 12;
  std::string scheduler = "proportional-fair";
  TrafficKind traffic = TrafficKind::kFullBuffer;
  double mean_arrival_bps = 5e6;   ///< Per UE, Poisson mode.
  double radius_m = 800.0;         ///< UEs placed uniformly in this disc.
  double min_distance_m = 30.0;
  std::uint64_t seed = 1;
};

class CellMac {
 public:
  explicit CellMac(CellMacConfig config);

  const CellMacConfig& config() const noexcept { return config_; }
  const std::vector<Ue>& ues() const noexcept { return ues_; }
  const Scheduler& scheduler() const noexcept { return *scheduler_; }
  std::int64_t ttis_run() const noexcept { return ttis_; }

  /// Advances channels and traffic one TTI, runs the scheduler, and
  /// returns the resulting allocations (for the cost model / executor).
  std::vector<lte::Allocation> run_tti();

  /// Aggregate served cell throughput so far, bit/s.
  double cell_throughput_bps() const;

  /// Per-UE long-run throughputs (bit/s), index-aligned with ues().
  std::vector<double> ue_throughputs_bps() const;

  /// Jain fairness over per-UE throughputs.
  double fairness() const;

 private:
  CellMacConfig config_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<Ue> ues_;
  std::int64_t ttis_ = 0;
};

}  // namespace pran::mac
