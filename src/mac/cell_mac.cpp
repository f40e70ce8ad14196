#include "mac/cell_mac.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace pran::mac {

CellMac::CellMac(CellMacConfig config)
    : config_(std::move(config)), scheduler_(make_scheduler(config_.scheduler)) {
  PRAN_REQUIRE(config_.num_ues >= 1, "cell needs at least one UE");
  PRAN_REQUIRE(config_.radius_m > config_.min_distance_m,
               "radius must exceed the minimum UE distance");
  Rng rng(config_.seed);
  ues_.reserve(static_cast<std::size_t>(config_.num_ues));
  for (int u = 0; u < config_.num_ues; ++u) {
    UeConfig uc;
    uc.ue_id = u;
    uc.distance_m = std::max(std::sqrt(rng.uniform()) * config_.radius_m,
                             config_.min_distance_m);
    uc.traffic = config_.traffic;
    uc.mean_arrival_bps = config_.mean_arrival_bps;
    ues_.emplace_back(uc, rng());
  }
}

std::vector<lte::Allocation> CellMac::run_tti() {
  for (auto& ue : ues_) {
    ue.advance_channel();
    ue.advance_traffic();
  }
  const std::vector<Grant> grants =
      scheduler_->schedule(ues_, units::PrbCount{config_.cell.n_prb});
  ++ttis_;

  std::vector<lte::Allocation> allocs;
  allocs.reserve(grants.size());
  int total = 0;
  for (const auto& g : grants) {
    total += g.allocation.n_prb;
    allocs.push_back(g.allocation);
  }
  PRAN_CHECK(total <= config_.cell.n_prb,
             "scheduler exceeded the cell's PRB budget");
  return allocs;
}

double CellMac::cell_throughput_bps() const {
  if (ttis_ == 0) return 0.0;
  double bits = 0.0;
  for (const auto& ue : ues_) bits += ue.total_served_bits();
  return bits / (static_cast<double>(ttis_) * 1e-3);
}

std::vector<double> CellMac::ue_throughputs_bps() const {
  std::vector<double> out;
  out.reserve(ues_.size());
  const double seconds = static_cast<double>(std::max<std::int64_t>(ttis_, 1)) * 1e-3;
  for (const auto& ue : ues_) out.push_back(ue.total_served_bits() / seconds);
  return out;
}

double CellMac::fairness() const { return jain_fairness(ue_throughputs_bps()); }

}  // namespace pran::mac
