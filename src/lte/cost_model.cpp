#include "lte/cost_model.hpp"

#include <cmath>

#include "common/check.hpp"

namespace pran::lte {

const char* stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::kFft:
      return "fft";
    case Stage::kChannelEstimation:
      return "chest";
    case Stage::kEqualization:
      return "equalize";
    case Stage::kDemodulation:
      return "demod";
    case Stage::kDecode:
      return "decode";
    case Stage::kMac:
      return "mac";
    case Stage::kCount:
      break;
  }
  return "?";
}

EffortCapOutcome apply_effort_cap(std::span<Allocation> allocs, int cap) {
  PRAN_REQUIRE(cap >= 1, "effort cap must allow at least one pass");
  EffortCapOutcome out;
  for (Allocation& alloc : allocs) {
    if (alloc.n_prb == 0) continue;
    out.needed_iterations += alloc.turbo_iterations;
    if (alloc.turbo_iterations > cap) {
      alloc.turbo_iterations = cap;
      ++out.capped_tbs;
    }
    out.realized_iterations += alloc.turbo_iterations;
  }
  return out;
}

double StageCost::total() const noexcept {
  double sum = 0.0;
  for (double g : gops) sum += g;
  return sum;
}

StageCost& StageCost::operator+=(const StageCost& other) noexcept {
  for (std::size_t i = 0; i < kStageCount; ++i) gops[i] += other.gops[i];
  return *this;
}

StageCost CostModel::fixed_cost(const CellConfig& cell, Direction dir) const {
  PRAN_REQUIRE(cell.fft_size >= 2, "FFT size must be >= 2");
  PRAN_REQUIRE(cell.antennas >= 1, "cell needs at least one antenna");
  StageCost cost{};
  const double n = static_cast<double>(cell.fft_size);
  const double butterflies = n * std::log2(n) / 2.0;
  // Downlink IFFT is symmetric in cost to the uplink FFT.
  cost[Stage::kFft] = params_.fft_ops_per_butterfly * butterflies *
                      static_cast<double>(cell.antennas) *
                      static_cast<double>(params_.ofdm_symbols_per_subframe) /
                      1e9;
  (void)dir;
  return cost;
}

StageCost CostModel::allocation_cost(const CellConfig& cell,
                                     const Allocation& alloc,
                                     Direction dir) const {
  PRAN_REQUIRE(alloc.n_prb >= 0 && alloc.n_prb <= cell.n_prb,
               "allocation exceeds the cell's PRBs");
  PRAN_REQUIRE(alloc.turbo_iterations >= 1, "decoder runs at least one pass");
  StageCost cost{};
  if (alloc.n_prb == 0) return cost;

  const auto& entry = mcs(alloc.mcs);
  const double prbs = static_cast<double>(alloc.n_prb);
  const double ants = static_cast<double>(cell.antennas);
  const double layers = static_cast<double>(cell.mimo_layers);
  const double mod_bits = static_cast<double>(bits_per_symbol(entry.mod));
  const double tb_bits =
      static_cast<double>(
          transport_block_bits(alloc.mcs, units::PrbCount{alloc.n_prb})
              .count()) *
      layers;

  cost[Stage::kChannelEstimation] =
      params_.chest_ops_per_antenna_prb * ants * prbs / 1e9;
  if (dir == Direction::kUplink) {
    cost[Stage::kEqualization] =
        params_.eq_ops_per_ant2_layer_prb * ants * ants * layers * prbs / 1e9;
  }
  cost[Stage::kDemodulation] =
      params_.demod_ops_per_bit_layer_prb * mod_bits * layers * prbs / 1e9;

  const double decode_scale =
      dir == Direction::kUplink ? 1.0 : params_.downlink_decode_scale;
  const double iters = dir == Direction::kUplink
                           ? static_cast<double>(alloc.turbo_iterations)
                           : 1.0;
  cost[Stage::kDecode] =
      params_.decode_ops_per_bit_iter * tb_bits * iters * decode_scale / 1e9;
  cost[Stage::kMac] = params_.mac_ops_per_bit * tb_bits / 1e9;
  return cost;
}

StageCost CostModel::subframe_cost(const CellConfig& cell,
                                   std::span<const Allocation> allocs,
                                   Direction dir) const {
  StageCost cost = fixed_cost(cell, dir);
  int used_prbs = 0;
  for (const auto& alloc : allocs) {
    used_prbs += alloc.n_prb;
    cost += allocation_cost(cell, alloc, dir);
  }
  PRAN_REQUIRE(used_prbs <= cell.n_prb,
               "allocations oversubscribe the cell's PRBs");
  return cost;
}

StageCost CostModel::peak_cost(const CellConfig& cell, Direction dir,
                               int turbo_iterations) const {
  const Allocation full{cell.n_prb, 28, turbo_iterations};
  const Allocation allocs[] = {full};
  return subframe_cost(cell, allocs, dir);
}

}  // namespace pran::lte
