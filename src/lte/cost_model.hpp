#pragma once

/// \file cost_model.hpp
/// Per-stage base-band processing cost model.
///
/// PRAN's central premise is that L1/L2 processing of many cells runs on
/// commodity servers, so the controller needs a calibrated model of how many
/// operations one subframe costs. We model the uplink receive pipeline
/// (FFT -> channel estimation -> equalisation -> demodulation -> turbo
/// decoding -> MAC) and the cheaper downlink transmit pipeline, with each
/// stage scaling in the physically meaningful dimension:
///
///   FFT            ~ antennas * symbols * N log2 N   (whole band, fixed)
///   channel est.   ~ antennas * PRBs
///   equalisation   ~ antennas^2 * layers * PRBs      (MMSE matrix work)
///   demodulation   ~ mod-bits * layers * PRBs        (LLR computation)
///   turbo decode   ~ iterations * transport-block bits   (dominant stage)
///   MAC            ~ transport-block bits
///
/// Default calibration: a fully loaded 20 MHz, 4-antenna, 2-layer, MCS-28
/// uplink subframe costs ~0.30 giga-operations, ~50% of it turbo decoding —
/// matching published software-LTE measurements in shape (decode-dominated,
/// linear in PRBs, super-linear in MCS via the transport block).

#include <array>
#include <cstddef>
#include <span>

#include "lte/mcs.hpp"

namespace pran::lte {

/// Static radio configuration of one cell.
struct CellConfig {
  int n_prb = 100;      ///< 20 MHz carrier.
  int antennas = 4;     ///< Receive antennas.
  int mimo_layers = 2;  ///< Spatial layers.
  int fft_size = 2048;  ///< OFDM FFT length for this bandwidth.
};

/// Turbo-decoder iteration-count envelope. Every layer that reasons about
/// decode effort — the traffic sampler, the MAC scheduler's per-MCS
/// estimate, the cost model's peak provisioning and the overload
/// controller's effort caps — must use these two constants so they cannot
/// drift apart again (the seed had the Allocation default at 6 while
/// peak_cost budgeted 8).
inline constexpr int kMinTurboIterations = 2;
inline constexpr int kMaxTurboIterations = 8;

/// One UE's allocation inside a subframe.
struct Allocation {
  int n_prb = 0;
  int mcs = 0;
  /// Decoder iterations actually run. Defaults to the worst-case budget so
  /// an un-sampled Allocation is charged conservatively, matching
  /// peak_cost().
  int turbo_iterations = kMaxTurboIterations;
};

/// Result of clamping a subframe's allocations to an effort cap.
struct EffortCapOutcome {
  int capped_tbs = 0;            ///< Allocations whose budget was reduced.
  long needed_iterations = 0;    ///< Sum of pre-cap (sampled) iterations.
  long realized_iterations = 0;  ///< Sum of post-cap iterations.
};

/// Clamp each allocation's turbo_iterations to `cap` in place, so the cost
/// model charges the *realized* effort rather than the sampled demand. The
/// floor is 1 iteration — a capped decode still runs at least one pass.
/// Returns how much effort was asked for vs granted so callers can account
/// for the complexity-rate tradeoff honestly.
EffortCapOutcome apply_effort_cap(std::span<Allocation> allocs, int cap);

enum class Direction { kUplink, kDownlink };

/// Pipeline stages, in processing order.
enum class Stage : std::size_t {
  kFft = 0,
  kChannelEstimation,
  kEqualization,
  kDemodulation,
  kDecode,  ///< Turbo decode (UL) or encode (DL).
  kMac,
  kCount
};

inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kCount);

const char* stage_name(Stage s) noexcept;

/// Giga-operations per stage for some unit of work.
struct StageCost {
  std::array<double, kStageCount> gops{};

  double& operator[](Stage s) { return gops[static_cast<std::size_t>(s)]; }
  double operator[](Stage s) const {
    return gops[static_cast<std::size_t>(s)];
  }
  double total() const noexcept;
  StageCost& operator+=(const StageCost& other) noexcept;
  friend StageCost operator+(StageCost a, const StageCost& b) noexcept {
    a += b;
    return a;
  }
};

/// Calibration constants (operations, not giga-operations).
struct CostParams {
  double fft_ops_per_butterfly = 24.0;
  double chest_ops_per_antenna_prb = 75e3;
  double eq_ops_per_ant2_layer_prb = 14.0e3;
  double demod_ops_per_bit_layer_prb = 25e3;
  double decode_ops_per_bit_iter = 160.0;
  double mac_ops_per_bit = 96.0;
  int ofdm_symbols_per_subframe = 14;
  /// Downlink runs the transmit pipeline: no equalisation, encoding is about
  /// a third of decoding, everything else symmetric.
  double downlink_decode_scale = 1.0 / 3.0;
};

/// Deterministic cost model; all stochasticity (e.g. iteration counts)
/// enters through the Allocation inputs.
class CostModel {
 public:
  explicit CostModel(CostParams params = {}) : params_(params) {}

  const CostParams& params() const noexcept { return params_; }

  /// Per-subframe cost that is paid whenever the cell is active, regardless
  /// of load (front-end FFTs across the whole band).
  StageCost fixed_cost(const CellConfig& cell, Direction dir) const;

  /// Cost of one UE's allocation.
  StageCost allocation_cost(const CellConfig& cell, const Allocation& alloc,
                            Direction dir) const;

  /// Full subframe: fixed cost plus every allocation.
  StageCost subframe_cost(const CellConfig& cell,
                          std::span<const Allocation> allocs,
                          Direction dir) const;

  /// Worst-case subframe cost for a cell: all PRBs allocated at the highest
  /// MCS. This is what per-cell peak provisioning must budget for.
  StageCost peak_cost(const CellConfig& cell, Direction dir,
                      int turbo_iterations = kMaxTurboIterations) const;

 private:
  CostParams params_;
};

}  // namespace pran::lte
