#pragma once

/// \file ue.hpp
/// User-equipment state for the MAC scheduler: radio position (fixing the
/// CQI through the link model), a byte backlog fed by an arrival process,
/// and the throughput average the proportional-fair scheduler tracks.

#include <cstdint>

#include "common/rng.hpp"
#include "lte/link.hpp"

namespace pran::mac {

/// Traffic source kinds for a UE's backlog.
enum class TrafficKind {
  kFullBuffer,  ///< Always has data (classic scheduler-evaluation mode).
  kPoisson,     ///< Bursts of bytes arriving at exponential intervals.
};

struct UeConfig {
  int ue_id = 0;
  double distance_m = 300.0;    ///< Distance to the serving RU.
  TrafficKind traffic = TrafficKind::kFullBuffer;
  double mean_arrival_bps = 5e6;   ///< Poisson mode: average offered rate.
  double burst_bytes = 6000.0;     ///< Poisson mode: mean burst size.
};

/// Mutable per-UE scheduler state.
class Ue {
 public:
  Ue(UeConfig config, std::uint64_t seed);

  const UeConfig& config() const noexcept { return config_; }
  int id() const noexcept { return config_.ue_id; }

  /// Wideband CQI this TTI. Static channel plus small fast-fading jitter
  /// (log-normal, redrawn per TTI) around the distance-determined mean.
  int current_cqi() const noexcept { return cqi_; }

  /// Redraws fading and refreshes CQI; call once per TTI.
  void advance_channel();

  /// Adds traffic arrivals for one TTI; call once per TTI.
  void advance_traffic();

  /// Bytes waiting in the downlink queue.
  double backlog_bytes() const noexcept { return backlog_bytes_; }
  bool has_data() const noexcept;

  /// Removes up to `bytes` from the backlog (scheduler served them).
  /// Returns the bytes actually drained.
  double drain(double bytes);

  /// Exponentially averaged served throughput (bit/s) for PF metrics.
  double average_throughput_bps() const noexcept { return avg_tput_bps_; }

  /// Folds one TTI's served bits (`served`, possibly fractional — the
  /// backlog drains in fractional bytes) into the PF average
  /// (alpha = 1/window).
  void update_average(double served, double window_ttis = 100.0);

  /// Total bits served so far.
  double total_served_bits() const noexcept { return total_bits_; }

 private:
  UeConfig config_;
  Rng rng_;
  units::Db fading_db_{0.0};
  int cqi_ = 0;
  double backlog_bytes_ = 0.0;
  double avg_tput_bps_ = 1.0;  // small floor avoids divide-by-zero in PF
  double total_bits_ = 0.0;
};

}  // namespace pran::mac
