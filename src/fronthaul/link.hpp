#pragma once

/// \file link.hpp
/// Shared fronthaul link model.
///
/// Radio heads ship each subframe's I/Q samples to the cluster over a
/// shared fibre. The transfer is store-and-forward FIFO: a burst that
/// becomes ready at `ready` starts serialising when the link frees, takes
/// bits/rate seconds on the wire, and lands one propagation delay later.
/// Serialisation + queueing eat directly into the HARQ processing budget,
/// which is what makes fronthaul dimensioning (and compression, E7/E12) a
/// first-order design input for PRAN rather than plumbing.
///
/// The model is deterministic and event-free: because arrivals are
/// enqueued in nondecreasing ready order (the deployment generates TTIs in
/// time order), the FIFO schedule can be computed eagerly and the arrival
/// time returned to the caller, who uses it as the job's release time.
///
/// Impairments: a caller-installed hook (see faults::FronthaulImpairments)
/// may drop a burst at ingress (Gilbert–Elliott packet loss in the eCPRI
/// switch fabric, before the burst reaches the wire), delay its arrival
/// (per-packet forwarding jitter — the delivery is late but the wire
/// schedule is untouched, so the eager FIFO contract survives), or shrink
/// the effective capacity for its serialisation (a link-rate brownout).
///
/// Accounting: the link reports each burst's fate in the BurstOutcome it
/// returns (lost, or carried and maybe late past the configured
/// threshold), and its caller counts it; the deployment counts
/// `fronthaul.lost_bursts` and `fronthaul.late_bursts`. The link itself
/// keeps only its busy time (for utilization()), the worst queueing delay
/// and the per-epoch Window the degradation ladder reads.
///
/// Burst sizes are exact `units::Bits` and the fibre capacity a
/// `units::BitRate`, so a byte count (or a compressed fractional rate)
/// cannot silently land where wire bits belong.

#include <cstdint>
#include <functional>

#include "common/units.hpp"
#include "sim/time.hpp"

namespace pran::fronthaul {

struct LinkParams {
  units::BitRate rate_bps{25e9};                   ///< Fibre capacity.
  sim::Time propagation = 25 * sim::kMicrosecond;  ///< One-way, ~5 km.
};

/// What an impairment model decided about one burst.
struct BurstImpairment {
  bool lost = false;            ///< Burst dropped at ingress, never sent.
  sim::Time extra_delay = 0;    ///< Jitter added to the arrival time.
  double capacity_factor = 1.0; ///< Effective rate multiplier, in (0, 1].
};

/// Outcome of one burst through the link.
struct BurstOutcome {
  bool lost = false;          ///< True: the burst never arrives.
  sim::Time arrival = 0;      ///< Last-bit arrival time; valid when !lost.
  sim::Time queue_delay = 0;  ///< Time the burst waited for the wire.
  bool late = false;  ///< Queueing + jitter exceeded the late threshold.
};

class FronthaulLink {
 public:
  /// Per-burst impairment decision; called once per enqueued burst, in
  /// FIFO ingress order.
  using ImpairmentHook =
      std::function<BurstImpairment(sim::Time ready, units::Bits bits)>;

  /// Windowed statistics since the previous take_window() call, for
  /// closed-loop consumers (the degradation ladder) that need per-epoch
  /// signals rather than whole-run cumulatives.
  struct Window {
    std::uint64_t bursts = 0;          ///< Offered this window (incl. lost).
    std::uint64_t lost = 0;            ///< Dropped at ingress this window.
    sim::Time max_queue_delay = 0;     ///< Worst wait this window.

    double loss_rate() const noexcept {
      return bursts ? static_cast<double>(lost) / static_cast<double>(bursts)
                    : 0.0;
    }
  };

  explicit FronthaulLink(LinkParams params);

  const LinkParams& params() const noexcept { return params_; }

  /// Installs (or clears, with nullptr) the impairment hook.
  void set_impairment_hook(ImpairmentHook hook) { hook_ = std::move(hook); }

  /// A burst counts as late when queueing + jitter delay exceeds this.
  void set_late_threshold(sim::Time threshold);

  /// Enqueues a burst of `bits` that is ready to start at `ready`; applies
  /// the impairment hook (if any) and returns the burst's fate. `ready`
  /// must be nondecreasing across calls (FIFO ingress).
  BurstOutcome enqueue_burst(sim::Time ready, units::Bits bits);

  /// Time the transmitter has spent serialising.
  sim::Time busy_time() const noexcept { return busy_; }

  /// Worst queueing delay (time a burst waited for the wire) seen so far.
  sim::Time max_queue_delay() const noexcept { return max_queue_delay_; }

  /// Link utilisation over [0, horizon], clamped to 1. The eager FIFO
  /// schedule may have committed serialisation time beyond `horizon`
  /// (backlogged bursts); when that happens the clamp under-reports the
  /// true backlog, so `saturated` (if non-null) is set to true — callers
  /// that care about overload must check it instead of trusting the
  /// clamped ratio.
  double utilization(sim::Time horizon, bool* saturated = nullptr) const;

  /// Returns the statistics accumulated since the previous call and
  /// resets the window. busy_time() and max_queue_delay() are unaffected.
  Window take_window();

 private:
  LinkParams params_;
  ImpairmentHook hook_;
  sim::Time late_threshold_ = 0;
  sim::Time next_free_ = 0;
  sim::Time last_ready_ = 0;
  sim::Time busy_ = 0;
  sim::Time max_queue_delay_ = 0;
  Window window_;
};

/// Bits one cell's subframe occupies on the wire: sample-rate * 1 ms worth
/// of I/Q words across all antennas, divided by the compression ratio
/// (rounded to the nearest whole bit).
units::Bits subframe_bits(units::Hertz sample_rate, int bits_per_component,
                          int antennas, double compression_ratio);

}  // namespace pran::fronthaul
