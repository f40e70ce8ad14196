#pragma once

/// \file control_plane.hpp
/// Control-plane impairments: the controller <-> server command channel is
/// not a function call. PREPARE/COMMIT-style protocol messages ride a real
/// management network that loses, delays and reorders datagrams, and the
/// migration protocol (core/migration.hpp) must survive all three.
///
/// Three impairment processes, mirroring what an out-of-band management
/// LAN actually suffers:
///
///   * message loss    — i.i.d. per-message drop with probability
///                       `loss_probability` (management traffic is not
///                       bursty enough to justify a Gilbert–Elliott chain;
///                       burstiness comes from retry storms instead);
///   * delivery delay  — kControlPlaneBaseDelay propagation plus uniform
///                       jitter in [0, max_jitter];
///   * reordering      — with `reorder_probability`, a message is held an
///                       extra `reorder_delay`, so a later message can
///                       overtake it (stale deliveries must be fenced by
///                       the receiver, never trusted).
///
/// Determinism contract (same as faults::FronthaulImpairments): all draws
/// come from fixed `Rng::stream()` substreams of one seed — stream 0
/// drives loss, stream 1 jitter, stream 2 reordering — and every
/// per-message draw happens unconditionally in fixed order. The fate of
/// message n therefore depends only on (seed, n): re-tuning jitter cannot
/// change which messages are lost, and a sweep is thread-count invariant
/// because each deployment owns its own channel.
///
/// `scripted_drops` additionally kills exact message sequence numbers
/// regardless of the stochastic draws — the deterministic hook the
/// protocol-edge tests use to lose precisely the first PREPARE or the
/// COMMIT of one chosen migration.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/time.hpp"

namespace pran::faults {

/// Fixed one-way delivery delay for every control-plane message.
inline constexpr sim::Time kControlPlaneBaseDelay = 50 * sim::kMicrosecond;

struct ControlPlaneImpairmentConfig {
  /// Per-message i.i.d. drop probability.
  double loss_probability = 0.0;
  /// Uniform extra delay in [0, max_jitter]; 0 disables the jitter draw's
  /// *effect* (the draw itself still happens — see the determinism note).
  sim::Time max_jitter = 0;
  /// Probability a message is additionally held `reorder_delay`.
  double reorder_probability = 0.0;
  sim::Time reorder_delay = 0;
  /// Message sequence numbers dropped deterministically on top of the
  /// stochastic loss (tests scripting exact protocol edges).
  std::vector<std::uint64_t> scripted_drops;

  bool impaired() const noexcept {
    return loss_probability > 0.0 || max_jitter > 0 ||
           reorder_probability > 0.0 || !scripted_drops.empty();
  }
};

/// Outcome of one control-plane send, decided at send time (the channel
/// is a model, not a transport: the caller schedules the delivery event).
struct ControlDelivery {
  std::uint64_t seq = 0;     ///< Channel-wide message sequence number.
  bool lost = false;         ///< True: the message never arrives.
  bool reordered = false;    ///< True: reorder_delay was added.
  sim::Time deliver_at = 0;  ///< Valid when !lost.
};

/// Deterministic impairment source for one controller <-> servers command
/// channel. Stateful (the sequence counter advances with every send), so
/// one instance serves exactly one deployment's control plane.
class ControlPlaneChannel {
 public:
  ControlPlaneChannel(const ControlPlaneImpairmentConfig& config,
                      std::uint64_t seed);

  /// Decides the fate of the next message sent at `now`. Draws loss,
  /// jitter and reorder unconditionally, in that order, so the outcome
  /// sequence is a pure function of (seed, message index).
  ControlDelivery send(sim::Time now);

  std::uint64_t messages_sent() const noexcept { return sent_; }
  std::uint64_t messages_lost() const noexcept { return lost_; }

 private:
  ControlPlaneImpairmentConfig config_;
  Rng loss_rng_;
  Rng jitter_rng_;
  Rng reorder_rng_;
  std::uint64_t sent_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace pran::faults
