#pragma once

/// \file harq.hpp
/// LTE HARQ timing: the real-time constraint PRAN's scheduler must honour.
///
/// FDD LTE uses an 8-subframe synchronous uplink HARQ loop: a transport
/// block received in subframe n must be acknowledged in subframe n+4. After
/// subtracting one TTI each for the UE's own turnaround and transmission,
/// the eNB — and therefore the PRAN cluster — has roughly a 3 ms budget
/// from the end of the received subframe to finish decoding, minus whatever
/// the fronthaul spends hauling the samples in and the ACK back out.

#include "sim/time.hpp"

namespace pran::lte {

/// Number of parallel HARQ processes (FDD).
inline constexpr int kHarqProcesses = 8;

/// Retransmissions of an uplink transport block before it counts as lost.
inline constexpr int kMaxHarqRetx = 3;

/// ACK must leave the eNB this many subframes after uplink reception.
inline constexpr int kAckOffsetSubframes = 4;

/// Processing budget at the cluster for one uplink subframe (3 ms).
inline constexpr sim::Time kUplinkProcessingBudget = 3 * sim::kMillisecond;

/// Absolute decode deadline for an uplink subframe whose samples finish
/// arriving at `arrival`, given the round-trip fronthaul latency that must
/// be reserved for hauling the ACK back. Returns a time >= arrival; a
/// fronthaul RTT at or beyond the whole budget leaves a zero-length window
/// (the deployment is infeasible and the caller should reject it).
constexpr sim::Time uplink_deadline(sim::Time arrival,
                                    sim::Time fronthaul_rtt) noexcept {
  const sim::Time window = kUplinkProcessingBudget - fronthaul_rtt;
  return arrival + (window > 0 ? window : 0);
}

}  // namespace pran::lte
