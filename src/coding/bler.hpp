#pragma once

/// \file bler.hpp
/// End-to-end link experiments over the full chain:
/// CRC -> convolutional encode -> rate match -> BPSK/AWGN -> de-rate-match
/// -> Viterbi -> CRC check. Produces the BLER/BER waterfall curves and the
/// decoder-throughput numbers E14 reports.

#include "coding/awgn.hpp"
#include "coding/rate_match.hpp"
#include "common/parallel.hpp"

namespace pran::coding {

struct LinkConfig {
  std::size_t info_bits = 256;   ///< Payload before CRC.
  double code_rate = 1.0 / 3.0;  ///< Effective rate after matching.
  bool soft_decision = true;     ///< Soft vs hard Viterbi input.
};

struct LinkStats {
  std::size_t blocks = 0;
  std::size_t block_errors = 0;     ///< CRC failures after decode.
  std::size_t bit_errors = 0;       ///< Info-bit errors across all blocks.
  std::size_t bits = 0;             ///< Total info bits transmitted.
  std::size_t undetected_errors = 0;  ///< CRC passed but payload wrong.

  double bler() const noexcept {
    return blocks ? static_cast<double>(block_errors) /
                        static_cast<double>(blocks)
                  : 0.0;
  }
  double ber() const noexcept {
    return bits ? static_cast<double>(bit_errors) / static_cast<double>(bits)
                : 0.0;
  }
};

/// Runs `blocks` random transport blocks at the given Es/N0 and collects
/// error statistics.
///
/// Each block draws from its own substream of `rng` (`rng` itself advances
/// by exactly one draw) and is decoded on its own, so the statistics
/// depend only on the incoming RNG state and the block index — never on
/// scheduling. Passing a ThreadPool fans the blocks across its workers,
/// each with a preallocated workspace, and is guaranteed to produce counts
/// identical to the serial run.
LinkStats run_link(const LinkConfig& config, units::Db esn0,
                   std::size_t blocks, Rng& rng, ThreadPool* pool = nullptr);

/// One full round trip of a single block; returns true if the CRC-verified
/// payload matched (used by tests and the throughput bench).
bool round_trip_block(const LinkConfig& config, units::Db esn0, Rng& rng);

}  // namespace pran::coding
