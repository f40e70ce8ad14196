#pragma once

/// \file rate_match.hpp
/// Rate matching: adapts the rate-1/3 mother code to the code rate the MCS
/// table demands, by evenly puncturing coded bits (rates above 1/3) —
/// punctured positions come back as zero-LLR erasures at the receiver.
/// Repetition (rates below 1/3) is supported by cycling through the block
/// again. This is a simplification of TS 36.212's circular-buffer rate
/// matching that preserves the property the experiments need: effective
/// rate in, BLER-vs-SNR shift out.

#include "coding/viterbi.hpp"

namespace pran::coding {

/// Positions kept when transmitting `output_bits` of an `input_bits`-long
/// mother codeword. Deterministic, evenly spread.
std::vector<std::size_t> rate_match_pattern(std::size_t input_bits,
                                            std::size_t output_bits);

/// Selects (punctures) or repeats coded bits to exactly `output_bits`.
Bits rate_match(const Bits& coded, std::size_t output_bits);

/// Reconstructs mother-codeword LLRs from received LLRs: punctured
/// positions get 0 (erasure), repeated positions accumulate.
Llrs rate_dematch(const Llrs& received, std::size_t mother_bits);

/// Channel bits needed to carry `info_bits` at code rate `rate` with the
/// terminated mother code; never below the rate-1/3 floor... above it,
/// i.e. result >= some minimum keeping the code decodable.
std::size_t output_bits_for_rate(std::size_t info_bits, double rate);

}  // namespace pran::coding
