#pragma once

/// \file viterbi.hpp
/// Soft-decision Viterbi decoder for the rate-1/3 K=7 convolutional code.
///
/// Maximum-likelihood sequence decoding over the 64-state trellis with full
/// traceback. Input is one log-likelihood ratio per coded bit, positive
/// meaning "bit 0 more likely"; a zero LLR is an erasure (used by the
/// de-rate-matcher for punctured positions). Hard-decision decoding is the
/// special case LLR = ±1.
///
/// The add-compare-select forward sweep dispatches to the SIMD kernels in
/// src/coding/simd/ (scalar / AVX2, picked at runtime),
/// vectorized across the 64 trellis states. Every tier is bit-exact
/// against the scalar reference. There is no lane-axis path: 64 states
/// already fill a vector register (see simd/viterbi_kernels.hpp), so
/// decode_batch() is a plain loop over decode().

#include <span>
#include <vector>

#include "coding/convolutional.hpp"

namespace pran::coding {

/// Log-likelihood ratios, one per coded bit; sign convention log(P0/P1).
using Llrs = std::vector<double>;

struct ViterbiResult {
  Bits info;            ///< Decoded information bits (flush bits removed).
  double path_metric = 0.0;  ///< Correlation metric of the winning path.
};

/// One block in a batched Viterbi decode: the caller fills `llrs`,
/// decode_batch() fills the outputs (same meaning as ViterbiResult).
struct ViterbiBatchItem {
  const Llrs* llrs = nullptr;  ///< Input; length encoded_length(info_bits).
  Bits info;                   ///< Decoded information bits.
  double path_metric = 0.0;    ///< Correlation metric of the winning path.
};

/// Reusable Viterbi decoder workspace.
///
/// Holds the flat float path-metric buffers and the per-step decision
/// bitmask matrix, so repeated decodes perform zero heap allocation once
/// the buffers have grown to the largest block seen. One instance per
/// thread; distinct instances are fully independent (the parallel BLER
/// harness keeps one per worker slot).
class ViterbiDecoder {
 public:
  ViterbiDecoder() = default;

  /// Same contract as the free viterbi_decode(); the returned reference
  /// (including `info`) aliases internal storage and is invalidated by the
  /// next decode on this instance.
  const ViterbiResult& decode(const Llrs& llrs, std::size_t info_bits);

  /// Calls decode() on each item in turn and copies out its result.
  void decode_batch(std::span<ViterbiBatchItem> items,
                    std::size_t info_bits);

 private:
  std::vector<float> metric_, next_metric_;   // kNumStates + pad each
  std::vector<std::uint8_t> decisions_;       // total_steps * 8 bitmask bytes
  std::vector<std::uint8_t> inputs_;          // traceback scratch
  ViterbiResult result_;
};

/// Decodes `llrs` (length must be a multiple of 3 and at least 3*7).
/// `info_bits` is the original information length; llrs must cover
/// encoded_length(info_bits) coded bits.
///
/// Thin wrapper over a thread-local ViterbiDecoder workspace: repeated
/// calls from one thread reuse the same buffers.
ViterbiResult viterbi_decode(const Llrs& llrs, std::size_t info_bits);

}  // namespace pran::coding
