#pragma once

/// \file turbo.hpp
/// LTE-style turbo code: parallel concatenation of two 8-state recursive
/// systematic convolutional (RSC) encoders, g0 = 1 + D^2 + D^3 (feedback)
/// and g1 = 1 + D + D^3 (parity), joined by a quadratic permutation
/// interleaver, decoded iteratively with max-log-MAP (BCJR) constituent
/// decoders exchanging extrinsic information.
///
/// Faithfulness notes (documented substitutions):
///  * Block sizes are powers of two in [64, 8192]; the interleaver is
///    QPP-form pi(i) = (f1*i + f2*i^2) mod K with f1 odd / f2 even (a
///    permutation for power-of-two K), rather than 36.212's per-K table.
///  * Trellis termination: both encoders are driven back to state zero
///    with 3 tail steps each (12 tail bits on the wire, as in LTE).
///
/// This is the decoder whose iteration count the PHY cost model charges
/// for: E17 measures BLER versus iteration budget and the distribution of
/// iterations-to-converge (CRC-gated early termination).
///
/// The constituent max-log-MAP passes dispatch to the SIMD kernels in
/// src/coding/simd/ (scalar / AVX2, picked at runtime — see
/// simd/dispatch.hpp). One driver, TurboDecoder::decode_batch(), runs
/// every decode on one of two vectorization axes, picked by block count
/// and tier: a call with one block, or on a one-lane tier, runs one lane
/// whose 8 trellis states share a vector register (`map_pass`); a call
/// with more blocks on a wider tier runs `lane_width` same-K codeblocks in
/// lockstep, one float lane per block, with per-lane CRC-gated early
/// termination and lane refill (`batch_map_pass`). decode() is a one-block
/// batch. Every tier is bit-exact against the scalar reference, so
/// results never depend on the host CPU.

#include <functional>
#include <span>

#include "coding/crc.hpp"
#include "coding/viterbi.hpp"  // Bits/Llrs aliases

namespace pran::coding {

namespace simd {
struct TurboKernels;
}  // namespace simd

/// Number of coded bits for a K-bit turbo block: systematic + 2 parity
/// streams + 12 termination bits.
constexpr std::size_t turbo_encoded_length(std::size_t k) noexcept {
  return 3 * k + 12;
}

/// True if `k` is a supported turbo block size.
bool turbo_block_size_ok(std::size_t k) noexcept;

/// QPP-form interleaver for block size `k` (power of two in [64, 8192]).
/// Returned vector maps interleaved position i -> original index pi(i).
std::vector<std::size_t> turbo_interleaver(std::size_t k);

/// Encodes `info` (size must satisfy turbo_block_size_ok). Output layout:
/// [systematic K | parity1 K | parity2 K | tail 12].
Bits turbo_encode(const Bits& info);

struct TurboResult {
  Bits info;            ///< Hard decisions after the final iteration.
  int iterations = 0;   ///< Iterations actually run.
  bool converged = false;  ///< True if the early-exit predicate fired.
};

/// One codeblock in a batched decode. The caller fills `llrs`;
/// decode_batch() fills the rest (same meaning as TurboResult —
/// `iterations` is the per-lane count actually run, so a lane that
/// early-terminates frees its slot for a pending block).
struct TurboBatchItem {
  const Llrs* llrs = nullptr;  ///< Input; length turbo_encoded_length(k).
  /// Per-block iteration budget; 0 inherits the call-wide max_iterations.
  /// A positive value overrides it, letting an overload controller give
  /// each transport block its own effort cap within one batch. A lane that
  /// reaches its budget without converging retires (and refills) exactly
  /// as if the call-wide cap had been hit.
  int max_iterations = 0;
  Bits info;                   ///< Hard decisions.
  int iterations = 0;          ///< Iterations this block used.
  bool converged = false;      ///< Early-stop predicate fired.
};

/// Occupancy accounting for one decode_batch() call. A one-lane run
/// decodes its blocks one after another: it counts no refills and no idle
/// lane-iterations.
struct TurboBatchStats {
  unsigned lane_width = 1;     ///< SIMD lanes of the tier that ran.
  std::size_t map_pass_calls = 0;  ///< Constituent passes launched.
  std::size_t lane_refills = 0;    ///< Finished lanes refilled mid-flight.
  std::size_t idle_lane_iterations = 0;  ///< Lane-iterations run empty.
  /// Blocks that hit their iteration budget without the early-stop
  /// predicate firing — the decode-side signature of an effort cap biting.
  /// Only counted when an early_stop predicate was supplied (without one,
  /// every block runs to its cap by construction).
  std::size_t budget_exhausted = 0;
};

/// Reusable max-log-MAP decoder workspace.
///
/// Holds the flat float alpha/beta/extrinsic buffers (structure-of-arrays,
/// lane minor) so repeated decodes perform zero heap allocation once the
/// buffers have grown to the largest K and lane count seen (the srsRAN
/// `tdec_t` idiom). One instance per thread: decode()/decode_batch() are
/// not reentrant, but distinct instances are fully independent — the
/// parallel BLER harness keeps one per worker slot.
class TurboDecoder {
 public:
  TurboDecoder() = default;

  /// Same contract as the free turbo_decode(): a one-block decode_batch().
  /// The returned reference (including `info`) aliases internal storage
  /// and is invalidated by the next decode() on this instance.
  const TurboResult& decode(const Llrs& llrs, std::size_t k,
                            int max_iterations = 8,
                            const std::function<bool(const Bits&)>&
                                early_exit = nullptr);

  /// Decodes `items` (all block size `k`). One block, or a one-lane tier,
  /// runs one lane through the state-axis kernel; otherwise lane_width
  /// blocks run in lockstep through the lane-axis kernel, one float lane
  /// each. `early_stop(item_index, hard)` is evaluated per lane after
  /// every iteration (e.g. a per-block CRC); a lane that converges — or
  /// exhausts its iteration budget — retires and is refilled with the next
  /// pending block, so a long batch keeps the vector unit full even when
  /// most blocks terminate early. Per-item outputs are the same bits for
  /// every ISA tier and batch size.
  TurboBatchStats decode_batch(std::span<TurboBatchItem> items,
                               std::size_t k, int max_iterations = 8,
                               const std::function<bool(std::size_t,
                                                        const Bits&)>&
                                   early_stop = nullptr);

 private:
  /// The iteration loop over the workspace. kOneLane: one lane through
  /// `map_pass`; otherwise `lane_width` lanes through `batch_map_pass`.
  template <bool kOneLane>
  void run(std::span<TurboBatchItem> items, std::size_t k,
           int max_iterations,
           const std::function<bool(std::size_t, const Bits&)>& early_stop,
           const simd::TurboKernels& kernels, TurboBatchStats& stats);
  void ensure_capacity(std::size_t k, unsigned lanes);

  // Entry for (step t, lane l) lives at [t * lanes + l].
  std::size_t capacity_k_ = 0;
  unsigned capacity_lanes_ = 0;
  std::vector<float> beta_;        // (steps+1) * 8 backward metrics
  std::vector<float> sys_, par1_, par2_, sys_int_;  // steps entries each
  std::vector<float> half_par1_, half_par2_;        // 0.5 * parity LLRs
  std::vector<float> half_sys_;    // per-iteration 0.5*(sys+apriori)
  std::vector<float> ext1_, ext2_, apriori2_, ext2_deint_;
  std::vector<std::size_t> lane_item_;
  std::vector<int> lane_iter_;
  std::vector<std::uint8_t> lane_active_;
  TurboResult result_;
};

/// Decodes `llrs` (length turbo_encoded_length(k), same layout as the
/// encoder output; sign convention log(P0/P1)). Runs up to
/// `max_iterations` full iterations; if `early_exit` is non-null it is
/// called with the current hard decision after each iteration and decoding
/// stops once it returns true (e.g. a CRC check — how real decoders save
/// most of their iterations at good SNR).
///
/// Thin wrapper over a thread-local TurboDecoder workspace: repeated calls
/// from one thread reuse the same buffers and pay no allocation beyond the
/// returned copy.
TurboResult turbo_decode(const Llrs& llrs, std::size_t k,
                         int max_iterations = 8,
                         const std::function<bool(const Bits&)>& early_exit =
                             nullptr);

}  // namespace pran::coding
