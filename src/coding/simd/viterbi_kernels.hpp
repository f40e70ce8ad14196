#pragma once

/// \file viterbi_kernels.hpp
/// The dispatchable Viterbi kernel surface: the 64-state
/// add-compare-select forward sweep, which is >95% of decode time.
///
/// Contract (identical across ISAs, bit-exact per the same no-FMA /
/// same-order rules as the turbo kernels — see turbo_kernels.hpp):
///
///  * `llrs` holds kCodeRateDen doubles per trellis step.
///  * `metric` and `next_metric` are caller-owned scratch of
///    kNumStates + kViterbiMetricPad floats each (the pad lets the SIMD
///    paths over-read when splatting predecessor metrics). On entry
///    `metric` carries the initial path metrics (state 0 = 0, rest
///    -inf); on return it carries the final metrics — the kernel copies
///    back if its internal ping-pong ends on the other buffer.
///  * `decisions` is a bitmask matrix of 8 bytes (kNumStates bits) per
///    step: bit (ns & 7) of byte (t * 8 + (ns >> 3)) is 1 iff state ns's
///    winning predecessor at step t is (ns >> 1) | 32. Ties keep the low
///    predecessor, exactly as the scalar branch-by-branch formulation.
///
/// The Viterbi batch API loops this kernel per block rather than running
/// lanes in lockstep: with 64 trellis states the state axis already fills
/// a ymm, so a lane axis would add bookkeeping without widening the
/// useful vector occupancy (unlike turbo, whose trellis is only 8 wide).

#include <cstddef>
#include <cstdint>

#include "coding/simd/dispatch.hpp"

namespace pran::coding::simd {

/// Scratch padding past kNumStates so SIMD predecessor splats may
/// over-read (never over-write).
inline constexpr std::size_t kViterbiMetricPad = 16;

using ViterbiForwardFn = void (*)(const double* llrs,
                                  std::size_t total_steps, float* metric,
                                  float* next_metric,
                                  std::uint8_t* decisions);

struct ViterbiKernels {
  ViterbiForwardFn forward = nullptr;
  const char* name = "?";
};

/// Kernel table for `isa`; requires isa_available(isa).
const ViterbiKernels& viterbi_kernels(Isa isa);

// Per-ISA entry points (defined in viterbi_kernels_<isa>.cpp).
void viterbi_forward_scalar(const double* llrs, std::size_t total_steps,
                            float* metric, float* next_metric,
                            std::uint8_t* decisions);
#if defined(PRAN_HAVE_AVX2)
void viterbi_forward_avx2(const double* llrs, std::size_t total_steps,
                          float* metric, float* next_metric,
                          std::uint8_t* decisions);
#endif

}  // namespace pran::coding::simd
