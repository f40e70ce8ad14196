#pragma once

/// \file turbo_kernels.hpp
/// The dispatchable turbo-decoder kernel surface.
///
/// Two kernels per vector ISA, covering the two vectorization axes (the
/// one-lane scalar tier has only the first):
///
///  * `map_pass` — one max-log-MAP constituent pass over a single
///    codeblock, vectorized across the 8 trellis states (AVX2: one ymm
///    register holds a whole alpha/beta row). Buffer contract matches the
///    original scalar TurboDecoder::map_pass: `half_sys_apriori[t]` is
///    0.5*(systematic + a-priori) for trellis step t (tail steps carry
///    0.5*tail_sys), `half_parity[t]` is 0.5*parity; `sys`/`apriori` are
///    the unsummed K-entry inputs the extrinsic subtracts back out.
///    `beta` is caller-provided scratch of (k + 3 + 1) * 8 floats. Writes
///    K extrinsic LLRs.
///
///  * `batch_map_pass` — the same pass over `lane_width` same-K
///    codeblocks in lockstep, vectorized across codeblocks. Every array
///    is structure-of-arrays with the lane as the minor axis: entry for
///    (step t, lane l) lives at [t * lane_width + l]. `beta` scratch is
///    (k + 3 + 1) * 8 * lane_width floats. Lanes are fully independent:
///    lane l's outputs are bit-identical to a single-block scalar decode
///    of lane l's inputs (the kernels use only per-lane add/max in the
///    scalar evaluation order — no FMA contraction, no reassociation), so
///    the golden-equivalence suite can assert exact equality. Null on a
///    one-lane tier (scalar).
///
/// TurboDecoder's one driver picks between them per call: one block, or a
/// one-lane tier, runs `map_pass`; more blocks on a wider tier run
/// `batch_map_pass`.
///
/// Kernel TUs are compiled with per-file -m flags (see
/// src/coding/CMakeLists.txt); callers must go through turbo_kernels()
/// so a binary built with AVX2 TUs still runs on a plain SSE machine.

#include <cstddef>

#include "coding/simd/dispatch.hpp"

namespace pran::coding::simd {

using TurboMapPassFn = void (*)(const float* half_sys_apriori,
                                const float* half_parity, const float* sys,
                                const float* apriori, std::size_t k,
                                float* beta, float* extrinsic);

struct TurboKernels {
  TurboMapPassFn map_pass = nullptr;
  TurboMapPassFn batch_map_pass = nullptr;  ///< Null when lane_width is 1.
  unsigned lane_width = 1;  ///< Codeblocks batch_map_pass runs in lockstep.
  const char* name = "?";
};

/// Kernel table for `isa`; requires isa_available(isa).
const TurboKernels& turbo_kernels(Isa isa);

// Per-ISA entry points (defined in turbo_kernels_<isa>.cpp).
void turbo_map_pass_scalar(const float* half_sys_apriori,
                           const float* half_parity, const float* sys,
                           const float* apriori, std::size_t k, float* beta,
                           float* extrinsic);
inline constexpr unsigned kTurboScalarLanes = 1;

#if defined(PRAN_HAVE_AVX2)
void turbo_map_pass_avx2(const float* half_sys_apriori,
                         const float* half_parity, const float* sys,
                         const float* apriori, std::size_t k, float* beta,
                         float* extrinsic);
void turbo_batch_map_pass_avx2(const float* half_sys_apriori,
                               const float* half_parity, const float* sys,
                               const float* apriori, std::size_t k,
                               float* beta, float* extrinsic);
inline constexpr unsigned kTurboAvx2Lanes = 8;
#endif

}  // namespace pran::coding::simd
