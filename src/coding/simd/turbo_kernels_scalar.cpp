// Scalar max-log-MAP kernels — the golden reference every vectorized tier
// must match bit-for-bit. This TU is compiled with the portable baseline
// flags only; keep it free of intrinsics and of anything that would let
// the compiler change the add/max evaluation order (the equivalence
// contract in turbo_kernels.hpp leans on it).

#include "coding/simd/turbo_kernels.hpp"

#include <algorithm>
#include <limits>

#include "coding/simd/turbo_trellis.hpp"

namespace pran::coding::simd {
namespace {
constexpr float kNegInfF = -std::numeric_limits<float>::infinity();
}  // namespace

/// Max-log-MAP pass over one constituent code.
///
/// The backward (beta) metrics are materialized in the caller's scratch
/// buffer; the forward (alpha) recursion keeps only the live 8-entry row
/// and fuses the posterior/extrinsic computation into the same sweep, so
/// each trellis step is touched exactly twice with zero allocation.
void turbo_map_pass_scalar(const float* half_sys_apriori,
                           const float* half_parity, const float* sys,
                           const float* apriori, std::size_t k, float* beta,
                           float* extrinsic) {
  const std::size_t steps = k + kTurboTailSteps;

  // Terminal condition: the trellis ends in state zero.
  {
    float* row = beta + steps * kTurboStates;
    std::fill(row, row + kTurboStates, kNegInfF);
    row[0] = 0.0f;
  }

  // Backward recursion. In the tail the input is forced to the
  // termination bit, so each state has exactly one outgoing branch.
  for (std::size_t t = steps; t-- > 0;) {
    const float hs = half_sys_apriori[t];
    const float hp = half_parity[t];
    const float* next_row = beta + (t + 1) * kTurboStates;
    float* row = beta + t * kTurboStates;
    if (t >= k) {
      for (int s = 0; s < kTurboStates; ++s) {
        const unsigned u = kTurboTrellis.term[s];
        const float g =
            (u ? -hs : hs) + (kTurboTrellis.parity[s][u] ? -hp : hp);
        row[s] = next_row[kTurboTrellis.next[s][u]] + g;
      }
    } else {
#pragma GCC unroll 8
      for (int s = 0; s < kTurboStates; ++s) {
        const float m0 = next_row[kTurboTrellis.next[s][0]] + hs +
                         (kTurboTrellis.parity[s][0] ? -hp : hp);
        const float m1 = next_row[kTurboTrellis.next[s][1]] - hs +
                         (kTurboTrellis.parity[s][1] ? -hp : hp);
        row[s] = std::max(m0, m1);
      }
    }
  }

  // Forward recursion fused with the posterior pass. Only the live alpha
  // row is kept; the tail needs no extrinsic, so the sweep stops at K.
  float alpha[kTurboStates];
  float next_alpha[kTurboStates];
  std::fill(alpha + 1, alpha + kTurboStates, kNegInfF);
  alpha[0] = 0.0f;
  for (std::size_t t = 0; t < k; ++t) {
    const float hs = half_sys_apriori[t];
    const float hp = half_parity[t];
    const float* next_row = beta + (t + 1) * kTurboStates;
    std::fill(next_alpha, next_alpha + kTurboStates, kNegInfF);
    float best0 = kNegInfF;
    float best1 = kNegInfF;
#pragma GCC unroll 8
    for (int s = 0; s < kTurboStates; ++s) {
      const float a = alpha[s];
      const int n0 = kTurboTrellis.next[s][0];
      const int n1 = kTurboTrellis.next[s][1];
      const float m0 = a + hs + (kTurboTrellis.parity[s][0] ? -hp : hp);
      const float m1 = a - hs + (kTurboTrellis.parity[s][1] ? -hp : hp);
      best0 = std::max(best0, m0 + next_row[n0]);
      best1 = std::max(best1, m1 + next_row[n1]);
      next_alpha[n0] = std::max(next_alpha[n0], m0);
      next_alpha[n1] = std::max(next_alpha[n1], m1);
    }
    std::copy(next_alpha, next_alpha + kTurboStates, alpha);
    // posterior = log(P0/P1); extrinsic removes the direct inputs.
    extrinsic[t] = (best0 - best1) - sys[t] - apriori[t];
  }
}

}  // namespace pran::coding::simd
