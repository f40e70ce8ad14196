// AVX2 turbo kernels. Compiled with -mavx2 only (no -mfma: the
// equivalence contract forbids contraction). Two kernels:
//
//  * turbo_map_pass_avx2 — state-axis vectorization: one ymm register
//    holds a whole 8-state alpha/beta row, the trellis wiring becomes
//    compile-time permutes (_mm256_permutevar8x32_ps) and the parity sign
//    flips become XORs on the IEEE sign bit. Bit-identical to the scalar
//    pass: same add/max order per state, and the horizontal best0/best1
//    reductions only reassociate max, which is exact.
//
//  * turbo_batch_map_pass_avx2 — lane-axis vectorization: 8 same-K
//    codeblocks in lockstep, one float lane per block
//    (turbo_batch_map_pass_impl below).

#include <immintrin.h>

#include "coding/simd/turbo_kernels.hpp"
#include "coding/simd/turbo_trellis.hpp"

namespace pran::coding::simd {
namespace {

constexpr float kNegInfF = -__builtin_inff();

/// _mm256_blend_ps immediate selecting lane ns from the second operand
/// where input[ns] is 1.
constexpr int blend_imm(const std::uint8_t (&inputs)[kTurboStates]) {
  int imm = 0;
  for (int ns = 0; ns < kTurboStates; ++ns)
    if (inputs[ns]) imm |= 1 << ns;
  return imm;
}

constexpr int kPredLoBlend = blend_imm(kTurboTrellisPred.pred_lo_input);
constexpr int kPredHiBlend = blend_imm(kTurboTrellisPred.pred_hi_input);

inline __m256i next_index(unsigned u) {
  return _mm256_setr_epi32(
      kTurboTrellis.next[0][u], kTurboTrellis.next[1][u],
      kTurboTrellis.next[2][u], kTurboTrellis.next[3][u],
      kTurboTrellis.next[4][u], kTurboTrellis.next[5][u],
      kTurboTrellis.next[6][u], kTurboTrellis.next[7][u]);
}

/// Sign-bit mask: lane s is 0x80000000 where parity[s][u] == 1, so
/// XORing it against a broadcast hp yields the scalar (parity ? -hp : hp).
inline __m256 parity_sign(unsigned u) {
  const auto bit = [u](int s) {
    return kTurboTrellis.parity[s][u] ? INT32_MIN : 0;
  };
  return _mm256_castsi256_ps(_mm256_setr_epi32(bit(0), bit(1), bit(2), bit(3),
                                               bit(4), bit(5), bit(6),
                                               bit(7)));
}

/// Horizontal max of all 8 lanes. Pure max-tree: exact for the same
/// reason any reassociation of max is.
inline float hmax8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 m = _mm_max_ps(lo, hi);
  m = _mm_max_ps(m, _mm_shuffle_ps(m, m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_ps(m, _mm_shuffle_ps(m, m, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtss_f32(m);
}

struct OpsAvx2 {
  using V = __m256;
  static constexpr std::size_t kLanes = 8;
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V max(V a, V b) { return _mm256_max_ps(a, b); }
  static V neg(V a) {
    return _mm256_xor_ps(a, _mm256_set1_ps(-0.0f));
  }
  static V broadcast(float x) { return _mm256_set1_ps(x); }
};

/// Lane-axis (cross-codeblock) max-log-MAP pass, written against a small
/// vector-ops trait so the recursion reads like the scalar pass it mirrors.
///
/// The structure follows turbo_map_pass_scalar step for step; every lane
/// performs exactly the scalar sequence of adds and maxes (same
/// associativity, sign flips via XOR on the IEEE sign bit, no FMA), so
/// lane l of the output is bit-identical to a scalar decode of lane l —
/// the property the golden-equivalence suite asserts.
///
/// Trait contract:
///   using V        — the vector register type (one float per lane)
///   kLanes         — lane count W
///   load/store     — unaligned W-float load/store
///   add/sub/max    — element-wise
///   neg            — flip the sign bit (XOR, exact)
///   broadcast      — splat a float
///
/// Buffer layout (structure-of-arrays, lane minor): entry for (step t,
/// lane l) at [t * W + l]; beta rows are 8 states by W lanes, so step t's
/// row starts at beta + t * 8 * W.
template <class Ops>
void turbo_batch_map_pass_impl(const float* half_sys_apriori,
                               const float* half_parity, const float* sys,
                               const float* apriori, std::size_t k,
                               float* beta, float* extrinsic) {
  using V = typename Ops::V;
  constexpr std::size_t W = Ops::kLanes;
  constexpr std::size_t kRow = kTurboStates * W;
  const std::size_t steps = k + kTurboTailSteps;
  const V neg_inf = Ops::broadcast(-__builtin_inff());
  const V zero = Ops::broadcast(0.0f);

  // Terminal condition: every lane's trellis ends in state zero.
  {
    float* row = beta + steps * kRow;
    Ops::store(row, zero);
    for (int s = 1; s < kTurboStates; ++s) Ops::store(row + s * W, neg_inf);
  }

  // Backward recursion.
  for (std::size_t t = steps; t-- > 0;) {
    const V hs = Ops::load(half_sys_apriori + t * W);
    const V hp = Ops::load(half_parity + t * W);
    const V neg_hs = Ops::neg(hs);
    const V neg_hp = Ops::neg(hp);
    const float* next_row = beta + (t + 1) * kRow;
    float* row = beta + t * kRow;
    if (t >= k) {
      for (int s = 0; s < kTurboStates; ++s) {
        const unsigned u = kTurboTrellis.term[s];
        const V g = Ops::add(u ? neg_hs : hs,
                             kTurboTrellis.parity[s][u] ? neg_hp : hp);
        Ops::store(row + s * W,
                   Ops::add(Ops::load(next_row + kTurboTrellis.next[s][u] * W),
                            g));
      }
    } else {
#pragma GCC unroll 8
      for (int s = 0; s < kTurboStates; ++s) {
        const V m0 = Ops::add(
            Ops::add(Ops::load(next_row + kTurboTrellis.next[s][0] * W), hs),
            kTurboTrellis.parity[s][0] ? neg_hp : hp);
        const V m1 = Ops::add(
            Ops::add(Ops::load(next_row + kTurboTrellis.next[s][1] * W),
                     neg_hs),
            kTurboTrellis.parity[s][1] ? neg_hp : hp);
        Ops::store(row + s * W, Ops::max(m0, m1));
      }
    }
  }

  // Forward recursion fused with the posterior/extrinsic pass.
  V alpha[kTurboStates];
  alpha[0] = zero;
  for (int s = 1; s < kTurboStates; ++s) alpha[s] = neg_inf;
  for (std::size_t t = 0; t < k; ++t) {
    const V hs = Ops::load(half_sys_apriori + t * W);
    const V hp = Ops::load(half_parity + t * W);
    const V neg_hs = Ops::neg(hs);
    const V neg_hp = Ops::neg(hp);
    const float* next_row = beta + (t + 1) * kRow;
    V best0 = neg_inf;
    V best1 = neg_inf;
    V m0v[kTurboStates];
    V m1v[kTurboStates];
#pragma GCC unroll 8
    for (int s = 0; s < kTurboStates; ++s) {
      const int n0 = kTurboTrellis.next[s][0];
      const int n1 = kTurboTrellis.next[s][1];
      const V m0 = Ops::add(Ops::add(alpha[s], hs),
                            kTurboTrellis.parity[s][0] ? neg_hp : hp);
      const V m1 = Ops::add(Ops::add(alpha[s], neg_hs),
                            kTurboTrellis.parity[s][1] ? neg_hp : hp);
      best0 = Ops::max(best0, Ops::add(m0, Ops::load(next_row + n0 * W)));
      best1 = Ops::max(best1, Ops::add(m1, Ops::load(next_row + n1 * W)));
      m0v[s] = m0;
      m1v[s] = m1;
    }
    // The scalar code scatter-maxes m0/m1 into next_alpha; here we read
    // the same two candidates per next-state through the predecessor
    // view (max is commutative and starts from -inf, so the value is
    // identical bit for bit).
    V next_alpha[kTurboStates];
#pragma GCC unroll 8
    for (int ns = 0; ns < kTurboStates; ++ns) {
      const int lo = kTurboTrellisPred.pred_lo[ns];
      const int hi = kTurboTrellisPred.pred_hi[ns];
      const V c_lo =
          kTurboTrellisPred.pred_lo_input[ns] ? m1v[lo] : m0v[lo];
      const V c_hi =
          kTurboTrellisPred.pred_hi_input[ns] ? m1v[hi] : m0v[hi];
      next_alpha[ns] = Ops::max(c_lo, c_hi);
    }
#pragma GCC unroll 8
    for (int s = 0; s < kTurboStates; ++s) alpha[s] = next_alpha[s];
    // extrinsic = (best0 - best1) - sys - apriori, in scalar order.
    Ops::store(extrinsic + t * W,
               Ops::sub(Ops::sub(Ops::sub(best0, best1),
                                 Ops::load(sys + t * W)),
                        Ops::load(apriori + t * W)));
  }
}

}  // namespace

void turbo_map_pass_avx2(const float* half_sys_apriori,
                         const float* half_parity, const float* sys,
                         const float* apriori, std::size_t k, float* beta,
                         float* extrinsic) {
  const std::size_t steps = k + kTurboTailSteps;
  const __m256i next0 = next_index(0);
  const __m256i next1 = next_index(1);
  const __m256 sign0 = parity_sign(0);
  const __m256 sign1 = parity_sign(1);
  const __m256i pred_lo = _mm256_setr_epi32(
      kTurboTrellisPred.pred_lo[0], kTurboTrellisPred.pred_lo[1],
      kTurboTrellisPred.pred_lo[2], kTurboTrellisPred.pred_lo[3],
      kTurboTrellisPred.pred_lo[4], kTurboTrellisPred.pred_lo[5],
      kTurboTrellisPred.pred_lo[6], kTurboTrellisPred.pred_lo[7]);
  const __m256i pred_hi = _mm256_setr_epi32(
      kTurboTrellisPred.pred_hi[0], kTurboTrellisPred.pred_hi[1],
      kTurboTrellisPred.pred_hi[2], kTurboTrellisPred.pred_hi[3],
      kTurboTrellisPred.pred_hi[4], kTurboTrellisPred.pred_hi[5],
      kTurboTrellisPred.pred_hi[6], kTurboTrellisPred.pred_hi[7]);

  // Terminal condition: the trellis ends in state zero.
  {
    float* row = beta + steps * kTurboStates;
    for (int s = 0; s < kTurboStates; ++s) row[s] = kNegInfF;
    row[0] = 0.0f;
  }

  // Backward recursion. Tail steps stay scalar (3 steps, one forced
  // branch per state); the K info steps run one ymm row per step.
  for (std::size_t t = steps; t-- > k;) {
    const float hs = half_sys_apriori[t];
    const float hp = half_parity[t];
    const float* next_row = beta + (t + 1) * kTurboStates;
    float* row = beta + t * kTurboStates;
    for (int s = 0; s < kTurboStates; ++s) {
      const unsigned u = kTurboTrellis.term[s];
      const float g =
          (u ? -hs : hs) + (kTurboTrellis.parity[s][u] ? -hp : hp);
      row[s] = next_row[kTurboTrellis.next[s][u]] + g;
    }
  }
  for (std::size_t t = k; t-- > 0;) {
    const __m256 hs = _mm256_set1_ps(half_sys_apriori[t]);
    const __m256 hp = _mm256_set1_ps(half_parity[t]);
    const __m256 next_row = _mm256_loadu_ps(beta + (t + 1) * kTurboStates);
    const __m256 m0 = _mm256_add_ps(
        _mm256_add_ps(_mm256_permutevar8x32_ps(next_row, next0), hs),
        _mm256_xor_ps(hp, sign0));
    const __m256 m1 = _mm256_add_ps(
        _mm256_sub_ps(_mm256_permutevar8x32_ps(next_row, next1), hs),
        _mm256_xor_ps(hp, sign1));
    _mm256_storeu_ps(beta + t * kTurboStates, _mm256_max_ps(m0, m1));
  }

  // Forward recursion fused with the posterior pass.
  alignas(32) float alpha_init[kTurboStates] = {
      0.0f,     kNegInfF, kNegInfF, kNegInfF,
      kNegInfF, kNegInfF, kNegInfF, kNegInfF};
  __m256 alpha = _mm256_load_ps(alpha_init);
  for (std::size_t t = 0; t < k; ++t) {
    const __m256 hs = _mm256_set1_ps(half_sys_apriori[t]);
    const __m256 hp = _mm256_set1_ps(half_parity[t]);
    const __m256 next_row = _mm256_loadu_ps(beta + (t + 1) * kTurboStates);
    const __m256 m0 =
        _mm256_add_ps(_mm256_add_ps(alpha, hs), _mm256_xor_ps(hp, sign0));
    const __m256 m1 =
        _mm256_add_ps(_mm256_sub_ps(alpha, hs), _mm256_xor_ps(hp, sign1));
    const float best0 = hmax8(
        _mm256_add_ps(m0, _mm256_permutevar8x32_ps(next_row, next0)));
    const float best1 = hmax8(
        _mm256_add_ps(m1, _mm256_permutevar8x32_ps(next_row, next1)));
    // next_alpha[ns] = max of the two branch metrics that land on ns,
    // fetched through the predecessor view (same values the scalar code
    // scatter-maxes).
    const __m256 c_lo = _mm256_blend_ps(
        _mm256_permutevar8x32_ps(m0, pred_lo),
        _mm256_permutevar8x32_ps(m1, pred_lo), kPredLoBlend);
    const __m256 c_hi = _mm256_blend_ps(
        _mm256_permutevar8x32_ps(m0, pred_hi),
        _mm256_permutevar8x32_ps(m1, pred_hi), kPredHiBlend);
    alpha = _mm256_max_ps(c_lo, c_hi);
    extrinsic[t] = (best0 - best1) - sys[t] - apriori[t];
  }
}

void turbo_batch_map_pass_avx2(const float* half_sys_apriori,
                               const float* half_parity, const float* sys,
                               const float* apriori, std::size_t k,
                               float* beta, float* extrinsic) {
  turbo_batch_map_pass_impl<OpsAvx2>(half_sys_apriori, half_parity, sys,
                                     apriori, k, beta, extrinsic);
}

}  // namespace pran::coding::simd
