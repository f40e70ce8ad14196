// Kernel dispatch tables. Compiled with baseline flags — this TU only
// takes addresses of the per-ISA entry points, it never executes vector
// code, so it is safe on any CPU regardless of which kernel TUs were
// built. PRAN_HAVE_AVX2 mirrors whether the AVX2 kernel TUs exist.

#include "coding/simd/turbo_kernels.hpp"
#include "coding/simd/viterbi_kernels.hpp"

#include "common/check.hpp"

namespace pran::coding::simd {
namespace {

constexpr TurboKernels kTurboScalar{turbo_map_pass_scalar, nullptr,
                                    kTurboScalarLanes, "scalar"};
constexpr ViterbiKernels kViterbiScalar{viterbi_forward_scalar, "scalar"};

#if defined(PRAN_HAVE_AVX2)
constexpr TurboKernels kTurboAvx2{turbo_map_pass_avx2,
                                  turbo_batch_map_pass_avx2,
                                  kTurboAvx2Lanes, "avx2"};
constexpr ViterbiKernels kViterbiAvx2{viterbi_forward_avx2, "avx2"};
#endif

}  // namespace

const TurboKernels& turbo_kernels(Isa isa) {
  PRAN_REQUIRE(isa_available(isa), "turbo_kernels: ISA not available");
  switch (isa) {
    case Isa::kScalar:
      break;
    case Isa::kAvx2:
#if defined(PRAN_HAVE_AVX2)
      return kTurboAvx2;
#else
      break;
#endif
  }
  return kTurboScalar;
}

const ViterbiKernels& viterbi_kernels(Isa isa) {
  PRAN_REQUIRE(isa_available(isa), "viterbi_kernels: ISA not available");
  switch (isa) {
    case Isa::kScalar:
      break;
    case Isa::kAvx2:
#if defined(PRAN_HAVE_AVX2)
      return kViterbiAvx2;
#else
      break;
#endif
  }
  return kViterbiScalar;
}

}  // namespace pran::coding::simd
