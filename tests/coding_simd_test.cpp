// Golden-equivalence suite for the SIMD decoder kernels (src/coding/simd/).
//
// Contract under test: the vectorized tier (AVX2) produces BIT-IDENTICAL
// outputs to the scalar reference — not merely close. The kernels perform
// the scalar add/max sequence per lane with no FMA contraction and only
// exact reassociation (max), so the documented tolerance for LLR/metric
// agreement is zero ULPs; hard decisions, iteration counts, and path
// metrics follow. Tiers the host CPU (or the build) lacks are skipped with
// GTEST_SKIP, so the suite degrades gracefully on machines without AVX2
// and under PRAN_SIMD overrides in CI.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "coding/awgn.hpp"
#include "coding/batch.hpp"
#include "coding/bler.hpp"
#include "coding/convolutional.hpp"
#include "coding/crc.hpp"
#include "coding/simd/dispatch.hpp"
#include "coding/simd/turbo_kernels.hpp"
#include "coding/simd/viterbi_kernels.hpp"
#include "coding/turbo.hpp"
#include "coding/viterbi.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace pran::coding {
namespace {

namespace simd = pran::coding::simd;

constexpr std::array<simd::Isa, 1> kVectorIsas = {simd::Isa::kAvx2};

/// Pins the active ISA for one scope; restores detection on exit.
class ScopedIsa {
 public:
  explicit ScopedIsa(simd::Isa isa) { simd::force_isa(isa); }
  ~ScopedIsa() { simd::reset_forced_isa(); }
};

Bits random_bits(std::size_t n, Rng& rng) {
  Bits bits(n);
  for (auto& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
  return bits;
}

/// Deterministic float in roughly [-8, 8] — LLR-like magnitudes.
float random_llr_f(Rng& rng) {
  return static_cast<float>(static_cast<std::int64_t>(rng() % 16001) -
                            8000) /
         1000.0f;
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ParseIsaRoundTrips) {
  simd::Isa isa{};
  EXPECT_TRUE(simd::parse_isa("scalar", isa));
  EXPECT_EQ(isa, simd::Isa::kScalar);
  EXPECT_TRUE(simd::parse_isa("avx2", isa));
  EXPECT_EQ(isa, simd::Isa::kAvx2);
  EXPECT_FALSE(simd::parse_isa("avx512", isa));  // no such tier
  EXPECT_FALSE(simd::parse_isa("AVX2", isa));
  EXPECT_FALSE(simd::parse_isa("", isa));
  EXPECT_FALSE(simd::parse_isa("neon", isa));
  EXPECT_FALSE(simd::parse_isa(nullptr, isa));
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndActiveIsaIsAvailable) {
  EXPECT_TRUE(simd::isa_available(simd::Isa::kScalar));
  EXPECT_TRUE(simd::isa_available(simd::active_isa()));
}

TEST(SimdDispatch, ForceIsaPinsAndResetRestores) {
  const simd::Isa detected = simd::active_isa();
  {
    ScopedIsa pin(simd::Isa::kScalar);
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
    EXPECT_EQ(simd::turbo_kernels(simd::active_isa()).lane_width, 1u);
  }
  EXPECT_EQ(simd::active_isa(), detected);
}

TEST(SimdDispatch, KernelTablesMatchIsaNames) {
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (!simd::isa_available(isa)) continue;
    EXPECT_STREQ(simd::turbo_kernels(isa).name, simd::isa_name(isa));
    EXPECT_STREQ(simd::viterbi_kernels(isa).name, simd::isa_name(isa));
    EXPECT_GE(simd::turbo_kernels(isa).lane_width, 1u);
  }
}

// ---------------------------------------------------------------------------
// Kernel-level exactness: raw map_pass extrinsics, zero-ULP comparison.
// ---------------------------------------------------------------------------

TEST(SimdTurboKernel, MapPassExtrinsicsAreBitExactPerIsa) {
  for (simd::Isa isa : kVectorIsas) {
    if (!simd::isa_available(isa)) {
      GTEST_SKIP() << "no vector ISA available on this CPU/build";
    }
    for (std::size_t k : {std::size_t{64}, std::size_t{256}}) {
      Rng rng(0xABCD + k);
      const std::size_t steps = k + 3;
      std::vector<float> half_sys(steps), half_par(steps), sys(k),
          apriori(k);
      for (auto& v : half_sys) v = random_llr_f(rng);
      for (auto& v : half_par) v = random_llr_f(rng);
      for (auto& v : sys) v = random_llr_f(rng);
      for (auto& v : apriori) v = random_llr_f(rng);
      std::vector<float> beta((steps + 1) * 8);
      std::vector<float> ext_ref(k), ext_isa(k);

      simd::turbo_kernels(simd::Isa::kScalar)
          .map_pass(half_sys.data(), half_par.data(), sys.data(),
                    apriori.data(), k, beta.data(), ext_ref.data());
      simd::turbo_kernels(isa).map_pass(half_sys.data(), half_par.data(),
                                        sys.data(), apriori.data(), k,
                                        beta.data(), ext_isa.data());
      for (std::size_t i = 0; i < k; ++i)
        ASSERT_EQ(ext_ref[i], ext_isa[i])
            << simd::isa_name(isa) << " K=" << k << " i=" << i;
    }
  }
}

TEST(SimdTurboKernel, BatchMapPassLanesAreBitExactPerIsa) {
  for (simd::Isa isa : kVectorIsas) {
    if (!simd::isa_available(isa)) {
      GTEST_SKIP() << "no vector ISA available on this CPU/build";
    }
    const auto& kernels = simd::turbo_kernels(isa);
    const unsigned w = kernels.lane_width;
    ASSERT_GT(w, 1u);
    const std::size_t k = 128;
    const std::size_t steps = k + 3;
    Rng rng(0x5EED ^ static_cast<std::uint64_t>(w));

    // Structure-of-arrays inputs, one independent random block per lane.
    std::vector<float> half_sys(steps * w), half_par(steps * w), sys(k * w),
        apriori(k * w);
    for (auto& v : half_sys) v = random_llr_f(rng);
    for (auto& v : half_par) v = random_llr_f(rng);
    for (auto& v : sys) v = random_llr_f(rng);
    for (auto& v : apriori) v = random_llr_f(rng);
    std::vector<float> batch_beta((steps + 1) * 8 * w);
    std::vector<float> batch_ext(k * w);
    kernels.batch_map_pass(half_sys.data(), half_par.data(), sys.data(),
                           apriori.data(), k, batch_beta.data(),
                           batch_ext.data());

    // Each lane must equal a scalar single-block pass on its own inputs.
    std::vector<float> lane_hs(steps), lane_hp(steps), lane_sys(k),
        lane_ap(k), lane_beta((steps + 1) * 8), lane_ext(k);
    for (unsigned l = 0; l < w; ++l) {
      for (std::size_t t = 0; t < steps; ++t) {
        lane_hs[t] = half_sys[t * w + l];
        lane_hp[t] = half_par[t * w + l];
      }
      for (std::size_t i = 0; i < k; ++i) {
        lane_sys[i] = sys[i * w + l];
        lane_ap[i] = apriori[i * w + l];
      }
      simd::turbo_kernels(simd::Isa::kScalar)
          .map_pass(lane_hs.data(), lane_hp.data(), lane_sys.data(),
                    lane_ap.data(), k, lane_beta.data(), lane_ext.data());
      for (std::size_t i = 0; i < k; ++i)
        ASSERT_EQ(lane_ext[i], batch_ext[i * w + l])
            << simd::isa_name(isa) << " lane=" << l << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Decoder-level equivalence: every ISA, single and batched, with early
// termination and remainder lanes.
// ---------------------------------------------------------------------------

TEST(SimdTurboDecode, SingleBlockMatchesScalarPerIsa) {
  for (simd::Isa isa : kVectorIsas) {
    if (!simd::isa_available(isa)) {
      GTEST_SKIP() << "no vector ISA available on this CPU/build";
    }
    for (std::size_t k : {std::size_t{64}, std::size_t{512}}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        Rng rng(seed * 7919 + k);
        const Bits info = random_bits(k, rng);
        const Llrs llrs =
            transmit_bpsk(turbo_encode(info), units::Db{-1.0}, rng);

        TurboDecoder scalar_dec, isa_dec;
        TurboResult ref;
        {
          ScopedIsa pin(simd::Isa::kScalar);
          ref = scalar_dec.decode(llrs, k, 8);
        }
        ScopedIsa pin(isa);
        const TurboResult& got = isa_dec.decode(llrs, k, 8);
        ASSERT_EQ(ref.info, got.info) << simd::isa_name(isa) << " K=" << k;
        EXPECT_EQ(ref.iterations, got.iterations);
        EXPECT_EQ(ref.converged, got.converged);
      }
    }
  }
}

/// Batched decode must match per-block scalar decode for every batch size
/// — including remainders smaller than the lane width and batches that
/// wrap it several times — with per-lane genie early termination, and
/// must report the same per-block iteration counts. A batch of one is the
/// path decode() takes: one lane, so no lane-iteration runs idle.
TEST(SimdTurboDecode, BatchMatchesScalarForEveryWidthAndIsa) {
  for (simd::Isa isa : kVectorIsas) {
    if (!simd::isa_available(isa)) {
      GTEST_SKIP() << "no vector ISA available on this CPU/build";
    }
    const std::size_t k = 64;
    for (std::size_t batch :
         {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{8},
          std::size_t{13}, std::size_t{16}, std::size_t{33}}) {
      Rng rng(0xBA7C4 + batch);
      std::vector<Bits> infos(batch);
      std::vector<Llrs> llrs(batch);
      for (std::size_t i = 0; i < batch; ++i) {
        infos[i] = random_bits(k, rng);
        // Mixed SNR so lanes converge after different iteration counts.
        const double esn0 = (i % 3 == 0) ? -4.0 : 1.0;
        llrs[i] =
            transmit_bpsk(turbo_encode(infos[i]), units::Db{esn0}, rng);
      }
      // Genie early stop: converged when the hard decision matches the
      // transmitted block (stands in for the CRC gate).
      const auto genie = [&infos](std::size_t index, const Bits& hard) {
        return hard == infos[index];
      };

      std::vector<TurboResult> ref(batch);
      {
        ScopedIsa pin(simd::Isa::kScalar);
        TurboDecoder dec;
        for (std::size_t i = 0; i < batch; ++i)
          ref[i] = dec.decode(llrs[i], k, 8, [&](const Bits& hard) {
            return genie(i, hard);
          });
      }

      ScopedIsa pin(isa);
      std::vector<TurboBatchItem> items(batch);
      for (std::size_t i = 0; i < batch; ++i) items[i].llrs = &llrs[i];
      TurboDecoder dec;
      const TurboBatchStats stats = dec.decode_batch(items, k, 8, genie);
      EXPECT_EQ(stats.lane_width,
                simd::turbo_kernels(isa).lane_width);
      for (std::size_t i = 0; i < batch; ++i) {
        ASSERT_EQ(ref[i].info, items[i].info)
            << simd::isa_name(isa) << " batch=" << batch << " i=" << i;
        EXPECT_EQ(ref[i].iterations, items[i].iterations)
            << simd::isa_name(isa) << " batch=" << batch << " i=" << i;
        EXPECT_EQ(ref[i].converged, items[i].converged);
      }
      if (batch == 1) {
        EXPECT_EQ(stats.idle_lane_iterations, 0u) << simd::isa_name(isa);
        EXPECT_EQ(stats.lane_refills, 0u);
        const TurboResult& single = dec.decode(
            llrs[0], k, 8, [&](const Bits& hard) { return genie(0, hard); });
        EXPECT_EQ(single.info, items[0].info) << simd::isa_name(isa);
        EXPECT_EQ(single.iterations, items[0].iterations);
        EXPECT_EQ(single.converged, items[0].converged);
      }
    }
  }
}

TEST(SimdTurboDecode, BatchStatsCountRefillsAndPasses) {
  const simd::Isa isa = simd::active_isa();
  const unsigned w = simd::turbo_kernels(isa).lane_width;
  const std::size_t k = 64;
  const std::size_t batch = 3 * std::size_t{w} + 1;
  Rng rng(0x57A75);
  std::vector<Bits> infos(batch);
  std::vector<Llrs> llrs(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    infos[i] = random_bits(k, rng);
    llrs[i] = transmit_bpsk(turbo_encode(infos[i]), units::Db{2.0}, rng);
  }
  std::vector<TurboBatchItem> items(batch);
  for (std::size_t i = 0; i < batch; ++i) items[i].llrs = &llrs[i];
  TurboDecoder dec;
  const TurboBatchStats stats =
      dec.decode_batch(items, k, 8, [&](std::size_t i, const Bits& hard) {
        return hard == infos[i];
      });
  EXPECT_EQ(stats.lane_width, w);
  EXPECT_GE(stats.map_pass_calls, 2u);
  if (w > 1) {
    // At clean SNR every block converges in a few iterations, so retiring
    // lanes must have been refilled from the pending queue.
    EXPECT_GE(stats.lane_refills, batch - std::size_t{w});
  } else {
    // One lane decodes the blocks one after another: two passes per
    // iteration, nothing refilled mid-flight, nothing idle.
    std::size_t iterations = 0;
    for (const auto& item : items)
      iterations += static_cast<std::size_t>(item.iterations);
    EXPECT_EQ(stats.map_pass_calls, 2 * iterations);
    EXPECT_EQ(stats.lane_refills, 0u);
    EXPECT_EQ(stats.idle_lane_iterations, 0u);
  }
}

/// Per-item iteration budgets (the overload-control currency): a positive
/// TurboBatchItem::max_iterations overrides the call-wide cap for that
/// block only, and exhausted budgets are counted when an early-stop
/// predicate is in play.
TEST(SimdTurboDecode, PerItemBudgetOverridesCallWideCap) {
  for (simd::Isa isa : kVectorIsas) {
    if (!simd::isa_available(isa)) {
      GTEST_SKIP() << "no vector ISA available on this CPU/build";
    }
    ScopedIsa pin(isa);
    const std::size_t k = 64;
    const std::size_t batch = 7;
    Rng rng(0xB0D6E7);
    std::vector<Llrs> llrs(batch);
    for (std::size_t i = 0; i < batch; ++i)
      llrs[i] = transmit_bpsk(turbo_encode(random_bits(k, rng)),
                              units::Db{-6.0}, rng);
    // A predicate that never accepts: every lane must run to its own
    // budget, which makes the realized iteration counts deterministic.
    const auto never = [](std::size_t, const Bits&) { return false; };

    std::vector<TurboBatchItem> items(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      items[i].llrs = &llrs[i];
      items[i].max_iterations = (i % 2 == 0) ? 3 : 0;  // 0 inherits 5
    }
    TurboDecoder dec;
    const TurboBatchStats stats = dec.decode_batch(items, k, 5, never);
    for (std::size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(items[i].iterations, (i % 2 == 0) ? 3 : 5)
          << simd::isa_name(isa) << " i=" << i;
      EXPECT_FALSE(items[i].converged);
    }
    EXPECT_EQ(stats.budget_exhausted, batch);

    // Budget-capped lanes stay bit-exact with a scalar decode at the same
    // per-block cap: capping changes WHEN a lane retires, never the
    // per-iteration arithmetic.
    TurboDecoder scalar_dec;
    ScopedIsa scalar_pin(simd::Isa::kScalar);
    for (std::size_t i = 0; i < batch; ++i) {
      const int cap = (i % 2 == 0) ? 3 : 5;
      const TurboResult ref = scalar_dec.decode(
          llrs[i], k, cap, [&](const Bits& hard) { return never(i, hard); });
      ASSERT_EQ(ref.info, items[i].info)
          << simd::isa_name(isa) << " i=" << i;
      EXPECT_EQ(ref.iterations, items[i].iterations);
    }
  }
}

/// When every per-item budget equals the legacy uniform cap, outputs must
/// be bit-identical to a batch decode with no overrides at all — the
/// acceptance gate for swapping effort-capped decode into the pipeline.
TEST(SimdTurboDecode, UniformPerItemBudgetMatchesLegacyBatch) {
  const std::size_t k = 64;
  const std::size_t batch = 9;
  Rng rng(0x1E6AC4);
  std::vector<Bits> infos(batch);
  std::vector<Llrs> llrs(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    infos[i] = random_bits(k, rng);
    const double esn0 = (i % 3 == 0) ? -4.0 : 1.0;
    llrs[i] = transmit_bpsk(turbo_encode(infos[i]), units::Db{esn0}, rng);
  }
  const auto genie = [&infos](std::size_t index, const Bits& hard) {
    return hard == infos[index];
  };
  auto run = [&](int per_item) {
    std::vector<TurboBatchItem> items(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      items[i].llrs = &llrs[i];
      items[i].max_iterations = per_item;
    }
    TurboDecoder dec;
    dec.decode_batch(items, k, 8, genie);
    return items;
  };
  const auto legacy = run(0);   // inherit the call-wide cap
  const auto capped = run(8);   // explicit budgets at the same cap
  for (std::size_t i = 0; i < batch; ++i) {
    ASSERT_EQ(legacy[i].info, capped[i].info) << "i=" << i;
    EXPECT_EQ(legacy[i].iterations, capped[i].iterations);
    EXPECT_EQ(legacy[i].converged, capped[i].converged);
  }
}

TEST(SimdTurboDecode, RejectsNegativePerItemBudget) {
  const std::size_t k = 64;
  Rng rng(0xBAD1);
  Llrs llrs = transmit_bpsk(turbo_encode(random_bits(k, rng)),
                            units::Db{0.0}, rng);
  std::vector<TurboBatchItem> items(1);
  items[0].llrs = &llrs;
  items[0].max_iterations = -1;
  TurboDecoder dec;
  EXPECT_THROW(dec.decode_batch(items, k, 8), pran::ContractViolation);
}

TEST(SimdViterbiDecode, MatchesScalarPerIsa) {
  for (simd::Isa isa : kVectorIsas) {
    if (!simd::isa_available(isa)) {
      GTEST_SKIP() << "no vector ISA available on this CPU/build";
    }
    for (std::size_t info_bits :
         {std::size_t{16}, std::size_t{57}, std::size_t{256}}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        Rng rng(seed * 31 + info_bits);
        const Bits info = random_bits(info_bits, rng);
        Bits coded;
        convolutional_encode(info, coded);
        const Llrs llrs = transmit_bpsk(coded, units::Db{-1.0}, rng);

        ViterbiDecoder scalar_dec, isa_dec;
        ViterbiResult ref;
        {
          ScopedIsa pin(simd::Isa::kScalar);
          ref = scalar_dec.decode(llrs, info_bits);
        }
        ScopedIsa pin(isa);
        const ViterbiResult& got = isa_dec.decode(llrs, info_bits);
        ASSERT_EQ(ref.info, got.info)
            << simd::isa_name(isa) << " info_bits=" << info_bits;
        // Metrics are float-accumulated in the same order on every tier:
        // exact equality, not a tolerance.
        EXPECT_EQ(ref.path_metric, got.path_metric);
      }
    }
  }
}

TEST(SimdViterbiDecode, BatchMatchesSingleDecodes) {
  for (simd::Isa isa : kVectorIsas) {
    if (!simd::isa_available(isa)) {
      GTEST_SKIP() << "no vector ISA available on this CPU/build";
    }
    const std::size_t info_bits = 87;
    const std::size_t batch = 5;
    Rng rng(0xB47C4);
    std::vector<Llrs> llrs(batch);
    for (auto& l : llrs) {
      Bits coded;
      convolutional_encode(random_bits(info_bits, rng), coded);
      l = transmit_bpsk(coded, units::Db{0.0}, rng);
    }
    ScopedIsa pin(isa);
    std::vector<ViterbiBatchItem> items(batch);
    for (std::size_t i = 0; i < batch; ++i) items[i].llrs = &llrs[i];
    ViterbiDecoder dec;
    dec.decode_batch(items, info_bits);
    ViterbiDecoder single;
    for (std::size_t i = 0; i < batch; ++i) {
      const ViterbiResult& ref = single.decode(llrs[i], info_bits);
      ASSERT_EQ(ref.info, items[i].info) << "i=" << i;
      EXPECT_EQ(ref.path_metric, items[i].path_metric);
    }
  }
}

// ---------------------------------------------------------------------------
// Same-K collector: cross-TB aggregation preserves per-block results.
// ---------------------------------------------------------------------------

TEST(TurboBatchCollector, MixedSizesDecodeToPerBlockResults) {
  Rng rng(0xC011EC7);
  struct Block {
    std::size_t k;
    Bits info;
    Llrs llrs;
  };
  std::vector<Block> blocks;
  for (std::size_t k : {std::size_t{64}, std::size_t{128}, std::size_t{64},
                        std::size_t{256}, std::size_t{64},
                        std::size_t{128}}) {
    Block b;
    b.k = k;
    b.info = random_bits(k, rng);
    b.llrs = transmit_bpsk(turbo_encode(b.info), units::Db{0.0}, rng);
    blocks.push_back(std::move(b));
  }

  TurboBatchCollector collector;
  for (std::size_t i = 0; i < blocks.size(); ++i)
    collector.add(blocks[i].llrs, blocks[i].k, /*tag=*/i);
  EXPECT_EQ(collector.pending(), blocks.size());

  TurboDecoder dec;
  std::vector<TurboBatchResult> results;
  collector.flush(dec, results, 8,
                  [&](std::size_t tag, const Bits& hard) {
                    return hard == blocks[tag].info;
                  });
  EXPECT_EQ(collector.pending(), 0u);
  ASSERT_EQ(results.size(), blocks.size());

  ScopedIsa pin(simd::Isa::kScalar);
  TurboDecoder scalar_dec;
  for (const TurboBatchResult& r : results) {
    const Block& b = blocks[r.tag];
    const TurboResult& ref = scalar_dec.decode(
        b.llrs, b.k, 8,
        [&](const Bits& hard) { return hard == b.info; });
    ASSERT_EQ(ref.info, r.info) << "tag=" << r.tag;
    EXPECT_EQ(ref.iterations, r.iterations);
    EXPECT_EQ(ref.converged, r.converged);
  }
}

/// The decode-side sign of an effort cap survives the K buckets: a flush
/// reports every block that ran out of iterations without its CRC passing.
TEST(TurboBatchCollector, FlushCountsExhaustedBudgets) {
  Rng rng(0xB0D6E7);
  const std::vector<std::size_t> ks = {64, 128, 64, 256, 64};
  std::vector<Llrs> llrs;
  for (std::size_t k : ks)
    llrs.push_back(transmit_bpsk(
        turbo_encode(attach_crc(random_bits(k - kCrcBits, rng))),
        units::Db{-10.0}, rng));
  TurboBatchCollector collector;
  for (std::size_t i = 0; i < ks.size(); ++i)
    collector.add(llrs[i], ks[i], /*tag=*/i);

  TurboDecoder dec;
  std::vector<TurboBatchResult> results;
  const TurboBatchStats stats =
      collector.flush(dec, results, 2, [](std::size_t, const Bits& hard) {
        return check_crc(hard);
      });
  ASSERT_EQ(results.size(), ks.size());
  for (const TurboBatchResult& r : results) {
    EXPECT_FALSE(r.converged) << "tag=" << r.tag;
    EXPECT_EQ(r.iterations, 2) << "tag=" << r.tag;
  }
  EXPECT_EQ(stats.budget_exhausted, ks.size());
}

// ---------------------------------------------------------------------------
// Link level: each trial decodes its own block, so E14's counts depend on
// the RNG stream only, never on the thread count.
// ---------------------------------------------------------------------------

/// Counts pinned from the grouped Viterbi path this per-block path
/// replaced, for a soft and a hard configuration, serial and pooled.
TEST(SimdLink, RunLinkStatsMatchPinnedCounts) {
  struct Case {
    double code_rate;
    bool soft_decision;
    double esn0_db;
    std::size_t blocks;
    std::size_t block_errors;
    std::size_t bit_errors;
  };
  ThreadPool pool(4);
  for (const Case& c : {Case{1.0 / 2.0, true, 0.0, 64, 4, 16},
                        Case{1.0 / 3.0, false, -1.5, 61, 8, 49}}) {
    LinkConfig config;
    config.info_bits = 96;
    config.code_rate = c.code_rate;
    config.soft_decision = c.soft_decision;
    for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
      Rng rng(0xE14);
      const LinkStats stats =
          run_link(config, units::Db{c.esn0_db}, c.blocks, rng, workers);
      const char* how = workers ? "pooled" : "serial";
      EXPECT_EQ(stats.blocks, c.blocks) << how;
      EXPECT_EQ(stats.block_errors, c.block_errors) << how;
      EXPECT_EQ(stats.bit_errors, c.bit_errors) << how;
      EXPECT_EQ(stats.undetected_errors, 0u) << how;
    }
  }
}

}  // namespace
}  // namespace pran::coding
