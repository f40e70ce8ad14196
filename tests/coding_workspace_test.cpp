// Golden equivalence tests for the workspace decoders (PR 1).
//
// The flat-buffer float TurboDecoder/ViterbiDecoder replaced the seed's
// double-precision allocate-per-call implementations. These tests pin the
// refactor to the seed behaviour: verbatim copies of the seed decoders
// live in ref:: below, and at operating SNR (at and above the waterfall
// cliff, where posteriors are well resolved) the new decoders must produce
// bit-identical hard decisions and iteration counts. Below the cliff both
// implementations emit garbage on failed blocks and float-vs-double
// rounding legitimately flips near-zero posteriors, so no equivalence is
// claimed there.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "coding/awgn.hpp"
#include "coding/convolutional.hpp"
#include "coding/turbo.hpp"
#include "coding/viterbi.hpp"

#include "common/narrow.hpp"

namespace pran::coding {
namespace {

// ---------------------------------------------------------------------------
// ref:: — the seed (double precision, allocate-per-call) decoders, verbatim.
// ---------------------------------------------------------------------------
namespace ref {

constexpr int kStates = 8;
constexpr int kTailSteps = 3;
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kExtrinsicScale = 0.75;

struct RscStep {
  unsigned w;
  unsigned z;
  unsigned next;
};

inline RscStep rsc_step(unsigned state, unsigned u) {
  const unsigned w1 = state & 1u;
  const unsigned w2 = (state >> 1) & 1u;
  const unsigned w3 = (state >> 2) & 1u;
  const unsigned w = u ^ w2 ^ w3;
  const unsigned z = w ^ w1 ^ w3;
  const unsigned next = ((state << 1) | w) & 7u;
  return RscStep{w, z, next};
}

inline unsigned rsc_termination_input(unsigned state) {
  const unsigned w2 = (state >> 1) & 1u;
  const unsigned w3 = (state >> 2) & 1u;
  return w2 ^ w3;
}

Llrs map_decode(const Llrs& sys, const Llrs& parity, const Llrs& apriori,
                const Llrs& tail_sys, const Llrs& tail_parity) {
  const std::size_t k = sys.size();
  const std::size_t steps = k + kTailSteps;
  auto half = [](double l, unsigned b) { return b ? -0.5 * l : 0.5 * l; };

  std::vector<std::array<double, kStates>> alpha(steps + 1);
  alpha[0].fill(kNegInf);
  alpha[0][0] = 0.0;
  for (std::size_t t = 0; t < steps; ++t) {
    alpha[t + 1].fill(kNegInf);
    const bool tail = t >= k;
    const double ls = tail ? tail_sys[t - k] : sys[t];
    const double la = tail ? 0.0 : apriori[t];
    const double lp = tail ? tail_parity[t - k] : parity[t];
    for (int s = 0; s < kStates; ++s) {
      if (alpha[t][static_cast<std::size_t>(s)] == kNegInf) continue;
      for (unsigned u = 0; u < 2; ++u) {
        if (tail && u != rsc_termination_input(static_cast<unsigned>(s)))
          continue;
        const auto step = rsc_step(static_cast<unsigned>(s), u);
        const double g = half(ls + la, u) + half(lp, step.z);
        auto& a = alpha[t + 1][step.next];
        a = std::max(a, alpha[t][static_cast<std::size_t>(s)] + g);
      }
    }
  }

  std::vector<std::array<double, kStates>> beta(steps + 1);
  beta[steps].fill(kNegInf);
  beta[steps][0] = 0.0;
  for (std::size_t t = steps; t-- > 0;) {
    beta[t].fill(kNegInf);
    const bool tail = t >= k;
    const double ls = tail ? tail_sys[t - k] : sys[t];
    const double la = tail ? 0.0 : apriori[t];
    const double lp = tail ? tail_parity[t - k] : parity[t];
    for (int s = 0; s < kStates; ++s) {
      for (unsigned u = 0; u < 2; ++u) {
        if (tail && u != rsc_termination_input(static_cast<unsigned>(s)))
          continue;
        const auto step = rsc_step(static_cast<unsigned>(s), u);
        if (beta[t + 1][step.next] == kNegInf) continue;
        const double g = half(ls + la, u) + half(lp, step.z);
        auto& b = beta[t][static_cast<std::size_t>(s)];
        b = std::max(b, beta[t + 1][step.next] + g);
      }
    }
  }

  Llrs extrinsic(k, 0.0);
  for (std::size_t t = 0; t < k; ++t) {
    double best0 = kNegInf, best1 = kNegInf;
    for (int s = 0; s < kStates; ++s) {
      if (alpha[t][static_cast<std::size_t>(s)] == kNegInf) continue;
      for (unsigned u = 0; u < 2; ++u) {
        const auto step = rsc_step(static_cast<unsigned>(s), u);
        if (beta[t + 1][step.next] == kNegInf) continue;
        const double g = half(sys[t] + apriori[t], u) + half(parity[t], step.z);
        const double metric = alpha[t][static_cast<std::size_t>(s)] + g +
                              beta[t + 1][step.next];
        (u == 0 ? best0 : best1) = std::max(u == 0 ? best0 : best1, metric);
      }
    }
    const double posterior = best0 - best1;
    extrinsic[t] = posterior - sys[t] - apriori[t];
  }
  return extrinsic;
}

TurboResult turbo_decode(const Llrs& llrs, std::size_t k, int max_iterations,
                         const std::function<bool(const Bits&)>& early_exit) {
  const auto pi = turbo_interleaver(k);
  const Llrs sys(llrs.begin(), llrs.begin() + static_cast<std::ptrdiff_t>(k));
  const Llrs par1(llrs.begin() + static_cast<std::ptrdiff_t>(k),
                  llrs.begin() + static_cast<std::ptrdiff_t>(2 * k));
  const Llrs par2(llrs.begin() + static_cast<std::ptrdiff_t>(2 * k),
                  llrs.begin() + static_cast<std::ptrdiff_t>(3 * k));
  Llrs tail_sys1(3), tail_par1(3), tail_sys2(3), tail_par2(3);
  for (int t = 0; t < 3; ++t) {
    tail_sys1[static_cast<std::size_t>(t)] = llrs[3 * k + 2 * t];
    tail_par1[static_cast<std::size_t>(t)] = llrs[3 * k + 2 * t + 1];
    tail_sys2[static_cast<std::size_t>(t)] = llrs[3 * k + 6 + 2 * t];
    tail_par2[static_cast<std::size_t>(t)] = llrs[3 * k + 6 + 2 * t + 1];
  }
  Llrs sys_int(k);
  for (std::size_t i = 0; i < k; ++i) sys_int[i] = sys[pi[i]];
  Llrs ext2_deint(k, 0.0);
  TurboResult result;
  result.info.assign(k, 0);
  for (int iter = 1; iter <= max_iterations; ++iter) {
    Llrs ext1 = map_decode(sys, par1, ext2_deint, tail_sys1, tail_par1);
    for (double& e : ext1) e *= kExtrinsicScale;
    Llrs apriori2(k);
    for (std::size_t i = 0; i < k; ++i) apriori2[i] = ext1[pi[i]];
    Llrs ext2 = map_decode(sys_int, par2, apriori2, tail_sys2, tail_par2);
    for (double& e : ext2) e *= kExtrinsicScale;
    for (std::size_t i = 0; i < k; ++i) ext2_deint[pi[i]] = ext2[i];
    for (std::size_t i = 0; i < k; ++i) {
      const double posterior = sys[i] + ext1[i] + ext2_deint[i];
      result.info[i] = posterior < 0.0 ? 1 : 0;
    }
    result.iterations = iter;
    if (early_exit && early_exit(result.info)) {
      result.converged = true;
      break;
    }
  }
  return result;
}

struct BranchTable {
  std::array<std::array<std::uint8_t, kCodeRateDen>, 2 * kNumStates> outputs;
  BranchTable() {
    for (unsigned reg = 0; reg < 2 * kNumStates; ++reg)
      for (int g = 0; g < kCodeRateDen; ++g)
        outputs[reg][static_cast<std::size_t>(g)] = narrow_cast<std::uint8_t>(
            std::popcount(reg & kGenerators[g]) & 1u);
  }
};

ViterbiResult viterbi_decode(const Llrs& llrs, std::size_t info_bits) {
  const std::size_t total_steps = info_bits + kConstraintLength - 1;
  std::vector<double> metric(kNumStates, kNegInf);
  std::vector<double> next_metric(kNumStates, kNegInf);
  metric[0] = 0.0;
  std::vector<std::vector<std::uint8_t>> decisions(
      total_steps, std::vector<std::uint8_t>(kNumStates, 0));
  static const BranchTable table;
  for (std::size_t t = 0; t < total_steps; ++t) {
    const double* llr = &llrs[kCodeRateDen * t];
    std::fill(next_metric.begin(), next_metric.end(), kNegInf);
    for (int ns = 0; ns < kNumStates; ++ns) {
      const unsigned b = static_cast<unsigned>(ns) & 1u;
      const int p0 = ns >> 1;
      const int p1 = (ns >> 1) | (kNumStates >> 1);
      for (int which = 0; which < 2; ++which) {
        const int p = which ? p1 : p0;
        if (metric[static_cast<std::size_t>(p)] == kNegInf) continue;
        const unsigned reg = (static_cast<unsigned>(p) << 1) | b;
        double branch = 0.0;
        for (int g = 0; g < kCodeRateDen; ++g) {
          const double l = llr[g];
          branch += table.outputs[reg][static_cast<std::size_t>(g)] ? -l : l;
        }
        const double candidate = metric[static_cast<std::size_t>(p)] + branch;
        if (candidate > next_metric[static_cast<std::size_t>(ns)]) {
          next_metric[static_cast<std::size_t>(ns)] = candidate;
          decisions[t][static_cast<std::size_t>(ns)] =
              narrow_cast<std::uint8_t>(which);
        }
      }
    }
    metric.swap(next_metric);
  }
  ViterbiResult result;
  result.path_metric = metric[0];
  Bits inputs(total_steps, 0);
  int state = 0;
  for (std::size_t t = total_steps; t-- > 0;) {
    inputs[t] = narrow_cast<std::uint8_t>(state & 1);
    const int which = decisions[t][static_cast<std::size_t>(state)];
    state = (state >> 1) | (which ? (kNumStates >> 1) : 0);
  }
  result.info.assign(inputs.begin(),
                     inputs.begin() + static_cast<std::ptrdiff_t>(info_bits));
  return result;
}

}  // namespace ref

Bits random_bits(std::size_t n, Rng& rng) {
  Bits out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(rng.bernoulli(0.5) ? 1 : 0);
  return out;
}

TEST(WorkspaceTurbo, MatchesSeedDecoderAtOperatingSnr) {
  // Bit-identical hard decisions across seeds, block sizes, and SNRs at
  // and above the cliff.
  for (const std::size_t k : {64u, 256u, 1024u}) {
    for (const double esn0 : {-3.0, -1.0}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed * 7919 + k);
        const Bits info = random_bits(k, rng);
        const Llrs llrs = transmit_bpsk(turbo_encode(info), units::Db{esn0}, rng);
        const auto fast = turbo_decode(llrs, k, 8);
        const auto golden = ref::turbo_decode(llrs, k, 8, nullptr);
        EXPECT_EQ(fast.info, golden.info)
            << "k=" << k << " esn0=" << esn0 << " seed=" << seed;
        EXPECT_EQ(fast.iterations, golden.iterations);
      }
    }
  }
}

TEST(WorkspaceTurbo, MatchesSeedIterationCountsWithEarlyExit) {
  // With a genie gate (stand-in for CRC) the per-iteration hard decisions
  // steer termination, so equal iteration counts mean the iteration-level
  // trajectories agree too.
  for (const std::size_t k : {64u, 256u, 1024u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed * 104729 + k);
      const Bits info = random_bits(k, rng);
      const Llrs llrs = transmit_bpsk(turbo_encode(info), units::Db{-2.5}, rng);
      auto gate = [&](const Bits& hard) { return hard == info; };
      const auto fast = turbo_decode(llrs, k, 8, gate);
      const auto golden = ref::turbo_decode(llrs, k, 8, gate);
      EXPECT_EQ(fast.iterations, golden.iterations)
          << "k=" << k << " seed=" << seed;
      EXPECT_EQ(fast.converged, golden.converged);
      EXPECT_EQ(fast.info, golden.info);
    }
  }
}

TEST(WorkspaceTurbo, MatchesSeedOnNoiselessInput) {
  for (const std::size_t k : {64u, 256u, 1024u}) {
    Rng rng(k);
    const Bits info = random_bits(k, rng);
    const Bits coded = turbo_encode(info);
    Llrs clean;
    for (std::uint8_t b : coded) clean.push_back(b ? -8.0 : 8.0);
    const auto fast = turbo_decode(clean, k, 4);
    const auto golden = ref::turbo_decode(clean, k, 4, nullptr);
    EXPECT_EQ(fast.info, golden.info);
    EXPECT_EQ(fast.info, info);
  }
}

TEST(WorkspaceTurbo, OneInstanceHandlesChangingBlockSizes) {
  // Buffers grow to the largest K seen and must not leak state across
  // calls: interleaving big and small blocks on one instance matches a
  // fresh decoder per call.
  TurboDecoder reused;
  for (const std::size_t k : {1024u, 64u, 256u, 64u, 1024u}) {
    Rng rng(k + 17);
    const Bits info = random_bits(k, rng);
    const Llrs llrs = transmit_bpsk(turbo_encode(info), units::Db{-2.0}, rng);
    const auto& shared = reused.decode(llrs, k, 8);
    TurboDecoder fresh;
    const auto& isolated = fresh.decode(llrs, k, 8);
    EXPECT_EQ(shared.info, isolated.info) << "k=" << k;
    EXPECT_EQ(shared.iterations, isolated.iterations);
  }
}

TEST(WorkspaceViterbi, MatchesSeedDecoder) {
  for (const std::size_t info_bits : {64u, 256u, 1024u}) {
    for (const double esn0 : {0.0, 3.0}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed * 31 + info_bits);
        const Bits info = random_bits(info_bits, rng);
        const Bits coded = convolutional_encode(info);
        const Llrs llrs = transmit_bpsk(coded, units::Db{esn0}, rng);
        const auto fast = viterbi_decode(llrs, info_bits);
        const auto golden = ref::viterbi_decode(llrs, info_bits);
        EXPECT_EQ(fast.info, golden.info)
            << "bits=" << info_bits << " esn0=" << esn0 << " seed=" << seed;
      }
    }
  }
}

TEST(WorkspaceViterbi, HardDecisionMatchesSeed) {
  Rng rng(99);
  const Bits info = random_bits(300, rng);
  const Bits coded = convolutional_encode(info);
  // Flip a few bits so the decoder has real work to do.
  Bits corrupted = coded;
  for (std::size_t i = 0; i < corrupted.size(); i += 97)
    corrupted[i] ^= 1;
  Llrs hard_llrs;
  for (std::uint8_t b : corrupted) hard_llrs.push_back(b ? -1.0 : 1.0);
  const auto fast = viterbi_decode(hard_llrs, info.size());
  const auto golden = ref::viterbi_decode(hard_llrs, info.size());
  EXPECT_EQ(fast.info, golden.info);
}

TEST(TurboInterleaverMemo, RepeatedCallsReturnTheSamePermutation) {
  const auto first = turbo_interleaver(512);
  const auto second = turbo_interleaver(512);
  EXPECT_EQ(first, second);
  // Distinct sizes get distinct memo entries.
  EXPECT_EQ(turbo_interleaver(128).size(), 128u);
  EXPECT_EQ(turbo_interleaver(512), first);
}

}  // namespace
}  // namespace pran::coding
