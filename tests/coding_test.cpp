// Tests for the channel-coding chain: CRC, convolutional code, Viterbi,
// rate matching, AWGN.

#include <gtest/gtest.h>

#include <cmath>

#include "coding/bler.hpp"
#include "common/check.hpp"

namespace pran::coding {
namespace {

Bits random_bits(std::size_t n, Rng& rng) {
  Bits out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(rng.bernoulli(0.5) ? 1 : 0);
  return out;
}

/// Hard decisions as decoder input: LLR +1 for a 0 bit, -1 for a 1 bit.
Llrs hard_llrs(const Bits& coded) {
  Llrs out;
  for (std::uint8_t bit : coded) out.push_back(bit ? -1.0 : 1.0);
  return out;
}

TEST(Crc, DetectsSingleBitFlips) {
  Rng rng(1);
  const Bits payload = random_bits(64, rng);
  Bits framed = attach_crc(payload);
  EXPECT_TRUE(check_crc(framed));
  for (std::size_t i = 0; i < framed.size(); i += 7) {
    framed[i] ^= 1;
    EXPECT_FALSE(check_crc(framed)) << "flip at " << i;
    framed[i] ^= 1;
  }
}

TEST(Crc, DetectsBurstErrors) {
  Rng rng(2);
  const Bits payload = random_bits(128, rng);
  Bits framed = attach_crc(payload);
  // Any burst up to 24 bits is guaranteed caught by a degree-24 CRC.
  for (std::size_t start = 0; start + 24 <= framed.size(); start += 13) {
    for (int len : {2, 8, 24}) {
      Bits corrupted = framed;
      for (int i = 0; i < len; ++i)
        corrupted[start + static_cast<std::size_t>(i)] ^= 1;
      EXPECT_FALSE(check_crc(corrupted));
    }
  }
}

TEST(Crc, StripRoundTrip) {
  Rng rng(3);
  const Bits payload = random_bits(40, rng);
  EXPECT_EQ(strip_crc(attach_crc(payload)), payload);
  Bits bad = attach_crc(payload);
  bad[0] ^= 1;
  EXPECT_THROW(strip_crc(bad), ContractViolation);
}

TEST(Crc, EmptyAndShortInputs) {
  EXPECT_FALSE(check_crc(Bits{}));
  EXPECT_FALSE(check_crc(Bits(10, 0)));
  // Zero-length payload still gets a valid CRC frame.
  EXPECT_TRUE(check_crc(attach_crc(Bits{})));
}

TEST(Convolutional, OutputLengthAndTermination) {
  Rng rng(4);
  const Bits info = random_bits(100, rng);
  const Bits coded = convolutional_encode(info);
  EXPECT_EQ(coded.size(), encoded_length(100));
  EXPECT_EQ(coded.size(), 3u * 106u);
}

TEST(Convolutional, AllZeroInputGivesAllZeroOutput) {
  const Bits zeros(50, 0);
  for (std::uint8_t bit : convolutional_encode(zeros)) EXPECT_EQ(bit, 0);
}

TEST(Convolutional, LinearityOverGf2) {
  // Convolutional codes are linear: enc(a) ^ enc(b) == enc(a ^ b).
  Rng rng(5);
  const Bits a = random_bits(64, rng);
  const Bits b = random_bits(64, rng);
  Bits ab(64);
  for (std::size_t i = 0; i < 64; ++i) ab[i] = a[i] ^ b[i];
  const Bits ea = convolutional_encode(a);
  const Bits eb = convolutional_encode(b);
  const Bits eab = convolutional_encode(ab);
  for (std::size_t i = 0; i < eab.size(); ++i)
    EXPECT_EQ(eab[i], ea[i] ^ eb[i]) << i;
}

TEST(Viterbi, DecodesNoiselessPerfectly) {
  Rng rng(6);
  for (int len : {1, 7, 40, 333}) {
    const Bits info = random_bits(static_cast<std::size_t>(len), rng);
    const Bits coded = convolutional_encode(info);
    const auto decoded = viterbi_decode(hard_llrs(coded), info.size());
    EXPECT_EQ(decoded.info, info) << "len " << len;
  }
}

TEST(Viterbi, CorrectsScatteredErrors) {
  // Free distance of this code is 15: up to 7 well-separated hard errors
  // are correctable.
  Rng rng(7);
  const Bits info = random_bits(120, rng);
  Bits coded = convolutional_encode(info);
  for (std::size_t pos : {5u, 60u, 120u, 200u, 280u}) coded[pos] ^= 1;
  const auto decoded = viterbi_decode(hard_llrs(coded), info.size());
  EXPECT_EQ(decoded.info, info);
}

TEST(Viterbi, SoftBeatsHardAtSameSnr) {
  // Classic ~2 dB soft-decision gain: at an Es/N0 where soft decoding is
  // essentially clean, hard decoding still fails regularly.
  Rng rng(8);
  LinkConfig config;
  config.info_bits = 200;
  config.code_rate = 1.0 / 2.0;
  const units::Db esn0{-1.0};

  config.soft_decision = true;
  const auto soft = run_link(config, esn0, 150, rng);
  config.soft_decision = false;
  const auto hard = run_link(config, esn0, 150, rng);
  EXPECT_LT(soft.bler(), hard.bler());
}

TEST(Viterbi, RejectsBadInputLengths) {
  Llrs llrs(10, 1.0);
  EXPECT_THROW(viterbi_decode(llrs, 5), ContractViolation);
}

TEST(RateMatch, IdentityAtMotherRate) {
  Rng rng(9);
  const Bits coded = convolutional_encode(random_bits(64, rng));
  EXPECT_EQ(rate_match(coded, coded.size()), coded);
}

TEST(RateMatch, PuncturePatternIsStrictlyIncreasing) {
  const auto pattern = rate_match_pattern(300, 200);
  ASSERT_EQ(pattern.size(), 200u);
  for (std::size_t i = 1; i < pattern.size(); ++i)
    EXPECT_GT(pattern[i], pattern[i - 1]);
  EXPECT_LT(pattern.back(), 300u);
}

TEST(RateMatch, RepetitionCycles) {
  const auto pattern = rate_match_pattern(10, 25);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    EXPECT_EQ(pattern[i], i % 10);
}

TEST(RateMatch, DematchMarksEverythingOnceAtIdentity) {
  Llrs received(30, 2.0);
  const Llrs mother = rate_dematch(received, 30);
  for (double l : mother) EXPECT_DOUBLE_EQ(l, 2.0);
}

TEST(RateMatch, DematchZeroesPuncturedPositions) {
  Llrs received(20, 1.0);
  const Llrs mother = rate_dematch(received, 30);
  int zeros = 0, ones = 0;
  for (double l : mother) {
    if (l == 0.0) ++zeros;
    else ++ones;
  }
  EXPECT_EQ(zeros, 10);
  EXPECT_EQ(ones, 20);
}

TEST(RateMatch, RepetitionAccumulatesLlrs) {
  Llrs received(20, 1.0);
  const Llrs mother = rate_dematch(received, 10);
  for (double l : mother) EXPECT_DOUBLE_EQ(l, 2.0);
}

TEST(RateMatch, OutputBitsForRate) {
  EXPECT_EQ(output_bits_for_rate(100, 0.5), 200u);
  EXPECT_EQ(output_bits_for_rate(100, 1.0 / 3.0), 300u);
  EXPECT_THROW(output_bits_for_rate(100, 1.5), ContractViolation);
}

TEST(Awgn, SigmaMatchesDefinition) {
  // Es/N0 = 0 dB -> sigma^2 = 0.5.
  EXPECT_NEAR(awgn_sigma(units::Db{0.0}), std::sqrt(0.5), 1e-12);
  EXPECT_GT(awgn_sigma(units::Db{-5.0}), awgn_sigma(units::Db{5.0}));
}

TEST(Awgn, HighSnrIsEssentiallyNoiseless) {
  Rng rng(10);
  const Bits bits = random_bits(1000, rng);
  const auto llrs = transmit_bpsk(bits, units::Db{20.0}, rng);
  EXPECT_EQ(hard_decisions(llrs), bits);
}

TEST(Awgn, UncodedBerMatchesTheory) {
  // BER = Q(sqrt(2 Es/N0)); at 4 dB that is ~1.25%.
  Rng rng(11);
  const Bits bits = random_bits(200000, rng);
  const auto llrs = transmit_bpsk(bits, units::Db{4.0}, rng);
  const auto hard = hard_decisions(llrs);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (hard[i] != bits[i]) ++errors;
  const double ber =
      static_cast<double>(errors) / static_cast<double>(bits.size());
  EXPECT_NEAR(ber, 0.0125, 0.004);
}

TEST(Link, CleanAtHighSnrAcrossRates) {
  Rng rng(12);
  for (double rate : {1.0 / 3.0, 0.5, 0.75}) {
    LinkConfig config;
    config.info_bits = 128;
    config.code_rate = rate;
    const auto stats = run_link(config, units::Db{8.0}, 40, rng);
    EXPECT_EQ(stats.block_errors, 0u) << "rate " << rate;
    EXPECT_EQ(stats.undetected_errors, 0u);
  }
}

TEST(Link, BlerMonotoneInSnr) {
  Rng rng(13);
  LinkConfig config;
  config.info_bits = 96;
  config.code_rate = 0.5;
  double prev = 1.1;
  for (double esn0 : {-4.0, -1.0, 3.0}) {
    const auto stats = run_link(config, units::Db{esn0}, 120, rng);
    EXPECT_LE(stats.bler(), prev + 0.08) << "esn0 " << esn0;
    prev = stats.bler();
  }
  EXPECT_LT(prev, 0.05);  // clean at the top of the sweep
}

TEST(Link, HigherRateNeedsMoreSnr) {
  Rng rng(14);
  LinkConfig low, high;
  low.info_bits = high.info_bits = 96;
  low.code_rate = 1.0 / 3.0;
  high.code_rate = 0.8;
  const units::Db esn0{-1.5};
  const auto stats_low = run_link(low, esn0, 120, rng);
  const auto stats_high = run_link(high, esn0, 120, rng);
  EXPECT_LT(stats_low.bler(), stats_high.bler());
}

TEST(Link, CodingBeatsUncodedAtModerateSnr) {
  // At 2 dB, uncoded BPSK has BER ~3.75%, so a 96-bit block fails with
  // probability ~97%. The rate-1/2 code decodes essentially always.
  Rng rng(15);
  LinkConfig config;
  config.info_bits = 96;
  config.code_rate = 0.5;
  const auto stats = run_link(config, units::Db{2.0}, 100, rng);
  EXPECT_LT(stats.bler(), 0.05);
}

}  // namespace
}  // namespace pran::coding
