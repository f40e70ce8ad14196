#include "coding/rate_match.hpp"

#include <cmath>

#include "common/check.hpp"

namespace pran::coding {

std::vector<std::size_t> rate_match_pattern(std::size_t input_bits,
                                            std::size_t output_bits) {
  PRAN_REQUIRE(input_bits >= 1 && output_bits >= 1,
               "pattern needs non-empty input and output");
  std::vector<std::size_t> pattern;
  pattern.reserve(output_bits);
  if (output_bits <= input_bits) {
    // Even puncturing: keep positions floor(i * in / out), all distinct.
    for (std::size_t i = 0; i < output_bits; ++i)
      pattern.push_back(i * input_bits / output_bits);
  } else {
    // Repetition: cycle through the mother codeword.
    for (std::size_t i = 0; i < output_bits; ++i)
      pattern.push_back(i % input_bits);
  }
  return pattern;
}

Bits rate_match(const Bits& coded, std::size_t output_bits) {
  const auto pattern = rate_match_pattern(coded.size(), output_bits);
  Bits out;
  out.reserve(output_bits);
  for (std::size_t pos : pattern) out.push_back(coded[pos]);
  return out;
}

Llrs rate_dematch(const Llrs& received, std::size_t mother_bits) {
  PRAN_REQUIRE(mother_bits >= 1, "mother codeword must be non-empty");
  const auto pattern = rate_match_pattern(mother_bits, received.size());
  Llrs out(mother_bits, 0.0);
  for (std::size_t i = 0; i < received.size(); ++i)
    out[pattern[i]] += received[i];
  return out;
}

std::size_t output_bits_for_rate(std::size_t info_bits, double rate) {
  PRAN_REQUIRE(info_bits >= 1, "need at least one information bit");
  PRAN_REQUIRE(rate > 0.0 && rate < 1.0, "code rate outside (0, 1)");
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(info_bits) / rate));
}

}  // namespace pran::coding
