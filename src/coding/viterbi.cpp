#include "coding/viterbi.hpp"

#include <limits>

#include "coding/simd/viterbi_kernels.hpp"
#include "common/check.hpp"
#include "common/narrow.hpp"
#include "telemetry/telemetry.hpp"

namespace pran::coding {
namespace {

constexpr float kNegInfF = -std::numeric_limits<float>::infinity();

/// Decision bytes per trellis step: one bit per next state.
constexpr std::size_t kDecisionBytes = kNumStates / 8;

}  // namespace

const ViterbiResult& ViterbiDecoder::decode(const Llrs& llrs,
                                            std::size_t info_bits) {
  PRAN_REQUIRE(info_bits >= 1, "need at least one information bit");
  const std::size_t total_steps = info_bits + kConstraintLength - 1;
  PRAN_REQUIRE(llrs.size() == kCodeRateDen * total_steps,
               "LLR length does not match encoded_length(info_bits)");

  // The pad lets SIMD kernels over-read when splatting predecessor
  // metrics; assign() initializes it, so the reads are always defined.
  metric_.assign(kNumStates + simd::kViterbiMetricPad, kNegInfF);
  next_metric_.assign(kNumStates + simd::kViterbiMetricPad, kNegInfF);
  metric_[0] = 0.0f;  // encoder starts in the zero state

  // Bitmask decisions: bit (ns & 7) of byte (t * 8 + (ns >> 3)) is 1 if
  // state ns's winning predecessor at step t is (ns >> 1) | 32. One bit
  // per branch instead of a byte — 8x less traffic on the store side of
  // the ACS loop and in the traceback working set.
  if (decisions_.size() < total_steps * kDecisionBytes)
    decisions_.resize(total_steps * kDecisionBytes);

  // ACS forward sweep through the active ISA's kernel (bit-exact across
  // tiers; final metrics land back in metric_).
  simd::viterbi_kernels(simd::active_isa())
      .forward(llrs.data(), total_steps, metric_.data(),
               next_metric_.data(), decisions_.data());

  // Traceback from the zero state (the encoder terminates there).
  result_.path_metric = metric_[0];
  if (inputs_.size() < total_steps) inputs_.resize(total_steps);
  int state = 0;
  for (std::size_t t = total_steps; t-- > 0;) {
    inputs_[t] = narrow_cast<std::uint8_t>(state & 1);
    const int which =
        (decisions_[t * kDecisionBytes +
                    static_cast<std::size_t>(state >> 3)] >>
         (state & 7)) &
        1;
    state = (state >> 1) | (which ? (kNumStates >> 1) : 0);
  }
  PRAN_CHECK(state == 0, "traceback did not return to the start state");

  result_.info.assign(inputs_.begin(),
                      inputs_.begin() + static_cast<std::ptrdiff_t>(info_bits));
  return result_;
}

void ViterbiDecoder::decode_batch(std::span<ViterbiBatchItem> items,
                                  std::size_t info_bits) {
  for (ViterbiBatchItem& item : items) {
    PRAN_REQUIRE(item.llrs != nullptr, "decode_batch: item without LLRs");
    const ViterbiResult& r = decode(*item.llrs, info_bits);
    item.info = r.info;
    item.path_metric = r.path_metric;
  }
}

ViterbiResult viterbi_decode(const Llrs& llrs, std::size_t info_bits) {
  PRAN_SPAN("viterbi_decode", static_cast<std::int64_t>(info_bits));
  thread_local ViterbiDecoder decoder;
  return decoder.decode(llrs, info_bits);
}

}  // namespace pran::coding
