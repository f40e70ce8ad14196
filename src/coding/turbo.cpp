#include "coding/turbo.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>

#include "coding/simd/turbo_kernels.hpp"
#include "coding/simd/turbo_trellis.hpp"
#include "common/check.hpp"
#include "common/narrow.hpp"
#include "telemetry/telemetry.hpp"

namespace pran::coding {
namespace {

constexpr int kStates = simd::kTurboStates;
constexpr int kTailSteps = simd::kTurboTailSteps;
/// Standard extrinsic damping for max-log-MAP.
constexpr float kExtrinsicScale = 0.75f;

/// The 8-state trellis (next state / parity / termination input per
/// state) now lives in simd/turbo_trellis.hpp, shared verbatim with the
/// SIMD kernels so encoder and every decoder tier walk identical tables.
constexpr const simd::TurboTrellis& kTrellis = simd::kTurboTrellis;

/// Encodes one RSC stream over `input`; appends (x, z) tail pairs to
/// `tail` while terminating.
void rsc_encode(const Bits& input, Bits& parity, Bits& tail) {
  unsigned state = 0;
  parity.reserve(parity.size() + input.size());
  for (std::uint8_t u : input) {
    parity.push_back(kTrellis.parity[state][u]);
    state = kTrellis.next[state][u];
  }
  for (int t = 0; t < kTailSteps; ++t) {
    const unsigned x = kTrellis.term[state];
    tail.push_back(narrow_cast<std::uint8_t>(x));
    tail.push_back(kTrellis.parity[state][x]);
    state = kTrellis.next[state][x];
  }
  PRAN_CHECK(state == 0, "RSC termination failed");
}

std::vector<std::size_t> build_interleaver(std::size_t k) {
  // QPP form with f1 odd and f2 even — a permutation for power-of-two K.
  const std::size_t f2 = k / 4;
  std::size_t f1 = 3 * k / 8 + 1;
  if (f1 % 2 == 0) ++f1;
  std::vector<std::size_t> pi(k);
  std::vector<std::uint8_t> seen(k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    pi[i] = (f1 * i + f2 * i * i) % k;
    PRAN_CHECK(!seen[pi[i]], "interleaver is not a permutation");
    seen[pi[i]] = 1;
  }
  return pi;
}

/// Per-K interleaver memo: supported K are the 8 powers of two in
/// [64, 8192], so a fixed slot table suffices. Entries are built once
/// (including the O(K) permutation check) and shared by every encoder and
/// decoder thread thereafter.
const std::vector<std::size_t>& cached_interleaver(std::size_t k) {
  PRAN_REQUIRE(turbo_block_size_ok(k), "unsupported turbo block size");
  // pran-lint: allow(determinism-hazard) -- the mutex only serializes memo
  // construction; it holds no run-visible state.
  static std::mutex mutex;
  // pran-lint: allow(determinism-hazard) -- build-once memo; each entry is
  // a pure function of k (QPP permutation), so contents are identical for
  // every run and thread count, and entries are immutable once published.
  static std::array<std::unique_ptr<const std::vector<std::size_t>>, 8> memo;
  const auto slot =
      static_cast<std::size_t>(std::countr_zero(k)) - 6;  // k=64 -> 0
  std::lock_guard<std::mutex> lock(mutex);
  auto& entry = memo[slot];
  if (!entry)
    entry = std::make_unique<const std::vector<std::size_t>>(
        build_interleaver(k));
  return *entry;
}

}  // namespace

bool turbo_block_size_ok(std::size_t k) noexcept {
  if (k < 64 || k > 8192) return false;
  return (k & (k - 1)) == 0;
}

std::vector<std::size_t> turbo_interleaver(std::size_t k) {
  return cached_interleaver(k);  // copy out; the memo keeps the original
}

Bits turbo_encode(const Bits& info) {
  PRAN_REQUIRE(turbo_block_size_ok(info.size()),
               "unsupported turbo block size");
  const auto& pi = cached_interleaver(info.size());

  Bits interleaved(info.size());
  for (std::size_t i = 0; i < info.size(); ++i) interleaved[i] = info[pi[i]];

  Bits parity1, parity2, tail;
  rsc_encode(info, parity1, tail);          // 6 tail bits from encoder 1
  rsc_encode(interleaved, parity2, tail);   // 6 more from encoder 2

  Bits out;
  out.reserve(turbo_encoded_length(info.size()));
  out.insert(out.end(), info.begin(), info.end());
  out.insert(out.end(), parity1.begin(), parity1.end());
  out.insert(out.end(), parity2.begin(), parity2.end());
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

void TurboDecoder::ensure_capacity(std::size_t k, unsigned lanes) {
  if (k <= capacity_k_ && lanes <= capacity_lanes_) return;
  capacity_k_ = std::max(capacity_k_, k);
  capacity_lanes_ = std::max(capacity_lanes_, lanes);
  const std::size_t w = capacity_lanes_;
  const std::size_t steps = capacity_k_ + kTailSteps;
  beta_.resize((steps + 1) * kStates * w);
  sys_.resize(steps * w);
  par1_.resize(steps * w);
  par2_.resize(steps * w);
  sys_int_.resize(steps * w);
  half_par1_.resize(steps * w);
  half_par2_.resize(steps * w);
  half_sys_.resize(steps * w);
  ext1_.resize(capacity_k_ * w);
  ext2_.resize(capacity_k_ * w);
  apriori2_.resize(capacity_k_ * w);
  ext2_deint_.resize(capacity_k_ * w);
  lane_item_.resize(w);
  lane_iter_.resize(w);
  lane_active_.resize(w);
}

const TurboResult& TurboDecoder::decode(
    const Llrs& llrs, std::size_t k, int max_iterations,
    const std::function<bool(const Bits&)>& early_exit) {
  // A one-item batch that decodes into result_'s own buffer.
  TurboBatchItem item;
  item.llrs = &llrs;
  item.info.swap(result_.info);
  std::function<bool(std::size_t, const Bits&)> stop;
  if (early_exit)
    stop = [&early_exit](std::size_t, const Bits& hard) {
      return early_exit(hard);
    };
  decode_batch({&item, 1}, k, max_iterations, stop);
  result_.info.swap(item.info);
  result_.iterations = item.iterations;
  result_.converged = item.converged;
  return result_;
}

TurboBatchStats TurboDecoder::decode_batch(
    std::span<TurboBatchItem> items, std::size_t k, int max_iterations,
    const std::function<bool(std::size_t, const Bits&)>& early_stop) {
  PRAN_REQUIRE(turbo_block_size_ok(k), "unsupported turbo block size");
  PRAN_REQUIRE(max_iterations >= 1, "need at least one iteration");
  for (auto& item : items) {
    PRAN_REQUIRE(item.llrs != nullptr, "decode_batch: item without LLRs");
    PRAN_REQUIRE(item.llrs->size() == turbo_encoded_length(k),
                 "LLR length does not match turbo_encoded_length(k)");
    PRAN_REQUIRE(item.max_iterations >= 0,
                 "per-item iteration budget must be non-negative");
  }

  const auto& kernels = simd::turbo_kernels(simd::active_isa());
  TurboBatchStats stats;
  stats.lane_width = kernels.lane_width;
  if (items.size() > 1 && kernels.lane_width > 1)
    run<false>(items, k, max_iterations, early_stop, kernels, stats);
  else if (!items.empty())
    run<true>(items, k, max_iterations, early_stop, kernels, stats);
  return stats;
}

template <bool kOneLane>
void TurboDecoder::run(
    std::span<TurboBatchItem> items, std::size_t k, int max_iterations,
    const std::function<bool(std::size_t, const Bits&)>& early_stop,
    const simd::TurboKernels& kernels, TurboBatchStats& stats) {
  // A compile-time stride of 1 keeps the one-lane loop as fast as a
  // dedicated single-block decoder; with a runtime stride, single-block
  // AVX2 decodes ran 6-20% slower.
  const unsigned w = kOneLane ? 1u : kernels.lane_width;
  const simd::TurboMapPassFn map_pass =
      kOneLane ? kernels.map_pass : kernels.batch_map_pass;
  ensure_capacity(k, w);
  const auto& pi = cached_interleaver(k);
  const std::size_t steps = k + kTailSteps;
  const std::size_t kw = k * w;
  const std::size_t sw = steps * w;

  // A positive per-item budget overrides the call-wide cap for that block.
  const auto item_cap = [&](std::size_t i) {
    return items[i].max_iterations > 0 ? items[i].max_iterations
                                       : max_iterations;
  };

  // Demultiplexes one block into lane `l` and resets its iteration state.
  // Layout per stream: [0, k) info positions, [k, k+3) tail. Tail layout
  // on the wire: enc1 (x, z) x3, then enc2 (x, z) x3.
  const auto load_lane = [&](unsigned l, std::size_t item_index) {
    const Llrs& llrs = *items[item_index].llrs;
    for (std::size_t i = 0; i < k; ++i) {
      sys_[i * w + l] = static_cast<float>(llrs[i]);
      par1_[i * w + l] = static_cast<float>(llrs[k + i]);
      par2_[i * w + l] = static_cast<float>(llrs[2 * k + i]);
    }
    for (std::size_t t = 0; t < static_cast<std::size_t>(kTailSteps); ++t) {
      sys_[(k + t) * w + l] = static_cast<float>(llrs[3 * k + 2 * t]);
      par1_[(k + t) * w + l] = static_cast<float>(llrs[3 * k + 2 * t + 1]);
      sys_int_[(k + t) * w + l] = static_cast<float>(llrs[3 * k + 6 + 2 * t]);
      par2_[(k + t) * w + l] =
          static_cast<float>(llrs[3 * k + 6 + 2 * t + 1]);
    }
    for (std::size_t i = 0; i < k; ++i)
      sys_int_[i * w + l] = sys_[pi[i] * w + l];
    for (std::size_t t = 0; t < steps; ++t) {
      half_par1_[t * w + l] = 0.5f * par1_[t * w + l];
      half_par2_[t * w + l] = 0.5f * par2_[t * w + l];
    }
    for (std::size_t i = 0; i < k; ++i) ext2_deint_[i * w + l] = 0.0f;
    items[item_index].info.assign(k, 0);
    items[item_index].iterations = 0;
    items[item_index].converged = false;
    lane_item_[l] = item_index;
    lane_iter_[l] = 0;
    lane_active_[l] = 1;
  };

  // Idle lanes (batch smaller than the lane width) decode zero LLRs:
  // finite everywhere, never read back.
  const auto clear_lane = [&](unsigned l) {
    for (std::size_t t = 0; t < steps; ++t) {
      sys_[t * w + l] = 0.0f;
      sys_int_[t * w + l] = 0.0f;
      half_par1_[t * w + l] = 0.0f;
      half_par2_[t * w + l] = 0.0f;
    }
    for (std::size_t i = 0; i < k; ++i) ext2_deint_[i * w + l] = 0.0f;
    lane_active_[l] = 0;
  };

  std::size_t next_pending = 0;
  std::size_t active = 0;
  for (unsigned l = 0; l < w; ++l) {
    if (next_pending < items.size()) {
      load_lane(l, next_pending++);
      ++active;
    } else {
      clear_lane(l);
    }
  }

  while (active > 0) {
    // One full turbo iteration for every lane in lockstep. Lanes never
    // mix, so each lane's outputs are bit-identical to a one-lane decode
    // of that block.
    // Decoder 1 in natural order; a-priori is decoder 2's extrinsic.
    for (std::size_t idx = 0; idx < kw; ++idx)
      half_sys_[idx] = 0.5f * (sys_[idx] + ext2_deint_[idx]);
    for (std::size_t idx = kw; idx < sw; ++idx)
      half_sys_[idx] = 0.5f * sys_[idx];
    map_pass(half_sys_.data(), half_par1_.data(), sys_.data(),
             ext2_deint_.data(), k, beta_.data(), ext1_.data());
    for (std::size_t idx = 0; idx < kw; ++idx) ext1_[idx] *= kExtrinsicScale;

    // Decoder 2 in interleaved order.
    for (std::size_t i = 0; i < k; ++i) {
      const float* src = ext1_.data() + pi[i] * w;
      float* dst = apriori2_.data() + i * w;
      for (unsigned l = 0; l < w; ++l) dst[l] = src[l];
    }
    for (std::size_t idx = 0; idx < kw; ++idx)
      half_sys_[idx] = 0.5f * (sys_int_[idx] + apriori2_[idx]);
    for (std::size_t idx = kw; idx < sw; ++idx)
      half_sys_[idx] = 0.5f * sys_int_[idx];
    map_pass(half_sys_.data(), half_par2_.data(), sys_int_.data(),
             apriori2_.data(), k, beta_.data(), ext2_.data());
    for (std::size_t i = 0; i < k; ++i) {
      const float* src = ext2_.data() + i * w;
      float* dst = ext2_deint_.data() + pi[i] * w;
      for (unsigned l = 0; l < w; ++l) dst[l] = src[l] * kExtrinsicScale;
    }

    stats.map_pass_calls += 2;
    stats.idle_lane_iterations += w - active;

    // Posterior, hard decision and retirement per lane.
    for (unsigned l = 0; l < w; ++l) {
      if (!lane_active_[l]) continue;
      TurboBatchItem& item = items[lane_item_[l]];
      for (std::size_t i = 0; i < k; ++i) {
        const float posterior =
            sys_[i * w + l] + ext1_[i * w + l] + ext2_deint_[i * w + l];
        item.info[i] = posterior < 0.0f ? 1 : 0;
      }
      item.iterations = ++lane_iter_[l];
      bool retire = false;
      if (early_stop && early_stop(lane_item_[l], item.info)) {
        item.converged = true;
        retire = true;
      } else if (lane_iter_[l] >= item_cap(lane_item_[l])) {
        if (early_stop) ++stats.budget_exhausted;
        retire = true;
      }
      if (retire) {
        if (next_pending < items.size()) {
          load_lane(l, next_pending++);
          // One lane decodes its blocks one after another; only a lane
          // beside others still in flight counts as refilled.
          if constexpr (!kOneLane) ++stats.lane_refills;
        } else {
          lane_active_[l] = 0;
          --active;
        }
      }
    }
  }
}

TurboResult turbo_decode(const Llrs& llrs, std::size_t k, int max_iterations,
                         const std::function<bool(const Bits&)>& early_exit) {
  PRAN_SPAN("turbo_decode", static_cast<std::int64_t>(k));
  thread_local TurboDecoder decoder;
  return decoder.decode(llrs, k, max_iterations, early_exit);
}

}  // namespace pran::coding
