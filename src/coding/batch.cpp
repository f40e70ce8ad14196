#include "coding/batch.hpp"

#include <bit>

#include "common/check.hpp"

namespace pran::coding {

void TurboBatchCollector::add(const Llrs& llrs, std::size_t k,
                              std::size_t tag) {
  PRAN_REQUIRE(turbo_block_size_ok(k), "unsupported turbo block size");
  PRAN_REQUIRE(llrs.size() == turbo_encoded_length(k),
               "LLR length does not match turbo_encoded_length(k)");
  const auto slot = static_cast<std::size_t>(std::countr_zero(k)) - 6;
  buckets_[slot].push_back(Pending{&llrs, tag});
}

std::size_t TurboBatchCollector::pending() const noexcept {
  std::size_t n = 0;
  for (const auto& bucket : buckets_) n += bucket.size();
  return n;
}

TurboBatchStats TurboBatchCollector::flush(
    TurboDecoder& decoder, std::vector<TurboBatchResult>& out,
    int max_iterations,
    const std::function<bool(std::size_t, const Bits&)>& early_stop) {
  TurboBatchStats total;
  for (std::size_t slot = 0; slot < 8; ++slot) {
    auto& bucket = buckets_[slot];
    if (bucket.empty()) continue;
    const std::size_t k = std::size_t{64} << slot;

    items_.resize(bucket.size());
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      items_[i].llrs = bucket[i].llrs;
      items_[i].info.clear();
      items_[i].iterations = 0;
      items_[i].converged = false;
    }
    // The kernel-facing predicate sees batch indices; translate them back
    // to the caller's tags.
    std::function<bool(std::size_t, const Bits&)> stop_fn;
    if (early_stop)
      stop_fn = [&early_stop, &bucket](std::size_t index, const Bits& hard) {
        return early_stop(bucket[index].tag, hard);
      };
    const TurboBatchStats stats =
        decoder.decode_batch(items_, k, max_iterations, stop_fn);

    total.lane_width = stats.lane_width;
    total.map_pass_calls += stats.map_pass_calls;
    total.lane_refills += stats.lane_refills;
    total.idle_lane_iterations += stats.idle_lane_iterations;
    total.budget_exhausted += stats.budget_exhausted;

    out.reserve(out.size() + items_.size());
    for (std::size_t i = 0; i < items_.size(); ++i) {
      TurboBatchResult r;
      r.tag = bucket[i].tag;
      r.info = std::move(items_[i].info);
      r.iterations = items_[i].iterations;
      r.converged = items_[i].converged;
      out.push_back(std::move(r));
    }
    bucket.clear();
  }
  return total;
}

}  // namespace pran::coding
