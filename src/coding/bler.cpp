#include "coding/bler.hpp"

#include "coding/convolutional.hpp"
#include "coding/crc.hpp"
#include "coding/viterbi.hpp"
#include "common/check.hpp"
#include "common/narrow.hpp"

namespace pran::coding {
namespace {

/// Everything one worker reuses across trials: every buffer in the
/// CRC -> encode -> match -> channel -> dematch -> Viterbi chain plus the
/// decoder workspace. After the first block, a trial allocates nothing.
struct LinkWorkspace {
  Bits payload;
  Bits with_crc;
  Bits coded;
  Bits matched;
  Llrs llrs;
  Llrs mother;
  ViterbiDecoder viterbi;
};

/// Per-config precomputation shared (read-only) by all trials of a sweep.
struct LinkPlan {
  std::size_t framed_bits = 0;  ///< info + CRC.
  std::size_t mother_bits = 0;  ///< encoded_length(framed_bits).
  std::vector<std::size_t> pattern;  ///< rate-match positions, reused both ways.
};

LinkPlan make_plan(const LinkConfig& config) {
  LinkPlan plan;
  plan.framed_bits = config.info_bits + static_cast<std::size_t>(kCrcBits);
  plan.mother_bits = encoded_length(plan.framed_bits);
  const std::size_t tx_bits =
      output_bits_for_rate(plan.framed_bits, config.code_rate);
  plan.pattern = rate_match_pattern(plan.mother_bits, tx_bits);
  return plan;
}

struct BlockOutcome {
  bool crc_ok = false;
  std::size_t bit_errors = 0;
  bool payload_match = false;
};

/// One trial: draws the payload, runs CRC -> encode -> rate match ->
/// BPSK/AWGN -> de-rate-match -> Viterbi, and scores the decoded block
/// against the payload. It draws only from `rng`, so its outcome depends
/// only on the stream.
BlockOutcome send_block(const LinkConfig& config, units::Db esn0, Rng& rng,
                        const LinkPlan& plan, LinkWorkspace& ws) {
  ws.payload.clear();
  ws.payload.reserve(config.info_bits);
  for (std::size_t i = 0; i < config.info_bits; ++i)
    ws.payload.push_back(rng.bernoulli(0.5) ? 1 : 0);

  ws.with_crc = ws.payload;
  ws.with_crc.reserve(plan.framed_bits);
  const std::uint32_t crc = crc24a(ws.payload);
  for (int i = kCrcBits - 1; i >= 0; --i)
    ws.with_crc.push_back(narrow_cast<std::uint8_t>((crc >> i) & 1u));

  convolutional_encode(ws.with_crc, ws.coded);

  ws.matched.clear();
  ws.matched.reserve(plan.pattern.size());
  for (std::size_t pos : plan.pattern) ws.matched.push_back(ws.coded[pos]);

  transmit_bpsk(ws.matched, esn0, rng, ws.llrs);
  if (!config.soft_decision) {
    // Hard decision: quantise to ±1 before de-matching.
    for (double& l : ws.llrs) l = l < 0.0 ? -1.0 : 1.0;
  }
  // De-rate-match with the same pattern: punctured positions stay zero
  // (erasures), repeated positions accumulate.
  ws.mother.assign(plan.mother_bits, 0.0);
  for (std::size_t i = 0; i < ws.llrs.size(); ++i)
    ws.mother[plan.pattern[i]] += ws.llrs[i];

  const Bits& info = ws.viterbi.decode(ws.mother, plan.framed_bits).info;
  BlockOutcome outcome;
  outcome.crc_ok = check_crc(info.data(), info.size());
  for (std::size_t i = 0; i < ws.payload.size(); ++i)
    if (info[i] != ws.payload[i]) ++outcome.bit_errors;
  outcome.payload_match = outcome.bit_errors == 0;
  return outcome;
}

void accumulate(LinkStats& stats, const LinkConfig& config,
                const BlockOutcome& outcome) {
  ++stats.blocks;
  stats.bits += config.info_bits;
  stats.bit_errors += outcome.bit_errors;
  if (!outcome.crc_ok) {
    ++stats.block_errors;
  } else if (!outcome.payload_match) {
    ++stats.undetected_errors;  // CRC collision: should be ~2^-24
  }
}

void merge(LinkStats& into, const LinkStats& from) {
  into.blocks += from.blocks;
  into.block_errors += from.block_errors;
  into.bit_errors += from.bit_errors;
  into.bits += from.bits;
  into.undetected_errors += from.undetected_errors;
}

}  // namespace

LinkStats run_link(const LinkConfig& config, units::Db esn0,
                   std::size_t blocks, Rng& rng, ThreadPool* pool) {
  PRAN_REQUIRE(blocks >= 1, "need at least one block");
  PRAN_REQUIRE(config.info_bits >= 8, "payload too small");
  const LinkPlan plan = make_plan(config);
  // One fork anchors all substreams; trial i draws only from stream(i), so
  // the counts below are invariant to how trials land on workers.
  const Rng base = rng.fork();

  const unsigned slots = pool ? pool->size() : 1;
  std::vector<LinkStats> partial(slots);
  std::vector<LinkWorkspace> workspaces(slots);
  const auto trial = [&](unsigned slot, std::size_t i) {
    Rng trial_rng = base.stream(i);
    accumulate(partial[slot], config,
               send_block(config, esn0, trial_rng, plan, workspaces[slot]));
  };
  if (pool) {
    pool->for_each(blocks, trial);
  } else {
    for (std::size_t i = 0; i < blocks; ++i) trial(0, i);
  }

  LinkStats stats;
  for (const auto& p : partial) merge(stats, p);  // counter sums commute
  return stats;
}

bool round_trip_block(const LinkConfig& config, units::Db esn0, Rng& rng) {
  thread_local LinkWorkspace workspace;
  thread_local LinkPlan plan;
  thread_local std::size_t plan_info_bits = 0;
  thread_local double plan_rate = 0.0;
  if (plan_info_bits != config.info_bits || plan_rate != config.code_rate) {
    plan = make_plan(config);
    plan_info_bits = config.info_bits;
    plan_rate = config.code_rate;
  }
  const auto outcome = send_block(config, esn0, rng, plan, workspace);
  return outcome.crc_ok && outcome.payload_match;
}

}  // namespace pran::coding
