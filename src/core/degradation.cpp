#include "core/degradation.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "fronthaul/codec.hpp"

namespace pran::core {

const char* rung_kind_name(RungKind kind) noexcept {
  switch (kind) {
    case RungKind::kNormal:
      return "normal";
    case RungKind::kCompress:
      return "compress";
    case RungKind::kEffort:
      return "effort";
    case RungKind::kMcsCap:
      return "mcs-cap";
    case RungKind::kShed:
      return "shed";
    case RungKind::kQuarantine:
      return "quarantine";
  }
  return "?";
}

DegradationController::DegradationController(const DegradationConfig& config,
                                             int num_cells)
    : config_(config), num_cells_(num_cells), down_hold_(config.down_epochs) {
  PRAN_REQUIRE(num_cells_ >= 1, "ladder needs cells");
  PRAN_REQUIRE(config_.up_epochs >= 1, "up hysteresis below 1 epoch");
  PRAN_REQUIRE(config_.down_epochs >= 1, "down hysteresis below 1 epoch");
  PRAN_REQUIRE(config_.queue_delay_up_us > config_.queue_delay_down_us,
               "queue-delay thresholds must leave a hysteresis band");
  PRAN_REQUIRE(config_.loss_up > config_.loss_down,
               "loss thresholds must leave a hysteresis band");
  double prev = 1.0;
  for (double factor : config_.compression_ladder) {
    PRAN_REQUIRE(factor > prev,
                 "compression ladder must be strictly increasing, each > 1");
    prev = factor;
  }
  int prev_cap = lte::kMaxTurboIterations;
  for (int cap : config_.effort_ladder) {
    PRAN_REQUIRE(cap >= 1 && cap < prev_cap,
                 "effort ladder must be strictly decreasing caps below the "
                 "full iteration budget");
    prev_cap = cap;
  }
  PRAN_REQUIRE(config_.mcs_cap >= 0 && config_.mcs_cap <= 28,
               "MCS cap outside the MCS table");
  dwell_.assign(static_cast<std::size_t>(max_rung()) + 1, 0);
}

bool DegradationController::update(sim::Time now,
                                   const DegradationSignals& signals) {
  if (!config_.enabled) return false;
  // Settle the dwell of the rung we have been sitting on since the last
  // update before any transition moves us off it.
  if (now > dwell_mark_) {
    dwell_[static_cast<std::size_t>(rung_)] += now - dwell_mark_;
    dwell_mark_ = now;
  }
  const bool stressed = signals.queue_delay_us > config_.queue_delay_up_us ||
                        signals.loss_rate > config_.loss_up ||
                        signals.miss_rate > kMissUp ||
                        signals.compute_pressure > kComputeUpTtis;
  const bool calm = signals.queue_delay_us < config_.queue_delay_down_us &&
                    signals.loss_rate < config_.loss_down &&
                    signals.miss_rate < kMissDown &&
                    signals.compute_pressure < kComputeDownTtis;
  if (stressed) {
    ++stressed_epochs_;
    calm_epochs_ = 0;
  } else if (calm) {
    ++calm_epochs_;
    stressed_epochs_ = 0;
  } else {
    // Dead band between the thresholds: hold the rung, restart both
    // consecutive-epoch counts.
    stressed_epochs_ = 0;
    calm_epochs_ = 0;
  }

  if (stressed_epochs_ >= config_.up_epochs && rung_ < max_rung()) {
    ++rung_;
    ++transitions_;
    stressed_epochs_ = 0;
    if (recovering_) {
      // Re-escalation after a step-down: the link is marginal at this
      // boundary, so the next step-down must earn a longer calm streak.
      down_hold_ = static_cast<int>(
          std::ceil(static_cast<double>(down_hold_) * kDownHoldBackoff));
      recovering_ = false;
    }
    return true;
  }
  if (calm_epochs_ >= down_hold_ && rung_ > 0) {
    --rung_;
    ++transitions_;
    calm_epochs_ = 0;
    recovering_ = true;
    return true;
  }
  return false;
}

RungKind DegradationController::rung_kind(int rung) const noexcept {
  if (rung <= 0) return RungKind::kNormal;
  if (rung < first_effort_rung()) return RungKind::kCompress;
  if (rung < mcs_rung()) return RungKind::kEffort;
  if (rung < shed_rung()) return RungKind::kMcsCap;
  if (rung < quarantine_rung()) return RungKind::kShed;
  return RungKind::kQuarantine;
}

const char* DegradationController::rung_name() const noexcept {
  return rung_kind_name(rung_kind(rung_));
}

int DegradationController::effort_cap() const noexcept {
  if (config_.effort_ladder.empty() || rung_ < first_effort_rung())
    return lte::kMaxTurboIterations;
  const auto step = static_cast<std::size_t>(
      std::min(rung_ - first_effort_rung() + 1,
               static_cast<int>(config_.effort_ladder.size())));
  return config_.effort_ladder[step - 1];
}

sim::Time DegradationController::dwell(int rung) const {
  PRAN_REQUIRE(rung >= 0 && rung <= max_rung(), "unknown rung index");
  return dwell_[static_cast<std::size_t>(rung)];
}

double DegradationController::compression_multiplier() const noexcept {
  if (rung_ == 0 || config_.compression_ladder.empty()) return 1.0;
  const auto step = static_cast<std::size_t>(
      std::min(rung_, static_cast<int>(config_.compression_ladder.size())));
  return config_.compression_ladder[step - 1];
}

bool DegradationController::cell_shed_eligible(int cell) const {
  PRAN_REQUIRE(cell >= 0 && cell < num_cells_, "unknown cell index");
  const int count = std::min(
      num_cells_,
      static_cast<int>(std::ceil(
          kShedFraction * static_cast<double>(num_cells_) - 1e-9)));
  return cell >= num_cells_ - count;
}

bool DegradationController::cell_quarantined(int cell) const {
  PRAN_REQUIRE(cell >= 0 && cell < num_cells_, "unknown cell index");
  if (!quarantining()) return false;
  const int count = std::min(
      num_cells_,
      static_cast<int>(std::ceil(
          kQuarantineFraction * static_cast<double>(num_cells_) - 1e-9)));
  return cell >= num_cells_ - count;
}

double compression_penalty_bler(double total_ratio) {
  PRAN_REQUIRE(total_ratio > 0.0, "compression ratio must be positive");
  if (total_ratio <= 1.0) return 0.0;

  // Mantissa width that reaches the ratio with a shared-exponent block
  // float (the per-block 6-bit exponent is amortised over 32 samples).
  const int mantissa = std::clamp(
      static_cast<int>(std::llround(
          static_cast<double>(fronthaul::kCpriSampleBits) / total_ratio)),
      2, fronthaul::kCpriSampleBits);

  // Deterministic Gaussian reference block: OFDM time-domain I/Q is
  // Gaussian to a good approximation, and a fixed seed keeps the penalty
  // a pure function of the ratio.
  Rng rng(0x5EEDu);
  std::vector<fronthaul::Cplx> block(2048);
  for (auto& sample : block) sample = {rng.normal(), rng.normal()};

  const fronthaul::BlockFloatCodec codec(mantissa);
  const auto result = codec.roundtrip(block);
  double signal = 0.0, error = 0.0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    signal += std::norm(block[i]);
    error += std::norm(result.decoded[i] - block[i]);
  }
  const double evm = std::sqrt(error / signal);

  // Power-law waterfall anchored at the 16-QAM EVM budget (12.5%): BLER
  // falls three decades per decade of EVM margin and saturates at 0.5.
  constexpr double kEvmBudget = 0.125;
  return std::min(0.5, 0.5 * std::pow(evm / kEvmBudget, 3.0));
}

}  // namespace pran::core
