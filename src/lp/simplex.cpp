#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pran::lp {
namespace {

/// Pivot budget per solve.
constexpr long kMaxPivots = 200000;
/// Switch from Dantzig to Bland's rule after this many pivots in one run
/// (anti-cycling).
constexpr long kBlandThreshold = 5000;
/// Magnitude below which a tableau entry counts as zero.
constexpr double kPivotEps = 1e-9;
/// Slack within which a basic value meets its bounds.
constexpr double kPrimalTol = 1e-9;
/// Slack within which a reduced cost has the sign its bound needs.
constexpr double kDualTol = 1e-9;
/// Ratios this close count as tied; the larger pivot entry then wins.
constexpr double kRatioTie = 1e-12;
/// Entries an update leaves below this are round-off and set to zero,
/// which keeps the tableau as sparse as the model.
constexpr double kDropTol = 1e-13;
/// Pivots after which load() starts again from the initial tableau rather
/// than pivot from the current one, so round-off cannot build up.
constexpr long kRefactorPivots = 100;

}  // namespace

Simplex::Simplex(const Model& model)
    : n_(model.variables().size()),
      m_(model.constraints().size()),
      cols_(n_ + m_),
      stride_(cols_ + 1),
      sense_sign_(model.sense() == Sense::kMinimize ? 1.0 : -1.0),
      constant_(model.objective().constant()) {
  PRAN_REQUIRE(n_ > 0, "model has no variables");
  // Row i: a_i x + s_i = b_i, with each >= row negated so that every
  // logical s_i has lower bound 0.
  initial_.assign(m_ * stride_, 0.0);
  lower_.assign(cols_, 0.0);
  upper_.assign(cols_, kInfinity);
  for (std::size_t i = 0; i < m_; ++i) {
    const auto& c = model.constraints()[i].constraint;
    const double sign = c.relation == Relation::kGreaterEqual ? -1.0 : 1.0;
    double* row = &initial_[i * stride_];
    for (const auto& [v, coeff] : c.lhs.terms())
      row[static_cast<std::size_t>(v.index)] += sign * coeff;
    row[n_ + i] = 1.0;
    row[cols_] = sign * (c.rhs - c.lhs.constant());
    if (c.relation == Relation::kEqual) upper_[n_ + i] = 0.0;
  }
  for (std::size_t j = 0; j < n_; ++j) {
    model_lower_.push_back(model.variables()[j].lower);
    model_upper_.push_back(model.variables()[j].upper);
  }
  start_ = model.start();
  cost_.assign(cols_, 0.0);
  for (const auto& [v, c] : model.objective().terms())
    cost_[static_cast<std::size_t>(v.index)] += sense_sign_ * c;
  d_.assign(stride_, 0.0);
  value_.assign(m_, 0.0);
  basic_.assign(m_, 0);
  row_of_.assign(cols_, -1);
  at_upper_.assign(cols_, false);
  wanted_.assign(cols_, 0);
  reset();
}

LpResult Simplex::solve() {
  set_bounds(model_lower_, model_upper_);
  return cold();
}

LpResult Simplex::solve(const std::vector<double>& lower,
                        const std::vector<double>& upper,
                        const Basis& start) {
  PRAN_REQUIRE(start.basic.size() == m_ && start.at_upper.size() == cols_,
               "basis does not match the model");
  set_bounds(lower, upper);
  if (!load(start.basic)) {
    // Round-off made the basis look singular from the current tableau:
    // retry from the initial one, then give up on the warm start.
    reset();
    if (!load(start.basic)) return cold();
  }
  for (std::size_t j = 0; j < cols_; ++j)
    at_upper_[j] = row_of_[j] < 0 && start.at_upper[j] &&
                   std::isfinite(upper_[j]);
  return optimise(false);
}

void Simplex::set_bounds(const std::vector<double>& lower,
                         const std::vector<double>& upper) {
  PRAN_REQUIRE(lower.size() == n_ && upper.size() == n_,
               "bounds do not match the model");
  for (std::size_t j = 0; j < n_; ++j) {
    PRAN_REQUIRE(std::isfinite(lower[j]) && lower[j] <= upper[j],
                 "variable bounds are crossed or unbounded below");
    lower_[j] = lower[j];
    upper_[j] = upper[j];
  }
}

LpResult Simplex::cold() {
  reset();
  // A start point that sits on a bound in every column and meets every row
  // is a primal feasible all-logical basis: the primal simplex goes on
  // from there.
  if (!start_.empty()) {
    bool on_bounds = true;
    for (std::size_t j = 0; j < n_ && on_bounds; ++j) {
      at_upper_[j] = start_[j] == upper_[j];
      on_bounds = at_upper_[j] || start_[j] == lower_[j];
    }
    if (on_bounds) {
      compute_values();
      bool feasible = true;
      for (std::size_t i = 0; i < m_ && feasible; ++i) {
        const auto j = static_cast<std::size_t>(basic_[i]);
        feasible = value_[i] >= lower_[j] - kPrimalTol &&
                   value_[i] <= upper_[j] + kPrimalTol;
      }
      if (feasible) return optimise(false);
    }
  }
  // Each structural column starts at the bound its cost prefers. A column
  // whose cost prefers an infinite upper bound cannot start dual feasible:
  // price it at zero until the dual simplex has found a feasible point.
  bool repriced = false;
  for (std::size_t j = 0; j < n_; ++j) {
    const bool wants_upper = cost_[j] < 0.0;
    at_upper_[j] = wants_upper && std::isfinite(upper_[j]);
    if (wants_upper && !at_upper_[j]) {
      d_[j] = 0.0;
      repriced = true;
    }
  }
  for (std::size_t j = n_; j < cols_; ++j) at_upper_[j] = false;
  return optimise(repriced);
}

LpResult Simplex::optimise(bool repriced) {
  compute_values();
  long iterations = 0;
  LpStatus status = run_dual(iterations);
  if (repriced) price();
  if (status == LpStatus::kOptimal && !dual_feasible())
    status = run_primal(iterations);

  LpResult result;
  result.status = status;
  result.iterations = iterations;
  if (status != LpStatus::kOptimal) return result;
  result.x.resize(n_);
  double objective = 0.0;
  for (std::size_t j = 0; j < n_; ++j) {
    const int row = row_of_[j];
    result.x[j] = row >= 0 ? value_[static_cast<std::size_t>(row)]
                           : nonbasic_value(j);
    objective += cost_[j] * result.x[j];
  }
  result.objective = sense_sign_ * objective + constant_;
  return result;
}

void Simplex::reset() {
  tab_ = initial_;
  for (std::size_t i = 0; i < m_; ++i) basic_[i] = static_cast<int>(n_ + i);
  for (std::size_t j = 0; j < cols_; ++j)
    row_of_[j] = j < n_ ? -1 : static_cast<int>(j - n_);
  std::copy(cost_.begin(), cost_.end(), d_.begin());
  pivots_since_reset_ = 0;
}

bool Simplex::load(const std::vector<int>& basic) {
  if (pivots_since_reset_ > kRefactorPivots) reset();
  for (const int col : basic) wanted_[static_cast<std::size_t>(col)] = 1;
  bool ok = true;
  for (const int c : basic) {
    const auto col = static_cast<std::size_t>(c);
    if (row_of_[col] >= 0) continue;
    // Pivot the column into the row, among those whose basic column is
    // not wanted, where its entry is largest.
    std::size_t best_row = m_;
    double best = kPivotEps;
    for (std::size_t i = 0; i < m_; ++i) {
      if (wanted_[static_cast<std::size_t>(basic_[i])]) continue;
      const double a = std::abs(at(i, col));
      if (a > best) {
        best = a;
        best_row = i;
      }
    }
    if (best_row == m_) {
      ok = false;
      break;
    }
    pivot(best_row, col);
  }
  for (const int col : basic) wanted_[static_cast<std::size_t>(col)] = 0;
  return ok;
}

void Simplex::price() {
  std::copy(cost_.begin(), cost_.end(), d_.begin());
  for (std::size_t i = 0; i < m_; ++i) {
    const double cb = cost_[static_cast<std::size_t>(basic_[i])];
    if (cb == 0.0) continue;
    const double* row = &tab_[i * stride_];
    for (std::size_t j = 0; j < cols_; ++j) d_[j] -= cb * row[j];
  }
  for (std::size_t i = 0; i < m_; ++i)
    d_[static_cast<std::size_t>(basic_[i])] = 0.0;
}

void Simplex::compute_values() {
  for (std::size_t i = 0; i < m_; ++i) value_[i] = at(i, cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    if (row_of_[j] >= 0) continue;
    const double v = nonbasic_value(j);
    if (v == 0.0) continue;
    for (std::size_t i = 0; i < m_; ++i) value_[i] -= at(i, j) * v;
  }
}

bool Simplex::dual_feasible() const {
  for (std::size_t j = 0; j < cols_; ++j) {
    if (row_of_[j] >= 0 || lower_[j] == upper_[j]) continue;
    if (at_upper_[j] ? d_[j] > kDualTol : d_[j] < -kDualTol) return false;
  }
  return true;
}

LpStatus Simplex::run_dual(long& iterations) {
  for (long local = 0;; ++local, ++iterations) {
    if (iterations >= kMaxPivots) return LpStatus::kIterationLimit;
    const bool bland = local >= kBlandThreshold;

    // Leaving row: by dual steepest edge, the largest squared excess over
    // the squared norm of the row's B^-1 part, which the logical columns
    // hold (Bland: the lowest basic column outside its bounds).
    std::size_t r = m_;
    bool to_upper = false;
    double best = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const auto j = static_cast<std::size_t>(basic_[i]);
      const double below = lower_[j] - value_[i];
      const double above = value_[i] - upper_[j];
      const double excess = std::max(below, above);
      if (excess <= kPrimalTol) continue;
      double score = 0.0;
      if (!bland) {
        const double* inverse = &tab_[i * stride_ + n_];
        double norm = 0.0;
        for (std::size_t k = 0; k < m_; ++k) norm += inverse[k] * inverse[k];
        score = excess * excess / norm;
      }
      if (bland ? r == m_ || basic_[i] < basic_[r] : score > best) {
        r = i;
        best = score;
        to_upper = above > below;
      }
    }
    if (r == m_) return LpStatus::kOptimal;

    // Entering column: among those whose move pushes the leaving value
    // toward the bound it violates, the smallest reduced-cost ratio keeps
    // every reduced cost's sign; among ties, the largest entry pivots
    // (Bland: the lowest column).
    const double dir = to_upper ? 1.0 : -1.0;
    const double* row = &tab_[r * stride_];
    std::size_t q = cols_;
    double best_ratio = 0.0;
    double best_abs = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) {
      const double a = dir * row[j];
      if (std::abs(a) <= kPivotEps || row_of_[j] >= 0 ||
          lower_[j] == upper_[j] || (a < 0.0) != at_upper_[j])
        continue;
      const double ratio =
          std::max(0.0, at_upper_[j] ? -d_[j] : d_[j]) / std::abs(a);
      const bool better =
          q == cols_ || ratio < best_ratio - kRatioTie ||
          (!bland && ratio <= best_ratio + kRatioTie &&
           std::abs(a) > best_abs);
      if (better) {
        q = j;
        best_ratio = ratio;
        best_abs = std::abs(a);
      }
    }
    if (q == cols_) return LpStatus::kInfeasible;

    const auto leaving = static_cast<std::size_t>(basic_[r]);
    const double target = to_upper ? upper_[leaving] : lower_[leaving];
    const double step = (value_[r] - target) / row[q];
    const double entering_value = nonbasic_value(q) + step;
    for (std::size_t i = 0; i < m_; ++i) value_[i] -= at(i, q) * step;
    at_upper_[leaving] = to_upper;
    pivot(r, q);
    value_[r] = entering_value;
  }
}

LpStatus Simplex::run_primal(long& iterations) {
  for (long local = 0;; ++local, ++iterations) {
    if (iterations >= kMaxPivots) return LpStatus::kIterationLimit;
    const bool bland = local >= kBlandThreshold;

    // Entering column: the steepest improving reduced cost (Bland: the
    // lowest improving column).
    std::size_t q = cols_;
    double best_gain = kDualTol;
    for (std::size_t j = 0; j < cols_; ++j) {
      if (row_of_[j] >= 0 || lower_[j] == upper_[j]) continue;
      const double gain = at_upper_[j] ? d_[j] : -d_[j];
      if (gain <= best_gain) continue;
      q = j;
      best_gain = gain;
      if (bland) break;
    }
    if (q == cols_) return LpStatus::kOptimal;

    // Ratio test: the entering column moves toward its other bound until a
    // basic value reaches one of its bounds; reaching its own bound first
    // is a flip and needs no pivot.
    const double dir = at_upper_[q] ? -1.0 : 1.0;
    double step = upper_[q] - lower_[q];
    std::size_t r = m_;
    bool to_upper = false;
    double best_abs = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const double a = dir * at(i, q);
      if (std::abs(a) <= kPivotEps) continue;
      const auto j = static_cast<std::size_t>(basic_[i]);
      double t = 0.0;
      if (a > 0.0) {
        t = (value_[i] - lower_[j]) / a;
      } else {
        if (!std::isfinite(upper_[j])) continue;
        t = (upper_[j] - value_[i]) / -a;
      }
      t = std::max(t, 0.0);
      const bool better =
          t < step - kRatioTie ||
          (r < m_ && t <= step + kRatioTie &&
           (bland ? basic_[i] < basic_[r] : std::abs(a) > best_abs));
      if (better) {
        step = t;
        r = i;
        to_upper = a < 0.0;
        best_abs = std::abs(a);
      }
    }
    if (!std::isfinite(step)) return LpStatus::kUnbounded;

    const double delta = dir * step;
    const double entering_value = nonbasic_value(q) + delta;
    for (std::size_t i = 0; i < m_; ++i) value_[i] -= at(i, q) * delta;
    if (r == m_) {
      at_upper_[q] = !at_upper_[q];
      continue;
    }
    at_upper_[static_cast<std::size_t>(basic_[r])] = to_upper;
    pivot(r, q);
    value_[r] = entering_value;
  }
}

void Simplex::pivot(std::size_t row, std::size_t col) {
  double* prow = &tab_[row * stride_];
  const double p = prow[col];
  PRAN_CHECK(std::abs(p) > kPivotEps, "pivot on a (near-)zero element");
  const double inv = 1.0 / p;
  nonzero_.clear();
  for (std::size_t j = 0; j < stride_; ++j) {
    if (prow[j] == 0.0) continue;
    prow[j] *= inv;
    nonzero_.push_back(j);
  }
  prow[col] = 1.0;  // kill residual round-off
  for (std::size_t i = 0; i < m_; ++i) {
    if (i == row) continue;
    double* r = &tab_[i * stride_];
    const double factor = r[col];
    if (factor == 0.0) continue;
    for (const std::size_t j : nonzero_) {
      const double v = r[j] - factor * prow[j];
      r[j] = std::abs(v) < kDropTol ? 0.0 : v;
    }
    r[col] = 0.0;
  }
  const double cfactor = d_[col];
  if (cfactor != 0.0) {
    for (const std::size_t j : nonzero_) d_[j] -= cfactor * prow[j];
    d_[col] = 0.0;
  }
  row_of_[static_cast<std::size_t>(basic_[row])] = -1;
  basic_[row] = static_cast<int>(col);
  row_of_[col] = static_cast<int>(row);
  ++pivots_since_reset_;
}

}  // namespace pran::lp
