#pragma once

/// \file stats.hpp
/// Descriptive statistics used by the benchmark harness and the controller's
/// KPI reporting: online accumulators, percentiles, confidence intervals, and
/// Jain's fairness index.

#include <cstddef>
#include <deque>
#include <vector>

namespace pran {

/// Online mean/variance accumulator (Welford). O(1) memory; suitable for the
/// controller's rolling KPIs.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample container with quantile / CI queries. Stores all samples; intended
/// for offline experiment analysis, not the hot path. The samples sit in
/// fixed-size blocks, so a long log never copies itself into one block
/// twice its size as it grows: a benchmark that logs one time per
/// operation keeps its peak memory near the log's own size.
class Samples {
 public:
  Samples() = default;
  explicit Samples(const std::vector<double>& values)
      : values_(values.begin(), values.end()) {}

  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  const std::deque<double>& values() const noexcept { return values_; }

  double mean() const noexcept;
  double stddev() const noexcept;
  double min() const;
  double max() const;

  /// Quantile in [0,1] with linear interpolation between order statistics.
  /// Requires at least one sample.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  /// Half-width of the two-sided confidence interval around the mean using a
  /// normal approximation (z of 1.645 for 90%, 1.96 for 95%). `level` is one
  /// of 0.90, 0.95, 0.99.
  double ci_half_width(double level = 0.95) const;

 private:
  mutable std::deque<double> values_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Jain's fairness index over per-entity allocations:
///   (sum x)^2 / (n * sum x^2), in (0, 1]; 1 means perfectly fair.
/// Returns 1.0 for empty input or all-zero allocations (vacuously fair).
double jain_fairness(const std::vector<double>& allocations) noexcept;

}  // namespace pran
