#include "core/overload.hpp"

#include <algorithm>
#include <cmath>

namespace pran::core {

int effort_cap_for_pressure(double backlog_ttis) {
  if (backlog_ttis <= kPressureOnsetTtis) return kMaxEffort;
  if (backlog_ttis >= kPressureFullTtis) return kMinEffort;
  const double frac = (backlog_ttis - kPressureOnsetTtis) /
                      (kPressureFullTtis - kPressureOnsetTtis);
  const double cap = static_cast<double>(kMaxEffort) -
                     frac * static_cast<double>(kMaxEffort - kMinEffort);
  // Round down: under pressure, grant the conservative budget.
  return std::max(kMinEffort, static_cast<int>(std::floor(cap)));
}

}  // namespace pran::core
