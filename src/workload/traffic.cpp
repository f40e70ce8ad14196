#include "workload/traffic.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"

namespace pran::workload {

const std::vector<ServiceClass>& default_service_mix() {
  static const std::vector<ServiceClass> mix = {
      {"heavy", units::BitRate{20e6}, 0.25},
      {"medium", units::BitRate{5e6}, 0.25},
      {"light", units::BitRate{1e6}, 0.50},
  };
  return mix;
}

namespace {

/// Decoder iterations grow with code rate: near-capacity blocks take more
/// passes before the CRC checks out.
int sample_turbo_iterations(double code_rate, Rng& rng) {
  const double mean = 3.0 + 4.0 * code_rate;  // 3.3 .. 6.7
  const int draw = static_cast<int>(std::lround(rng.normal(mean, 0.8)));
  return std::clamp(draw, lte::kMinTurboIterations, lte::kMaxTurboIterations);
}

/// Index into default_service_mix() of the class that the uniform draw `u`
/// picks, walking the cumulative weights.
std::size_t pick_service_class(double u) {
  const auto& mix = default_service_mix();
  double weight_total = 0.0;
  for (const auto& c : mix) weight_total += c.weight;
  double pick = u * weight_total;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    pick -= mix[i].weight;
    if (pick < 0.0) return i;
  }
  return mix.size() - 1;
}

/// What a UE of one service class at one CQI is granted.
struct UeGrade {
  int mcs = 0;
  int prbs = 0;  ///< Unclipped PRBs for the class's rate at `mcs`.
  double code_rate = 0.0;
};

/// [service class][CQI 0..15] -> grade, built once per process from the
/// lte functions that define it.
using GradeTable = std::vector<std::array<UeGrade, 16>>;

const GradeTable& ue_grades() {
  static const GradeTable table = [] {
    GradeTable t;
    for (const auto& c : default_service_mix()) {
      std::array<UeGrade, 16> row{};
      for (int cqi = 0; cqi <= 15; ++cqi) {
        const int mcs = lte::mcs_from_cqi(cqi);
        row[static_cast<std::size_t>(cqi)] =
            UeGrade{mcs, lte::prbs_for_rate(c.rate_bps, mcs).count(),
                    lte::mcs(mcs).code_rate};
      }
      t.push_back(row);
    }
    return t;
  }();
  return table;
}

}  // namespace

TrafficModel::TrafficModel(CellSite site, DiurnalProfile profile,
                           lte::CostModel cost, std::uint64_t seed)
    : site_(site), profile_(profile), cost_(cost), rng_(seed) {
  PRAN_REQUIRE(site_.peak_prb_utilization > 0.0 &&
                   site_.peak_prb_utilization <= 1.0,
               "peak utilization outside (0, 1]");
  PRAN_REQUIRE(site_.radius_m > site_.min_distance_m,
               "cell radius must exceed the minimum UE distance");

  // Calibrate mean PRBs per UE by Monte Carlo so that the Poisson arrival
  // intensity can be set to hit the configured peak PRB utilisation.
  const GradeTable& grades = ue_grades();
  Rng calib(seed ^ 0x5ca1ab1eULL);
  double total = 0.0;
  constexpr int kCalibrationDraws = 512;
  for (int i = 0; i < kCalibrationDraws; ++i) {
    const std::size_t service = pick_service_class(calib.uniform());
    const double d = std::sqrt(calib.uniform()) * site_.radius_m;
    const int cqi =
        lte::lookup_cqi_at_distance(std::max(d, site_.min_distance_m));
    total += grades[service][static_cast<std::size_t>(std::max(1, cqi))].prbs;
  }
  mean_prbs_per_ue_ = total / kCalibrationDraws;
  PRAN_CHECK(mean_prbs_per_ue_ > 0.0, "calibration produced zero PRBs/UE");
}

double TrafficModel::expected_utilization(double hour) const {
  return site_.peak_prb_utilization * profile_.at(hour);
}

std::vector<lte::Allocation> TrafficModel::sample_subframe_with(
    double hour, Rng& rng) const {
  const double target_prbs =
      expected_utilization(hour) * static_cast<double>(site_.config.n_prb);
  const double lambda = target_prbs / mean_prbs_per_ue_;
  const std::uint32_t ue_count = rng.poisson(lambda);

  std::vector<lte::Allocation> allocs;
  allocs.reserve(ue_count);
  int prbs_left = site_.config.n_prb;
  const GradeTable& grades = ue_grades();

  for (std::uint32_t u = 0; u < ue_count && prbs_left > 0; ++u) {
    const std::size_t service = pick_service_class(rng.uniform());
    // Uniform position in the disc (sqrt for area uniformity).
    const double dist = std::max(std::sqrt(rng.uniform()) * site_.radius_m,
                                 site_.min_distance_m);
    const int cqi = lte::lookup_cqi_at_distance(dist);
    if (cqi == 0) continue;  // out of coverage this TTI
    const UeGrade& grade = grades[service][static_cast<std::size_t>(cqi)];
    const int prbs = std::min(grade.prbs, prbs_left);
    if (prbs == 0) continue;
    allocs.push_back(lte::Allocation{
        prbs, grade.mcs, sample_turbo_iterations(grade.code_rate, rng)});
    prbs_left -= prbs;
  }
  return allocs;
}

std::vector<lte::Allocation> TrafficModel::sample_subframe(double hour) {
  return sample_subframe_with(hour, rng_);
}

double TrafficModel::expected_subframe_gops(double hour, int samples) const {
  PRAN_REQUIRE(samples >= 1, "need at least one sample");
  Rng scratch(rng_);  // copy: do not disturb the model's own stream
  double total = 0.0;
  for (int i = 0; i < samples; ++i) {
    const auto allocs = sample_subframe_with(hour, scratch);
    total +=
        cost_.subframe_cost(site_.config, allocs, lte::Direction::kUplink)
            .total();
  }
  return total / static_cast<double>(samples);
}

double TrafficModel::peak_subframe_gops() const {
  return cost_.peak_cost(site_.config, lte::Direction::kUplink).total();
}

Fleet make_fleet(int num_cells, std::uint64_t seed, lte::CellConfig config,
                 double peak_prb_utilization) {
  PRAN_REQUIRE(num_cells >= 1, "fleet needs at least one cell");
  Fleet fleet;
  fleet.cells.reserve(static_cast<std::size_t>(num_cells));
  Rng rng(seed);
  const SiteKind kinds[] = {SiteKind::kOffice, SiteKind::kResidential,
                            SiteKind::kMixed, SiteKind::kTransport};
  for (int c = 0; c < num_cells; ++c) {
    CellSite site;
    site.cell_id = c;
    site.config = config;
    site.kind = kinds[static_cast<std::size_t>(c) % 4];
    site.peak_prb_utilization = peak_prb_utilization;
    DiurnalProfile profile =
        DiurnalProfile::canonical(site.kind).jittered(rng, kProfileJitterSigma);
    fleet.cells.emplace_back(site, profile, lte::CostModel{}, rng.fork()());
  }
  return fleet;
}

}  // namespace pran::workload
