// Tests for diurnal profiles, traffic models and traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "lte/link.hpp"
#include "workload/diurnal.hpp"
#include "workload/trace.hpp"
#include "workload/traffic.hpp"

namespace pran::workload {
namespace {

TEST(Diurnal, CanonicalProfilesPeakAtDistinctHours) {
  const auto office = DiurnalProfile::canonical(SiteKind::kOffice);
  const auto res = DiurnalProfile::canonical(SiteKind::kResidential);
  // Office peaks midday, residential in the evening: the non-coincidence
  // pooling exploits.
  EXPECT_GE(office.peak_hour(), 9);
  EXPECT_LE(office.peak_hour(), 16);
  EXPECT_GE(res.peak_hour(), 18);
  EXPECT_LE(res.peak_hour(), 23);
}

TEST(Diurnal, InterpolatesAndWraps) {
  const auto p = DiurnalProfile::canonical(SiteKind::kOffice);
  // Halfway between hour 23 and hour 0 values.
  const double expected = (p.hourly()[23] + p.hourly()[0]) / 2.0;
  EXPECT_NEAR(p.at(23.5), expected, 1e-12);
  EXPECT_NEAR(p.at(-0.5), expected, 1e-12);   // negative wraps
  EXPECT_NEAR(p.at(47.5), expected, 1e-12);   // next day wraps
  EXPECT_DOUBLE_EQ(p.at(10.0), p.hourly()[10]);
}

TEST(Diurnal, FlatProfile) {
  const auto p = DiurnalProfile::flat(0.4);
  EXPECT_DOUBLE_EQ(p.at(3.7), 0.4);
  EXPECT_DOUBLE_EQ(p.mean(), 0.4);
  EXPECT_THROW(DiurnalProfile::flat(1.5), pran::ContractViolation);
}

TEST(Diurnal, JitterStaysInRange) {
  Rng rng(5);
  const auto p = DiurnalProfile::canonical(SiteKind::kMixed).jittered(rng, 0.3);
  for (double v : p.hourly()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // Zero sigma is identity.
  const auto same =
      DiurnalProfile::canonical(SiteKind::kMixed).jittered(rng, 0.0);
  EXPECT_EQ(same.hourly(), DiurnalProfile::canonical(SiteKind::kMixed).hourly());
}

TEST(Diurnal, KindNames) {
  EXPECT_STREQ(site_kind_name(SiteKind::kOffice), "office");
  EXPECT_STREQ(site_kind_name(SiteKind::kTransport), "transport");
}

TrafficModel make_model(double peak_util = 0.8, std::uint64_t seed = 11) {
  CellSite site;
  site.cell_id = 0;
  site.peak_prb_utilization = peak_util;
  return TrafficModel(site, DiurnalProfile::flat(1.0), lte::CostModel{}, seed);
}

TEST(Traffic, DefaultMixSumsToOne) {
  double total = 0.0;
  for (const auto& c : default_service_mix()) total += c.weight;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Traffic, AllocationsRespectCellBandwidth) {
  auto model = make_model(0.95);
  for (int i = 0; i < 200; ++i) {
    const auto allocs = model.sample_subframe(12.0);
    int total = 0;
    for (const auto& a : allocs) {
      EXPECT_GE(a.n_prb, 1);
      EXPECT_GE(a.mcs, 0);
      EXPECT_LE(a.mcs, 28);
      EXPECT_GE(a.turbo_iterations, 2);
      EXPECT_LE(a.turbo_iterations, 8);
      total += a.n_prb;
    }
    EXPECT_LE(total, 100);
  }
}

TEST(Traffic, MeanUtilizationTracksTarget) {
  auto model = make_model(0.6, 23);
  double prbs = 0.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    for (const auto& a : model.sample_subframe(12.0)) prbs += a.n_prb;
  }
  // Clipping at the 100-PRB bandwidth pulls the realised mean below the
  // 60-PRB unclipped target (per-UE demands are large and variable), but
  // it must stay in the same regime and never exceed the target.
  EXPECT_GT(prbs / n, 45.0);
  EXPECT_LT(prbs / n, 62.0);
}

TEST(Traffic, UtilizationFollowsProfile) {
  CellSite site;
  site.peak_prb_utilization = 0.9;
  TrafficModel model(site, DiurnalProfile::canonical(SiteKind::kOffice),
                     lte::CostModel{}, 3);
  EXPECT_GT(model.expected_utilization(11.0), model.expected_utilization(3.0));
  EXPECT_NEAR(model.expected_utilization(10.0), 0.9 * 1.0, 1e-9);
}

TEST(Traffic, ExpectedGopsIsDeterministicAndPositive) {
  auto model = make_model(0.7, 31);
  const double a = model.expected_subframe_gops(12.0, 64);
  const double b = model.expected_subframe_gops(12.0, 64);
  EXPECT_DOUBLE_EQ(a, b);  // scratch RNG copies must not perturb state
  EXPECT_GT(a, 0.0);
  // Higher load costs more.
  auto quiet = make_model(0.1, 31);
  EXPECT_GT(a, quiet.expected_subframe_gops(12.0, 64));
}

TEST(Traffic, PeakBoundsExpected) {
  auto model = make_model(1.0, 37);
  EXPECT_GE(model.peak_subframe_gops(),
            model.expected_subframe_gops(12.0, 32));
}

TEST(Traffic, SamplingIsReproducibleAcrossInstances) {
  auto a = make_model(0.8, 77);
  auto b = make_model(0.8, 77);
  for (int i = 0; i < 10; ++i) {
    const auto x = a.sample_subframe(10.0);
    const auto y = b.sample_subframe(10.0);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t j = 0; j < x.size(); ++j) {
      EXPECT_EQ(x[j].n_prb, y[j].n_prb);
      EXPECT_EQ(x[j].mcs, y[j].mcs);
    }
  }
}

/// The traffic sampler written out from its definition: Rng draws in the
/// model's order, and every UE's CQI, MCS, PRBs and code rate computed
/// afresh from lte::cqi_at_distance, mcs_from_cqi, prbs_for_rate and mcs(),
/// the 512-draw calibration included. TrafficModel looks the same chain up
/// in tables and must match this draw for draw.
class ReferenceSampler {
 public:
  ReferenceSampler(const CellSite& site, const DiurnalProfile& profile,
                   std::uint64_t seed)
      : site_(site), profile_(profile), rng_(seed) {
    Rng calib(seed ^ 0x5ca1ab1eULL);
    double total = 0.0;
    for (int i = 0; i < 512; ++i) {
      const ServiceClass& service = pick_class(calib);
      const double dist = std::max(
          std::sqrt(calib.uniform()) * site_.radius_m, site_.min_distance_m);
      const int mcs =
          lte::mcs_from_cqi(std::max(1, lte::cqi_at_distance(dist)));
      total += lte::prbs_for_rate(service.rate_bps, mcs).count();
    }
    mean_prbs_per_ue_ = total / 512;
  }

  std::vector<lte::Allocation> sample(double hour) {
    return sample_with(hour, rng_);
  }

  double expected_gops(double hour, int samples) const {
    Rng draws(rng_);  // copy: leaves the sampling stream alone
    const lte::CostModel cost;
    double total = 0.0;
    for (int i = 0; i < samples; ++i)
      total += cost.subframe_cost(site_.config, sample_with(hour, draws),
                                  lte::Direction::kUplink)
                   .total();
    return total / static_cast<double>(samples);
  }

 private:
  static const ServiceClass& pick_class(Rng& rng) {
    const auto& mix = default_service_mix();
    double weight_total = 0.0;
    for (const auto& c : mix) weight_total += c.weight;
    double pick = rng.uniform() * weight_total;
    for (const auto& c : mix) {
      pick -= c.weight;
      if (pick < 0.0) return c;
    }
    return mix.back();
  }

  std::vector<lte::Allocation> sample_with(double hour, Rng& rng) const {
    const double target_prbs = site_.peak_prb_utilization * profile_.at(hour) *
                               static_cast<double>(site_.config.n_prb);
    const std::uint32_t ue_count = rng.poisson(target_prbs / mean_prbs_per_ue_);
    std::vector<lte::Allocation> allocs;
    int prbs_left = site_.config.n_prb;
    for (std::uint32_t u = 0; u < ue_count && prbs_left > 0; ++u) {
      const ServiceClass& service = pick_class(rng);
      const double dist = std::max(std::sqrt(rng.uniform()) * site_.radius_m,
                                   site_.min_distance_m);
      const int cqi = lte::cqi_at_distance(dist);
      if (cqi == 0) continue;
      const int mcs = lte::mcs_from_cqi(cqi);
      const int prbs = std::min(
          lte::prbs_for_rate(service.rate_bps, mcs).count(), prbs_left);
      if (prbs == 0) continue;
      const double mean = 3.0 + 4.0 * lte::mcs(mcs).code_rate;
      const int iterations = std::clamp(
          static_cast<int>(std::lround(rng.normal(mean, 0.8))),
          lte::kMinTurboIterations, lte::kMaxTurboIterations);
      allocs.push_back(lte::Allocation{prbs, mcs, iterations});
      prbs_left -= prbs;
    }
    return allocs;
  }

  CellSite site_;
  DiurnalProfile profile_;
  double mean_prbs_per_ue_ = 0.0;
  Rng rng_;
};

TEST(Traffic, TablesMatchTheLinkFunctionsDrawForDraw) {
  const SiteKind kinds[] = {SiteKind::kOffice, SiteKind::kResidential,
                            SiteKind::kMixed, SiteKind::kTransport};
  long ues = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    CellSite site;
    site.kind = kinds[seed % 4];
    // Every other cell reaches past the ~2 km coverage edge, so CQI 0 UEs
    // (skipped, and counted as CQI 1 by the calibration) occur too.
    site.radius_m = seed % 2 == 0 ? 800.0 : 2500.0;
    const auto profile = DiurnalProfile::canonical(site.kind);
    TrafficModel model(site, profile, lte::CostModel{}, seed);
    ReferenceSampler reference(site, profile, seed);
    const double night = 3.0;
    const double ramp = 8.5;
    const double peak = profile.peak_hour();
    for (const double hour : {night, ramp, peak}) {
      EXPECT_EQ(model.expected_subframe_gops(hour, 64),
                reference.expected_gops(hour, 64))
          << "seed " << seed << " hour " << hour;
      for (int tti = 0; tti < 1000; ++tti) {
        const auto got = model.sample_subframe(hour);
        const auto want = reference.sample(hour);
        ASSERT_EQ(got.size(), want.size())
            << "seed " << seed << " hour " << hour << " tti " << tti;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].n_prb, want[i].n_prb) << "seed " << seed;
          ASSERT_EQ(got[i].mcs, want[i].mcs) << "seed " << seed;
          ASSERT_EQ(got[i].turbo_iterations, want[i].turbo_iterations)
              << "seed " << seed;
        }
        ues += static_cast<long>(got.size());
      }
    }
  }
  EXPECT_GT(ues, 32 * 3 * 1000);  // more than one UE per TTI on average
}

TEST(Fleet, AssignsDistinctKindsAndSeeds) {
  const auto fleet = make_fleet(8, 99);
  ASSERT_EQ(fleet.cells.size(), 8u);
  EXPECT_EQ(fleet.cells[0].site().kind, SiteKind::kOffice);
  EXPECT_EQ(fleet.cells[1].site().kind, SiteKind::kResidential);
  EXPECT_EQ(fleet.cells[4].site().kind, SiteKind::kOffice);
  for (std::size_t i = 0; i < fleet.cells.size(); ++i)
    EXPECT_EQ(fleet.cells[i].site().cell_id, static_cast<int>(i));
}

TEST(Trace, FromFleetShapes) {
  const auto fleet = make_fleet(4, 5);
  const auto trace = DayTrace::from_fleet(fleet, 24, 8);
  EXPECT_EQ(trace.slots_per_day(), 24);
  ASSERT_EQ(trace.cells().size(), 4u);
  for (const auto& c : trace.cells()) {
    EXPECT_EQ(c.gops.size(), 24u);
    for (double g : c.gops) EXPECT_GE(g, 0.0);
  }
  EXPECT_DOUBLE_EQ(trace.hour_of_slot(12), 12.0);
  const int busiest = trace.busiest_slot();
  ASSERT_GE(busiest, 0);
  ASSERT_LT(busiest, 24);
  for (int s = 0; s < 24; ++s)
    EXPECT_LE(trace.total_gops(s), trace.total_gops(busiest));
}

TEST(Trace, CsvRoundTrip) {
  const auto fleet = make_fleet(3, 21);
  const auto trace = DayTrace::from_fleet(fleet, 12, 4);
  const auto restored = DayTrace::from_csv(trace.to_csv());
  EXPECT_EQ(restored.slots_per_day(), trace.slots_per_day());
  ASSERT_EQ(restored.cells().size(), trace.cells().size());
  for (std::size_t c = 0; c < trace.cells().size(); ++c) {
    EXPECT_EQ(restored.cells()[c].cell_id, trace.cells()[c].cell_id);
    EXPECT_EQ(restored.cells()[c].kind, trace.cells()[c].kind);
    for (int s = 0; s < 12; ++s)
      EXPECT_NEAR(restored.cells()[c].gops[static_cast<std::size_t>(s)],
                  trace.cells()[c].gops[static_cast<std::size_t>(s)], 1e-9);
  }
}

TEST(Trace, FromCsvRejectsGarbage) {
  EXPECT_THROW(DayTrace::from_csv(""), pran::ContractViolation);
  EXPECT_THROW(DayTrace::from_csv("a,b\n1,2\n"), pran::ContractViolation);
  const std::string header = "slot,hour,cell,kind,gops,utilization\n";
  // A negative slot, and a slot past the number of data rows (the slots
  // before it must be missing).
  EXPECT_THROW(DayTrace::from_csv(header + "-1,0,0,office,1,0.5\n"),
               pran::ContractViolation);
  EXPECT_THROW(DayTrace::from_csv(header + "0,0,0,office,1,0.5\n"
                                           "2,12,0,office,1,0.5\n"),
               pran::ContractViolation);
  // A misspelt kind is refused, not relabelled as mixed.
  EXPECT_THROW(DayTrace::from_csv(header + "0,0,0,offfice,1,0.5\n"),
               pran::ContractViolation);
  // The same rows with valid fields parse.
  const auto ok = DayTrace::from_csv(header + "0,0,0,office,1,0.5\n"
                                              "1,12,0,office,2,0.25\n");
  EXPECT_EQ(ok.slots_per_day(), 2);
  ASSERT_EQ(ok.cells().size(), 1u);
  EXPECT_EQ(ok.cells()[0].kind, SiteKind::kOffice);
}

}  // namespace
}  // namespace pran::workload
