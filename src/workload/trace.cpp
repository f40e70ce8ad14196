#include "workload/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.hpp"
#include "common/csv.hpp"

namespace pran::workload {

DayTrace DayTrace::from_fleet(const Fleet& fleet, int slots_per_day,
                              int gops_samples) {
  PRAN_REQUIRE(slots_per_day >= 1, "need at least one slot per day");
  DayTrace trace;
  trace.slots_ = slots_per_day;
  trace.cells_.reserve(fleet.cells.size());
  for (const auto& cell : fleet.cells) {
    CellTrace ct;
    ct.cell_id = cell.site().cell_id;
    ct.kind = cell.site().kind;
    ct.gops.reserve(static_cast<std::size_t>(slots_per_day));
    ct.utilization.reserve(static_cast<std::size_t>(slots_per_day));
    for (int s = 0; s < slots_per_day; ++s) {
      const double hour = 24.0 * s / slots_per_day;
      ct.gops.push_back(cell.expected_subframe_gops(hour, gops_samples));
      ct.utilization.push_back(cell.expected_utilization(hour));
    }
    trace.cells_.push_back(std::move(ct));
  }
  return trace;
}

double DayTrace::hour_of_slot(int slot) const {
  PRAN_REQUIRE(slot >= 0 && slot < slots_, "slot outside the day");
  return 24.0 * slot / slots_;
}

double DayTrace::total_gops(int slot) const {
  PRAN_REQUIRE(slot >= 0 && slot < slots_, "slot outside the day");
  double sum = 0.0;
  for (const auto& c : cells_) sum += c.gops[static_cast<std::size_t>(slot)];
  return sum;
}

int DayTrace::busiest_slot() const {
  PRAN_REQUIRE(slots_ > 0, "trace is empty");
  int best = 0;
  for (int s = 1; s < slots_; ++s)
    if (total_gops(s) > total_gops(best)) best = s;
  return best;
}

std::string DayTrace::to_csv() const {
  std::vector<CsvRow> rows;
  rows.push_back({"slot", "hour", "cell", "kind", "gops", "utilization"});
  for (const auto& c : cells_) {
    for (int s = 0; s < slots_; ++s) {
      std::ostringstream g, u, h;
      g.precision(17);  // round-trip exact doubles
      u.precision(17);
      h.precision(17);
      g << c.gops[static_cast<std::size_t>(s)];
      u << c.utilization[static_cast<std::size_t>(s)];
      h << hour_of_slot(s);
      rows.push_back({std::to_string(s), h.str(), std::to_string(c.cell_id),
                      site_kind_name(c.kind), g.str(), u.str()});
    }
  }
  return write_csv(rows);
}

DayTrace DayTrace::from_csv(const std::string& csv) {
  const auto rows = parse_csv(csv);
  PRAN_REQUIRE(rows.size() >= 2, "trace CSV has no data rows");
  PRAN_REQUIRE(rows.front().size() == 6, "trace CSV header mismatch");

  const SiteKind kinds[] = {SiteKind::kOffice, SiteKind::kResidential,
                            SiteKind::kMixed, SiteKind::kTransport};
  std::map<int, CellTrace> by_cell;
  int max_slot = -1;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& r = rows[i];
    PRAN_REQUIRE(r.size() == 6, "trace CSV row width mismatch");
    const int slot = std::stoi(r[0]);
    // Every slot needs at least one row, so a slot at or past the number of
    // data rows can only mean missing slots.
    PRAN_REQUIRE(slot >= 0 && static_cast<std::size_t>(slot) < rows.size() - 1,
                 "trace CSV slot outside [0, number of data rows)");
    const int cell = std::stoi(r[2]);
    const auto* kind =
        std::find_if(std::begin(kinds), std::end(kinds),
                     [&](SiteKind k) { return r[3] == site_kind_name(k); });
    PRAN_REQUIRE(kind != std::end(kinds), "trace CSV has an unknown site kind");
    max_slot = std::max(max_slot, slot);
    auto& ct = by_cell[cell];
    ct.cell_id = cell;
    ct.kind = *kind;
    if (static_cast<std::size_t>(slot) >= ct.gops.size()) {
      ct.gops.resize(static_cast<std::size_t>(slot) + 1, 0.0);
      ct.utilization.resize(static_cast<std::size_t>(slot) + 1, 0.0);
    }
    ct.gops[static_cast<std::size_t>(slot)] = std::stod(r[4]);
    ct.utilization[static_cast<std::size_t>(slot)] = std::stod(r[5]);
  }

  DayTrace trace;
  trace.slots_ = max_slot + 1;
  for (auto& [id, ct] : by_cell) {
    PRAN_REQUIRE(static_cast<int>(ct.gops.size()) == trace.slots_,
                 "trace CSV has missing slots for a cell");
    trace.cells_.push_back(std::move(ct));
  }
  return trace;
}

}  // namespace pran::workload
