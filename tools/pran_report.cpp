// pran-report — render a telemetry snapshot as human-readable tables.
//
//   $ pran-sim --cells 8 --seconds 2 --metrics-out metrics.csv
//   $ pran-report --in metrics.csv
//   $ pran-report --in metrics.csv --prefix kpi.       # KPIs only
//   $ pran-report --in metrics.csv --format csv        # machine-readable
//   $ pran-report --in metrics.csv --slo               # SLO verdicts
//   $ pran-report --timeline run.jsonl                 # windowed series
//
// Consumes the CSV snapshot form written by --metrics-out (the JSON form
// carries the same data for external tooling) and the JSONL timeline
// written by --timeline-out. Counters and gauges print as name/value
// tables; histograms print count, mean and tail quantiles computed on the
// registry's one log-linear bucket layout (within 6.25% above the exact
// quantile).
//
// Curated sections (--fronthaul, --compute, --slo) are dispatched from
// one table; each prints its operator view before the full dump. Unknown
// flags and unreadable input files exit non-zero (2).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "telemetry/family.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace pran;

bool has_prefix(const std::string& name, const std::string& prefix) {
  return prefix.empty() || name.rfind(prefix, 0) == 0;
}

/// Everything a section renderer needs: the parsed snapshot plus the
/// output conventions (--format, --prefix) shared by every section.
struct ReportContext {
  const telemetry::MetricsSnapshot& snapshot;
  bool csv = false;
  std::string prefix;

  void print(const Table& table, const char* title) const {
    if (csv) {
      std::printf("%s", table.to_csv().c_str());
      return;
    }
    std::printf("%s\n%s\n", title, table.render().c_str());
  }
  long long counter_value(const std::string& name) const {
    for (const auto& c : snapshot.counters)
      if (c.name == name) return static_cast<long long>(c.value);
    return 0;
  }
  double gauge_value(const std::string& name, double fallback = 0.0) const {
    for (const auto& g : snapshot.gauges)
      if (g.name == name) return g.value;
    return fallback;
  }
};

// --- curated sections ------------------------------------------------------

/// Impairment + degradation-ladder counters: the numbers an operator
/// checks first when the fibre is suspected.
void render_fronthaul(const ReportContext& ctx) {
  Table fronthaul({"fronthaul", "value"});
  fronthaul.row().cell("lost_bursts").cell(
      ctx.counter_value("fronthaul.lost_bursts"));
  fronthaul.row().cell("late_bursts").cell(
      ctx.counter_value("fronthaul.late_bursts"));
  fronthaul.row().cell("shed_subframes").cell(
      ctx.counter_value("fronthaul.shed_subframes"));
  fronthaul.row().cell("compression_tb_failures").cell(
      ctx.counter_value("fronthaul.compression_tb_failures"));
  fronthaul.row().cell("ladder_transitions").cell(
      ctx.counter_value("fronthaul.ladder_transitions"));
  fronthaul.row().cell("ladder_rung").cell(
      static_cast<long long>(ctx.gauge_value("fronthaul.ladder_rung")));
  ctx.print(fronthaul, "fronthaul health");
}

/// Compute-overload subsystem: outage taxonomy, how hard the effort caps
/// are biting, and where the ladder spent its time. The first numbers to
/// check when the pool rather than the fibre is the suspected bottleneck.
void render_compute(const ReportContext& ctx) {
  Table compute({"compute", "value"});
  compute.row().cell("outage_jobs").cell(
      ctx.counter_value("compute.outage_jobs"));
  compute.row().cell("outage_tbs").cell(
      ctx.counter_value("compute.outage_tbs"));
  compute.row().cell("outage_ratio").cell(
      ctx.gauge_value("kpi.compute_outage_ratio"), 6);
  compute.row().cell("effort_capped_tbs").cell(
      ctx.counter_value("compute.capped_tbs"));
  compute.row().cell("mcs_capped_allocs").cell(
      ctx.counter_value("compute.mcs_capped_allocs"));
  compute.row().cell("iterations_needed").cell(
      ctx.gauge_value("kpi.decode_iterations_needed"), 0);
  compute.row().cell("iterations_realized").cell(
      ctx.gauge_value("kpi.decode_iterations_realized"), 0);
  compute.row().cell("peak_pressure_ttis").cell(
      ctx.gauge_value("kpi.peak_compute_pressure"), 3);
  compute.row().cell("ladder_effort_cap").cell(
      ctx.gauge_value("compute.ladder_effort_cap"), 0);
  ctx.print(compute, "compute overload");

  // Realized-vs-budgeted iteration distributions (per-TB means, one
  // observation per submitted subframe job).
  Table iters({"iterations", "count", "mean", "p50", "p95", "p99"});
  std::size_t iter_rows = 0;
  for (const auto& h : ctx.snapshot.histograms) {
    if (h.name != "compute.iterations_needed" &&
        h.name != "compute.iterations_realized")
      continue;
    if (h.total() == 0) continue;
    iters.row()
        .cell(h.name)
        .cell(static_cast<long long>(h.total()))
        .cell(h.mean(), 3)
        .cell(h.quantile(0.50), 3)
        .cell(h.quantile(0.95), 3)
        .cell(h.quantile(0.99), 3);
    ++iter_rows;
  }
  if (iter_rows > 0) ctx.print(iters, "decode effort (iterations per TB)");

  // Per-rung dwell time, exported as the compute.ladder_dwell_seconds
  // {rung=N} gauge family by the KPI snapshot.
  Table dwell({"rung", "dwell_seconds"});
  std::size_t dwell_rows = 0;
  telemetry::ParsedSeries series;
  for (const auto& g : ctx.snapshot.gauges) {
    if (!telemetry::parse_series_name(g.name, series) ||
        series.base != "compute.ladder_dwell_seconds")
      continue;
    dwell.row().cell(series.value).cell(g.value, 3);
    ++dwell_rows;
  }
  if (dwell_rows > 0) ctx.print(dwell, "ladder dwell");
}

/// SLO verdicts reconstructed from the slo.* metrics the SloEngine
/// exports: per-objective run rate, budget consumption, burn gauges at
/// snapshot time, trip count, and a verdict. TRIPPED means a burn-rate
/// alert fired at least once during the run; VIOLATED means the
/// whole-run rate itself ended above the objective.
void render_slo(const ReportContext& ctx) {
  std::vector<std::string> names;
  const std::string prefix = "slo.";
  const std::string key = ".objective";
  for (const auto& g : ctx.snapshot.gauges) {
    if (g.name.rfind(prefix, 0) != 0) continue;
    if (g.name.size() <= prefix.size() + key.size()) continue;
    if (g.name.compare(g.name.size() - key.size(), key.size(), key) != 0)
      continue;
    names.push_back(g.name.substr(
        prefix.size(), g.name.size() - prefix.size() - key.size()));
  }
  if (names.empty()) {
    std::printf("no slo.* metrics in snapshot (run with the timeline/SLO "
                "engine enabled)\n\n");
    return;
  }
  Table table({"slo", "objective", "run_rate", "budget", "burn_s", "burn_l",
               "trips", "verdict"});
  for (const auto& name : names) {
    const std::string p = prefix + name + ".";
    const double objective = ctx.gauge_value(p + "objective");
    const double run_rate = ctx.gauge_value(p + "run_rate");
    const long long trips = ctx.counter_value(p + "trips");
    const char* verdict = "OK";
    if (run_rate > objective)
      verdict = "VIOLATED";
    else if (trips > 0)
      verdict = "TRIPPED";
    table.row()
        .cell(name)
        .cell(objective, 6)
        .cell(run_rate, 6)
        .cell(ctx.gauge_value(p + "budget_consumed"), 3)
        .cell(ctx.gauge_value(p + "burn_short"), 2)
        .cell(ctx.gauge_value(p + "burn_long"), 2)
        .cell(trips)
        .cell(verdict);
  }
  ctx.print(table, "slo verdicts");
}

/// Cell-handoff protocol health: outcome taxonomy for every migration the
/// controller planned, the control-plane retry/staleness pressure, and
/// the two hard invariants (dual executions and orphaned cells must both
/// be zero — a nonzero value here is a protocol bug, not an operating
/// condition).
void render_migration(const ReportContext& ctx) {
  Table outcomes({"migration", "value"});
  outcomes.row().cell("started").cell(ctx.counter_value("migration.started"));
  outcomes.row().cell("committed").cell(
      ctx.counter_value("migration.committed"));
  outcomes.row().cell("aborted").cell(ctx.counter_value("migration.aborted"));
  outcomes.row().cell("rolled_back").cell(
      ctx.counter_value("migration.rolled_back"));
  outcomes.row().cell("taken_over").cell(
      ctx.counter_value("migration.taken_over"));
  outcomes.row().cell("deferred").cell(
      ctx.counter_value("migration.deferred"));
  outcomes.row().cell("deadline_expired").cell(
      ctx.counter_value("migration.deadline_expired"));
  ctx.print(outcomes, "migration outcomes");

  Table control({"control_plane", "value"});
  control.row().cell("retries").cell(ctx.counter_value("migration.retried"));
  control.row().cell("retry_exhaustions").cell(
      ctx.counter_value("migration.retry_exhausted"));
  control.row().cell("stale_messages").cell(
      ctx.counter_value("migration.stale_messages"));
  control.row().cell("blackout_ttis").cell(
      ctx.counter_value("migration.blackout_ttis"));
  control.row().cell("mean_handoff_latency_ms").cell(
      ctx.gauge_value("kpi.mean_handoff_latency_ms"), 3);
  ctx.print(control, "migration control plane");

  // Handoff latency digest straight from the protocol's histogram (one
  // observation per committed or taken-over handoff).
  Table latency({"histogram", "count", "mean", "p50", "p95", "p99"});
  for (const auto& h : ctx.snapshot.histograms) {
    if (h.name != "migration.handoff_latency_ms" || h.total() == 0) continue;
    latency.row()
        .cell(h.name)
        .cell(static_cast<long long>(h.total()))
        .cell(h.mean(), 3)
        .cell(h.quantile(0.50), 3)
        .cell(h.quantile(0.95), 3)
        .cell(h.quantile(0.99), 3);
    ctx.print(latency, "handoff latency");
  }

  const long long dual = ctx.counter_value("migration.dual_execution");
  const long long dual_kpi =
      static_cast<long long>(ctx.gauge_value("kpi.migration_dual_executions"));
  Table invariants({"invariant", "value", "verdict"});
  invariants.row()
      .cell("dual_executions")
      .cell(std::max(dual, dual_kpi))
      .cell(std::max(dual, dual_kpi) == 0 ? "OK" : "VIOLATED");
  ctx.print(invariants, "migration invariants");
}

/// The section-dispatch table: one row per curated view. Adding a
/// section means adding a flag + renderer pair here; main() owns no
/// per-section logic.
struct Section {
  const char* flag;
  const char* help;
  void (*render)(const ReportContext&);
};

constexpr Section kSections[] = {
    {"fronthaul",
     "print the fronthaul health summary (loss/late/shed counters + "
     "degradation-ladder rung) before the full dump",
     render_fronthaul},
    {"compute",
     "print the compute overload summary (computational-outage rate, "
     "realized-vs-budgeted iteration histograms, per-rung dwell) before "
     "the full dump",
     render_compute},
    {"slo",
     "print the SLO verdict table (objective, run rate, error-budget "
     "consumption, burn-rate trips) before the full dump",
     render_slo},
    {"migration",
     "print the cell-handoff summary (migration outcome taxonomy, "
     "control-plane retry pressure, handoff-latency digest, "
     "dual-execution invariant) before the full dump",
     render_migration},
};

// --- timeline (JSONL) summary ----------------------------------------------

/// Summarises a --timeline-out JSONL stream: window count and span, plus
/// per-counter totals and per-window peaks aggregated across windows.
/// Returns false (exit 2) if the file is unreadable or malformed.
bool render_timeline(const std::string& path, bool csv,
                     const std::string& prefix) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return false;
  }
  struct Agg {
    double total = 0.0;
    double peak = 0.0;
    std::size_t windows = 0;
  };
  std::map<std::string, Agg> counters;
  std::size_t windows = 0;
  double t_start = 0.0, t_end = 0.0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::Value window;
    try {
      window = json::Value::parse(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), line_no, e.what());
      return false;
    }
    if (windows == 0 && window.find("t_start_ms") != nullptr)
      t_start = window.at("t_start_ms").as_number();
    if (window.find("t_end_ms") != nullptr)
      t_end = window.at("t_end_ms").as_number();
    ++windows;
    if (const json::Value* deltas = window.find("counters")) {
      for (const auto& [name, value] : deltas->members()) {
        Agg& agg = counters[name];
        agg.total += value.as_number();
        agg.peak = std::max(agg.peak, value.as_number());
        ++agg.windows;
      }
    }
  }
  if (windows == 0) {
    std::fprintf(stderr, "no timeline windows in '%s'\n", path.c_str());
    return false;
  }
  std::printf("timeline: %zu windows, %.1f ms .. %.1f ms\n\n", windows,
              t_start, t_end);
  Table table({"counter", "total", "peak_per_window", "active_windows"});
  std::size_t rows = 0;
  for (const auto& [name, agg] : counters) {
    if (!has_prefix(name, prefix)) continue;
    table.row()
        .cell(name)
        .cell(agg.total, 0)
        .cell(agg.peak, 0)
        .cell(static_cast<long long>(agg.windows));
    ++rows;
  }
  if (rows > 0) {
    if (csv)
      std::printf("%s", table.to_csv().c_str());
    else
      std::printf("timeline counters (deltas summed over windows)\n%s\n",
                  table.render().c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("pran_report", "render a telemetry metrics snapshot");
  flags.add_string("in", "", "snapshot file written by --metrics-out (.csv)");
  flags.add_string("prefix", "",
                   "only show metrics whose name starts with this");
  flags.add_string("format", "text", "output: text | csv");
  flags.add_string("timeline", "",
                   "summarise a JSONL timeline written by --timeline-out "
                   "(window count/span + per-counter totals)");
  for (const auto& section : kSections)
    flags.add_bool(section.flag, false, section.help);
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }
  const std::string path = flags.get_string("in");
  const std::string timeline_path = flags.get_string("timeline");
  const std::string prefix = flags.get_string("prefix");
  const bool csv = flags.get_string("format") == "csv";

  if (!timeline_path.empty()) {
    if (!render_timeline(timeline_path, csv, prefix)) return 2;
    if (path.empty()) return 0;  // timeline-only invocation
  }
  if (path.empty()) {
    std::fprintf(stderr, "--in is required\n%s", flags.usage().c_str());
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  telemetry::MetricsSnapshot snapshot;
  try {
    snapshot = telemetry::MetricsSnapshot::from_csv(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot parse '%s': %s\n", path.c_str(), e.what());
    return 2;
  }

  const ReportContext ctx{snapshot, csv, prefix};
  for (const auto& section : kSections)
    if (flags.get_bool(section.flag)) section.render(ctx);

  Table counters({"counter", "value"});
  std::size_t counter_rows = 0;
  for (const auto& c : snapshot.counters) {
    if (!has_prefix(c.name, prefix)) continue;
    counters.row().cell(c.name).cell(static_cast<long long>(c.value));
    ++counter_rows;
  }
  if (counter_rows > 0) ctx.print(counters, "counters");

  Table gauges({"gauge", "value"});
  std::size_t gauge_rows = 0;
  for (const auto& g : snapshot.gauges) {
    if (!has_prefix(g.name, prefix)) continue;
    gauges.row().cell(g.name).cell(g.value, 6);
    ++gauge_rows;
  }
  if (gauge_rows > 0) ctx.print(gauges, "gauges");

  Table histograms(
      {"histogram", "count", "mean", "p50", "p95", "p99", "overflow"});
  std::size_t histogram_rows = 0;
  for (const auto& h : snapshot.histograms) {
    if (!has_prefix(h.name, prefix)) continue;
    if (h.total() == 0) continue;
    histograms.row()
        .cell(h.name)
        .cell(static_cast<long long>(h.total()))
        .cell(h.mean(), 3)
        .cell(h.quantile(0.50), 3)
        .cell(h.quantile(0.95), 3)
        .cell(h.quantile(0.99), 3)
        .cell(static_cast<long long>(h.overflow));
    ++histogram_rows;
  }
  if (histogram_rows > 0) ctx.print(histograms, "histograms");

  if (counter_rows + gauge_rows + histogram_rows == 0) {
    std::printf("no metrics%s in %s\n",
                prefix.empty() ? "" : (" with prefix '" + prefix + "'").c_str(),
                path.c_str());
  }
  return 0;
}
