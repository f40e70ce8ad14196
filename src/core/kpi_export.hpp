#pragma once

/// \file kpi_export.hpp
/// Publishes a deployment's end-of-run state into an export registry, so
/// one `--metrics-out` snapshot carries the run's counters and histograms
/// (merged from `Deployment::metrics()`), its KPIs, epoch count and
/// executor utilisation next to the span histograms.

#include "core/deployment.hpp"
#include "telemetry/telemetry.hpp"

namespace pran::core {

/// Sets one `kpi.<name>` gauge per PRAN_DEPLOYMENT_KPIS entry: every
/// DeploymentKpis field but the host-time `mean_plan_seconds`. A
/// deployment also calls it on its own registry at every timeline window,
/// so a window (and any post-mortem it triggers) carries live KPI values.
void export_kpis(const DeploymentKpis& kpis,
                 telemetry::MetricsRegistry& registry);

/// Merges `deployment.metrics()` into `registry`, then publishes the run's
/// `kpi.*` view (export_kpis), executor busy time and whole-run
/// utilisation per server (`executor.utilization{server=N}`), the
/// controller's report count (`solver.epochs`) and, with the ladder on,
/// per-rung dwell (`compute.ladder_dwell_seconds{rung=N}`). Sweeps call it
/// for the run they export and merge the others' snapshots. Host time is
/// left to the `span_us.*` histograms.
void export_deployment(const Deployment& deployment,
                       telemetry::MetricsRegistry& registry);

}  // namespace pran::core
