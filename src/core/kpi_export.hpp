#pragma once

/// \file kpi_export.hpp
/// Publishes end-of-run deployment state into a telemetry registry, so
/// one `--metrics-out` snapshot carries the deployment KPIs, fault and
/// quarantine statistics, solver stats and executor utilisation next to
/// the hot-path counters and span histograms.

#include <string_view>

#include "core/deployment.hpp"
#include "telemetry/telemetry.hpp"

namespace pran::core {

/// Sets one gauge per DeploymentKpis field, named "<prefix><field>".
void export_kpis(const DeploymentKpis& kpis,
                 telemetry::MetricsRegistry& registry,
                 std::string_view prefix = "kpi.");

/// export_kpis() plus executor totals ("executor.*", including whole-run
/// utilisation per server as `executor.utilization{server=N}`), controller
/// solver stats ("solver.*") and, with the ladder on, per-rung dwell
/// (`compute.ladder_dwell_seconds{rung=N}`).
void export_deployment(const Deployment& deployment,
                       telemetry::MetricsRegistry& registry);

}  // namespace pran::core
