// perfbench: the PRAN benchmark harness. One process, one thread, one
// closed-loop caller. See perfbench/README.md for the workloads and the
// metric definitions; run through perfbench/run.py, which builds this
// binary in Release and passes the reference file.

#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "bench_guard.hpp"
#include "harness.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports each of them (untraced run).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},      {"op_ms_p95", "ms"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics: every workload reports each of them (traced run);
// a layer the workload never calls reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.events_per_job", "event/job"},
    {"sim.ns_per_event", "ns"},
    {"cluster.submit_ns", "ns"},
    {"cluster.stats_us", "us"},
    {"cluster.utilization_ms", "ms"},
    {"cluster.outcome_bytes_per_job", "B/job"},
    {"cluster.jobs", "count"},
    {"cluster.missed", "count"},
    {"cluster.dropped", "count"},
    {"cluster.compute_outages", "count"},
    {"workload.sample_ns", "ns"},
    {"workload.allocs_per_cell_tti", "alloc/cell-tti"},
    {"lte.uplink_job_ns", "ns"},
    {"lte.subframe_cost_ns", "ns"},
    {"lte.decode_model_ratio", "ratio"},
    {"core.pipeline_extra_gops_ns", "ns"},
    {"core.observe_ns", "ns"},
    {"core.replan_us", "us"},
    {"core.kpis_us", "us"},
    {"core.export_ms", "ms"},
    {"core.migrations_committed", "count"},
    {"core.harq_retransmissions", "count"},
    {"core.compute_outage_jobs", "count"},
    {"core.model_build_us", "us"},
    {"fronthaul.enqueue_ns", "ns"},
    {"fronthaul.bursts_lost", "count"},
    {"fronthaul.bursts_late", "count"},
    {"fronthaul.codec_ms", "ms"},
    {"fronthaul.fft_us", "us"},
    {"faults.impairment_apply_ns", "ns"},
    {"telemetry.snapshot_ms", "ms"},
    {"telemetry.timeline_sample_us", "us"},
    {"telemetry.series", "count"},
    {"telemetry.span_drop_ratio", "ratio"},
    {"coding.turbo_info_mbps", "Mbit/s"},
    {"coding.lane_occupancy", "ratio"},
    {"coding.viterbi_info_mbps", "Mbit/s"},
    {"coding.turbo_iterations_per_block", "iter/block"},
    {"coding.block_errors", "count"},
    {"lp.milp_ms", "ms"},
    {"lp.nodes", "count"},
    {"lp.pivots", "count"},
    {"lp.pivot_us", "us"},
    {"sim.self_share", "share"},
    {"cluster.self_share", "share"},
    {"workload.self_share", "share"},
    {"lte.self_share", "share"},
    {"core.self_share", "share"},
    {"fronthaul.self_share", "share"},
    {"faults.self_share", "share"},
    {"telemetry.self_share", "share"},
    {"coding.self_share", "share"},
    {"lp.self_share", "share"},
    {"bench.uncovered_share", "share"},
    {"bench.trace_overhead_share", "share"},
};

constexpr const char* kWorkloads[] = {"pool_steady", "pool_stressed",
                                      "uplink_rx", "placement_milp"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1"
               " [--refs FILE] [--record FILE] [--trace-out FILE]"
               " [--commit ID] [--smoke]\n"
               "       perfbench --selftest\n"
               "workloads: pool_steady pool_stressed uplink_rx "
               "placement_milp\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--selftest") {
      a.selftest = true;
    } else if (!next(v)) {
      return false;
    } else if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--refs") {
      a.refs = v;
    } else if (k == "--record") {
      a.record = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      return false;
    }
  }
  if (a.selftest) return true;
  for (const char* w : kWorkloads)
    if (a.workload == w) return a.seconds > 0.0;
  return false;
}

void print_result(const Args& args, Result& r) {
  using pran::json::Value;
  Value metrics = Value::object();
  auto emit = [&](const MetricSpec& m) {
    Value v = Value::object();
    v.set("value", Value(r.metrics[m.name]));
    v.set("unit", Value(m.unit));
    metrics.set(m.name, std::move(v));
  };
  if (args.trace)
    for (const MetricSpec& m : kPerLayer) emit(m);
  else
    for (const MetricSpec& m : kEndToEnd) emit(m);

  Value detail = Value::object();
  detail.set("workload", Value(args.workload));
  detail.set("seed", Value(static_cast<unsigned long long>(args.seed)));
  detail.set("trace", Value(args.trace));
  detail.set("context", perfbench::host_context(args.commit));
  detail.set("detail", r.detail);
  std::printf("%s\n", detail.dump().c_str());

  Value out = Value::object();
  out.set("correct", Value(r.failed == 0));
  out.set("attempted", Value(static_cast<unsigned long long>(r.attempted)));
  out.set("failed", Value(static_cast<unsigned long long>(r.failed)));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // The bench_guard.hpp rule, made strict: numbers from a non-Release build
  // are never recorded.
  if (pran::bench::warn_if_not_release()) return 3;
  Args args;
  if (!parse(argc, argv, args)) return usage();
  try {
    if (args.selftest) {
      const int pool = perfbench::selftest_pool();
      const int uplink = perfbench::selftest_uplink();
      std::printf("selftest: %s\n", pool == 0 && uplink == 0 ? "ok" : "FAILED");
      return pool == 0 && uplink == 0 ? 0 : 1;
    }
    Result r;
    if (args.workload == "uplink_rx")
      r = perfbench::run_uplink(args);
    else if (args.workload == "placement_milp")
      r = perfbench::run_placement(args);
    else
      r = perfbench::run_pool(args);
    if (r.attempted == 0) {
      std::fprintf(stderr, "perfbench: no operation was attempted\n");
      return 1;
    }
    print_result(args, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
