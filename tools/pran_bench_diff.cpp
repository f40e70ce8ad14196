// pran-bench-diff — compare two benchmark/metrics snapshots metric by
// metric and gate on regressions.
//
//   $ pran-bench-diff BENCH_e21.json fresh_e21.json --threshold 0.02
//   $ pran-bench-diff BENCH_e17.json fresh_e17.json            # report only
//
// Accepts three snapshot shapes and auto-detects each side:
//   - google-benchmark JSON (--benchmark_out): every entry flattens to
//     <name>.real_time / <name>.cpu_time plus its user counters;
//   - telemetry snapshot JSON (--metrics-out *.json): counters and
//     gauges flatten by name, histograms to .count/.mean/.p50/.p95/.p99;
//   - telemetry snapshot CSV (--metrics-out *.csv).
//
// With --threshold T > 0 the exit code is 1 when any compared metric
// drifts by more than T relative to the baseline, or when a baseline
// metric disappeared; with the default threshold 0 the tool only
// reports. Wall-clock metrics (the span histograms and google-benchmark
// times) are ignored by default — the sim counters are deterministic per
// seed, the clock is not — extend the list with --ignore or disable it
// with --no-default-ignore.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace pran;

/// Substrings of metric names that are wall-clock measurements: real on
/// every run, comparable on none. Everything else (simulated busy time and
/// detection latency included) is deterministic per seed, so it gates.
const char* const kDefaultIgnore[] = {
    "span_us.", "spans.", "real_time", "cpu_time",
};

using Flat = std::map<std::string, double>;

void flatten_histogram(const telemetry::MetricsSnapshot::HistogramValue& h,
                       Flat& out) {
  out[h.name + ".count"] = static_cast<double>(h.total());
  if (h.total() == 0) return;
  out[h.name + ".mean"] = h.mean();
  out[h.name + ".p50"] = h.quantile(0.50);
  out[h.name + ".p95"] = h.quantile(0.95);
  out[h.name + ".p99"] = h.quantile(0.99);
}

void flatten_snapshot(const telemetry::MetricsSnapshot& snapshot, Flat& out) {
  for (const auto& c : snapshot.counters)
    out[c.name] = static_cast<double>(c.value);
  for (const auto& g : snapshot.gauges) out[g.name] = g.value;
  for (const auto& h : snapshot.histograms) flatten_histogram(h, out);
}

void flatten_google_benchmark(const json::Value& doc, Flat& out) {
  // Bookkeeping members every entry carries; not measurements.
  auto skip = [](const std::string& key) {
    return key == "iterations" || key == "threads" || key == "repetitions" ||
           key == "repetition_index" || key == "family_index" ||
           key == "per_family_instance_index";
  };
  for (const auto& bench : doc.at("benchmarks").items()) {
    const std::string name = bench.at("name").as_string();
    for (const auto& [key, value] : bench.members()) {
      if (!value.is_number() || skip(key)) continue;
      out[name + "." + key] = value.as_number();
    }
  }
}

bool load_flat(const std::string& path, Flat& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = trim(buffer.str());
  try {
    if (!text.empty() && text.front() == '{') {
      const json::Value doc = json::Value::parse(text);
      if (doc.find("benchmarks") != nullptr)
        flatten_google_benchmark(doc, out);
      else
        flatten_snapshot(telemetry::MetricsSnapshot::from_json(text), out);
    } else {
      flatten_snapshot(telemetry::MetricsSnapshot::from_csv(text), out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot parse '%s': %s\n", path.c_str(), e.what());
    return false;
  }
  if (out.empty()) {
    std::fprintf(stderr, "no metrics in '%s'\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("pran_bench_diff",
              "compare two benchmark/metrics snapshots: pran-bench-diff "
              "<baseline> <current> [--threshold T]");
  flags.add_double("threshold", 0.0,
                   "fail (exit 1) when any metric drifts by more than this "
                   "relative fraction, or a baseline metric disappears "
                   "(0 = report only)");
  flags.add_string("ignore", "",
                   "comma-separated extra name substrings to skip");
  flags.add_bool("no-default-ignore", false,
                 "compare wall-clock metrics too (span/solve/plan times, "
                 "real_time/cpu_time)");
  flags.add_bool("all", false,
                 "list unchanged and ignored metrics as well");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }
  if (flags.positional().size() != 2) {
    std::fprintf(stderr, "expected exactly two snapshot files\n%s",
                 flags.usage().c_str());
    return 2;
  }

  std::vector<std::string> ignore;
  if (!flags.get_bool("no-default-ignore"))
    ignore.assign(std::begin(kDefaultIgnore), std::end(kDefaultIgnore));
  for (const auto& extra : split(flags.get_string("ignore"), ','))
    if (!trim(extra).empty()) ignore.push_back(trim(extra));
  auto ignored = [&](const std::string& name) {
    for (const auto& substr : ignore)
      if (name.find(substr) != std::string::npos) return true;
    return false;
  };

  Flat baseline, current;
  if (!load_flat(flags.positional()[0], baseline)) return 2;
  if (!load_flat(flags.positional()[1], current)) return 2;

  const double threshold = flags.get_double("threshold");
  const bool all = flags.get_bool("all");
  Table table({"metric", "baseline", "current", "rel_delta", "status"});
  std::size_t compared = 0, ignored_n = 0, missing = 0, over = 0, added = 0;
  for (const auto& [name, base] : baseline) {
    if (ignored(name)) {
      ++ignored_n;
      if (all) table.row().cell(name).cell(base, 6).cell("-").cell("-").cell(
          "ignored");
      continue;
    }
    const auto it = current.find(name);
    if (it == current.end()) {
      ++missing;
      table.row().cell(name).cell(base, 6).cell("-").cell("-").cell(
          "MISSING");
      continue;
    }
    ++compared;
    const double cur = it->second;
    double rel = 0.0;
    if (base != 0.0)
      rel = (cur - base) / std::fabs(base);
    else if (cur != 0.0)
      rel = std::numeric_limits<double>::infinity();
    const bool regressed = threshold > 0.0 && std::fabs(rel) > threshold;
    if (regressed) ++over;
    if (regressed || (rel != 0.0 && (all || threshold == 0.0)) || all)
      table.row()
          .cell(name)
          .cell(base, 6)
          .cell(cur, 6)
          .cell(rel, 6)
          .cell(regressed ? "OVER" : (rel == 0.0 ? "same" : "drift"));
  }
  for (const auto& [name, cur] : current) {
    if (baseline.count(name) != 0) continue;
    if (ignored(name)) continue;
    ++added;
    if (all)
      table.row().cell(name).cell("-").cell(cur, 6).cell("-").cell("added");
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\ncompared %zu metrics: %zu over threshold %.4f, %zu missing from "
      "current, %zu added, %zu ignored\n",
      compared, over, threshold, missing, added, ignored_n);
  if (threshold > 0.0 && (over > 0 || missing > 0)) return 1;
  return 0;
}
