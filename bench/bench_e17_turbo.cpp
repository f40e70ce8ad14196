// E17 — Turbo decoding: the iteration economy behind the cost model.
//
// The PHY cost model charges per decoder iteration and assumes iteration
// counts rise with code rate / fall with SNR margin. This bench grounds
// both halves with the real iterative decoder:
//   (a) BLER vs Es/N0 for iteration budgets 1/2/4/8 — iterations buy dB;
//   (b) iterations-to-converge (genie/CRC-gated early exit) vs SNR — at
//       operating SNR most blocks converge in 1-2 iterations, so
//       early-termination saves most of the worst-case compute;
//   (c) measured per-iteration decode time (google-benchmark), plus
//       per-ISA (scalar/avx2) and per-batch-width variants of the
//       SIMD decode path, registered only for ISAs this CPU supports.
//       The acceptance bar is best-vectorized batched info_kbps >= 2x the
//       scalar baseline at batch width >= 4 (tracked in EXPERIMENTS.md).
//
// The Monte-Carlo sweeps (a)/(b) fan trials across a thread pool
// (--threads N, default: hardware); every trial draws from an
// index-derived RNG substream, so the tables are identical for any thread
// count. (c) stays single-threaded: it is the per-core kernel-time number
// the cost model consumes. Pass --benchmark_out=BENCH_e17.json
// --benchmark_out_format=json to snapshot all of (c), every ISA and batch
// width included, for trend tracking (capture protocol: EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "telemetry/timeseries.hpp"

#include "bench_guard.hpp"
#include "coding/awgn.hpp"
#include "coding/simd/dispatch.hpp"
#include "coding/turbo.hpp"
#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

using namespace pran;
using namespace pran::coding;

Bits random_bits(std::size_t n, Rng& rng) {
  Bits out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(rng.bernoulli(0.5) ? 1 : 0);
  return out;
}

/// One self-contained trial: trial_rng drives payload and noise, so the
/// outcome depends only on the substream, not on scheduling.
bool decode_trial(std::size_t k, double esn0, int iters, Rng trial_rng) {
  const Bits info = random_bits(k, trial_rng);
  const Llrs llrs = transmit_bpsk(turbo_encode(info), units::Db{esn0}, trial_rng);
  return turbo_decode(llrs, k, iters).info == info;
}

void print_tables(ThreadPool& pool) {
  const std::size_t k = 512;
  const int trials = 60;
  Rng rng(77);
  const auto sweep_start = std::chrono::steady_clock::now();

  std::printf(
      "E17a: turbo BLER vs Es/N0 by iteration budget (K=%zu, rate ~1/3, "
      "%d blocks per point, %u threads)\n\n",
      k, trials, pool.size());
  Table bler({"esn0_db", "iter1", "iter2", "iter4", "iter8"});
  for (double esn0 = -6.0; esn0 <= -2.99; esn0 += 0.5) {
    bler.row().cell(esn0, 1);
    for (int iters : {1, 2, 4, 8}) {
      const Rng base = rng.fork();
      std::vector<std::uint8_t> failed(trials, 0);
      pool.for_each(static_cast<std::size_t>(trials),
                    [&](unsigned, std::size_t t) {
                      failed[t] = !decode_trial(k, esn0, iters, base.stream(t));
                    });
      int errors = 0;
      for (std::uint8_t f : failed) errors += f;
      bler.cell(static_cast<double>(errors) / trials, 3);
    }
  }
  std::printf("%s\n", bler.render().c_str());

  std::printf(
      "E17b: iterations to converge with early termination (budget 8)\n\n");
  Table iters({"esn0_db", "mean_iters", "p90_iters", "converged_pct",
               "compute_saved_pct"});
  for (double esn0 : {-5.0, -4.5, -4.0, -3.0, -2.0, 0.0}) {
    const Rng base = rng.fork();
    std::vector<int> used_by_trial(trials, 0);
    std::vector<std::uint8_t> converged_by_trial(trials, 0);
    pool.for_each(static_cast<std::size_t>(trials),
                  [&](unsigned, std::size_t t) {
                    Rng trial_rng = base.stream(t);
                    const Bits info = random_bits(k, trial_rng);
                    const Llrs llrs =
                        transmit_bpsk(turbo_encode(info), units::Db{esn0}, trial_rng);
                    const auto result = turbo_decode(
                        llrs, k, 8,
                        [&](const Bits& hard) { return hard == info; });
                    used_by_trial[t] = result.iterations;
                    converged_by_trial[t] = result.converged ? 1 : 0;
                  });
    Samples used;
    int converged = 0;
    for (int t = 0; t < trials; ++t) {
      used.add(used_by_trial[static_cast<std::size_t>(t)]);
      converged += converged_by_trial[static_cast<std::size_t>(t)];
    }
    iters.row()
        .cell(esn0, 1)
        .cell(used.mean(), 2)
        .cell(used.quantile(0.9), 1)
        .cell(100.0 * converged / trials, 1)
        .cell(100.0 * (1.0 - used.mean() / 8.0), 1);
  }
  std::printf("%s\n", iters.render().c_str());
  const double sweep_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - sweep_start)
                             .count();
  std::printf(
      "reading: iterations trade directly against SNR margin; above the "
      "cliff early termination recovers >70%% of the worst-case decode "
      "compute — the distribution the traffic model samples from\n");
  std::printf("sweep wall-clock: %.2f s on %u threads\n\n", sweep_s,
              pool.size());
}

void BM_TurboDecodeIteration(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const int iters = static_cast<int>(state.range(1));
  Rng rng(9);
  const Bits info = random_bits(k, rng);
  const Llrs llrs = transmit_bpsk(turbo_encode(info), units::Db{-3.0}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(turbo_decode(llrs, k, iters));
  }
  state.counters["info_kbps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(k) / 1e3,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TurboDecodeIteration)
    ->Args({512, 1})
    ->Args({512, 4})
    ->Args({512, 8})
    ->Args({1024, 1})
    ->Args({1024, 8})
    ->Args({4096, 4});

/// RAII pin so a thrown/early-exited benchmark never leaves the process on
/// a forced ISA.
class ScopedIsa {
 public:
  explicit ScopedIsa(simd::Isa isa) { simd::force_isa(isa); }
  ~ScopedIsa() { simd::reset_forced_isa(); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;
};

/// Single-block decode pinned to one ISA tier — isolates the state-axis
/// (8 trellis states per vector) speedup. Args: {k, iters}.
void BM_TurboDecodeSingle(benchmark::State& state, simd::Isa isa) {
  const ScopedIsa pin(isa);
  const auto k = static_cast<std::size_t>(state.range(0));
  const int iters = static_cast<int>(state.range(1));
  Rng rng(9);
  const Bits info = random_bits(k, rng);
  const Llrs llrs = transmit_bpsk(turbo_encode(info), units::Db{-3.0}, rng);
  TurboDecoder decoder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(llrs, k, iters));
  }
  state.counters["info_kbps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(k) / 1e3,
      benchmark::Counter::kIsRate);
}

/// Batched decode pinned to one ISA tier — adds the lane axis (`width`
/// same-K codeblocks in lockstep). No early stop: every lane runs the full
/// budget, so info_kbps measures raw kernel throughput and is directly
/// comparable across widths and tiers. Args: {k, iters, width}.
void BM_TurboDecodeBatch(benchmark::State& state, simd::Isa isa) {
  const ScopedIsa pin(isa);
  const auto k = static_cast<std::size_t>(state.range(0));
  const int iters = static_cast<int>(state.range(1));
  const auto width = static_cast<std::size_t>(state.range(2));
  Rng rng(9);
  std::vector<Llrs> llrs;
  llrs.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    Rng block_rng = rng.stream(i);
    const Bits info = random_bits(k, block_rng);
    llrs.push_back(
        transmit_bpsk(turbo_encode(info), units::Db{-3.0}, block_rng));
  }
  std::vector<TurboBatchItem> items(width);
  for (std::size_t i = 0; i < width; ++i) items[i].llrs = &llrs[i];
  TurboDecoder decoder;
  for (auto _ : state) {
    decoder.decode_batch(std::span<TurboBatchItem>(items), k, iters);
    benchmark::DoNotOptimize(items.data());
    benchmark::ClobberMemory();
  }
  state.counters["info_kbps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(k) *
          static_cast<double>(width) / 1e3,
      benchmark::Counter::kIsRate);
  state.counters["batch"] =
      benchmark::Counter(static_cast<double>(width));
}

/// Registers the per-ISA x per-batch-width variants for every tier this
/// binary + CPU supports. Names embed the ISA so a BENCH_e17.json
/// snapshot is self-describing; the fixed BM_TurboDecodeIteration family
/// above (active-ISA, single block) keeps its name — CI's telemetry
/// overhead guard filters on it.
void register_simd_benchmarks() {
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (!simd::isa_available(isa)) continue;
    const std::string tier = simd::isa_name(isa);
    benchmark::RegisterBenchmark(
        ("BM_TurboDecodeSingle/" + tier).c_str(), BM_TurboDecodeSingle, isa)
        ->Args({512, 8})
        ->Args({4096, 8});
    auto* batch = benchmark::RegisterBenchmark(
        ("BM_TurboDecodeBatch/" + tier).c_str(), BM_TurboDecodeBatch, isa);
    for (long width : {1L, 4L, 8L, 16L, 32L}) batch->Args({512, 8, width});
    batch->Args({4096, 8, 16});
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // strips --benchmark_* flags

  Flags flags("bench_e17_turbo", "E17: turbo iteration economy");
  flags.add_int("threads", static_cast<long>(ThreadPool::default_threads()),
                "worker threads for the Monte-Carlo sweeps");
  flags.add_string("metrics-out", "",
                   "write a telemetry snapshot to this file (.json or .csv)");
  flags.add_string("trace-out", "",
                   "write Chrome trace-event JSON to this file");
  flags.add_string("timeline-out", "",
                   "stream per-phase telemetry deltas as JSONL to this "
                   "file (one window per bench phase; E17 has no sim "
                   "clock, so window timestamps are phase ordinals)");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }

  pran::bench::warn_if_not_release();
  std::unique_ptr<pran::telemetry::TimeSeriesRecorder> recorder;
  if (!flags.get_string("timeline-out").empty()) {
    recorder = std::make_unique<pran::telemetry::TimeSeriesRecorder>(
        pran::telemetry::registry(),
        pran::telemetry::TimeSeriesRecorder::Config{});
    recorder->open_jsonl(flags.get_string("timeline-out"));
  }
  // E17's hot path records only wall-clock spans, each counted in the
  // registry's span_us.* histograms as it ends, so a phase boundary's
  // window digests exactly that phase's spans.
  const auto sample_phase = [&recorder](std::int64_t phase) {
    if (recorder) recorder->sample(phase * pran::sim::kMillisecond);
  };
  ThreadPool pool(static_cast<unsigned>(flags.get_int("threads")));
  print_tables(pool);
  sample_phase(1);
  std::printf("E17c: measured turbo decode throughput (google-benchmark, "
              "single thread)\n");
  std::printf(
      "simd: active ISA %s (override with PRAN_SIMD=scalar|avx2); "
      "per-ISA variants below cover every tier this CPU supports\n\n",
      pran::coding::simd::isa_name(pran::coding::simd::active_isa()));
  register_simd_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  sample_phase(2);
  pran::bench::warn_if_not_release();
  if (!flags.get_string("metrics-out").empty())
    pran::telemetry::write_metrics_file(flags.get_string("metrics-out"));
  if (!flags.get_string("trace-out").empty())
    pran::telemetry::write_chrome_trace_file(flags.get_string("trace-out"));
  return 0;
}
