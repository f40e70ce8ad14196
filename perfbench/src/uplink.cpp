// uplink_rx: the real receive kernels of one cell-subframe on one core,
// back to back: block-float fronthaul codec round trip of 4 antennas'
// I/Q, 14 x 4 FFTs of 2048 points, Viterbi on control blocks, batched
// turbo decode with CRC-gated early termination.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <vector>

#include "coding/awgn.hpp"
#include "coding/batch.hpp"
#include "coding/convolutional.hpp"
#include "coding/crc.hpp"
#include "coding/simd/dispatch.hpp"
#include "coding/turbo.hpp"
#include "coding/viterbi.hpp"
#include "fronthaul/codec.hpp"
#include "fronthaul/dsp.hpp"
#include "harness.hpp"
#include "lte/mcs.hpp"
#include "workload/traffic.hpp"

namespace perfbench {
namespace {

using pran::json::Value;
namespace coding = pran::coding;
namespace fh = pran::fronthaul;

constexpr int kAntennas = 4;
constexpr std::size_t kSamples = 30720;  ///< One 1 ms subframe at 30.72 MHz.
constexpr std::size_t kFftSize = 2048;
constexpr std::size_t kSymbols = 14;
constexpr std::size_t kSymbolStride = kSamples / kSymbols;  ///< CP + symbol.
constexpr std::size_t kControlBits = 64;
constexpr int kMaxIterations = 8;
constexpr double kTurboEsn0Db = -2.5;
constexpr double kControlEsn0Db = 0.0;
constexpr double kModelGopsPerCore = 150.0;  ///< CostModel's per-core rate.

/// Distinct subframes per seed; runs cycle through them. Sixteen cells and
/// a large set keep the subframe-time distribution, and so its median and
/// tail, about the same from one seed to the next.
std::size_t set_size(bool smoke) { return smoke ? 4 : 1024; }
constexpr int kCells = 16;

struct Block {
  std::size_t k = 0;        ///< Turbo block size.
  std::size_t payload = 0;  ///< Transport-block bits this block carries.
  std::size_t alloc = 0;    ///< Allocation it belongs to.
  coding::Llrs llrs;
};

struct SubframeInput {
  std::vector<pran::lte::Allocation> allocs;
  std::vector<Block> blocks;
  std::vector<coding::Llrs> control;
};

struct Inputs {
  std::vector<std::vector<pran::lte::Allocation>> allocs;  ///< Per subframe.
  std::vector<std::vector<fh::Cplx>> iq;                   ///< Per antenna.
  pran::lte::CellConfig cell;
  std::uint64_t seed = 0;
};

/// Allocations for every subframe of the set, drawn from the statistical
/// traffic model of sixteen cells over the busy part of the day.
Inputs make_inputs(std::uint64_t seed, std::size_t n) {
  Inputs in;
  in.seed = seed;
  auto fleet = pran::workload::make_fleet(kCells, seed);
  in.cell = fleet.cells[0].site().config;
  for (std::size_t i = 0; i < n; ++i) {
    const double hour = 9.0 + 10.0 * static_cast<double>(i) /
                                  static_cast<double>(n);
    in.allocs.push_back(fleet.cells[i % kCells].sample_subframe(hour));
  }
  pran::Rng rng = pran::Rng(seed).stream(0);
  in.iq.resize(kAntennas);
  for (auto& a : in.iq) {
    a.resize(kSamples);
    for (auto& s : a) s = fh::Cplx(rng.normal(0.0, 0.3), rng.normal(0.0, 0.3));
  }
  return in;
}

/// Segments each allocation's transport block into turbo blocks and
/// encodes, modulates and adds noise.
SubframeInput make_subframe(const pran::lte::CellConfig& cell,
                            std::vector<pran::lte::Allocation> allocs,
                            pran::Rng rng) {
  SubframeInput sf;
  sf.allocs = std::move(allocs);
  for (std::size_t a = 0; a < sf.allocs.size(); ++a) {
    const auto& alloc = sf.allocs[a];
    if (alloc.n_prb == 0) continue;
    const auto tb = pran::lte::transport_block_bits(
        alloc.mcs, pran::units::PrbCount{alloc.n_prb});
    const auto tb_bits = static_cast<std::size_t>(tb.count());
    const auto c = static_cast<std::size_t>(pran::lte::code_block_count(tb));
    for (int layer = 0; layer < cell.mimo_layers; ++layer) {
      for (std::size_t b = 0; b < c; ++b) {
        Block blk;
        blk.alloc = a;
        blk.payload = tb_bits / c + (b < tb_bits % c ? 1 : 0);
        blk.k = std::max<std::size_t>(64, fh::next_pow2(blk.payload + 24));
        coding::Bits info(blk.k - 24);
        for (auto& bit : info) bit = static_cast<std::uint8_t>(rng() & 1u);
        coding::transmit_bpsk(coding::turbo_encode(coding::attach_crc(info)),
                              pran::units::Db{kTurboEsn0Db}, rng, blk.llrs);
        sf.blocks.push_back(std::move(blk));
      }
    }
  }
  const std::size_t n_control = std::max<std::size_t>(1, sf.allocs.size());
  for (std::size_t i = 0; i < n_control; ++i) {
    coding::Bits info(kControlBits);
    for (auto& bit : info) bit = static_cast<std::uint8_t>(rng() & 1u);
    sf.control.push_back(coding::transmit_bpsk(
        coding::convolutional_encode(info), pran::units::Db{kControlEsn0Db},
        rng));
  }
  return sf;
}

/// Subframe `index` of the seed's set; deterministic in (seed, index).
SubframeInput make_subframe(const Inputs& in, std::size_t index) {
  return make_subframe(in.cell, in.allocs[index],
                       pran::Rng(in.seed).stream(index + 1));
}

/// The set-up subframe, the same for every seed: the whole carrier at
/// every load level from MCS 0 to 28, so it sizes the decoder workspaces
/// for the largest blocks and touches most block sizes.
SubframeInput warmup_subframe(const pran::lte::CellConfig& cell) {
  const std::vector<pran::lte::Allocation> allocs = {
      {50, 28}, {25, 20}, {13, 12}, {6, 6}, {3, 3}, {2, 1}, {1, 0}};
  return make_subframe(cell, allocs, pran::Rng(0));
}

/// One receiver: the decoder workspaces and the codec it reuses.
struct Receiver {
  fh::BlockFloatCodec codec{8, 32};
  coding::TurboDecoder turbo;
  coding::ViterbiDecoder viterbi;
  coding::TurboBatchCollector collector;
  std::vector<coding::TurboBatchResult> results;
  std::vector<coding::ViterbiBatchItem> control_items;
  std::vector<fh::Cplx> symbol;
};

struct RxOut {
  std::string digest;
  double info_bits = 0.0;       ///< CRC-passing transport-block bits.
  std::size_t blocks = 0;
  std::size_t block_errors = 0;
  long iterations = 0;
  std::size_t idle_lane_iterations = 0;
  bool fft_ok = true;
  bool codec_ok = true;
  std::vector<int> alloc_iterations;  ///< Max iterations per allocation.
};

struct Names {
  Tracer::NameId root, codec, fft, viterbi, turbo;
  explicit Names(Tracer& tr)
      : root(tr.name("bench.subframe")),
        codec(tr.name("fronthaul.codec_roundtrip")),
        fft(tr.name("fronthaul.fft")),
        viterbi(tr.name("coding.viterbi_batch")),
        turbo(tr.name("coding.turbo_flush")) {}
};

RxOut receive(Receiver& rx, const Inputs& in, const SubframeInput& sf,
              Tracer& tr, const Names& n) {
  RxOut out;
  Tracer::Scope root(tr, n.root);
  // Fronthaul: compress/decompress each antenna's samples, then the
  // per-symbol FFTs on what arrived. Parseval checks each transform.
  for (int a = 0; a < kAntennas; ++a) {
    fh::CodecResult arrived;
    {
      Tracer::Scope s(tr, n.codec);
      arrived = rx.codec.roundtrip(in.iq[static_cast<std::size_t>(a)]);
    }
    if (arrived.decoded.size() != kSamples) out.codec_ok = false;
    for (std::size_t sym = 0; sym < kSymbols && out.codec_ok; ++sym) {
      const std::size_t start = sym * kSymbolStride + (kSymbolStride - kFftSize);
      rx.symbol.assign(arrived.decoded.begin() + static_cast<long>(start),
                       arrived.decoded.begin() + static_cast<long>(start + kFftSize));
      double energy = 0.0;
      for (const auto& x : rx.symbol) energy += std::norm(x);
      {
        Tracer::Scope s(tr, n.fft);
        fh::fft(rx.symbol);
      }
      double spectral = 0.0;
      for (const auto& x : rx.symbol) spectral += std::norm(x);
      spectral /= static_cast<double>(kFftSize);
      if (std::abs(spectral - energy) > 1e-9 * energy) out.fft_ok = false;
    }
  }

  Digest digest;
  // Control channel: one batched Viterbi call over same-size blocks.
  rx.control_items.resize(sf.control.size());
  for (std::size_t i = 0; i < sf.control.size(); ++i)
    rx.control_items[i].llrs = &sf.control[i];
  {
    Tracer::Scope s(tr, n.viterbi);
    rx.viterbi.decode_batch(rx.control_items, kControlBits);
  }
  for (const auto& item : rx.control_items)
    digest.bytes(item.info.data(), item.info.size());

  // Shared channel: K-bucketed batch decode, each lane stopping as soon as
  // its block's CRC passes.
  for (std::size_t b = 0; b < sf.blocks.size(); ++b)
    rx.collector.add(sf.blocks[b].llrs, sf.blocks[b].k, b);
  rx.results.clear();
  coding::TurboBatchStats stats;
  {
    Tracer::Scope s(tr, n.turbo);
    stats = rx.collector.flush(
        rx.turbo, rx.results, kMaxIterations,
        [](std::size_t, const coding::Bits& hard) {
          return coding::check_crc(hard);
        });
  }
  std::sort(rx.results.begin(), rx.results.end(),
            [](const auto& a, const auto& b) { return a.tag < b.tag; });
  out.alloc_iterations.assign(sf.allocs.size(), 0);
  for (const auto& res : rx.results) {
    const Block& blk = sf.blocks[res.tag];
    digest.bytes(res.info.data(), res.info.size());
    digest.value(res.iterations);
    ++out.blocks;
    out.iterations += res.iterations;
    int& it = out.alloc_iterations[blk.alloc];
    it = std::max(it, res.iterations);
    if (coding::check_crc(res.info)) out.info_bits += static_cast<double>(blk.payload);
    else ++out.block_errors;
  }
  out.idle_lane_iterations = stats.idle_lane_iterations;
  out.digest = digest.hex();
  return out;
}

/// CostModel decode-stage seconds for the same allocations, charged at
/// the iterations the real decoder ran, at the model's per-core rate.
double model_decode_seconds(const Inputs& in, const SubframeInput& sf,
                            const RxOut& rx) {
  std::vector<pran::lte::Allocation> allocs = sf.allocs;
  for (std::size_t a = 0; a < allocs.size(); ++a)
    allocs[a].turbo_iterations = std::max(1, rx.alloc_iterations[a]);
  const pran::lte::StageCost cost = pran::lte::CostModel{}.subframe_cost(
      in.cell, allocs, pran::lte::Direction::kUplink);
  return cost[pran::lte::Stage::kDecode] / kModelGopsPerCore;
}

}  // namespace

Result run_uplink(const Args& args) {
  const std::size_t n = set_size(args.smoke);
  const Inputs in = make_inputs(args.seed, n);
  const Value ref = load_reference(args.refs, args.seed);
  Tracer off(false);
  const Names names_off(off);

  Result r;
  // Set-up: fresh decoder workspaces and codec, warmed by one untimed
  // subframe. The first sample also pays the interleaver memo and ISA
  // dispatch.
  pran::Samples setups;
  const SubframeInput warm = warmup_subframe(in.cell);
  std::optional<Receiver> rx;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    rx.emplace();
    (void)receive(*rx, in, warm, off, names_off);
    setups.add(seconds_since(t0));
  }

  pran::Samples op_ms;
  double busy_s = 0.0;
  std::vector<std::string> digests(n);
  std::size_t done = 0;
  const std::size_t traced_count = args.trace ? std::min<std::size_t>(n, 64) : 0;
  const auto t_start = Clock::now();
  while (args.trace ? done < traced_count
                    : seconds_since(t_start) < args.seconds || done == 0) {
    const std::size_t idx = done % n;
    const SubframeInput sf = make_subframe(in, idx);
    const auto t0 = Clock::now();
    const RxOut out = receive(*rx, in, sf, off, names_off);
    const double dt = seconds_since(t0);
    op_ms.add(dt * 1e3);
    busy_s += dt;
    ++r.attempted;
    bool ok = out.fft_ok && out.codec_ok;
    if (digests[idx].empty()) digests[idx] = out.digest;
    else if (digests[idx] != out.digest) ok = false;
    if (!ref.is_null() && idx < ref.items().size() &&
        ref.items()[idx].as_string() != out.digest)
      ok = false;
    if (!ok) ++r.failed;
    ++done;
  }
  if (!args.record.empty()) {
    // Recording covers the whole set, however far the timed loop got.
    Value fp = Value::array();
    for (std::size_t i = 0; i < n; ++i) {
      if (digests[i].empty())
        digests[i] = receive(*rx, in, make_subframe(in, i), off, names_off).digest;
      fp.push_back(Value(digests[i]));
    }
    write_fingerprint(args.record, fp);
  }

  r.metrics["setup_s"] = median(setups);
  r.metrics["ops_per_s"] = static_cast<double>(op_ms.count()) / busy_s;
  r.metrics["op_ms_p50"] = median(op_ms);
  double q = 0.0;
  r.metrics["op_ms_p95"] = tail(op_ms, &q);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.detail.set("op", Value("cell-subframe received"));
  r.detail.set("op_samples", Value(static_cast<int>(op_ms.count())));
  r.detail.set("op_ms_p95_quantile", Value(q));
  r.detail.set("setup_samples", Value(static_cast<int>(setups.count())));
  r.detail.set("reference", Value(ref.is_null() ? "none: internal checks only"
                                                : "matched per subframe"));
  if (!args.trace) return r;

  // Traced pass over the same subframes, one span per kernel call.
  Tracer tr(true);
  const Names names(tr);
  double info_bits = 0.0, control_bits = 0.0, model_s = 0.0;
  std::size_t blocks = 0, block_errors = 0, idle = 0;
  long iterations = 0;
  for (std::size_t i = 0; i < traced_count; ++i) {
    const SubframeInput sf = make_subframe(in, i);
    const RxOut out = receive(*rx, in, sf, tr, names);
    if (out.digest != digests[i]) ++r.failed;
    info_bits += out.info_bits;
    control_bits += static_cast<double>(sf.control.size() * kControlBits);
    blocks += out.blocks;
    block_errors += out.block_errors;
    iterations += out.iterations;
    idle += out.idle_lane_iterations;
    model_s += model_decode_seconds(in, sf, out);
  }
  const auto t = tr.totals();
  auto total = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_s;
  };
  auto& m = r.metrics;
  m["fronthaul.codec_ms"] = total("fronthaul.codec_roundtrip") * 1e3 /
                            static_cast<double>(traced_count);
  m["fronthaul.fft_us"] =
      total("fronthaul.fft") * 1e6 /
      static_cast<double>(traced_count * kAntennas * kSymbols);
  m["coding.turbo_info_mbps"] = info_bits / total("coding.turbo_flush") / 1e6;
  m["coding.viterbi_info_mbps"] =
      control_bits / total("coding.viterbi_batch") / 1e6;
  m["coding.lane_occupancy"] =
      static_cast<double>(iterations) /
      static_cast<double>(iterations + static_cast<long>(idle));
  m["coding.turbo_iterations_per_block"] =
      static_cast<double>(iterations) / static_cast<double>(blocks);
  m["coding.block_errors"] = static_cast<double>(block_errors);
  m["lte.decode_model_ratio"] = total("coding.turbo_flush") / model_s;

  const double roots = tr.root_seconds();
  for (const auto& [layer, self] : tr.layer_self_seconds()) {
    if (layer == "bench") m["bench.uncovered_share"] = self / roots;
    else m[layer + ".self_share"] = self / roots;
  }
  m["bench.trace_overhead_share"] = (roots - busy_s) / busy_s;
  r.detail.set("traced_s", Value(roots));
  r.detail.set("untraced_s", Value(busy_s));
  if (!args.trace_out.empty()) tr.write(args.trace_out);
  return r;
}

int selftest_uplink() {
  // The SIMD tiers are bit-exact by design: the decode digest must not
  // depend on which one runs.
  const Inputs in = make_inputs(7, 8);
  Tracer off(false);
  const Names names(off);
  bool ok = true;
  for (std::size_t i = 0; i < 4; ++i) {
    const SubframeInput sf = make_subframe(in, i);
    Receiver native;
    const std::string a = receive(native, in, sf, off, names).digest;
    coding::simd::force_isa(coding::simd::Isa::kScalar);
    Receiver scalar;
    const std::string b = receive(scalar, in, sf, off, names).digest;
    coding::simd::reset_forced_isa();
    ok = ok && a == b;
  }
  std::printf("selftest uplink_rx: %s digest == scalar digest: %s\n",
              coding::simd::isa_name(coding::simd::active_isa()),
              ok ? "ok" : "MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace perfbench
