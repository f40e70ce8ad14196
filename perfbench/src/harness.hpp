#pragma once

// Shared pieces of the benchmark harness: arguments, host-time clock,
// in-memory span tracer, sample statistics and the result record every
// workload fills in. Nothing here is part of the program under test.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        ///< Tiny sizes: checks that every metric prints.
  bool selftest = false;     ///< Non-perturbation checks, then exit.
  std::string refs;          ///< Reference fingerprints for this workload.
  std::string record;        ///< Write this seed's fingerprint here.
  std::string trace_out;     ///< Where the traced run writes its spans.
  std::string commit;        ///< Source revision, as run.py found it.
};

/// Median of the samples; 0 when there are none.
double median(const pran::Samples& s);
/// The p95 rule: the 95th percentile, lowered until at least ten samples
/// lie beyond it; 0 when there are none. `used_q` receives the percentile
/// actually reported.
double tail(const pran::Samples& s, double* used_q = nullptr);

/// In-memory span recorder. Spans are recorded by the harness around calls
/// into the program's public functions; nothing inside the program is
/// instrumented. Spans nest (one thread, RAII scopes), so a span's self
/// time is its duration minus the durations of its direct children.
class Tracer {
 public:
  using NameId = std::uint16_t;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Interns a span name "layer.call"; the layer is the text before '.'.
  NameId name(std::string_view n);

  /// Records one span; costs one branch when tracing is off.
  class Scope {
   public:
    Scope(Tracer& t, NameId name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::uint32_t index_;
  };

  struct NameTotals {
    std::uint64_t count = 0;
    double total_s = 0.0;  ///< Sum of span durations.
    double self_s = 0.0;   ///< Sum of self times.
  };
  /// Per-name totals; computed once all scopes have closed.
  std::map<std::string, NameTotals> totals() const;
  /// Self time summed per layer (text before the first '.').
  std::map<std::string, double> layer_self_seconds() const;
  /// Duration covered by root spans (spans without a parent).
  double root_seconds() const;
  std::size_t span_count() const noexcept { return spans_.size(); }

  /// Writes every span: a text header naming the span names, then one
  /// fixed 32-byte little-endian record per span (start_ns, dur_ns,
  /// parent, group, name). Group is the index of the span's root.
  void write(const std::string& path) const;

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  struct Span {
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint32_t parent;
    NameId name;
  };
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::uint32_t open_ = kNone;
};

/// What a run reports. Metrics not measured on a workload stay at 0 (a
/// layer the workload never calls is predicted flat there).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  pran::json::Value detail = pran::json::Value::object();
};

/// Peak resident set (VmHWM) of this process in MB (2^20 bytes).
double peak_rss_mb();

/// Build and host facts recorded with every result.
pran::json::Value host_context(const std::string& commit);

/// Reference fingerprints: {"<seed>": fingerprint}. Missing file or seed
/// yields a null value (internal checks only).
pran::json::Value load_reference(const std::string& path, std::uint64_t seed);
/// Exact structural equality; object members compare by key, not order.
bool same_json(const pran::json::Value& a, const pran::json::Value& b);
void write_fingerprint(const std::string& path, const pran::json::Value& fp);

/// 64-bit FNV-1a over bytes, for decode digests.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

Result run_pool(const Args& args);
Result run_uplink(const Args& args);
Result run_placement(const Args& args);
int selftest_pool();
int selftest_uplink();

}  // namespace perfbench
