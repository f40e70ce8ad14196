#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "coding/simd/dispatch.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

double median(const pran::Samples& s) {
  return s.empty() ? 0.0 : s.median();
}

double tail(const pran::Samples& s, double* used_q) {
  if (s.empty()) return 0.0;
  // Position q * (n - 1) has n - 1 - q * (n - 1) samples beyond it.
  const auto n = static_cast<double>(s.count());
  const double q = n > 11.0 ? std::min(0.95, (n - 11.0) / (n - 1.0)) : 0.0;
  if (used_q) *used_q = q;
  return s.quantile(q);
}

Tracer::NameId Tracer::name(std::string_view n) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == n) return static_cast<NameId>(i);
  names_.emplace_back(n);
  return static_cast<NameId>(names_.size() - 1);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer& t, NameId name) : t_(nullptr), index_(0) {
  if (!t.enabled_) return;
  t_ = &t;
  index_ = static_cast<std::uint32_t>(t.spans_.size());
  t.spans_.push_back(Span{t.now_ns(), 0, t.open_, name});
  t.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (!t_) return;
  Span& s = t_->spans_[index_];
  s.dur_ns = t_->now_ns() - s.start_ns;
  t_->open_ = s.parent;
}

namespace {

std::vector<double> child_seconds(const std::vector<std::uint32_t>& parents,
                                  const std::vector<double>& durs) {
  std::vector<double> child(durs.size(), 0.0);
  for (std::size_t i = 0; i < durs.size(); ++i)
    if (parents[i] != 0xFFFFFFFFu) child[parents[i]] += durs[i];
  return child;
}

}  // namespace

std::map<std::string, Tracer::NameTotals> Tracer::totals() const {
  std::vector<std::uint32_t> parents(spans_.size());
  std::vector<double> durs(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    parents[i] = spans_[i].parent;
    durs[i] = static_cast<double>(spans_[i].dur_ns) * 1e-9;
  }
  const std::vector<double> child = child_seconds(parents, durs);
  std::vector<NameTotals> by_id(names_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    NameTotals& t = by_id[spans_[i].name];
    ++t.count;
    t.total_s += durs[i];
    t.self_s += durs[i] - child[i];
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < names_.size(); ++i) out[names_[i]] = by_id[i];
  return out;
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  std::map<std::string, double> out;
  for (const auto& [name, t] : totals())
    out[name.substr(0, name.find('.'))] += t.self_s;
  return out;
}

double Tracer::root_seconds() const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.parent == kNone) t += static_cast<double>(s.dur_ns) * 1e-9;
  return t;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "perfbench-spans v1\n" << names_.size() << "\n";
  for (const std::string& n : names_) out << n << "\n";
  out << spans_.size() << "\n";
  std::vector<std::uint32_t> root(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    root[i] = spans_[i].parent == kNone ? static_cast<std::uint32_t>(i)
                                        : root[spans_[i].parent];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint32_t name = s.name;
    out.write(reinterpret_cast<const char*>(&s.start_ns), 8);
    out.write(reinterpret_cast<const char*>(&s.dur_ns), 8);
    out.write(reinterpret_cast<const char*>(&s.parent), 4);
    out.write(reinterpret_cast<const char*>(&root[i]), 4);
    out.write(reinterpret_cast<const char*>(&name), 4);
    const std::uint32_t pad = 0;
    out.write(reinterpret_cast<const char*>(&pad), 4);
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

pran::json::Value host_context(const std::string& commit) {
  using pran::json::Value;
  Value c = Value::object();
  c.set("build_type", Value(PRAN_BENCH_BUILD_TYPE));
  c.set("isa", Value(pran::coding::simd::isa_name(
                   pran::coding::simd::active_isa())));
  c.set("telemetry", Value(pran::telemetry::enabled()));
  c.set("cpu", Value(cpu_model()));
  c.set("nproc", Value(static_cast<int>(std::thread::hardware_concurrency())));
  c.set("compiler", Value(std::string("g++ ") + __VERSION__));
  c.set("commit", Value(commit.empty() ? "unknown" : commit));
  return c;
}

pran::json::Value load_reference(const std::string& path, std::uint64_t seed) {
  if (path.empty()) return {};
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream ss;
  ss << in.rdbuf();
  const pran::json::Value all = pran::json::Value::parse(ss.str());
  const pran::json::Value* fp = all.find(std::to_string(seed));
  return fp ? *fp : pran::json::Value{};
}

bool same_json(const pran::json::Value& a, const pran::json::Value& b) {
  using Kind = pran::json::Value::Kind;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return a.as_bool() == b.as_bool();
    case Kind::kNumber:
      return a.as_number() == b.as_number();
    case Kind::kString:
      return a.as_string() == b.as_string();
    case Kind::kArray:
      if (a.items().size() != b.items().size()) return false;
      for (std::size_t i = 0; i < a.items().size(); ++i)
        if (!same_json(a.items()[i], b.items()[i])) return false;
      return true;
    case Kind::kObject:
      if (a.members().size() != b.members().size()) return false;
      for (const auto& [key, value] : a.members()) {
        const pran::json::Value* other = b.find(key);
        if (!other || !same_json(value, *other)) return false;
      }
      return true;
  }
  return false;
}

void write_fingerprint(const std::string& path, const pran::json::Value& fp) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write fingerprint to " + path);
  out << fp.dump() << "\n";
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
