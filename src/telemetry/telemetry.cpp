#include "telemetry/telemetry.hpp"

#include <fstream>
#include <new>

#include "common/check.hpp"

namespace pran::telemetry {

namespace {

struct Globals {
  MetricsRegistry registry;
  SpanCollector spans;
};

// Leaked on purpose: instrumented code may run during static teardown of
// other translation units, so the globals must outlive everything.
Globals* globals() {
  static Globals* const g = new Globals();
  return g;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  PRAN_CHECK(out.good(), "cannot open telemetry output file: " + path);
  out << text;
  out.flush();
  PRAN_CHECK(out.good(), "failed writing telemetry output file: " + path);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

MetricsRegistry& registry() { return globals()->registry; }

SpanCollector& spans() { return globals()->spans; }

void reset_for_testing() {
  // Rebuild in place: the references handed out by registry()/spans()
  // must stay valid, so replace the *contents*, not the pointer.
  Globals* g = globals();
  g->~Globals();
  new (g) Globals();
}

void write_metrics_file(const std::string& path) {
  MetricsRegistry& reg = registry();
  reg.set(reg.gauge("spans.recorded"), static_cast<double>(spans().recorded()));
  reg.set(reg.gauge("spans.dropped"), static_cast<double>(spans().dropped()));
  const MetricsSnapshot snap = reg.snapshot();
  write_text_file(path, ends_with(path, ".json") ? snap.to_json()
                                                 : snap.to_csv());
}

void write_chrome_trace_file(const std::string& path) {
  write_text_file(path, spans().to_chrome_trace());
}

}  // namespace pran::telemetry
