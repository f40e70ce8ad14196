#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <fstream>

#include "common/check.hpp"

namespace pran::telemetry {

namespace {

/// Filesystem-safe slug for the dump filename.
std::string sanitize(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    (c >= 'A' && c <= 'Z');
    out += ok ? c : '_';
  }
  return out;
}

const char* outcome_name(FlightRecorder::JobOutcome outcome) {
  switch (outcome) {
    case FlightRecorder::JobOutcome::kOnTime:
      return "on_time";
    case FlightRecorder::JobOutcome::kLate:
      return "late";
    case FlightRecorder::JobOutcome::kDropped:
      return "dropped";
    case FlightRecorder::JobOutcome::kOutage:
      return "outage";
  }
  return "?";
}

}  // namespace

FlightRecorder::FlightRecorder(const TimeSeriesRecorder& recorder,
                               Config config)
    : recorder_(recorder), config_(std::move(config)) {}

void FlightRecorder::record_transition(sim::Time at, int from_rung,
                                       int to_rung,
                                       std::string_view rung_name) {
  transitions_.push_back({at, from_rung, to_rung, std::string(rung_name)});
  while (transitions_.size() > kMaxTransitions)
    transitions_.pop_front();
}

void FlightRecorder::record_event(sim::Time at, std::string_view kind,
                                  std::string_view detail) {
  events_.push_back({at, std::string(kind), std::string(detail)});
  while (events_.size() > kMaxEvents) events_.pop_front();
}

void FlightRecorder::record_job(sim::Time at, int server, int cell,
                                std::int64_t tti, sim::Time duration,
                                JobOutcome outcome) noexcept {
  jobs_[jobs_recorded_ % kMaxJobs] = Job{at, duration, tti, server, cell,
                                         outcome};
  ++jobs_recorded_;
}

json::Value FlightRecorder::build_postmortem(sim::Time at,
                                             std::string_view reason,
                                             std::string_view detail) const {
  json::Value doc = json::Value::object();
  doc.set("kind", json::Value("pran_postmortem"));
  doc.set("reason", json::Value(std::string(reason)));
  doc.set("detail", json::Value(std::string(detail)));
  doc.set("t_ms", json::Value(sim::to_seconds(at) * 1e3));
  doc.set("trigger_index", json::Value(static_cast<double>(triggers_)));

  // The last-N KPI windows, oldest first.
  json::Value windows = json::Value::array();
  const auto& ring = recorder_.windows();
  const std::size_t take = std::min(kMaxWindows, ring.size());
  for (std::size_t i = ring.size() - take; i < ring.size(); ++i)
    windows.push_back(ring[i].to_json());
  doc.set("windows", std::move(windows));

  // Degradation-ladder transitions preceding the trigger.
  json::Value transitions = json::Value::array();
  for (const auto& t : transitions_) {
    json::Value obj = json::Value::object();
    obj.set("t_ms", json::Value(sim::to_seconds(t.at) * 1e3));
    obj.set("from_rung", json::Value(static_cast<double>(t.from_rung)));
    obj.set("to_rung", json::Value(static_cast<double>(t.to_rung)));
    obj.set("rung_name", json::Value(t.rung_name));
    transitions.push_back(std::move(obj));
  }
  doc.set("ladder_transitions", std::move(transitions));

  json::Value events = json::Value::array();
  for (const auto& e : events_) {
    json::Value obj = json::Value::object();
    obj.set("t_ms", json::Value(sim::to_seconds(e.at) * 1e3));
    obj.set("kind", json::Value(e.kind));
    obj.set("detail", json::Value(e.detail));
    events.push_back(std::move(obj));
  }
  doc.set("events", std::move(events));

  // The last subframe jobs, oldest first (t_ms is when each ended).
  json::Value jobs = json::Value::array();
  const std::uint64_t kept =
      std::min<std::uint64_t>(jobs_recorded_, kMaxJobs);
  for (std::uint64_t i = jobs_recorded_ - kept; i < jobs_recorded_; ++i) {
    const Job& j = jobs_[i % kMaxJobs];
    json::Value obj = json::Value::object();
    obj.set("t_ms", json::Value(static_cast<double>(j.at) / 1e6));
    obj.set("server", json::Value(static_cast<double>(j.server)));
    obj.set("cell", json::Value(static_cast<double>(j.cell)));
    obj.set("tti", json::Value(static_cast<double>(j.tti)));
    obj.set("outcome", json::Value(outcome_name(j.outcome)));
    if (j.duration >= 0)
      obj.set("dur_ms", json::Value(static_cast<double>(j.duration) / 1e6));
    jobs.push_back(std::move(obj));
  }
  doc.set("jobs", std::move(jobs));
  return doc;
}

std::string FlightRecorder::trigger(sim::Time at, std::string_view reason,
                                    std::string_view detail) {
  if (config_.out_dir.empty() || dumps_written_ >= kMaxDumps) {
    ++triggers_;
    return std::string();
  }
  const json::Value doc = build_postmortem(at, reason, detail);
  const std::size_t index = triggers_++;
  const std::string path = config_.out_dir + "/postmortem_" +
                           std::to_string(index) + "_" + sanitize(reason) +
                           ".json";
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  PRAN_REQUIRE(out.is_open(), "cannot write post-mortem: " + path);
  out << doc.dump(2) << '\n';
  ++dumps_written_;
  return path;
}

}  // namespace pran::telemetry
