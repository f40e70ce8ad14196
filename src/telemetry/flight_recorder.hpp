#pragma once

/// \file flight_recorder.hpp
/// Anomaly flight recorder: a bounded black box of recent system history
/// — the last N closed KPI windows (from a TimeSeriesRecorder), recent
/// degradation-ladder transitions, recent discrete events (migrations
/// that end other than in a clean commit, ladder steps into the
/// quarantine rung), and the owning deployment's last subframe jobs —
/// dumped as one self-contained JSON post-mortem when something goes
/// wrong: an SLO burn-rate trips, a quarantine fires, or the run aborts.
///
/// Recording is cheap (bounded deque pushes on the sim-event thread; a
/// job is one write into a fixed ring); dumping walks the rings once and
/// writes a single file. Dumps are rate-limited (kMaxDumps) so a
/// flapping alert cannot fill a disk. Everything in a dump was recorded
/// by the one deployment that owns the recorder, so deployments running
/// side by side each dump only their own history.

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "sim/time.hpp"
#include "telemetry/timeseries.hpp"

namespace pran::telemetry {

class FlightRecorder {
 public:
  /// Ladder transitions, events and subframe jobs kept.
  static constexpr std::size_t kMaxTransitions = 64;
  static constexpr std::size_t kMaxEvents = 64;
  static constexpr std::size_t kMaxJobs = 256;
  /// KPI windows included in a dump (taken from the recorder's ring).
  static constexpr std::size_t kMaxWindows = 32;
  /// Dump budget for the whole run.
  static constexpr std::size_t kMaxDumps = 4;

  /// How a subframe job ended.
  enum class JobOutcome : std::uint8_t { kOnTime, kLate, kDropped, kOutage };

  struct Config {
    /// Directory post-mortems are written into (must exist). Empty means
    /// record-only: rings stay queryable but trigger() writes nothing.
    std::string out_dir;
  };

  FlightRecorder(const TimeSeriesRecorder& recorder, Config config);

  /// Records one subframe job ending at `at` on `server`. `duration` is
  /// its simulated service time, or -1 for a job that never ran (dropped
  /// or outage). Overwrites the oldest of the last kMaxJobs; never
  /// allocates.
  void record_job(sim::Time at, int server, int cell, std::int64_t tti,
                  sim::Time duration, JobOutcome outcome) noexcept;

  /// Records one degradation-ladder transition.
  void record_transition(sim::Time at, int from_rung, int to_rung,
                         std::string_view rung_name);
  /// Records a discrete anomaly-adjacent event (an aborted, rolled-back or
  /// taken-over migration, a ladder quarantine...).
  void record_event(sim::Time at, std::string_view kind,
                    std::string_view detail);

  /// Dumps the black box. Returns the file path, or "" when record-only
  /// or the dump budget is exhausted (the trigger still counts).
  std::string trigger(sim::Time at, std::string_view reason,
                      std::string_view detail);

  std::size_t triggers() const noexcept { return triggers_; }
  std::size_t dumps_written() const noexcept { return dumps_written_; }
  const Config& config() const noexcept { return config_; }

  /// The post-mortem document a dump would write right now (tests, and
  /// callers that want the payload without the file).
  json::Value build_postmortem(sim::Time at, std::string_view reason,
                               std::string_view detail) const;

 private:
  struct Transition {
    sim::Time at = 0;
    int from_rung = 0;
    int to_rung = 0;
    std::string rung_name;
  };
  struct Event {
    sim::Time at = 0;
    std::string kind;
    std::string detail;
  };
  struct Job {
    sim::Time at = 0;
    sim::Time duration = -1;
    std::int64_t tti = 0;
    int server = 0;
    int cell = 0;
    JobOutcome outcome = JobOutcome::kOnTime;
  };

  const TimeSeriesRecorder& recorder_;
  Config config_;
  std::deque<Transition> transitions_;
  std::deque<Event> events_;
  std::array<Job, kMaxJobs> jobs_{};
  std::uint64_t jobs_recorded_ = 0;  ///< Ring slot = count % kMaxJobs.
  std::size_t triggers_ = 0;
  std::size_t dumps_written_ = 0;
};

}  // namespace pran::telemetry
