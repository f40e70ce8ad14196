#include "cluster/executor.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pran::cluster {

Executor::Executor(sim::Engine& engine, std::vector<ServerSpec> specs,
                   SchedPolicy policy)
    : engine_(engine), policy_(policy) {
  PRAN_REQUIRE(!specs.empty(), "executor needs at least one server");
  servers_.reserve(specs.size());
  for (auto& spec : specs) {
    PRAN_REQUIRE(spec.cores >= 1, "server needs at least one core");
    PRAN_REQUIRE(spec.gops_per_core > 0.0, "core capacity must be positive");
    servers_.push_back(Server{std::move(spec), false, 1.0, {}, {}, 0, 0.0});
  }
}

Executor::Server& Executor::server(int server_id) {
  PRAN_REQUIRE(server_id >= 0 && server_id < num_servers(),
               "unknown server id");
  return servers_[static_cast<std::size_t>(server_id)];
}

const Executor::Server& Executor::server(int server_id) const {
  PRAN_REQUIRE(server_id >= 0 && server_id < num_servers(),
               "unknown server id");
  return servers_[static_cast<std::size_t>(server_id)];
}

const ServerSpec& Executor::spec(int server_id) const {
  return server(server_id).spec;
}

bool Executor::is_failed(int server_id) const {
  return server(server_id).failed;
}

sim::Time Executor::exec_time(const Server& s, const lte::SubframeJob& job,
                              int width) const {
  // Code blocks decode independently, so fan-out is near-linear; the
  // residual serial part (FFT, MAC) is folded into the same scaling as a
  // deliberate simplification (documented in DESIGN.md).
  const double seconds =
      job.total_gops() /
      (s.spec.gops_per_core * s.speed_factor * static_cast<double>(width));
  return static_cast<sim::Time>(std::llround(seconds * 1e9));
}

int Executor::free_cores(const Server& s) const {
  int used = 0;
  for (const auto& r : s.running) used += r.width;
  return s.spec.cores - used;
}

void Executor::submit(int server_id, const lte::SubframeJob& job) {
  (void)server(server_id);  // validate id now, not at arrival
  const std::uint64_t seq = submit_seq_++;
  const sim::Time arrival = std::max(job.release, engine_.now());
  engine_.schedule_at(arrival, [this, server_id, job, seq] {
    Server& s = servers_[static_cast<std::size_t>(server_id)];
    if (s.failed) {
      JobOutcome outcome;
      outcome.job = job;
      outcome.server_id = server_id;
      outcome.dropped = true;
      finish(outcome);
      return;
    }
    s.pending.emplace_back(seq, job);
    dispatch(server_id);
  });
}

void Executor::dispatch(int server_id) {
  Server& s = servers_[static_cast<std::size_t>(server_id)];
  while (!s.failed && !s.pending.empty() && free_cores(s) >= 1) {
    auto pick = s.pending.begin();
    if (policy_ == SchedPolicy::kEdf) {
      for (auto it = s.pending.begin(); it != s.pending.end(); ++it) {
        if (it->second.deadline < pick->second.deadline ||
            (it->second.deadline == pick->second.deadline &&
             it->first < pick->first))
          pick = it;
      }
    }  // FIFO: submission order == queue order, so front() is correct.
    const lte::SubframeJob job = pick->second;
    s.pending.erase(pick);
    start_job(server_id, job);
  }
}

void Executor::start_job(int server_id, const lte::SubframeJob& job) {
  Server& s = servers_[static_cast<std::size_t>(server_id)];
  const int width = std::max(
      1, std::min({job.parallelism, s.spec.max_job_parallelism,
                   free_cores(s)}));
  const sim::Time start = engine_.now();
  const sim::Time duration = exec_time(s, job, width);
  const std::uint64_t token = next_token_++;
  engine_.schedule_in(duration,
                      [this, server_id, token, gen = s.generation] {
                        on_job_done(server_id, token, gen);
                      });
  s.running.push_back(Running{job, start, token, width});
}

void Executor::on_job_done(int server_id, std::uint64_t token,
                           std::uint64_t generation) {
  Server& s = servers_[static_cast<std::size_t>(server_id)];
  // The server crashed after this job started: fail_server() already
  // recorded the job as dropped.
  if (generation != s.generation) return;
  std::size_t slot = s.running.size();
  for (std::size_t i = 0; i < s.running.size(); ++i) {
    if (s.running[i].token == token) {
      slot = i;
      break;
    }
  }
  PRAN_CHECK(slot < s.running.size(), "completion with no running job");

  JobOutcome outcome;
  outcome.job = s.running[slot].job;
  outcome.server_id = server_id;
  outcome.start = s.running[slot].start;
  outcome.finish = engine_.now();
  outcome.cores_used = s.running[slot].width;
  s.running.erase(s.running.begin() + static_cast<std::ptrdiff_t>(slot));
  finish(outcome);
  dispatch(server_id);
}

void Executor::fail_server(int server_id) {
  Server& s = server(server_id);
  PRAN_REQUIRE(!s.failed, "server is already failed");
  s.failed = true;
  ++s.generation;  // strands the in-flight jobs' completion events

  // Drop the waiting queue.
  for (auto& [seq, job] : s.pending) {
    (void)seq;
    JobOutcome outcome;
    outcome.job = job;
    outcome.server_id = server_id;
    outcome.dropped = true;
    finish(outcome);
  }
  s.pending.clear();

  // Abort in-flight jobs.
  for (auto& r : s.running) {
    JobOutcome outcome;
    outcome.job = r.job;
    outcome.server_id = server_id;
    outcome.start = r.start;
    outcome.dropped = true;
    finish(outcome);
  }
  s.running.clear();
}

void Executor::restore_server(int server_id) {
  Server& s = server(server_id);
  PRAN_REQUIRE(s.failed, "server is not failed");
  s.failed = false;
}

void Executor::degrade_server(int server_id, double factor) {
  PRAN_REQUIRE(factor > 0.0 && factor <= 1.0,
               "degrade factor outside (0, 1]");
  Server& s = server(server_id);
  PRAN_REQUIRE(!s.failed, "cannot degrade a failed server");
  s.speed_factor = factor;
  // Queued jobs will start at the degraded speed via dispatch(); jobs
  // already running keep their scheduled completion (deliberate: the slow
  // clock only bites work started under it).
}

void Executor::restore_speed(int server_id) {
  server(server_id).speed_factor = 1.0;
}

bool Executor::is_degraded(int server_id) const {
  return server(server_id).speed_factor < 1.0;
}

double Executor::speed_factor(int server_id) const {
  return server(server_id).speed_factor;
}

double Executor::pending_gops(int server_id) const {
  const Server& s = server(server_id);
  double gops = 0.0;
  for (const auto& [token, job] : s.pending) gops += job.total_gops();
  return gops;
}

double Executor::backlog_ttis(int server_id) const {
  const Server& s = server(server_id);
  return pending_gops(server_id) / (s.spec.gops_per_tti() * s.speed_factor);
}

void Executor::record_compute_outage(int server_id,
                                     const lte::SubframeJob& job) {
  (void)server(server_id);  // validate the id
  JobOutcome outcome;
  outcome.job = job;
  outcome.server_id = server_id;
  outcome.compute_outage = true;
  finish(outcome);
}

void Executor::finish(const JobOutcome& outcome) {
  outcomes_.push_back(outcome);
  if (outcome.dropped) {
    ++stats_.dropped;
  } else if (outcome.compute_outage) {
    ++stats_.compute_outages;
  } else {
    ++stats_.completed;
    if (outcome.missed_deadline()) ++stats_.missed;
    const double busy =
        sim::to_seconds(outcome.finish - outcome.start) * outcome.cores_used;
    stats_.total_busy_seconds += busy;
    servers_[static_cast<std::size_t>(outcome.server_id)].busy_seconds += busy;
  }
  if (on_complete_) on_complete_(outcome);
}

double Executor::utilization(int server_id, sim::Time window) const {
  PRAN_REQUIRE(window > 0, "window must be positive");
  PRAN_REQUIRE(window >= engine_.now(), "window ends before now");
  const Server& s = server(server_id);
  double busy = s.busy_seconds;
  for (const auto& r : s.running)
    busy += sim::to_seconds(engine_.now() - r.start) * r.width;
  return busy /
         (sim::to_seconds(window) * static_cast<double>(s.spec.cores));
}

}  // namespace pran::cluster
