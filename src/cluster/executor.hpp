#pragma once

/// \file executor.hpp
/// The compute-cluster substrate: a pool of multi-core servers executing
/// SubframeJobs under a non-preemptive scheduling policy, simulated on the
/// discrete-event engine.
///
/// Each server has `cores` identical cores; a submitted job waits in the
/// server's pending queue until a core frees, then runs to completion in
/// ops / core_gops seconds. EDF picks the pending job with the earliest
/// deadline (the policy PRAN's data plane uses); FIFO is the baseline.
/// Every job ends in exactly one JobOutcome, reported once through the
/// completion callback: on time, late, dropped by a server failure (the
/// controller may re-dispatch it) or abandoned as a compute outage.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "lte/subframe.hpp"
#include "sim/engine.hpp"

namespace pran::cluster {

/// Power draw of a powered-on but idle server (the consolidation prize:
/// idle servers can be switched off entirely).
inline constexpr double kIdleWatts = 90.0;
/// Power draw with every core busy; between idle and busy, draw scales
/// linearly with the busy-core fraction.
inline constexpr double kBusyWatts = 250.0;

struct ServerSpec {
  std::string name;
  int cores = 8;
  /// Sustained giga-operations per second per core. 150 GOPS matches a
  /// vectorised base-band kernel on one modern server core and keeps a
  /// worst-case subframe (~0.32 Gop) inside the 3 ms HARQ budget.
  double gops_per_core = 150.0;
  /// Maximum cores one job may fan out over (code-block parallelism).
  /// 1 disables intra-job parallelism; the realistic setting is "many",
  /// since a loaded subframe carries tens of independent code blocks.
  int max_job_parallelism = 1;

  /// Whole-server ops budget per 1 ms TTI, in giga-operations.
  double gops_per_tti() const noexcept {
    return static_cast<double>(cores) * gops_per_core * 1e-3;
  }
  /// Extra watts one busy core adds on top of idle.
  double watts_per_busy_core() const noexcept {
    return (kBusyWatts - kIdleWatts) / static_cast<double>(cores);
  }
};

enum class SchedPolicy { kEdf, kFifo };

/// Final record of one job's execution.
struct JobOutcome {
  lte::SubframeJob job;
  int server_id = -1;
  sim::Time start = -1;   ///< -1 if never started.
  sim::Time finish = -1;  ///< -1 if dropped.
  bool dropped = false;   ///< Lost to a server failure.
  /// Abandoned by the overload controller because the pool had no compute
  /// for it before its deadline — a *computational outage*, the third
  /// outcome of the taxonomy (distinct from a fault drop and from a
  /// deadline miss, where the work did run but finished late).
  bool compute_outage = false;
  int cores_used = 1;     ///< Parallel width the job ran at.

  bool missed_deadline() const noexcept {
    return !dropped && !compute_outage && finish > job.deadline;
  }
  /// Completion latency relative to release; only valid when not dropped.
  sim::Time latency() const noexcept { return finish - job.release; }
};

class Executor {
 public:
  /// Called once per outcome, in completion order. A dropped outcome
  /// (`dropped` set) is a job lost to a server failure, which the
  /// controller may re-dispatch from here.
  using CompletionCallback = std::function<void(const JobOutcome&)>;

  Executor(sim::Engine& engine, std::vector<ServerSpec> specs,
           SchedPolicy policy);

  int num_servers() const noexcept { return static_cast<int>(servers_.size()); }
  const ServerSpec& spec(int server_id) const;
  SchedPolicy policy() const noexcept { return policy_; }

  /// Queues `job` on `server_id`. The job becomes runnable at
  /// max(job.release, now). A job arriving at a failed server is dropped
  /// on arrival.
  void submit(int server_id, const lte::SubframeJob& job);

  /// Fails a server: all queued and in-flight jobs are dropped.
  /// Deliver faults through faults::FaultInjector, not directly.
  void fail_server(int server_id);

  /// Brings a failed server back empty.
  void restore_server(int server_id);

  bool is_failed(int server_id) const;

  /// Degrades a server: jobs *started* from now on run at `factor` of the
  /// nominal per-core speed (the straggler case — the server still answers
  /// heartbeats). In-flight jobs keep their original completion time.
  void degrade_server(int server_id, double factor);

  /// Returns a degraded server to nominal speed.
  void restore_speed(int server_id);

  bool is_degraded(int server_id) const;
  double speed_factor(int server_id) const;

  /// Total work (gops) sitting in a server's pending queue — not yet
  /// started. A load-shedding controller uses this as the lower bound on
  /// how long a new submission would wait.
  double pending_gops(int server_id) const;

  /// Compute-pressure signal: the pending backlog expressed in TTIs of the
  /// server's (speed-adjusted) whole-server throughput. 0 = idle queue;
  /// 1.0 = a full subframe period of queued work — the natural unit for an
  /// overload controller, since sustained backlog > ~1 TTI means deadlines
  /// are about to slip.
  double backlog_ttis(int server_id) const;

  /// Records a computational outage for `job` without ever queueing it:
  /// the overload controller decided the server cannot finish it before
  /// its deadline and abandons the work to protect jobs that can still
  /// make theirs. Reported with compute_outage set and dropped clear, so
  /// HARQ accounting sees the loss but nothing resubmits it — drops mean
  /// fault-induced loss eligible for resubmission.
  void record_compute_outage(int server_id, const lte::SubframeJob& job);

  void set_completion_callback(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  /// All finished/dropped jobs in completion order.
  const std::vector<JobOutcome>& outcomes() const noexcept {
    return outcomes_;
  }

  /// Aggregate statistics of the recorded outcomes. The executor keeps
  /// them as one running tally, updated as each outcome is recorded, so
  /// reading them costs O(1) at any run length. They equal a rescan of
  /// outcomes() bit for bit: busy time is summed per outcome, in
  /// completion order.
  struct Stats {
    std::uint64_t completed = 0;
    std::uint64_t missed = 0;
    std::uint64_t dropped = 0;
    /// Jobs abandoned for lack of compute (never ran; see JobOutcome).
    std::uint64_t compute_outages = 0;
    double total_busy_seconds = 0.0;

    double miss_ratio() const noexcept {
      const auto denom = completed + dropped;
      return denom ? static_cast<double>(missed + dropped) /
                         static_cast<double>(denom)
                   : 0.0;
    }
    /// Fraction of offered jobs abandoned for lack of compute.
    double compute_outage_ratio() const noexcept {
      const auto denom = completed + dropped + compute_outages;
      return denom ? static_cast<double>(compute_outages) /
                         static_cast<double>(denom)
                   : 0.0;
    }
  };
  Stats stats() const noexcept { return stats_; }

  /// Busy fraction of a server's cores over [0, window]: its tallied busy
  /// time plus its in-flight jobs' time up to now(), over window × cores.
  /// Requires window >= the engine's now(); every recorded job finished by
  /// then, so the tally is exactly the busy time inside the window.
  double utilization(int server_id, sim::Time window) const;

 private:
  struct Running {
    lte::SubframeJob job;
    sim::Time start;
    std::uint64_t token;  ///< Unique per started job; keys completions.
    int width = 1;        ///< Cores this job occupies.
  };
  struct Server {
    ServerSpec spec;
    bool failed = false;
    /// Effective per-core speed multiplier (< 1 while degraded).
    double speed_factor = 1.0;
    std::deque<std::pair<std::uint64_t, lte::SubframeJob>> pending;
    std::vector<Running> running;  ///< size <= spec.cores
    /// Crash generation: fail_server() bumps it, so a completion scheduled
    /// before the crash recognises itself as stale and does nothing.
    std::uint64_t generation = 0;
    /// Core-seconds of this server's jobs that ran, summed in completion
    /// order (what utilization() reads).
    double busy_seconds = 0.0;
  };

  /// Appends `outcome` to the log, tallies it and reports it to the
  /// completion callback. The callback gets the caller's copy, not the
  /// log's: it may record another outcome, which can grow the log.
  void finish(const JobOutcome& outcome);
  int free_cores(const Server& s) const;
  void start_job(int server_id, const lte::SubframeJob& job);
  void on_job_done(int server_id, std::uint64_t token,
                   std::uint64_t generation);
  void dispatch(int server_id);
  Server& server(int server_id);
  const Server& server(int server_id) const;
  sim::Time exec_time(const Server& s, const lte::SubframeJob& job,
                      int width) const;

  sim::Engine& engine_;
  std::vector<Server> servers_;
  SchedPolicy policy_;
  std::uint64_t submit_seq_ = 0;
  std::uint64_t next_token_ = 0;
  std::vector<JobOutcome> outcomes_;
  Stats stats_;  ///< Tally of every recorded outcome.
  CompletionCallback on_complete_;
};

}  // namespace pran::cluster
