#include "faults/injector.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pran::faults {

const char* fault_kind_name(FaultKind kind) noexcept {
  // Exhaustive on purpose — no default: -Werror=switch turns a new
  // FaultKind into a compile error here instead of a silent "?".
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kDegrade:
      return "degrade";
  }
  return "?";  // Unreachable; keeps -Wreturn-type quiet.
}

FaultInjector::FaultInjector(sim::Engine& engine, cluster::Executor& executor,
                             std::uint64_t seed)
    : engine_(engine), executor_(executor), rng_root_(seed) {
  const std::size_t n = static_cast<std::size_t>(executor_.num_servers());
  states_.assign(n, State::kHealthy);
  open_record_.assign(n, -1);
  streams_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) streams_.push_back(rng_root_.stream(s));
}

FaultInjector::State& FaultInjector::state(int server_id) {
  PRAN_REQUIRE(server_id >= 0 && server_id < executor_.num_servers(),
               "fault injector: unknown server id");
  return states_[static_cast<std::size_t>(server_id)];
}

bool FaultInjector::is_down(int server_id) const {
  PRAN_REQUIRE(server_id >= 0 && server_id < executor_.num_servers(),
               "fault injector: unknown server id");
  return states_[static_cast<std::size_t>(server_id)] == State::kDown;
}

bool FaultInjector::is_degraded(int server_id) const {
  PRAN_REQUIRE(server_id >= 0 && server_id < executor_.num_servers(),
               "fault injector: unknown server id");
  return states_[static_cast<std::size_t>(server_id)] == State::kDegraded;
}

void FaultInjector::schedule(const FaultEvent& event) {
  PRAN_REQUIRE(!event.servers.empty(), "fault event names no servers");
  PRAN_REQUIRE(event.at >= engine_.now(), "fault event time is in the past");
  PRAN_REQUIRE(event.duration >= 0, "fault duration must be non-negative");
  if (event.kind == FaultKind::kDegrade)
    PRAN_REQUIRE(event.degrade_factor > 0.0 && event.degrade_factor <= 1.0,
                 "degrade factor outside (0, 1]");
  for (int server_id : event.servers) {
    PRAN_REQUIRE(server_id >= 0 && server_id < executor_.num_servers(),
                 "fault event names an unknown server");
    const FaultKind kind = event.kind;
    const double factor = event.degrade_factor;
    engine_.schedule_at(event.at, [this, server_id, kind, factor] {
      deliver_fault(server_id, kind, factor);
    });
    if (event.duration > 0) schedule_restore(event.at + event.duration, server_id);
  }
}

void FaultInjector::schedule_restore(sim::Time at, int server_id) {
  PRAN_REQUIRE(server_id >= 0 && server_id < executor_.num_servers(),
               "restore names an unknown server");
  PRAN_REQUIRE(at >= engine_.now(), "restore time is in the past");
  engine_.schedule_at(at, [this, server_id] { deliver_restore(server_id); });
}

void FaultInjector::deliver_fault(int server_id, FaultKind kind,
                                  double degrade_factor) {
  State& st = state(server_id);
  if (st == State::kDown) return;  // already down: idempotent no-op
  switch (kind) {
    case FaultKind::kDegrade:
      if (st == State::kDegraded) return;  // already degraded
      if (on_fault_) on_fault_(server_id, kind);
      executor_.degrade_server(server_id, degrade_factor);
      st = State::kDegraded;
      ++degrade_faults_;
      break;
    case FaultKind::kCrash:
      // A crash supersedes any degradation in effect: close that record.
      if (st == State::kDegraded) {
        executor_.restore_speed(server_id);
        log_[static_cast<std::size_t>(
                 open_record_[static_cast<std::size_t>(server_id)])]
            .recovered_at = engine_.now();
      }
      // Listener first (oracle-mode re-placement), then the actual loss, so
      // the executor reports each dropped job under the post-failover
      // placement.
      if (on_fault_) on_fault_(server_id, kind);
      executor_.fail_server(server_id);
      st = State::kDown;
      ++crash_faults_;
      break;
  }
  ++faults_delivered_;
  open_record_[static_cast<std::size_t>(server_id)] =
      static_cast<int>(log_.size());
  log_.push_back(FaultRecord{kind, server_id, engine_.now(), -1});
}

void FaultInjector::deliver_restore(int server_id) {
  State& st = state(server_id);
  if (st == State::kHealthy) return;  // already healthy: idempotent no-op
  const int rec = open_record_[static_cast<std::size_t>(server_id)];
  PRAN_CHECK(rec >= 0 && rec < static_cast<int>(log_.size()),
             "faulted server has no open fault record");
  const FaultKind kind = log_[static_cast<std::size_t>(rec)].kind;
  switch (st) {
    case State::kHealthy:
      return;  // Handled above; case kept so the switch stays exhaustive.
    case State::kDown:
      executor_.restore_server(server_id);
      break;
    case State::kDegraded:
      executor_.restore_speed(server_id);
      break;
  }
  log_[static_cast<std::size_t>(rec)].recovered_at = engine_.now();
  open_record_[static_cast<std::size_t>(server_id)] = -1;
  st = State::kHealthy;
  if (on_recovery_) on_recovery_(server_id, kind);
}

void FaultInjector::arm_stochastic(const StochasticFaultConfig& config) {
  PRAN_REQUIRE(config.enabled(), "stochastic config has mtbf_seconds == 0");
  PRAN_REQUIRE(config.mttr_seconds > 0.0, "mttr must be positive");
  PRAN_REQUIRE(!stochastic_armed_, "stochastic faults already armed");
  stochastic_ = config;
  stochastic_armed_ = true;
  for (int s = 0; s < executor_.num_servers(); ++s)
    schedule_next_stochastic_fault(s);
}

void FaultInjector::schedule_next_stochastic_fault(int server_id) {
  Rng& rng = streams_[static_cast<std::size_t>(server_id)];
  const sim::Time dt =
      sim::from_seconds(rng.exponential(1.0 / stochastic_.mtbf_seconds));
  engine_.schedule_in(std::max<sim::Time>(dt, 1),
                      [this, server_id] { stochastic_fault(server_id); });
}

void FaultInjector::stochastic_fault(int server_id) {
  // Every draw happens unconditionally and in a fixed order on the
  // server's own substream, so the fault timeline depends only on
  // (seed, server id) — never on cross-server event interleaving. The
  // first and third draws decide nothing; they hold the repair and
  // next-failure draws at their place in the sequence, so each seed keeps
  // the crash timeline its recorded fingerprints were taken from.
  Rng& rng = streams_[static_cast<std::size_t>(server_id)];
  (void)rng.uniform();
  const double repair_s =
      rng.exponential(1.0 / stochastic_.mttr_seconds);
  (void)rng.uniform();
  const sim::Time next_dt =
      sim::from_seconds(rng.exponential(1.0 / stochastic_.mtbf_seconds));
  const sim::Time repair = std::max<sim::Time>(sim::from_seconds(repair_s), 1);

  deliver_fault(server_id, FaultKind::kCrash, /*degrade_factor=*/1.0);
  schedule_restore(engine_.now() + repair, server_id);
  engine_.schedule_in(repair + std::max<sim::Time>(next_dt, 1),
                      [this, server_id] { stochastic_fault(server_id); });
}

}  // namespace pran::faults
