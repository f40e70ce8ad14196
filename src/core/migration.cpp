#include "core/migration.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace pran::core {

void validate(const MigrationConfig& config) {
  PRAN_REQUIRE(config.deadline > 0, "migration deadline must be positive");
}

MigrationManager::MigrationManager(const MigrationConfig& config,
                                   sim::Engine& engine,
                                   telemetry::MetricsRegistry& metrics,
                                   int num_cells, int num_servers,
                                   std::uint64_t seed)
    : config_(config),
      engine_(engine),
      metrics_(metrics),
      channel_(config.control_plane, seed),
      failed_(static_cast<std::size_t>(num_servers), false),
      last_exec_tti_(static_cast<std::size_t>(num_cells), -1),
      last_exec_server_(static_cast<std::size_t>(num_cells), -1) {
  validate(config_);
  PRAN_REQUIRE(num_cells >= 1, "migration manager needs cells");
  PRAN_REQUIRE(num_servers >= 1, "migration manager needs servers");
}

MigrationCounters MigrationManager::counters() const {
  const auto count = [this](std::string_view name) {
    return metrics_.counter_value(name);
  };
  MigrationCounters c;
  c.started = count("migration.started");
  c.committed = count("migration.committed");
  c.aborted = count("migration.aborted");
  c.rolled_back = count("migration.rolled_back");
  c.taken_over = count("migration.taken_over");
  c.retries = count("migration.retried");
  c.deferred = count("migration.deferred");
  c.deadline_expired = count("migration.deadline_expired");
  c.stale_messages = count("migration.stale_messages");
  c.retry_exhaustions = count("migration.retry_exhausted");
  c.blackout_ttis = count("migration.blackout_ttis");
  c.dual_executions = count("migration.dual_execution");
  c.handoff_latency_ms_sum = handoff_latency_ms_sum_;
  c.handoffs = handoffs_;
  return c;
}

MigrationManager::Migration* MigrationManager::find(int cell,
                                                    std::uint64_t id) {
  auto it = active_.find(cell);
  if (it == active_.end() || it->second.id != id) return nullptr;
  return &it->second;
}

sim::Time MigrationManager::backoff_delay(int attempts_done) const {
  // Exponential: backoff, 2*backoff, 4*backoff ... over at most
  // kMaxRetries + 1 sends.
  return kRetryBackoff * (sim::Time{1} << std::max(attempts_done - 1, 0));
}

void MigrationManager::count_stale() {
  PRAN_COUNTER_INC(metrics_, "migration.stale_messages");
}

MigrationManager::BeginResult MigrationManager::begin(int cell, int from,
                                                      int to) {
  PRAN_REQUIRE(cell >= 0 &&
                   cell < static_cast<int>(last_exec_tti_.size()),
               "unknown cell");
  PRAN_REQUIRE(from >= 0 && from < static_cast<int>(failed_.size()),
               "unknown source server");
  PRAN_REQUIRE(to >= 0 && to < static_cast<int>(failed_.size()),
               "unknown target server");
  PRAN_REQUIRE(from != to, "migration must change servers");
  PRAN_REQUIRE(config_.enabled, "migration manager is disabled");

  if (active_.count(cell) != 0) return BeginResult::kInFlight;
  {
    // A committed handoff may still be settling (target lease not yet
    // active): the cell stays busy until the blackout window closes.
    const auto it = leases_.find(cell);
    if (it != leases_.end() && it->second.target >= 0 &&
        engine_.now() < it->second.target_from)
      return BeginResult::kInFlight;
  }
  if (deferral_ || failed_[static_cast<std::size_t>(to)] ||
      failed_[static_cast<std::size_t>(from)]) {
    // Migration storms wait out shed/quarantine rungs; moves touching a
    // crashed server are left to failover / the next replan.
    PRAN_COUNTER_INC(metrics_, "migration.deferred");
    return BeginResult::kDeferred;
  }

  Migration m;
  m.id = next_id_++;
  m.cell = cell;
  m.from = from;
  m.to = to;
  m.started_at = engine_.now();
  m.record_index = history_.size();
  {
    MigrationRecord rec;
    rec.id = m.id;
    rec.cell = cell;
    rec.from = from;
    rec.to = to;
    rec.started_at = m.started_at;
    history_.push_back(rec);
  }
  PRAN_COUNTER_INC(metrics_, "migration.started");

  // The source holds the cell's lease (unbounded until a commit decision
  // fences it). The fencing token survives across migrations of the cell.
  Lease& lease = leases_[cell];
  lease.source = from;
  lease.source_until = kNever;
  lease.target = -1;
  lease.target_from = kNever;
  lease.resolved = false;

  auto [it, inserted] = active_.emplace(cell, m);
  PRAN_CHECK(inserted, "duplicate active migration");
  if (config_.make_before_break)
    start_two_phase(it->second);
  else
    start_instant(it->second);
  return BeginResult::kStarted;
}

void MigrationManager::start_two_phase(Migration& m) {
  const int cell = m.cell;
  const std::uint64_t id = m.id;
  // If the migration resolves first, on_deadline's find() no longer
  // matches its id and this event fires as a no-op.
  engine_.schedule_at(m.started_at + config_.deadline,
                      [this, cell, id] { on_deadline(cell, id); });
  attempt_prepare(cell, id);
}

void MigrationManager::start_instant(Migration& m) {
  // Naive baseline: ownership flips immediately and the soft-buffer state
  // streams *after* the switch (break-before-make) — the target is dark
  // for the whole transfer budget, and every dark TTI costs HARQ debt.
  m.state = MigrationState::kCommitting;
  m.token = ++token_counter_;
  record_of(m).token = m.token;
  leases_[m.cell].source_until = engine_.now();
  transfers_[m.cell] = kTransferTtis;
  grant_target(m, MigrationState::kCommitted,
               engine_.now() + kTransferTtis * sim::kTti);
}

void MigrationManager::attempt_prepare(int cell, std::uint64_t id) {
  Migration* m = find(cell, id);
  if (m == nullptr || m->state != MigrationState::kPreparing) return;
  if (m->attempts > kMaxRetries) {
    PRAN_COUNTER_INC(metrics_, "migration.retry_exhausted");
    resolve(*m, MigrationState::kAborted, "prepare retries exhausted",
            "retry_exhausted");
    return;
  }
  if (m->attempts > 0) {
    PRAN_COUNTER_INC(metrics_, "migration.retried");
    ++record_of(*m).retries;
  }
  const faults::ControlDelivery d = channel_.send(engine_.now());
  ++m->attempts;
  if (!d.lost)
    engine_.schedule_at(d.deliver_at,
                        [this, cell, id] { on_prepare_delivered(cell, id); });
  engine_.schedule_in(backoff_delay(m->attempts),
                      [this, cell, id] { attempt_prepare(cell, id); });
}

void MigrationManager::on_prepare_delivered(int cell, std::uint64_t id) {
  Migration* m = find(cell, id);
  if (m == nullptr || m->state != MigrationState::kPreparing) {
    count_stale();  // duplicate or reordered PREPARE: idempotently ignored
    return;
  }
  if (failed_[static_cast<std::size_t>(m->to)]) return;  // corpse: no ack
  const faults::ControlDelivery d = channel_.send(engine_.now());
  if (!d.lost)
    engine_.schedule_at(d.deliver_at,
                        [this, cell, id] { on_prepare_ack(cell, id); });
}

void MigrationManager::on_prepare_ack(int cell, std::uint64_t id) {
  Migration* m = find(cell, id);
  if (m == nullptr || m->state != MigrationState::kPreparing) {
    count_stale();  // duplicate ack after the transfer already started
    return;
  }
  m->state = MigrationState::kTransferring;
  record_of(*m).state = MigrationState::kTransferring;
  m->attempts = 0;
  // Meter the soft-buffer transfer over the fronthaul while the source
  // keeps executing (make-before-break).
  transfers_[cell] = kTransferTtis;
  engine_.schedule_in(kTransferTtis * sim::kTti,
                      [this, cell, id] { on_transfer_complete(cell, id); });
}

void MigrationManager::on_transfer_complete(int cell, std::uint64_t id) {
  Migration* m = find(cell, id);
  if (m == nullptr || m->state != MigrationState::kTransferring) return;
  m->state = MigrationState::kCommitting;
  record_of(*m).state = MigrationState::kCommitting;
  m->attempts = 0;
  // Commit decision: the controller stops renewing the source lease. The
  // source self-fences at the TTL with no message required — this is what
  // lets a lost COMMIT resolve by lease expiry instead of dual ownership.
  m->fence_at = engine_.now() + kLeaseTtl;
  m->token = ++token_counter_;
  record_of(*m).token = m->token;
  leases_[cell].source_until = m->fence_at;
  attempt_commit(cell, id);
}

void MigrationManager::attempt_commit(int cell, std::uint64_t id) {
  Migration* m = find(cell, id);
  if (m == nullptr || m->state != MigrationState::kCommitting) return;
  if (m->attempts > kMaxRetries) {
    PRAN_COUNTER_INC(metrics_, "migration.retry_exhausted");
    if (m->source_dead) {
      // Lease-expiry takeover: the target holds the complete state and
      // the source can never come back inside its lease — ownership
      // passes once the lease has provably expired.
      grant_target(*m, MigrationState::kTakenOver,
                   std::max(m->fence_at, engine_.now()));
    } else {
      // Source alive: re-grant it under a fresh fencing token so any
      // still-in-flight stale COMMIT bounces off the lease.
      Lease& l = leases_[cell];
      l.token = ++token_counter_;
      l.source_until = kNever;
      resolve(*m, MigrationState::kRolledBack, "commit retries exhausted",
              "retry_exhausted");
    }
    return;
  }
  if (m->attempts > 0) {
    PRAN_COUNTER_INC(metrics_, "migration.retried");
    ++record_of(*m).retries;
  }
  const std::uint64_t token = m->token;
  const faults::ControlDelivery d = channel_.send(engine_.now());
  ++m->attempts;
  if (!d.lost)
    engine_.schedule_at(d.deliver_at, [this, cell, id, token] {
      on_commit_delivered(cell, id, token);
    });
  engine_.schedule_in(backoff_delay(m->attempts),
                      [this, cell, id] { attempt_commit(cell, id); });
}

void MigrationManager::on_commit_delivered(int cell, std::uint64_t id,
                                           std::uint64_t token) {
  Migration* m = find(cell, id);
  if (m == nullptr || m->state != MigrationState::kCommitting) {
    // A reordered COMMIT outliving its migration (e.g. delivered after a
    // rollback re-granted the source). The fencing token is the defence:
    // the rollback bumped the lease past this message's token, so the
    // grant below would be stale — reject it, never double-own.
    const auto it = leases_.find(cell);
    PRAN_CHECK(it == leases_.end() || token <= it->second.token,
               "stale COMMIT carries a token newer than the lease");
    count_stale();
    return;
  }
  // The target may receive the COMMIT before the source lease expired; it
  // must still wait out the fence before executing.
  grant_target(*m, MigrationState::kCommitted,
               std::max(m->fence_at, engine_.now()));
}

void MigrationManager::on_deadline(int cell, std::uint64_t id) {
  Migration* m = find(cell, id);
  if (m == nullptr) return;  // resolved before its deadline
  switch (m->state) {
    case MigrationState::kPreparing:
      PRAN_COUNTER_INC(metrics_, "migration.deadline_expired");
      resolve(*m, MigrationState::kAborted, "deadline expired before transfer",
              "aborted");
      return;
    case MigrationState::kTransferring:
      // Deadline-expiry rollback: discard the partial transfer. The
      // source was never fenced during the transfer, so it simply keeps
      // the cell — zero blackout.
      PRAN_COUNTER_INC(metrics_, "migration.deadline_expired");
      resolve(*m, MigrationState::kRolledBack,
              "deadline expired during transfer", "rolled_back");
      return;
    case MigrationState::kCommitting:
      // The commit decision is made and the fence is ticking: interrupting
      // now could orphan the cell. Commit delivery, retry exhaustion or
      // takeover resolves it shortly.
      return;
    case MigrationState::kCommitted:
    case MigrationState::kAborted:
    case MigrationState::kRolledBack:
    case MigrationState::kTakenOver:
      break;
  }
  PRAN_CHECK(false, "deadline fired on a resolved migration");
}

void MigrationManager::grant_target(Migration& m, MigrationState final_state,
                                    sim::Time target_from) {
  Lease& l = leases_[m.cell];
  PRAN_CHECK(m.token > l.token, "fencing tokens must increase");
  l.token = m.token;
  l.target = m.to;
  l.target_from = target_from;
  l.resolved = true;
  // The placement flip is deferred one event: a grant decided inside
  // Controller::replan() (the naive instant path runs synchronously from
  // the migration sink) must not race the replan's own placement install.
  if (complete_cb_)
    engine_.schedule_in(0, [this, cell = m.cell, to = m.to] {
      complete_cb_(cell, to);
    });
  const double ms = sim::to_seconds(target_from - m.started_at) * 1e3;
  handoff_latency_ms_sum_ += ms;
  ++handoffs_;
  PRAN_HIST_OBSERVE(metrics_, "migration.handoff_latency_ms", ms);
  if (final_state == MigrationState::kCommitted)
    resolve(m, MigrationState::kCommitted, "", "committed");
  else
    resolve(m, MigrationState::kTakenOver, "source crashed after transfer",
            "taken_over");
}

void MigrationManager::resolve(Migration& m, MigrationState final_state,
                               std::string_view detail,
                               std::string_view event) {
  switch (final_state) {
    case MigrationState::kCommitted:
      PRAN_COUNTER_INC(metrics_, "migration.committed");
      break;
    case MigrationState::kAborted:
      PRAN_COUNTER_INC(metrics_, "migration.aborted");
      // An abort with a crashed source has no live claim to fall back to:
      // drop the lease authority so failover/replan placement governs.
      if (m.source_dead) leases_[m.cell].source = -1;
      break;
    case MigrationState::kRolledBack:
      PRAN_COUNTER_INC(metrics_, "migration.rolled_back");
      break;
    case MigrationState::kTakenOver:
      PRAN_COUNTER_INC(metrics_, "migration.taken_over");
      break;
    case MigrationState::kPreparing:
    case MigrationState::kTransferring:
    case MigrationState::kCommitting:
      PRAN_CHECK(false, "resolve() needs a terminal migration state");
      break;
  }
  MigrationRecord& rec = record_of(m);
  rec.state = final_state;
  rec.resolved_at = engine_.now();
  rec.detail = std::string(detail);
  // A failed migration stops charging transfer bits; whatever was already
  // streamed stays spent (the fibre carried it either way).
  if (final_state == MigrationState::kAborted ||
      final_state == MigrationState::kRolledBack)
    transfers_.erase(m.cell);
  const MigrationRecord snapshot = rec;
  active_.erase(m.cell);  // invalidates m
  if (event_cb_) event_cb_(snapshot, event);
}

MigrationManager::TickDecision MigrationManager::on_tick(
    int cell, int placement_server) {
  PRAN_REQUIRE(cell >= 0 && cell < static_cast<int>(last_exec_tti_.size()),
               "unknown cell");
  TickDecision out;
  const auto tit = transfers_.find(cell);
  if (tit != transfers_.end()) {
    out.transfer_bits = kTransferBits / kTransferTtis;
    if (--tit->second <= 0) transfers_.erase(tit);
  }
  const auto it = leases_.find(cell);
  if (it != leases_.end()) {
    Lease& l = it->second;
    if (l.target >= 0 && l.resolved && engine_.now() >= l.target_from) {
      // Handoff settled: the target becomes the cell's plain owner.
      l.source = l.target;
      l.source_until = kNever;
      l.target = -1;
      l.target_from = kNever;
      l.resolved = false;
    }
  }
  out.server = routed_server(cell, engine_.now(), placement_server);
  if (out.server < 0 && it != leases_.end() &&
      (active_.count(cell) != 0 || it->second.target >= 0)) {
    // Unowned because of a migration window (fence gap, takeover wait or
    // the naive baseline's dark transfer) — not a placement outage.
    out.blackout = true;
    PRAN_COUNTER_INC(metrics_, "migration.blackout_ttis");
  }
  return out;
}

int MigrationManager::routed_server(int cell, sim::Time now,
                                    int placement_server) const {
  const auto it = leases_.find(cell);
  if (it == leases_.end()) return placement_server;
  const Lease& l = it->second;
  if (l.target >= 0) {
    if (now >= l.target_from) return l.target;
    if (l.source >= 0 && now < l.source_until &&
        !failed_[static_cast<std::size_t>(l.source)])
      return l.source;
    return -1;  // blackout: fenced source, target lease not yet active
  }
  if (l.source >= 0 && now < l.source_until &&
      !failed_[static_cast<std::size_t>(l.source)])
    return l.source;
  // Mid-protocol gap (fenced or crashed source, no target granted yet):
  // nobody may execute. Without an active migration the lease is just a
  // settled relic and the controller's placement governs.
  return active_.count(cell) != 0 ? -1 : placement_server;
}

void MigrationManager::record_execution(int cell, std::int64_t tti,
                                        int server) {
  PRAN_REQUIRE(cell >= 0 && cell < static_cast<int>(last_exec_tti_.size()),
               "unknown cell");
  PRAN_REQUIRE(server >= 0, "execution grant needs a server");
  const auto c = static_cast<std::size_t>(cell);
  if (last_exec_tti_[c] == tti && last_exec_server_[c] != server) {
    PRAN_COUNTER_INC(metrics_, "migration.dual_execution");
    PRAN_CHECK(false, "dual execution: one cell-TTI granted to two servers");
  }
  last_exec_tti_[c] = tti;
  last_exec_server_[c] = server;
}

void MigrationManager::on_server_failed(int server) {
  PRAN_REQUIRE(server >= 0 && server < static_cast<int>(failed_.size()),
               "unknown server");
  failed_[static_cast<std::size_t>(server)] = true;
  // Deterministic fan-out: active_ iterates in cell order, never hash
  // order, so the channel's send sequence stays a pure seed function.
  std::vector<int> touched;
  for (const auto& [cell, m] : active_)
    if (m.from == server || m.to == server) touched.push_back(cell);
  for (const int cell : touched) {
    const auto it = active_.find(cell);
    if (it == active_.end()) continue;
    Migration& m = it->second;
    if (m.to == server) {
      switch (m.state) {
        case MigrationState::kPreparing:
        case MigrationState::kTransferring:
          resolve(m, MigrationState::kAborted, "target crashed", "aborted");
          break;
        case MigrationState::kCommitting:
          if (m.source_dead) {
            resolve(m, MigrationState::kAborted,
                    "source and target both crashed", "aborted");
          } else {
            // The target died before its lease began: re-grant the source
            // under a fresh token (fences any in-flight COMMIT).
            Lease& l = leases_[cell];
            l.token = ++token_counter_;
            l.source_until = kNever;
            resolve(m, MigrationState::kRolledBack,
                    "target crashed before takeover", "rolled_back");
          }
          break;
        case MigrationState::kCommitted:
        case MigrationState::kAborted:
        case MigrationState::kRolledBack:
        case MigrationState::kTakenOver:
          PRAN_CHECK(false, "resolved migration still active");
          break;
      }
      continue;
    }
    // Source crashed mid-migration.
    m.source_dead = true;
    switch (m.state) {
      case MigrationState::kPreparing:
        // No state at the target yet: abort; failover rescues the cell.
        resolve(m, MigrationState::kAborted, "source crashed before transfer",
                "aborted");
        break;
      case MigrationState::kTransferring:
        // A partial soft-buffer image is useless: abort; failover rescues.
        resolve(m, MigrationState::kAborted, "source crashed during transfer",
                "aborted");
        break;
      case MigrationState::kCommitting:
        // Transfer complete: leave the commit machinery running. Delivery
        // grants the target at max(fence, delivery); exhausted retries
        // become a lease-expiry takeover (source_dead is set). Either way
        // the cell stays with the manager — the failover filter skips it.
        break;
      case MigrationState::kCommitted:
      case MigrationState::kAborted:
      case MigrationState::kRolledBack:
      case MigrationState::kTakenOver:
        PRAN_CHECK(false, "resolved migration still active");
        break;
    }
  }
}

void MigrationManager::on_server_recovered(int server) {
  PRAN_REQUIRE(server >= 0 && server < static_cast<int>(failed_.size()),
               "unknown server");
  failed_[static_cast<std::size_t>(server)] = false;
}

bool MigrationManager::holds_failover(int cell) const {
  const auto it = active_.find(cell);
  return it != active_.end() &&
         it->second.state == MigrationState::kCommitting &&
         it->second.source_dead;
}

int MigrationManager::unresolved_cells() const noexcept {
  int n = static_cast<int>(active_.size());
  for (const auto& [cell, l] : leases_)
    if (l.target >= 0 && engine_.now() < l.target_from) ++n;
  return n;
}

std::uint64_t MigrationManager::lease_token(int cell) const {
  const auto it = leases_.find(cell);
  return it == leases_.end() ? 0 : it->second.token;
}

}  // namespace pran::core
