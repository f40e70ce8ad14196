#pragma once

/// \file migration.hpp
/// Crash-safe cell migration: the two-phase prepare -> transfer -> commit
/// handoff protocol that replaces the controller's free teleport when a
/// repartition moves a cell between servers (DESIGN §15).
///
/// Why a protocol at all: the paper's pooling gain assumes reconfigurations
/// are cheap, but a real handoff must move HARQ soft-buffer state over the
/// fronthaul, survive a lossy control plane, and guarantee that a cell is
/// never executed on two servers in the same TTI. The MigrationManager
/// makes all three explicit:
///
///   * two-phase handoff — PREPARE/PREPARE_ACK arm the target, a
///     kTransferTtis-long state transfer streams the soft buffers
///     (charged against the shared fronthaul), then COMMIT flips
///     ownership. The source keeps executing until its lease is fenced,
///     so the happy path has zero blackout (make-before-break);
///   * lease fencing — ownership is a (server, token) lease with
///     monotonically increasing tokens. At commit decision the controller
///     stops renewing the source lease: the source self-fences at
///     `commit decision + kLeaseTtl` with no message required, which is
///     how a lost COMMIT resolves (lease expiry), never by dual ownership.
///     A reordered stale COMMIT carries an old token and is rejected;
///   * bounded failure handling — per-migration deadline, bounded
///     exponential-backoff retries per message, abort (pre-transfer:
///     source simply keeps the cell), rollback (post-transfer: source is
///     re-granted under a fresh fencing token), and lease-expiry takeover
///     (source crashed after the transfer completed: the target waits out
///     the source lease, then assumes ownership).
///
/// The naive baseline (`make_before_break = false`) models today's
/// instant reassignment honestly: ownership flips immediately and the
/// target spends kTransferTtis dark while the state streams *after* the
/// switch — break-before-make. Every dark TTI is a real blackout that
/// costs HARQ debt, which is exactly the cost bench_e22 measures the
/// protocol against.
///
/// Dual execution (two servers granted the same cell-TTI) is a hard
/// `ContractViolation`; `migration.dual_execution` stays zero by
/// construction and the E22 bench asserts it.
///
/// Determinism: all message fates come from the ControlPlaneChannel's
/// fixed RNG substreams, internal containers iterate in cell order, and
/// every timer is derived from simulated time — a sweep over deployments
/// is invariant to worker-thread count.

#include <cstdint>
#include <functional>
#include <map>
#include <string_view>
#include <vector>

#include "faults/control_plane.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "telemetry/telemetry.hpp"

namespace pran::core {

/// Protocol state of one migration. Terminal states from kCommitted on.
enum class MigrationState {
  kPreparing,     ///< PREPARE sent, awaiting the target's ack.
  kTransferring,  ///< Soft-buffer state streaming to the target.
  kCommitting,    ///< COMMIT sent; source lease fences at its TTL.
  kCommitted,     ///< Target owns the cell.
  kAborted,       ///< Failed before transfer completed; source keeps it.
  kRolledBack,    ///< Failed after transfer; source re-granted (new token).
  kTakenOver,     ///< Source crashed post-transfer; target took over at
                  ///< source-lease expiry.
};

/// Source-lease TTL: how long after the commit decision the source may
/// still execute. A lost COMMIT resolves this much later at worst.
inline constexpr sim::Time kLeaseTtl = 20 * sim::kMillisecond;
/// State-transfer budget: the handoff streams the soft buffers over this
/// many TTIs, charging kTransferBits spread across them against the
/// shared fronthaul.
inline constexpr int kTransferTtis = 8;
inline constexpr double kTransferBits = 8.0e6;
/// Retries per protocol message beyond the first send.
inline constexpr int kMaxRetries = 3;
/// Backoff before the first retry; doubles per attempt.
inline constexpr sim::Time kRetryBackoff = 4 * sim::kMillisecond;
/// A migration still in flight this long past its deadline is overdue:
/// an orphaned cell, the protocol's liveness failure (see overdue()).
inline constexpr sim::Time kOverdueGrace = 200 * sim::kMillisecond;
static_assert(kTransferTtis >= 1, "the transfer spans at least one TTI");
static_assert(kRetryBackoff > 0, "each retry must come after its send");

struct MigrationConfig {
  /// Master switch: off keeps the legacy instant-teleport behaviour with
  /// no migration cost (existing benches and tests are unaffected).
  bool enabled = false;
  /// True: two-phase make-before-break protocol. False: naive instant
  /// reassignment baseline (flip first, stream state after, eat the
  /// blackout) — what bench_e22 compares against.
  bool make_before_break = true;
  /// A migration not committed this long after begin() is rolled back
  /// (or aborted when the transfer never started).
  sim::Time deadline = 200 * sim::kMillisecond;
  /// Controller <-> server command-channel impairments.
  faults::ControlPlaneImpairmentConfig control_plane;
};

void validate(const MigrationConfig& config);

/// Protocol outcome counts: a view of the `migration.*` counters in the
/// manager's registry, plus the handoff-latency sum behind the mean.
struct MigrationCounters {
  std::uint64_t started = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t rolled_back = 0;
  std::uint64_t taken_over = 0;
  std::uint64_t retries = 0;
  std::uint64_t deferred = 0;       ///< begin() refused: shed/quarantine rung.
  std::uint64_t deadline_expired = 0;
  std::uint64_t stale_messages = 0;  ///< Fenced duplicates / reordered strays.
  std::uint64_t retry_exhaustions = 0;
  std::uint64_t blackout_ttis = 0;   ///< Cell-TTIs with no owning server.
  std::uint64_t dual_executions = 0; ///< Must stay zero.
  double handoff_latency_ms_sum = 0.0;  ///< Over committed + taken-over.
  std::uint64_t handoffs = 0;

  double mean_handoff_latency_ms() const noexcept {
    return handoffs ? handoff_latency_ms_sum / static_cast<double>(handoffs)
                    : 0.0;
  }
};

class MigrationManager {
 public:
  enum class BeginResult {
    kStarted,   ///< Migration admitted and under way.
    kInFlight,  ///< Cell already migrating; the plan retries next epoch.
    kDeferred,  ///< Refused (deferral window or dead target).
  };

  /// Per-TTI routing decision for one cell (see on_tick).
  struct TickDecision {
    int server = -1;        ///< Executing server; -1 = no owner this TTI.
    bool blackout = false;  ///< True: unowned because of a migration window.
    double transfer_bits = 0.0;  ///< State-transfer bits to charge the
                                 ///< fronthaul with this TTI.
  };

  /// Counts every protocol event into `metrics` (the deployment's
  /// registry), which must outlive the manager.
  MigrationManager(const MigrationConfig& config, sim::Engine& engine,
                   telemetry::MetricsRegistry& metrics, int num_cells,
                   int num_servers, std::uint64_t seed);

  /// Called when a migration resolves with a new owner (commit, takeover,
  /// or instant flip): the deployment points the controller's placement
  /// at the new server.
  void set_complete_callback(std::function<void(int cell, int server)> cb) {
    complete_cb_ = std::move(cb);
  }
  /// Observer for terminal protocol events ("committed", "aborted",
  /// "rolled_back", "taken_over", "retry_exhausted") — the flight
  /// recorder's hook. `detail` names the failure reason; it is empty for
  /// a commit.
  using EventCallback = std::function<void(int cell, std::string_view event,
                                           std::string_view detail)>;
  void set_event_callback(EventCallback cb) { event_cb_ = std::move(cb); }

  /// Starts (or refuses) a handoff of `cell` from `from` to `to`.
  BeginResult begin(int cell, int from, int to);

  /// Degradation-ladder gate: while set, begin() defers every new
  /// migration (storms wait out shed/quarantine rungs).
  void set_deferral(bool deferred) noexcept { deferral_ = deferred; }
  bool deferral() const noexcept { return deferral_; }

  /// The routing decision for `cell` at the current TTI;
  /// `placement_server` is the controller's mapping, used when no lease is
  /// active. Counts blackout TTIs and meters out state-transfer bits —
  /// call exactly once per (cell, TTI).
  TickDecision on_tick(int cell, int placement_server);

  /// Side-effect-free routing (HARQ retransmissions and the failover drop
  /// path): where `cell` executes at `now`, -1 when unowned.
  int routed_server(int cell, sim::Time now, int placement_server) const;

  /// Registers an actual execution grant. Granting one cell-TTI to two
  /// servers is the protocol's hard invariant: ContractViolation.
  void record_execution(int cell, std::int64_t tti, int server);

  /// Fault-plane notifications (crash handling: abort, rollback or
  /// lease-expiry takeover). Call *before* Controller::handle_failure so
  /// the failover filter sees up-to-date migration state.
  void on_server_failed(int server);
  void on_server_recovered(int server);

  /// True when the manager (not epoch failover) resolves this cell's fate
  /// after its source crashed — Controller::handle_failure must skip it.
  bool holds_failover(int cell) const;

  int in_flight() const noexcept { return static_cast<int>(active_.size()); }
  /// Cells still carrying an unresolved lease entry or an active
  /// migration: must be zero once the system has drained (no orphans).
  int unresolved_cells() const noexcept;
  /// In-flight migrations that began more than `deadline + kOverdueGrace`
  /// ago: orphaned cells that neither committed nor failed in time.
  int overdue() const noexcept;

  MigrationCounters counters() const;
  const faults::ControlPlaneChannel& channel() const noexcept {
    return channel_;
  }
  /// Highest fencing token granted so far for `cell` (0 = never leased).
  std::uint64_t lease_token(int cell) const;

 private:
  static constexpr sim::Time kNever = sim::Time(0x7FFFFFFFFFFFFFFFLL);

  /// Ownership lease for one cell. The source may execute while
  /// now < source_until (and it is alive); the target from target_from.
  /// Grants only move forward in token order — stale COMMITs bounce.
  struct Lease {
    std::uint64_t token = 0;
    int source = -1;
    sim::Time source_until = kNever;
    int target = -1;
    sim::Time target_from = kNever;
    bool resolved = false;  ///< Terminal: GC once the target is active.
  };

  struct Migration {
    std::uint64_t id = 0;
    int cell = -1;
    int from = -1;
    int to = -1;
    MigrationState state = MigrationState::kPreparing;
    sim::Time started_at = 0;
    sim::Time fence_at = kNever;  ///< commit decision + kLeaseTtl.
    std::uint64_t token = 0;      ///< Target's fencing token (commit phase).
    int attempts = 0;             ///< Sends of the current phase's message.
    bool source_dead = false;
  };

  Migration* find(int cell, std::uint64_t id);
  sim::Time backoff_delay(int attempts_done) const;
  void start_two_phase(Migration& m);
  void start_instant(Migration& m);
  void attempt_prepare(int cell, std::uint64_t id);
  void on_prepare_delivered(int cell, std::uint64_t id);
  void on_prepare_ack(int cell, std::uint64_t id);
  void on_transfer_complete(int cell, std::uint64_t id);
  void attempt_commit(int cell, std::uint64_t id);
  void on_commit_delivered(int cell, std::uint64_t id, std::uint64_t token);
  void on_deadline(int cell, std::uint64_t id);
  void grant_target(Migration& m, MigrationState final_state,
                    sim::Time target_from);
  void resolve(Migration& m, MigrationState final_state,
               std::string_view detail, std::string_view event);
  void count_stale();

  MigrationConfig config_;
  sim::Engine& engine_;
  telemetry::MetricsRegistry& metrics_;
  faults::ControlPlaneChannel channel_;
  std::function<void(int, int)> complete_cb_;
  EventCallback event_cb_;
  bool deferral_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t token_counter_ = 0;
  /// std::map (not unordered) so crash fan-out iterates in cell order —
  /// the channel's send sequence must not depend on hash order.
  std::map<int, Migration> active_;
  std::map<int, Lease> leases_;
  /// TTIs of state transfer left per cell; each TTI charges an even
  /// share of kTransferBits.
  std::map<int, int> transfers_;
  std::vector<bool> failed_;  ///< Per-server crash state (index = server).
  /// Last execution grant per cell, for the dual-execution invariant.
  std::vector<std::int64_t> last_exec_tti_;
  std::vector<int> last_exec_server_;
  /// Over committed + taken-over migrations. Kept here rather than
  /// rebuilt from the `migration.handoff_latency_ms` histogram, whose
  /// fixed-point sum rounds each observation to a microunit.
  double handoff_latency_ms_sum_ = 0.0;
  std::uint64_t handoffs_ = 0;
};

}  // namespace pran::core
