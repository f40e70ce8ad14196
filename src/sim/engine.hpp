#pragma once

/// \file engine.hpp
/// Deterministic discrete-event simulation engine.
///
/// The engine owns a binary heap of (time, sequence, callback) events.
/// Ties at the same timestamp are broken by insertion order, which makes
/// whole-cluster simulations reproducible run to run. Handlers may schedule
/// further events. Every scheduled event fires: a handler whose event has
/// been overtaken (a crashed server's completion, a resolved migration's
/// deadline) recognises that itself and returns without effect.

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace pran::sim {

class Engine {
 public:
  using Handler = std::function<void()>;

  /// Current simulated time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedules `handler` to fire at absolute time `at` (>= now()).
  void schedule_at(Time at, Handler handler);

  /// Schedules `handler` to fire `delay` (>= 0) after now().
  void schedule_in(Time delay, Handler handler);

  /// Runs the next event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains.
  void run();

  /// Runs events with time <= deadline, then advances the clock to
  /// `deadline` even if the queue drained earlier.
  void run_until(Time deadline);

  /// Total events executed so far, including handlers that found their
  /// event overtaken and returned without effect.
  std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    Handler handler;
  };
  /// Heap order: the earliest event, FIFO among simultaneous ones, on top.
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Event> heap_;
};

}  // namespace pran::sim
