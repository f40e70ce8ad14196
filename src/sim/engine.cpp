#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace pran::sim {

void Engine::schedule_at(Time at, Handler handler) {
  PRAN_REQUIRE(at >= now_, "cannot schedule an event in the past");
  PRAN_REQUIRE(handler != nullptr, "event handler must be callable");
  heap_.push_back(Event{at, next_seq_++, std::move(handler)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Engine::schedule_in(Time delay, Handler handler) {
  PRAN_REQUIRE(delay >= 0, "event delay must be non-negative");
  schedule_at(now_ + delay, std::move(handler));
}

bool Engine::step() {
  if (heap_.empty()) return false;
  // Move the event out before running it so the handler can schedule
  // freely (which may reallocate the heap) while it runs.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  PRAN_CHECK(ev.at >= now_, "event queue produced a time in the past");
  now_ = ev.at;
  ++executed_;
  ev.handler();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(Time deadline) {
  PRAN_REQUIRE(deadline >= now_, "deadline is in the past");
  while (!heap_.empty() && heap_.front().at <= deadline) step();
  now_ = deadline;
}

}  // namespace pran::sim
