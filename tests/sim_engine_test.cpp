// Tests for the discrete-event engine.

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace pran::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
  EXPECT_EQ(e.executed_events(), 3u);
}

TEST(Engine, SimultaneousEventsAreFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    e.schedule_at(100, [&, i] { order.push_back(i); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, HandlersMayScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) e.schedule_in(5, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(e.now(), 45);
}

TEST(Engine, RunUntilAdvancesClockPastQuietPeriods) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] { ++fired; });
  e.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, RunUntilLeavesLaterEventsPending) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] { ++fired; });
  e.schedule_at(200, [&] { ++fired; });
  e.run_until(100);
  EXPECT_EQ(fired, 1);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RejectsPastScheduling) {
  Engine e;
  e.schedule_at(50, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(10, [] {}), pran::ContractViolation);
  EXPECT_THROW(e.schedule_in(-1, [] {}), pran::ContractViolation);
}

TEST(Engine, RejectsNullHandler) {
  Engine e;
  EXPECT_THROW(e.schedule_at(1, nullptr), pran::ContractViolation);
}

TEST(Engine, StepReturnsFalseWhenDrained) {
  Engine e;
  e.schedule_at(5, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, StressRandomScheduleIsMonotone) {
  Engine e;
  pran::Rng rng(99);
  std::vector<Time> fire_times;
  // Seed a chain of random future events, some self-scheduling.
  std::function<void(int)> spawn = [&](int depth) {
    fire_times.push_back(e.now());
    if (depth > 0) {
      const int fanout = static_cast<int>(rng.uniform_int(0, 2));
      for (int i = 0; i < fanout; ++i)
        e.schedule_in(rng.uniform_int(0, 50), [&, depth] { spawn(depth - 1); });
    }
  };
  for (int i = 0; i < 50; ++i)
    e.schedule_at(rng.uniform_int(0, 100), [&] { spawn(4); });
  e.run();
  for (std::size_t i = 1; i < fire_times.size(); ++i)
    EXPECT_GE(fire_times[i], fire_times[i - 1]);
}

TEST(Time, ConversionHelpers) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_microseconds(kMillisecond), 1000.0);
  EXPECT_EQ(from_microseconds(25.0), 25'000);
  EXPECT_EQ(kTti, kMillisecond);
}

}  // namespace
}  // namespace pran::sim
