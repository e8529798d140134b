// Unit tests for the discrete-event simulation kernel (psme::sim).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace psme::sim {
namespace {

using namespace std::chrono_literals;

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), kSimStart);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime{30ns}, [&] { order.push_back(3); });
  sched.schedule_at(SimTime{10ns}, [&] { order.push_back(1); });
  sched.schedule_at(SimTime{20ns}, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime{30ns});
}

TEST(Scheduler, BreaksTiesByInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(SimTime{5ns}, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler sched;
  sched.schedule_at(SimTime{10ns}, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(SimTime{5ns}, [] {}), std::logic_error);
}

TEST(Scheduler, EmptyActionThrows) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_at(SimTime{1ns}, Scheduler::Action{}),
               std::invalid_argument);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool ran = false;
  const EventId id = sched.schedule_in(10ns, [&] { ran = true; });
  EXPECT_TRUE(sched.cancel(id));
  sched.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelUnknownIdIsNoop) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(12345));
  EXPECT_FALSE(sched.cancel(0));
}

TEST(Scheduler, DoubleCancelReturnsFalse) {
  Scheduler sched;
  const EventId id = sched.schedule_in(10ns, [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler sched;
  int ran = 0;
  const EventId fired = sched.schedule_in(10ns, [&] { ++ran; });
  EventId self = 0;
  bool self_cancel = true;
  self = sched.schedule_in(20ns, [&] { self_cancel = sched.cancel(self); });
  sched.run();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(sched.cancel(fired));
  EXPECT_FALSE(self_cancel);  // an event cannot cancel itself mid-run
  EXPECT_FALSE(sched.cancel(self));

  sched.schedule_in(5ns, [&] { ++ran; });
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sched.pending(), 0u);
}

// A callable that counts its copies; moves are free.
struct CopyCounter {
  int* copies;
  int* calls;
  CopyCounter(int* copies_in, int* calls_in)
      : copies(copies_in), calls(calls_in) {}
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), calls(other.calls) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  void operator()() const { ++*calls; }
};

TEST(Scheduler, StepNeverCopiesAnAction) {
  Scheduler sched;
  Rng rng(5150);
  int copies = 0;
  int calls = 0;
  for (int i = 0; i < 64; ++i) {
    const SimTime at{static_cast<std::int64_t>(rng.uniform(0, 40))};
    sched.schedule_at(at, Scheduler::Action(CopyCounter(&copies, &calls)));
  }
  const int after_scheduling = copies;
  EXPECT_EQ(sched.run(), 64u);
  EXPECT_EQ(calls, 64);
  EXPECT_EQ(copies, after_scheduling);
}

// Property: with many equal timestamps, cancellations (of pending, fired
// and already-cancelled events) and events that schedule more events at
// now(), execution order is exactly (time, insertion order) — the stable
// sort by time of every event that was scheduled and not cancelled.
TEST(Scheduler, ExecutesInTimeThenInsertionOrderUnderChurn) {
  for (const std::uint64_t seed : {3u, 17u, 2024u}) {
    Scheduler sched;
    Rng rng(seed);
    enum class State { kPending, kFired, kCancelled };
    struct Record {
      SimTime at;
      EventId id;
      State state;
    };
    std::vector<Record> records;  // index = insertion order
    std::vector<std::size_t> executed;

    std::function<void(SimTime)> add = [&](SimTime at) {
      const std::size_t index = records.size();
      records.push_back(Record{at, 0, State::kPending});
      records[index].id = sched.schedule_at(at, [&, index] {
        records[index].state = State::kFired;
        executed.push_back(index);
        if (records.size() < 600 && rng.chance(0.3)) add(sched.now());
        if (records.size() < 600 && rng.chance(0.3)) {
          add(sched.now() + SimDuration{
                                static_cast<std::int64_t>(rng.uniform(0, 3))});
        }
        if (rng.chance(0.25)) {
          Record& victim = records[rng.uniform(0, records.size() - 1)];
          const bool cancelled = sched.cancel(victim.id);
          EXPECT_EQ(cancelled, victim.state == State::kPending);
          if (cancelled) victim.state = State::kCancelled;
        }
      });
    };
    for (int i = 0; i < 200; ++i) {
      add(SimTime{static_cast<std::int64_t>(rng.uniform(0, 20))});
    }
    sched.run();

    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_NE(records[i].state, State::kPending) << "event " << i;
      if (records[i].state == State::kFired) expected.push_back(i);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return records[a].at < records[b].at;
                     });
    EXPECT_EQ(executed, expected) << "seed " << seed;
    EXPECT_EQ(sched.pending(), 0u);
    EXPECT_EQ(sched.executed(), executed.size());
  }
}

TEST(Scheduler, RunUntilAdvancesClockToDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(SimTime{5ns}, [&] { ++fired; });
  sched.schedule_at(SimTime{50ns}, [&] { ++fired; });
  const std::size_t executed = sched.run_until(SimTime{10ns});
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), SimTime{10ns});
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, EventsCanScheduleFurtherEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.schedule_in(1ns, recurse);
  };
  sched.schedule_in(1ns, recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sched.executed(), 5u);
}

TEST(PeriodicTask, FiresAtFixedCadence) {
  Scheduler sched;
  int count = 0;
  PeriodicTask task(sched, SimTime{0ns}, SimDuration{10ns}, [&] { ++count; });
  sched.run_until(SimTime{95ns});
  EXPECT_EQ(count, 10);  // t = 0, 10, ..., 90
  EXPECT_EQ(task.fired(), 10u);
}

TEST(PeriodicTask, StopFromInsideBody) {
  Scheduler sched;
  int count = 0;
  PeriodicTask task(
      sched, SimTime{0ns}, SimDuration{10ns},
      [&] {
        if (++count == 3) task.stop();
      });
  sched.run_until(SimTime{1000ns});
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, SelfStopLeavesLaterEventsRunning) {
  Scheduler sched;
  int count = 0;
  PeriodicTask task(
      sched, SimTime{0ns}, SimDuration{10ns},
      [&] {
        if (++count == 2) task.stop();
      });
  std::vector<SimTime> later;
  for (int i = 1; i <= 5; ++i) {
    sched.schedule_at(SimTime{std::chrono::nanoseconds{15 * i}},
                      [&] { later.push_back(sched.now()); });
  }
  sched.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(later, (std::vector<SimTime>{SimTime{15ns}, SimTime{30ns},
                                         SimTime{45ns}, SimTime{60ns},
                                         SimTime{75ns}}));
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.executed(), 7u);
}

TEST(PeriodicTask, NonPositivePeriodThrows) {
  Scheduler sched;
  EXPECT_THROW(PeriodicTask(sched, SimTime{0ns}, SimDuration{0ns}, [] {}),
               std::invalid_argument);
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.25);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(17);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Trace, FiltersBelowMinLevel) {
  Trace trace(TraceLevel::kSecurity);
  trace.record(SimTime{1ns}, TraceLevel::kDebug, "x", "dropped");
  trace.record(SimTime{2ns}, TraceLevel::kSecurity, "x", "kept");
  trace.record(SimTime{3ns}, TraceLevel::kError, "y", "kept too");
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.count(TraceLevel::kSecurity), 1u);
  EXPECT_EQ(trace.count_component("y"), 1u);
}

TEST(Trace, RenderContainsComponentAndMessage) {
  Trace trace(TraceLevel::kDebug);
  trace.record(SimTime{1500000ns}, TraceLevel::kInfo, "can.bus", "hello");
  const std::string out = trace.render();
  EXPECT_NE(out.find("can.bus"), std::string::npos);
  EXPECT_NE(out.find("hello"), std::string::npos);
  EXPECT_NE(out.find("1.5ms"), std::string::npos);
}

TEST(Trace, ForEachFiltersByComponent) {
  Trace trace(TraceLevel::kDebug);
  trace.record(SimTime{}, TraceLevel::kInfo, "a", "1");
  trace.record(SimTime{}, TraceLevel::kInfo, "b", "2");
  int seen = 0;
  trace.for_each("a", [&](const TraceEntry&) { ++seen; });
  EXPECT_EQ(seen, 1);
  seen = 0;
  trace.for_each("", [&](const TraceEntry&) { ++seen; });
  EXPECT_EQ(seen, 2);
}

// Property: run_until never executes events beyond the deadline, for
// arbitrary interleavings of schedule times.
class SchedulerDeadlineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerDeadlineProperty, NoEventBeyondDeadline) {
  Scheduler sched;
  Rng rng(GetParam());
  std::vector<SimTime> fired;
  for (int i = 0; i < 200; ++i) {
    const SimTime at{static_cast<std::int64_t>(rng.uniform(0, 1000))};
    sched.schedule_at(at, [&fired, &sched] { fired.push_back(sched.now()); });
  }
  const SimTime deadline{500ns};
  sched.run_until(deadline);
  for (const SimTime t : fired) EXPECT_LE(t, deadline);
  // Remaining events are all strictly later... or equal-time events that
  // were already executed; completing the run fires the rest.
  const std::size_t before = fired.size();
  sched.run();
  EXPECT_EQ(fired.size(), 200u);
  for (std::size_t i = before; i < fired.size(); ++i) {
    EXPECT_GT(fired[i], deadline);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDeadlineProperty,
                         ::testing::Values(1, 2, 3, 42, 99, 12345));

}  // namespace
}  // namespace psme::sim
