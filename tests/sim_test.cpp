// Unit tests for the discrete-event kernel: event ordering, cancellation,
// clock semantics, RNG stream independence, and the trace log.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runner/world.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "sim/types.hpp"

namespace dca::sim {
namespace {

TEST(Types, DurationConstructors) {
  EXPECT_EQ(microseconds(7), 7);
  EXPECT_EQ(milliseconds(3), 3000);
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_EQ(minutes(1), 60'000'000);
}

TEST(Types, FromSecondsTruncatesAndClamps) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
  EXPECT_EQ(from_seconds(0.0), 0);
  EXPECT_EQ(from_seconds(-3.0), 0);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(to_milliseconds(2'500), 2.5);
}

// -- ShardQueue: one shard's pending set, ordered by canonical key --------

EventKey key_at(SimTime when, std::uint64_t seq) {
  EventKey k;
  k.when = when;
  k.seq = seq;
  return k;
}

TEST(EventQueue, FiresInTimeOrder) {
  ShardQueue q;
  std::vector<int> fired;
  q.schedule(key_at(30, 1), [&] { fired.push_back(3); });
  q.schedule(key_at(10, 2), [&] { fired.push_back(1); });
  q.schedule(key_at(20, 3), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakBySchedulingOrder) {
  // Same instant, same owner and class: the owner's scheduling counter
  // (key.seq) is the tie-break.
  ShardQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule(key_at(42, static_cast<std::uint64_t>(i) + 1),
               [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  ShardQueue q;
  bool ran = false;
  const EventId id = q.schedule(key_at(5, 1), [&] { ran = true; });
  q.schedule(key_at(6, 2), [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().action();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelledHeadIsSkippedByNextTime) {
  ShardQueue q;
  const EventId id = q.schedule(key_at(5, 1), [] {});
  q.schedule(key_at(9, 2), [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_key().when, 9);
}

TEST(EventQueue, CancelAfterFireDoesNotCorruptLiveCount) {
  // Regression: cancelling an id that already fired used to insert a
  // tombstone and decrement the live count, making empty() report true
  // while a real event was still pending.
  ShardQueue q;
  const EventId fired = q.schedule(key_at(1, 1), [] {});
  q.pop().action();          // `fired` is gone
  bool ran = false;
  q.schedule(key_at(2, 2), [&] { ran = true; });
  q.cancel(fired);           // stale handle: must be a true no-op
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 1u);
  ASSERT_FALSE(q.empty());
  q.pop().action();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelTwiceAndCancelInvalidAreNoops) {
  ShardQueue q;
  const EventId id = q.schedule(key_at(5, 1), [] {});
  q.cancel(id);
  q.cancel(id);
  q.cancel(kInvalidEventId);
  EXPECT_TRUE(q.empty());
}

// -- ShardedKernel clock semantics, on one shard ----------------------------

/// A one-shard kernel plus the scheduling counter a world keeps per cell.
struct OneShard {
  ShardedKernel k{1, 1, /*lookahead=*/1, /*n_threads=*/1};
  std::uint64_t seq = 0;

  template <typename F>
  EventId at(SimTime when, F&& f) {
    return k.schedule(key_at(when, ++seq), std::forward<F>(f));
  }
  template <typename F>
  EventId in(Duration delay, F&& f) {
    return at(k.now(0) + delay, std::forward<F>(f));
  }
  [[nodiscard]] SimTime now() const { return k.now(0); }
};

TEST(Simulator, NowAdvancesToEventTime) {
  OneShard s;
  SimTime seen = -1;
  s.in(100, [&] { seen = s.now(); });
  s.k.run_to_quiescence();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(s.now(), 100);
}

TEST(Simulator, NegativeDelayMeansNow) {
  // The world's step clock: a negative schedule_in delay fires at now().
  runner::ScenarioConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.interference_radius = 1;
  cfg.cluster = 3;
  cfg.n_channels = 9;
  runner::World w(cfg, runner::Scheme::kFca);
  w.schedule_in(0, 50, [] {});
  w.run_to_quiescence();
  SimTime seen = -1;
  w.schedule_in(0, -10, [&] { seen = w.now(); });
  w.run_to_quiescence();
  EXPECT_EQ(seen, 50);
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  OneShard s;
  int fired = 0;
  for (SimTime t = 10; t <= 100; t += 10) s.at(t, [&] { ++fired; });
  s.k.run_until(55);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.now(), 55);  // clock moves to the deadline even with no event there
  s.k.run_to_quiescence();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, EventsAtDeadlineDoFire) {
  OneShard s;
  bool ran = false;
  s.at(70, [&] { ran = true; });
  s.k.run_until(70);
  EXPECT_TRUE(ran);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  OneShard s;
  std::vector<SimTime> ticks;
  std::function<void()> chain = [&] {
    ticks.push_back(s.now());
    if (ticks.size() < 4) s.in(10, chain);
  };
  s.in(10, chain);
  s.k.run_to_quiescence();
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(Simulator, ExecutedCountsEvents) {
  OneShard s;
  for (int i = 0; i < 7; ++i) s.in(i, [] {});
  s.k.run_to_quiescence();
  EXPECT_EQ(s.k.executed(), 7u);
}

// -- run_until tie handling (the canonical-key contract; see
//    docs/ARCHITECTURE.md) --------------------------------------------------

TEST(Simulator, SameInstantEventsFireInSchedulingOrder) {
  OneShard s;
  std::vector<int> fired;
  s.at(100, [&] { fired.push_back(1); });
  s.at(100, [&] {
    fired.push_back(2);
    // An event scheduled mid-instant for the same instant draws a later
    // seq, so it runs after everything already queued there.
    s.at(100, [&] { fired.push_back(4); });
  });
  s.at(100, [&] { fired.push_back(3); });
  s.k.run_until(100);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.now(), 100);
}

TEST(Simulator, CancelOfAlreadyPoppedEventIsHarmless) {
  OneShard s;
  int fired = 0;
  const EventId a = s.in(10, [&] { ++fired; });
  EventId b = kInvalidEventId;
  b = s.in(20, [&] { ++fired; });
  s.k.run_until(15);
  EXPECT_EQ(fired, 1);
  s.k.cancel(0, a);  // already fired: must not corrupt the pending set
  EXPECT_EQ(s.k.pending(), 1u);
  s.k.cancel(0, a);  // and twice
  s.k.run_to_quiescence();
  EXPECT_EQ(fired, 2);
  s.k.cancel(0, b);  // after the whole queue drained
  EXPECT_EQ(s.k.pending(), 0u);
}

TEST(Rng, SameSeedSameSequence) {
  RngStream a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DerivedStreamsDiffer) {
  RngStream a = RngStream::derive(1, 0);
  RngStream b = RngStream::derive(1, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ExponentialMeanIsApproximatelyRight) {
  RngStream r(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential_mean(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, ExponentialGapIsPositive) {
  RngStream r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.exponential_gap(1e9), 1);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  RngStream r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, PickIndexInRange) {
  RngStream r(13);
  for (int i = 0; i < 500; ++i) EXPECT_LT(r.pick_index(7), 7u);
}

TEST(Rng, BernoulliExtremes) {
  RngStream r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(TraceLog, DisabledByDefault) {
  TraceLog log;
  int lines = 0;
  log.set_sink([&](std::string_view) { ++lines; });
  log.emit(LogLevel::kInfo, 0, "hello");
  EXPECT_EQ(lines, 0);
}

TEST(TraceLog, EmitsAtOrBelowLevelWithTimestamp) {
  TraceLog log;
  std::vector<std::string> lines;
  log.set_sink([&](std::string_view l) { lines.emplace_back(l); });
  log.set_level(LogLevel::kDebug);
  log.emit(LogLevel::kInfo, 2'500'000, "a");
  log.emit(LogLevel::kDebug, 0, "b");
  log.emit(LogLevel::kTrace, 0, "c");  // above level: dropped
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("2.500000"), std::string::npos);
  EXPECT_NE(lines[0].find("a"), std::string::npos);
}

TEST(TraceLog, FormatLineConcatenates) {
  EXPECT_EQ(format_line("x=", 3, " y=", 4.5), "x=3 y=4.5");
}

}  // namespace
}  // namespace dca::sim
