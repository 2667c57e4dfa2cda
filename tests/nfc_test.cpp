// Unit tests for the NFC sliding-window tracker and linear predictor
// (paper Fig. 6 / Section 3.1's NFC_i with add_nfc/get_nfc).
#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <utility>

#include "core/nfc.hpp"
#include "core/params.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace dca::core {
namespace {

TEST(Nfc, AtReturnsValueInForce) {
  NfcTracker t(sim::seconds(10));
  t.record(sim::seconds(1), 5);
  t.record(sim::seconds(4), 3);
  t.record(sim::seconds(8), 7);
  EXPECT_EQ(t.at(sim::seconds(1)), 5);
  EXPECT_EQ(t.at(sim::seconds(3)), 5);
  EXPECT_EQ(t.at(sim::seconds(4)), 3);
  EXPECT_EQ(t.at(sim::seconds(9)), 7);
}

TEST(Nfc, AtBeforeHistoryReturnsEarliest) {
  NfcTracker t(sim::seconds(10));
  t.record(sim::seconds(5), 4);
  EXPECT_EQ(t.at(sim::seconds(0)), 4);
}

TEST(Nfc, EmptyTrackerIsZero) {
  NfcTracker t(sim::seconds(10));
  EXPECT_EQ(t.at(0), 0);
  EXPECT_EQ(t.current(), 0);
  EXPECT_DOUBLE_EQ(t.predict(0, sim::milliseconds(10)), 0.0);
}

TEST(Nfc, PruningKeepsWindowAnswerable) {
  NfcTracker t(sim::seconds(10));
  for (int i = 0; i <= 30; ++i) t.record(sim::seconds(i), i);
  // History older than t - W is pruned, but at(t - W) must still answer
  // with the value in force at the cutoff.
  EXPECT_EQ(t.at(sim::seconds(20)), 20);
  EXPECT_LE(t.samples(), 12u);
  EXPECT_EQ(t.current(), 30);
}

TEST(Nfc, FlatHistoryPredictsCurrent) {
  NfcTracker t(sim::seconds(30));
  t.record(sim::seconds(0), 6);
  t.record(sim::seconds(30), 6);
  EXPECT_DOUBLE_EQ(t.predict(sim::seconds(30), sim::milliseconds(10)), 6.0);
}

TEST(Nfc, DecreasingTrendPredictsBelowCurrent) {
  NfcTracker t(sim::seconds(30));
  t.record(sim::seconds(0), 10);
  t.record(sim::seconds(30), 4);
  const double next = t.predict(sim::seconds(30), sim::seconds(10));
  // slope = (4 - 10)/30 per second; horizon 10 s -> 4 - 2 = 2.
  EXPECT_NEAR(next, 2.0, 1e-9);
  EXPECT_LT(next, 4.0);
}

TEST(Nfc, IncreasingTrendPredictsAboveCurrent) {
  NfcTracker t(sim::seconds(30));
  t.record(sim::seconds(0), 2);
  t.record(sim::seconds(30), 8);
  EXPECT_GT(t.predict(sim::seconds(30), sim::seconds(5)), 8.0);
}

TEST(Nfc, ShortHorizonBarelyMovesPrediction) {
  // The paper's regime: 2T (milliseconds) << W (seconds), so the predictor
  // is dominated by the current value.
  NfcTracker t(sim::seconds(30));
  t.record(sim::seconds(0), 10);
  t.record(sim::seconds(30), 0);
  const double next = t.predict(sim::seconds(30), sim::milliseconds(10));
  EXPECT_NEAR(next, 0.0, 0.01);
}

TEST(Nfc, SingleSampleHasZeroSlope) {
  NfcTracker t(sim::seconds(30));
  t.record(sim::seconds(100), 7);
  EXPECT_DOUBLE_EQ(t.predict(sim::seconds(100), sim::seconds(60)), 7.0);
}

TEST(Nfc, RepeatedValuesStoreOnlyChangePoints) {
  NfcTracker t(sim::seconds(30));
  for (int i = 0; i < 100; ++i) t.record(sim::milliseconds(10 * i), 4);
  EXPECT_EQ(t.samples(), 1u);
  t.record(sim::seconds(1), 3);
  t.record(sim::seconds(1), 3);
  EXPECT_EQ(t.samples(), 2u);
  EXPECT_EQ(t.at(sim::milliseconds(990)), 4);
  EXPECT_EQ(t.at(sim::seconds(1)), 3);
}

// The reference the tracker must agree with: every sample stored, pruned
// exactly as the paper's add_nfc describes.
class FullHistoryNfc {
 public:
  explicit FullHistoryNfc(sim::Duration window) : window_(window) {}

  void record(sim::SimTime t, int s) {
    entries_.emplace_back(t, s);
    const sim::SimTime cutoff = t - window_;
    while (entries_.size() >= 2 && entries_[1].first <= cutoff) {
      entries_.pop_front();
    }
  }
  [[nodiscard]] int at(sim::SimTime t) const {
    if (entries_.empty()) return 0;
    int value = entries_.front().second;
    for (const auto& [when, s] : entries_) {
      if (when > t) break;
      value = s;
    }
    return value;
  }
  [[nodiscard]] int current() const {
    return entries_.empty() ? 0 : entries_.back().second;
  }
  [[nodiscard]] double predict(sim::SimTime now, sim::Duration horizon) const {
    const double s = current();
    const double last = at(now - window_);
    return s + static_cast<double>(horizon) * (s - last) / static_cast<double>(window_);
  }
  void reset() { entries_.clear(); }

 private:
  sim::Duration window_;
  std::deque<std::pair<sim::SimTime, int>> entries_;
};

TEST(Nfc, ChangePointHistoryMatchesFullHistory) {
  const sim::Duration window = sim::seconds(3);
  const sim::Duration horizon = sim::milliseconds(20);
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    sim::RngStream rng = sim::RngStream::derive(7, trial);
    NfcTracker fast(window);
    FullHistoryNfc ref(window);
    sim::SimTime now = 0;
    std::size_t changes = 0;  // value changes since the last reset
    bool any = false;
    int last = 0;
    for (int step = 0; step < 2000; ++step) {
      if (rng.uniform() < 0.005) {
        fast.reset();
        ref.reset();
        changes = 0;
        any = false;
      }
      // Equal timestamps, short steps, and gaps longer than W.
      const double u = rng.uniform();
      if (u < 0.2) {
        // same instant
      } else if (u < 0.97) {
        now += rng.uniform_int(1, sim::milliseconds(200));
      } else {
        now += window + rng.uniform_int(0, 2 * window);
      }
      // Few distinct values, so most samples repeat the last one.
      const int s = rng.uniform() < 0.7 && any
                        ? last
                        : static_cast<int>(rng.uniform_int(0, 3));
      if (any && s != last) ++changes;
      any = true;
      last = s;
      fast.record(now, s);
      ref.record(now, s);

      ASSERT_EQ(fast.current(), ref.current());
      ASSERT_EQ(fast.predict(now, horizon), ref.predict(now, horizon));
      ASSERT_LE(fast.samples(), changes + 1);
      for (const sim::SimTime q :
           {sim::SimTime{0}, now - window, now - window - 1, now - window + 1,
            now - 2 * window, now, now - rng.uniform_int(0, 2 * window)}) {
        ASSERT_EQ(fast.at(q), ref.at(q)) << "at(" << q << ") now=" << now;
      }
    }
  }
}

TEST(AdaptiveParams, DefaultsAreSane) {
  const AdaptiveParams p;
  p.check();
  EXPECT_LT(p.theta_low, p.theta_high);
  EXPECT_GE(p.theta_low, 1);
  EXPECT_GE(p.alpha, 1);
}

}  // namespace
}  // namespace dca::core
