// Unit tests for the workload generator: Poisson arrival statistics,
// profile shapes, thinning correctness for time-varying rates, and
// determinism/independence of the per-cell substreams.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "cell/grid.hpp"
#include "traffic/generator.hpp"
#include "traffic/profile.hpp"

namespace dca::traffic {
namespace {

cell::HexGrid small_grid() { return cell::HexGrid(3, 3, 1); }

TEST(Profiles, UniformIsFlat) {
  const UniformProfile p(0.25);
  EXPECT_DOUBLE_EQ(p.rate(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(p.rate(8, sim::minutes(90)), 0.25);
  EXPECT_DOUBLE_EQ(p.max_rate(3), 0.25);
}

TEST(Profiles, PerCellRates) {
  const PerCellProfile p({0.1, 0.2, 0.3});
  EXPECT_DOUBLE_EQ(p.rate(1, 0), 0.2);
  EXPECT_DOUBLE_EQ(p.max_rate(2), 0.3);
}

TEST(Profiles, HotspotOnlyInsideWindowAndSet) {
  const HotspotProfile p(0.1, {4}, 5.0, sim::seconds(10), sim::seconds(20));
  EXPECT_DOUBLE_EQ(p.rate(4, sim::seconds(15)), 0.5);
  EXPECT_DOUBLE_EQ(p.rate(4, sim::seconds(5)), 0.1);   // before window
  EXPECT_DOUBLE_EQ(p.rate(4, sim::seconds(20)), 0.1);  // window end exclusive
  EXPECT_DOUBLE_EQ(p.rate(3, sim::seconds(15)), 0.1);  // not a hot cell
  EXPECT_DOUBLE_EQ(p.max_rate(4), 0.5);
  EXPECT_DOUBLE_EQ(p.max_rate(3), 0.1);
}

TEST(Profiles, RampInterpolatesLinearly) {
  const RampProfile p(0.0, 1.0, sim::seconds(0), sim::seconds(10));
  EXPECT_DOUBLE_EQ(p.rate(0, sim::seconds(0)), 0.0);
  EXPECT_DOUBLE_EQ(p.rate(0, sim::seconds(5)), 0.5);
  EXPECT_DOUBLE_EQ(p.rate(0, sim::seconds(10)), 1.0);
  EXPECT_DOUBLE_EQ(p.rate(0, sim::seconds(99)), 1.0);
  EXPECT_DOUBLE_EQ(p.max_rate(0), 1.0);
}

TEST(Profiles, BlobPeaksAtCenterAndDecays) {
  const cell::HexGrid grid(7, 7, 2);
  const cell::CellId center = 3 * 7 + 3;
  const BlobProfile p(grid, 0.1, 1.0, center, 1.5);
  EXPECT_NEAR(p.rate(center, 0), 1.1, 1e-12);
  // Monotone decay with distance from the blob center.
  double prev = p.rate(center, 0);
  for (int d = 1; d <= 3; ++d) {
    // Find a cell at exactly distance d.
    for (cell::CellId c = 0; c < grid.n_cells(); ++c) {
      if (grid.distance(c, center) == d) {
        EXPECT_LT(p.rate(c, 0), prev);
        prev = p.rate(c, 0);
        break;
      }
    }
  }
  // Far cells approach the base rate.
  EXPECT_NEAR(p.rate(0, 0), 0.1, 0.01);
}

TEST(Profiles, DiurnalOscillatesAroundBase) {
  const DiurnalProfile p(1.0, 0.5, sim::minutes(24));
  EXPECT_NEAR(p.rate(0, 0), 1.0, 1e-9);                    // phase 0
  EXPECT_NEAR(p.rate(0, sim::minutes(6)), 1.5, 1e-9);      // peak
  EXPECT_NEAR(p.rate(0, sim::minutes(18)), 0.5, 1e-9);     // trough
  EXPECT_NEAR(p.rate(0, sim::minutes(24)), 1.0, 1e-9);     // periodic
  EXPECT_DOUBLE_EQ(p.max_rate(0), 1.5);
}

TEST(Profiles, MovingHotspotStepsThroughRoute) {
  const MovingHotspotProfile p(0.1, 10.0, {4, 7, 9}, sim::minutes(2));
  EXPECT_DOUBLE_EQ(p.rate(4, sim::minutes(1)), 1.0);
  EXPECT_DOUBLE_EQ(p.rate(7, sim::minutes(1)), 0.1);
  EXPECT_DOUBLE_EQ(p.rate(7, sim::minutes(3)), 1.0);
  EXPECT_DOUBLE_EQ(p.rate(9, sim::minutes(5)), 1.0);
  EXPECT_DOUBLE_EQ(p.rate(4, sim::minutes(6)), 1.0) << "route wraps";
  EXPECT_DOUBLE_EQ(p.max_rate(9), 1.0);
  EXPECT_DOUBLE_EQ(p.max_rate(5), 0.1);
}

// The table's calls as the engine offers them: in CallId order.
std::vector<CallSpec> offered(const ArrivalTable& t) {
  std::vector<CallSpec> out(t.calls());
  for (std::size_t c = 0; c + 1 < t.begin.size(); ++c) {
    for (std::size_t k = t.begin[c]; k < t.begin[c + 1]; ++k) {
      const ArrivalTable::Candidate& cand = t.candidates[k];
      if (cand.holding == 0) continue;
      CallSpec& spec = out[static_cast<std::size_t>(cand.id - 1)];
      spec.id = cand.id;
      spec.cell = static_cast<cell::CellId>(c);
      spec.arrival = cand.t;
      spec.holding = cand.holding;
    }
  }
  return out;
}

TEST(Generator, PoissonCountIsApproximatelyRateTimesTime) {
  const auto grid = small_grid();
  const UniformProfile profile(0.5);  // calls/s/cell
  const ArrivalTable t =
      draw_arrivals(grid.n_cells(), profile, 60.0, /*seed=*/7, sim::minutes(30));
  const std::uint64_t arrivals = offered(t).size();
  // E = 9 cells * 0.5/s * 1800 s = 8100; allow 5 sigma (~450).
  EXPECT_NEAR(static_cast<double>(arrivals), 8100.0, 450.0);
  // A uniform profile thins nothing: every candidate is a call.
  EXPECT_EQ(t.candidates.size(), arrivals);
  EXPECT_EQ(t.call_cell.size(), arrivals);
}

TEST(Generator, HoldingTimesHaveRequestedMean) {
  const auto grid = small_grid();
  const UniformProfile profile(1.0);
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const CallSpec& c :
       offered(draw_arrivals(grid.n_cells(), profile, 120.0, 3, sim::minutes(20)))) {
    sum += sim::to_seconds(c.holding);
    ++n;
  }
  ASSERT_GT(n, 1000u);
  EXPECT_NEAR(sum / static_cast<double>(n), 120.0, 10.0);
}

TEST(Generator, ArrivalsRespectHorizonAndAreOrdered) {
  const auto grid = small_grid();
  const UniformProfile profile(2.0);
  std::vector<sim::SimTime> times;
  for (const CallSpec& c :
       offered(draw_arrivals(grid.n_cells(), profile, 10.0, 5, sim::seconds(100)))) {
    times.push_back(c.arrival);
  }
  ASSERT_FALSE(times.empty());
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_GE(times[i], times[i - 1]);
  EXPECT_LT(times.back(), sim::seconds(100));
}

TEST(Generator, CallIdsAreUniqueAndDense) {
  const auto grid = small_grid();
  const UniformProfile profile(1.0);
  const ArrivalTable t =
      draw_arrivals(grid.n_cells(), profile, 10.0, 5, sim::seconds(60));
  std::vector<CallId> ids;
  for (const ArrivalTable::Candidate& cand : t.candidates) {
    if (cand.holding > 0) ids.push_back(cand.id);
  }
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), t.calls());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i + 1);
}

TEST(Generator, DeterministicGivenSeed) {
  const auto run = [](std::uint64_t seed) {
    const auto grid = small_grid();
    const UniformProfile profile(0.7);
    std::vector<std::pair<sim::SimTime, cell::CellId>> trace;
    for (const CallSpec& c :
         offered(draw_arrivals(grid.n_cells(), profile, 30.0, seed, sim::minutes(5)))) {
      trace.emplace_back(c.arrival, c.cell);
    }
    return trace;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(Generator, ThinningMatchesHotspotRates) {
  // Compare in-window vs out-of-window arrival counts at the hot cell.
  const auto grid = small_grid();
  const sim::SimTime w0 = sim::minutes(30), w1 = sim::minutes(60);
  const HotspotProfile profile(0.2, {0}, 4.0, w0, w1);
  std::uint64_t inside = 0, outside = 0;
  for (const CallSpec& c :
       offered(draw_arrivals(grid.n_cells(), profile, 10.0, 21, sim::minutes(90)))) {
    if (c.cell != 0) continue;
    if (c.arrival >= w0 && c.arrival < w1) {
      ++inside;
    } else {
      ++outside;
    }
  }
  // Expected: inside ~ 0.8/s * 1800 = 1440; outside ~ 0.2/s * 3600 = 720.
  EXPECT_NEAR(static_cast<double>(inside), 1440.0, 200.0);
  EXPECT_NEAR(static_cast<double>(outside), 720.0, 150.0);
}

TEST(Generator, ZeroRateCellProducesNothing) {
  const auto grid = small_grid();
  const PerCellProfile profile({0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  const ArrivalTable t =
      draw_arrivals(grid.n_cells(), profile, 10.0, 2, sim::minutes(10));
  std::uint64_t from_silent = 0, from_active = 0;
  for (const cell::CellId c : t.call_cell) (c == 1 ? from_active : from_silent)++;
  EXPECT_EQ(from_silent, 0u);
  EXPECT_GT(from_active, 100u);
  // A silent cell draws no candidates at all.
  EXPECT_EQ(t.begin[1], 0u);
}

}  // namespace
}  // namespace dca::traffic
