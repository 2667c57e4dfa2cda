// Tests for the radio-layer substrate: reuse geometry, textbook SIR
// numbers, and exact-grid worst-case SIR consistency with the discrete
// interference constraint the protocols enforce.
#include <gtest/gtest.h>

#include <cmath>

#include "cell/grid.hpp"
#include "cell/reuse.hpp"
#include "radio/signal.hpp"

namespace dca::radio {
namespace {

TEST(Signal, ReuseDistanceRatio) {
  EXPECT_NEAR(reuse_distance_ratio(7), std::sqrt(21.0), 1e-12);
  EXPECT_NEAR(reuse_distance_ratio(3), 3.0, 1e-12);
  EXPECT_NEAR(reuse_distance_ratio(12), 6.0, 1e-12);
}

TEST(Signal, ClassicCluster7Number) {
  // The textbook AMPS result: N = 7, gamma = 4 gives ~18.7 dB, just above
  // the 18 dB analog FM requirement — the historical reason for cluster 7.
  EXPECT_NEAR(first_tier_sir_db(7, 4.0), 18.66, 0.01);
}

TEST(Signal, SirGrowsWithClusterAndExponent) {
  EXPECT_LT(first_tier_sir_db(3, 4.0), first_tier_sir_db(7, 4.0));
  EXPECT_LT(first_tier_sir_db(7, 4.0), first_tier_sir_db(12, 4.0));
  EXPECT_LT(first_tier_sir_db(7, 3.0), first_tier_sir_db(7, 4.0));
}

TEST(Signal, MinClusterForAmpsIs7) {
  EXPECT_EQ(min_cluster_for_sir(18.0, 4.0), 7);
  // A softer 12 dB requirement is met by cluster 4.
  EXPECT_LE(min_cluster_for_sir(12.0, 4.0), 4);
  // Free-space-ish propagation (gamma = 2) needs much larger clusters.
  EXPECT_GT(min_cluster_for_sir(18.0, 2.0), 7);
}

TEST(Signal, GridWorstCaseNearTextbookForInteriorCell) {
  // Large grid so several interferer tiers exist; the exact computation
  // (all tiers, edge-of-cell mobile) lands below the 6-interferer
  // first-tier approximation but within a couple of dB.
  const cell::HexGrid grid(21, 21, 2);
  const cell::ReusePlan plan = cell::ReusePlan::cluster(grid, 70, 7);
  const cell::CellId center = 10 * 21 + 10;
  const SirResult r = worst_case_sir(grid, plan, center, 4.0);
  EXPECT_GT(r.interferers, 6) << "multiple tiers on a 21x21 grid";
  // Nearest co-channel cell: the (2,1) lattice shift, Euclidean distance
  // sqrt(3N) = sqrt(21) cell radii — the classic D/R of cluster 7.
  EXPECT_NEAR(r.nearest_d_over_r, std::sqrt(21.0), 1e-6);
  EXPECT_NEAR(r.nearest_d_over_r, reuse_distance_ratio(7), 1e-6);
  EXPECT_GT(r.sir_db, 14.0);
  EXPECT_LT(r.sir_db, first_tier_sir_db(7, 4.0) + 1.0);
}

TEST(Signal, CornerCellsEnjoyBetterSirThanInterior) {
  // All same-colour cells interfere from their true distances; a corner
  // cell's co-channel population sits farther away on average, so its
  // worst-case SIR is strictly better than the interior cell's.
  const cell::HexGrid grid(21, 21, 2);
  const cell::ReusePlan plan = cell::ReusePlan::cluster(grid, 70, 7);
  const SirResult corner = worst_case_sir(grid, plan, 0, 4.0);
  const SirResult center = worst_case_sir(grid, plan, 10 * 21 + 10, 4.0);
  EXPECT_GT(corner.sir_db, center.sir_db);
}

TEST(Signal, Cluster3IsWorseThanCluster7OnTheGridToo) {
  const cell::HexGrid g3(12, 12, 1);
  const cell::ReusePlan p3 = cell::ReusePlan::cluster(g3, 30, 3);
  const cell::HexGrid g7(12, 12, 2);
  const cell::ReusePlan p7 = cell::ReusePlan::cluster(g7, 70, 7);
  const auto s3 = worst_case_sir(g3, p3, 6 * 12 + 6, 4.0);
  const auto s7 = worst_case_sir(g7, p7, 6 * 12 + 6, 4.0);
  EXPECT_LT(s3.sir_db, s7.sir_db);
}

TEST(Signal, IsolatedColorHasInfiniteSir) {
  // A grid so small that a colour class has a single member.
  const cell::HexGrid grid(2, 2, 2);
  const cell::ReusePlan plan = cell::ReusePlan::cluster(grid, 7, 7);
  const SirResult r = worst_case_sir(grid, plan, 0, 4.0);
  EXPECT_TRUE(std::isinf(r.sir_db));
  EXPECT_EQ(r.interferers, 0);
}

}  // namespace
}  // namespace dca::radio
