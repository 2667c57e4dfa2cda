// Unit tests for the metrics layer: summaries, histograms, the per-call
// collector, and the aggregate ξ/m statistics.
#include <gtest/gtest.h>

#include "metrics/collector.hpp"
#include "metrics/histogram.hpp"
#include "metrics/summary.hpp"
#include "metrics/table.hpp"
#include "metrics/timeseries.hpp"

namespace dca::metrics {
namespace {

TEST(Summary, BasicStats) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsZeros) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SampledSummary, PercentilesAreExact) {
  SampledSummary s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100 reversed
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 1e-9);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(10.0, 3);  // bins [0,10) [10,20) [20,30) + overflow
  h.add(0.0);
  h.add(9.99);
  h.add(10.0);
  h.add(25.0);
  h.add(31.0);
  h.add(-5.0);  // clamps to first bin
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bin_count(0), 3u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.bin_low(2), 20.0);
  EXPECT_FALSE(h.render().empty());
}

TEST(Table, RenderAndCsv) {
  Table t({"scheme", "msgs", "time"});
  t.add_row({"Adaptive", Table::num(0.0, 1), Table::num(0.0, 1)});
  t.add_row({"Basic, Search", "36", "2T"});
  const std::string md = t.render();
  EXPECT_NE(md.find("| scheme"), std::string::npos);
  EXPECT_NE(md.find("Adaptive"), std::string::npos);
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"Basic, Search\""), std::string::npos)
      << "comma-containing fields must be quoted";
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableNum, Precision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

class CollectorFixture : public ::testing::Test {
 protected:
  Collector c;

  [[nodiscard]] Aggregate aggregate(sim::Duration T, sim::SimTime warmup = 0) const {
    return aggregate_records(c.closed(), T, warmup);
  }
};

TEST_F(CollectorFixture, AggregateComputesXiFractionsAndM) {
  // 2 local, 1 update (3 attempts), 1 search, 1 blocked.
  c.open(1, 1, 0, 0, false);
  c.close(1, 0, proto::Outcome::kAcquiredLocal, 0, 0, 0);
  c.open(2, 2, 1, 0, false);
  c.close(2, 0, proto::Outcome::kAcquiredLocal, 0, 2, 0);
  c.open(3, 3, 2, 0, false);
  c.close(3, 20000, proto::Outcome::kAcquiredUpdate, 3, 4, 0);
  c.open(4, 4, 3, 0, false);
  c.close(4, 70000, proto::Outcome::kAcquiredSearch, 3, 6, 2);
  c.open(5, 5, 4, 0, false);
  c.close(5, 70000, proto::Outcome::kBlockedNoChannel, 3, 0, 0);

  const Aggregate a = aggregate(/*T=*/5000);
  EXPECT_EQ(a.offered, 5u);
  EXPECT_EQ(a.acquired, 4u);
  EXPECT_EQ(a.blocked, 1u);
  EXPECT_DOUBLE_EQ(a.drop_rate(), 0.2);
  EXPECT_DOUBLE_EQ(a.xi1, 0.5);
  EXPECT_DOUBLE_EQ(a.xi2, 0.25);
  EXPECT_DOUBLE_EQ(a.xi3, 0.25);
  EXPECT_DOUBLE_EQ(a.mean_update_attempts, 3.0);
  EXPECT_DOUBLE_EQ(a.mean_borrowing_neighbors, 3.0);  // (0+2+4+6)/4
  EXPECT_DOUBLE_EQ(a.mean_searching_neighbors, 2.0);
  // delay in T: {0, 0, 4, 14} -> mean 4.5
  EXPECT_DOUBLE_EQ(a.delay_in_T.mean(), 4.5);
}

TEST_F(CollectorFixture, WarmupDiscardsEarlyRecords) {
  c.open(1, 1, 0, /*now=*/0, false);
  c.close(1, 0, proto::Outcome::kAcquiredLocal, 0, 0, 0);
  c.open(2, 2, 0, /*now=*/100, false);
  c.close(2, 100, proto::Outcome::kBlockedNoChannel, 0, 0, 0);
  const Aggregate a = aggregate(1, /*warmup=*/50);
  EXPECT_EQ(a.offered, 1u);
  EXPECT_EQ(a.blocked, 1u);
}

TEST_F(CollectorFixture, StarvedAndHandoffTracking) {
  c.open(1, 1, 0, 0, /*is_handoff=*/true);
  c.close(1, 10, proto::Outcome::kBlockedStarved, 10, 0, 0);
  const Aggregate a = aggregate(1);
  EXPECT_EQ(a.starved, 1u);
  EXPECT_EQ(a.handoff_failures, 1u);
  EXPECT_DOUBLE_EQ(a.drop_rate(), 1.0);
}

TEST(JainIndex, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_index({1.0, 1.0, 1.0, 1.0}), 1.0);
  // One participant has everything: J = 1/n.
  EXPECT_DOUBLE_EQ(jain_index({4.0, 0.0, 0.0, 0.0}), 0.25);
  // Classic example: (1+2+3)^2 / (3 * 14) = 36/42.
  EXPECT_NEAR(jain_index({1.0, 2.0, 3.0}), 36.0 / 42.0, 1e-12);
}

TEST(JainIndex, DegenerateInputsAreVacuouslyFair) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
}

TEST(JainIndex, ScaleInvariant) {
  const std::vector<double> a{0.2, 0.5, 0.9};
  std::vector<double> b;
  for (const double x : a) b.push_back(1000.0 * x);
  EXPECT_NEAR(jain_index(a), jain_index(b), 1e-12);
}

TEST(TimeSeries, BucketsSumsAndCounts) {
  TimeSeries ts(sim::seconds(60));
  ts.add(sim::seconds(10), 1.0);
  ts.add(sim::seconds(59), 3.0);
  ts.add(sim::seconds(60), 5.0);   // next bucket
  ts.add(sim::seconds(200), 7.0);  // bucket 3
  ASSERT_EQ(ts.n_buckets(), 4u);
  EXPECT_DOUBLE_EQ(ts.sum(0), 4.0);
  EXPECT_EQ(ts.count(0), 2u);
  EXPECT_DOUBLE_EQ(ts.mean(0), 2.0);
  EXPECT_DOUBLE_EQ(ts.sum(1), 5.0);
  EXPECT_EQ(ts.count(2), 0u);
  EXPECT_DOUBLE_EQ(ts.mean(2), 0.0);
  EXPECT_DOUBLE_EQ(ts.sum(3), 7.0);
  EXPECT_EQ(ts.bucket_start(3), sim::seconds(180));
}

TEST(TimeSeries, NegativeTimesClampToFirstBucket) {
  TimeSeries ts(100);
  ts.add(-50, 2.0);
  EXPECT_DOUBLE_EQ(ts.sum(0), 2.0);
}

TEST(OutcomeNames, AllDistinct) {
  EXPECT_EQ(proto::outcome_name(proto::Outcome::kAcquiredLocal), "acquired-local");
  EXPECT_EQ(proto::outcome_name(proto::Outcome::kBlockedStarved), "blocked-starved");
  EXPECT_TRUE(proto::is_acquired(proto::Outcome::kAcquiredSearch));
  EXPECT_FALSE(proto::is_acquired(proto::Outcome::kBlockedNoChannel));
}

}  // namespace
}  // namespace dca::metrics
