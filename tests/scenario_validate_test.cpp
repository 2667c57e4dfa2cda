// Tests for scenario validation (fail-fast configuration checking).
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "runner/scenario.hpp"
#include "test_util.hpp"

namespace dca::runner {
namespace {

TEST(ValidateScenario, DefaultsAreValid) {
  EXPECT_EQ(validate_scenario(ScenarioConfig{}), "");
  EXPECT_EQ(validate_scenario(testutil::small_config()), "");
  EXPECT_EQ(validate_scenario(testutil::paper_config()), "");
}

TEST(ValidateScenario, ValidTorusPasses) {
  ScenarioConfig c;
  c.rows = 14;
  c.cols = 14;
  c.wrap = cell::Wrap::kToroidal;
  EXPECT_EQ(validate_scenario(c), "");
}

TEST(ValidateScenario, MisalignedTorusRejected) {
  ScenarioConfig c;
  c.rows = 8;
  c.cols = 8;
  c.wrap = cell::Wrap::kToroidal;
  EXPECT_NE(validate_scenario(c), "");
}

TEST(ValidateScenario, OddRowTorusRejected) {
  ScenarioConfig c;
  c.rows = 7;
  c.cols = 14;
  c.wrap = cell::Wrap::kToroidal;
  EXPECT_NE(validate_scenario(c).find("even row"), std::string::npos);
}

TEST(ValidateScenario, TinyTorusRejected) {
  ScenarioConfig c;
  c.rows = 4;
  c.cols = 4;
  c.wrap = cell::Wrap::kToroidal;
  c.greedy_plan = true;
  EXPECT_NE(validate_scenario(c).find("too small"), std::string::npos);
}

TEST(ValidateScenario, GridTooLargeForCellIdsRejected) {
  ScenarioConfig c;
  c.rows = 50000;
  c.cols = 50000;
  EXPECT_EQ(validate_scenario(c),
            "grid of 50000 x 50000 = 2500000000 cells exceeds the "
            "2147483647-cell limit of a CellId");
  c.rows = 46341;  // 46341^2 = 2147488281, just past the limit
  c.cols = 46341;
  EXPECT_NE(validate_scenario(c).find("-cell limit of a CellId"), std::string::npos);
}

TEST(ValidateScenario, GridTooLargeForLinkIdsRejected) {
  ScenarioConfig c;
  c.rows = 46340;  // 2147395600 cells fit a CellId, six links each do not
  c.cols = 46340;
  c.interference_radius = 1;
  c.cluster = 3;
  EXPECT_EQ(validate_scenario(c),
            "grid of 2147395600 cells at interference radius 1 may have up to "
            "12884373600 directed links, more than the 2147483647 a LinkId "
            "can number");
  c = ScenarioConfig{};
  c.rows = 10000;
  c.cols = 10000;
  c.interference_radius = 3;
  c.greedy_plan = true;
  EXPECT_EQ(validate_scenario(c),
            "grid of 100000000 cells at interference radius 3 may have up to "
            "3600000000 directed links, more than the 2147483647 a LinkId "
            "can number");
}

TEST(ValidateScenario, RadiusBeyondTheGridIsBoundedByTheCellCount) {
  // A region never exceeds n - 1 cells, however large the radius.
  ScenarioConfig c;
  c.rows = 3;
  c.cols = 4;
  c.interference_radius = std::numeric_limits<int>::max();
  c.greedy_plan = true;
  EXPECT_EQ(validate_scenario(c), "");
  c.rows = 4;
  c.wrap = cell::Wrap::kToroidal;
  EXPECT_NE(validate_scenario(c).find("too small"), std::string::npos);
}

TEST(ValidateScenario, BadClusterRadiusCombos) {
  ScenarioConfig c;
  c.cluster = 3;
  c.interference_radius = 2;
  EXPECT_NE(validate_scenario(c), "");
  c.cluster = 7;
  c.interference_radius = 3;
  EXPECT_NE(validate_scenario(c), "");
  c.cluster = 4;
  c.interference_radius = 1;
  EXPECT_NE(validate_scenario(c).find("cluster sizes 3 and 7"), std::string::npos);
  c.greedy_plan = true;
  c.interference_radius = 3;
  EXPECT_EQ(validate_scenario(c), "") << "greedy supports any radius";
}

TEST(ValidateScenario, ParameterRangeChecks) {
  ScenarioConfig c;
  c.n_channels = 0;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.n_channels = cell::kMaxChannels + 1;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.adaptive.theta_low = 0;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.adaptive.theta_high = c.adaptive.theta_low;
  EXPECT_NE(validate_scenario(c).find("hysteresis"), std::string::npos);
  c = ScenarioConfig{};
  c.mean_holding_s = 0.0;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.max_update_attempts = 0;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.latency_jitter = -1;
  EXPECT_NE(validate_scenario(c).find("latency_jitter"), std::string::npos);
  c = ScenarioConfig{};
  c.mean_dwell_s = -0.5;
  EXPECT_NE(validate_scenario(c).find("dwell"), std::string::npos);
}

TEST(ValidateScenario, CrashKnobChecks) {
  ScenarioConfig c;
  c.fault.crash_rate_per_min = -1.0;
  EXPECT_EQ(validate_scenario(c), "crash rate cannot be negative");
  c = ScenarioConfig{};
  c.fault.crash_mean_s = -0.1;
  EXPECT_EQ(validate_scenario(c), "crash_mean_s cannot be negative");
  // A crash rate with a zero outage length is a contradiction, not a
  // no-op: reject it rather than silently schedule zero-length crashes.
  c = ScenarioConfig{};
  c.fault.crash_rate_per_min = 1.0;
  c.fault.crash_mean_s = 0.0;
  c.request_timeout = sim::milliseconds(400);
  EXPECT_EQ(validate_scenario(c),
            "crash_mean_s must be positive when crashes are enabled");
  // Crashes orphan handshakes; without a request timeout the victims
  // would hang forever.
  c.fault.crash_mean_s = 2.0;
  c.request_timeout = 0;
  EXPECT_EQ(validate_scenario(c),
            "MSS crashes orphan in-flight handshakes; set request_timeout");
  c.request_timeout = sim::milliseconds(400);
  EXPECT_EQ(validate_scenario(c), "");
}

TEST(ValidateScenario, PartitionSpecChecks) {
  ScenarioConfig c;  // 8x8 grid: cells 0..63
  c.request_timeout = sim::milliseconds(400);
  c.fault.partitions = {net::PartitionSpec{{}, sim::seconds(1), sim::seconds(2)}};
  EXPECT_EQ(validate_scenario(c), "partition group must name at least one cell");
  c.fault.partitions = {net::PartitionSpec{{3}, sim::seconds(2), sim::seconds(2)}};
  EXPECT_EQ(validate_scenario(c),
            "partition interval must satisfy start < end");
  c.fault.partitions = {net::PartitionSpec{{64}, sim::seconds(1), sim::seconds(2)}};
  EXPECT_EQ(validate_scenario(c),
            "partition cell 64 outside the grid (cells are 0..63)");
  c.fault.partitions = {net::PartitionSpec{{-1}, sim::seconds(1), sim::seconds(2)}};
  EXPECT_EQ(validate_scenario(c),
            "partition cell -1 outside the grid (cells are 0..63)");
  c.fault.partitions = {net::PartitionSpec{{3, 4}, sim::seconds(1), sim::seconds(2)}};
  EXPECT_EQ(validate_scenario(c), "");
  c.request_timeout = 0;
  EXPECT_EQ(validate_scenario(c),
            "network partitions stall handshakes until the heal; set "
            "request_timeout");
}

TEST(ValidateScenario, ShardedEngineConstraints) {
  ScenarioConfig c;
  c.shards = 0;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.shards = c.rows * c.cols + 1;
  EXPECT_NE(validate_scenario(c).find("more shards than cells"),
            std::string::npos);
  // The lookahead comes from the per-link latency floors, so a zero
  // latency has no conservative window to offer — at any shard count,
  // buffered or streaming, with one exact message.
  const std::string kLatencyRule =
      "need latency > 0 (the per-link latency floors are the engine's "
      "lookahead)";
  c = ScenarioConfig{};
  c.shards = 4;
  c.latency = 0;
  EXPECT_NE(validate_scenario(c).find("latency > 0"), std::string::npos);
  EXPECT_EQ(validate_scenario(c), kLatencyRule);
  c.shards = 1;
  EXPECT_EQ(validate_scenario(c), kLatencyRule);
  c.stream_metrics = true;
  EXPECT_EQ(validate_scenario(c), kLatencyRule);
  c.latency = -1;
  EXPECT_EQ(validate_scenario(c), kLatencyRule);

  // Jitter and mobility are legal at any shard count: both draw from
  // streams keyed by stable identifiers, not by execution order.
  c = ScenarioConfig{};
  c.shards = 4;
  c.latency_jitter = sim::milliseconds(2);
  EXPECT_EQ(validate_scenario(c), "");
  c.mean_dwell_s = 45.0;
  EXPECT_EQ(validate_scenario(c), "");
  c.shards = 8;
  c.threads = 4;
  c.fault.drop_prob = 0.1;
  c.request_timeout = sim::milliseconds(400);
  EXPECT_EQ(validate_scenario(c), "");
}

}  // namespace
}  // namespace dca::runner
