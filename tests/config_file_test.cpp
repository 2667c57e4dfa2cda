// Tests for scenario-file parsing/serialization and the JSON writer.
#include <gtest/gtest.h>

#include "metrics/json.hpp"
#include "runner/config_file.hpp"

namespace dca {
namespace {

using runner::ScenarioConfig;

TEST(ScenarioFile, AppliesKeysAndComments) {
  ScenarioConfig cfg;
  std::string err;
  const std::string text = R"(
# paper-scale torus
rows = 14
cols = 14
torus = yes
channels = 35      # tight spectrum
latency_ms = 100.5
theta_high = 6
update_pick = round-robin
strict_fig4 = true
)";
  ASSERT_TRUE(runner::apply_scenario_text(text, cfg, err)) << err;
  EXPECT_EQ(cfg.rows, 14);
  EXPECT_EQ(cfg.cols, 14);
  EXPECT_EQ(cfg.wrap, cell::Wrap::kToroidal);
  EXPECT_EQ(cfg.n_channels, 35);
  EXPECT_EQ(cfg.latency, sim::microseconds(100'500));
  EXPECT_EQ(cfg.adaptive.theta_high, 6);
  EXPECT_EQ(cfg.update_pick, proto::ChannelPick::kRoundRobin);
  EXPECT_TRUE(cfg.adaptive.strict_fig4);
  // Untouched keys keep defaults.
  EXPECT_EQ(cfg.cluster, 7);
  EXPECT_EQ(cfg.adaptive.theta_low, 2);
}

TEST(ScenarioFile, RejectsUnknownKeyWithLineNumber) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_FALSE(runner::apply_scenario_text("rows = 8\nbogus = 1\n", cfg, err));
  EXPECT_NE(err.find("line 2"), std::string::npos);
  EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(ScenarioFile, RejectsRemovedKeysAsUnknown) {
  // The run-product switch and the radio fade knob are gone; their old
  // keys are rejected like any other unknown key.
  for (const char* key :
       {"stream_metrics", "radio_fade_prob", "radio_fade_bucket_ms"}) {
    ScenarioConfig cfg;
    std::string err;
    EXPECT_FALSE(runner::apply_scenario_text(std::string(key) + " = 1\n", cfg,
                                             err));
    EXPECT_EQ(err, "line 1: unknown key '" + std::string(key) + "'");
  }
}

TEST(ScenarioFile, RejectsMalformedValues) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_FALSE(runner::apply_scenario_text("rows = eight\n", cfg, err));
  EXPECT_FALSE(runner::apply_scenario_text("torus = maybe\n", cfg, err));
  EXPECT_FALSE(runner::apply_scenario_text("update_pick = fastest\n", cfg, err));
  EXPECT_FALSE(runner::apply_scenario_text("just a line\n", cfg, err));
  EXPECT_NE(err.find("key = value"), std::string::npos);
}

TEST(ScenarioFile, RoundTripsThroughSerialization) {
  ScenarioConfig cfg;
  cfg.rows = 12;
  cfg.cols = 9;
  cfg.wrap = cell::Wrap::kToroidal;
  cfg.greedy_plan = true;
  cfg.n_channels = 42;
  cfg.latency = sim::milliseconds(17);
  cfg.latency_jitter = sim::milliseconds(3);
  cfg.mean_dwell_s = 45.0;
  cfg.seed = 987;
  cfg.update_pick = proto::ChannelPick::kLowest;
  cfg.adaptive.theta_low = 3;
  cfg.adaptive.theta_high = 7;
  cfg.adaptive.alpha = 5;
  cfg.adaptive.strict_fig4 = true;
  cfg.adaptive.use_best_heuristic = false;

  ScenarioConfig back;
  std::string err;
  ASSERT_TRUE(runner::apply_scenario_text(runner::scenario_to_text(cfg), back, err))
      << err;
  EXPECT_EQ(back.rows, cfg.rows);
  EXPECT_EQ(back.cols, cfg.cols);
  EXPECT_EQ(back.wrap, cfg.wrap);
  EXPECT_EQ(back.greedy_plan, cfg.greedy_plan);
  EXPECT_EQ(back.n_channels, cfg.n_channels);
  EXPECT_EQ(back.latency, cfg.latency);
  EXPECT_EQ(back.latency_jitter, cfg.latency_jitter);
  EXPECT_DOUBLE_EQ(back.mean_dwell_s, cfg.mean_dwell_s);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.update_pick, cfg.update_pick);
  EXPECT_EQ(back.adaptive.theta_low, cfg.adaptive.theta_low);
  EXPECT_EQ(back.adaptive.theta_high, cfg.adaptive.theta_high);
  EXPECT_EQ(back.adaptive.alpha, cfg.adaptive.alpha);
  EXPECT_EQ(back.adaptive.strict_fig4, cfg.adaptive.strict_fig4);
  EXPECT_EQ(back.adaptive.use_best_heuristic, cfg.adaptive.use_best_heuristic);
}

TEST(ScenarioFile, MissingFileReportsError) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_FALSE(runner::load_scenario_file("/nonexistent/scenario.ini", cfg, err));
  EXPECT_NE(err.find("cannot read"), std::string::npos);
}

// ------------------------------------------------------------- JSON -------

TEST(Json, ObjectsArraysAndCommas) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("adaptive");
  w.key("drop");
  w.value(0.25);
  w.key("xs");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.value(false);
  w.null();
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.key("k");
  w.value(std::uint64_t{7});
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"adaptive\",\"drop\":0.25,\"xs\":[1,2,false,null],"
            "\"nested\":{\"k\":7}}");
}

TEST(Json, EscapesStrings) {
  metrics::JsonWriter w;
  w.value("a\"b\\c\nd\te\x01");
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  metrics::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::nan(""));
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,1.5]");
}

TEST(Json, ArrayOfObjects) {
  metrics::JsonWriter w;
  w.begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object();
    w.key("i");
    w.value(i);
    w.end_object();
  }
  w.end_array();
  EXPECT_EQ(w.str(), "[{\"i\":0},{\"i\":1}]");
}

}  // namespace
}  // namespace dca
