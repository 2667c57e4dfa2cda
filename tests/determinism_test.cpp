// Determinism regression: results are a pure function of the scenario —
// independent of worker thread count, and bit-identically replayable even
// with the full fault cocktail active (the fault schedule derives from
// the seed, not from host scheduling).
#include <gtest/gtest.h>

#include <vector>

#include "runner/experiment.hpp"
#include "sim/trace.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::Scheme;

runner::ScenarioConfig small_config() {
  runner::ScenarioConfig cfg;
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.n_channels = 35;
  cfg.duration = sim::minutes(3);
  cfg.warmup = sim::seconds(30);
  cfg.seed = 11;
  return cfg;
}

void expect_same_result(const RunResult& a, const RunResult& b,
                        const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.agg.offered, b.agg.offered);
  EXPECT_EQ(a.agg.acquired, b.agg.acquired);
  EXPECT_EQ(a.agg.blocked, b.agg.blocked);
  EXPECT_EQ(a.agg.starved, b.agg.starved);
  EXPECT_EQ(a.agg.timed_out, b.agg.timed_out);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.offered_calls, b.offered_calls);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.carried_erlangs, b.carried_erlangs);  // bit-exact, not near
  EXPECT_EQ(a.agg.delay_in_T.mean(), b.agg.delay_in_T.mean());
  EXPECT_EQ(a.agg.delay_us.mean(), b.agg.delay_us.mean());
  EXPECT_EQ(a.agg.messages_per_call.mean(), b.agg.messages_per_call.mean());
  EXPECT_EQ(a.agg.xi1, b.agg.xi1);
  EXPECT_EQ(a.agg.xi2, b.agg.xi2);
  EXPECT_EQ(a.agg.xi3, b.agg.xi3);
  EXPECT_EQ(a.agg.mean_update_attempts, b.agg.mean_update_attempts);
  EXPECT_EQ(a.agg.mean_borrowing_neighbors, b.agg.mean_borrowing_neighbors);
  EXPECT_EQ(a.agg.mean_searching_neighbors, b.agg.mean_searching_neighbors);
  EXPECT_EQ(a.messages_by_kind, b.messages_by_kind);
  EXPECT_EQ(a.quiescent, b.quiescent);
  EXPECT_EQ(a.transport, b.transport);
}

TEST(Determinism, SweepIsThreadCountInvariant) {
  const runner::ScenarioConfig cfg = small_config();
  const std::vector<Scheme> schemes{Scheme::kBasicSearch, Scheme::kBasicUpdate,
                                    Scheme::kAdaptive};
  const std::vector<double> rhos{0.5, 1.0};
  const auto serial = runner::sweep_uniform(cfg, schemes, rhos, /*threads=*/1);
  const auto parallel = runner::sweep_uniform(cfg, schemes, rhos, /*threads=*/8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].scheme, parallel[i].scheme);
    ASSERT_EQ(serial[i].rho, parallel[i].rho);
    expect_same_result(serial[i].result, parallel[i].result,
                       runner::scheme_name(serial[i].scheme).c_str());
  }
}

TEST(Determinism, FaultInjectedRunReplaysBitIdentically) {
  runner::ScenarioConfig cfg = small_config();
  cfg.fault.drop_prob = 0.08;
  cfg.fault.dup_prob = 0.05;
  cfg.fault.jitter = sim::milliseconds(3);
  cfg.fault.pause_rate_per_min = 0.5;
  cfg.fault.pause_mean_s = 1.0;
  cfg.request_timeout = sim::milliseconds(400);

  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    sim::TraceRecorder rec_a, rec_b;
    const RunResult a = runner::run_uniform(cfg, s, 0.8, &rec_a);
    const RunResult b = runner::run_uniform(cfg, s, 0.8, &rec_b);
    expect_same_result(a, b, runner::scheme_name(s).c_str());
    EXPECT_GT(rec_a.size(), 0u);
    EXPECT_GT(a.transport.frames_dropped, 0u) << "faults should be active";
    EXPECT_EQ(rec_a.events(), rec_b.events())
        << runner::scheme_name(s) << ": full event traces must be identical";
  }
}

// The tentpole guarantee: partitioning the world across shards (and any
// worker thread count) reproduces the one-shard run bit for bit — headline
// metrics, FP aggregates, and the full structured trace.
TEST(Determinism, ShardedEngineMatchesClassicBitExactly) {
  const runner::ScenarioConfig cfg = small_config();
  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    sim::TraceRecorder rec1, rec4, rec8;
    const RunResult r1 = runner::run_uniform(cfg, s, 0.8, &rec1);

    runner::ScenarioConfig c4 = cfg;
    c4.shards = 4;
    c4.threads = 2;
    const RunResult r4 = runner::run_uniform(c4, s, 0.8, &rec4);

    runner::ScenarioConfig c8 = cfg;
    c8.shards = 8;
    c8.threads = 0;  // one thread per shard (capped by hardware)
    const RunResult r8 = runner::run_uniform(c8, s, 0.8, &rec8);

    expect_same_result(r1, r4, "shards=1 vs shards=4");
    expect_same_result(r1, r8, "shards=1 vs shards=8");
    ASSERT_GT(rec1.size(), 0u);
    EXPECT_EQ(rec1.events(), rec4.events()) << "merged trace, shards=4";
    EXPECT_EQ(rec1.events(), rec8.events()) << "merged trace, shards=8";
  }
}

// A time-varying profile thins the hot cells' candidate arrivals, so some
// candidates are rejected: those still execute as events and consume the
// arrival stream without drawing a holding time. The uniform-load tests
// above accept every candidate; this one pins the rejected path in every
// mode — buffered and streaming on one shard, and four shards on two
// threads — headline metrics and full trace alike.
TEST(Determinism, HotspotRunMatchesAcrossEnginesBitExactly) {
  runner::ScenarioConfig cfg = small_config();
  // Short calls, so each hot cell sees ~90 candidates, ~45 of them
  // rejected outside the hot minute.
  cfg.mean_holding_s = 20.0;
  const auto run = [](const runner::ScenarioConfig& c, sim::TraceRecorder* rec) {
    return runner::run_hotspot(c, Scheme::kAdaptive, 0.5, 4.0, sim::minutes(1),
                               sim::minutes(2), {7, 12, 13}, rec);
  };
  sim::TraceRecorder rec_one, rec_stream, rec_sharded;
  const RunResult one = run(cfg, &rec_one);

  runner::ScenarioConfig streaming = cfg;
  streaming.stream_metrics = true;
  const RunResult stream = run(streaming, &rec_stream);

  runner::ScenarioConfig sharded = cfg;
  sharded.shards = 4;
  sharded.threads = 2;
  const RunResult shard4 = run(sharded, &rec_sharded);

  expect_same_result(one, stream, "buffered vs streaming, shards=1");
  expect_same_result(one, shard4, "shards=1 vs shards=4");
  ASSERT_GT(rec_one.size(), 0u);
  EXPECT_EQ(rec_one.events(), rec_stream.events()) << "streamed trace";
  EXPECT_EQ(rec_one.events(), rec_sharded.events()) << "merged trace";
  EXPECT_TRUE(stream.conformance_ok());
}

// Same guarantee with the full fault cocktail: drops, duplicates, fault
// jitter, MSS pauses, and protocol timeouts all live on per-cell/per-link
// streams, so the shard decomposition cannot perturb them.
TEST(Determinism, ShardedEngineMatchesClassicUnderFaults) {
  runner::ScenarioConfig cfg = small_config();
  cfg.fault.drop_prob = 0.08;
  cfg.fault.dup_prob = 0.05;
  cfg.fault.jitter = sim::milliseconds(3);
  cfg.fault.pause_rate_per_min = 0.5;
  cfg.fault.pause_mean_s = 1.0;
  cfg.request_timeout = sim::milliseconds(400);

  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    sim::TraceRecorder rec1, rec4;
    const RunResult r1 = runner::run_uniform(cfg, s, 0.8, &rec1);

    runner::ScenarioConfig c4 = cfg;
    c4.shards = 4;
    c4.threads = 4;
    const RunResult r4 = runner::run_uniform(c4, s, 0.8, &rec4);

    expect_same_result(r1, r4, "faults, shards=1 vs shards=4");
    EXPECT_GT(r1.transport.frames_dropped, 0u) << "faults should be active";
    EXPECT_EQ(rec1.events(), rec4.events()) << "merged trace under faults";
  }
}

// Link-table stress: a much hotter fault cocktail (quarter of all frames
// dropped, heavy duplication, jitter wider than the base latency, plus
// MSS pauses) drives the flat per-link rings hard — deep retransmit
// windows, long reorder runs, pause backlogs — and the full structured
// trace must still match the one-shard run event for event at every
// shard count.
TEST(Determinism, LinkTableSurvivesFullFaultCocktailBitExactly) {
  runner::ScenarioConfig cfg = small_config();
  cfg.duration = sim::minutes(1);
  cfg.warmup = sim::seconds(10);
  cfg.fault.drop_prob = 0.25;
  cfg.fault.dup_prob = 0.15;
  cfg.fault.jitter = sim::milliseconds(8);
  cfg.fault.pause_rate_per_min = 1.0;
  cfg.fault.pause_mean_s = 0.5;
  cfg.request_timeout = sim::milliseconds(400);

  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    sim::TraceRecorder rec1;
    const RunResult r1 = runner::run_uniform(cfg, s, 0.9, &rec1);
    ASSERT_GT(rec1.size(), 0u);
    EXPECT_GT(r1.transport.frames_dropped, 0u);
    EXPECT_GT(r1.transport.frames_duplicated, 0u);
    EXPECT_GT(r1.transport.retransmissions, 0u);

    for (const int shards : {2, 4}) {
      SCOPED_TRACE(shards);
      runner::ScenarioConfig cs = cfg;
      cs.shards = shards;
      cs.threads = 0;
      sim::TraceRecorder recs;
      const RunResult rs = runner::run_uniform(cs, s, 0.9, &recs);
      expect_same_result(r1, rs, "stress cocktail, 1 shard vs N shards");
      EXPECT_EQ(rec1.events(), recs.events())
          << "full trace must be identical at shards=" << shards;
    }
  }
}

// Thread count must be wall-clock-only: same shard count, different
// worker counts, identical everything.
TEST(Determinism, ShardedThreadCountIsResultInvariant) {
  runner::ScenarioConfig cfg = small_config();
  cfg.shards = 5;
  sim::TraceRecorder rec_a, rec_b;
  cfg.threads = 1;
  const RunResult a = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8, &rec_a);
  cfg.threads = 5;
  const RunResult b = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8, &rec_b);
  expect_same_result(a, b, "threads=1 vs threads=5");
  EXPECT_EQ(rec_a.events(), rec_b.events());
}

TEST(Determinism, TracingItselfDoesNotPerturbTheRun) {
  runner::ScenarioConfig cfg = small_config();
  cfg.fault.drop_prob = 0.05;
  cfg.request_timeout = sim::milliseconds(400);
  sim::TraceRecorder rec;
  const RunResult traced = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8, &rec);
  const RunResult plain = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8);
  expect_same_result(traced, plain, "traced vs untraced");
}

}  // namespace
}  // namespace dca
