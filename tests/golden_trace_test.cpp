// Golden digests: the engine's observable behaviour frozen as data.
//
// Every (scheme, scenario) case below is pinned by two FNV-1a digests:
// one over the full structured trace serialized as JSONL, one over the
// headline RunResult fields (counts, bit-exact floating-point aggregates,
// per-kind message counters, transport and availability counters). Each
// case must reproduce both digests at every shard count and worker thread
// count — so the digests pin the behaviour across refactors, and
// shard-count invariance pins the kernel's canonical event order.
//
// A digest mismatch means the simulation changed. If the change is
// intended (a protocol fix, a new trace field), re-derive the table from
// the failure messages and say why in the commit.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "runner/conformance.hpp"
#include "runner/experiment.hpp"
#include "runner/world.hpp"
#include "sim/trace.hpp"
#include "test_util.hpp"
#include "traffic/mobility.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::Scheme;
using testutil::fnv1a;

// Doubles are rendered as hex floats, so the digest is bit-exact.
std::string result_text(const RunResult& r) {
  std::string s;
  char buf[96];
  const auto u = [&](const char* k, std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "%s=%" PRIu64 ";", k, v);
    s += buf;
  };
  const auto d = [&](const char* k, double v) {
    std::snprintf(buf, sizeof buf, "%s=%a;", k, v);
    s += buf;
  };
  u("offered", r.agg.offered);
  u("acquired", r.agg.acquired);
  u("blocked", r.agg.blocked);
  u("starved", r.agg.starved);
  u("timed_out", r.agg.timed_out);
  u("downed", r.agg.downed);
  u("total_messages", r.total_messages);
  u("executed_events", r.executed_events);
  u("offered_calls", r.offered_calls);
  u("violations", r.violations);
  d("carried_erlangs", r.carried_erlangs);
  d("delay_in_T", r.agg.delay_in_T.mean());
  d("delay_us", r.agg.delay_us.mean());
  d("msgs_per_call", r.agg.messages_per_call.mean());
  d("xi1", r.agg.xi1);
  d("xi2", r.agg.xi2);
  d("xi3", r.agg.xi3);
  d("m", r.agg.mean_update_attempts);
  d("n_borrow", r.agg.mean_borrowing_neighbors);
  d("n_search", r.agg.mean_searching_neighbors);
  for (const std::uint64_t k : r.messages_by_kind) u("kind", k);
  u("quiescent", r.quiescent ? 1 : 0);
  u("dropped", r.transport.frames_dropped);
  u("duplicated", r.transport.frames_duplicated);
  u("retransmissions", r.transport.retransmissions);
  u("acks", r.transport.acks_sent);
  u("crashes", r.availability.crashes);
  u("resyncs", r.availability.resyncs);
  u("down_us", r.availability.down_us);
  u("resync_us", r.availability.resync_us);
  u("resync_rounds", r.availability.resync_rounds);
  u("max_resync_rounds", r.availability.max_resync_rounds);
  return s;
}

runner::ScenarioConfig base_config() {
  runner::ScenarioConfig cfg;
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.n_channels = 35;
  cfg.mean_holding_s = 60.0;
  cfg.duration = sim::minutes(2);
  cfg.warmup = sim::seconds(20);
  cfg.seed = 11;
  return cfg;
}

enum class Scenario { kClean, kCocktail, kCrashPartition, kHotspot };

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kClean: return "clean";
    case Scenario::kCocktail: return "cocktail";
    case Scenario::kCrashPartition: return "crash+partition";
    case Scenario::kHotspot: return "hotspot";
  }
  return "?";
}

runner::ScenarioConfig scenario_config(Scenario s) {
  runner::ScenarioConfig cfg = base_config();
  switch (s) {
    case Scenario::kClean:
    case Scenario::kHotspot:
      break;
    case Scenario::kCocktail:
      // Latency jitter, mobility, lossy duplicating jittery links, and
      // protocol timeouts, all at once.
      cfg.latency_jitter = sim::milliseconds(2);
      cfg.mean_dwell_s = 30.0;
      cfg.fault.drop_prob = 0.05;
      cfg.fault.dup_prob = 0.03;
      cfg.fault.jitter = sim::milliseconds(3);
      cfg.request_timeout = sim::milliseconds(400);
      break;
    case Scenario::kCrashPartition:
      cfg.fault.crash_rate_per_min = 1.0;
      cfg.fault.crash_mean_s = 2.0;
      cfg.fault.partitions = {
          net::PartitionSpec{{0, 1, 5}, sim::seconds(20), sim::seconds(35)},
          net::PartitionSpec{{24}, sim::seconds(50), sim::seconds(60)}};
      cfg.request_timeout = sim::milliseconds(400);
      break;
  }
  return cfg;
}

RunResult run_case(Scenario s, Scheme scheme, const runner::ScenarioConfig& cfg,
                   sim::TraceRecorder* rec) {
  if (s == Scenario::kHotspot) {
    return runner::run_hotspot(cfg, scheme, 0.5, 4.0, sim::seconds(30),
                               sim::seconds(90), {7, 12, 13}, rec);
  }
  return runner::run_uniform(cfg, scheme, 0.8, rec);
}

struct Digest {
  std::uint64_t trace;
  std::uint64_t result;
};

struct Engine {
  int shards;
  int threads;
};

std::string engine_name(const Engine& e) {
  return "shards=" + std::to_string(e.shards) +
         " threads=" + std::to_string(e.threads);
}

// kGolden[scenario][scheme], schemes in runner::kAllSchemes order.
constexpr Digest kGolden[4][6] = {
    // clean
    {{0xbf10251f6b682675ull, 0xdbfd9a75d7569df9ull},
     {0x9c8c3b8d70af67ceull, 0xee28b55522a1e9f0ull},
     {0x1380d96d71239d82ull, 0xb82ea8a5eab4a80full},
     {0x0e041c5dc4f3cc33ull, 0x7e6927e290def268ull},
     {0x2d574946b6e86f48ull, 0x3b9f614ae049048bull},
     {0xe6d7e8ba3f3a730eull, 0xef9b69e800865203ull}},
    // cocktail
    {{0xa439d5520da4dd87ull, 0xc3a7ca0bae5111abull},
     {0xce9c77c21f2b6c8eull, 0x2233e603e561eb37ull},
     {0x8317d56f1366b12bull, 0x112e18e18994a6f9ull},
     {0x52dbce2c9a341085ull, 0x9b33aa83b7aeeb0dull},
     {0x3950e74c7d00b680ull, 0x4ffb2997b93be092ull},
     {0xc72363a20bcaeff0ull, 0x105f8d2a038691a6ull}},
    // crash+partition
    {{0x835177dc1f0c5d3cull, 0x76240df382d3c779ull},
     {0xd91af86536f0ed6cull, 0x553de1025247c597ull},
     {0x854fcc6f1aa6bb83ull, 0x6a330f96220cb4abull},
     {0xe8d115826f700512ull, 0x0abbd0bb015c9478ull},
     {0x89e5188ad7099fd0ull, 0x26e5c8a215f5fce0ull},
     {0x6ad220e2d5947112ull, 0xf56eb24a5525e92bull}},
    // hotspot
    {{0x1bf9986149d86713ull, 0x67792b8d59d738d9ull},
     {0xdd5c85683d44c26eull, 0x06c159b762e65defull},
     {0x76b9afab008f1817ull, 0x3eec3d14b8f5a0a0ull},
     {0xdec16d539fdb4977ull, 0x4193811c8a2cc108ull},
     {0x2fe6b2d4b476a608ull, 0xf63dc49ca9b5ddd2ull},
     {0x1ae729e67fa2f04cull, 0xd66774253bc601d9ull}},
};

class GoldenTrace : public ::testing::TestWithParam<Scenario> {};

TEST_P(GoldenTrace, DigestsHoldAtEveryShardAndThreadCount) {
  const Scenario scenario = GetParam();
  const std::vector<Engine> engines = {
      {1, 1}, {1, 4}, {2, 1}, {2, 4}, {4, 1}, {4, 4},
  };
  for (std::size_t k = 0; k < std::size(runner::kAllSchemes); ++k) {
    const Scheme scheme = runner::kAllSchemes[k];
    const Digest& want = kGolden[static_cast<int>(scenario)][k];
    for (const Engine& e : engines) {
      SCOPED_TRACE(std::string(scenario_name(scenario)) + " / " +
                   runner::scheme_name(scheme) + " / " + engine_name(e));
      runner::ScenarioConfig cfg = scenario_config(scenario);
      cfg.shards = e.shards;
      cfg.threads = e.threads;
      sim::TraceRecorder rec;
      const RunResult r = run_case(scenario, scheme, cfg, &rec);
      ASSERT_GT(rec.size(), 0u);
      EXPECT_EQ(r.violations, 0u);
      EXPECT_TRUE(r.quiescent);
      EXPECT_TRUE(r.conformance_ok());
      if (scenario == Scenario::kCocktail) {
        EXPECT_GT(r.transport.frames_dropped, 0u) << "faults should be active";
      }
      if (scenario == Scenario::kCrashPartition) {
        EXPECT_GT(r.availability.crashes, 0u) << "crashes should be active";
      }
      const Digest got{fnv1a(runner::trace_to_jsonl(rec.events())),
                       fnv1a(result_text(r))};
      EXPECT_EQ(got.trace, want.trace)
          << std::hex << "trace digest 0x" << got.trace;
      EXPECT_EQ(got.result, want.result)
          << std::hex << "result digest 0x" << got.result << "\n"
          << result_text(r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, GoldenTrace,
    ::testing::Values(Scenario::kClean, Scenario::kCocktail,
                      Scenario::kCrashPartition, Scenario::kHotspot),
    [](const ::testing::TestParamInfo<Scenario>& p) {
      switch (p.param) {
        case Scenario::kClean: return std::string("Clean");
        case Scenario::kCocktail: return std::string("Cocktail");
        case Scenario::kCrashPartition: return std::string("CrashPartition");
        case Scenario::kHotspot: return std::string("Hotspot");
      }
      return std::string("Unknown");
    });

// The step API's records() view, pinned the same way. A scripted adaptive
// world offers 330 calls 1 s apart (every other one at one hot cell, the
// rest around it) with 20 s mean dwell, so the view spans five and a half
// simulated minutes of one-second fold strides, update and search
// acquisitions, blocks and handoff legs. It is digested mid-run (while
// calls are still open and records still close at now()) and after the
// drain, over every record field an output reads.
std::string records_text(const std::vector<metrics::CallRecord>& recs) {
  std::string s;
  char buf[160];
  for (const metrics::CallRecord& r : recs) {
    std::snprintf(buf, sizeof buf,
                  "%" PRIu64 ",%d,%" PRId64 ",%" PRId64 ",%d,%d,%d,%d,%u;",
                  r.serial, r.cellId, r.t_request, r.t_decision,
                  static_cast<int>(r.outcome), r.attempts,
                  r.borrowing_neighbors, r.searching_neighbors,
                  r.total_messages());
    s += buf;
  }
  return s;
}

constexpr std::uint64_t kGoldenRecordsMid = 0xb0f3ca1f4bff47caull;
constexpr std::uint64_t kGoldenRecordsEnd = 0x288e768b634bb828ull;

TEST(GoldenRecords, ScriptedRecordsViewHoldsAtOneAndFourShards) {
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    runner::ScenarioConfig cfg = testutil::small_config();
    cfg.mean_dwell_s = 20.0;
    cfg.shards = shards;
    runner::World w(cfg, Scheme::kAdaptive);
    const cell::CellId hot = testutil::center_cell(cfg);
    const auto around = w.grid().neighbors(hot);
    std::uint64_t mid = 0;
    for (int i = 0; i < 330; ++i) {
      const cell::CellId c =
          i % 2 == 0 ? around[static_cast<std::size_t>(i / 2) % around.size()]
                     : hot;
      testutil::offer_call(w, c, static_cast<traffic::CallId>(i + 1),
                           sim::seconds(20 + (i * 37) % 60));
      w.run_until(w.now() + sim::milliseconds(1000));
      if (i == 165) mid = fnv1a(records_text(w.records()));
    }
    w.run_to_quiescence();
    const std::vector<metrics::CallRecord>& recs = w.records();
    int legs = 0, update = 0, search = 0, blocked = 0;
    for (const metrics::CallRecord& r : recs) {
      if (traffic::mobility::hop_of(r.serial) > 0) ++legs;
      if (r.outcome == proto::Outcome::kAcquiredUpdate) ++update;
      if (r.outcome == proto::Outcome::kAcquiredSearch) ++search;
      if (!proto::is_acquired(r.outcome)) ++blocked;
    }
    EXPECT_GT(legs, 0);
    EXPECT_GT(update, 0);
    EXPECT_GT(search, 0);
    EXPECT_GT(blocked, 0);
    EXPECT_TRUE(w.quiescent());
    EXPECT_EQ(mid, kGoldenRecordsMid) << std::hex << "mid digest 0x" << mid;
    const std::uint64_t end = fnv1a(records_text(recs));
    EXPECT_EQ(end, kGoldenRecordsEnd) << std::hex << "end digest 0x" << end;
  }
}

}  // namespace
}  // namespace dca
