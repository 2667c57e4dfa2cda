// Run products pinned as digests. Call records and the trace are folded
// out of the engine at window barriers instead of being buffered for the
// whole run, and the bar is *bit identity* with a reduction over the
// whole buffered run — the same Aggregate doubles and the same trace byte
// for byte — on the golden scenarios the paper tables are reproduced from
// (Table 2's low-load point, Table 3's high-load sweep points) and on the
// engine's hard configurations (multi-shard, latency jitter, mobility).
//
// Each digest below is FNV-1a over every field a metrics::Table cell or
// the JSON output can be rendered from (doubles as hex floats). The
// digests were taken from the buffered reduction the engine used to keep
// beside the fold, and the fold reproduced them before that path was
// deleted; "MatchesBuffered" in a test name refers to that pinned
// reduction. A mismatch means the simulation or its reduction changed.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/collector.hpp"
#include "runner/conformance.hpp"
#include "runner/experiment.hpp"
#include "sim/trace.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::ScenarioConfig;
using runner::Scheme;
using testutil::fnv1a;

/// Shortened paper-table scenario (8x8, 70 channels): same geometry and
/// rates as the Table 1/2/3 benches, trimmed so the full matrix stays in
/// test time.
ScenarioConfig golden_config() {
  ScenarioConfig c = testutil::paper_config();
  c.duration = sim::minutes(6);
  c.warmup = sim::minutes(1);
  return c;
}

/// Every Aggregate field (Summaries in full) plus the run-level totals.
std::string run_text(const RunResult& r) {
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
  const auto summary = [&](const char* k, const metrics::Summary& x) {
    u(k, x.count());
    d("mean", x.mean());
    d("var", x.variance());
    d("min", x.min());
    d("max", x.max());
  };
  const metrics::Aggregate& a = r.agg;
  u("offered", a.offered);
  u("acquired", a.acquired);
  u("blocked", a.blocked);
  u("starved", a.starved);
  u("timed_out", a.timed_out);
  u("downed", a.downed);
  u("handoff_offered", a.handoff_offered);
  u("handoff_failures", a.handoff_failures);
  d("xi1", a.xi1);
  d("xi2", a.xi2);
  d("xi3", a.xi3);
  d("m", a.mean_update_attempts);
  d("n_borrow", a.mean_borrowing_neighbors);
  d("n_search", a.mean_searching_neighbors);
  summary("attempts", a.attempts);
  summary("delay_us", a.delay_us);
  summary("delay_in_T", a.delay_in_T);
  summary("messages_per_call", a.messages_per_call);
  summary("messages_acquired", a.messages_acquired);
  u("total_messages", r.total_messages);
  u("offered_calls", r.offered_calls);
  d("carried_erlangs", r.carried_erlangs);
  u("violations", r.violations);
  u("quiescent", r.quiescent ? 1 : 0);
  for (const std::uint64_t k : r.messages_by_kind) u("kind", k);
  return s;
}

/// Runs `cfg` at `rho` and checks the result against the pinned digest.
void expect_pinned(const ScenarioConfig& cfg, Scheme scheme, double rho,
                   std::uint64_t want) {
  const RunResult r = runner::run_uniform(cfg, scheme, rho);
  const std::uint64_t got = fnv1a(run_text(r));
  EXPECT_EQ(got, want) << std::hex << "digest 0x" << got << "\n"
                       << run_text(r);
}

TEST(StreamingMetrics, GoldenLowLoadPointMatchesBuffered) {
  // Table 2's premise: uniformly low load, all four paper schemes, in
  // runner::kPaperSchemes order.
  constexpr std::uint64_t kWant[] = {0x6a94ebb280897c5eull, 0x4a2bcf978456f2e2ull,
                                     0x8421e880ba5b7103ull, 0x934c7bc0eedb4eeeull};
  const ScenarioConfig cfg = golden_config();
  std::size_t k = 0;
  for (const Scheme s : runner::kPaperSchemes) {
    SCOPED_TRACE(runner::scheme_name(s));
    expect_pinned(cfg, s, 0.1, kWant[k++]);
  }
}

TEST(StreamingMetrics, GoldenHighLoadPointsMatchBuffered) {
  // Table 3's observed-extremes sweep, trimmed to its endpoints where
  // blocking/starvation and heavy message traffic actually occur.
  struct Point {
    double rho;
    Scheme scheme;
    std::uint64_t want;
  };
  constexpr Point kPoints[] = {
      {0.4, Scheme::kAdaptive, 0xab4d5d3002f39247ull},
      {0.4, Scheme::kBasicUpdate, 0x0a204eed1d46fb39ull},
      {0.95, Scheme::kAdaptive, 0x0d7ccc8e0ad9cc31ull},
      {0.95, Scheme::kBasicUpdate, 0x2ffdf69d33a253b2ull},
  };
  const ScenarioConfig cfg = golden_config();
  for (const Point& p : kPoints) {
    SCOPED_TRACE(runner::scheme_name(p.scheme) + " rho=" +
                 std::to_string(p.rho));
    expect_pinned(cfg, p.scheme, p.rho, p.want);
  }
}

TEST(StreamingMetrics, ShardedJitteredMobileRunMatchesBuffered) {
  // The engine's hard mode all at once: 4 shards, per-link latency
  // jitter, and mobility (handoff legs exercise the hop-serial tally
  // path that base serials never touch).
  ScenarioConfig cfg = golden_config();
  cfg.shards = 4;
  cfg.latency_jitter = sim::milliseconds(2);
  cfg.mean_dwell_s = 90.0;
  expect_pinned(cfg, Scheme::kAdaptive, 0.9, 0x45fedf94aa1d0a5aull);
}

TEST(StreamingMetrics, StreamedTraceIsByteIdenticalAndConformant) {
  constexpr std::uint64_t kWantTrace = 0xaf314acef90f4354ull;
  constexpr std::uint64_t kWantResult = 0xe587dee23f79c876ull;
  ScenarioConfig cfg = golden_config();
  cfg.duration = sim::minutes(3);
  cfg.shards = 4;
  cfg.mean_dwell_s = 120.0;
  sim::TraceRecorder rec;  // no sink: buffers the emitted trace
  const RunResult r = runner::run_uniform(cfg, Scheme::kAdaptive, 0.9, &rec);
  const std::uint64_t trace = fnv1a(runner::trace_to_jsonl(rec.events()));
  const std::uint64_t result = fnv1a(run_text(r));
  EXPECT_EQ(trace, kWantTrace) << std::hex << "trace digest 0x" << trace;
  EXPECT_EQ(result, kWantResult) << std::hex << "result digest 0x" << result;
  // With a trace attached, the engine replays it through the in-engine
  // conformance checker as it folds it out.
  EXPECT_TRUE(r.conformance_checked);
  EXPECT_EQ(r.conformance_violations, 0u);
  EXPECT_TRUE(r.conformance_ok());
}

TEST(StreamingMetrics, SmallGridSingleShardStreams) {
  const ScenarioConfig cfg = testutil::small_config();
  expect_pinned(cfg, Scheme::kAdaptive, 0.8, 0xf6fee95865be39c5ull);
  expect_pinned(cfg, Scheme::kBasicSearch, 0.8, 0x21c1bd4cf17bae89ull);
}

TEST(StreamingMetrics, PeakRssIsReported) {
  ScenarioConfig cfg = testutil::small_config();
  cfg.duration = sim::minutes(2);
  const RunResult r = runner::run_uniform(cfg, Scheme::kAdaptive, 0.5);
#ifdef __linux__
  EXPECT_GT(r.peak_rss_bytes, 0u);
#endif
}

}  // namespace
}  // namespace dca
