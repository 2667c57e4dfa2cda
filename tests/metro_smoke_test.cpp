// Metro-scale smoke: a 60x60-cell high-load run in its own test
// binary (so getrusage's process-wide peak-RSS high-water mark measures
// this run, not a neighbouring test), gating on
//
//   * conformance — the in-engine checker replays the streamed trace
//     against every paper invariant while the trace itself is discarded
//     through a sink (nothing is buffered);
//   * a peak-RSS budget in bytes per cell — the regression tripwire for
//     the compact per-cell state. Per cell that is node/link/truth state,
//     an NFC history of change points only, and a node RNG stream only if
//     the cell ever makes a randomized pick (arrival and holding draws are
//     made at set-up into the traffic table); on top of that ride the ~9
//     Erlangs/cell of live-call state this load sustains, the fixed
//     process overhead (binary + gtest + allocator, which amortizes at
//     metro scale but not over 3600 cells), and the O(calls) terms: ~24 B
//     per candidate arrival in the traffic table and the deferred
//     message-tally state. Measured: ~21 KiB/cell here (60x60, 30 s,
//     ~194k calls). The 32 KiB ceiling leaves ~1.5x headroom so real
//     leaks (per-cell vectors sized by n_cells again, un-pruned
//     histories, buffered records) trip it while allocator noise does
//     not.
//
// Runs under the `metro` ctest label; CI's release lane includes it.
#include <cstdint>
#include <cstdio>

#include <gtest/gtest.h>

#include "runner/experiment.hpp"
#include "sim/trace.hpp"

namespace dca {
namespace {

TEST(MetroSmoke, HighLoadStreamingRunStaysConformantWithinMemoryBudget) {
  runner::ScenarioConfig cfg;
  cfg.rows = 60;
  cfg.cols = 60;
  cfg.interference_radius = 2;
  cfg.n_channels = 70;
  cfg.cluster = 7;
  cfg.mean_holding_s = 5.0;  // short calls => high event density
  cfg.latency = sim::milliseconds(5);
  cfg.seed = 11;
  cfg.duration = sim::seconds(30);
  cfg.warmup = sim::seconds(5);
  cfg.shards = 4;

  // Discarding sink: the engine folds the trace out in canonical order,
  // the conformance checker sees every event, and nothing accumulates.
  sim::TraceRecorder rec;
  rec.set_sink([](const sim::TraceEvent&) {});

  const runner::RunResult r =
      runner::run_uniform(cfg, runner::Scheme::kAdaptive, 0.9, &rec);

  // ~194k offered calls at these rates; the run must complete clean.
  EXPECT_GT(r.offered_calls, 100'000u);
  EXPECT_TRUE(r.quiescent);
  EXPECT_EQ(r.violations, 0u);
  ASSERT_TRUE(r.conformance_checked);
  EXPECT_EQ(r.conformance_violations, 0u);
  EXPECT_TRUE(r.conformance_ok());

#ifdef __linux__
  ASSERT_GT(r.peak_rss_bytes, 0u);
  const std::uint64_t cells =
      static_cast<std::uint64_t>(cfg.rows) * static_cast<std::uint64_t>(cfg.cols);
  const double bytes_per_cell =
      static_cast<double>(r.peak_rss_bytes) / static_cast<double>(cells);
  // Printed so a budget can be re-derived from any CI log.
  std::printf("peak RSS %.1f KiB/cell\n", bytes_per_cell / 1024);
  constexpr double kBytesPerCellBudget = 32.0 * 1024;
  EXPECT_LE(bytes_per_cell, kBytesPerCellBudget)
      << "peak RSS " << r.peak_rss_bytes << " bytes over " << cells
      << " cells = " << bytes_per_cell
      << " bytes/cell; the metro memory budget is " << kBytesPerCellBudget
      << ". If this is an intentional per-cell cost, re-derive the budget in "
         "docs/ARCHITECTURE.md (memory layout) and update it here.";
#endif
}

}  // namespace
}  // namespace dca
