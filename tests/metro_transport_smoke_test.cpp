// Lossy-transport memory smoke: a 48x48 high-load run over the
// reliable transport (1% frame loss, 200 ms request timeouts) on 4
// shards, in its own test binary so getrusage's process-wide peak-RSS
// high-water mark measures this run alone. It gates on
//
//   * conformance — the in-engine checker replays the streamed trace
//     while a sink discards it;
//   * a peak-RSS budget in bytes per cell for the transport's per-link
//     state. On top of metro_smoke_test's per-cell state this run holds a
//     send window and a reorder ring per link (started at 4 slots, grown
//     only on collision; in-order frames skip the reorder ring) and one
//     lazily made mt19937_64 fault stream per link that carries a frame
//     (~2.5 KB each for ~18 links per cell: the largest term here).
//     Measured: ~73 KiB/cell (48x48, 15 s). The 110 KiB ceiling leaves
//     ~1.5x headroom, so rings sized up front again or retransmit windows
//     that never drain trip it while allocator noise does not.
//
// Runs under the `metro` ctest label; CI's release lane includes it.
#include <cstdint>
#include <cstdio>

#include <gtest/gtest.h>

#include "runner/experiment.hpp"
#include "sim/trace.hpp"

namespace dca {
namespace {

TEST(MetroTransportSmoke, LossyStreamingRunStaysConformantWithinMemoryBudget) {
  runner::ScenarioConfig cfg;
  cfg.rows = 48;
  cfg.cols = 48;
  cfg.interference_radius = 2;
  cfg.n_channels = 70;
  cfg.cluster = 7;
  cfg.mean_holding_s = 5.0;
  cfg.latency = sim::milliseconds(5);
  cfg.seed = 11;
  cfg.duration = sim::seconds(15);
  cfg.warmup = sim::seconds(5);
  cfg.shards = 4;
  cfg.fault.drop_prob = 0.01;
  cfg.request_timeout = sim::milliseconds(200);

  sim::TraceRecorder rec;
  rec.set_sink([](const sim::TraceEvent&) {});

  const runner::RunResult r =
      runner::run_uniform(cfg, runner::Scheme::kAdaptive, 0.9, &rec);

  EXPECT_GT(r.offered_calls, 30'000u);
  EXPECT_GT(r.transport.frames_dropped, 0u) << "losses should be active";
  EXPECT_GT(r.transport.retransmissions, 0u);
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
  constexpr double kBytesPerCellBudget = 110.0 * 1024;
  EXPECT_LE(bytes_per_cell, kBytesPerCellBudget)
      << "peak RSS " << r.peak_rss_bytes << " bytes over " << cells
      << " cells = " << bytes_per_cell
      << " bytes/cell; the lossy-transport memory budget is "
      << kBytesPerCellBudget
      << ". If this is an intentional per-link cost, re-derive the budget in "
         "docs/ARCHITECTURE.md (memory layout) and update it here.";
#endif
}

}  // namespace
}  // namespace dca
