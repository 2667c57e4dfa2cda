// One-call experiment drivers: assemble a World, drive a traffic profile
// through it, and return the aggregated results every bench/table consumes.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/collector.hpp"
#include "runner/scenario.hpp"
#include "runner/world.hpp"
#include "sim/trace.hpp"
#include "traffic/profile.hpp"

namespace dca::runner {

/// Runs `scheme` under the given load profile for config.duration (plus
/// drain time) and aggregates records after config.warmup. When `trace`
/// is non-null every structured event (call lifecycle, protocol search
/// decisions, fault-layer drops/pauses) is appended to it, ending with a
/// kRunEnd summary event (a = quiescent flag, b = calls still open).
[[nodiscard]] RunResult run_profile(const ScenarioConfig& config, Scheme scheme,
                                    const traffic::LoadProfile& profile,
                                    sim::TraceRecorder* trace = nullptr);

/// Uniform Poisson load of `rho` Erlang per cell (normalized to |PR|).
[[nodiscard]] RunResult run_uniform(const ScenarioConfig& config, Scheme scheme,
                                    double rho,
                                    sim::TraceRecorder* trace = nullptr);

/// Hot-spot scenario: uniform base load `rho_base` with the central cell(s)
/// at `hot_factor` times the base rate inside [hot_start, hot_end].
[[nodiscard]] RunResult run_hotspot(const ScenarioConfig& config, Scheme scheme,
                                    double rho_base, double hot_factor,
                                    sim::SimTime hot_start, sim::SimTime hot_end,
                                    std::vector<cell::CellId> hot_cells = {},
                                    sim::TraceRecorder* trace = nullptr);

/// Multi-seed replication of one experiment point: summary statistics of
/// the headline metrics over independent seeds. The confidence the paper's
/// style of single-run tables lacks.
struct Replicated {
  metrics::Summary drop_rate;           // per-seed drop rates
  metrics::Summary mean_delay_in_T;     // per-seed mean acquisition times
  metrics::Summary mean_msgs_per_call;  // per-seed mean attributed messages
  metrics::Summary xi1;                 // per-seed local fractions
  std::uint64_t violations = 0;         // summed over seeds (must be 0)
  int seeds = 0;
};

/// Runs `n_seeds` independent replications (seeds derived from
/// config.seed) of a uniform-load point.
[[nodiscard]] Replicated run_replicated(const ScenarioConfig& config, Scheme scheme,
                                        double rho, int n_seeds);

/// A load sweep point set, possibly executed on several worker threads
/// (each point is an independent World with its own seed-derived streams,
/// so the results are identical whatever the thread count).
struct SweepPoint {
  Scheme scheme;
  double rho;
  RunResult result;
};
[[nodiscard]] std::vector<SweepPoint> sweep_uniform(const ScenarioConfig& config,
                                                    const std::vector<Scheme>& schemes,
                                                    const std::vector<double>& rhos,
                                                    int threads = 1);

}  // namespace dca::runner
