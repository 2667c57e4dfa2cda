// Poisson call arrivals, drawn once at set-up into a flat table.
//
// One independent arrival process per cell, each on its own RNG substream
// (so adding a cell or changing one cell's profile never perturbs another
// cell's arrival trajectory). Time-varying profiles are sampled exactly via
// Lewis–Shedler thinning against the profile's per-cell rate ceiling: every
// candidate draws its gap at the ceiling rate and a thinning uniform from
// the cell's arrival stream, and each accepted candidate draws an
// exponential holding time from the cell's holding stream.
//
// The whole run's candidates are drawn before the first event executes.
// The engine replays them as arrival events (a thinned candidate still
// fires, and still costs an event, exactly as a live chain would), so the
// table is the only place that knows the draw order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cell/grid.hpp"
#include "sim/types.hpp"
#include "traffic/call.hpp"
#include "traffic/profile.hpp"

namespace dca::traffic {

struct ArrivalTable {
  struct Candidate {
    sim::SimTime t = 0;
    sim::Duration holding = 0;  // 0: thinned away, no call
    CallId id = 0;              // accepted candidates only
  };
  /// Cell c's candidates, in time order, at [begin[c], begin[c + 1]).
  std::vector<Candidate> candidates;
  std::vector<std::size_t> begin;  // n_cells + 1 entries
  /// Arrival cell of each accepted call: call_cell[id - 1].
  std::vector<cell::CellId> call_cell;

  [[nodiscard]] std::uint64_t calls() const noexcept { return call_cell.size(); }
};

/// Draws every candidate arrival in [0, horizon) for cells 0..n_cells-1.
/// Cell c draws from substream (seed, c) for arrivals and (seed, c +
/// n_cells) for holding times; holding times are at least 1 us. CallIds
/// go to the accepted candidates densely from 1 in (time, cell) order —
/// the order the engine executes their arrival events in.
[[nodiscard]] ArrivalTable draw_arrivals(int n_cells, const LoadProfile& profile,
                                         double mean_holding_seconds,
                                         std::uint64_t seed, sim::SimTime horizon);

}  // namespace dca::traffic
