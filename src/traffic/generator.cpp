#include "traffic/generator.hpp"

#include <algorithm>
#include <cassert>

#include "sim/random.hpp"

namespace dca::traffic {

ArrivalTable draw_arrivals(int n_cells, const LoadProfile& profile,
                           double mean_holding_seconds, std::uint64_t seed,
                           sim::SimTime horizon) {
  assert(mean_holding_seconds > 0.0);
  struct Accepted {
    sim::SimTime t;
    cell::CellId c;
    std::size_t pos;  // index into candidates
  };
  ArrivalTable out;
  std::vector<Accepted> accepted;
  const auto n = static_cast<std::size_t>(n_cells);
  out.begin.assign(n + 1, 0);
  for (cell::CellId c = 0; c < n_cells; ++c) {
    out.begin[static_cast<std::size_t>(c)] = out.candidates.size();
    const double ceiling = profile.max_rate(c);
    if (ceiling <= 0.0) continue;  // silent cell
    sim::RngStream arrival =
        sim::RngStream::derive(seed, static_cast<std::uint64_t>(c));
    sim::RngStream holding =
        sim::RngStream::derive(seed, static_cast<std::uint64_t>(c + n_cells));
    sim::SimTime t = 0;
    for (;;) {
      t += arrival.exponential_gap(ceiling);
      if (t >= horizon) break;
      ArrivalTable::Candidate cand{t, 0, 0};
      if (arrival.uniform() < profile.rate(c, t) / ceiling) {
        cand.holding = std::max<sim::Duration>(
            sim::from_seconds(holding.exponential_mean(mean_holding_seconds)), 1);
        accepted.push_back(Accepted{t, c, out.candidates.size()});
      }
      out.candidates.push_back(cand);
    }
  }
  out.begin[n] = out.candidates.size();
  std::stable_sort(accepted.begin(), accepted.end(),
                   [](const Accepted& a, const Accepted& b) {
                     return a.t != b.t ? a.t < b.t : a.c < b.c;
                   });
  out.call_cell.reserve(accepted.size());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    out.call_cell.push_back(accepted[i].c);
    out.candidates[accepted[i].pos].id = static_cast<CallId>(i + 1);
  }
  return out;
}

}  // namespace dca::traffic
