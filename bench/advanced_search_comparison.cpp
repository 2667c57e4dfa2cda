// E-S4 — The Section 6 comparison against the advanced search scheme of
// Prakash, Shivaratri & Singhal [8].
//
// The paper's argument: [8] also adapts to load (a cell keeps channels it
// pulled in, so transient hot spots are served from the allocated set),
// but once the allocated pool is exhausted a channel must be *transferred*
// — TRANSFER/AGREE/KEEP legs on top of the 2N search, and possibly several
// rounds when owners refuse — whereas the adaptive scheme moves a channel
// in a single borrowing round. We drive both schemes (plus basic search as
// the common ancestor) through:
//
//   phase 1  a hot spot that RETURNS periodically at the same cell — the
//            regime [8] is designed for (retention pays off);
//   phase 2  a hot spot that MOVES across the grid each burst — retention
//            keeps channels where load no longer is, forcing transfers.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "metrics/table.hpp"
#include "proto/advanced_search.hpp"
#include "runner/world.hpp"
#include "traffic/profile.hpp"

namespace {

using namespace dca;
using metrics::Table;
using runner::Scheme;

struct Phase {
  const char* title;
  std::vector<cell::CellId> hot_cells;  // one per burst, cycled
};

struct Result {
  metrics::Aggregate agg;
  std::uint64_t transfer_msgs = 0;
  std::uint64_t transfers = 0;
  std::uint64_t denials = 0;
};

// A profile with a sequence of 2-minute bursts, each centred on one cell.
class BurstProfile final : public traffic::LoadProfile {
 public:
  BurstProfile(double base, double hot, std::vector<cell::CellId> cells,
               sim::Duration burst_len)
      : base_(base), hot_(hot), cells_(std::move(cells)), len_(burst_len) {}

  [[nodiscard]] double rate(cell::CellId c, sim::SimTime t) const override {
    const auto idx = static_cast<std::size_t>(t / len_);
    if (idx < cells_.size() && cells_[idx] == c) return hot_;
    return base_;
  }
  [[nodiscard]] double max_rate(cell::CellId c) const override {
    for (const cell::CellId h : cells_)
      if (h == c) return hot_;
    return base_;
  }

 private:
  double base_;
  double hot_;
  std::vector<cell::CellId> cells_;
  sim::Duration len_;
};

Result run_phase(Scheme scheme, const runner::ScenarioConfig& cfg,
                 const BurstProfile& profile) {
  runner::World w(cfg, scheme, &profile);
  w.run_to_quiescence();
  if (w.interference_violations() != 0 || !w.quiescent()) {
    std::fprintf(stderr, "INVARIANT FAILURE in %s\n",
                 runner::scheme_name(scheme).c_str());
    std::exit(1);
  }
  Result out;
  out.agg = metrics::aggregate_records(w.records(), w.latency_bound(), cfg.warmup);
  out.transfer_msgs = w.sent_of(net::MsgKind::kTransfer);
  if (scheme == Scheme::kAdvancedSearch) {
    for (cell::CellId c = 0; c < w.grid().n_cells(); ++c) {
      const auto& n = dynamic_cast<const proto::AdvancedSearchNode&>(w.node(c));
      out.transfers += n.transfers_in();
      out.denials += n.transfer_denials();
    }
  }
  return out;
}

}  // namespace

int main() {
  auto cfg = benchutil::paper_config();
  cfg.duration = sim::minutes(24);
  cfg.warmup = sim::minutes(2);
  // A tighter spectrum (35 channels, |PR| = 5) plus a strong hot spot:
  // the regime where the region's unallocated pool actually runs dry and
  // [8] has to transfer channels rather than just allocate fresh ones.
  cfg.n_channels = 35;
  const double base_rate = cfg.arrival_rate_for_load(0.3);
  const double hot_rate = cfg.arrival_rate_for_load(3.0);
  const auto burst = sim::minutes(2);

  const cell::CellId center = (cfg.rows / 2) * cfg.cols + cfg.cols / 2;
  std::vector<cell::CellId> returning(12, center);
  std::vector<cell::CellId> moving;
  for (int i = 0; i < 12; ++i) {
    moving.push_back(((2 + (i % 4)) * cfg.cols) + 2 + ((i / 4) % 4) * 2);
  }

  const Phase phases[] = {
      {"Phase 1: hot spot returning to the same cell (retention-friendly)",
       returning},
      {"Phase 2: hot spot moving across the grid (retention hostile)", moving},
  };
  const Scheme schemes[] = {Scheme::kBasicSearch, Scheme::kAdvancedSearch,
                            Scheme::kAdaptive};

  for (const Phase& phase : phases) {
    benchutil::heading(phase.title);
    Table t({"Scheme", "drop%", "mean AcqT [T]", "msgs/call", "xi1",
             "transfer msgs", "transfers", "denials"});
    const BurstProfile profile(base_rate, hot_rate, phase.hot_cells, burst);
    for (const Scheme s : schemes) {
      const Result r = run_phase(s, cfg, profile);
      t.add_row({runner::scheme_name(s), Table::num(100 * r.agg.drop_rate(), 2),
                 Table::num(r.agg.delay_in_T.mean(), 3),
                 Table::num(r.agg.messages_per_call.mean(), 1),
                 Table::num(r.agg.xi1, 3), std::to_string(r.transfer_msgs),
                 std::to_string(r.transfers), std::to_string(r.denials)});
    }
    std::printf("%s\n", t.render().c_str());
  }

  benchutil::note(
      "Shape checks (paper Section 6): both adaptive schemes serve repeat\n"
      "bursts far more cheaply than plain search (high xi1). When the hot\n"
      "spot keeps moving, [8] must transfer channels away from stale owners\n"
      "(extra TRANSFER legs and denials), while the adaptive scheme's\n"
      "single-round borrowing keeps cost flat.");
  return 0;
}
