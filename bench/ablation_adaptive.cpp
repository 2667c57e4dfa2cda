// E-S3 — Ablations of the adaptive scheme's design choices (Section 3.5):
//
//  A1  hysteresis thresholds (θ_l, θ_h): wider hysteresis suppresses mode
//      flapping (CHANGE_MODE storms) at a small utilization cost;
//  A2  the α update-to-search cutover: α = 0-like behaviour (immediate
//      search) vs large α (update-heavy);
//  A3  the Best() lender heuristic vs a random eligible lender: Best()
//      reduces borrow-round collisions and thus mean attempts m;
//  A4  the prediction window W (with 2T << W the predictor is dominated by
//      the current value; shrinking W makes it twitchier).
#include <cstdio>

#include "bench_util.hpp"
#include "core/adaptive.hpp"
#include "metrics/table.hpp"
#include "runner/experiment.hpp"
#include "runner/world.hpp"
#include "traffic/profile.hpp"

namespace {

using namespace dca;
using metrics::Table;
using runner::Scheme;

struct AdaptiveStats {
  runner::RunResult run;
  std::uint64_t mode_switches = 0;
  std::uint64_t change_mode_msgs = 0;
  std::uint64_t repacks = 0;
};

AdaptiveStats run_adaptive(const runner::ScenarioConfig& cfg, double rho_base,
                           bool hotspot) {
  const double rate = cfg.arrival_rate_for_load(rho_base);
  const cell::CellId hot = (cfg.rows / 2) * cfg.cols + cfg.cols / 2;
  const traffic::UniformProfile uni(rate);
  const traffic::HotspotProfile hs(rate, {hot}, 10.0, sim::minutes(5),
                                   sim::minutes(15));
  const traffic::LoadProfile& profile =
      hotspot ? static_cast<const traffic::LoadProfile&>(hs) : uni;
  runner::World w(cfg, Scheme::kAdaptive, &profile);
  w.run_to_quiescence();

  AdaptiveStats out;
  out.run.agg = metrics::aggregate_records(w.records(), w.latency_bound(), cfg.warmup);
  out.run.violations = w.interference_violations();
  out.run.quiescent = w.quiescent();
  out.run.total_messages = w.total_sent();
  out.change_mode_msgs = w.sent_of(net::MsgKind::kChangeMode);
  for (cell::CellId c = 0; c < w.grid().n_cells(); ++c) {
    const auto& n = dynamic_cast<const core::AdaptiveNode&>(w.node(c));
    out.mode_switches += n.switches_to_borrowing() + n.switches_to_local();
    out.repacks += n.repacks();
  }
  if (out.run.violations != 0 || !out.run.quiescent) {
    std::fprintf(stderr, "INVARIANT FAILURE in ablation\n");
    std::exit(1);
  }
  return out;
}

void print_stats_row(Table& t, const std::string& label, const AdaptiveStats& s) {
  char xi[32];
  std::snprintf(xi, sizeof xi, "%.2f/%.2f", s.run.agg.xi2, s.run.agg.xi3);
  t.add_row({label, Table::num(100.0 * s.run.agg.drop_rate(), 2),
             Table::num(s.run.agg.delay_in_T.mean(), 3),
             Table::num(s.run.agg.messages_per_call.mean(), 1),
             Table::num(s.run.agg.mean_update_attempts, 2), xi,
             std::to_string(s.mode_switches), std::to_string(s.change_mode_msgs)});
}

std::vector<std::string> stats_header() {
  return {"variant", "drop%", "AcqT [T]", "msgs/call", "m", "xi2/xi3",
          "mode switches", "CHANGE_MODE msgs"};
}

}  // namespace

int main() {
  auto base = benchutil::paper_config();
  base.duration = sim::minutes(20);
  base.warmup = sim::minutes(2);
  const double rho = 0.7;

  // ---- A1: hysteresis -------------------------------------------------
  benchutil::heading("A1: hysteresis thresholds (uniform rho = 0.7)");
  {
    Table t(stats_header());
    for (const auto& [lo, hi] : std::vector<std::pair<int, int>>{
             {1, 2}, {2, 4}, {4, 8}}) {
      auto cfg = base;
      cfg.adaptive.theta_low = lo;
      cfg.adaptive.theta_high = hi;
      print_stats_row(t, "theta=(" + std::to_string(lo) + "," + std::to_string(hi) + ")",
                      run_adaptive(cfg, rho, false));
    }
    std::printf("%s\n", t.render().c_str());
  }

  // ---- A2: alpha cutover ----------------------------------------------
  // Borrow-round collisions (and hence retries that alpha bounds) only
  // occur when requests overlap in time; with T = 5 ms they resolve long
  // before the next arrival, so this ablation runs in a slow-control-plane
  // regime (T = 500 ms) at high load where rounds genuinely fail.
  benchutil::heading(
      "A2: update->search cutover alpha (rho = 0.95, T = 500 ms)");
  {
    Table t(stats_header());
    for (const int alpha : {1, 2, 4, 8}) {
      auto cfg = base;
      cfg.adaptive.alpha = alpha;
      cfg.latency = sim::milliseconds(500);
      print_stats_row(t, "alpha=" + std::to_string(alpha),
                      run_adaptive(cfg, 0.95, false));
    }
    std::printf("%s\n", t.render().c_str());
  }

  // ---- A3: Best() heuristic vs random lender ---------------------------
  benchutil::heading("A3: Best() lender heuristic vs random (hot spot)");
  {
    Table t(stats_header());
    for (const bool best : {true, false}) {
      auto cfg = base;
      cfg.adaptive.use_best_heuristic = best;
      print_stats_row(t, best ? "Best() heuristic" : "random lender",
                      run_adaptive(cfg, 0.3, true));
    }
    std::printf("%s\n", t.render().c_str());
  }

  // ---- A4: prediction window ------------------------------------------
  benchutil::heading("A4: NFC prediction window W (uniform rho = 0.7)");
  {
    Table t(stats_header());
    for (const int w_s : {5, 30, 120}) {
      auto cfg = base;
      cfg.adaptive.window = sim::seconds(w_s);
      print_stats_row(t, "W=" + std::to_string(w_s) + "s",
                      run_adaptive(cfg, rho, false));
    }
    std::printf("%s\n", t.render().c_str());
  }

  // ---- A6: channel reassignment extension --------------------------------
  // Not in the paper (its reference [1] is the classic source): migrating
  // a borrowed-channel call onto a freed primary returns borrowed
  // spectrum to the neighbourhood early. Evaluated at a sustained hot
  // spot, where held borrowed channels are what starves the neighbours.
  benchutil::heading("A6: dynamic channel reassignment (hot spot, base rho = 0.3)");
  {
    Table t(stats_header());
    for (const bool repack : {false, true}) {
      auto cfg = base;
      cfg.adaptive.repack = repack;
      AdaptiveStats s = run_adaptive(cfg, 0.3, true);
      print_stats_row(t, repack ? "repack on" : "repack off (paper)", s);
      std::printf("  (%s: %llu reassignments)\n",
                  repack ? "repack on" : "repack off",
                  static_cast<unsigned long long>(s.repacks));
    }
    std::printf("%s\n", t.render().c_str());
  }

  // ---- strict Fig. 4 variant -------------------------------------------
  benchutil::heading("A5: Fig. 4 literal reject rule vs prose rule (rho = 0.7)");
  {
    Table t(stats_header());
    for (const bool strict : {false, true}) {
      auto cfg = base;
      cfg.adaptive.strict_fig4 = strict;
      print_stats_row(t, strict ? "strict figure rule" : "prose rule (default)",
                      run_adaptive(cfg, rho, false));
    }
    std::printf("%s\n", t.render().c_str());
  }

  return 0;
}
