// dcaviz — renders the cellular system to SVG.
//
//   $ dcaviz --out grid.svg                          # reuse colouring
//   $ dcaviz --out focus.svg --focus 36              # interference region
//   $ dcaviz --out heat.svg --snapshot hotspot       # usage heat map after
//                                                    # a simulated hot spot
#include <cstdio>
#include <vector>

#include "runner/cli.hpp"
#include "runner/world.hpp"
#include "traffic/profile.hpp"
#include "viz/svg.hpp"

int main(int argc, char** argv) {
  using namespace dca;

  runner::ArgParser args("dcaviz", "SVG renderer for the cellular system");
  args.add_string("out", "grid.svg", "output SVG path")
      .add_int("rows", 8, "grid rows")
      .add_int("cols", 8, "grid columns")
      .add_int("radius", 2, "interference radius")
      .add_int("channels", 70, "spectrum size")
      .add_int("cluster", 7, "reuse cluster size")
      .add_flag("torus", "wraparound grid")
      .add_flag("greedy", "greedy reuse plan instead of the cluster pattern")
      .add_int("focus", -1, "highlight this cell and its interference region")
      .add_string("snapshot", "", "'' | uniform | hotspot: run a short sim and "
                                  "shade cells by channels in use")
      .add_double("rho", 0.5, "offered load for the snapshot sim")
      .add_flag("color-labels", "label colour classes instead of cell ids");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "dcaviz: %s\n(use --help)\n", args.error().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::printf("%s", args.help_text().c_str());
    return 0;
  }

  runner::ScenarioConfig cfg;
  cfg.rows = static_cast<int>(args.get_int("rows"));
  cfg.cols = static_cast<int>(args.get_int("cols"));
  cfg.interference_radius = static_cast<int>(args.get_int("radius"));
  cfg.n_channels = static_cast<int>(args.get_int("channels"));
  cfg.cluster = static_cast<int>(args.get_int("cluster"));
  cfg.wrap = args.get_flag("torus") ? cell::Wrap::kToroidal : cell::Wrap::kBounded;
  cfg.greedy_plan = args.get_flag("greedy");
  cfg.duration = sim::minutes(10);
  cfg.warmup = 0;

  if (const std::string problem = runner::validate_scenario(cfg); !problem.empty()) {
    std::fprintf(stderr, "dcaviz: invalid scenario: %s\n", problem.c_str());
    return 2;
  }

  viz::SvgOptions opt;
  opt.focus = static_cast<cell::CellId>(args.get_int("focus"));
  opt.label_ids = !args.get_flag("color-labels");
  opt.label_colors = args.get_flag("color-labels");

  // Build the world (also used for a snapshot sim when requested) —
  // cheapest way to share grid/plan construction and validation.
  const std::string snapshot = args.get_string("snapshot");
  const double rate = cfg.arrival_rate_for_load(args.get_double("rho"));
  const cell::CellId hot = (cfg.rows / 2) * cfg.cols + cfg.cols / 2;
  const traffic::UniformProfile uni(rate);
  const traffic::HotspotProfile hs(rate, {hot}, 10.0, 0, cfg.duration);
  const traffic::LoadProfile* profile = nullptr;
  if (!snapshot.empty()) {
    profile = snapshot == "hotspot" ? static_cast<const traffic::LoadProfile*>(&hs)
                                    : &uni;
  }
  runner::World world(cfg, runner::Scheme::kAdaptive, profile);

  if (!snapshot.empty()) {
    world.run_until(cfg.duration);  // mid-flight: usage visible
    opt.in_use.resize(static_cast<std::size_t>(world.grid().n_cells()));
    for (cell::CellId c = 0; c < world.grid().n_cells(); ++c) {
      opt.in_use[static_cast<std::size_t>(c)] = world.node(c).in_use().size();
    }
    opt.heat_scale = 2 * cfg.n_channels / cfg.cluster;
  }

  const std::string path = args.get_string("out");
  if (!viz::write_svg(path, world.grid(), world.plan(), opt)) {
    std::fprintf(stderr, "dcaviz: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%dx%d cells%s)\n", path.c_str(), cfg.rows, cfg.cols,
              snapshot.empty() ? "" : ", with usage heat map");
  return 0;
}
