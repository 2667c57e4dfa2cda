// dcasim — the command-line front end of the simulator.
//
// Runs any allocation scheme (or all of them) on a configurable cellular
// system and traffic pattern, printing an aligned results table or CSV.
//
//   $ dcasim --scheme adaptive --rho 0.7
//   $ dcasim --scheme all --rho 0.9 --rows 14 --cols 14 --torus --csv
//   $ dcasim --profile hotspot --hot-factor 10 --scheme fca
//   $ dcasim --help
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "metrics/json.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"
#include "runner/config_file.hpp"
#include "runner/conformance.hpp"
#include "runner/experiment.hpp"
#include "runner/world.hpp"
#include "traffic/generator.hpp"
#include "traffic/profile.hpp"

namespace {

using namespace dca;

std::vector<runner::Scheme> parse_schemes(const std::string& s) {
  if (s == "all")
    return {std::begin(runner::kAllSchemes), std::end(runner::kAllSchemes)};
  if (s == "fca") return {runner::Scheme::kFca};
  if (s == "search") return {runner::Scheme::kBasicSearch};
  if (s == "update") return {runner::Scheme::kBasicUpdate};
  if (s == "advupdate") return {runner::Scheme::kAdvancedUpdate};
  if (s == "advsearch") return {runner::Scheme::kAdvancedSearch};
  if (s == "adaptive") return {runner::Scheme::kAdaptive};
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  runner::ArgParser args(
      "dcasim",
      "distributed dynamic channel allocation simulator (Kahol et al. 1998)");
  args.add_string("scheme", "adaptive",
                  "fca | search | update | advupdate | advsearch | adaptive | all")
      .add_int("rows", 8, "grid rows")
      .add_int("cols", 8, "grid columns")
      .add_int("channels", 70, "spectrum size")
      .add_int("cluster", 7, "reuse cluster size (3 or 7)")
      .add_int("radius", 2, "interference radius in hops")
      .add_flag("torus", "wraparound grid (rows%14==0, cols%7==0 for cluster 7)")
      .add_double("rho", 0.6, "offered Erlang/cell, normalized to |PR|")
      .add_string("profile", "uniform", "uniform | hotspot")
      .add_double("hot-factor", 10.0, "hot-spot load multiplier")
      .add_int("hot-cell", -1, "hot cell id (-1 = grid center)")
      .add_double("duration-min", 30.0, "simulated minutes of traffic")
      .add_double("warmup-min", 5.0, "minutes excluded from statistics")
      .add_double("holding-s", 180.0, "mean call holding time [s]")
      .add_double("latency-ms", 5.0, "one-way control latency T [ms]")
      .add_double("jitter-ms", 0.0, "uniform latency jitter below T [ms]")
      .add_double("dwell-s", 0.0, "mean cell dwell time for mobility (0 = off)")
      .add_int("seed", 1, "RNG seed")
      .add_int("seeds", 1, "replications (mean +/- sd when > 1)")
      .add_int("theta-low", 2, "adaptive: enter borrowing below this prediction")
      .add_int("theta-high", 4, "adaptive: return to local at this prediction")
      .add_int("alpha", 3, "adaptive: update rounds before searching")
      .add_double("window-s", 30.0, "adaptive: NFC prediction window [s]")
      .add_flag("repack", "adaptive: migrate borrowed calls onto freed primaries")
      .add_int("max-attempts", 10, "update-family retry cap")
      .add_string("policy", "default",
                  "allocation policy, name or name(k=v,...); see PROTOCOL.md")
      .add_double("drop-prob", 0.0, "fault: per-frame drop probability [0,0.9]")
      .add_double("dup-prob", 0.0, "fault: per-frame duplication probability")
      .add_double("fault-jitter-ms", 0.0, "fault: extra per-frame jitter [ms]")
      .add_double("pause-rate", 0.0, "fault: MSS pauses per minute per cell")
      .add_double("pause-mean-s", 0.0, "fault: mean MSS pause length [s]")
      .add_double("crash-rate", 0.0, "fault: MSS crashes per minute per cell")
      .add_double("crash-mean-s", 0.0, "fault: mean MSS outage length [s]")
      .add_string("net-partition", "",
                  "fault: scheduled partitions 'cells@start_s..end_s', "
                  "';'-separated, e.g. '0,1,8@300..420;9@600..700'")
      .add_double("timeout-ms", 0.0, "protocol request timeout (0 = no timers)")
      .add_int("shards", 1, "event-engine shards (parallel partitions of the grid)")
      .add_int("threads", 0, "sharded-engine workers (0 = one per shard)")
      .add_string("partition", "blocks",
                  "cell->shard map: blocks (hex blocks) | striped (cell % shards)")
      .add_flag("pin", "pin sharded-engine workers to distinct CPUs (Linux)")
      .add_flag("stream-metrics",
                "fold metrics/trace out of the engine at window barriers "
                "(bounded memory)")
      .add_double("fade-prob", 0.0, "radio: per-(cell,channel) fade probability")
      .add_double("fade-bucket-ms", 1000.0, "radio: fade coherence time [ms]")
      .add_string("config", "", "scenario file applied before other options")
      .add_string("trace", "", "write the structured event trace (JSONL) here")
      .add_flag("conformance", "check the trace against the paper's invariants")
      .add_flag("dump-config", "print the effective scenario file and exit")
      .add_flag("csv", "emit CSV instead of an aligned table")
      .add_flag("json", "emit a JSON array of result objects");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "dcasim: %s\n(use --help)\n", args.error().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::printf("%s", args.help_text().c_str());
    return 0;
  }

  const auto schemes = parse_schemes(args.get_string("scheme"));
  if (schemes.empty()) {
    std::fprintf(stderr, "dcasim: unknown scheme '%s'\n",
                 args.get_string("scheme").c_str());
    return 2;
  }

  // Defaults come from ScenarioConfig (identical to the CLI defaults), a
  // scenario file overrides them, and explicitly given CLI options win.
  runner::ScenarioConfig cfg;
  if (!args.get_string("config").empty()) {
    std::string err;
    if (!runner::load_scenario_file(args.get_string("config"), cfg, err)) {
      std::fprintf(stderr, "dcasim: %s\n", err.c_str());
      return 2;
    }
  }
  const bool no_file = args.get_string("config").empty();
  const auto use = [&](const char* name) { return no_file || args.was_set(name); };
  if (use("rows")) cfg.rows = static_cast<int>(args.get_int("rows"));
  if (use("cols")) cfg.cols = static_cast<int>(args.get_int("cols"));
  if (use("channels")) cfg.n_channels = static_cast<int>(args.get_int("channels"));
  if (use("cluster")) cfg.cluster = static_cast<int>(args.get_int("cluster"));
  if (use("radius"))
    cfg.interference_radius = static_cast<int>(args.get_int("radius"));
  if (no_file || args.was_set("torus"))
    cfg.wrap =
        args.get_flag("torus") ? cell::Wrap::kToroidal : cell::Wrap::kBounded;
  if (use("duration-min"))
    cfg.duration = sim::from_seconds(args.get_double("duration-min") * 60.0);
  if (use("warmup-min"))
    cfg.warmup = sim::from_seconds(args.get_double("warmup-min") * 60.0);
  if (use("holding-s")) cfg.mean_holding_s = args.get_double("holding-s");
  if (use("latency-ms"))
    cfg.latency = sim::from_seconds(args.get_double("latency-ms") / 1000.0);
  if (use("jitter-ms"))
    cfg.latency_jitter = sim::from_seconds(args.get_double("jitter-ms") / 1000.0);
  if (use("dwell-s")) cfg.mean_dwell_s = args.get_double("dwell-s");
  if (use("seed")) cfg.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  if (use("max-attempts"))
    cfg.max_update_attempts = static_cast<int>(args.get_int("max-attempts"));
  if (use("policy")) {
    std::string specError;
    if (!proto::parse_policy_spec(args.get_string("policy"), cfg.policy,
                                  specError)) {
      std::fprintf(stderr, "dcasim: %s\n", specError.c_str());
      return 2;
    }
  }
  if (use("theta-low"))
    cfg.adaptive.theta_low = static_cast<int>(args.get_int("theta-low"));
  if (use("theta-high"))
    cfg.adaptive.theta_high = static_cast<int>(args.get_int("theta-high"));
  if (use("alpha")) cfg.adaptive.alpha = static_cast<int>(args.get_int("alpha"));
  if (use("window-s"))
    cfg.adaptive.window = sim::from_seconds(args.get_double("window-s"));
  if (no_file || args.was_set("repack"))
    cfg.adaptive.repack = args.get_flag("repack");
  if (use("drop-prob")) cfg.fault.drop_prob = args.get_double("drop-prob");
  if (use("dup-prob")) cfg.fault.dup_prob = args.get_double("dup-prob");
  if (use("fault-jitter-ms"))
    cfg.fault.jitter = sim::from_seconds(args.get_double("fault-jitter-ms") / 1000.0);
  if (use("pause-rate")) cfg.fault.pause_rate_per_min = args.get_double("pause-rate");
  if (use("pause-mean-s")) cfg.fault.pause_mean_s = args.get_double("pause-mean-s");
  if (use("crash-rate")) cfg.fault.crash_rate_per_min = args.get_double("crash-rate");
  if (use("crash-mean-s")) cfg.fault.crash_mean_s = args.get_double("crash-mean-s");
  if (args.was_set("net-partition")) {
    // Reuse the scenario-file grammar: each ';'-separated chunk is one
    // "net_partition = cells @ start_s..end_s" line.
    std::string rest = args.get_string("net-partition");
    while (!rest.empty()) {
      const auto semi = rest.find(';');
      const std::string chunk = rest.substr(0, semi);
      rest = semi == std::string::npos ? "" : rest.substr(semi + 1);
      if (chunk.empty()) continue;
      std::string err;
      if (!runner::apply_scenario_text("net_partition = " + chunk + "\n", cfg,
                                       err)) {
        std::fprintf(stderr, "dcasim: bad --net-partition chunk '%s': %s\n",
                     chunk.c_str(), err.c_str());
        return 2;
      }
    }
  }
  if (use("timeout-ms"))
    cfg.request_timeout = sim::from_seconds(args.get_double("timeout-ms") / 1000.0);
  if (use("shards")) cfg.shards = static_cast<int>(args.get_int("shards"));
  if (use("threads")) cfg.threads = static_cast<int>(args.get_int("threads"));
  if (use("partition")) {
    const std::string p = args.get_string("partition");
    if (p == "striped") {
      cfg.partition = cell::Partition::kStriped;
    } else if (p == "blocks") {
      cfg.partition = cell::Partition::kBlocks;
    } else {
      std::fprintf(stderr, "dcasim: bad --partition '%s' (striped|blocks)\n",
                   p.c_str());
      return 2;
    }
  }
  if (no_file || args.was_set("pin")) cfg.pin = args.get_flag("pin");
  if (no_file || args.was_set("stream-metrics"))
    cfg.stream_metrics = args.get_flag("stream-metrics");
  if (use("fade-prob")) cfg.radio_fade_prob = args.get_double("fade-prob");
  if (use("fade-bucket-ms"))
    cfg.radio_fade_bucket =
        sim::from_seconds(args.get_double("fade-bucket-ms") / 1000.0);

  if (const std::string problem = runner::validate_scenario(cfg); !problem.empty()) {
    std::fprintf(stderr, "dcasim: invalid scenario: %s\n", problem.c_str());
    return 2;
  }
  if (cfg.warmup >= cfg.duration) {
    cfg.warmup = cfg.duration / 10;
    std::fprintf(stderr,
                 "dcasim: warmup >= duration would discard every record; "
                 "clamped warmup to %.1f min\n",
                 sim::to_seconds(cfg.warmup) / 60.0);
  }

  if (args.get_flag("dump-config")) {
    std::printf("%s", runner::scenario_to_text(cfg).c_str());
    return 0;
  }

  const double rho = args.get_double("rho");
  const int n_seeds = static_cast<int>(args.get_int("seeds"));
  const std::string profile_name = args.get_string("profile");
  if (profile_name != "uniform" && profile_name != "hotspot") {
    std::fprintf(stderr, "dcasim: unknown profile '%s'\n", profile_name.c_str());
    return 2;
  }
  const bool hotspot = profile_name == "hotspot";
  if (hotspot && n_seeds > 1) {
    std::fprintf(stderr,
                 "dcasim: --seeds replication currently supports the uniform "
                 "profile only\n");
    return 2;
  }
  const std::string trace_path = args.get_string("trace");
  const bool conformance = args.get_flag("conformance");
  if ((conformance || !trace_path.empty()) && n_seeds > 1) {
    std::fprintf(stderr,
                 "dcasim: --trace/--conformance need a single run per scheme "
                 "(drop --seeds)\n");
    return 2;
  }

  metrics::Table table(
      n_seeds > 1
          ? std::vector<std::string>{"scheme", "drop% mean", "drop% sd",
                                     "AcqT[T] mean", "msgs/call mean", "xi1 mean"}
          : std::vector<std::string>{"scheme", "offered", "drop%", "AcqT[T]",
                                     "msgs/call", "xi1/xi2/xi3", "carried E",
                                     "violations"});
  metrics::JsonWriter json;
  json.begin_array();

  for (const runner::Scheme s : schemes) {
    if (n_seeds > 1) {
      const runner::Replicated rep = runner::run_replicated(cfg, s, rho, n_seeds);
      table.add_row({runner::scheme_name(s),
                     metrics::Table::num(100 * rep.drop_rate.mean(), 2),
                     metrics::Table::num(100 * rep.drop_rate.stddev(), 2),
                     metrics::Table::num(rep.mean_delay_in_T.mean(), 3),
                     metrics::Table::num(rep.mean_msgs_per_call.mean(), 1),
                     metrics::Table::num(rep.xi1.mean(), 3)});
      json.begin_object();
      json.key("scheme");
      json.value(runner::scheme_name(s));
      json.key("seeds");
      json.value(rep.seeds);
      json.key("drop_rate_mean");
      json.value(rep.drop_rate.mean());
      json.key("drop_rate_sd");
      json.value(rep.drop_rate.stddev());
      json.key("acq_time_T_mean");
      json.value(rep.mean_delay_in_T.mean());
      json.key("msgs_per_call_mean");
      json.value(rep.mean_msgs_per_call.mean());
      json.key("xi1_mean");
      json.value(rep.xi1.mean());
      json.end_object();
      if (rep.violations != 0) return 1;
      continue;
    }
    runner::RunResult r;
    sim::TraceRecorder rec;
    sim::TraceRecorder* trace =
        (conformance || !trace_path.empty()) ? &rec : nullptr;
    // Streaming mode never buffers the trace: spill it to the JSONL file
    // as the engine folds it out (same line schema as trace_to_jsonl), or
    // discard it when only the in-engine conformance replay needs it.
    std::FILE* spill = nullptr;
    if (cfg.stream_metrics && trace != nullptr) {
      if (!trace_path.empty()) {
        std::string path = trace_path;
        if (schemes.size() > 1) path += "." + runner::scheme_name(s);
        spill = std::fopen(path.c_str(), "w");
        if (spill == nullptr) {
          std::fprintf(stderr, "dcasim: cannot write %s\n", path.c_str());
          return 2;
        }
        rec.set_sink([spill](const sim::TraceEvent& e) {
          const std::string line = runner::trace_event_to_json(e);
          std::fwrite(line.data(), 1, line.size(), spill);
          std::fputc('\n', spill);
        });
      } else {
        rec.set_sink([](const sim::TraceEvent&) {});
      }
    }
    if (hotspot) {
      cell::CellId hot = static_cast<cell::CellId>(args.get_int("hot-cell"));
      if (hot < 0) hot = (cfg.rows / 2) * cfg.cols + cfg.cols / 2;
      r = runner::run_hotspot(cfg, s, rho, args.get_double("hot-factor"),
                              cfg.warmup, cfg.duration, {hot}, trace);
    } else {
      r = runner::run_uniform(cfg, s, rho, trace);
    }
    if (spill != nullptr) std::fclose(spill);
    if (!trace_path.empty() && !cfg.stream_metrics) {
      // One file per scheme; the scheme name is appended when several run.
      std::string path = trace_path;
      if (schemes.size() > 1) path += "." + runner::scheme_name(s);
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "dcasim: cannot write %s\n", path.c_str());
        return 2;
      }
      const std::string jsonl = runner::trace_to_jsonl(rec.events());
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
    }
    if (conformance) {
      if (cfg.stream_metrics) {
        // The engine already replayed the streamed trace through the
        // checker; the buffered events are gone (spilled or discarded).
        std::fprintf(stderr, "%s: conformance: %s (%llu violations, in-engine)\n",
                     runner::scheme_name(s).c_str(),
                     r.conformance_ok() ? "OK" : "FAILED",
                     static_cast<unsigned long long>(r.conformance_violations));
        if (!r.conformance_ok()) return 1;
      } else {
        const cell::HexGrid grid(cfg.rows, cfg.cols, cfg.interference_radius,
                                 cfg.wrap);
        const runner::ConformanceReport rep =
            runner::check_trace(grid, cfg.n_channels, rec.events());
        std::fprintf(stderr, "%s: conformance: %s\n",
                     runner::scheme_name(s).c_str(), rep.to_string().c_str());
        if (!rep.ok()) return 1;
      }
    }
    char xi[48];
    std::snprintf(xi, sizeof xi, "%.2f/%.2f/%.2f", r.agg.xi1, r.agg.xi2,
                  r.agg.xi3);
    table.add_row({runner::scheme_name(s), std::to_string(r.agg.offered),
                   metrics::Table::num(100 * r.agg.drop_rate(), 2),
                   metrics::Table::num(r.agg.delay_in_T.mean(), 3),
                   metrics::Table::num(r.agg.messages_per_call.mean(), 1), xi,
                   metrics::Table::num(r.carried_erlangs, 1),
                   std::to_string(r.violations)});
    json.begin_object();
    json.key("scheme");
    json.value(runner::scheme_name(s));
    json.key("rho");
    json.value(rho);
    json.key("offered");
    json.value(r.agg.offered);
    json.key("acquired");
    json.value(r.agg.acquired);
    json.key("blocked");
    json.value(r.agg.blocked);
    json.key("starved");
    json.value(r.agg.starved);
    json.key("drop_rate");
    json.value(r.agg.drop_rate());
    json.key("acq_time_T_mean");
    json.value(r.agg.delay_in_T.mean());
    json.key("acq_time_T_max");
    json.value(r.agg.delay_in_T.max());
    json.key("msgs_per_call_mean");
    json.value(r.agg.messages_per_call.mean());
    json.key("xi");
    json.begin_array();
    json.value(r.agg.xi1);
    json.value(r.agg.xi2);
    json.value(r.agg.xi3);
    json.end_array();
    json.key("carried_erlangs");
    json.value(r.carried_erlangs);
    json.key("total_messages");
    json.value(r.total_messages);
    json.key("violations");
    json.value(r.violations);
    json.key("quiescent");
    json.value(r.quiescent);
    json.key("downed");
    json.value(r.agg.downed);
    json.key("crashes");
    json.value(r.availability.crashes);
    json.key("uptime_fraction");
    json.value(r.availability.uptime_fraction(cfg.duration,
                                              cfg.rows * cfg.cols));
    json.key("mean_time_to_resync_s");
    json.value(r.availability.mean_time_to_resync_s());
    json.key("peak_rss_bytes");
    json.value(r.peak_rss_bytes);
    json.end_object();
    if (r.violations != 0) {
      std::fprintf(stderr, "dcasim: INTERFERENCE VIOLATIONS DETECTED\n");
      return 1;
    }
  }
  json.end_array();

  if (args.get_flag("json")) {
    std::printf("%s\n", json.str().c_str());
  } else if (args.get_flag("csv")) {
    std::printf("%s", table.csv().c_str());
  } else {
    std::printf("%s", table.render().c_str());
  }
  return 0;
}
